//! Property-based tests spanning crates: the delta logger is lossless for
//! arbitrary snapshot streams, the output engines keep their invariants
//! under arbitrary operations, and the classification threshold behaves
//! monotonically.

use proptest::prelude::*;

use mantra::core::logger::{apply, diff, SnapshotParts, TableDelta, TableLog};
use mantra::core::output::{Cell, ColumnOp, Table};
use mantra::core::stats::UsageStats;
use mantra::core::tables::{LearnedFrom, PairRow, RouteRow, SessionRow, Tables};
use mantra::net::{BitRate, GroupAddr, Ip, Prefix, SimTime};
use mantra_oracle::logger::{apply_reference, diff_reference};
use mantra_oracle::UsageStatsExt;

fn arb_pair() -> impl Strategy<Value = PairRow> {
    (0u32..40, 1u32..2_000_000, 0u64..300_000, any::<bool>()).prop_map(
        |(g, src, bps, forwarding)| PairRow {
            source: Ip(src),
            group: GroupAddr::from_index(g),
            current_bw: BitRate::from_bps(bps),
            avg_bw: BitRate::from_bps(bps),
            forwarding,
            learned_from: LearnedFrom::Dvmrp,
        },
    )
}

fn arb_route() -> impl Strategy<Value = RouteRow> {
    (0u32..60, 1u32..32, any::<bool>()).prop_map(|(i, metric, reachable)| RouteRow {
        prefix: Prefix::new(Ip(Ip::new(128, 0, 0, 0).0 + (i << 16)), 16).unwrap(),
        next_hop: Some(Ip::new(10, 0, 0, 1)),
        metric,
        uptime: None,
        reachable,
        learned_from: LearnedFrom::Dvmrp,
    })
}

fn arb_snapshot(n: u64) -> impl Strategy<Value = Tables> {
    (
        proptest::collection::vec(arb_pair(), 0..30),
        proptest::collection::vec(arb_route(), 0..30),
    )
        .prop_map(move |(pairs, routes)| {
            let mut t = Tables::new(
                "fixw",
                SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n * 900),
            );
            for p in pairs {
                // Skip duplicate (group, source) keys: add_pair would
                // double-count the derived tables.
                if !t.pairs.contains_key(&(p.group, p.source)) {
                    t.add_pair(p);
                }
            }
            for r in routes {
                t.add_route(r);
            }
            t
        })
}

/// A pair from a small key space, so a section of them repeats keys
/// often and its rows under one key differ.
fn arb_messy_pair() -> impl Strategy<Value = PairRow> {
    (0u32..6, 1u32..5, 0u64..4).prop_map(|(g, src, kbps)| PairRow {
        source: Ip(src),
        group: GroupAddr::from_index(g),
        current_bw: BitRate::from_kbps(kbps),
        avg_bw: BitRate::from_kbps(kbps),
        forwarding: true,
        learned_from: LearnedFrom::Dvmrp,
    })
}

fn arb_messy_route() -> impl Strategy<Value = RouteRow> {
    (0u32..6, any::<bool>(), 1u32..4).prop_map(|(i, mbgp, metric)| RouteRow {
        prefix: Prefix::new(Ip(Ip::new(128, 0, 0, 0).0 + (i << 16)), 16).unwrap(),
        next_hop: None,
        metric,
        uptime: None,
        reachable: true,
        learned_from: if mbgp {
            LearnedFrom::Mbgp
        } else {
            LearnedFrom::Dvmrp
        },
    })
}

fn arb_messy_sa() -> impl Strategy<Value = (GroupAddr, Ip, SimTime)> {
    (0u32..4, 1u32..4, 0u64..3)
        .prop_map(|(g, s, at)| (GroupAddr::from_index(g), Ip(s), SimTime(at)))
}

fn arb_messy_session() -> impl Strategy<Value = SessionRow> {
    (0u32..6, 0u32..3).prop_map(|(g, density)| SessionRow {
        group: GroupAddr::from_index(g),
        name: None,
        density,
        bandwidth: BitRate::ZERO,
        first_advertised: LearnedFrom::Igmp,
        first_seen: SimTime(0),
    })
}

/// Snapshot parts built directly, each section in arrival order: out of
/// key order and with duplicate keys, as only hand-built input or a
/// hand-edited archive has them.
fn arb_messy_parts() -> impl Strategy<Value = SnapshotParts> {
    (
        0u64..1_000,
        proptest::collection::vec(arb_messy_pair(), 0..12),
        proptest::collection::vec(arb_messy_route(), 0..12),
        proptest::collection::vec(arb_messy_sa(), 0..8),
        proptest::collection::vec(arb_messy_session(), 0..8),
    )
        .prop_map(
            |(at, pairs, routes, sa_cache, member_only_sessions)| SnapshotParts {
                captured_at: SimTime(at),
                router: "fixw".into(),
                pairs,
                routes,
                sa_cache,
                member_only_sessions,
            },
        )
}

/// A delta built directly: upserts and removals out of key order,
/// upserts repeating a key, and in every section with upserts its first
/// upserted key removed as well.
fn arb_messy_delta() -> impl Strategy<Value = TableDelta> {
    (arb_messy_parts(), arb_messy_parts()).prop_map(|(ups, gone)| {
        let mut d = TableDelta {
            captured_at: ups.captured_at,
            pair_upserts: ups.pairs,
            pair_removals: gone.pairs.iter().map(|p| (p.group, p.source)).collect(),
            route_upserts: ups.routes,
            route_removals: gone
                .routes
                .iter()
                .map(|r| (r.learned_from, r.prefix))
                .collect(),
            sa_upserts: ups.sa_cache,
            sa_removals: gone.sa_cache.iter().map(|(g, s, _)| (*g, *s)).collect(),
            session_upserts: ups.member_only_sessions,
            session_removals: gone.member_only_sessions.iter().map(|s| s.group).collect(),
        };
        if let Some(p) = d.pair_upserts.first() {
            d.pair_removals.push((p.group, p.source));
        }
        if let Some(r) = d.route_upserts.first() {
            d.route_removals.push((r.learned_from, r.prefix));
        }
        if let Some((g, s, _)) = d.sa_upserts.first() {
            d.sa_removals.push((*g, *s));
        }
        if let Some(s) = d.session_upserts.first() {
            d.session_removals.push(s.group);
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The delta log replays every stream exactly, for any full-snapshot
    /// cadence.
    #[test]
    fn logger_replay_is_lossless(
        streams in proptest::collection::vec((0u64..100).prop_flat_map(arb_snapshot), 1..12),
        full_every in 1usize..8,
    ) {
        // Re-stamp timestamps to be increasing (including the derived
        // first-seen fields, which add_pair anchored to the original
        // captured_at).
        let mut streams = streams;
        for (i, s) in streams.iter_mut().enumerate() {
            let at = SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + i as u64 * 900);
            s.captured_at = at;
            for p in s.participants.values_mut() {
                p.first_seen = at;
            }
            for sess in s.sessions.values_mut() {
                sess.first_seen = at;
            }
        }
        let mut log = TableLog::new(full_every);
        for s in &streams {
            log.append(s);
        }
        let replayed = log.replay().unwrap();
        prop_assert_eq!(replayed, streams);
        // The logger stores a Delta only when it costs less than the Full
        // record, so what it stores never costs more than full snapshots.
        prop_assert!(log.stored_cost <= log.full_cost);
    }

    /// The merge-join diff/apply produces byte-identical deltas and
    /// round-trips to the same snapshots as the reference
    /// implementation, for arbitrary snapshot streams.
    #[test]
    fn delta_codec_matches_reference(
        streams in proptest::collection::vec((0u64..100).prop_flat_map(arb_snapshot), 2..10),
    ) {
        let parts: Vec<SnapshotParts> =
            streams.iter().map(SnapshotParts::from_tables).collect();
        for w in parts.windows(2) {
            let fast = diff(&w[0], &w[1]);
            let slow = diff_reference(&w[0], &w[1]);
            // Delta records must serialise identically, or archives would
            // change shape under the merge join.
            prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
            let applied = apply(&w[0], &fast);
            prop_assert_eq!(&applied, &apply_reference(&w[0], &slow));
            // And applying the delta reconstructs the next snapshot
            // exactly (delta then rebuild is lossless).
            prop_assert_eq!(applied.rebuild(), w[1].rebuild());
        }
    }

    /// On sections this program never builds itself — out of key order,
    /// repeating keys — and on deltas that repeat an upserted key or
    /// upsert a removed one, diff/apply still equal the oracles: the last
    /// row of a key wins and a removal beats an upsert.
    #[test]
    fn delta_codec_matches_reference_on_unsorted_sections(
        prev in arb_messy_parts(),
        next in arb_messy_parts(),
        delta in arb_messy_delta(),
    ) {
        prop_assert_eq!(diff(&prev, &next), diff_reference(&prev, &next));
        prop_assert_eq!(apply(&prev, &delta), apply_reference(&prev, &delta));
    }

    /// Raising the sender threshold never increases senders or active
    /// sessions (classification is monotone).
    #[test]
    fn classification_is_monotone_in_threshold(snapshot in arb_snapshot(0)) {
        let mut prev_senders = usize::MAX;
        let mut prev_active = usize::MAX;
        for kbps in [0u64, 1, 2, 4, 8, 16, 64] {
            let u = UsageStats::from_tables(&snapshot, BitRate::from_kbps(kbps));
            prop_assert!(u.senders <= prev_senders);
            prop_assert!(u.active_sessions <= prev_active);
            prop_assert!(u.senders >= u.active_sessions.min(u.senders));
            prev_senders = u.senders;
            prev_active = u.active_sessions;
        }
    }

    /// Derived tables stay consistent with the pair table for any input.
    #[test]
    fn derived_tables_consistent(snapshot in arb_snapshot(0)) {
        let total_density: u64 = snapshot.sessions.values().map(|s| u64::from(s.density)).sum();
        prop_assert_eq!(total_density as usize, snapshot.pairs.len());
        // Every participant's group count is the number of its pairs.
        for (ip, p) in &snapshot.participants {
            let n = snapshot.pairs.keys().filter(|(_, s)| s == ip).count();
            prop_assert_eq!(p.group_count as usize, n);
        }
        // Sessions' bandwidth equals the sum over their pairs.
        for (g, s) in &snapshot.sessions {
            let sum: u64 = snapshot
                .pairs
                .iter()
                .filter(|((pg, _), _)| pg == g)
                .map(|(_, p)| p.current_bw.bps())
                .sum();
            prop_assert_eq!(s.bandwidth.bps(), sum);
        }
    }

    /// Table sorting is a permutation and orders the key column.
    #[test]
    fn table_sort_permutes_and_orders(vals in proptest::collection::vec(0u32..1_000, 1..50)) {
        let mut table = Table::new("t", vec!["k", "v"]);
        for (i, v) in vals.iter().enumerate() {
            table.push_row(vec![Cell::Num(*v as f64), Cell::Num(i as f64)]);
        }
        let mut sorted = table.clone();
        sorted.sort_by("k", true);
        prop_assert_eq!(sorted.rows.len(), table.rows.len());
        let keys: Vec<f64> = sorted.rows.iter().map(|r| r[0].as_num().unwrap()).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // Multiset preserved.
        let mut orig: Vec<u64> = vals.iter().map(|v| *v as u64).collect();
        let mut got: Vec<u64> = keys.iter().map(|k| *k as u64).collect();
        orig.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(orig, got);
    }

    /// Computed columns obey their arithmetic on every row.
    #[test]
    fn computed_columns_are_correct(
        rows in proptest::collection::vec((0f64..1e6, 1f64..1e6), 1..30),
    ) {
        let mut table = Table::new("t", vec!["a", "b"]);
        for (a, b) in &rows {
            table.push_row(vec![Cell::Num(*a), Cell::Num(*b)]);
        }
        table.add_computed("sum", "a", ColumnOp::Add, "b");
        table.add_computed("ratio", "a", ColumnOp::Div, "b");
        let si = table.column_index("sum").unwrap();
        let ri = table.column_index("ratio").unwrap();
        for (i, (a, b)) in rows.iter().enumerate() {
            let sum = table.rows[i][si].as_num().unwrap();
            let ratio = table.rows[i][ri].as_num().unwrap();
            prop_assert!((sum - (a + b)).abs() < 1e-6);
            prop_assert!((ratio - a / b).abs() < 1e-6);
        }
    }

    /// Graph zooming only ever narrows the data.
    #[test]
    fn series_window_is_contractive(
        points in proptest::collection::vec(0u64..1_000_000, 1..100),
        lo in 0u64..1_000_000,
        span in 0u64..1_000_000,
    ) {
        let mut sorted = points.clone();
        sorted.sort_unstable();
        let mut s = mantra::core::stats::Series::new("x");
        for (i, t) in sorted.iter().enumerate() {
            s.push(SimTime(*t), i as f64);
        }
        let w = s.window(SimTime(lo), SimTime(lo + span));
        prop_assert!(w.len() <= s.len());
        for (t, _) in &w.points {
            prop_assert!(t.as_secs() >= lo && t.as_secs() <= lo + span);
        }
    }
}

/// The logger unit tests' four-cycle stream — a rate change, a departed
/// source, a new session — diffs and applies identically through the
/// merge join and the `BTreeMap` codec, and round-trips.
#[test]
fn diff_apply_match_reference_across_cycles() {
    let snapshot = |n: u64, pairs: &[(u32, Ip, u64)]| {
        let mut tab = Tables::new(
            "fixw",
            SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n * 900),
        );
        for (gi, src, kbps) in pairs {
            tab.add_pair(PairRow {
                source: *src,
                group: GroupAddr::from_index(*gi),
                current_bw: BitRate::from_kbps(*kbps),
                avg_bw: BitRate::from_kbps(*kbps),
                forwarding: true,
                learned_from: LearnedFrom::Dvmrp,
            });
        }
        tab
    };
    let s1 = Ip::new(1, 1, 1, 1);
    let s2 = Ip::new(2, 2, 2, 2);
    let snaps = [
        snapshot(0, &[(0, s1, 64), (1, s2, 2)]),
        snapshot(1, &[(0, s1, 80), (1, s2, 2)]),
        snapshot(2, &[(0, s1, 80)]),
        snapshot(3, &[(0, s1, 80), (2, s2, 128)]),
    ];
    let parts: Vec<SnapshotParts> = snaps.iter().map(SnapshotParts::from_tables).collect();
    for w in parts.windows(2) {
        let fast = diff(&w[0], &w[1]);
        let slow = diff_reference(&w[0], &w[1]);
        assert_eq!(fast, slow);
        let applied = apply(&w[0], &fast);
        assert_eq!(applied, apply_reference(&w[0], &slow));
        assert_eq!(applied, w[1]);
    }
}
