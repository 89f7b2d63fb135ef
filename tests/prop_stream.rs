//! Property-based equivalence of the streaming statistics path: folding
//! logged deltas into [`IncrementalStats`] must produce exactly the
//! statistics the full-snapshot constructors compute, over arbitrary
//! snapshot streams — including empty tables (where every fraction is
//! 0/0 and must come out 0), reachability flips, uptime churn and
//! gateway-concentrated route injections.

use proptest::prelude::*;

use mantra::core::logger::{diff, SnapshotParts, TableDelta};
use mantra::core::stats::{RouteChurn, RouteStats, UsageStats};
use mantra::core::stats_stream::IncrementalStats;
use mantra::core::tables::{LearnedFrom, PairRow, RouteRow, SessionRow, Tables};
use mantra::net::rate::SENDER_THRESHOLD;
use mantra::net::{BitRate, GroupAddr, Ip, Prefix, SimDuration, SimTime};
use mantra_oracle::{detect_injection, RouteChurnExt, RouteStatsExt, UsageStatsExt};

fn arb_pair() -> impl Strategy<Value = PairRow> {
    // Sources include 0 (the unspecified wildcard) to exercise the
    // member-only / wildcard-sender edge cases of the accumulators.
    (0u32..40, 0u32..2_000_000, 0u64..300_000, any::<bool>()).prop_map(
        |(g, src, bps, forwarding)| PairRow {
            source: Ip(src),
            group: GroupAddr::from_index(g),
            current_bw: BitRate::from_bps(bps),
            avg_bw: BitRate::from_bps(bps),
            forwarding,
            learned_from: if src.is_multiple_of(3) {
                LearnedFrom::Igmp
            } else {
                LearnedFrom::Dvmrp
            },
        },
    )
}

fn arb_route() -> impl Strategy<Value = RouteRow> {
    (
        0u32..60,
        1u32..32,
        any::<bool>(),
        0u64..100_000,
        0u32..4,
        0u32..10,
    )
        .prop_map(|(i, metric, reachable, uptime, gw, kind)| RouteRow {
            prefix: Prefix::new(Ip(Ip::new(128, 0, 0, 0).0 + (i << 16)), 16).unwrap(),
            next_hop: (gw > 0).then(|| Ip::new(10, 0, 0, gw as u8)),
            metric,
            uptime: (uptime > 0).then(|| SimDuration::secs(uptime)),
            reachable,
            learned_from: if kind < 2 {
                LearnedFrom::Mbgp
            } else {
                LearnedFrom::Dvmrp
            },
        })
}

/// Arbitrary snapshots, *including empty tables* (0 pairs, 0 routes).
fn arb_snapshot() -> impl Strategy<Value = Tables> {
    (
        proptest::collection::vec(arb_pair(), 0..30),
        proptest::collection::vec(arb_route(), 0..40),
    )
        .prop_map(|(pairs, routes)| {
            let mut t = Tables::new("fixw", SimTime::from_ymd(1998, 11, 1));
            for p in pairs {
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

/// Re-stamps a stream's timestamps to be strictly increasing, the way
/// the monitor's cycles are.
fn restamp(streams: &mut [Tables]) {
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Folding the deltas the logger emits reproduces, at every step and
    /// bit for bit, the statistics the full-snapshot constructors build —
    /// usage, routes and churn alike.
    #[test]
    fn incremental_stats_match_full_rebuild(
        mut streams in proptest::collection::vec(arb_snapshot(), 1..10),
        threshold_kbps in 0u64..16,
        min_new in 1usize..20,
    ) {
        restamp(&mut streams);
        let threshold = BitRate::from_kbps(threshold_kbps);
        let mut stream = IncrementalStats::default();
        prop_assert!(!stream.is_seeded());
        stream.reseed(&streams[0], threshold);
        prop_assert!(stream.is_seeded());
        prop_assert_eq!(stream.usage(), UsageStats::from_tables(&streams[0], threshold));
        prop_assert_eq!(stream.route_stats(), RouteStats::from_tables(&streams[0]));
        for w in streams.windows(2) {
            let (prev, next) = (&w[0], &w[1]);
            let delta = diff(
                &SnapshotParts::from_tables(prev),
                &SnapshotParts::from_tables(next),
            );
            let changes = stream.fold(&delta);
            // The O(delta) accumulators agree exactly with the O(table)
            // reference constructors...
            prop_assert_eq!(stream.usage(), UsageStats::from_tables(next, threshold));
            prop_assert_eq!(stream.route_stats(), RouteStats::from_tables(next));
            // ...and so do the churn counters and the route-injection
            // detection derived from the fold.
            prop_assert_eq!(changes.churn, RouteChurn::between(prev, next));
            prop_assert_eq!(
                changes.injection(min_new),
                detect_injection(prev, next, min_new)
            );
        }
    }

    /// Reseeding from an arbitrary snapshot mid-stream (the archive
    /// reopen path) leaves the accumulators exactly where a fresh seed
    /// would: folding is independent of the stream's history.
    #[test]
    fn reseed_resets_cleanly(
        mut streams in proptest::collection::vec(arb_snapshot(), 2..6),
        threshold_kbps in 0u64..16,
    ) {
        restamp(&mut streams);
        let threshold = BitRate::from_kbps(threshold_kbps);
        let mut dirty = IncrementalStats::default();
        // Accumulate some history first...
        dirty.reseed(&streams[0], threshold);
        for w in streams.windows(2) {
            let delta = diff(
                &SnapshotParts::from_tables(&w[0]),
                &SnapshotParts::from_tables(&w[1]),
            );
            dirty.fold(&delta);
        }
        // ...then reseed from the first snapshot and refold: every step
        // matches a stream that never had the history.
        dirty.reseed(&streams[0], threshold);
        prop_assert_eq!(dirty.usage(), UsageStats::from_tables(&streams[0], threshold));
        for w in streams.windows(2) {
            let delta = diff(
                &SnapshotParts::from_tables(&w[0]),
                &SnapshotParts::from_tables(&w[1]),
            );
            dirty.fold(&delta);
            prop_assert_eq!(dirty.usage(), UsageStats::from_tables(&w[1], threshold));
            prop_assert_eq!(dirty.route_stats(), RouteStats::from_tables(&w[1]));
        }
    }
}

// ----------------------------------------------------------------------
// Hand-built streams: pair and session turnover, member-only sessions,
// route churn and uptime, a route injection, reseeding and empty tables.
// ----------------------------------------------------------------------

fn t(n: u64) -> SimTime {
    SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n * 900)
}

fn g(i: u32) -> GroupAddr {
    GroupAddr::from_index(i)
}

fn pair(t: &mut Tables, gi: u32, src: Ip, kbps: u64, forwarding: bool) {
    t.add_pair(PairRow {
        source: src,
        group: g(gi),
        current_bw: BitRate::from_kbps(kbps),
        avg_bw: BitRate::from_kbps(kbps),
        forwarding,
        learned_from: LearnedFrom::Dvmrp,
    });
}

fn route(t: &mut Tables, third: u8, reachable: bool, metric: u32, uptime: Option<u64>) {
    t.add_route(RouteRow {
        prefix: Prefix::new(Ip::new(128, third, 0, 0), 16).unwrap(),
        next_hop: Some(Ip::new(10, 0, 0, 1)),
        metric,
        uptime: uptime.map(SimDuration::secs),
        reachable,
        learned_from: LearnedFrom::Dvmrp,
    });
}

/// Folds the stream's consecutive deltas and checks every cycle's
/// incremental output against the full-snapshot reference.
fn check_stream(stream: &[Tables]) {
    let mut inc = IncrementalStats::default();
    inc.reseed(&stream[0], SENDER_THRESHOLD);
    assert_eq!(
        inc.usage(),
        UsageStats::from_tables(&stream[0], SENDER_THRESHOLD)
    );
    assert_eq!(inc.route_stats(), RouteStats::from_tables(&stream[0]));
    for w in stream.windows(2) {
        let d = diff(
            &SnapshotParts::from_tables(&w[0]),
            &SnapshotParts::from_tables(&w[1]),
        );
        let changes = inc.fold(&d);
        assert_eq!(
            inc.usage(),
            UsageStats::from_tables(&w[1], SENDER_THRESHOLD)
        );
        assert_eq!(inc.route_stats(), RouteStats::from_tables(&w[1]));
        assert_eq!(changes.churn, RouteChurn::between(&w[0], &w[1]));
    }
}

#[test]
fn fold_tracks_pair_and_session_turnover() {
    let mut a = Tables::new("fixw", t(0));
    pair(&mut a, 0, Ip::new(1, 0, 0, 1), 64, true);
    pair(&mut a, 0, Ip::new(1, 0, 0, 2), 1, true);
    pair(&mut a, 1, Ip::new(2, 0, 0, 1), 1, true);
    pair(&mut a, 2, Ip::new(3, 0, 0, 1), 128, false);
    a.sa_cache.insert((g(0), Ip::new(1, 0, 0, 1)), t(0));

    // Cycle 1: the session-0 sender goes quiet, a wildcard sender
    // appears, session 1 disappears, the SA entry is re-learned.
    let mut b = Tables::new("fixw", t(1));
    pair(&mut b, 0, Ip::new(1, 0, 0, 1), 2, true);
    pair(&mut b, 0, Ip::new(1, 0, 0, 2), 1, true);
    pair(&mut b, 2, Ip::new(3, 0, 0, 1), 128, false);
    pair(&mut b, 3, Ip::UNSPECIFIED, 96, true);
    b.sa_cache.insert((g(0), Ip::new(1, 0, 0, 1)), t(1));

    // Cycle 2: everything gone.
    let c = Tables::new("fixw", t(2));
    check_stream(&[a, b, c]);
}

#[test]
fn fold_tracks_member_only_sessions() {
    let mut a = Tables::new("fixw", t(0));
    a.sessions.insert(
        g(7),
        SessionRow {
            group: g(7),
            name: None,
            density: 0,
            bandwidth: BitRate::ZERO,
            first_advertised: LearnedFrom::Igmp,
            first_seen: t(0),
        },
    );
    // Cycle 1: the member-only session gains a real participant (no
    // longer member-only), and a new member-only session appears.
    let mut b = Tables::new("fixw", t(1));
    pair(&mut b, 7, Ip::new(9, 0, 0, 1), 8, true);
    b.sessions.get_mut(&g(7)).unwrap().first_advertised = LearnedFrom::Igmp;
    b.sessions.insert(
        g(8),
        SessionRow {
            group: g(8),
            name: None,
            density: 0,
            bandwidth: BitRate::ZERO,
            first_advertised: LearnedFrom::Igmp,
            first_seen: t(1),
        },
    );
    let c = Tables::new("fixw", t(2));
    check_stream(&[a, b, c]);
}

#[test]
fn fold_tracks_route_churn_and_uptime() {
    let mut a = Tables::new("fixw", t(0));
    route(&mut a, 1, true, 3, Some(600));
    route(&mut a, 2, true, 3, None);
    route(&mut a, 3, false, 32, Some(60));
    let mut b = Tables::new("fixw", t(1));
    route(&mut b, 1, true, 5, Some(1_500)); // metric + uptime change
    route(&mut b, 3, true, 3, Some(120)); // flip + metric change
    route(&mut b, 4, true, 3, None); // added; 128.2 removed
    let c = Tables::new("fixw", t(2));
    check_stream(&[a, b, c]);
}

#[test]
fn injection_matches_reference_detector() {
    let gw_leak = Ip::new(10, 9, 9, 9);
    let mut a = Tables::new("ucsb", t(0));
    for i in 0..50u32 {
        route(&mut a, (i % 200) as u8, true, 3, None);
    }
    let mut b = a.clone();
    b.captured_at = t(1);
    for i in 0..400u32 {
        b.add_route(RouteRow {
            prefix: Prefix::new(Ip(Ip::new(192, 0, 0, 0).0 + (i << 8)), 24).unwrap(),
            next_hop: Some(gw_leak),
            metric: 1,
            uptime: None,
            reachable: true,
            learned_from: LearnedFrom::Dvmrp,
        });
    }
    let mut inc = IncrementalStats::default();
    inc.reseed(&a, SENDER_THRESHOLD);
    let d = diff(
        &SnapshotParts::from_tables(&a),
        &SnapshotParts::from_tables(&b),
    );
    let changes = inc.fold(&d);
    for min_new in [100, 1_000] {
        assert_eq!(
            changes.injection(min_new),
            detect_injection(&a, &b, min_new),
        );
    }
    // A quiet delta never alerts.
    assert_eq!(inc.fold(&TableDelta::default()).injection(1), None);
}

#[test]
fn reseed_resets_previous_state() {
    let mut a = Tables::new("fixw", t(0));
    pair(&mut a, 0, Ip::new(1, 0, 0, 1), 64, true);
    route(&mut a, 1, true, 3, None);
    let mut inc = IncrementalStats::default();
    assert!(!inc.is_seeded());
    inc.reseed(&a, SENDER_THRESHOLD);
    assert!(inc.is_seeded());
    let mut b = Tables::new("fixw", t(1));
    pair(&mut b, 5, Ip::new(2, 0, 0, 1), 8, true);
    inc.reseed(&b, SENDER_THRESHOLD);
    assert_eq!(inc.usage(), UsageStats::from_tables(&b, SENDER_THRESHOLD));
    assert_eq!(inc.route_stats(), RouteStats::from_tables(&b));
}

#[test]
fn empty_tables_stay_all_zero() {
    let empty = Tables::new("fixw", t(0));
    let mut inc = IncrementalStats::default();
    inc.reseed(&empty, SENDER_THRESHOLD);
    let u = inc.usage();
    assert_eq!(u, UsageStats::from_tables(&empty, SENDER_THRESHOLD));
    assert_eq!(u.sessions, 0);
    assert_eq!(u.single_member_fraction, 0.0);
    assert_eq!(u.bandwidth_saved_multiple, 0.0);
    assert_eq!(inc.route_stats().mean_uptime_secs, None);
}
