//! Property-based equivalence of the streaming statistics path: folding
//! logged deltas into [`IncrementalStats`] must produce exactly the
//! statistics the full-snapshot constructors compute, over arbitrary
//! snapshot streams — including empty tables (where every fraction is
//! 0/0 and must come out 0), reachability flips, uptime churn and
//! gateway-concentrated route injections.

use proptest::prelude::*;

use mantra::core::anomaly::detect_injection;
use mantra::core::logger::{diff, SnapshotParts};
use mantra::core::stats::{RouteChurn, RouteStats, UsageStats};
use mantra::core::stats_stream::IncrementalStats;
use mantra::core::tables::{LearnedFrom, PairRow, RouteRow, Tables};
use mantra::net::{BitRate, GroupAddr, Ip, Prefix, SimDuration, SimTime};

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
