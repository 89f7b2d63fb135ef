//! Property-based equivalence of the per-cycle statistics: the one pass
//! over a snapshot's key-sorted tables ([`SnapshotStats::from_tables`])
//! must produce exactly the statistics the full-snapshot constructors
//! compute, and the merge join of consecutive snapshots' DVMRP routes
//! ([`RouteChanges::between`]) exactly their churn and route-injection
//! verdict, over arbitrary snapshot streams — including empty tables
//! (where every fraction is 0/0 and must come out 0), member-only
//! sessions, wildcard senders, reachability flips, uptime churn and
//! gateway-concentrated route injections.

use proptest::prelude::*;

use mantra::core::stats::{RouteChurn, RouteStats, UsageStats};
use mantra::core::stats_stream::{RouteChanges, SnapshotStats};
use mantra::core::tables::{LearnedFrom, PairRow, RouteRow, SessionRow, Tables, TablesBuilder};
use mantra::net::rate::SENDER_THRESHOLD;
use mantra::net::{BitRate, GroupAddr, Ip, Prefix, SimDuration, SimTime};
use mantra_oracle::{detect_injection, RouteChurnExt, RouteStatsExt, UsageStatsExt};

/// One row as a collector hands it to the [`TablesBuilder`].
#[derive(Clone, Debug)]
enum Row {
    Pair(PairRow),
    Route(RouteRow),
    /// IGMP membership of a group, with no `(S,G)` state of its own.
    Igmp(u32),
    Sa(u32, Ip),
    /// A session seeded ahead of the pair rows, as archive replay seeds
    /// member-only sessions.
    Seed(SessionRow),
}

/// Groups are few, so IGMP sightings and seeded sessions land both on
/// groups with pairs and on groups without.
const GROUPS: u32 = 12;

fn arb_pair() -> impl Strategy<Value = PairRow> {
    // Sources include 0 (the unspecified wildcard), and repeat often
    // enough for a source to send in several groups.
    (0..GROUPS, 0u32..40, 0u64..300_000, any::<bool>(), 0u32..3).prop_map(
        |(g, src, bps, forwarding, proto)| PairRow {
            source: Ip(src),
            group: GroupAddr::from_index(g),
            current_bw: BitRate::from_bps(bps),
            avg_bw: BitRate::from_bps(bps),
            forwarding,
            learned_from: [LearnedFrom::Dvmrp, LearnedFrom::Pim, LearnedFrom::Igmp][proto as usize],
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

fn arb_seed() -> impl Strategy<Value = SessionRow> {
    (0..GROUPS, 0u32..3, any::<bool>()).prop_map(|(g, density, igmp)| SessionRow {
        group: GroupAddr::from_index(g),
        name: None,
        density,
        bandwidth: BitRate::ZERO,
        first_advertised: if igmp {
            LearnedFrom::Igmp
        } else {
            LearnedFrom::Dvmrp
        },
        first_seen: SimTime::from_ymd(1998, 11, 1),
    })
}

/// Pairs and routes six times in fifteen each, IGMP sightings, SA
/// entries and seeded sessions once each.
fn arb_row() -> impl Strategy<Value = Row> {
    (
        0u32..15,
        arb_pair(),
        arb_route(),
        (0..GROUPS, 0u32..40),
        arb_seed(),
    )
        .prop_map(|(kind, pair, route, (group, source), seed)| match kind {
            0..=5 => Row::Pair(pair),
            6..=11 => Row::Route(route),
            12 => Row::Igmp(group),
            13 => Row::Sa(group, Ip(source)),
            _ => Row::Seed(seed),
        })
}

/// One snapshot's rows in arrival order, *including none at all*.
fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(arb_row(), 0..60)
}

fn t(n: u64) -> SimTime {
    SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n * 900)
}

/// Assembles snapshot `n` of a stream from its rows, the way the parsers
/// and the archive replay do.
fn build(rows: &[Row], n: u64) -> Tables {
    let mut b = TablesBuilder::new();
    for row in rows {
        match row {
            Row::Pair(p) => b.pair(p.clone()),
            Row::Route(r) => b.route(r.clone()),
            Row::Igmp(g) => b.igmp(GroupAddr::from_index(*g), t(n)),
            Row::Sa(g, s) => b.sa(GroupAddr::from_index(*g), *s, t(n)),
            Row::Seed(s) => b.seed_session(s.clone()),
        }
    }
    b.build("fixw", t(n))
}

/// Checks one snapshot's statistics, and the route changes from the one
/// before it, against the oracles.
fn check(prev: Option<&Tables>, next: &Tables, threshold: BitRate, min_new: usize) {
    let stats = SnapshotStats::from_tables(next, threshold);
    prop_assert_eq!(
        stats.totals().usage(),
        UsageStats::from_tables(next, threshold)
    );
    prop_assert_eq!(stats.totals().route_stats(), RouteStats::from_tables(next));
    if let Some(prev) = prev {
        let changes = RouteChanges::between(prev, next);
        prop_assert_eq!(changes.churn, RouteChurn::between(prev, next));
        prop_assert_eq!(
            changes.injection(min_new),
            detect_injection(prev, next, min_new)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every snapshot's statistics, read off its tables in one pass, equal
    /// the full-snapshot constructors' bit for bit; every consecutive
    /// pair's churn and injection verdict, from one merge join, equal
    /// the whole-table reference's.
    #[test]
    fn snapshot_stats_match_the_oracles(
        stream in proptest::collection::vec(arb_rows(), 1..8),
        threshold_kbps in 0u64..16,
        min_new in 1usize..20,
    ) {
        let threshold = BitRate::from_kbps(threshold_kbps);
        let snapshots: Vec<Tables> = (0u64..)
            .zip(&stream)
            .map(|(n, rows)| build(rows, n))
            .collect();
        check(None, &snapshots[0], threshold, min_new);
        for w in snapshots.windows(2) {
            check(Some(&w[0]), &w[1], threshold, min_new);
        }
    }
}

// ----------------------------------------------------------------------
// Hand-built streams: pair and session turnover, member-only sessions,
// route churn and uptime, a route injection and empty tables.
// ----------------------------------------------------------------------

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

/// Checks every snapshot of the stream, and the changes between each
/// consecutive pair, against the full-snapshot reference.
fn check_stream(stream: &[Tables]) {
    let mut prev = None;
    for next in stream {
        check(prev, next, SENDER_THRESHOLD, 1);
        prev = Some(next);
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
    let member_only = |group: u32, n: u64| SessionRow {
        group: g(group),
        name: None,
        density: 0,
        bandwidth: BitRate::ZERO,
        first_advertised: LearnedFrom::Igmp,
        first_seen: t(n),
    };
    let mut a = Tables::new("fixw", t(0));
    a.sessions.insert(g(7), member_only(7, 0));
    // Cycle 1: the member-only session gains a real participant (no
    // longer member-only), and a new member-only session appears.
    let mut b = Tables::new("fixw", t(1));
    pair(&mut b, 7, Ip::new(9, 0, 0, 1), 8, true);
    b.sessions.get_mut(&g(7)).unwrap().first_advertised = LearnedFrom::Igmp;
    b.sessions.insert(g(8), member_only(8, 1));
    // Cycle 2: IGMP sightings alone, one next to a wildcard pair.
    let mut rows = TablesBuilder::new();
    rows.igmp(g(8), t(2));
    rows.igmp(g(9), t(2));
    rows.pair(PairRow {
        source: Ip::UNSPECIFIED,
        group: g(9),
        current_bw: BitRate::from_kbps(16),
        avg_bw: BitRate::from_kbps(16),
        forwarding: true,
        learned_from: LearnedFrom::Pim,
    });
    let c = rows.build("fixw", t(2));
    assert_eq!(c.sessions.len(), 2);
    let stats = SnapshotStats::from_tables(&c, SENDER_THRESHOLD);
    let u = stats.totals().usage();
    assert_eq!((u.sessions, u.participants, u.active_sessions), (2, 0, 1));
    check_stream(&[a, b, c, Tables::new("fixw", t(3))]);
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
    let churn = RouteChanges::between(&a, &b).churn;
    assert_eq!(
        (
            churn.added,
            churn.removed,
            churn.changed,
            churn.reachability_flips
        ),
        (1, 1, 2, 1)
    );
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
    let changes = RouteChanges::between(&a, &b);
    for min_new in [100, 1_000] {
        assert_eq!(
            changes.injection(min_new),
            detect_injection(&a, &b, min_new),
        );
    }
    assert!(changes.injection(100).is_some());
    // An unchanged table never alerts.
    assert_eq!(RouteChanges::between(&b, &b).injection(1), None);
}

#[test]
fn empty_tables_stay_all_zero() {
    let empty = Tables::new("fixw", t(0));
    let stats = SnapshotStats::from_tables(&empty, SENDER_THRESHOLD);
    let u = stats.totals().usage();
    assert_eq!(u, UsageStats::from_tables(&empty, SENDER_THRESHOLD));
    assert_eq!(u.sessions, 0);
    assert_eq!(u.single_member_fraction, 0.0);
    assert_eq!(u.bandwidth_saved_multiple, 0.0);
    assert_eq!(stats.totals().route_stats().mean_uptime_secs, None);
    assert_eq!(
        RouteChanges::between(&empty, &empty).churn,
        RouteChurn::default()
    );
}
