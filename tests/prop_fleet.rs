//! Property tests for the engine over a fleet: under ANY churn
//! schedule (shrinkable raw triples — routers leaving, retiring and
//! rejoining, links flapping, partitions forming and healing) and any
//! seed, every statistic the engine reports equals the full-snapshot
//! oracles (`mantra-oracle`) over the snapshot it admitted, and every
//! router's archive replays to exactly those snapshots. The
//! group-by-key consistency sweep raises exactly the anomalies of the
//! pairwise reference, and file archives replay to the streams a
//! memory-archived engine keeps. Checked end-to-end through the live
//! simulator rather than on synthetic tables.

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use common::TempDir;
use mantra::core::anomaly::InconsistencyMonitor;
use mantra::core::logger::TableLog;
use mantra::core::stats::{RouteChurn, RouteStats, UsageStats};
use mantra::core::tables::{LearnedFrom, RouteRow, Tables};
use mantra::core::{ArchiveSpec, Monitor, MonitorConfig, SyncPolicy};
use mantra::net::{Ip, Prefix, SimTime};
use mantra::sim::{ChurnSchedule, RawChurnOp, Scenario, CHURN_SLOTS};
use mantra_oracle::{InconsistencyMonitorExt, RouteChurnExt, RouteStatsExt, UsageStatsExt};

/// A small fleet world: every router monitored, dense fleet workload.
/// Target 10 sizes to one 8-router domain plus the exchange → 9 routers.
fn world(seed: u64) -> (Scenario, Vec<String>) {
    let sc = Scenario::fleet_snapshot(seed, 10, 0.5);
    let routers: Vec<String> = sc
        .sim
        .monitored
        .iter()
        .map(|id| sc.sim.net.topo.router(*id).name.clone())
        .collect();
    (sc, routers)
}

fn cfg_for(routers: Vec<String>, sc: &Scenario, archive: ArchiveSpec) -> MonitorConfig {
    MonitorConfig {
        routers,
        interval: sc.sim.tick(),
        archive,
        ..MonitorConfig::default()
    }
}

/// One churned case: the world of `seed` under the schedule `raw` draws,
/// compressed onto the cycles run so every event fires inside the
/// observed window, watched by one engine whose lifecycle thresholds are
/// short enough to retire a departed router and rejoin it. After every
/// cycle each reported router's statistics must equal the oracles over
/// the snapshot it admitted, and its churn entry the oracle's churn from
/// its previous admitted snapshot; at the end every archive must replay
/// to exactly the admitted snapshots. Returns the rejoins the case saw.
fn check_churned_case(raw: &[RawChurnOp], seed: u64) -> u64 {
    let (mut sc, routers) = world(seed);
    let cycles = 12u64;
    let interval = sc.sim.tick();
    let start = sc.sim.clock;
    let end = SimTime(start.0 + interval.as_secs() * cycles);
    let schedule = ChurnSchedule::from_raw(raw, &sc.sim.net.topo, &[sc.fixw], start, end);
    sc.sim.install_churn(schedule);
    let cfg = MonitorConfig {
        stale_after_intervals: 1,
        retire_after_intervals: 2,
        ..cfg_for(routers.clone(), &sc, ArchiveSpec::Memory)
    };
    let threshold = cfg.threshold;
    let mut monitor = Monitor::new(cfg, 1);
    let mut admitted: BTreeMap<String, Vec<Tables>> = BTreeMap::new();
    for _ in 0..cycles {
        let next = sc.sim.clock + interval;
        sc.sim.advance_to(next);
        let report = monitor.run_cycle(&sc.sim, next);
        for (r, usage, routes) in &report.per_router {
            let latest = monitor.latest(r).expect("a reported router has a snapshot");
            assert_eq!(latest.captured_at, next, "{r}");
            assert_eq!(usage, &UsageStats::from_tables(latest, threshold), "{r}");
            assert_eq!(routes, &RouteStats::from_tables(latest), "{r}");
            assert_eq!(monitor.usage_history(r).last(), Some(usage), "{r}");
            let churn = monitor
                .churn_history(r)
                .last()
                .filter(|(at, _)| *at == next);
            let seen = admitted.entry(r.clone()).or_default();
            let expected = seen
                .last()
                .map(|prev| (next, RouteChurn::between(prev, latest)));
            assert_eq!(
                churn,
                expected.as_ref(),
                "churn of {r} at {}",
                next.iso8601()
            );
            seen.push(latest.clone());
        }
    }
    for r in &routers {
        let replay = monitor.log(r).map(TableLog::replay).unwrap_or_default();
        let expected = admitted.remove(r).unwrap_or_default();
        assert!(
            replay == expected,
            "archive of {r} is not its admitted snapshots"
        );
    }
    (routers.iter())
        .filter_map(|r| monitor.router_health(r))
        .map(|h| h.rejoins)
        .sum()
}

/// The oracle property over random churn schedules: see
/// [`check_churned_case`]. Written as a plain loop over the sampled
/// cases so it can also require that they exercise a rejoin; the case
/// count honours `PROPTEST_CASES` like every proptest here.
#[test]
fn any_churn_schedule_matches_the_oracles() {
    let strategy = (
        proptest::collection::vec((0u16..CHURN_SLOTS, 0u8..12, 0u16..64u16), 0..16),
        0u64..8,
    );
    let mut rng = TestRng::for_test(concat!(
        module_path!(),
        "::any_churn_schedule_matches_the_oracles"
    ));
    let cases = ProptestConfig::with_cases(6).effective_cases();
    let mut rejoins = 0;
    for _ in 0..cases {
        let (raw, seed) = strategy.generate(&mut rng);
        rejoins += check_churned_case(&raw, seed);
    }
    assert!(rejoins > 0, "no rejoin in {cases} sampled cases");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The group-by-key consistency join raises exactly the anomalies of
    /// the O(n²) pairwise reference sweep, for arbitrary route views and
    /// several detector tunings.
    #[test]
    fn sweep_matches_pairwise_reference(
        views_raw in proptest::collection::vec(
            proptest::collection::vec((0u32..50, any::<bool>()), 0..40),
            2..8,
        ),
    ) {
        let views: Vec<Tables> = views_raw
            .iter()
            .enumerate()
            .map(|(i, routes)| {
                let mut t = Tables::new(format!("r{i}"), SimTime::from_ymd(1999, 3, 1));
                for (k, reachable) in routes {
                    t.add_route(RouteRow {
                        prefix: Prefix::new(Ip(Ip::new(128, 0, 0, 0).0 + (k << 16)), 16)
                            .unwrap(),
                        next_hop: Some(Ip::new(10, 0, 0, 1)),
                        metric: 1,
                        uptime: None,
                        reachable: *reachable,
                        learned_from: LearnedFrom::Dvmrp,
                    });
                }
                t
            })
            .collect();
        let refs: Vec<&Tables> = views.iter().collect();
        let now = SimTime::from_ymd(1999, 3, 1);
        for (min_similarity, min_routes) in [(0.85, 20), (0.99, 1), (0.5, 5)] {
            let m = InconsistencyMonitor { min_similarity, min_routes };
            prop_assert_eq!(m.sweep(&refs, now), m.sweep_reference(&refs, now));
        }
    }
}

/// A fleet with three distinct views (100, 60, 98 routes), a duplicate
/// view and a below-floor table: the join raises the pairwise sweep's
/// anomalies, and an all-identical fleet is silent.
#[test]
fn sweep_matches_pairwise_reference_on_a_mixed_fleet() {
    let t0 = SimTime::from_ymd(1998, 10, 14);
    let table_with_routes = |n: u32| {
        let mut t = Tables::new("ucsb", t0);
        for i in 0..n {
            t.add_route(RouteRow {
                prefix: Prefix::new(Ip(Ip::new(128, 0, 0, 0).0 + (i << 16)), 16).unwrap(),
                next_hop: Some(Ip::new(10, 0, 0, 1)),
                metric: 3,
                uptime: None,
                reachable: true,
                learned_from: LearnedFrom::Dvmrp,
            });
        }
        t
    };
    let mut views: Vec<Tables> = Vec::new();
    for (i, n) in [100u32, 60, 98, 60, 5].into_iter().enumerate() {
        let mut t = table_with_routes(n);
        t.router = format!("r{i}");
        views.push(t);
    }
    let refs: Vec<&Tables> = views.iter().collect();
    let mon = InconsistencyMonitor::default();
    let joined = mon.sweep(&refs, t0);
    let reference = mon.sweep_reference(&refs, t0);
    assert_eq!(joined, reference);
    // The divergent pairs fire; make sure the sweep found some.
    assert!(!joined.is_empty());
    // An all-identical fleet is silent.
    let same: Vec<Tables> = (0..4).map(|_| table_with_routes(50)).collect();
    let same_refs: Vec<&Tables> = same.iter().collect();
    assert!(mon.sweep(&same_refs, t0).is_empty());
}

/// On-disk archives: an engine writing `<router>.marc` files into one
/// directory archives the same snapshot streams a memory-archived
/// engine keeps — read back from disk through fresh `TableLog::load`s.
#[test]
fn file_archives_replay_to_the_memory_archived_streams() {
    let dir = TempDir::new("prop-fleet");
    let spec = ArchiveSpec::File {
        dir: dir.path().to_path_buf(),
        sync: SyncPolicy::default(),
    };
    let (mut sc_file, routers) = world(5);
    let (mut sc_mem, _) = world(5);
    let mut file = Monitor::new(cfg_for(routers.clone(), &sc_file, spec), 1);
    let mut mem = Monitor::new(cfg_for(routers.clone(), &sc_mem, ArchiveSpec::Memory), 1);
    for _ in 0..4 {
        let next = sc_file.sim.clock + file.cfg.interval;
        sc_file.sim.advance_to(next);
        file.run_cycle(&sc_file.sim, next);
        sc_mem.sim.advance_to(next);
        mem.run_cycle(&sc_mem.sim, next);
    }
    // No archive hit an error or fell back to memory.
    assert!(file.logs().all(|log| !log.fell_back && log.errors() == 0));
    for r in &routers {
        let f = TableLog::load(&ArchiveSpec::path_for(dir.path(), r), 96).expect("file archive");
        let m = mem.log(r).expect("memory archive").replay();
        assert_eq!(f.replay(), m, "archive divergence at {r}");
        assert_eq!(m.len(), 4);
    }
}
