//! Property tests for the sharded fleet monitor: for ANY shard count and
//! ANY router→shard partition, the fleet's global outputs — per-cycle
//! reports, usage/route statistics, anomaly stream, per-router histories
//! and archived snapshots — are bit-identical to a single monolithic
//! [`Monitor`] over the same fleet. This is the aggregation tier's
//! exactness claim (integer partial sums compose associatively; the
//! global consistency join visits each pair once), checked end-to-end
//! through the live simulator rather than on synthetic tables.

mod common;

use proptest::prelude::*;

use common::TempDir;
use mantra::core::anomaly::InconsistencyMonitor;
use mantra::core::logger::TableLog;
use mantra::core::tables::{LearnedFrom, RouteRow, Tables};
use mantra::core::{ArchiveSpec, FleetMonitor, Monitor, MonitorConfig, SyncPolicy};
use mantra::net::{Ip, Prefix, SimTime};
use mantra::sim::{ChurnSchedule, Scenario, CHURN_SLOTS};
use mantra_oracle::InconsistencyMonitorExt;

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

/// Soak-tunable case count: `PROPTEST_CASES` scales the churn property up
/// (the CI churn-soak job sets 1024); the default stays cheap for tier-1.
fn soak_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any assignment of 9 routers to up to 4 shards (empty shards, a
    /// single mega-shard, singleton shards — whatever proptest draws)
    /// reproduces the single monitor bit for bit, cycle by cycle.
    #[test]
    fn any_partition_matches_single_monitor(
        assignment in proptest::collection::vec(0usize..4, 9..10),
        seed in 0u64..20,
    ) {
        let (mut sc_fleet, routers) = world(seed);
        let (mut sc_single, _) = world(seed);
        let mut fleet = FleetMonitor::with_assignment(
            cfg_for(routers.clone(), &sc_fleet, ArchiveSpec::Memory),
            &assignment,
        );
        let mut single = Monitor::new(cfg_for(routers.clone(), &sc_single, ArchiveSpec::Memory));
        for _ in 0..3 {
            let next = sc_fleet.sim.clock + fleet.cfg.interval;
            sc_fleet.sim.advance_to(next);
            let fr = fleet.run_cycle(&sc_fleet.sim, next);
            sc_single.sim.advance_to(next);
            let sr = single.run_cycle(&sc_single.sim, next);
            // The merged cycle report re-interleaves to the single
            // monitor's exact shape.
            prop_assert_eq!(&fr, &sr);
            // Global statistics compose exactly from shard partial sums.
            prop_assert_eq!(
                fleet.usage_history().last().unwrap(),
                &single.stream_totals().usage()
            );
            prop_assert_eq!(
                fleet.route_history().last().unwrap(),
                &single.stream_totals().route_stats()
            );
            prop_assert_eq!(
                &fleet.churn_history().last().unwrap().1,
                &single.cycle_churn(next)
            );
        }
        // The fleet-wide anomaly stream matches, and so does every
        // router's per-shard history and archived snapshot stream.
        prop_assert_eq!(&fleet.anomalies, &single.anomalies);
        for r in &routers {
            let shard = fleet.monitor_of(r).expect("router owned by a shard");
            prop_assert_eq!(shard.usage_history(r), single.usage_history(r));
            prop_assert_eq!(shard.route_history(r), single.route_history(r));
            let f_log = shard.log(r).expect("shard archive").replay();
            let s_log = single.log(r).expect("single archive").replay();
            prop_assert_eq!(f_log, s_log);
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(soak_cases(6)))]

    /// The churn invariant: for ANY router→shard partition, ANY churn
    /// schedule (shrinkable raw triples — routers leaving and rejoining,
    /// links flapping, partitions forming and healing), ANY mid-run
    /// re-sharding, and any seed, the fleet stays bit-identical to a
    /// single monitor over the same churned world: per-cycle reports,
    /// global statistics, anomalies, per-router histories, lifecycle
    /// states and archive replays. Routers that leave and rejoin may land
    /// on a *different* shard after the rebalance — their moved state
    /// (open archive log included) must carry over exactly.
    #[test]
    fn any_churn_schedule_matches_single_monitor(
        assignment in proptest::collection::vec(0usize..4, 9..10),
        reassignment in proptest::collection::vec(0usize..4, 9..10),
        raw in proptest::collection::vec(
            (0u16..CHURN_SLOTS, 0u8..12, 0u16..64u16),
            0..16,
        ),
        seed in 0u64..8,
    ) {
        let (mut sc_fleet, routers) = world(seed);
        let (mut sc_single, _) = world(seed);
        let cycles = 8u64;
        let interval = sc_fleet.sim.tick();
        // Compress the raw ops' slot grid onto the cycles we actually
        // run, so every drawn event fires inside the observed window.
        let start = sc_fleet.sim.clock;
        let end = SimTime(start.0 + interval.as_secs() * cycles);
        let schedule = ChurnSchedule::from_raw(
            &raw,
            &sc_fleet.sim.net.topo,
            &[sc_fleet.fixw],
            start,
            end,
        );
        sc_fleet.sim.install_churn(schedule.clone());
        sc_single.sim.install_churn(schedule);
        let mut fleet = FleetMonitor::with_assignment(
            cfg_for(routers.clone(), &sc_fleet, ArchiveSpec::Memory),
            &assignment,
        );
        let mut single = Monitor::new(cfg_for(routers.clone(), &sc_single, ArchiveSpec::Memory));
        for cycle in 0..cycles {
            if cycle == cycles / 2 {
                // Re-shard mid-churn: any router may move shards while
                // down, stale, retired, or mid-rejoin.
                fleet.rebalance(&reassignment);
            }
            let next = sc_fleet.sim.clock + fleet.cfg.interval;
            sc_fleet.sim.advance_to(next);
            let fr = fleet.run_cycle(&sc_fleet.sim, next);
            sc_single.sim.advance_to(next);
            let sr = single.run_cycle(&sc_single.sim, next);
            prop_assert_eq!(&fr, &sr);
            prop_assert_eq!(
                fleet.usage_history().last().unwrap(),
                &single.stream_totals().usage()
            );
            prop_assert_eq!(
                fleet.route_history().last().unwrap(),
                &single.stream_totals().route_stats()
            );
        }
        prop_assert_eq!(&fleet.anomalies, &single.anomalies);
        for r in &routers {
            let shard = fleet.monitor_of(r).expect("router owned by a shard");
            prop_assert_eq!(shard.lifecycle_of(r), single.lifecycle_of(r));
            prop_assert_eq!(shard.usage_history(r), single.usage_history(r));
            prop_assert_eq!(shard.route_history(r), single.route_history(r));
            let f_log = shard.log(r).expect("shard archive").replay();
            let s_log = single.log(r).expect("single archive").replay();
            prop_assert_eq!(f_log, s_log, "archive divergence at {}", r);
        }
    }
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

/// On-disk archives: shards writing `<router>.marc` files into one
/// shared directory replay to the same snapshot streams a single monitor
/// archives — from disk, through fresh `TableLog::load`s.
#[test]
fn sharded_file_archives_replay_identically() {
    let base = TempDir::new("prop-fleet");
    let (dir_fleet, dir_single) = (base.join("fleet"), base.join("single"));
    let spec = |dir: &std::path::Path| ArchiveSpec::File {
        dir: dir.to_path_buf(),
        sync: SyncPolicy::default(),
    };
    let (mut sc_fleet, routers) = world(5);
    let (mut sc_single, _) = world(5);
    let mut fleet = FleetMonitor::new(cfg_for(routers.clone(), &sc_fleet, spec(&dir_fleet)), 3);
    let mut single = Monitor::new(cfg_for(routers.clone(), &sc_single, spec(&dir_single)));
    for _ in 0..4 {
        let next = sc_fleet.sim.clock + fleet.cfg.interval;
        sc_fleet.sim.advance_to(next);
        fleet.run_cycle(&sc_fleet.sim, next);
        sc_single.sim.advance_to(next);
        single.run_cycle(&sc_single.sim, next);
    }
    // No shard hit a write error or fell back to memory.
    for shard in fleet.shards() {
        assert!(shard.pipeline().archives().iter().all(|a| a.fallbacks == 0));
    }
    for r in &routers {
        let f = TableLog::load(&ArchiveSpec::path_for(&dir_fleet, r), 96).expect("fleet archive");
        let s = TableLog::load(&ArchiveSpec::path_for(&dir_single, r), 96).expect("single archive");
        assert_eq!(f.replay(), s.replay(), "archive divergence at {r}");
        assert_eq!(f.replay().len(), 4);
    }
}
