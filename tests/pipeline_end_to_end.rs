//! End-to-end pipeline tests: simulated routers → CLI scrape → parse →
//! log → statistics, across crates.

use std::sync::Mutex;
use std::thread::ThreadId;

use mantra::core::collector::{CaptureError, FlakyAccess};
use mantra::core::{Monitor, MonitorConfig, ParallelAccess, StageKind};
use mantra::net::rate::SENDER_THRESHOLD;
use mantra::net::{SimDuration, SimTime};
use mantra::router_cli::TableKind;
use mantra::sim::{Scenario, Simulation};

fn drive(sc: &mut Scenario, monitor: &mut Monitor, cycles: usize) {
    for _ in 0..cycles {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        monitor.run_cycle(&sc.sim, next);
    }
}

#[test]
fn monitored_tables_track_ground_truth() {
    let mut sc = Scenario::transition_snapshot(101, 0.0);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    drive(&mut sc, &mut monitor, 48);
    let seen = monitor.usage_history("fixw").last().unwrap();
    let truth = sc.sim.sessions.len();
    // The DVMRP world floods everything; modulo cache lag the exchange
    // point's session count brackets the ground truth.
    assert!(
        seen.sessions as f64 > 0.5 * truth as f64 && (seen.sessions as f64) < 2.5 * truth as f64,
        "seen {} vs truth {truth}",
        seen.sessions
    );
    // Sender counts agree with ground truth within slack: every sender
    // visible at FIXW is a real sender.
    let truth_senders: usize = sc
        .sim
        .sessions
        .iter()
        .map(|s| s.senders(SENDER_THRESHOLD).count())
        .sum();
    assert!(
        seen.senders <= truth_senders + 5,
        "seen senders {} vs truth {truth_senders}",
        seen.senders
    );
}

#[test]
fn parse_is_clean_on_healthy_captures() {
    let mut sc = Scenario::transition_snapshot(102, 0.5);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    drive(&mut sc, &mut monitor, 24);
    assert_eq!(
        monitor.parse_totals().malformed,
        0,
        "real renderer output must parse without malformed rows: {:?}",
        monitor.parse_totals()
    );
    assert!(monitor.parse_totals().parsed > 1_000);
    assert_eq!(monitor.capture_failures(), 0);
}

#[test]
fn archives_replay_losslessly_through_the_monitor() {
    let mut sc = Scenario::transition_snapshot(103, 0.3);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into()],
            interval: sc.sim.tick(),
            log_full_every: 7,
            ..MonitorConfig::default()
        },
        1,
    );
    drive(&mut sc, &mut monitor, 20);
    let log = monitor.log("fixw").unwrap();
    let replayed = log.replay().unwrap();
    assert_eq!(replayed.len(), 20);
    assert_eq!(&replayed[19], monitor.latest("fixw").unwrap());
    // Delta encoding earns its keep even on churning tables.
    assert!(
        log.savings_ratio() > 0.15,
        "savings {:.2}",
        log.savings_ratio()
    );
    // Timestamps are strictly increasing across snapshots.
    for w in replayed.windows(2) {
        assert!(w[0].captured_at < w[1].captured_at);
    }
}

#[test]
fn sa_cache_appears_only_on_msdp_capable_routers() {
    let mut sc = Scenario::transition_snapshot(104, 0.6);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    drive(&mut sc, &mut monitor, 48);
    let fixw = monitor.usage_history("fixw").last().unwrap();
    let ucsb = monitor.usage_history("ucsb-gw").last().unwrap();
    assert!(fixw.sa_entries > 0, "the border RP caches SAs");
    assert_eq!(ucsb.sa_entries, 0, "mrouted has no MSDP");
}

#[test]
fn mbgp_routes_visible_only_at_border() {
    let mut sc = Scenario::transition_snapshot(105, 0.6);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    drive(&mut sc, &mut monitor, 12);
    let fixw = monitor.route_history("fixw").last().unwrap();
    let ucsb = monitor.route_history("ucsb-gw").last().unwrap();
    assert!(fixw.mbgp_routes > 0);
    assert_eq!(ucsb.mbgp_routes, 0);
    assert!(fixw.dvmrp_reachable > 0 && ucsb.dvmrp_reachable > 0);
}

#[test]
fn uptime_reported_by_ios_survives_the_pipeline() {
    let mut sc = Scenario::transition_snapshot(106, 0.5);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    drive(&mut sc, &mut monitor, 8);
    let routes = monitor.route_history("fixw").last().unwrap();
    let mean = routes.mean_uptime_secs.expect("IOS reports uptimes");
    assert!(mean > 0.0, "mean uptime {mean}");
    // Two hours in, stable routes should have accumulated about that much
    // uptime on average.
    assert!(mean <= SimDuration::hours(13).as_secs() as f64);
}

#[test]
fn stage_metrics_sum_to_cycle_totals() {
    let mut sc = Scenario::transition_snapshot(108, 0.3);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    let cycles = 10u64;
    for i in 0..cycles {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        // Failure injection so retries accumulate simulated backoff
        // latency into the Capture stage.
        let access = FlakyAccess::new(&sc.sim, 0.2, 0.2, 200 + i);
        monitor.run_cycle(&access, next);
    }
    // Every stage ran once per cycle: the stage table's invocations are
    // the one cycle count. Every stage spent visible wall time.
    assert_eq!(monitor.cycles(), cycles);
    let stages = monitor.stage_table();
    let col = stages.column_index("invocations").unwrap();
    assert!(stages
        .rows
        .iter()
        .all(|row| row[col].as_num() == Some(cycles as f64)));
    for kind in StageKind::ALL {
        let m = monitor.pipeline().stage(kind);
        assert!(m.wall_nanos > 0, "{kind:?} must report non-zero time");
    }
    // Capture items reconcile with the health registry's capture totals
    // (one item per table whose final attempt succeeded or failed).
    let health_totals: u64 = monitor
        .cfg
        .routers
        .clone()
        .iter()
        .filter_map(|r| monitor.router_health(r))
        .map(|h| h.successes + h.failures)
        .sum();
    let capture = monitor.pipeline().stage(StageKind::Capture);
    assert_eq!(capture.items, health_totals);
    assert!(
        capture.sim_latency > SimDuration::ZERO,
        "retries under failure injection add simulated backoff"
    );
    // Parse items reconcile with the cumulative parse accounting.
    let pt = monitor.parse_totals();
    let parse = monitor.pipeline().stage(StageKind::Parse);
    assert_eq!(
        parse.items,
        (pt.parsed + pt.malformed + pt.skipped + pt.rejected_mixed) as u64
    );
    // Downstream stages handle one snapshot per router per cycle.
    let snapshots = cycles * monitor.cfg.routers.len() as u64;
    for kind in [StageKind::Enrich, StageKind::Log, StageKind::Analyse] {
        assert_eq!(monitor.pipeline().stage(kind).items, snapshots, "{kind:?}");
    }
}

#[test]
fn clock_never_runs_backwards_through_the_pipeline() {
    let mut sc = Scenario::transition_snapshot(107, 0.2);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    drive(&mut sc, &mut monitor, 16);
    let hist = monitor.usage_history("fixw");
    let times: Vec<SimTime> = hist.iter().map(|u| u.at).collect();
    for w in times.windows(2) {
        assert!(w[0] < w[1]);
    }
}

/// A transport that notes which thread made each capture.
struct ThreadRecorder<'a> {
    sim: &'a Simulation,
    threads: Mutex<Vec<ThreadId>>,
}

impl ParallelAccess for ThreadRecorder<'_> {
    fn capture(
        &self,
        router: &str,
        table: TableKind,
        now: SimTime,
    ) -> Result<String, CaptureError> {
        self.threads
            .lock()
            .expect("no capture panics")
            .push(std::thread::current().id());
        self.sim.capture(router, table, now)
    }
}

#[test]
fn small_cycles_capture_every_table_on_the_callers_thread() {
    // Two routers' few thousand rows per cycle are far below what pays
    // for a worker thread, so the engine runs every cycle inline.
    let mut sc = Scenario::transition_snapshot(109, 0.3);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    let me = std::thread::current().id();
    for cycle in 0..6 {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        let access = ThreadRecorder {
            sim: &sc.sim,
            threads: Mutex::new(Vec::new()),
        };
        monitor.run_cycle(&access, next);
        let threads = access.threads.into_inner().expect("no capture panics");
        assert_eq!(threads.len(), 2 * TableKind::ALL.len(), "cycle {cycle}");
        assert!(threads.iter().all(|t| *t == me), "cycle {cycle}");
    }
}
