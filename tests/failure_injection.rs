//! Failure-injection tests: the monitoring pipeline must survive the
//! operational mess the paper's deployment dealt with — refused logins,
//! half-transferred dumps, flapping links and rebooting routers.

use mantra::core::collector::{CaptureError, FlakyAccess, RetryPolicy};
use mantra::core::monitor::CycleReport;
use mantra::core::{Monitor, MonitorConfig, ParallelAccess};
use mantra::net::{SimDuration, SimTime};
use mantra::router_cli::TableKind;
use mantra::sim::{Event, Scenario};

/// Drives a retry-configured monitor through `cycles` cycles against a
/// freshly seeded scenario with injected failures.
fn flaky_monitor(
    retry: RetryPolicy,
    cycles: u64,
    login: f64,
    trunc: f64,
    salt: u64,
) -> (Monitor, Vec<CycleReport>) {
    let mut sc = Scenario::transition_snapshot(205, 0.4);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            retry,
            ..MonitorConfig::default()
        },
        1,
    );
    let mut reports = Vec::new();
    for _ in 0..cycles {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        let access = FlakyAccess::new(&sc.sim, login, trunc, salt);
        reports.push(monitor.run_cycle(&access, next));
    }
    (monitor, reports)
}

fn captured(m: &Monitor) -> u64 {
    ["fixw", "ucsb-gw"]
        .iter()
        .map(|r| m.router_health(r).unwrap().successes)
        .sum()
}

fn lost(m: &Monitor) -> u64 {
    ["fixw", "ucsb-gw"]
        .iter()
        .map(|r| m.router_health(r).unwrap().failures)
        .sum()
}

#[test]
fn retry_recovers_most_lost_captures() {
    // The acceptance scenario: 30% login failures, 96 cycles, a 3-attempt
    // retry policy against the no-retry seed behaviour.
    let (baseline, _) = flaky_monitor(RetryPolicy::none(), 96, 0.3, 0.0, 11);
    let (retried, _) = flaky_monitor(RetryPolicy::default(), 96, 0.3, 0.0, 11);
    let recovered_by_retry: u64 = ["fixw", "ucsb-gw"]
        .iter()
        .map(|r| retried.router_health(r).unwrap().retry_successes)
        .sum();
    assert!(recovered_by_retry > 0, "retries recovered captures");
    assert!(
        captured(&retried) > captured(&baseline),
        "retry strictly increases the capture count: {} vs {}",
        captured(&retried),
        captured(&baseline)
    );
    // First attempts share the same deterministic failure rolls, so the
    // retried run's losses are a subset of the baseline's; at p=0.3 and 3
    // attempts the residual loss rate is 0.3^3, recovering >= 90% of what
    // the baseline lost.
    let recovery = (lost(&baseline) - lost(&retried)) as f64 / lost(&baseline) as f64;
    assert!(
        recovery >= 0.9,
        "recovered {:.1}% of {} baseline losses",
        recovery * 100.0,
        lost(&baseline)
    );
}

#[test]
fn retry_outcomes_are_deterministic() {
    let (m1, r1) = flaky_monitor(RetryPolicy::default(), 24, 0.3, 0.3, 17);
    let (m2, r2) = flaky_monitor(RetryPolicy::default(), 24, 0.3, 0.3, 17);
    assert_eq!(r1, r2, "same salt, same cycle reports");
    for router in ["fixw", "ucsb-gw"] {
        assert_eq!(m1.router_health(router), m2.router_health(router));
    }
    // A different salt shifts the injected failures, and with them the
    // retry outcomes.
    let (m3, r3) = flaky_monitor(RetryPolicy::default(), 24, 0.3, 0.3, 18);
    assert!(
        r1 != r3 || m1.router_health("fixw") != m3.router_health("fixw"),
        "different salt, different outcomes"
    );
}

/// Refuses every login for one router; everything else passes through.
struct Starving<A> {
    inner: A,
    victim: &'static str,
}

impl<A: ParallelAccess> ParallelAccess for Starving<A> {
    fn capture(
        &self,
        router: &str,
        table: TableKind,
        now: SimTime,
    ) -> Result<String, CaptureError> {
        if router == self.victim {
            return Err(CaptureError::LoginFailed("host unreachable".into()));
        }
        self.inner.capture(router, table, now)
    }
}

#[test]
fn starved_router_goes_stale() {
    let mut sc = Scenario::transition_snapshot(207, 0.3);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    let mut now = sc.sim.clock;
    for _ in 0..8 {
        now = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(now);
        let access = Starving {
            inner: &sc.sim,
            victim: "ucsb-gw",
        };
        monitor.run_cycle(&access, now);
    }
    let healthy = monitor.router_health("fixw").unwrap();
    let starved = monitor.router_health("ucsb-gw").unwrap();
    assert!(healthy.successes > 0);
    assert!(!healthy.is_stale(now, monitor.cfg.interval, monitor.cfg.stale_after_intervals));
    assert_eq!(starved.successes, 0);
    assert!(starved.retries > 0, "the monitor kept trying");
    assert!(starved.is_stale(now, monitor.cfg.interval, monitor.cfg.stale_after_intervals));
    // A router the monitor never reached contributes *no* usage rows —
    // absence is flagged in health, not papered over with zero-valued
    // samples.
    assert_eq!(monitor.usage_history("ucsb-gw").len(), 0);
    assert_eq!(starved.missed_cycles, 8, "every missed cycle is counted");
    // Eight consecutive misses walk the lifecycle all the way to Retired
    // (defaults: stale after 4, retire after 8).
    assert_eq!(
        monitor.lifecycle_of("ucsb-gw"),
        Some(mantra::core::LifecycleState::Retired)
    );
    let table = monitor.health(now);
    let stale_col = table.columns.iter().position(|c| c == "stale").unwrap();
    assert_eq!(
        table.rows[1][stale_col],
        mantra::core::output::Cell::Text("STALE".into())
    );
    let state_col = table.columns.iter().position(|c| c == "state").unwrap();
    assert_eq!(
        table.rows[1][state_col],
        mantra::core::output::Cell::Text("retired".into())
    );
}

#[test]
fn monitor_survives_heavy_capture_failures() {
    let mut sc = Scenario::transition_snapshot(201, 0.4);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    for i in 0..24 {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        let access = FlakyAccess::new(&sc.sim, 0.3, 0.3, 99 + i);
        monitor.run_cycle(&access, next);
    }
    assert_eq!(monitor.cycles(), 24);
    assert!(monitor.capture_failures() > 5, "failures were injected");
    // History exists for every cycle even when captures failed.
    assert_eq!(monitor.usage_history("fixw").len(), 24);
    // Truncation salvage means parse totals still accumulated.
    assert!(monitor.parse_totals().parsed > 100);
    // The archive stays replayable.
    let log = monitor.log("fixw").unwrap();
    assert_eq!(log.replay().unwrap().len(), 24);
}

#[test]
fn truncated_dumps_do_not_poison_tables() {
    let mut sc = Scenario::transition_snapshot(202, 0.4);
    sc.sim.advance_to(sc.sim.clock + SimDuration::hours(6));
    let now = sc.sim.clock;
    // Pure truncation, no login failures, aggressive rate.
    let flaky = FlakyAccess::new(&sc.sim, 0.0, 1.0, 7);
    let collector = mantra::core::collector::Collector::new();
    let (captures, _) = collector.collect_with(&flaky, "fixw", now);
    let (tables, stats) = mantra::core::processor::process(&captures);
    // Every surviving row is well-formed (the torn line was dropped).
    assert_eq!(stats.malformed, 0, "{stats:?}");
    // Partial data is partial, not garbage: any route present parses to a
    // real prefix.
    for r in tables.routes.values() {
        assert!(r.metric <= 64);
    }
}

#[test]
fn link_flaps_show_up_and_heal() {
    let mut sc = Scenario::transition_snapshot(203, 0.0);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    // Stabilise.
    for _ in 0..8 {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        monitor.run_cycle(&sc.sim, next);
    }
    let healthy = monitor
        .route_history("fixw")
        .last()
        .unwrap()
        .dvmrp_reachable;
    // Take the FIXW–UCSB tunnel down for an hour.
    let link = sc.sim.net.topo.link_between(sc.fixw, sc.ucsb).unwrap().id;
    let t_down = sc.sim.clock + SimDuration::mins(1);
    let t_up = t_down + SimDuration::hours(1);
    sc.sim.schedule(t_down, Event::SetLink { link, up: false });
    sc.sim.schedule(t_up, Event::SetLink { link, up: true });
    for _ in 0..4 {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        monitor.run_cycle(&sc.sim, next);
    }
    let during = monitor
        .route_history("fixw")
        .last()
        .unwrap()
        .dvmrp_reachable;
    assert!(
        during < healthy,
        "withdrawals visible: {healthy} -> {during}"
    );
    // Heal and re-learn.
    for _ in 0..12 {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        monitor.run_cycle(&sc.sim, next);
    }
    let healed = monitor
        .route_history("fixw")
        .last()
        .unwrap()
        .dvmrp_reachable;
    assert!(
        healed >= healthy,
        "routes re-learned after flap: {healthy} -> {healed}"
    );
    // Churn history recorded the round trip.
    let churn: usize = monitor
        .churn_history("fixw")
        .iter()
        .map(|(_, c)| c.total())
        .sum();
    assert!(churn > 0);
}

#[test]
fn collection_gap_then_resume() {
    let mut sc = Scenario::transition_snapshot(204, 0.3);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    for _ in 0..6 {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        monitor.run_cycle(&sc.sim, next);
    }
    // Mantra host goes away for a day; the network keeps running.
    sc.sim.advance_to(sc.sim.clock + SimDuration::days(1));
    for _ in 0..6 {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        monitor.run_cycle(&sc.sim, next);
    }
    assert_eq!(monitor.cycles(), 12);
    let hist = monitor.usage_history("fixw");
    // The gap is visible in the timestamps, not papered over.
    let gaps: Vec<u64> = hist
        .windows(2)
        .map(|w| (w[1].at.as_secs() - w[0].at.as_secs()) / 60)
        .collect();
    assert!(gaps.iter().any(|g| *g > 60 * 12), "gap preserved: {gaps:?}");
    // And the archive replays cleanly across it.
    assert_eq!(monitor.log("fixw").unwrap().replay().unwrap().len(), 12);
}
