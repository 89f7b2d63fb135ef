//! Determinism guarantees: the entire pipeline — workload, protocol
//! dynamics, failure injection, collection, parsing, statistics — is a
//! pure function of the scenario seed.

use mantra::core::{Monitor, MonitorConfig};
use mantra::sim::Scenario;

fn fingerprint(seed: u64, loss: f64, cycles: usize) -> Vec<(usize, usize, usize, u64)> {
    let mut sc = Scenario::transition_snapshot(seed, 0.4);
    sc.sim.set_report_loss(loss);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    let mut out = Vec::new();
    for _ in 0..cycles {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        let report = monitor.run_cycle(&sc.sim, next);
        let (_, usage, routes) = &report.per_router[0];
        out.push((
            usage.sessions,
            usage.participants,
            routes.dvmrp_reachable,
            usage.total_bandwidth.bps(),
        ));
    }
    out
}

#[test]
fn same_seed_identical_histories() {
    let a = fingerprint(555, 0.2, 16);
    let b = fingerprint(555, 0.2, 16);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_diverge() {
    let a = fingerprint(555, 0.2, 16);
    let b = fingerprint(556, 0.2, 16);
    assert_ne!(a, b);
}

#[test]
fn workload_is_isolated_from_fault_randomness() {
    // Changing the report-loss rate must not change which sessions exist
    // (separate RNG streams): ground-truth session counts stay identical.
    let truth = |loss: f64| {
        let mut sc = Scenario::transition_snapshot(777, 0.4);
        sc.sim.set_report_loss(loss);
        let mut counts = Vec::new();
        for i in 1..=12u64 {
            sc.sim
                .advance_to(sc.sim.clock + mantra::net::SimDuration::mins(15 * i % 120 + 15));
            counts.push(sc.sim.sessions.len());
        }
        counts
    };
    assert_eq!(truth(0.0), truth(0.5));
}

#[test]
fn rendered_cli_output_is_deterministic() {
    let render = || {
        let mut sc = Scenario::transition_snapshot(888, 0.5);
        sc.sim
            .advance_to(sc.sim.clock + mantra::net::SimDuration::hours(4));
        let now = sc.sim.clock;
        mantra::router_cli::render(
            &sc.sim.net,
            sc.fixw,
            mantra::router_cli::TableKind::ForwardingCache,
            now,
        )
    };
    assert_eq!(render(), render());
}
