//! Application-layer vs network-layer monitoring — the paper's Section II
//! comparison, run as an experiment.
//!
//! The same simulated world is measured three ways at once:
//!
//! 1. **Ground truth** (the simulator knows every session),
//! 2. **Application layer** — an sdr-monitor/mlisten-style observer at
//!    the UCSB campus counting SAP announcements and RTCP reports,
//! 3. **Network layer** — Mantra scraping the campus router's tables.
//!
//! Then the FIXW uplink is cut, and the three views diverge exactly the
//! way the paper argues: the app-layer observer goes quiet with *no
//! indication of failure*, while Mantra both keeps local visibility and
//! makes the failure itself observable (route withdrawals).
//!
//! Run with: `cargo run --release --example app_vs_network_layer`

use mantra::core::{Monitor, MonitorConfig};
use mantra::net::SimDuration;
use mantra::sim::{AppLayerConfig, AppLayerMonitor, Scenario, SimRng};

fn main() {
    let mut sc = Scenario::transition_snapshot(1776, 0.0);
    let mut mantra = Monitor::new(
        MonitorConfig {
            routers: vec!["ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    let mut app = AppLayerMonitor::new(sc.ucsb, AppLayerConfig::default(), SimRng::seeded(3));

    let report = |label: &str, sc: &Scenario, mantra: &Monitor, app: &mut AppLayerMonitor| {
        let now = sc.sim.clock;
        let truth_sessions = sc.sim.sessions.len();
        let truth_parts = sc.sim.sessions.participant_count();
        let view = app.observe(&sc.sim, now);
        let net = mantra.usage_history("ucsb-gw").last().cloned();
        println!("\n--- {label} ({now}) ---");
        println!(
            "{:<26} {:>9} {:>11} {:>9}",
            "", "truth", "app-layer", "Mantra"
        );
        println!(
            "{:<26} {:>9} {:>11} {:>9}",
            "sessions",
            truth_sessions,
            view.sap_sessions,
            net.as_ref().map(|u| u.sessions).unwrap_or(0)
        );
        println!(
            "{:<26} {:>9} {:>11} {:>9}",
            "participants",
            truth_parts,
            view.rtcp_participants,
            net.as_ref().map(|u| u.participants).unwrap_or(0)
        );
        let routes = mantra
            .route_history("ucsb-gw")
            .last()
            .map(|r| r.dvmrp_reachable)
            .unwrap_or(0);
        println!(
            "{:<26} {:>9} {:>11} {:>9}",
            "reachable networks", "-", "-", routes
        );
    };

    // Twelve healthy hours.
    for _ in 0..48 {
        let next = sc.sim.clock + mantra.cfg.interval;
        sc.sim.advance_to(next);
        mantra.run_cycle(&sc.sim, next);
    }
    report("healthy network", &sc, &mantra, &mut app);

    // Cut the campus uplink.
    let link = sc.sim.net.topo.link_between(sc.fixw, sc.ucsb).unwrap().id;
    let t = sc.sim.clock + SimDuration::mins(1);
    sc.sim
        .schedule(t, mantra::sim::Event::SetLink { link, up: false });
    for _ in 0..8 {
        let next = sc.sim.clock + mantra.cfg.interval;
        sc.sim.advance_to(next);
        mantra.run_cycle(&sc.sim, next);
    }
    report("uplink cut (2h in)", &sc, &mantra, &mut app);

    println!("\nreading the table:");
    println!("  - the app-layer observer silently loses the remote sessions: nothing tells");
    println!("    it whether the MBone shrank or its own connectivity broke;");
    println!("  - Mantra's session view narrows too (the router really has less state),");
    println!("    but the route-table collapse pinpoints the failure itself;");
    println!(
        "  - and RTCP under-counts even on the healthy network ({}% compliance).",
        (AppLayerConfig::default().rtcp_compliance * 100.0) as u32
    );
}
