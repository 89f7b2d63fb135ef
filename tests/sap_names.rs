//! SAP session directory feeding Mantra's session-name column: the
//! network-layer tool consuming the application layer's one useful output.

use mantra::core::{Monitor, MonitorConfig};
use mantra::net::SimDuration;
use mantra::sim::{AppLayerConfig, AppLayerMonitor, Scenario, SimRng};

#[test]
fn sap_names_annotate_sessions() {
    let mut sc = Scenario::transition_snapshot(321, 0.0);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    let mut sap = AppLayerMonitor::new(sc.fixw, AppLayerConfig::default(), SimRng::seeded(7));
    for _ in 0..24 {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        // The SAP listener runs alongside and feeds the directory in.
        let names = sap.sap_directory(&sc.sim, next);
        monitor.learn_session_names(names);
        monitor.run_cycle(&sc.sim, next);
    }
    let latest = monitor.latest("fixw").unwrap();
    let named = latest
        .sessions
        .values()
        .filter(|s| s.name.is_some())
        .count();
    let total = latest.sessions.len();
    assert!(named > 0, "some sessions get SAP names ({named}/{total})");
    assert!(
        named < total,
        "unadvertised sessions stay nameless ({named}/{total}) — the \"if available\" caveat"
    );
    // Names surface in the summary table.
    let table = monitor.busiest_sessions("fixw", 20);
    let name_col = table.column_index("name").unwrap();
    let any_named = table
        .rows
        .iter()
        .any(|r| matches!(&r[name_col], mantra::core::output::Cell::Text(t) if !t.is_empty()));
    assert!(any_named, "{}", table.render());
}

#[test]
fn directory_is_stable_per_group() {
    let mut sc = Scenario::transition_snapshot(322, 0.0);
    sc.sim.advance_to(sc.sim.clock + SimDuration::hours(6));
    let mut sap = AppLayerMonitor::new(sc.ucsb, AppLayerConfig::default(), SimRng::seeded(8));
    let now = sc.sim.clock;
    let a = sap.sap_directory(&sc.sim, now);
    let b = sap.sap_directory(&sc.sim, now);
    assert_eq!(a, b, "advertisement decisions are sticky");
    for (g, name) in &a {
        assert!(name.contains(&g.to_string()), "{name} names {g}");
    }
}
