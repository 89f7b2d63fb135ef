//! Debugging a routing problem with Mantra: the 1998-10-14 unicast route
//! injection (the paper's Figure 9 case study).
//!
//! Replays the incident day at the UCSB `mrouted`, shows the route-count
//! series an operator would have been staring at, and then lets Mantra's
//! anomaly detectors do the off-line diagnosis the paper's authors did by
//! hand: a spike alarm, then the injection signature naming the gateway
//! the leak came through.
//!
//! Run with: `cargo run --release --example debug_route_injection`

use mantra::core::anomaly::AnomalyKind;
use mantra::core::output::{Cell, DateMode, Graph, Table};
use mantra::core::{Monitor, MonitorConfig};
use mantra::sim::Scenario;

fn main() {
    let mut sc = Scenario::ucsb_injection_day(1014);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );

    let end = sc.sim.end_time();
    loop {
        let next = sc.sim.clock + monitor.cfg.interval;
        if next > end {
            break;
        }
        sc.sim.advance_to(next);
        monitor.run_cycle(&sc.sim, next);
    }

    // The series the operator watches.
    let routes = monitor.route_series("ucsb-gw", "dvmrp-routes", |r| r.dvmrp_reachable as f64);
    let mut graph = Graph::new("DVMRP routes at ucsb-gw, 1998-10-14");
    graph.overlay(routes.clone());
    println!("{}", graph.render(96, 16));

    // The incident log as an interactive table, rendered with the
    // hour-of-day conversion (Figure 9's x-axis).
    let mut incidents = Table::new(
        "Detected anomalies",
        vec!["time", "kind", "magnitude", "detail"],
    );
    incidents.date_mode = DateMode::HourOfDay;
    for a in &monitor.anomalies {
        let (kind, magnitude, detail) = match &a.kind {
            AnomalyKind::Spike { value, baseline } => {
                ("spike", *value, format!("baseline {baseline:.0} routes"))
            }
            AnomalyKind::Crash { value, baseline } => {
                ("crash", *value, format!("baseline {baseline:.0} routes"))
            }
            AnomalyKind::RouteInjection {
                new_routes,
                gateway,
                gateway_share,
            } => (
                "route-injection",
                *new_routes as f64,
                format!(
                    "{:.0}% via {}",
                    gateway_share * 100.0,
                    gateway.map(|g| g.to_string()).unwrap_or_default()
                ),
            ),
            AnomalyKind::Inconsistency { peer, similarity } => {
                ("inconsistency", *similarity, format!("vs {peer}"))
            }
        };
        incidents.push_row(vec![
            Cell::Time(a.at),
            Cell::Text(kind.into()),
            Cell::Num(magnitude),
            Cell::Text(detail),
        ]);
    }
    // Deduplicate the repeated spike alarms for the report: keep first 3.
    incidents.truncate(6);
    println!("{}", incidents.render());

    // The verdict.
    let injection = monitor
        .anomalies
        .iter()
        .find(|a| matches!(a.kind, AnomalyKind::RouteInjection { .. }));
    match injection {
        Some(a) => println!(
            "diagnosis: unicast route injection at {} (hour {:.1}) — matches the paper's off-line analysis",
            a.at,
            a.at.hour_of_day()
        ),
        None => println!("no injection signature found (unexpected; check seed)"),
    }
    println!(
        "route count: baseline {:.0}, peak {:.0}, final {:.0}",
        routes.median(),
        routes.max().map(|m| m.1).unwrap_or(0.0),
        routes.points.last().map(|p| p.1).unwrap_or(0.0),
    );
}
