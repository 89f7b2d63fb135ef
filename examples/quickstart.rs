//! Quickstart: monitor a simulated multicast internetwork with Mantra.
//!
//! Builds a mid-1999 transition-era internetwork, runs the full Mantra
//! pipeline (scrape router CLIs → parse → log → analyse) for twelve hours
//! of simulated time, and prints the kind of output the paper's web
//! interface showed: summary tables, usage graphs and headline numbers.
//!
//! Run with: `cargo run --release --example quickstart`

use mantra::core::{Monitor, MonitorConfig};
use mantra::net::SimDuration;
use mantra::sim::Scenario;

fn main() {
    // A ten-domain internetwork, 40% already migrated to native sparse
    // mode, with FIXW as the DVMRP/native border.
    let mut sc = Scenario::transition_snapshot(2024, 0.4);

    // Mantra watches the two collection points from the paper.
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );

    // Twelve hours of lock-step simulation + monitoring.
    println!("monitoring 12 simulated hours at 15-minute cycles...\n");
    for _ in 0..48 {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        monitor.run_cycle(&sc.sim, next);
    }

    // Headline numbers from the last cycle.
    let usage = monitor.usage_history("fixw").last().expect("cycles ran");
    let routes = monitor.route_history("fixw").last().expect("cycles ran");
    println!("at {} FIXW sees:", usage.at);
    println!(
        "  {} sessions ({} active)",
        usage.sessions, usage.active_sessions
    );
    println!(
        "  {} participants ({} senders)",
        usage.participants, usage.senders
    );
    println!(
        "  {} through the router, saving ~{:.1}x vs unicast",
        usage.total_bandwidth, usage.bandwidth_saved_multiple
    );
    println!(
        "  {} reachable DVMRP routes, {} MBGP routes, {} MSDP SAs\n",
        routes.dvmrp_reachable, routes.mbgp_routes, usage.sa_entries
    );

    // The interactive-table interface: busiest sessions, sorted, top 8.
    println!("{}", monitor.busiest_sessions("fixw", 8).render());

    // Column algebra, as the applet allowed: bandwidth per member.
    let mut busiest = monitor.busiest_sessions("fixw", 8);
    busiest.add_computed(
        "kbps_per_member",
        "bandwidth_kbps",
        mantra::core::output::ColumnOp::Div,
        "density",
    );
    println!("{}", busiest.render());

    // The graph interface: the four Figure 3 series overlaid, zoomed to
    // the last six hours.
    let mut graph = monitor.usage_graph("fixw");
    let end = usage.at;
    let start = mantra::net::SimTime(end.as_secs() - SimDuration::hours(6).as_secs());
    graph.zoom_x(start, end);
    println!("{}", graph.render(90, 14));

    // Storage accounting from the delta logger.
    let log = monitor.log("fixw").expect("log exists");
    println!(
        "archive: {} snapshots, stored cost {} vs {} for full snapshots ({:.0}% saved)",
        log.len(),
        log.stored_cost,
        log.full_cost,
        100.0 * log.savings_ratio(),
    );
}
