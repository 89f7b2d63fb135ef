//! Multi-router aggregation: the enhancement the paper's conclusion
//! announces ("collect data from multiple routers concurrently …
//! aggregate different data sets and generate combined results in
//! real-time").
//!
//! Monitors every border router in a majority-native internetwork with
//! one [`Monitor`] (every router collected in one fan-out, the
//! fleet-wide results folded in one place), then joins the per-router
//! session tables into one view and shows (a) how much more of the ground
//! truth that view recovers than any single collection point, and (b) the
//! pairwise DVMRP consistency matrix that exposes the paper's
//! "inconsistent state" finding automatically.
//!
//! Run with: `cargo run --release --example multi_router_aggregation`

use std::collections::BTreeSet;

use mantra::core::{ConsistencyMatrix, Monitor, MonitorConfig, Tables};
use mantra::sim::Scenario;

fn main() {
    let mut sc = Scenario::transition_snapshot(4242, 0.6);
    // Lossy report delivery, as on the congested 1998 MBone — this is
    // what makes the consistency matrix interesting.
    sc.sim.set_report_loss(0.25);

    // FIXW plus every border. Monitoring them makes the simulator
    // materialise their MFIBs.
    let borders: Vec<_> = sc
        .sim
        .net
        .topo
        .domains()
        .iter()
        .filter_map(|d| d.border)
        .collect();
    sc.sim.monitored = {
        let mut m = vec![sc.fixw];
        m.extend(borders.iter().copied());
        m.sort_unstable();
        m.dedup();
        m
    };
    let routers: Vec<String> = sc
        .sim
        .monitored
        .iter()
        .map(|r| sc.sim.net.topo.router(*r).name.clone())
        .collect();
    let mut fleet = Monitor::new(
        MonitorConfig {
            routers: routers.clone(),
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    // A day of cycles, so tables are populated.
    for _ in 0..96 {
        let next = sc.sim.clock + fleet.cfg.interval;
        sc.sim.advance_to(next);
        fleet.run_cycle(&sc.sim, next);
    }

    let latest: Vec<&Tables> = routers.iter().filter_map(|r| fleet.latest(r)).collect();
    let seen: BTreeSet<_> = latest.iter().flat_map(|t| t.sessions.keys()).collect();
    let truth = sc.sim.sessions.len();
    let fixw_only = latest
        .iter()
        .find(|t| t.router == "fixw")
        .map_or(0, |t| t.sessions.len());
    println!("ground truth:         {truth} live sessions");
    println!("FIXW alone sees:      {fixw_only}");
    println!(
        "aggregate view sees:  {} (from {} routers, {} capture failures)",
        seen.len(),
        latest.len(),
        fleet.capture_failures(),
    );

    println!("\nper-router contributions:");
    for t in &latest {
        println!(
            "  {:<14} sessions {:>4}  pairs {:>5}  dvmrp routes {:>4}",
            t.router,
            t.sessions.len(),
            t.pairs.len(),
            t.reachable_dvmrp_routes(),
        );
    }
    let parse = fleet.parse_totals();
    println!(
        "  parse over the day (ok/bad): {}/{}",
        parse.parsed, parse.malformed
    );

    println!("\npairwise DVMRP consistency (Jaccard similarity):");
    let mut matrix = ConsistencyMatrix::build(&latest, 1);
    for i in 0..latest.len() {
        if !matrix.eligible(i) {
            continue;
        }
        for j in (i + 1)..latest.len() {
            let Some(report) = matrix.report(i, j) else {
                continue;
            };
            let (a, b) = (&latest[i].router, &latest[j].router);
            println!(
                "  {a:<14} vs {b:<14}: {:.2} (shared {}, only-{a} {}, only-{b} {})",
                report.similarity(),
                report.shared,
                report.only_first,
                report.only_second,
            );
        }
    }
    println!("\n(the paper: \"it has become extremely important to generate global");
    println!(" results by collecting data at multiple points\" — quantified above)");
}
