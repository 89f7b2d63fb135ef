//! CLI scraping vs SNMP: the collection-path comparison behind the
//! paper's design choice.
//!
//! Section II of the paper explains why Mantra logs into routers instead
//! of using SNMP: "lack of updated standards for the newer multicast
//! protocols … in cases of protocols like MSDP, proper MIBs do not even
//! exist". This example runs both collection paths against the *same*
//! simulated border router and tabulates what each one can and cannot
//! see.
//!
//! Run with: `cargo run --release --example collection_paths`

use mantra::core::collector::preprocess;
use mantra::core::processor::process;
use mantra::core::tables::LearnedFrom;
use mantra::core::ParallelAccess;
use mantra::net::SimDuration;
use mantra::router_cli::TableKind;
use mantra::sim::Scenario;
use mantra::snmp::mib::refresh_agent;
use mantra::snmp::{Agent, Manager};

fn main() {
    // A transition-era border: DVMRP + PIM-SM + MBGP + MSDP all active.
    let mut sc = Scenario::transition_snapshot(1999, 0.6);
    sc.sim.advance_to(sc.sim.clock + SimDuration::hours(8));
    let now = sc.sim.clock;

    // --- Path 1: the expect-script CLI scrape (Mantra's way). ---
    let mut captures = Vec::new();
    for kind in TableKind::ALL {
        if let Ok(raw) = sc.sim.capture("fixw", kind, now) {
            captures.push(preprocess("fixw", kind, &raw, now));
        }
    }
    let (cli, cli_stats) = process(&captures);

    // --- Path 2: SNMP polling (the Merit-tools way). ---
    let mut agent = Agent::new("public");
    refresh_agent(&mut agent, &sc.sim.net, sc.fixw, now);
    let mut collector = mantra::snmp::manager::SnmpCollector::new("public");
    let first_poll = collector.collect(&agent, "fixw", now).unwrap();
    // Second poll 15 minutes later so counter deltas become rates.
    let later = now + SimDuration::mins(15);
    sc.sim.advance_to(later);
    refresh_agent(&mut agent, &sc.sim.net, sc.fixw, later);
    let snmp = collector.collect(&agent, "fixw", later).unwrap();

    println!("what each collection path sees at the same border router:\n");
    println!("{:<34} {:>12} {:>12}", "", "CLI scrape", "SNMP poll");
    println!("{}", "-".repeat(60));
    let row = |name: &str, a: usize, b: usize| {
        println!("{name:<34} {a:>12} {b:>12}");
    };
    row("(S,G) pairs", cli.pairs.len(), snmp.pairs.len());
    row(
        "DVMRP routes (reachable)",
        cli.reachable_dvmrp_routes(),
        snmp.reachable_dvmrp_routes(),
    );
    row(
        "MBGP routes",
        cli.routes_of(LearnedFrom::Mbgp).count(),
        snmp.routes_of(LearnedFrom::Mbgp).count(),
    );
    row(
        "MSDP SA-cache entries",
        cli.sa_cache.len(),
        snmp.sa_cache.len(),
    );
    let senders =
        |t: &mantra::core::tables::Tables| t.senders(mantra::net::rate::SENDER_THRESHOLD).len();
    row(
        "senders classified (1st poll)",
        senders(&cli),
        senders(&first_poll),
    );
    row(
        "senders classified (2nd poll)",
        senders(&cli),
        senders(&snmp),
    );

    println!("\nnotes:");
    println!(
        "  - CLI parse health: {} rows parsed, {} malformed",
        cli_stats.parsed, cli_stats.malformed
    );
    println!("  - SNMP sees no MSDP or MBGP state at all: those MIBs did not exist in 1998-99.");
    println!("  - SNMP rates need two polls (octet-counter deltas); the router CLI reports");
    println!("    its own smoothed rate estimates immediately.");
    println!("  - This is the paper's stated reason Mantra collects via router logins.");

    // An mstat-style report, for flavour.
    let m = Manager::new("public");
    println!("\n{}", m.mstat_report(&agent).unwrap());
}
