//! Resilient collection: retry/backoff, salvage and per-router health.
//!
//! The paper's cron-driven expect scripts simply lost a cycle whenever a
//! router refused the login or a dump died mid-transfer. This example
//! injects both failure modes at 1998-MBone rates and compares the seed
//! collector (one attempt per table) against the resilient collector
//! (3 attempts with deterministic exponential backoff, truncation
//! salvage), then prints the monitor's per-router health table.
//!
//! Run with: `cargo run --release --example resilient_collection`

use mantra::core::collector::{FlakyAccess, RetryPolicy};
use mantra::core::{Monitor, MonitorConfig};
use mantra::sim::Scenario;

/// One day of monitoring with injected failures, under a retry policy.
fn monitor_day(retry: RetryPolicy) -> Monitor {
    let mut sc = Scenario::transition_snapshot(1998, 0.4);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            retry,
            ..MonitorConfig::default()
        },
        1,
    );
    for _ in 0..96 {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        // 30% login refusals, 15% truncated dumps — keyed on the cycle
        // timestamp, so both runs see identical first-attempt failures.
        let access = FlakyAccess::new(&sc.sim, 0.3, 0.15, 7);
        monitor.run_cycle(&access, next);
    }
    monitor
}

fn totals(monitor: &Monitor) -> (u64, u64, u64, u64) {
    let mut t = (0, 0, 0, 0);
    for router in ["fixw", "ucsb-gw"] {
        let h = monitor.router_health(router).expect("monitored router");
        t.0 += h.successes;
        t.1 += h.failures;
        t.2 += h.retry_successes;
        t.3 += h.salvaged;
    }
    t
}

fn main() {
    println!("one simulated day, 96 cycles, 2 routers, 5 tables each;");
    println!("injected failures: 30% login refusals, 15% truncations\n");

    let baseline = monitor_day(RetryPolicy::none());
    let resilient = monitor_day(RetryPolicy::default());

    let (b_ok, b_lost, _, _) = totals(&baseline);
    let (r_ok, r_lost, recovered, salvaged) = totals(&resilient);
    println!("seed collector (1 attempt):      {b_ok} captured, {b_lost} lost");
    println!("resilient collector (3 attempts): {r_ok} captured, {r_lost} lost");
    println!(
        "retries recovered {recovered} captures and salvaged {salvaged} partials — \
         {:.0}% of the baseline's losses",
        (b_lost - r_lost) as f64 / b_lost as f64 * 100.0
    );

    let last = resilient.usage_history("fixw").last().expect("96 cycles");
    println!("\n{}", resilient.health(last.at).render());

    println!("data visibility over the same day:");
    for (name, m) in [("seed", &baseline), ("resilient", &resilient)] {
        let sessions: f64 = m
            .usage_history("fixw")
            .iter()
            .map(|u| u.sessions as f64)
            .sum::<f64>()
            / 96.0;
        println!("  {name:<10} mean sessions visible at fixw: {sessions:.1}");
    }
}
