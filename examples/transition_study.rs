//! The infrastructure-transition study: what an exchange-point monitor
//! sees before and after the move to native sparse-mode multicast.
//!
//! Runs two one-week worlds with the *same* workload seed — one all-DVMRP
//! (late 1998), one majority-native (mid 1999) — and compares FIXW's view
//! against the simulator's ground truth. This isolates the paper's core
//! transition findings: sparse-mode filtering removes sessions with no
//! downstream members from the exchange point's tables, the
//! sender/participant ratio rises, and global usage becomes impossible to
//! measure from any single router — the argument for the multi-router
//! aggregation the paper closes with.
//!
//! Run with: `cargo run --release --example transition_study`

use mantra::core::{Monitor, MonitorConfig};
use mantra::sim::Scenario;

struct WorldView {
    label: &'static str,
    sessions_truth: f64,
    sessions_seen: f64,
    participants_seen: f64,
    pct_senders: f64,
    pct_active: f64,
    session_stddev: f64,
}

fn run_world(label: &'static str, native_fraction: f64) -> WorldView {
    let mut sc = Scenario::transition_snapshot(777, native_fraction);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    let mut truth_samples = Vec::new();
    for _ in 0..(4 * 24 * 5) {
        let next = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(next);
        monitor.run_cycle(&sc.sim, next);
        truth_samples.push(sc.sim.sessions.len() as f64);
    }
    let seen = monitor.usage_series("fixw", "sessions", |u| u.sessions as f64);
    let parts = monitor.usage_series("fixw", "participants", |u| u.participants as f64);
    let senders = monitor.usage_series("fixw", "pct-senders", |u| u.pct_senders());
    let active = monitor.usage_series("fixw", "pct-active", |u| u.pct_active());
    WorldView {
        label,
        sessions_truth: truth_samples.iter().sum::<f64>() / truth_samples.len() as f64,
        sessions_seen: seen.mean(),
        participants_seen: parts.mean(),
        pct_senders: senders.mean(),
        pct_active: active.mean(),
        session_stddev: seen.stddev(),
    }
}

fn main() {
    println!("running the pre-transition world (all DVMRP)...");
    let before = run_world("1998 DVMRP MBone", 0.0);
    println!("running the post-transition world (80% native sparse)...");
    let after = run_world("1999 native sparse", 0.8);

    println!(
        "\n{:<22} {:>14} {:>14}",
        "metric", before.label, after.label
    );
    println!("{}", "-".repeat(54));
    let row = |name: &str, a: f64, b: f64| {
        println!("{name:<22} {a:>14.1} {b:>14.1}");
    };
    row(
        "sessions (truth)",
        before.sessions_truth,
        after.sessions_truth,
    );
    row(
        "sessions seen @FIXW",
        before.sessions_seen,
        after.sessions_seen,
    );
    row(
        "visibility %",
        100.0 * before.sessions_seen / before.sessions_truth,
        100.0 * after.sessions_seen / after.sessions_truth,
    );
    row(
        "participants @FIXW",
        before.participants_seen,
        after.participants_seen,
    );
    row("% senders", before.pct_senders, after.pct_senders);
    row("% active sessions", before.pct_active, after.pct_active);
    row(
        "stddev(sessions)",
        before.session_stddev,
        after.session_stddev,
    );

    println!("\npaper findings checked:");
    println!(
        "  [{}] total participants dropped considerably after the transition",
        mark(after.participants_seen < 0.7 * before.participants_seen)
    );
    println!(
        "  [{}] sender/participant ratio increases",
        mark(after.pct_senders > before.pct_senders)
    );
    println!(
        "  [{}] sparse filtering hides part of the global session population",
        mark(
            after.sessions_seen / after.sessions_truth
                < before.sessions_seen / before.sessions_truth
        )
    );
    println!("  => single-point monitoring no longer measures global usage; see the",);
    println!("     multi_router_aggregation example for the paper's proposed fix.");
}

fn mark(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "??"
    }
}
