//! Criterion benches: one group per paper figure.
//!
//! Each group benchmarks the pipeline that regenerates its figure —
//! scenario stepping, collection, parsing and statistics — on a fixed,
//! pre-warmed window, so `cargo bench` measures the reproduction machinery
//! itself (the full-length series come from the `figN_*` binaries; see
//! EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mantra_bench::{drive_for, monitor_for};
use mantra_core::processor::process;
use mantra_core::stats::ConsistencyReport;
use mantra_core::{Monitor, MonitorConfig, SnapshotStats};
use mantra_net::rate::SENDER_THRESHOLD;
use mantra_net::SimDuration;
use mantra_router_cli::TableKind;
use mantra_sim::Scenario;

/// A warmed-up usage scenario shared by the usage-figure benches. Twelve
/// simulated hours is enough for tables to be representative while keeping
/// bench setup cheap on small machines.
fn warmed_usage_scenario() -> (Scenario, Monitor) {
    let mut sc = Scenario::fixw_six_months(42);
    let mut monitor = monitor_for(&sc);
    drive_for(&mut sc, &mut monitor, SimDuration::hours(12));
    (sc, monitor)
}

/// Figure 3 pipeline: one full monitoring cycle (capture + parse + stats)
/// against both collection points.
fn fig3_usage(c: &mut Criterion) {
    let (mut sc, mut monitor) = warmed_usage_scenario();
    c.bench_function("fig3_usage_cycle", |b| {
        b.iter(|| {
            let next = sc.sim.clock + monitor.cfg.interval;
            sc.sim.advance_to(next);
            black_box(monitor.run_cycle(&sc.sim, next));
        })
    });
}

/// Figure 4 analysis: density statistics over a snapshot, through the
/// one pass over its tables the Analyse stage runs every cycle.
fn fig4_density(c: &mut Criterion) {
    let (sc, monitor) = warmed_usage_scenario();
    let tables = monitor.latest("fixw").unwrap().clone();
    drop(sc);
    c.bench_function("fig4_density_stats", |b| {
        b.iter(|| {
            let stats = SnapshotStats::from_tables(black_box(&tables), SENDER_THRESHOLD);
            black_box(stats.totals().usage())
        })
    });
}

/// Figure 5 analysis: bandwidth + savings model over a snapshot, on the
/// same pass as [`fig4_density`].
fn fig5_bandwidth(c: &mut Criterion) {
    let (sc, monitor) = warmed_usage_scenario();
    let tables = monitor.latest("fixw").unwrap().clone();
    drop(sc);
    c.bench_function("fig5_bandwidth_model", |b| {
        b.iter(|| {
            let stats = SnapshotStats::from_tables(black_box(&tables), SENDER_THRESHOLD);
            let u = stats.totals().usage();
            black_box((u.total_bandwidth, u.bandwidth_saved_multiple))
        })
    });
}

/// Figure 6: classification percentage extraction over a history window.
fn fig6_percent_active(c: &mut Criterion) {
    let (sc, monitor) = warmed_usage_scenario();
    drop(sc);
    c.bench_function("fig6_percent_series", |b| {
        b.iter(|| {
            let a = monitor.usage_series("fixw", "pct-active", |u| u.pct_active());
            let s = monitor.usage_series("fixw", "pct-senders", |u| u.pct_senders());
            black_box((a.mean(), a.stddev(), s.mean(), s.stddev()))
        })
    });
}

/// Figure 7: DVMRP route-table capture + parse + consistency comparison.
fn fig7_dvmrp_routes(c: &mut Criterion) {
    let (sc, monitor) = warmed_usage_scenario();
    let a = monitor.latest("fixw").unwrap().clone();
    let b2 = monitor.latest("ucsb-gw").unwrap().clone();
    c.bench_function("fig7_route_capture_parse", |b| {
        b.iter(|| {
            let raw = mantra_router_cli::render(
                &sc.sim.net,
                sc.fixw,
                TableKind::DvmrpRoutes,
                sc.sim.clock,
            );
            let cap = mantra_core::collector::preprocess(
                "fixw",
                TableKind::DvmrpRoutes,
                &raw,
                sc.sim.clock,
            );
            black_box(process(&[cap]))
        })
    });
    c.bench_function("fig7_consistency", |b| {
        b.iter(|| black_box(ConsistencyReport::between(&a, &b2)))
    });
}

/// Figure 8: a long-horizon coarse-tick simulation step.
fn fig8_dvmrp_longterm(c: &mut Criterion) {
    let mut sc = Scenario::dvmrp_two_years(42);
    let mut monitor = monitor_for(&sc);
    drive_for(&mut sc, &mut monitor, SimDuration::days(7));
    c.bench_function("fig8_longterm_cycle", |b| {
        b.iter(|| {
            let next = sc.sim.clock + monitor.cfg.interval;
            sc.sim.advance_to(next);
            black_box(monitor.run_cycle(&sc.sim, next));
        })
    });
}

/// Figure 9: injection-day cycle including spike/injection detection.
fn fig9_route_injection(c: &mut Criterion) {
    let mut sc = Scenario::ucsb_injection_day(42);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    drive_for(&mut sc, &mut monitor, SimDuration::hours(13));
    // Trigger the injection so the benched cycles include detector work on
    // the inflated table.
    sc.sim.advance_to(sc.sim.clock + SimDuration::hours(2));
    c.bench_function("fig9_injection_cycle", |b| {
        b.iter(|| {
            let next = sc.sim.clock + monitor.cfg.interval;
            sc.sim.advance_to(next);
            black_box(monitor.run_cycle(&sc.sim, next));
        })
    });
}

/// Figure 2 (the output interface): table and graph operations.
fn fig2_output_ops(c: &mut Criterion) {
    let (sc, monitor) = warmed_usage_scenario();
    drop(sc);
    c.bench_function("fig2_table_sort_search", |b| {
        b.iter(|| {
            let mut t = monitor.busiest_sessions("fixw", 1_000);
            t.sort_by("density", false);
            black_box(t.search("group", "224.2"))
        })
    });
    c.bench_function("fig2_graph_render", |b| {
        let graph = monitor.usage_graph("fixw");
        b.iter(|| black_box(graph.render(100, 20)))
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(20);
    targets = fig2_output_ops, fig3_usage, fig4_density, fig5_bandwidth,
              fig6_percent_active, fig7_dvmrp_routes, fig8_dvmrp_longterm,
              fig9_route_injection
}
criterion_main!(figures);
