//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `ablation_logger_*` — full-snapshot vs delta vs delta+redundancy
//!   storage cost (the paper's two conservation techniques),
//! * `ablation_threshold_*` — sender-classification sweep around the
//!   paper's 4 kbps choice,
//! * `ablation_interval_*` — collection-interval sweep (cost side; the
//!   fidelity side lives in the figure binaries),
//! * `ablation_delta_codec_*` — BTreeMap-keyed reference delta diffing
//!   vs the merge join over key-sorted sections on a 50-router ×
//!   96-cycle day of snapshots,
//! * `ablation_archive_*` — memory vs the on-disk MANTRARC v2 backend:
//!   write a 50-router × 96-cycle day through each, stream it back, and
//!   print bytes on disk next to the logger's row-cost accounting,
//! * `ablation_log_*` — Log-stage on-path wall time with fsync-per-record
//!   persistence, synchronous writes vs the per-router writer thread,
//! * `ablation_fleet_*` — one fleet-monitor cycle end-to-end at three
//!   fleet sizes (50 → 500 → 2000 routers), over the fleet-scale
//!   scenario with every router monitored,
//! * `ablation_churn_*` — the same fleet cycle under a churning topology
//!   (calm / flappy / partition schedules vs a static world): what
//!   dynamic membership costs,
//! * `ablation_streaming_*` — the Analyse stage's statistics and churn:
//!   the shipped one pass over each snapshot's tables vs the
//!   full-snapshot constructors (`mantra-oracle`) on stormy and calm
//!   50-router days, with a per-snapshot accounting line and a strict
//!   shipped-pass-wins assertion,
//! * `ablation_parse_*` — the zero-copy span/byte Parse stage vs the
//!   string parser it replaced (`mantra-oracle`) over a 500-router fleet
//!   capture corpus, with a bytes/sec accounting line and a strict
//!   zero-copy-wins assertion; its `capture_scan` group times the
//!   word-at-a-time capture scanner against the line-at-a-time one
//!   (`mantra-oracle`) over the same captures' raw bytes, with the same
//!   accounting and a strict word-at-a-time-wins assertion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use mantra_bench::{drive_for, monitor_for};
use mantra_core::archive::{
    BackpressureMode, FileBackendV2, SyncPolicy, ThreadedBackend, WriterConfig,
};
use mantra_core::collector::{preprocess_bytes, Capture};
use mantra_core::logger::{diff, SnapshotParts, TableLog};
use mantra_core::processor::process;
use mantra_core::stats::{RouteChurn, RouteStats, UsageStats};
use mantra_core::stats_stream::{RouteChanges, SnapshotStats};
use mantra_core::tables::{LearnedFrom, PairRow, RouteRow, Tables};
use mantra_core::{Monitor, MonitorConfig, ParallelAccess};
use mantra_net::{BitRate, GroupAddr, Ip, Prefix, SimDuration, SimTime};
use mantra_oracle::collector::effective_lines;
use mantra_oracle::logger::diff_reference;
use mantra_oracle::processor as reference;
use mantra_oracle::{RouteChurnExt, RouteStatsExt, UsageStatsExt};
use mantra_router_cli::TableKind;
use mantra_sim::{ChurnProfile, Scenario};

/// A short snapshot stream from a live scenario.
fn snapshot_stream(n: usize) -> Vec<Tables> {
    let mut sc = Scenario::fixw_six_months(7);
    let mut monitor = monitor_for(&sc);
    drive_for(&mut sc, &mut monitor, SimDuration::mins(15 * n as u64));
    monitor
        .log("fixw")
        .expect("log exists")
        .replay()
        .expect("the archive replays")
}

fn ablation_logger(c: &mut Criterion) {
    let stream = snapshot_stream(24);
    let mut group = c.benchmark_group("ablation_logger");
    group.sample_size(10);
    // Cost of appending under each strategy; the storage ratio is printed
    // once since criterion can't chart it. Storage is counted in the
    // logger's row-cost units (a row 2, a removal key 1).
    group.bench_function("full_snapshots", |b| {
        b.iter(|| {
            let mut log = TableLog::new(1); // full every time
            for s in &stream {
                log.append(s);
            }
            black_box(log.stored_cost)
        })
    });
    group.bench_function("delta_encoded", |b| {
        b.iter(|| {
            let mut log = TableLog::new(96);
            for s in &stream {
                log.append(s);
            }
            black_box(log.stored_cost)
        })
    });
    group.bench_function("parts_only", |b| {
        b.iter(|| {
            // Redundancy elimination alone: extract the non-derivable
            // parts in full each cycle.
            let total: u64 = stream
                .iter()
                .map(|s| SnapshotParts::from_tables(s).cost())
                .sum();
            black_box(total)
        })
    });
    group.finish();

    // Report the storage ratios once, outside measurement.
    let mut full = TableLog::new(1);
    let mut delta = TableLog::new(96);
    for s in &stream {
        full.append(s);
        delta.append(s);
    }
    println!(
        "[ablation_logger] row-cost units: full={} delta={} savings={:.1}% (baseline {})",
        full.stored_cost,
        delta.stored_cost,
        100.0 * delta.savings_ratio(),
        delta.full_cost,
    );
}

fn ablation_threshold(c: &mut Criterion) {
    let stream = snapshot_stream(8);
    let snapshot = stream.last().expect("non-empty").clone();
    let mut group = c.benchmark_group("ablation_threshold");
    group.sample_size(20);
    for kbps in [1u64, 2, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(kbps), &kbps, |b, kbps| {
            let th = BitRate::from_kbps(*kbps);
            b.iter(|| black_box(UsageStats::from_tables(&snapshot, th)))
        });
    }
    group.finish();
    // Classification sensitivity, printed once.
    for kbps in [1u64, 2, 4, 8, 16] {
        let u = UsageStats::from_tables(&snapshot, BitRate::from_kbps(kbps));
        println!(
            "[ablation_threshold] {kbps:>2} kbps: senders={} active_sessions={}",
            u.senders, u.active_sessions
        );
    }
}

fn ablation_interval(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_interval");
    group.sample_size(10);
    for mins in [5u64, 15, 60] {
        group.bench_with_input(BenchmarkId::from_parameter(mins), &mins, |b, mins| {
            b.iter(|| {
                let mut sc = Scenario::transition_snapshot(13, 0.3);
                let mut monitor = monitor_for(&sc);
                monitor.cfg.interval = SimDuration::mins(*mins);
                // Equal simulated horizon; finer intervals cost more cycles.
                drive_for(&mut sc, &mut monitor, SimDuration::hours(3));
                black_box(monitor.cycles())
            })
        });
    }
    group.finish();
}

/// Deterministic synthetic snapshot streams: `routers` routers, `cycles`
/// 15-minute cycles each, with slow pair churn and route flapping — the
/// shape of a day of multi-router collection without simulator cost.
fn synthetic_streams(routers: usize, cycles: usize) -> Vec<Vec<SnapshotParts>> {
    synthetic_streams_with_churn(routers, cycles, 1)
}

/// Like [`synthetic_streams`], but row contents only change every `calm`
/// cycles: with `calm > 1` most consecutive snapshots diff to small (often
/// empty) deltas, the shape of a quiet production day.
fn synthetic_streams_with_churn(
    routers: usize,
    cycles: usize,
    calm: usize,
) -> Vec<Vec<SnapshotParts>> {
    (0..routers)
        .map(|r| {
            (0..cycles)
                .map(|c| {
                    let v = (c / calm) as u32;
                    let at = SimTime(SimTime::from_ymd(1999, 3, 1).as_secs() + c as u64 * 900);
                    let mut t = Tables::new(format!("r{r}"), at);
                    for k in 0..40u32 {
                        t.add_pair(PairRow {
                            source: Ip::new(10, r as u8, 0, (k % 24) as u8 + 1),
                            group: GroupAddr::from_index((k + v / 8) % 64),
                            current_bw: BitRate::from_bps(
                                1_000 + ((u64::from(v) * 37 + k as u64 * 13) % 7) * 500,
                            ),
                            avg_bw: BitRate::from_bps(0),
                            forwarding: !(k + v).is_multiple_of(5),
                            learned_from: LearnedFrom::Dvmrp,
                        });
                    }
                    for k in 0..60u32 {
                        t.add_route(RouteRow {
                            prefix: Prefix::new(Ip::new(128, (k % 200) as u8, 0, 0), 16).unwrap(),
                            next_hop: Some(Ip::new(10, r as u8, 0, 1)),
                            metric: 1 + (k + v) % 30,
                            uptime: None,
                            reachable: !(k + v / 4).is_multiple_of(11),
                            learned_from: LearnedFrom::Dvmrp,
                        });
                    }
                    SnapshotParts::from_tables(&t)
                })
                .collect()
        })
        .collect()
}

fn ablation_delta_codec(c: &mut Criterion) {
    // One day of 15-minute cycles across 50 routers, diffed consecutively
    // — the monitor's hot loop, isolated.
    let streams = synthetic_streams(50, 96);
    let mut group = c.benchmark_group("ablation_delta_codec");
    group.sample_size(10);
    group.bench_function("btreemap_reference", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for stream in &streams {
                for w in stream.windows(2) {
                    let d = diff_reference(&w[0], &w[1]);
                    total += d.pair_upserts.len() + d.route_upserts.len();
                }
            }
            black_box(total)
        })
    });
    group.bench_function("merge_join", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for stream in &streams {
                for w in stream.windows(2) {
                    let d = diff(&w[0], &w[1]);
                    total += d.pair_upserts.len() + d.route_upserts.len();
                }
            }
            black_box(total)
        })
    });
    group.finish();
}

fn ablation_archive(c: &mut Criterion) {
    // A 50-router day pushed through the storage path: append every cycle
    // to a delta log on each backend, then stream the whole archive back
    // with `replay_iter`. Calm churn (rows change every 8 cycles) keeps
    // the record mix delta-heavy, as on a quiet production day.
    let streams: Vec<Vec<Tables>> = synthetic_streams_with_churn(50, 96, 8)
        .into_iter()
        .map(|stream| stream.iter().map(SnapshotParts::rebuild).collect())
        .collect();
    let dir = std::env::temp_dir().join(format!("mantra-bench-archive-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    let mut group = c.benchmark_group("ablation_archive");
    group.sample_size(10);
    group.bench_function("memory_write_replay", |b| {
        b.iter(|| {
            let mut snapshots = 0usize;
            for stream in &streams {
                let mut log = TableLog::new(96);
                for s in stream {
                    log.append(s);
                }
                snapshots += log.replay_iter().filter(|t| t.is_ok()).count();
            }
            black_box(snapshots)
        })
    });
    group.bench_function("file_v2_write_replay", |b| {
        b.iter(|| {
            let mut snapshots = 0usize;
            for (r, stream) in streams.iter().enumerate() {
                let path = dir.join(format!("r{r}-v2.marc"));
                let backend = FileBackendV2::create(&path).expect("create archive");
                let mut log = TableLog::with_backend(Box::new(backend), 96);
                for s in stream {
                    log.append(s);
                }
                assert!(log.backend_error().is_none());
                snapshots += log.replay_iter().filter(|t| t.is_ok()).count();
            }
            black_box(snapshots)
        })
    });
    group.finish();

    // Bytes on disk across the whole fleet-day, printed once next to the
    // logger's row-cost accounting of the same records.
    let (mut stored, mut full, mut v2_b) = (0u64, 0u64, 0u64);
    for (r, stream) in streams.iter().enumerate() {
        let v2 = FileBackendV2::create(dir.join(format!("acct-{r}-v2.marc"))).expect("v2");
        let mut v2 = TableLog::with_backend(Box::new(v2), 96);
        for s in stream {
            v2.append(s);
        }
        stored += v2.stored_cost;
        full += v2.full_cost;
        v2_b += v2.archive_stats().bytes;
    }
    println!(
        "[ablation_archive] fleet-day: stored cost {stored} of {full} units \
         ({:.1}% saved), v2 frames {v2_b}B ({:.2} B per unit)",
        100.0 * (1.0 - stored as f64 / full.max(1) as f64),
        v2_b as f64 / stored.max(1) as f64
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn ablation_log(c: &mut Criterion) {
    // The Log stage's on-path cost under the strictest durability
    // setting (fsync every record): the synchronous writer charges
    // encode + write + fsync to the collection path on every append,
    // the threaded writer charges an enqueue and pays the disk off-path.
    // Criterion times the whole fleet-day including the threaded
    // variant's drain barrier, so total I/O is identical; the printed
    // accounting line isolates the on-path share — what collection
    // actually waits on.
    let streams: Vec<Vec<Tables>> = synthetic_streams_with_churn(50, 96, 8)
        .into_iter()
        .map(|stream| stream.iter().map(SnapshotParts::rebuild).collect())
        .collect();
    let dir = std::env::temp_dir().join(format!("mantra-bench-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    let writer = WriterConfig {
        capacity: 64,
        mode: BackpressureMode::Block,
    };
    let mut group = c.benchmark_group("ablation_log");
    group.sample_size(10);
    group.bench_function("serial_fsync_each", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (r, stream) in streams.iter().enumerate() {
                let mut backend =
                    FileBackendV2::create(dir.join(format!("s{r}.marc"))).expect("create archive");
                backend.sync = SyncPolicy::every_records(1);
                let mut log = TableLog::with_backend(Box::new(backend), 96);
                for s in stream {
                    log.append(s);
                }
                assert!(log.backend_error().is_none());
                total += log.len();
            }
            black_box(total)
        })
    });
    group.bench_function("threaded_block", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (r, stream) in streams.iter().enumerate() {
                let mut backend =
                    FileBackendV2::create(dir.join(format!("t{r}.marc"))).expect("create archive");
                backend.sync = SyncPolicy::every_records(1);
                let mut log = TableLog::with_backend(
                    Box::new(ThreadedBackend::spawn(Box::new(backend), writer)),
                    96,
                );
                for s in stream {
                    log.append(s);
                }
                // Drain barrier: the writer thread's I/O is paid inside
                // the timed region, keeping the totals comparable.
                total += log.len();
                assert!(log.backend_error().is_none());
            }
            black_box(total)
        })
    });
    group.finish();

    // On-path accounting, printed once: time only the append loops, with
    // the threaded variant's drain left outside the measured window.
    let (mut serial_ns, mut threaded_ns, mut appends) = (0u128, 0u128, 0usize);
    for (r, stream) in streams.iter().enumerate() {
        let mut backend =
            FileBackendV2::create(dir.join(format!("acct-{r}-serial.marc"))).expect("serial");
        backend.sync = SyncPolicy::every_records(1);
        let mut log = TableLog::with_backend(Box::new(backend), 96);
        let t0 = Instant::now();
        for s in stream {
            log.append(s);
        }
        serial_ns += t0.elapsed().as_nanos();
        assert!(log.backend_error().is_none());

        let mut backend =
            FileBackendV2::create(dir.join(format!("acct-{r}-threaded.marc"))).expect("threaded");
        backend.sync = SyncPolicy::every_records(1);
        let mut log = TableLog::with_backend(
            Box::new(ThreadedBackend::spawn(Box::new(backend), writer)),
            96,
        );
        let t0 = Instant::now();
        for s in stream {
            log.append(s);
        }
        threaded_ns += t0.elapsed().as_nanos();
        appends += stream.len();
        drop(log); // shutdown drain happens off the measured path
    }
    assert!(
        threaded_ns < serial_ns,
        "threaded on-path time must beat synchronous fsync-per-record: \
         threaded={threaded_ns}ns serial={serial_ns}ns"
    );
    println!(
        "[ablation_log] on-path Log-stage time over {appends} appends: \
         serial-fsync-each={:.1}ms threaded-block={:.1}ms ({:.1}% of serial)",
        serial_ns as f64 / 1e6,
        threaded_ns as f64 / 1e6,
        100.0 * threaded_ns as f64 / serial_ns as f64
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn ablation_streaming(c: &mut Criterion) {
    // The Analyse stage's statistics cost, isolated: each snapshot's
    // usage and route statistics and the route churn from the snapshot
    // before it, through the shipped pass and merge join
    // (`SnapshotStats::from_tables`, `RouteChanges::between`) and through
    // the full-snapshot constructors in `mantra-oracle`. Stormy churn
    // (every row changes every cycle) vs calm (rows change every 8th
    // cycle): both read whole tables, so neither tracks the churn.
    let threshold = mantra_net::rate::SENDER_THRESHOLD;
    let shipped = |prev: &Tables, t: &Tables| {
        let stats = SnapshotStats::from_tables(t, threshold);
        let churn = RouteChanges::between(prev, t).churn;
        let (u, r) = (stats.totals().usage(), stats.totals().route_stats());
        u.sessions + u.senders + r.dvmrp_total + churn.total()
    };
    let reference = |prev: &Tables, t: &Tables| {
        let (u, r) = (
            UsageStats::from_tables(t, threshold),
            RouteStats::from_tables(t),
        );
        u.sessions + u.senders + r.dvmrp_total + RouteChurn::between(prev, t).total()
    };
    // Every snapshot of every router's day, each against the one before.
    let day = |streams: &[Vec<Tables>], f: &dyn Fn(&Tables, &Tables) -> usize| {
        let windows = streams.iter().flat_map(|stream| stream.windows(2));
        windows.map(|w| f(&w[0], &w[1])).sum::<usize>()
    };
    let mut group = c.benchmark_group("ablation_streaming");
    group.sample_size(10);
    for (label, calm) in [("stormy", 1usize), ("calm", 8)] {
        let parts = synthetic_streams_with_churn(50, 96, calm);
        let streams: Vec<Vec<Tables>> = parts
            .iter()
            .map(|stream| stream.iter().map(SnapshotParts::rebuild).collect())
            .collect();
        group.bench_function(format!("snapshot_pass_{label}"), |b| {
            b.iter(|| black_box(day(&streams, &shipped)))
        });
        group.bench_function(format!("reference_full_{label}"), |b| {
            b.iter(|| black_box(day(&streams, &reference)))
        });

        // Accounting outside the criterion loops, and the claim the
        // shipped path stands on: it must beat the reference.
        const PASSES: u32 = 5;
        let timed = |f: &dyn Fn(&Tables, &Tables) -> usize| {
            let t0 = Instant::now();
            let sum: usize = (0..PASSES).map(|_| day(&streams, f)).sum();
            (t0.elapsed().as_nanos().max(1), sum)
        };
        let (pass_ns, pass_sum) = timed(&shipped);
        let (ref_ns, ref_sum) = timed(&reference);
        assert_eq!(pass_sum, ref_sum, "the pass must agree with the reference");
        assert!(
            pass_ns < ref_ns,
            "the snapshot pass must beat the full-snapshot constructors: \
             {pass_ns}ns vs {ref_ns}ns"
        );
        let snapshots: usize = streams.iter().map(|s| s.len() - 1).sum::<usize>() * PASSES as usize;
        let per = |ns: u128| ns as f64 / snapshots as f64 / 1e3;
        // Churn volume, for the record: how far apart the stormy and
        // calm days are.
        let rows: usize = parts
            .iter()
            .flat_map(|stream| stream.windows(2))
            .map(|w| {
                let d = diff(&w[0], &w[1]);
                d.pair_upserts.len()
                    + d.pair_removals.len()
                    + d.route_upserts.len()
                    + d.route_removals.len()
            })
            .sum();
        println!(
            "[ablation_streaming] {label}: {:.1} changed rows/delta; per snapshot \
             pass={:.2}µs reference={:.2}µs ({:.2}x); fleet-day pass={:.2}ms reference={:.2}ms",
            rows as f64 / (snapshots / PASSES as usize) as f64,
            per(pass_ns),
            per(ref_ns),
            ref_ns as f64 / pass_ns as f64,
            pass_ns as f64 / f64::from(PASSES) / 1e6,
            ref_ns as f64 / f64::from(PASSES) / 1e6,
        );
    }
    group.finish();
}

/// A warmed fleet over the fleet-scale scenario, ready to cycle.
fn fleet_for(seed: u64, target: usize) -> (Scenario, Monitor) {
    let sc = Scenario::fleet_snapshot(seed, target, 0.5);
    let routers: Vec<String> = sc
        .sim
        .monitored
        .iter()
        .map(|id| sc.sim.net.topo.router(*id).name.clone())
        .collect();
    let fleet = Monitor::new(
        MonitorConfig {
            routers,
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    (sc, fleet)
}

fn ablation_churn(c: &mut Criterion) {
    // What a churning world costs per fleet cycle: the same 200-router
    // cycle as `ablation_fleet`, under no churn and under each
    // profile. The dynamic-membership machinery — reconvergence after
    // neighbor loss, staleness tracking, seal-on-retire, rejoin — all
    // sits on this path.
    let mut group = c.benchmark_group("ablation_churn");
    group.sample_size(10);
    let profiles: [(&str, Option<ChurnProfile>); 4] = [
        ("static", None),
        ("calm", Some(ChurnProfile::Calm)),
        ("flappy", Some(ChurnProfile::Flappy)),
        ("partition", Some(ChurnProfile::Partition)),
    ];
    for (name, profile) in profiles {
        group.bench_with_input(BenchmarkId::from_parameter(name), &profile, |b, profile| {
            let (mut sc, mut fleet) = fleet_for(23, 200);
            if let Some(p) = profile {
                sc.with_churn(*p, 23);
            }
            let next = sc.sim.clock + fleet.cfg.interval;
            sc.sim.advance_to(next);
            fleet.run_cycle(&sc.sim, next);
            b.iter(|| {
                let next = sc.sim.clock + fleet.cfg.interval;
                sc.sim.advance_to(next);
                black_box(fleet.run_cycle(&sc.sim, next))
            });
        });
    }
    group.finish();
}

fn ablation_fleet(c: &mut Criterion) {
    // The engine end-to-end: one collection cycle — advance the world
    // one tick, capture every router in one fan-out, fold the fleet-wide
    // statistics — at three fleet sizes spanning the scale-out roadmap
    // (50 → 500 → 2000 routers).
    let mut group = c.benchmark_group("ablation_fleet");
    group.sample_size(10);
    for target in [50usize, 500, 2000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(target),
            &target,
            |b, &target| {
                let (mut sc, mut fleet) = fleet_for(23, target);
                // Warm one cycle: steady-state deltas, not the first full
                // snapshots, are what scale-out costs.
                let next = sc.sim.clock + fleet.cfg.interval;
                sc.sim.advance_to(next);
                fleet.run_cycle(&sc.sim, next);
                b.iter(|| {
                    let next = sc.sim.clock + fleet.cfg.interval;
                    sc.sim.advance_to(next);
                    black_box(fleet.run_cycle(&sc.sim, next))
                });
            },
        );
    }
    group.finish();
}

fn ablation_report_loss(c: &mut Criterion) {
    // Route-count instability as a function of DVMRP report loss — the
    // mechanism behind Figure 7, quantified. Criterion measures the run
    // cost; the instability metric prints once per level.
    let mut group = c.benchmark_group("ablation_report_loss");
    group.sample_size(10);
    for loss_pct in [0u32, 10, 30] {
        group.bench_with_input(
            BenchmarkId::from_parameter(loss_pct),
            &loss_pct,
            |b, loss_pct| {
                b.iter(|| {
                    let mut sc = Scenario::transition_snapshot(19, 0.0);
                    sc.sim.set_report_loss(f64::from(*loss_pct) / 100.0);
                    let mut monitor = monitor_for(&sc);
                    drive_for(&mut sc, &mut monitor, SimDuration::hours(6));
                    let s = monitor.route_series("fixw", "r", |r| r.dvmrp_reachable as f64);
                    black_box(s.stddev())
                })
            },
        );
    }
    group.finish();
    for loss_pct in [0u32, 5, 10, 20, 30, 50] {
        let mut sc = Scenario::transition_snapshot(19, 0.0);
        sc.sim.set_report_loss(f64::from(loss_pct) / 100.0);
        let mut monitor = monitor_for(&sc);
        drive_for(&mut sc, &mut monitor, SimDuration::hours(6));
        let s = monitor.route_series("fixw", "r", |r| r.dvmrp_reachable as f64);
        println!(
            "[ablation_report_loss] {loss_pct:>2}% loss: route-count mean {:.0} stddev {:.1}",
            s.mean(),
            s.stddev()
        );
    }
}

fn ablation_parse(c: &mut Criterion) {
    // The zero-copy Parse stage vs the string parser it replaced
    // (`mantra_oracle::processor`) over a fleet-scale capture corpus: every
    // table of every monitored router in a 500-router world across
    // several collection cycles, preprocessed once (preprocessing is
    // shared) and parsed repeatedly. The reference parser materialises
    // every line as `String` and splits on owned text; the byte parser
    // works on spans of the raw capture buffer.
    let mut sc = Scenario::fleet_snapshot(23, 500, 0.5);
    let routers: Vec<String> = sc
        .sim
        .monitored
        .iter()
        .map(|id| sc.sim.net.topo.router(*id).name.clone())
        .collect();
    let mut corpus: Vec<Vec<Capture>> = Vec::new();
    let mut raws: Vec<RawCapture> = Vec::new();
    let mut total_bytes = 0usize;
    for _ in 0..4 {
        let now = sc.sim.clock + sc.sim.tick();
        sc.sim.advance_to(now);
        for router in &routers {
            let mut batch = Vec::new();
            for kind in TableKind::ALL {
                if let Ok(raw) = sc.sim.capture(router, kind, now) {
                    let raw = raw.into_bytes();
                    raws.push((router, raw.clone()));
                    let cap = preprocess_bytes(router, kind, raw, now);
                    total_bytes += cap.raw_bytes;
                    batch.push(cap);
                }
            }
            corpus.push(batch);
        }
    }
    capture_scan(c, &raws);

    let mut group = c.benchmark_group("ablation_parse");
    group.sample_size(10);
    group.bench_function("zero_copy", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            for batch in &corpus {
                let (_, stats) = process(batch);
                rows += stats.parsed;
            }
            black_box(rows)
        })
    });
    group.bench_function("reference_string", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            for batch in &corpus {
                let (_, stats) = reference::process(batch);
                rows += stats.parsed;
            }
            black_box(rows)
        })
    });
    group.finish();

    // Throughput accounting outside the criterion loops, and the claim
    // the refactor stands on: the span parser must beat the string one.
    const PASSES: u32 = 3;
    let timed = |f: &dyn Fn(&[Capture]) -> usize| {
        let t0 = Instant::now();
        let mut rows = 0usize;
        for _ in 0..PASSES {
            for batch in &corpus {
                rows += f(batch);
            }
        }
        (t0.elapsed().as_nanos().max(1), rows)
    };
    let (zc_ns, zc_rows) = timed(&|b| process(b).1.parsed);
    let (rf_ns, rf_rows) = timed(&|b| reference::process(b).1.parsed);
    assert_eq!(zc_rows, rf_rows, "parsers must agree on the corpus");
    let bytes = total_bytes as u64 * u64::from(PASSES);
    let rate = |ns: u128| bytes as f64 / (ns as f64 / 1e9) / 1e6;
    assert!(
        zc_ns < rf_ns,
        "zero-copy parse must beat the string parser: {zc_ns}ns vs {rf_ns}ns"
    );
    println!(
        "[ablation_parse] {} captures, {:.1} MB raw, {} rows/pass: \
         zero-copy={:.1} MB/s reference={:.1} MB/s ({:.2}x)",
        corpus.iter().map(Vec::len).sum::<usize>(),
        total_bytes as f64 / 1e6,
        zc_rows / PASSES as usize,
        rate(zc_ns),
        rate(rf_ns),
        rf_ns as f64 / zc_ns as f64
    );
}

/// A raw capture and the router it came from.
type RawCapture<'a> = (&'a str, Vec<u8>);

/// The capture scan alone, over the parse corpus's raw captures: the
/// shipped word-at-a-time scanner (`preprocess_bytes`, which takes its
/// own copy of the bytes, as `Collector::collect_with` hands it one)
/// against the line-at-a-time reference (`mantra_oracle::collector`).
fn capture_scan(c: &mut Criterion, raws: &[RawCapture]) {
    let scan = |raw: &RawCapture| {
        preprocess_bytes(raw.0, TableKind::ForwardingCache, raw.1.clone(), SimTime(0)).line_count()
    };
    let reference_scan = |raw: &RawCapture| effective_lines(raw.0, &raw.1).len();
    let mut group = c.benchmark_group("ablation_parse_capture_scan");
    group.sample_size(10);
    group.bench_function("word_at_a_time", |b| {
        b.iter(|| black_box(raws.iter().map(scan).sum::<usize>()))
    });
    group.bench_function("reference_line_at_a_time", |b| {
        b.iter(|| black_box(raws.iter().map(reference_scan).sum::<usize>()))
    });
    group.finish();

    const PASSES: u32 = 3;
    let timed = |f: &dyn Fn(&RawCapture) -> usize| {
        let t0 = Instant::now();
        let lines: usize = (0..PASSES).map(|_| raws.iter().map(f).sum::<usize>()).sum();
        (t0.elapsed().as_nanos().max(1), lines)
    };
    let (word_ns, word_lines) = timed(&scan);
    let (line_ns, line_lines) = timed(&reference_scan);
    assert_eq!(word_lines, line_lines, "scanners must agree on the corpus");
    let bytes: u64 = raws.iter().map(|r| r.1.len() as u64).sum::<u64>() * u64::from(PASSES);
    let rate = |ns: u128| bytes as f64 / (ns as f64 / 1e9) / 1e6;
    assert!(
        word_ns < line_ns,
        "the word-at-a-time scan must beat the line-at-a-time one: {word_ns}ns vs {line_ns}ns"
    );
    println!(
        "[ablation_parse_capture_scan] {} captures, {:.1} MB raw, {} lines/pass: \
         word-at-a-time={:.1} MB/s line-at-a-time={:.1} MB/s ({:.2}x)",
        raws.len(),
        bytes as f64 / f64::from(PASSES) / 1e6,
        word_lines / PASSES as usize,
        rate(word_ns),
        rate(line_ns),
        line_ns as f64 / word_ns as f64
    );
}

criterion_group! {
    name = ablations;
    config = Criterion::default();
    targets = ablation_logger, ablation_threshold, ablation_interval,
              ablation_delta_codec, ablation_archive,
              ablation_log, ablation_streaming, ablation_fleet,
              ablation_churn, ablation_report_loss, ablation_parse
}
criterion_main!(ablations);
