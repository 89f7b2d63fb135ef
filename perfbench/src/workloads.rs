//! The three workloads, end to end and traced.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mantra_core::{ArchiveReader, ArchiveSpec, FleetMonitor};
use mantra_net::SimTime;

use crate::access::Prerendered;
use crate::daemon::{self, Endpoint, Observed, Queries, CLIENTS, REQUEST_TIMEOUT};
use crate::http::{self, Daemon};
use crate::monitor::{self, Round, Shape, World, RENDER_WORKERS};
use crate::stats::{as_u64, field, median, summarize, tail_label, Metrics};
use crate::trace::traced_round;
use crate::{cpu, Args, Outcome};

pub const NAMES: [&str; 3] = ["paper-week", "fleet-ramp", "daemon-query"];

/// Daemon spawns per run; the last one serves the measured load.
const DAEMON_SPAWNS: usize = 3;
/// Cycles the daemon collects before the first measured request.
const WARM_CYCLES: u64 = 6;
/// How long an in-process daemon serves the finished fleet's queries.
const PROBE: Duration = Duration::from_secs(3);
/// Cycles in the generator check, per workload.
const GENERATOR_CHECK_CYCLES: [(&str, usize); 2] = [("paper-week", 30), ("fleet-ramp", 3)];

fn shape_of(name: &str) -> Shape {
    match name {
        "paper-week" => monitor::PAPER_WEEK,
        "fleet-ramp" => monitor::FLEET_RAMP,
        _ => monitor::DAEMON_REPLICA,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.workload == "daemon-query" {
        run_daemon(args)
    } else {
        run_monitor(&shape_of(&args.workload), args)
    }
}

/// The monitor-side measures of a set of rounds of one workload.
fn monitor_metrics(rounds: &[Round], m: &mut Metrics) {
    let cycle_ms: Vec<f64> = rounds.iter().flat_map(|r| r.cycle_ms.clone()).collect();
    let cycle_cpu: Vec<f64> = rounds.iter().flat_map(|r| r.cycle_cpu_ms.clone()).collect();
    let wall_s: f64 = cycle_ms.iter().sum::<f64>() / 1e3;
    let cpu_s: f64 = rounds.iter().map(|r| r.monitor_cpu_s).sum();
    let rows: u64 = rounds.iter().map(|r| r.rows).sum();
    let bytes: u64 = rounds.iter().map(|r| r.archive.disk_bytes).sum();
    m.higher("rows_per_cpu_s", rows as f64 / cpu_s, "rows/s");
    m.lower("archive_bytes_per_row", bytes as f64 / rows as f64, "B/row");
    // Wall-clock views, steady only on a quiet machine.
    let cyc = summarize(&cycle_ms).expect("at least one cycle");
    m.lower("cycle_ms.p50", cyc.p50, "ms");
    m.higher("cycle_ms.n", cyc.n as f64, "count");
    if let Some((p, v)) = cyc.tail {
        m.lower(format!("cycle_ms.{}", tail_label(p)), v, "ms");
    }
    m.lower("cycle_cpu_ms.p50", median(&cycle_cpu), "ms");
    m.higher("rows_per_s", rows as f64 / wall_s, "rows/s");
    m.higher("collect_cycles_per_s", cyc.n as f64 / wall_s, "1/s");
}

// ----------------------------------------------------------------------
// paper-week and fleet-ramp
// ----------------------------------------------------------------------

fn run_monitor(shape: &Shape, args: &Args) -> Result<Outcome, String> {
    let dir = args.out.join(format!("{}-archives", shape.name));
    let mut setups = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        // Only the latest round's fleet is kept, for the query probe.
        if let Some(prev) = rounds.last_mut() {
            prev.fleet = None;
        }
        let t = Instant::now();
        let round = monitor::run_round(shape, args.seed, &dir, true);
        let took = t.elapsed();
        setups.extend_from_slice(&round.setups);
        rounds.push(round);
        // A traced run makes one untraced round; otherwise another round
        // runs only if it fits the run's budget.
        if args.trace || started.elapsed() + took > budget {
            break;
        }
    }
    let peak = crate::peak_rss_mb("/proc/self/status").ok_or("own status unreadable")?;
    let mut problems = Vec::new();
    let counters = rounds[0].counters.clone();
    for (i, r) in rounds.iter().enumerate() {
        problems.extend(r.problems.iter().map(|p| format!("round {i}: {p}")));
        if r.counters != counters {
            problems.push(format!("round {i} counters differ from round 0"));
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();

    let mut m = Metrics::default();
    m.lower("setup_s", median(&setups), "s");
    m.lower("peak_rss_mb", peak, "MB");
    monitor_metrics(&rounds, &mut m);
    m.lower(
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );

    // Queries over the finished fleet, served by an in-process daemon.
    let n_rounds = rounds.len();
    let last = rounds.pop().expect("one round");
    let fleet = last.fleet.ok_or("the last round kept no fleet")?;
    // Replays ask about the first cycles, as daemon-query's do.
    let queries = Arc::new(Queries::new(
        &fleet.cfg.routers[0],
        last.start,
        fleet.cfg.interval,
        WARM_CYCLES.min(fleet.cycles()),
        args.seed,
    ));
    let served = serve_in_process(fleet, &queries, args.trace, &mut m)?;
    problems.extend(served.problems.iter().cloned());
    served.request_metrics(&mut m);

    let sizes = format!(
        "{{\"routers\": {}, \"cycles_per_round\": {}, \"rounds\": {n_rounds}, \"shards\": {}, \
         \"writer\": \"{}\", \"setup_samples\": {}, \"query_clients\": {CLIENTS}}}",
        last.routers,
        shape.cycles,
        shape.shards,
        if shape.threaded {
            "threaded-block"
        } else {
            "sync"
        },
        setups.len()
    );
    let mut series = None;
    if args.trace {
        served.layer_metrics(&mut m);
        // No daemon collects here, so nothing can starve.
        m.higher("daemon.collect_cycles_per_s", 0.0, "1/s");
        m.lower("daemon.starved", 0.0, "count");
        m.higher("daemon.starved_attempted", 0.0, "count");
        let dir = args.out.join(format!("{}-traced", shape.name));
        let traced = traced_round(shape, args.seed, shape.cycles, &dir, Some(&last.reports));
        problems.extend(traced.problems.iter().cloned());
        problems.extend(check_generator(shape, args.seed, &args.out));
        traced.layer_metrics(&mut m, median(&last.cycle_ms));
        m.lower("archive.reader_ms.p50", median(&traced.reader_ms), "ms");
        series = Some(traced.series_json());
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: m,
        problems,
        sizes,
        counters: counters.json(),
        series,
    })
}

/// Serves `fleet` from an in-process daemon that never ticks and runs
/// the request mix against it (and, traced, the no-op probe).
fn serve_in_process(
    fleet: FleetMonitor,
    queries: &Arc<Queries>,
    trace: bool,
    m: &mut Metrics,
) -> Result<Observed, String> {
    let cfg = mantra_daemon::DaemonConfig {
        addr: "127.0.0.1:0".into(),
        router: queries.router.clone(),
        max_cycles: Some(0),
        ..mantra_daemon::DaemonConfig::default()
    };
    let handle = mantra_daemon::spawn(cfg, mantra_daemon::Engine::Fleet(fleet), |_| SimTime(0))
        .map_err(|e| format!("in-process daemon: {e}"))?;
    let obs = daemon::load(
        handle.addr(),
        queries,
        &Endpoint::MIX,
        CLIENTS,
        PROBE,
        REQUEST_TIMEOUT,
    );
    if trace {
        daemon::noop_probe(handle.addr(), queries, m);
    }
    handle.stop();
    Ok(obs)
}

/// Proves the load generator changes nothing: over a prefix of the
/// workload, pre-rendered captures yield the same cycle reports as
/// `run_cycle` on the live world. It holds a second fleet, so only the
/// traced run makes it, never a run whose memory is reported.
fn check_generator(shape: &Shape, seed: u64, out: &Path) -> Vec<String> {
    let cycles = GENERATOR_CHECK_CYCLES
        .iter()
        .find(|(n, _)| *n == shape.name)
        .map_or(3, |(_, c)| *c);
    let mut world = World::build(shape, seed);
    let live_dir = monitor::fresh_dir(&out.join(format!("{}-gen-live", shape.name)));
    let pre_dir = monitor::fresh_dir(&out.join(format!("{}-gen-pre", shape.name)));
    let mut live = monitor::build_fleet(shape, &world, &live_dir);
    let mut pre = monitor::build_fleet(shape, &world, &pre_dir);
    let mut problems = Vec::new();
    for k in 1..=cycles {
        let now = world.cycle_at(k);
        world.sc.sim.advance_to(now);
        let captures = Prerendered::render(&world.sc.sim, &world.routers, now, RENDER_WORKERS);
        if pre.run_cycle(&captures, now) != live.run_cycle(&world.sc.sim, now) {
            problems.push(format!(
                "generator check: cycle {k} differs from the live world"
            ));
        }
    }
    problems
}

// ----------------------------------------------------------------------
// daemon-query
// ----------------------------------------------------------------------

/// `(parsed rows, daemon CPU seconds)` at one instant.
fn daemon_progress(d: &Daemon) -> Result<(u64, f64), String> {
    let reply = http::get(d.addr, "/parse", REQUEST_TIMEOUT)?;
    let body = crate::json::parse(&reply.body).ok_or("/parse is not JSON")?;
    let parsed = as_u64(field(&body, "totals").and_then(|t| field(t, "parsed")))
        .ok_or("/parse without totals.parsed")?;
    let cpu = cpu::of_pid(d.pid()).ok_or("daemon /proc stat unreadable")?;
    Ok((parsed, cpu))
}

fn run_daemon(args: &Args) -> Result<Outcome, String> {
    if !args.mantra.is_file() {
        return Err(format!("no mantra binary at {}", args.mantra.display()));
    }
    let shape = monitor::DAEMON_REPLICA;
    let (start, interval, routers) = {
        let w = World::build(&shape, args.seed);
        (w.start, w.interval, w.routers.clone())
    };
    let router = routers[0].clone();
    let queries = Arc::new(Queries::new(
        &router,
        start,
        interval,
        WARM_CYCLES,
        args.seed,
    ));

    // Set-up: spawn until warm, several times; the last daemon serves.
    let mut setups = Vec::new();
    let mut serving = None;
    for i in 0..DAEMON_SPAWNS {
        let dir = daemon::spawn_dir(&args.out, i);
        let (d, setup) = daemon::spawn_warm(&args.mantra, &dir, args.seed, WARM_CYCLES, &[])?;
        setups.push(setup);
        if i + 1 == DAEMON_SPAWNS {
            serving = Some((d, dir));
        } else {
            d.stop();
        }
    }
    let (d, dir) = serving.expect("at least one spawn");
    let before = daemon_progress(&d)?;
    let window = Duration::from_secs(args.seconds);
    let obs = daemon::load(
        d.addr,
        &queries,
        &Endpoint::MIX,
        CLIENTS,
        window,
        REQUEST_TIMEOUT,
    );
    let after = daemon_progress(&d)?;
    let mut m = Metrics::default();
    let mut reader_ms = Vec::new();
    if args.trace {
        daemon::noop_probe(d.addr, &queries, &mut m);
        // The reader layer on the daemon's live archive, from outside.
        let path = ArchiveSpec::path_for(&dir, &router);
        for at in queries.replay_at.iter().take(40) {
            let t = Instant::now();
            ArchiveReader::open(&path)
                .and_then(|rd| rd.summary_lines(rd.records_at_or_before(*at)))
                .map_err(|e| format!("reader probe: {e}"))?;
            reader_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let peak = d.peak_rss_mb().ok_or("daemon status unreadable")?;
    d.stop();

    let mut problems = obs.problems.clone();
    problems.extend(daemon::check_replays(
        &ArchiveSpec::path_for(&dir, &router),
        &obs.replays,
    ));
    let bytes = daemon::archive_bytes(&dir, &routers);
    let collected = ArchiveReader::open(ArchiveSpec::path_for(&dir, &router))
        .map(|rd| rd.len())
        .map_err(|e| format!("daemon archive: {e}"))?;

    // The daemon's collection, replayed in-process over the same cycles:
    // its row count, and the check of what the daemon served.
    let replica_shape = Shape {
        cycles: collected,
        ..shape
    };
    let replica = monitor::run_round(
        &replica_shape,
        args.seed,
        &args.out.join("daemon-replica"),
        true,
    );
    problems.extend(replica.problems.iter().cloned());
    if replica.archive.disk_bytes != bytes {
        problems.push(format!(
            "daemon archives hold {bytes} bytes, the in-process replica {}",
            replica.archive.disk_bytes
        ));
    }
    problems.extend(check_usage(&obs, &replica, &router));

    let rows = after.0.saturating_sub(before.0);
    let cpu_s = after.1 - before.1;
    if rows == 0 || cpu_s <= 0.0 {
        return Err(format!(
            "daemon made no measurable progress ({rows} rows, {cpu_s} CPU s)"
        ));
    }
    m.lower("setup_s", median(&setups), "s");
    m.higher("rows_per_cpu_s", rows as f64 / cpu_s, "rows/s");
    m.lower(
        "archive_bytes_per_row",
        bytes as f64 / replica.rows as f64,
        "B/row",
    );
    m.lower("peak_rss_mb", peak, "MB");
    obs.request_metrics(&mut m);
    let cycles_per_s = daemon::rate(&obs.cycles).ok_or("no /health progress observed")?;
    m.higher("daemon.collect_cycles_per_s", cycles_per_s, "1/s");
    // The replica's cycles stand in for the daemon's, which are not
    // observable from outside.
    m.lower("cycle_ms.p50", median(&replica.cycle_ms), "ms");
    m.lower("cycle_cpu_ms.p50", median(&replica.cycle_cpu_ms), "ms");

    let attempted = obs.samples.len() as u64;
    let failed = attempted - obs.ok();
    let sizes = format!(
        "{{\"routers\": {}, \"clients\": {CLIENTS}, \"warm_cycles\": {WARM_CYCLES}, \
         \"spawns\": {DAEMON_SPAWNS}, \"window_s\": {}, \"cycles_collected\": {collected}}}",
        routers.len(),
        args.seconds
    );
    let counters = format!(
        "{{\"distinct_replays\": {}, \"cycles_collected\": {collected}, \"archive_bytes\": {bytes}}}",
        obs.replays.len()
    );
    let mut series = None;
    if args.trace {
        obs.layer_metrics(&mut m);
        m.lower("archive.reader_ms.p50", median(&reader_ms), "ms");
        daemon::starvation_probe(
            &args.mantra,
            &daemon::spawn_dir(&args.out, DAEMON_SPAWNS),
            args.seed,
            &queries,
            &mut m,
        )?;
        let dir = args.out.join("daemon-traced");
        let traced = traced_round(&shape, args.seed, collected, &dir, Some(&replica.reports));
        problems.extend(traced.problems.iter().cloned());
        traced.layer_metrics(&mut m, median(&replica.cycle_ms));
        series = Some(traced.series_json());
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: m,
        problems,
        sizes,
        counters,
        series,
    })
}

/// The daemon's latest `/stats/usage` answer must equal the replica's
/// usage history over the same prefix.
fn check_usage(obs: &Observed, replica: &Round, router: &str) -> Vec<String> {
    let Some(serde::Value::Seq(served)) = &obs.usage else {
        return vec!["no /stats/usage answer with a usage list".into()];
    };
    let history = replica
        .fleet
        .as_ref()
        .and_then(|f| f.monitor_of(router))
        .map(|mo| mo.usage_history(router))
        .unwrap_or(&[]);
    let expected = history
        .get(..served.len())
        .and_then(|h| serde_json::to_string(h).ok())
        .and_then(|s| crate::json::parse(&s));
    if expected.as_ref() == obs.usage.as_ref() {
        Vec::new()
    } else {
        vec!["/stats/usage differs from the in-process replica".into()]
    }
}
