//! The in-process monitor workloads: `paper-week` and `fleet-ramp`.
//!
//! A round builds the world and the fleet (set-up), then runs a fixed
//! number of cycles. Before each cycle the load generator advances the
//! world and renders every router's tables; only
//! `FleetMonitor::run_cycle` over those captures is timed. After the
//! last cycle the archive writers drain and every archive is replayed
//! with `ArchiveReader` and checked against the monitor.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mantra_core::logger::TableLog;
use mantra_core::monitor::CycleReport;
use mantra_core::{
    ArchiveReader, ArchiveSpec, BackpressureMode, FleetMonitor, MonitorConfig, SyncPolicy,
    WriterConfig,
};
use mantra_net::{SimDuration, SimTime};
use mantra_sim::Scenario;

use crate::access::Prerendered;
use crate::cpu;

/// The shape of one monitor workload.
#[derive(Clone, Debug)]
pub struct Shape {
    pub name: &'static str,
    /// Cycles per round.
    pub cycles: usize,
    pub shards: usize,
    /// Threaded (queued) writers in `Block` mode instead of the
    /// synchronous writer.
    pub threaded: bool,
}

pub const PAPER_WEEK: Shape = Shape {
    name: "paper-week",
    cycles: 672,
    shards: 1,
    threaded: false,
};

pub const FLEET_RAMP: Shape = Shape {
    name: "fleet-ramp",
    cycles: 8,
    shards: 2,
    threaded: true,
};

/// The daemon's collection, replayed in-process: one monitor over the
/// transition world with on-disk archives.
pub const DAEMON_REPLICA: Shape = Shape {
    name: "daemon-query",
    cycles: 0,
    shards: 1,
    threaded: false,
};

/// Threads rendering captures for the load generator.
pub const RENDER_WORKERS: usize = 2;

/// Routers in the fleet-ramp world.
pub const FLEET_ROUTERS: usize = 200;

/// A freshly built world with its monitored routers and cycle interval.
pub struct World {
    pub sc: Scenario,
    pub routers: Vec<String>,
    pub interval: SimDuration,
    pub start: SimTime,
}

impl World {
    pub fn build(shape: &Shape, seed: u64) -> World {
        let (sc, interval) = match shape.name {
            "paper-week" => (Scenario::fixw_six_months(seed), SimDuration::mins(15)),
            "fleet-ramp" => (
                Scenario::fleet_snapshot(seed, FLEET_ROUTERS, 0.4),
                SimDuration::hours(1),
            ),
            // The daemon's world, as `mantra daemon` builds it by default.
            _ => {
                let mut sc = Scenario::transition_snapshot(seed, 0.4);
                sc.sim.set_report_loss(0.02);
                let interval = sc.sim.tick();
                (sc, interval)
            }
        };
        let routers = sc
            .sim
            .monitored
            .iter()
            .map(|id| sc.sim.net.topo.router(*id).name.clone())
            .collect();
        let start = sc.sim.clock;
        World {
            sc,
            routers,
            interval,
            start,
        }
    }

    /// The timestamp of cycle `k` (1-based).
    pub fn cycle_at(&self, k: usize) -> SimTime {
        self.start + self.interval * k as u64
    }
}

/// The fleet for `shape` over `world`, archiving under `dir`.
pub fn build_fleet(shape: &Shape, world: &World, dir: &Path) -> FleetMonitor {
    let sync = SyncPolicy::default();
    let archive = if shape.threaded {
        ArchiveSpec::Threaded {
            dir: dir.to_path_buf(),
            sync,
            writer: WriterConfig {
                capacity: 64,
                mode: BackpressureMode::Block,
            },
        }
    } else {
        ArchiveSpec::File {
            dir: dir.to_path_buf(),
            sync,
        }
    };
    FleetMonitor::new(
        MonitorConfig {
            routers: world.routers.clone(),
            interval: world.interval,
            archive,
            ..MonitorConfig::default()
        },
        shape.shards,
    )
}

/// A fresh, empty archive directory.
pub fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create archive directory");
    dir.to_path_buf()
}

/// Counters that must repeat exactly for one seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub cycles: u64,
    pub rows: u64,
    pub records: u64,
    pub archive_bytes: u64,
    pub anomalies: u64,
    /// FNV-1a over the debug rendering of every cycle report.
    pub report_digest: u64,
}

impl Counters {
    pub fn json(&self) -> String {
        format!(
            "{{\"cycles\": {}, \"rows\": {}, \"records\": {}, \"archive_bytes\": {}, \
             \"anomalies\": {}, \"report_digest\": \"{:016x}\"}}",
            self.cycles,
            self.rows,
            self.records,
            self.archive_bytes,
            self.anomalies,
            self.report_digest
        )
    }
}

/// FNV-1a, folded over successive reports.
pub fn digest_report(h: u64, report: &CycleReport) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for b in format!("{report:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Archive accounting summed over the fleet, read after the writers
/// drained.
#[derive(Clone, Debug, Default)]
pub struct ArchiveTotals {
    pub records: u64,
    pub checkpoints: u64,
    pub fsyncs: u64,
    pub blocked_ms: f64,
    pub queue_high_water: u64,
    pub dropped: u64,
    pub write_errors: u64,
    pub disk_bytes: u64,
}

impl ArchiveTotals {
    /// Adds one router's log accounting and its archive's size on disk.
    pub fn add(&mut self, log: &TableLog, path: &Path) {
        let s = log.archive_stats();
        self.records += s.records;
        self.checkpoints += s.checkpoints;
        self.fsyncs += s.fsyncs;
        self.blocked_ms += s.blocked_nanos as f64 / 1e6;
        self.queue_high_water = self.queue_high_water.max(s.queue_high_water);
        self.dropped += s.dropped_records;
        self.write_errors += s.write_errors.max(log.write_errors);
        self.disk_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
    }
}

/// Drains every writer, then sums its accounting and the `.marc` sizes.
pub fn drain_and_total(fleet: &FleetMonitor, dir: &Path) -> ArchiveTotals {
    let mut t = ArchiveTotals::default();
    for r in &fleet.cfg.routers {
        let Some(log) = fleet.monitor_of(r).and_then(|m| m.log(r)) else {
            continue;
        };
        // `len` waits for a queued writer to go idle.
        let _ = log.len();
        t.add(log, &ArchiveSpec::path_for(dir, r));
    }
    t
}

/// Replays every router's archive with `ArchiveReader` and checks it
/// against the monitor: one record per cycle the router took part in,
/// and the last archived snapshot equal to the monitor's latest.
pub fn check_archives(fleet: &FleetMonitor, dir: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    for r in &fleet.cfg.routers {
        let Some(m) = fleet.monitor_of(r) else {
            problems.push(format!("{r}: no owning shard"));
            continue;
        };
        let cycles = m.router_health(r).map_or(0, |h| h.cycles) as usize;
        let rd = match ArchiveReader::open(ArchiveSpec::path_for(dir, r)) {
            Ok(rd) => rd,
            Err(e) => {
                problems.push(format!("{r}: archive unreadable: {e}"));
                continue;
            }
        };
        if rd.len() != cycles {
            problems.push(format!("{r}: {} records for {cycles} cycles", rd.len()));
        }
        let last = rd.times().last().copied();
        match last.map(|at| rd.state_at(at)) {
            Some(Ok(Some(t))) if Some(&t) == m.latest(r) => {}
            Some(Ok(_)) => problems.push(format!("{r}: last snapshot differs from the monitor")),
            Some(Err(e)) => problems.push(format!("{r}: replay failed: {e}")),
            None => problems.push(format!("{r}: empty archive")),
        }
    }
    problems
}

/// Set-ups timed per round besides the round's own, spread across its
/// cycles: a set-up is a fraction of a millisecond, and host contention
/// on a shared machine comes and goes over seconds, so samples taken
/// together would all see the same moment.
const SETUP_REPS: usize = 24;

/// Wall time, in seconds, to build the world and the (empty) fleet.
fn time_setup(shape: &Shape, seed: u64, dir: &Path) -> f64 {
    let t = Instant::now();
    let world = World::build(shape, seed);
    let fleet = build_fleet(shape, &world, dir);
    let s = t.elapsed().as_secs_f64();
    drop((world, fleet));
    s
}

/// What one untraced round measured.
pub struct Round {
    /// Set-up times in seconds, the round's own first.
    pub setups: Vec<f64>,
    /// Wall time of each `run_cycle`.
    pub cycle_ms: Vec<f64>,
    /// Process CPU time (all threads) of each `run_cycle`.
    pub cycle_cpu_ms: Vec<f64>,
    /// CPU time of the monitor over the round: every thread of the
    /// process, writer threads included, minus the load generator and
    /// the benchmark's own bookkeeping.
    pub monitor_cpu_s: f64,
    pub rows: u64,
    pub counters: Counters,
    pub archive: ArchiveTotals,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub reports: Vec<CycleReport>,
    pub routers: usize,
    pub start: SimTime,
    /// The finished fleet, kept (with the reports) when asked for, for
    /// the checks and probes that run after the round.
    pub fleet: Option<FleetMonitor>,
}

/// One untraced round: set-up, `shape.cycles` timed cycles, drain and
/// check.
pub fn run_round(shape: &Shape, seed: u64, dir: &Path, keep: bool) -> Round {
    let dir = fresh_dir(dir);
    let t0 = Instant::now();
    let mut world = World::build(shape, seed);
    let mut fleet = build_fleet(shape, &world, &dir);
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    let mut cycle_ms = Vec::with_capacity(shape.cycles);
    let mut cycle_cpu_ms = Vec::with_capacity(shape.cycles);
    let mut rows = 0u64;
    let mut digest = 0u64;
    let mut reports = Vec::new();
    let mut problems = Vec::new();
    // CPU spent outside the monitor: generator and bookkeeping.
    let mut excluded = Duration::ZERO;
    let cpu0 = cpu::process();
    for k in 1..=shape.cycles {
        let own = cpu::thread();
        let now = world.cycle_at(k);
        world.sc.sim.advance_to(now);
        let pre = Prerendered::render(&world.sc.sim, &world.routers, now, RENDER_WORKERS);
        excluded += cpu::thread() - own + pre.cpu;
        let (t, c) = (Instant::now(), cpu::process());
        let report = fleet.run_cycle(&pre, now);
        cycle_cpu_ms.push((cpu::process() - c).as_secs_f64() * 1e3);
        cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let own = cpu::thread();
        rows += fleet.parse_last().parsed as u64;
        digest = digest_report(digest, &report);
        if pre.unclaimed() > 0 {
            problems.push(format!(
                "cycle {k}: {} captures never read",
                pre.unclaimed()
            ));
        }
        if keep {
            reports.push(report);
        }
        drop(pre);
        let reps = k * SETUP_REPS / shape.cycles - (k - 1) * SETUP_REPS / shape.cycles;
        setups.extend((0..reps).map(|_| time_setup(shape, seed, &dir)));
        excluded += cpu::thread() - own;
    }
    let (routers, start) = (world.routers.len(), world.start);
    let own = cpu::thread();
    drop(world);
    excluded += cpu::thread() - own;
    let archive = drain_and_total(&fleet, &dir);
    let monitor_cpu_s = (cpu::process() - cpu0)
        .saturating_sub(excluded)
        .as_secs_f64();
    problems.extend(check_archives(&fleet, &dir));
    let (attempted, failed) = accounting(&fleet, &archive);
    let counters = Counters {
        cycles: shape.cycles as u64,
        rows,
        records: archive.records,
        archive_bytes: archive.disk_bytes,
        anomalies: fleet.anomalies.len() as u64,
        report_digest: digest,
    };
    Round {
        setups,
        cycle_ms,
        cycle_cpu_ms,
        monitor_cpu_s,
        rows,
        counters,
        archive,
        attempted,
        failed,
        problems,
        reports,
        routers,
        start,
        fleet: keep.then_some(fleet),
    }
}

/// `(attempted, failed)`: tables captured plus appends, against capture
/// failures, write errors and dropped records.
pub fn accounting(fleet: &FleetMonitor, archive: &ArchiveTotals) -> (u64, u64) {
    let mut tables = 0u64;
    let mut appends = 0u64;
    for r in &fleet.cfg.routers {
        if let Some(h) = fleet.monitor_of(r).and_then(|m| m.router_health(r)) {
            tables += h.successes + h.failures;
            appends += h.cycles;
        }
    }
    let failed = fleet.capture_failures() + archive.write_errors + archive.dropped;
    (tables + appends, failed)
}
