//! The traced engine: the fleet cycle re-composed from the pipeline's
//! public stages, with a span around every layer.
//!
//! `FleetMonitor::run_cycle` fans shards out, runs each shard's Capture →
//! Parse → Enrich → Log → Analyse stages, then merges the shard reports
//! and sweeps cross-router consistency over every router's snapshot.
//! [`TracedFleet`] performs the same steps through the same public entry
//! points (`Stage::run`, `InconsistencyMonitor::sweep`), timing each one
//! from here, so the program itself carries no instrumentation. The
//! traced run checks that its cycle reports equal the untraced engine's.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mantra_core::aggregate::ParallelAccess;
use mantra_core::anomaly::InconsistencyMonitor;
use mantra_core::monitor::CycleReport;
use mantra_core::pipeline::{
    AnalyseStage, EnrichStage, LogStage, ParallelCaptureStage, ParseStage, PipelineMetrics,
    RouterState, Stage,
};
use mantra_core::stats::RouteChurn;
use mantra_core::{
    ArchiveReader, ArchiveSpec, Collector, MonitorConfig, QueryCache, StatsTotals, TableStore,
    Tables,
};
use mantra_net::{GroupAddr, SimTime};

use crate::access::Prerendered;
use crate::monitor::{build_fleet, fresh_dir, ArchiveTotals, Shape, World, RENDER_WORKERS};
use crate::stats::{median, Metrics};

/// Per-layer wall time of one shard's cycle, in ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSpans {
    pub capture: f64,
    pub parse: f64,
    pub enrich: f64,
    pub log: f64,
    pub analyse: f64,
}

impl StageSpans {
    fn total(&self) -> f64 {
        self.capture + self.parse + self.enrich + self.log + self.analyse
    }
}

/// What one traced cycle recorded.
#[derive(Clone, Debug, Default)]
pub struct CycleTrace {
    pub at: SimTime,
    /// Stage spans of the shard that finished last (the critical path).
    pub stages: StageSpans,
    pub sweep_ms: f64,
    /// The whole re-composed cycle.
    pub cycle_ms: f64,
    pub tables: u64,
    pub rows: u64,
    pub malformed: u64,
    pub records: u64,
}

impl CycleTrace {
    /// Cycle time not covered by a layer span: shard fan-out and join,
    /// the report merge and the statistics fold.
    pub fn unattributed_ms(&self) -> f64 {
        (self.cycle_ms - self.stages.total() - self.sweep_ms).max(0.0)
    }
}

/// One shard's pipeline state, as a `Monitor` holds it.
struct Shard {
    cfg: MonitorConfig,
    collector: Collector,
    store: TableStore,
    state: Vec<RouterState>,
    names: BTreeMap<GroupAddr, String>,
    inconsistency: InconsistencyMonitor,
    metrics: PipelineMetrics,
    cache: QueryCache,
}

struct ShardOut {
    report: CycleReport,
    spans: StageSpans,
    tables: u64,
    rows: u64,
    malformed: u64,
    records: u64,
}

impl Shard {
    fn cycle<P: ParallelAccess>(&mut self, access: &P, now: SimTime) -> ShardOut {
        let mut spans = StageSpans::default();
        let t = Instant::now();
        let raw = ParallelCaptureStage {
            collector: &self.collector,
            routers: &self.cfg.routers,
            access,
        }
        .run(now);
        spans.capture = ms(t);
        let mut tables = 0;
        for rc in &raw.routers {
            self.collector.successes += rc.stats.successes;
            self.collector.failures += rc.stats.failures;
            tables += rc.stats.successes + rc.stats.failures;
        }
        let t = Instant::now();
        let parsed = ParseStage { parallel: true }.run(raw);
        spans.parse = ms(t);
        let (mut rows, mut malformed) = (0, 0);
        for pr in &parsed.routers {
            rows += pr.parse.parsed as u64;
            malformed += pr.parse.malformed as u64;
        }
        let t = Instant::now();
        let enriched = EnrichStage {
            store: &mut self.store,
            state: &mut self.state,
            session_names: &self.names,
            log_full_every: self.cfg.log_full_every,
            archive: &self.cfg.archive,
            retire_after: self.cfg.retire_after_intervals,
            parallel: true,
        }
        .run(parsed);
        spans.enrich = ms(t);
        let t = Instant::now();
        let logged = LogStage {
            store: &mut self.store,
            state: &mut self.state,
            parallel: true,
        }
        .run(enriched);
        spans.log = ms(t);
        let records = logged.routers.len() as u64;
        // The monitor refreshes its registry after every Log stage.
        self.metrics.record_archives(&self.state);
        self.metrics.record_cache(self.cache.stats());
        let t = Instant::now();
        let report = AnalyseStage {
            state: &mut self.state,
            threshold: self.cfg.threshold,
            injection_min_new: self.cfg.injection_min_new,
            inconsistency: &mut self.inconsistency,
            cross_router: false,
            parallel: true,
        }
        .run(logged);
        spans.analyse = ms(t);
        ShardOut {
            report,
            spans,
            tables,
            rows,
            malformed,
            records,
        }
    }

    fn state_of(&self, router: &str) -> Option<&RouterState> {
        let id = self.store.routers.get(&router.to_string())?;
        self.state.get(id as usize).filter(|st| !st.evicted)
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The fleet engine re-composed from public stages, with spans.
pub struct TracedFleet {
    routers: Vec<String>,
    assignment: Vec<usize>,
    shards: Vec<Shard>,
    inconsistency: InconsistencyMonitor,
}

impl TracedFleet {
    /// The same contiguous partition `FleetMonitor::new` makes.
    pub fn new(cfg: MonitorConfig, shards: usize) -> Self {
        let n = cfg.routers.len();
        let shards_n = shards.clamp(1, n.max(1));
        let chunk = n.div_ceil(shards_n).max(1);
        let assignment: Vec<usize> = (0..n).map(|i| (i / chunk).min(shards_n - 1)).collect();
        let mut routers_of: Vec<Vec<String>> = vec![Vec::new(); shards_n];
        for (r, &s) in cfg.routers.iter().zip(&assignment) {
            routers_of[s].push(r.clone());
        }
        let shards = routers_of
            .into_iter()
            .map(|routers| {
                let cfg = MonitorConfig {
                    routers,
                    cross_router_checks: false,
                    table_detail_limit: usize::MAX,
                    ..cfg.clone()
                };
                Shard {
                    collector: Collector::with_retry(cfg.retry.clone()),
                    cfg,
                    store: TableStore::default(),
                    state: Vec::new(),
                    names: BTreeMap::new(),
                    inconsistency: InconsistencyMonitor::default(),
                    metrics: PipelineMetrics::default(),
                    cache: QueryCache::default(),
                }
            })
            .collect();
        TracedFleet {
            routers: cfg.routers,
            assignment,
            shards,
            inconsistency: InconsistencyMonitor::default(),
        }
    }

    /// One traced fleet cycle at `now`.
    pub fn run_cycle<P: ParallelAccess>(
        &mut self,
        access: &P,
        now: SimTime,
    ) -> (CycleReport, CycleTrace) {
        let t0 = Instant::now();
        let outs: Vec<ShardOut> = if self.shards.len() == 1 {
            vec![self.shards[0].cycle(access, now)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .map(|sh| scope.spawn(move || sh.cycle(access, now)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard thread panicked"))
                    .collect()
            })
        };
        // Re-interleave shard reports into configuration order.
        let mut report = CycleReport {
            at: now,
            per_router: Vec::with_capacity(self.routers.len()),
            anomalies: Vec::new(),
        };
        let mut entry_at = vec![0usize; outs.len()];
        let mut anomaly_at = vec![0usize; outs.len()];
        for (router, &s) in self.routers.iter().zip(&self.assignment) {
            let shard_report = &outs[s].report;
            if let Some(entry) = shard_report.per_router.get(entry_at[s]) {
                if &entry.0 == router {
                    report.per_router.push(entry.clone());
                    entry_at[s] += 1;
                }
            }
            while let Some(a) = shard_report.anomalies.get(anomaly_at[s]) {
                if &a.router != router {
                    break;
                }
                report.anomalies.push(a.clone());
                anomaly_at[s] += 1;
            }
        }
        let t = Instant::now();
        let views: Vec<&Tables> = self
            .routers
            .iter()
            .zip(&self.assignment)
            .filter_map(|(r, &s)| self.shards[s].state_of(r).and_then(|st| st.prev.as_ref()))
            .filter(|t| t.captured_at == now)
            .collect();
        report
            .anomalies
            .extend(self.inconsistency.sweep(&views, now));
        let sweep_ms = ms(t);
        let mut totals = StatsTotals::default();
        let mut churn = RouteChurn::default();
        for shard in &self.shards {
            for st in shard.state.iter().filter(|st| !st.evicted) {
                totals.absorb(&st.stream.totals());
                if let Some((at, c)) = st.churn.last() {
                    if *at == now {
                        churn.absorb(c);
                    }
                }
            }
        }
        // The fleet keeps these global statistics; only their cost matters
        // here.
        std::hint::black_box((totals.usage(), totals.route_stats(), churn));
        let cycle_ms = ms(t0);
        let critical = outs
            .iter()
            .max_by(|a, b| a.spans.total().total_cmp(&b.spans.total()))
            .expect("at least one shard");
        let trace = CycleTrace {
            at: now,
            stages: critical.spans,
            sweep_ms,
            cycle_ms,
            tables: outs.iter().map(|o| o.tables).sum(),
            rows: outs.iter().map(|o| o.rows).sum(),
            malformed: outs.iter().map(|o| o.malformed).sum(),
            records: outs.iter().map(|o| o.records).sum(),
        };
        (report, trace)
    }

    /// Every router's state, in configuration order.
    pub fn states(&self) -> impl Iterator<Item = &RouterState> {
        self.routers
            .iter()
            .zip(&self.assignment)
            .filter_map(|(r, &s)| self.shards[s].state_of(r))
    }

    /// Capture failures the shard collectors counted.
    pub fn capture_failures(&self) -> u64 {
        self.shards.iter().map(|s| s.collector.failures).sum()
    }
}

/// Load-generator spans of one cycle.
#[derive(Clone, Copy, Debug, Default)]
pub struct GenTrace {
    pub advance_ms: f64,
    pub render_ms: f64,
    pub render_bytes: u64,
}

/// What a traced round recorded.
pub struct TracedRound {
    pub cycles: Vec<CycleTrace>,
    pub gen: Vec<GenTrace>,
    pub archive: ArchiveTotals,
    /// `ArchiveReader::open` plus the replay to the latest record, per
    /// archive.
    pub reader_ms: Vec<f64>,
    pub anomalies: u64,
    pub problems: Vec<String>,
}

/// A round of the traced composition over `cycles` cycles. When
/// `expect` holds the untraced reports, every traced report must equal
/// its counterpart.
pub fn traced_round(
    shape: &Shape,
    seed: u64,
    cycles: usize,
    dir: &Path,
    expect: Option<&[CycleReport]>,
) -> TracedRound {
    let dir = fresh_dir(dir);
    let mut world = World::build(shape, seed);
    let cfg = build_fleet(shape, &world, &dir).cfg.clone();
    let mut fleet = TracedFleet::new(cfg, shape.shards);
    let mut out = TracedRound {
        cycles: Vec::with_capacity(cycles),
        gen: Vec::with_capacity(cycles),
        archive: ArchiveTotals::default(),
        reader_ms: Vec::new(),
        anomalies: 0,
        problems: Vec::new(),
    };
    for k in 1..=cycles {
        let now = world.cycle_at(k);
        let t = Instant::now();
        world.sc.sim.advance_to(now);
        let advance_ms = ms(t);
        let t = Instant::now();
        let pre = Prerendered::render(&world.sc.sim, &world.routers, now, RENDER_WORKERS);
        let render_ms = ms(t);
        out.gen.push(GenTrace {
            advance_ms,
            render_ms,
            render_bytes: pre.bytes,
        });
        let (report, trace) = fleet.run_cycle(&pre, now);
        out.anomalies += report.anomalies.len() as u64;
        if expect.is_some_and(|e| e.get(k - 1) != Some(&report)) {
            out.problems.push(format!(
                "traced cycle {k} report differs from the untraced one"
            ));
        }
        out.cycles.push(trace);
    }
    drop(world);
    for st in fleet.states() {
        // `len` waits for a queued writer to go idle.
        let _ = st.log.len();
        out.archive
            .add(&st.log, &ArchiveSpec::path_for(&dir, &st.name));
        let t = Instant::now();
        let last =
            ArchiveReader::open(ArchiveSpec::path_for(&dir, &st.name)).and_then(|rd| {
                match rd.times().last() {
                    Some(&at) => rd.state_at(at),
                    None => Ok(None),
                }
            });
        out.reader_ms.push(ms(t));
        if !matches!(&last, Ok(Some(t)) if Some(t) == st.prev.as_ref()) {
            out.problems.push(format!(
                "{}: traced archive does not replay to the latest snapshot",
                st.name
            ));
        }
    }
    if fleet.capture_failures() > 0 {
        out.problems.push(format!(
            "{} capture failures in the traced round",
            fleet.capture_failures()
        ));
    }
    out
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (n, s) = xs.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    if n == 0 {
        0.0
    } else {
        s / n as f64
    }
}

impl TracedRound {
    /// Per-layer metrics: a layer's time is its mean ms per cycle, a
    /// count is the round's total. `untraced_p50` is the untraced
    /// engine's median cycle over the same cycles, for the overhead.
    pub fn layer_metrics(&self, m: &mut Metrics, untraced_p50: f64) {
        let c = &self.cycles;
        let rows: u64 = c.iter().map(|t| t.rows).sum();
        let malformed: u64 = c.iter().map(|t| t.malformed).sum();
        let traced_p50 = median(&c.iter().map(|t| t.cycle_ms).collect::<Vec<_>>());
        let a = &self.archive;
        m.lower(
            "sim.advance_ms",
            mean(self.gen.iter().map(|g| g.advance_ms)),
            "ms",
        );
        m.lower(
            "router_cli.render_ms",
            mean(self.gen.iter().map(|g| g.render_ms)),
            "ms",
        );
        let bytes: u64 = self.gen.iter().map(|g| g.render_bytes).sum();
        m.lower("router_cli.bytes", bytes as f64, "B");
        m.lower(
            "collector.capture_ms",
            mean(c.iter().map(|t| t.stages.capture)),
            "ms",
        );
        m.higher(
            "collector.tables",
            c.iter().map(|t| t.tables).sum::<u64>() as f64,
            "count",
        );
        m.lower(
            "processor.parse_ms",
            mean(c.iter().map(|t| t.stages.parse)),
            "ms",
        );
        m.higher("processor.rows", rows as f64, "count");
        m.lower(
            "processor.malformed_ratio",
            malformed as f64 / (rows + malformed).max(1) as f64,
            "ratio",
        );
        m.lower(
            "pipeline.enrich_ms",
            mean(c.iter().map(|t| t.stages.enrich)),
            "ms",
        );
        m.lower("logger.log_ms", mean(c.iter().map(|t| t.stages.log)), "ms");
        m.higher(
            "logger.records",
            c.iter().map(|t| t.records).sum::<u64>() as f64,
            "count",
        );
        m.lower(
            "logger.full_ratio",
            a.checkpoints as f64 / a.records.max(1) as f64,
            "ratio",
        );
        m.lower("archive.bytes", a.disk_bytes as f64, "B");
        m.lower("archive.fsyncs", a.fsyncs as f64, "count");
        m.lower("archive.blocked_ms", a.blocked_ms, "ms");
        m.lower(
            "archive.queue_high_water",
            a.queue_high_water as f64,
            "count",
        );
        m.lower("archive.dropped", a.dropped as f64, "count");
        m.lower(
            "stats_stream.analyse_ms",
            mean(c.iter().map(|t| t.stages.analyse)),
            "ms",
        );
        m.lower("anomaly.sweep_ms", mean(c.iter().map(|t| t.sweep_ms)), "ms");
        m.lower("anomaly.raised", self.anomalies as f64, "count");
        m.lower(
            "fleet.unattributed_ms",
            mean(c.iter().map(CycleTrace::unattributed_ms)),
            "ms",
        );
        m.lower("trace.cycle_ms.p50", traced_p50, "ms");
        m.lower("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
    }

    /// The per-cycle series: sim time, rows and each layer's ms.
    pub fn series_json(&self) -> String {
        let rows: Vec<String> = self
            .cycles
            .iter()
            .zip(&self.gen)
            .map(|(t, g)| {
                format!(
                    "{{\"at\": \"{}\", \"rows\": {}, \"advance_ms\": {:.4}, \"render_ms\": {:.4}, \
                     \"capture_ms\": {:.4}, \"parse_ms\": {:.4}, \"enrich_ms\": {:.4}, \
                     \"log_ms\": {:.4}, \"analyse_ms\": {:.4}, \"sweep_ms\": {:.4}, \
                     \"unattributed_ms\": {:.4}, \"cycle_ms\": {:.4}}}",
                    t.at.iso8601(),
                    t.rows,
                    g.advance_ms,
                    g.render_ms,
                    t.stages.capture,
                    t.stages.parse,
                    t.stages.enrich,
                    t.stages.log,
                    t.stages.analyse,
                    t.sweep_ms,
                    t.unattributed_ms(),
                    t.cycle_ms
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::DAEMON_REPLICA;
    use mantra_core::{ArchiveSpec, FleetMonitor};

    /// The traced composition must be the fleet engine, cycle for cycle.
    #[test]
    fn traced_composition_matches_the_fleet_engine() {
        let shape = Shape {
            shards: 2,
            ..DAEMON_REPLICA
        };
        let mut world = World::build(&shape, 41);
        let cfg = MonitorConfig {
            routers: world.routers.clone(),
            interval: world.interval,
            archive: ArchiveSpec::Memory,
            ..MonitorConfig::default()
        };
        let mut fleet = FleetMonitor::new(cfg.clone(), 2);
        let mut traced = TracedFleet::new(cfg, 2);
        for k in 1..=4 {
            let now = world.cycle_at(k);
            world.sc.sim.advance_to(now);
            let expected = fleet.run_cycle(&world.sc.sim, now);
            let (report, trace) = traced.run_cycle(&world.sc.sim, now);
            assert_eq!(report, expected, "cycle {k}");
            assert_eq!(trace.at, now);
            assert!(trace.rows > 0 && trace.tables == 10, "{trace:?}");
            assert!(trace.cycle_ms >= trace.stages.total() + trace.sweep_ms - 1e-9);
        }
        assert_eq!(traced.capture_failures(), 0);
    }
}
