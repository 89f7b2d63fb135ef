//! The staged monitoring pipeline.
//!
//! Figure 1's data path, made explicit: each cycle flows through five
//! typed stages —
//!
//! ```text
//! Capture ─► Parse ─► Enrich ─► Log ─► Analyse
//! RawCycle   ParsedCycle  EnrichedCycle  LoggedCycle  CycleReport
//! ```
//!
//! A [`Stage`] consumes one artifact type and produces the next; the
//! [`Monitor`](crate::monitor::Monitor) is a thin driver that threads a
//! cycle through the stages via [`PipelineMetrics::run`], which accounts
//! per-stage invocations, item counts, wall-clock time and simulated-time
//! latency. The stages share one [`TableStore`] so router names, hosts,
//! groups and route keys are interned once and handled as dense `u32` ids
//! everywhere downstream.

use std::collections::BTreeMap;

use mantra_net::{BitRate, GroupAddr, Ip, SimDuration, SimTime};

use crate::aggregate::ParallelAccess;
use crate::anomaly::{detect_injection, Anomaly, InconsistencyMonitor, SpikeDetector};
use crate::archive::{ArchiveSpec, CacheStats};
use crate::collector::{Capture, CollectStats, Collector};
use crate::logger::{TableDelta, TableLog};
use crate::longterm::LongTermTracker;
use crate::monitor::{CycleReport, RouterHealth};
use crate::output::{Cell, Table};
use crate::processor::{process, ParseStats};
use crate::stats::{RouteChurn, RouteStats, UsageStats};
use crate::stats_stream::IncrementalStats;
use crate::store::{FxHashMap, TableStore};
use crate::tables::Tables;

// ----------------------------------------------------------------------
// Artifacts
// ----------------------------------------------------------------------

/// One router's raw capture batch for a cycle.
#[derive(Clone, Debug)]
pub struct RouterCapture {
    /// Router polled.
    pub router: String,
    /// Pre-processed captures (one per table kind that survived).
    pub captures: Vec<Capture>,
    /// Collection accounting for this router's batch.
    pub stats: CollectStats,
}

/// Capture-stage output: every router's raw batch for one cycle.
#[derive(Clone, Debug)]
pub struct RawCycle {
    /// Cycle timestamp.
    pub at: SimTime,
    /// Per-router batches, in configuration order.
    pub routers: Vec<RouterCapture>,
}

/// One router's parsed snapshot.
#[derive(Clone, Debug)]
pub struct ParsedRouter {
    /// Router polled.
    pub router: String,
    /// The parsed (not yet enriched) table snapshot.
    pub tables: Tables,
    /// Parse accounting for the batch.
    pub parse: ParseStats,
    /// Collection accounting, carried through for the health registry.
    pub stats: CollectStats,
}

/// Parse-stage output.
#[derive(Clone, Debug)]
pub struct ParsedCycle {
    /// Cycle timestamp.
    pub at: SimTime,
    /// Per-router snapshots, in configuration order.
    pub routers: Vec<ParsedRouter>,
}

/// One router's enriched snapshot, addressed by its interned id.
#[derive(Clone, Debug)]
pub struct EnrichedRouter {
    /// Dense router id in the shared [`TableStore`].
    pub id: u32,
    /// The enriched snapshot (running averages, session names).
    pub tables: Tables,
}

/// Enrich-stage output.
#[derive(Clone, Debug)]
pub struct EnrichedCycle {
    /// Cycle timestamp.
    pub at: SimTime,
    /// Per-router snapshots, in configuration order.
    pub routers: Vec<EnrichedRouter>,
}

/// One router's archived snapshot, carrying the delta the log computed.
#[derive(Clone, Debug)]
pub struct LoggedRouter {
    /// Dense router id in the shared [`TableStore`].
    pub id: u32,
    /// The archived snapshot.
    pub tables: Tables,
    /// The delta from the router's previous archived snapshot to this
    /// one, as computed while appending — `None` only for a log's very
    /// first record. The Analyse stage folds this instead of re-deriving
    /// per-cycle change from two full snapshots.
    pub delta: Option<TableDelta>,
}

/// Log-stage output: the enriched snapshots, now archived.
#[derive(Clone, Debug)]
pub struct LoggedCycle {
    /// Cycle timestamp.
    pub at: SimTime,
    /// Per-router snapshots, in configuration order.
    pub routers: Vec<LoggedRouter>,
}

// ----------------------------------------------------------------------
// Stage abstraction and metrics
// ----------------------------------------------------------------------

/// The five pipeline stages, in data-path order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// Log in, dump tables, pre-process.
    Capture = 0,
    /// Text to table snapshots.
    Parse = 1,
    /// Running averages, session names, health accounting.
    Enrich = 2,
    /// Delta archive and long-term trackers.
    Log = 3,
    /// Statistics, anomaly detectors, the cycle report.
    Analyse = 4,
}

impl StageKind {
    /// All stages, in pipeline order.
    pub const ALL: [StageKind; 5] = [
        StageKind::Capture,
        StageKind::Parse,
        StageKind::Enrich,
        StageKind::Log,
        StageKind::Analyse,
    ];

    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            StageKind::Capture => "capture",
            StageKind::Parse => "parse",
            StageKind::Enrich => "enrich",
            StageKind::Log => "log",
            StageKind::Analyse => "analyse",
        }
    }
}

/// One pipeline step: consumes its input artifact, produces the next.
pub trait Stage {
    /// Artifact consumed.
    type Input;
    /// Artifact produced.
    type Output;

    /// Which of the five stages this is.
    fn kind(&self) -> StageKind;

    /// Runs the stage.
    fn run(&mut self, input: Self::Input) -> Self::Output;

    /// How many items the run handled, for throughput accounting. What an
    /// "item" is depends on the stage: captured tables for Capture, parse
    /// records for Parse, router snapshots downstream.
    fn items(&self, out: &Self::Output) -> u64;

    /// Simulated-time latency the run added (e.g. retry backoff).
    fn sim_latency(&self, _out: &Self::Output) -> SimDuration {
        SimDuration::ZERO
    }
}

/// Accumulated accounting for one stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageMetrics {
    /// Times the stage ran (one per cycle under the monitor).
    pub invocations: u64,
    /// Items handled across all runs.
    pub items: u64,
    /// Wall-clock time spent, in nanoseconds. Always at least one per
    /// invocation, so "this stage ran" is visible even below timer
    /// resolution.
    pub wall_nanos: u64,
    /// Simulated-time latency accumulated (retry backoff, for Capture).
    pub sim_latency: SimDuration,
}

/// Archive accounting aggregated per backend kind, refreshed after each
/// Log stage from the routers' logs (absolute totals, not increments).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArchiveMetrics {
    /// Backend name ("memory", "file").
    pub backend: &'static str,
    /// Routers archiving through this backend.
    pub routers: u64,
    /// Records archived.
    pub records: u64,
    /// Full-snapshot checkpoints among them.
    pub checkpoints: u64,
    /// Archived bytes (frames for file archives, payloads for memory).
    pub bytes: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Appends accepted since the last `fsync` across this backend's
    /// routers — with batched fsync cadences this is the fleet's current
    /// power-loss exposure in records.
    pub pending_appends: u64,
    /// Embedded dictionary entries across this backend's archives
    /// (MANTRARC v2).
    pub dict_entries: u64,
    /// Appends the backend failed to persist.
    pub write_errors: u64,
    /// Routers whose requested backend could not be opened and whose log
    /// silently degraded to an in-memory archive — persistence the
    /// operator configured is not happening for these.
    pub fallbacks: u64,
    /// Records currently sitting in writer-thread queues (threaded
    /// backends only) — part of the fleet's power-loss exposure.
    pub queue_depth: u64,
    /// The deepest any single router's writer queue has been.
    pub queue_high_water: u64,
    /// Wall-clock nanoseconds collection spent blocked on full writer
    /// queues (backpressure in `Block` mode).
    pub blocked_nanos: u64,
    /// Records shed on full queues or skipped to keep delta chains
    /// replayable after a writer-side failure — loud loss, never silent.
    pub dropped_records: u64,
    /// Archive read failures observed while replaying these routers'
    /// logs.
    pub replay_errors: u64,
}

/// The per-stage metrics registry: one [`StageMetrics`] per [`StageKind`],
/// plus per-backend archive totals.
#[derive(Clone, Debug, Default)]
pub struct PipelineMetrics {
    stages: [StageMetrics; 5],
    archives: Vec<ArchiveMetrics>,
    query_cache: CacheStats,
}

impl PipelineMetrics {
    /// Runs `stage` on `input`, accounting the run under its kind.
    pub fn run<S: Stage>(&mut self, stage: &mut S, input: S::Input) -> S::Output {
        let t = std::time::Instant::now();
        let out = stage.run(input);
        let m = &mut self.stages[stage.kind() as usize];
        m.invocations += 1;
        m.items += stage.items(&out);
        m.wall_nanos += (t.elapsed().as_nanos() as u64).max(1);
        m.sim_latency += stage.sim_latency(&out);
        out
    }

    /// The accumulated metrics of one stage.
    pub fn stage(&self, kind: StageKind) -> &StageMetrics {
        &self.stages[kind as usize]
    }

    /// Refreshes the per-backend archive totals from the routers' logs.
    /// The monitor calls this after every Log stage; values are absolute,
    /// so repeated refreshes never double-count.
    pub fn record_archives(&mut self, state: &[RouterState]) {
        let mut agg: Vec<ArchiveMetrics> = Vec::new();
        for st in state {
            if st.evicted {
                continue;
            }
            let stats = st.log.archive_stats();
            let kind = st.log.backend_kind();
            let m = match agg.iter_mut().find(|m| m.backend == kind) {
                Some(m) => m,
                None => {
                    agg.push(ArchiveMetrics {
                        backend: kind,
                        ..ArchiveMetrics::default()
                    });
                    agg.last_mut().expect("just pushed")
                }
            };
            m.routers += 1;
            m.records += stats.records;
            m.checkpoints += stats.checkpoints;
            m.bytes += stats.bytes;
            m.fsyncs += stats.fsyncs;
            m.pending_appends += stats.pending_appends;
            m.dict_entries += st.log.describe().dict_entries;
            // The log counts errors it observed; the backend counts
            // errors where they happened (a threaded writer's failures
            // reach the log a cycle late, if at all). Take the max so
            // neither view under-reports.
            m.write_errors += st.log.write_errors.max(stats.write_errors);
            m.fallbacks += u64::from(st.log.fell_back);
            m.queue_depth += stats.queue_depth;
            m.queue_high_water = m.queue_high_water.max(stats.queue_high_water);
            m.blocked_nanos += stats.blocked_nanos;
            m.dropped_records += stats.dropped_records;
            m.replay_errors += st.log.replay_errors();
        }
        self.archives = agg;
    }

    /// The per-backend archive totals, in first-seen backend order.
    pub fn archives(&self) -> &[ArchiveMetrics] {
        &self.archives
    }

    /// Refreshes the archive query-cache counters (absolute totals from
    /// the monitor's [`QueryCache`](crate::archive::QueryCache), so
    /// repeated refreshes never double-count).
    pub fn record_cache(&mut self, stats: CacheStats) {
        self.query_cache = stats;
    }

    /// Counters for the archive replay query cache serving concurrent
    /// readers (the daemon's `/replay` endpoint and friends).
    pub fn query_cache(&self) -> CacheStats {
        self.query_cache
    }

    /// The per-stage summary table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Pipeline stages",
            vec!["stage", "invocations", "items", "wall_ms", "sim_latency_s"],
        );
        for kind in StageKind::ALL {
            let m = self.stage(kind);
            table.push_row(vec![
                Cell::Text(kind.as_str().into()),
                Cell::Num(m.invocations as f64),
                Cell::Num(m.items as f64),
                Cell::Num(m.wall_nanos as f64 / 1e6),
                Cell::Num(m.sim_latency.as_secs() as f64),
            ]);
        }
        table
    }
}

// ----------------------------------------------------------------------
// Per-router state
// ----------------------------------------------------------------------

/// Everything the pipeline keeps per router, indexed by the router's
/// dense id in the shared store — plain `Vec` access on the hot path
/// instead of a name-keyed map lookup per field per cycle.
#[derive(Debug)]
pub struct RouterState {
    /// Router name (the store's `routers` interner resolves ids too; kept
    /// here so state can render without a store reference).
    pub name: String,
    /// Delta archive.
    pub log: TableLog,
    /// Usage-statistics history, one entry per cycle.
    pub usage: Vec<UsageStats>,
    /// Route-statistics history, one entry per cycle.
    pub routes: Vec<RouteStats>,
    /// Route-churn history (starts at the second cycle).
    pub churn: Vec<(SimTime, RouteChurn)>,
    /// Latest snapshot, for delta analysis next cycle.
    pub prev: Option<Tables>,
    /// Long-term trend tracker.
    pub longterm: LongTermTracker,
    /// Collection health registry entry.
    pub health: RouterHealth,
    /// Route-count spike detector.
    pub detector: SpikeDetector,
    /// Streaming statistics accumulators, advanced by each cycle's delta
    /// — the O(churn) replacement for per-cycle full-snapshot passes.
    pub stream: IncrementalStats,
    /// Running `(sum_bps, samples)` per `(group, source)` pair, for the
    /// Pair table's average-bandwidth column. Keyed by address rather
    /// than interned id so the enrich fan-out never touches the shared
    /// (serial) interner.
    pub avg_bw: FxHashMap<(GroupAddr, Ip), (u64, u64)>,
    /// Archive size after each cycle, `(cycle time, stored bytes)` — the
    /// growth curve the HTML report charts.
    pub archive_growth: Vec<(SimTime, u64)>,
    /// True for the tombstone left behind when a fleet rebalance moved
    /// this router's state to another shard. Interned ids are dense and
    /// never renumber, so the vacated slot stays — but every aggregation
    /// over the state vector skips it, and [`RouterState`] lookups treat
    /// it as absent.
    pub evicted: bool,
}

impl RouterState {
    /// Fresh state for a router, with its archive opened per `archive`.
    pub fn new(name: String, log_full_every: usize, archive: &ArchiveSpec) -> Self {
        let log = archive.open_log(&name, log_full_every);
        RouterState {
            name,
            log,
            usage: Vec::new(),
            routes: Vec::new(),
            churn: Vec::new(),
            prev: None,
            longterm: LongTermTracker::default(),
            health: RouterHealth::default(),
            detector: SpikeDetector::new(32, 8.0, 100.0),
            stream: IncrementalStats::default(),
            avg_bw: FxHashMap::default(),
            archive_growth: Vec::new(),
            evicted: false,
        }
    }

    /// The slot left behind by a rebalance eviction. Deliberately does
    /// NOT open an archive — the moved state carried its open log with
    /// it, and opening here would truncate the file it still writes.
    pub fn tombstone(name: String) -> Self {
        RouterState {
            name,
            log: TableLog::default(),
            usage: Vec::new(),
            routes: Vec::new(),
            churn: Vec::new(),
            prev: None,
            longterm: LongTermTracker::default(),
            health: RouterHealth::default(),
            detector: SpikeDetector::new(32, 8.0, 100.0),
            stream: IncrementalStats::default(),
            avg_bw: FxHashMap::default(),
            archive_growth: Vec::new(),
            evicted: true,
        }
    }
}

/// Whether every id is in-bounds for `len` states and distinct — the
/// precondition for handing out one exclusive state reference per cycle
/// router. Duplicates can only arise from a degenerate configuration
/// (the same router listed twice in one cycle); those cycles fall back
/// to the serial path, where aliasing is naturally sequential.
fn ids_are_distinct(len: usize, ids: impl Iterator<Item = u32>) -> bool {
    let mut seen = vec![false; len];
    for id in ids {
        match seen.get_mut(id as usize) {
            Some(s) if !*s => *s = true,
            _ => return false,
        }
    }
    true
}

/// Exclusive references to the cycle routers' states, aligned with
/// `ids`. Callers must have checked [`ids_are_distinct`] first.
fn state_refs<'a>(
    state: &'a mut [RouterState],
    ids: impl Iterator<Item = u32>,
) -> Vec<&'a mut RouterState> {
    let mut slots: Vec<Option<&'a mut RouterState>> = state.iter_mut().map(Some).collect();
    ids.map(|id| {
        slots[id as usize]
            .take()
            .expect("ids checked distinct and in bounds")
    })
    .collect()
}

/// Runs `body` once per work item against that item's router state — the
/// per-router fan-out shape shared by the Enrich and Analyse stages.
/// When `parallel` is set and every item maps to a distinct state slot,
/// the bodies run concurrently on the thread pool (each state is visited
/// by exactly one worker, sharded behind its interned id); otherwise
/// they run serially. Either way results come back in item order and
/// every state mutation is identical, so the two paths are
/// byte-equivalent.
fn run_sharded<W, R>(
    parallel: bool,
    state: &mut [RouterState],
    work: &mut [W],
    id_of: impl Fn(&W) -> u32,
    body: impl Fn(&mut RouterState, &mut W) -> R + Sync,
) -> Vec<R>
where
    W: Send,
    R: Send,
{
    if parallel && ids_are_distinct(state.len(), work.iter().map(&id_of)) {
        let refs = state_refs(state, work.iter().map(&id_of));
        let mut items: Vec<(&mut RouterState, &mut W)> =
            refs.into_iter().zip(work.iter_mut()).collect();
        rayon::parallel_map_mut(&mut items, |item| body(&mut *item.0, &mut *item.1))
    } else {
        work.iter_mut()
            .map(|w| body(&mut state[id_of(w) as usize], w))
            .collect()
    }
}

// ----------------------------------------------------------------------
// Stages
// ----------------------------------------------------------------------

/// Parses one router's capture batch, stamping empty snapshots (all
/// captures lost) with the router and cycle timestamp so downstream
/// consumers always see an addressed snapshot.
pub fn parse_router(router: &str, captures: &[Capture], at: SimTime) -> (Tables, ParseStats) {
    let (mut tables, stats) = process(captures);
    if tables.router.is_empty() {
        tables.router = router.to_string();
        tables.captured_at = at;
    }
    (tables, stats)
}

fn capture_items(out: &RawCycle) -> u64 {
    out.routers
        .iter()
        .map(|r| r.stats.successes + r.stats.failures)
        .sum()
}

fn capture_latency(out: &RawCycle) -> SimDuration {
    out.routers
        .iter()
        .fold(SimDuration::ZERO, |acc, r| acc + r.stats.backoff)
}

/// Capture polling routers one after another (the paper's original
/// expect-script shape: one login walks every router).
pub struct CaptureStage<'a, P: ?Sized> {
    /// The collector (retry policy, table set).
    pub collector: &'a Collector,
    /// Routers to poll, in order.
    pub routers: &'a [String],
    /// The transport.
    pub access: &'a P,
}

impl<P: ParallelAccess + ?Sized> Stage for CaptureStage<'_, P> {
    type Input = SimTime;
    type Output = RawCycle;

    fn kind(&self) -> StageKind {
        StageKind::Capture
    }

    fn run(&mut self, now: SimTime) -> RawCycle {
        let routers = self
            .routers
            .iter()
            .map(|router| {
                let (captures, stats) = self.collector.collect_with(self.access, router, now);
                RouterCapture {
                    router: router.clone(),
                    captures,
                    stats,
                }
            })
            .collect();
        RawCycle { at: now, routers }
    }

    fn items(&self, out: &RawCycle) -> u64 {
        capture_items(out)
    }

    fn sim_latency(&self, out: &RawCycle) -> SimDuration {
        capture_latency(out)
    }
}

/// Capture fanned across the rayon pool, one router per work item — the
/// paper's planned "collect data from multiple routers concurrently".
/// Produces the same [`RawCycle`] as [`CaptureStage`] over the same access
/// and timestamps.
pub struct ParallelCaptureStage<'a, P: ?Sized> {
    /// The collector (retry policy, table set).
    pub collector: &'a Collector,
    /// Routers to poll, in order.
    pub routers: &'a [String],
    /// The shared transport.
    pub access: &'a P,
}

impl<P: ParallelAccess + ?Sized> Stage for ParallelCaptureStage<'_, P> {
    type Input = SimTime;
    type Output = RawCycle;

    fn kind(&self) -> StageKind {
        StageKind::Capture
    }

    fn run(&mut self, now: SimTime) -> RawCycle {
        use rayon::prelude::*;
        let collector = self.collector;
        let access = self.access;
        let routers = self
            .routers
            .par_iter()
            .map(|router| {
                let (captures, stats) = collector.collect_with(access, router, now);
                RouterCapture {
                    router: router.clone(),
                    captures,
                    stats,
                }
            })
            .collect();
        RawCycle { at: now, routers }
    }

    fn items(&self, out: &RawCycle) -> u64 {
        capture_items(out)
    }

    fn sim_latency(&self, out: &RawCycle) -> SimDuration {
        capture_latency(out)
    }
}

/// Text to table snapshots. Pure per router, so a fleet shard fans it
/// across the rayon pool with identical output.
pub struct ParseStage {
    /// Whether to parse routers on the rayon pool.
    pub parallel: bool,
}

impl Stage for ParseStage {
    type Input = RawCycle;
    type Output = ParsedCycle;

    fn kind(&self) -> StageKind {
        StageKind::Parse
    }

    fn run(&mut self, raw: RawCycle) -> ParsedCycle {
        let at = raw.at;
        let parse_one = |rc: &RouterCapture| {
            let (tables, parse) = parse_router(&rc.router, &rc.captures, at);
            ParsedRouter {
                router: rc.router.clone(),
                tables,
                parse,
                stats: rc.stats,
            }
        };
        let routers = if self.parallel {
            use rayon::prelude::*;
            raw.routers.par_iter().map(parse_one).collect()
        } else {
            raw.routers.iter().map(parse_one).collect()
        };
        ParsedCycle { at, routers }
    }

    fn items(&self, out: &ParsedCycle) -> u64 {
        out.routers
            .iter()
            .map(|r| {
                (r.parse.parsed + r.parse.malformed + r.parse.skipped + r.parse.rejected_mixed)
                    as u64
            })
            .sum()
    }
}

/// One router's enrichment body: folds per-pair running bandwidth
/// averages into the router's state and overlays externally learned
/// session names. Touches only this router's state, so the stage can
/// fan bodies out per router.
fn enrich_router(st: &mut RouterState, tables: &mut Tables, names: &BTreeMap<GroupAddr, String>) {
    for ((g, s), pair) in tables.pairs.iter_mut() {
        let e = st.avg_bw.entry((*g, *s)).or_insert((0, 0));
        e.0 += pair.current_bw.bps();
        e.1 += 1;
        pair.avg_bw = BitRate(e.0 / e.1);
    }
    for (g, s) in tables.sessions.iter_mut() {
        if let Some(name) = names.get(g) {
            s.name = Some(name.clone());
        }
    }
}

/// Stateful enrichment: interns the router, records collection health,
/// folds per-pair running bandwidth averages and overlays externally
/// learned session names. Interning and state creation are a short
/// serial prologue; the per-router fold fans out.
///
/// The prologue is also where dynamic membership lives. A router whose
/// batch produced nothing usable (no success, no salvaged partial) is a
/// **missed** router: its health is recorded — that's how staleness
/// accrues — but it is dropped from the cycle's work, so no phantom
/// empty snapshot is enriched, archived or pushed into its statistics
/// series. A router missed [`EnrichStage::retire_after`] cycles in a row
/// is retired and its archive sealed; the first usable batch afterwards
/// rejoins it, reopening the archive at the next interner epoch.
pub struct EnrichStage<'a> {
    /// The shared interning store.
    pub store: &'a mut TableStore,
    /// Per-router state, indexed by interned router id.
    pub state: &'a mut Vec<RouterState>,
    /// Session names learned from an external directory (SAP/sdr).
    pub session_names: &'a BTreeMap<GroupAddr, String>,
    /// Delta log configuration for freshly seen routers.
    pub log_full_every: usize,
    /// Archive backend selection for freshly seen routers.
    pub archive: &'a ArchiveSpec,
    /// Consecutive missed cycles after which a router is retired and its
    /// archive sealed.
    pub retire_after: u64,
    /// Whether to fan the per-router bodies across the thread pool.
    pub parallel: bool,
}

impl Stage for EnrichStage<'_> {
    type Input = ParsedCycle;
    type Output = EnrichedCycle;

    fn kind(&self) -> StageKind {
        StageKind::Enrich
    }

    fn run(&mut self, parsed: ParsedCycle) -> EnrichedCycle {
        let at = parsed.at;
        // Serial prologue: the router interner and the state vector are
        // shared across routers, so ids and fresh state slots are
        // assigned in configuration order before any fan-out.
        let mut work: Vec<(u32, Tables)> = Vec::with_capacity(parsed.routers.len());
        for pr in parsed.routers {
            let ParsedRouter {
                router,
                tables,
                stats,
                ..
            } = pr;
            let id = self.store.routers.intern_str(&router);
            if id as usize == self.state.len() {
                self.state
                    .push(RouterState::new(router, self.log_full_every, self.archive));
            }
            let st = &mut self.state[id as usize];
            let missed = stats.successes + stats.salvaged == 0;
            st.health.record(&stats, at);
            if missed {
                if !st.health.retired && st.health.missed_cycles >= self.retire_after.max(1) {
                    st.health.retired = true;
                    st.log.seal();
                }
                // Nothing usable came back: record the miss in health
                // (above) but keep the router out of this cycle's work —
                // an absent router must not produce phantom snapshots,
                // archive records or zero statistics samples.
                continue;
            }
            if st.health.retired {
                st.health.retired = false;
                st.health.rejoins += 1;
                let sealed = std::mem::take(&mut st.log);
                st.log = self
                    .archive
                    .rejoin_log(&st.name, self.log_full_every, sealed);
            }
            work.push((id, tables));
        }
        let names = self.session_names;
        let routers = run_sharded(
            self.parallel,
            self.state,
            &mut work,
            |w| w.0,
            |st, (id, tables)| {
                enrich_router(st, tables, names);
                EnrichedRouter {
                    id: *id,
                    tables: std::mem::take(tables),
                }
            },
        );
        EnrichedCycle { at, routers }
    }

    fn items(&self, out: &EnrichedCycle) -> u64 {
        out.routers.len() as u64
    }
}

/// The post-append tail of one router's Log body: growth curve,
/// long-term trackers and the persistence-degradation health flag.
fn finish_log(st: &mut RouterState, at: SimTime, tables: &Tables) {
    // Chart what's actually on disk (frame + header bytes), not the
    // logger's JSON accounting — for v2 archives the two diverge, and
    // the growth curve should reflect real storage cost. Memory
    // backends report the same number either way.
    st.archive_growth.push((at, st.log.archive_stats().bytes));
    st.longterm.observe(tables);
    // Surface silent archive degradation (memory fallback, failed
    // appends, shed records, unreadable replays) where operators look:
    // the health registry.
    let stats = st.log.archive_stats();
    st.health.archive_degraded = st.log.fell_back
        || st.log.write_errors > 0
        || stats.write_errors > 0
        || stats.dropped_records > 0
        || st.log.replay_errors() > 0;
}

/// Archival: appends each snapshot to its router's delta log (before any
/// analysis, so archives store exactly what was observed) and feeds the
/// long-term trackers. The computed delta rides along on the output for
/// the Analyse stage to fold.
pub struct LogStage<'a> {
    /// The shared interning store (serial-path delta diffing runs
    /// through it).
    pub store: &'a mut TableStore,
    /// Per-router state, indexed by interned router id.
    pub state: &'a mut Vec<RouterState>,
    /// Whether to fan the per-router bodies across the thread pool.
    pub parallel: bool,
}

impl Stage for LogStage<'_> {
    type Input = EnrichedCycle;
    type Output = LoggedCycle;

    fn kind(&self) -> StageKind {
        StageKind::Log
    }

    fn run(&mut self, cycle: EnrichedCycle) -> LoggedCycle {
        let at = cycle.at;
        let mut work = cycle.routers;
        let fan_out =
            self.parallel && ids_are_distinct(self.state.len(), work.iter().map(|er| er.id));
        let routers: Vec<LoggedRouter> = if fan_out {
            let refs = state_refs(self.state, work.iter().map(|er| er.id));
            let mut items: Vec<(&mut RouterState, &mut EnrichedRouter)> =
                refs.into_iter().zip(work.iter_mut()).collect();
            rayon::parallel_map_mut(&mut items, |item| {
                let (st, er) = (&mut *item.0, &mut *item.1);
                // Each log diffs through its own scratch interner here:
                // the shared store is a serial resource, and deltas are
                // store-independent (property-tested), so the archived
                // bytes are identical to the serial path's.
                let delta = st.log.append(&er.tables);
                finish_log(st, at, &er.tables);
                LoggedRouter {
                    id: er.id,
                    tables: std::mem::take(&mut er.tables),
                    delta,
                }
            })
        } else {
            work.into_iter()
                .map(|er| {
                    let st = &mut self.state[er.id as usize];
                    let delta = st.log.append_with(self.store, &er.tables);
                    finish_log(st, at, &er.tables);
                    LoggedRouter {
                        id: er.id,
                        tables: er.tables,
                        delta,
                    }
                })
                .collect()
        };
        LoggedCycle { at, routers }
    }

    fn items(&self, out: &LoggedCycle) -> u64 {
        out.routers.len() as u64
    }
}

/// One router's analysis body: advance the streaming accumulators (fold
/// the logged delta, or reseed from the full snapshot on first sight),
/// assemble this cycle's statistics and run the single-router anomaly
/// detectors. Touches only this router's state, so the stage fans bodies
/// out per router.
fn analyse_router(
    st: &mut RouterState,
    lr: &LoggedRouter,
    now: SimTime,
    threshold: BitRate,
    injection_min_new: usize,
) -> (String, UsageStats, RouteStats, Vec<Anomaly>) {
    // O(delta) path: fold the delta the Log stage already computed. A
    // router's first cycle (or a delta-less append, e.g. an archive
    // reopened from disk) reseeds from the full snapshot — the O(table)
    // fallback, after which folding resumes.
    let changes = match (&lr.delta, st.stream.is_seeded()) {
        (Some(d), true) => Some(st.stream.fold(d)),
        _ => {
            st.stream.reseed(&lr.tables, threshold);
            None
        }
    };
    let usage = st.stream.usage();
    let routes = st.stream.route_stats();
    let mut anomalies = Vec::new();
    if let Some(kind) = st.detector.observe(routes.dvmrp_reachable as f64) {
        anomalies.push(Anomaly {
            at: now,
            router: st.name.clone(),
            peer: None,
            kind,
        });
    }
    if let Some(prev) = &st.prev {
        let (churn, injection) = match &changes {
            Some(c) => (c.churn, c.injection(injection_min_new)),
            None => (
                RouteChurn::between(prev, &lr.tables),
                detect_injection(prev, &lr.tables, injection_min_new),
            ),
        };
        st.churn.push((now, churn));
        if let Some(kind) = injection {
            anomalies.push(Anomaly {
                at: now,
                router: st.name.clone(),
                peer: None,
                kind,
            });
        }
    }
    st.usage.push(usage.clone());
    st.routes.push(routes.clone());
    (st.name.clone(), usage, routes, anomalies)
}

/// Analysis: per-router statistics and anomaly detectors (fanned out per
/// router), then cross-router consistency checks as a serial barrier
/// after the join, producing the cycle report. Consumes the snapshots
/// into each router's `prev` slot.
pub struct AnalyseStage<'a> {
    /// Per-router state, indexed by interned router id.
    pub state: &'a mut Vec<RouterState>,
    /// Sender classification threshold.
    pub threshold: BitRate,
    /// Route-injection detector: minimum new routes in one cycle.
    pub injection_min_new: usize,
    /// Cross-router consistency monitor.
    pub inconsistency: &'a mut InconsistencyMonitor,
    /// Whether to run the cross-router consistency sweep. A fleet shard
    /// disables it — the fleet tier sweeps globally so cross-shard pairs
    /// are not missed (and within-shard pairs not double-reported).
    pub cross_router: bool,
    /// Whether to fan the per-router bodies across the thread pool.
    pub parallel: bool,
}

impl Stage for AnalyseStage<'_> {
    type Input = LoggedCycle;
    type Output = CycleReport;

    fn kind(&self) -> StageKind {
        StageKind::Analyse
    }

    fn run(&mut self, cycle: LoggedCycle) -> CycleReport {
        let now = cycle.at;
        let threshold = self.threshold;
        let injection_min_new = self.injection_min_new;
        let mut work = cycle.routers;
        let per = run_sharded(
            self.parallel,
            self.state,
            &mut work,
            |lr| lr.id,
            |st, lr| analyse_router(st, lr, now, threshold, injection_min_new),
        );
        let mut report = CycleReport {
            at: now,
            per_router: Vec::with_capacity(per.len()),
            anomalies: Vec::new(),
        };
        for (name, usage, routes, anomalies) in per {
            report.anomalies.extend(anomalies);
            report.per_router.push((name, usage, routes));
        }
        // Cross-router consistency — a serial barrier after the join,
        // since the sweep needs every snapshot at once. The group-by-key
        // join compares each pair of *distinct* reachable-set views once
        // (property-tested identical to the O(n²) pairwise reference).
        // Both routers are named: the anomaly attributes to the first and
        // records the second as the peer, instead of blaming whichever
        // router happened to come first in configuration order without
        // saying who it diverged from.
        if self.cross_router {
            let views: Vec<&Tables> = work.iter().map(|lr| &lr.tables).collect();
            report
                .anomalies
                .extend(self.inconsistency.sweep(&views, now));
        }
        // The snapshots become next cycle's baselines — moved, not cloned.
        for lr in work {
            self.state[lr.id as usize].prev = Some(lr.tables);
        }
        report
    }

    fn items(&self, out: &CycleReport) -> u64 {
        out.per_router.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_kinds_are_dense_and_ordered() {
        for (i, kind) in StageKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
            assert!(!kind.as_str().is_empty());
        }
    }

    #[test]
    fn metrics_run_accounts_every_channel() {
        struct Doubler;
        impl Stage for Doubler {
            type Input = u64;
            type Output = u64;
            fn kind(&self) -> StageKind {
                StageKind::Parse
            }
            fn run(&mut self, input: u64) -> u64 {
                input * 2
            }
            fn items(&self, out: &u64) -> u64 {
                *out
            }
            fn sim_latency(&self, _out: &u64) -> SimDuration {
                SimDuration::secs(3)
            }
        }
        let mut metrics = PipelineMetrics::default();
        assert_eq!(metrics.run(&mut Doubler, 5), 10);
        assert_eq!(metrics.run(&mut Doubler, 1), 2);
        let m = metrics.stage(StageKind::Parse);
        assert_eq!(m.invocations, 2);
        assert_eq!(m.items, 12);
        assert!(m.wall_nanos >= 2, "at least one nano per invocation");
        assert_eq!(m.sim_latency, SimDuration::secs(6));
        assert_eq!(*metrics.stage(StageKind::Capture), StageMetrics::default());
        // The table renders one row per stage.
        assert_eq!(metrics.table().rows.len(), StageKind::ALL.len());
    }

    #[test]
    fn parse_router_stamps_empty_snapshots() {
        let at = SimTime::from_ymd(1999, 2, 1);
        let (tables, stats) = parse_router("ghost", &[], at);
        assert_eq!(tables.router, "ghost");
        assert_eq!(tables.captured_at, at);
        assert_eq!(stats, ParseStats::default());
    }
}
