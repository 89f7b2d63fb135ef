//! The monitoring pipeline: Figure 1's Capture ─► Parse ─► Enrich ─►
//! Log ─► Analyse.
//!
//! The engine ([`crate::monitor`]) runs the five stages fused: one task
//! per router (`router_cycle`, over that router's [`RouterState`]), one
//! order-preserving `fan_out` of the tasks per cycle, its width and its
//! workers' life chosen from the rows the previous cycle parsed
//! (`ROWS_PER_WORKER`). The cycle count and the per-stage items, time
//! and simulated-time latency accumulate in [`PipelineMetrics`]. The typed
//! [`Stage`]s compose the same per-router functions one stage at a time
//! (`RawCycle` → `ParsedCycle` → `EnrichedCycle` → `LoggedCycle` →
//! `CycleReport`), for callers that time each stage on its own.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock};
use std::thread::Scope;
use std::time::Instant;

use mantra_net::{BitRate, GroupAddr, Ip, SimDuration, SimTime};

use crate::aggregate::ParallelAccess;
use crate::anomaly::{Anomaly, InconsistencyMonitor, SpikeDetector};
use crate::archive::{ArchiveSpec, CacheStats};
use crate::collector::{Capture, CollectStats, Collector};
use crate::logger::{TableDelta, TableLog};
use crate::longterm::LongTermTracker;
use crate::monitor::{CycleReport, MonitorConfig, RouterHealth};
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

    /// Runs the stage.
    fn run(&mut self, input: Self::Input) -> Self::Output;
}

/// Accumulated accounting for one stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageMetrics {
    /// Items handled across all runs: captured tables for Capture, parse
    /// records for Parse, router snapshots downstream.
    pub items: u64,
    /// Time spent, in nanoseconds: each router's time in the stage,
    /// summed over the cycle's routers whichever worker ran them — wall
    /// time when the cycle runs at width 1. Always at least one per
    /// cycle, so "this stage ran" is visible even below timer
    /// resolution.
    pub wall_nanos: u64,
    /// Simulated-time latency accumulated (retry backoff, for Capture).
    pub sim_latency: SimDuration,
}

/// The per-stage metrics registry: the cycle count, which every stage
/// shares (each runs once per cycle), and one [`StageMetrics`] per
/// [`StageKind`]. Archive and query-cache counters are not copied in:
/// they are read where they live, from each router's
/// [`TableLog`] and from the engine's
/// [`QueryCache`](crate::archive::QueryCache).
#[derive(Clone, Debug, Default)]
pub struct PipelineMetrics {
    cycles: u64,
    stages: [StageMetrics; 5],
}

impl PipelineMetrics {
    /// Accounts one cycle: one run of every stage, with its items and
    /// nanoseconds indexed by [`StageKind`], and the retry backoff
    /// Capture added in simulated time.
    pub(crate) fn record_cycle(&mut self, items: [u64; 5], nanos: [u64; 5], backoff: SimDuration) {
        self.cycles += 1;
        for (kind, m) in StageKind::ALL.into_iter().zip(&mut self.stages) {
            m.items += items[kind as usize];
            m.wall_nanos += nanos[kind as usize].max(1);
        }
        self.stages[StageKind::Capture as usize].sim_latency += backoff;
    }

    /// Cycles accounted, which is how many times each stage ran.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The accumulated metrics of one stage.
    pub fn stage(&self, kind: StageKind) -> &StageMetrics {
        &self.stages[kind as usize]
    }

    /// Does nothing: archive totals are read from the routers' logs when
    /// a table or page renders. Kept while the benchmark (`perfbench/`)
    /// calls it.
    pub fn record_archives<'a>(&mut self, _state: impl IntoIterator<Item = &'a RouterState>) {}

    /// Does nothing: the query-cache counters are read from the cache
    /// itself. Kept while the benchmark (`perfbench/`) calls it.
    pub fn record_cache(&mut self, _stats: CacheStats) {}

    /// The per-stage summary table; its `invocations` column is the
    /// cycle count.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Pipeline stages",
            vec!["stage", "invocations", "items", "wall_ms", "sim_latency_s"],
        );
        for kind in StageKind::ALL {
            let m = self.stage(kind);
            table.push_row(vec![
                Cell::Text(kind.as_str().into()),
                Cell::Num(self.cycles as f64),
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
    /// Always false; nothing in the engine reads it. It stays while the
    /// benchmark (`perfbench/`) reads it.
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
}

/// Exclusive references to the states `ids` name, in the order of
/// `ids`. `None` when an id repeats (a router listed twice in one cycle would alias
/// its state, so such a cycle runs its routers one after another
/// instead) or is out of range.
pub(crate) fn state_refs(
    state: &mut [RouterState],
    ids: impl IntoIterator<Item = u32>,
) -> Option<Vec<&mut RouterState>> {
    let mut free: Vec<Option<&mut RouterState>> = state.iter_mut().map(Some).collect();
    ids.into_iter()
        .map(|id| free.get_mut(id as usize)?.take())
        .collect()
}

/// The router's id in `store`, opening fresh state (and its archive)
/// the first time the router is seen.
pub(crate) fn router_slot(
    store: &mut TableStore,
    state: &mut Vec<RouterState>,
    router: &str,
    log_full_every: usize,
    archive: &ArchiveSpec,
) -> u32 {
    let id = store.routers.intern_str(router);
    if id as usize == state.len() {
        state.push(RouterState::new(router.into(), log_full_every, archive));
    }
    id
}

// ----------------------------------------------------------------------
// The fan-out
// ----------------------------------------------------------------------

/// Parsed rows per worker thread: a cycle runs one thread per
/// `ROWS_PER_WORKER` rows at once, and a spawned worker hands over to a
/// fresh thread after about this many rows. On a shared 2-vCPU VM a
/// spawn costs about 0.2 ms of CPU (the two-router paper week's cycles
/// took 6.0 ms of CPU with ten spawns each, 4.1 ms with none) and a row
/// about 1.5–1.8 µs through the five stages, so a spawn stays under ~2%
/// of the 15–18 ms its 10k rows take.
pub(crate) const ROWS_PER_WORKER: u64 = 10_000;

/// The fan-out width for `routers` routers whose previous cycle parsed
/// `prev_rows` rows: one thread per [`ROWS_PER_WORKER`] rows, capped by
/// the routers and the cores, at least 1 (so a first cycle runs inline).
pub(crate) fn cycle_width(prev_rows: u64, routers: usize) -> usize {
    width_for(prev_rows, routers, cores)
}

/// [`cycle_width`] with the core count injected; `cores` is asked only
/// when the rows and routers already call for a second thread.
fn width_for(prev_rows: u64, routers: usize, cores: impl FnOnce() -> usize) -> usize {
    let by_rows = usize::try_from(prev_rows / ROWS_PER_WORKER).unwrap_or(usize::MAX);
    match by_rows.min(routers) {
        0 | 1 => 1,
        wanted => wanted.min(cores()),
    }
}

/// Routers a spawned worker runs before handing over to a fresh thread:
/// [`ROWS_PER_WORKER`] rows' worth at the previous cycle's rows per
/// router, at least one. glibc's malloc gives each new thread an arena
/// in turn, and a router's state stays in the arena of the thread that
/// last ran it: a worker kept for a whole cycle strands its routers' old
/// state in another arena every cycle, and a caller that runs tasks too
/// fills its own arena with router state. Short-lived workers, with the
/// caller waiting, keep memory and the caller's own allocations as fast
/// as with no fan-out at all (DESIGN.md §11 has the measurements).
pub(crate) fn worker_life(prev_rows: u64, routers: usize) -> usize {
    let rows_per_router = (prev_rows / routers.max(1) as u64).max(1);
    let life = ROWS_PER_WORKER.div_ceil(rows_per_router);
    usize::try_from(life).unwrap_or(usize::MAX).max(1)
}

/// The cores this process may use, read once: `available_parallelism`
/// follows CPU affinity but reads cgroup files on every call (≈20 µs).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Runs `task` once on every item, results in item order. At width 1
/// (or one item) the tasks run inline on the caller. Otherwise one
/// thread scope runs `width` workers (the width clamped to the items)
/// while the caller waits; they claim items one at a time from a shared
/// cursor, and a worker that has run `life` items hands over to a fresh
/// thread. A panicking task panics the caller.
pub(crate) fn fan_out<T, R, F>(width: usize, life: usize, items: &mut [T], task: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let n = items.len();
    let width = width.min(n);
    if width <= 1 {
        return items.iter_mut().map(task).collect();
    }
    let cursor = Mutex::new(items.iter_mut().enumerate());
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    // Runs up to `limit` items and returns how many it ran. The locks
    // cover only claims and stores, so a panicking task poisons neither.
    let claim = |limit: usize| {
        let mut ran = 0;
        while ran < limit {
            let claimed = cursor.lock().expect("claims never panic").next();
            let Some((i, item)) = claimed else {
                break;
            };
            let r = task(item);
            slots.lock().expect("stores never panic")[i] = Some(r);
            ran += 1;
        }
        ran
    };
    let life = life.max(1);
    std::thread::scope(|scope| {
        for _ in 0..width {
            scope.spawn(move || relay(scope, claim, life));
        }
    });
    slots
        .into_inner()
        .expect("stores never panic")
        .into_iter()
        .map(|r| r.expect("every item is claimed exactly once"))
        .collect()
}

/// One worker's life in [`fan_out`]: up to `life` items, then a fresh
/// thread if items may remain.
fn relay<'scope, 'env, C>(scope: &'scope Scope<'scope, 'env>, claim: C, life: usize)
where
    C: Fn(usize) -> usize + Copy + Send + 'scope,
{
    if claim(life) == life {
        scope.spawn(move || relay(scope, claim, life));
    }
}

// ----------------------------------------------------------------------
// One router's cycle
// ----------------------------------------------------------------------

/// The read-only inputs every router task of a cycle shares.
pub(crate) struct RouterInputs<'a, P: ?Sized> {
    pub collector: &'a Collector,
    pub access: &'a P,
    pub now: SimTime,
    pub cfg: &'a MonitorConfig,
    pub session_names: &'a BTreeMap<GroupAddr, String>,
}

/// One router's report entry: name, statistics and its own anomalies.
pub(crate) type Analysed = (String, UsageStats, RouteStats, Vec<Anomaly>);

/// What one router's cycle hands the engine's fold.
pub(crate) struct RouterOutcome {
    pub stats: CollectStats,
    pub parse: ParseStats,
    /// `None` for a missed router.
    pub analysed: Option<Analysed>,
    /// Nanoseconds spent per stage, indexed by [`StageKind`].
    pub nanos: [u64; 5],
}

/// One router's whole cycle — Capture → Parse → admit → Enrich → Log →
/// Analyse — over that router's state alone, so any thread can run it.
/// The raw text, the delta and the previous snapshot are freed as soon
/// as the router is done.
pub(crate) fn router_cycle<P: ParallelAccess + ?Sized>(
    inputs: &RouterInputs<'_, P>,
    router: &str,
    st: &mut RouterState,
) -> RouterOutcome {
    let (now, cfg) = (inputs.now, inputs.cfg);
    let mut nanos = [0u64; 5];
    let mut lap = Instant::now();
    let mut split = |kind: StageKind| {
        let t = Instant::now();
        nanos[kind as usize] = t.duration_since(lap).as_nanos() as u64;
        lap = t;
    };
    let (captures, stats) = inputs.collector.collect_with(inputs.access, router, now);
    split(StageKind::Capture);
    let (mut tables, parse) = parse_router(router, &captures, now);
    drop(captures);
    split(StageKind::Parse);
    let archive = &cfg.archive;
    let admitted = admit(
        st,
        &stats,
        now,
        archive,
        cfg.log_full_every,
        cfg.retire_after_intervals,
    );
    let analysed = if admitted {
        enrich_router(st, &mut tables, inputs.session_names);
        split(StageKind::Enrich);
        let delta = log_router(st, now, &tables);
        split(StageKind::Log);
        let (threshold, min_new) = (cfg.threshold, cfg.injection_min_new);
        let analysed = analyse_router(st, tables, delta.as_ref(), now, threshold, min_new);
        split(StageKind::Analyse);
        Some(analysed)
    } else {
        split(StageKind::Enrich);
        None
    };
    RouterOutcome {
        stats,
        parse,
        analysed,
        nanos,
    }
}

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

/// Admission: records the batch in the router's health registry and
/// walks its lifecycle; returns whether the batch goes on to Enrich. A
/// batch with nothing usable (no success, no salvage) is a **missed**
/// cycle: health accrues staleness, but no phantom empty snapshot is
/// enriched, archived or pushed into the statistics. `retire_after`
/// missed cycles in a row retire the router and seal its archive; the
/// next usable batch rejoins it at the next interner epoch.
fn admit(
    st: &mut RouterState,
    stats: &CollectStats,
    at: SimTime,
    archive: &ArchiveSpec,
    log_full_every: usize,
    retire_after: u64,
) -> bool {
    st.health.record(stats, at);
    if stats.successes + stats.salvaged == 0 {
        if !st.health.retired && st.health.missed_cycles >= retire_after.max(1) {
            st.health.retired = true;
            st.log.seal();
        }
        return false;
    }
    if st.health.retired {
        st.health.retired = false;
        st.health.rejoins += 1;
        let sealed = std::mem::take(&mut st.log);
        st.log = archive.rejoin_log(&st.name, log_full_every, sealed);
    }
    true
}

/// One router's enrichment: folds per-pair running bandwidth averages
/// into the router's state and overlays externally learned session
/// names.
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

/// One router's archival: appends the snapshot to the router's delta log
/// (before any analysis, so archives store exactly what was observed),
/// then records the growth curve and feeds the long-term trackers.
/// Returns the log's delta.
fn log_router(st: &mut RouterState, at: SimTime, tables: &Tables) -> Option<TableDelta> {
    let delta = st.log.append(tables);
    // Chart what's actually on disk (frame + header bytes), not the
    // logger's JSON accounting — for v2 archives the two diverge, and
    // the growth curve should reflect real storage cost. Memory
    // backends report the same number either way.
    st.archive_growth.push((at, st.log.archive_stats().bytes));
    st.longterm.observe(tables);
    delta
}

/// One router's analysis: advance the streaming accumulators (fold the
/// logged delta, or reseed from the full snapshot on first sight),
/// assemble this cycle's statistics and run the single-router anomaly
/// detectors; route churn and the injection check come from the fold.
/// The snapshot then becomes the router's `prev`.
fn analyse_router(
    st: &mut RouterState,
    tables: Tables,
    delta: Option<&TableDelta>,
    now: SimTime,
    threshold: BitRate,
    injection_min_new: usize,
) -> Analysed {
    // O(delta) path: fold the delta the Log stage already computed. The
    // log returns one whenever it holds a previous snapshot, so only a
    // router's first cycle reseeds from the full snapshot — the O(table)
    // fallback, after which folding resumes.
    let changes = match (delta, st.stream.is_seeded()) {
        (Some(d), true) => Some(st.stream.fold(d)),
        _ => {
            st.stream.reseed(&tables, threshold);
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
    if let Some(changes) = &changes {
        st.churn.push((now, changes.churn));
        if let Some(kind) = changes.injection(injection_min_new) {
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
    st.prev = Some(tables);
    (st.name.clone(), usage, routes, anomalies)
}

/// Cross-router consistency over the snapshots `states` took this cycle
/// (now their `prev`; a missed router's is older and sits out), in that
/// order — a serial barrier after the per-router work, since the sweep
/// needs every snapshot at once. Each pair of distinct reachable-set
/// views is compared once.
pub(crate) fn sweep_cycle<'a>(
    inconsistency: &mut InconsistencyMonitor,
    states: impl Iterator<Item = &'a RouterState>,
    now: SimTime,
) -> Vec<Anomaly> {
    let views: Vec<&Tables> = states
        .filter_map(|st| st.prev.as_ref())
        .filter(|t| t.captured_at == now)
        .collect();
    inconsistency.sweep(&views, now)
}

// ----------------------------------------------------------------------
// Stages
// ----------------------------------------------------------------------

/// A stage's fan-out width: every core when `parallel` is set.
fn stage_width(parallel: bool) -> usize {
    if parallel {
        cores()
    } else {
        1
    }
}

/// Runs `body` once per work item against that item's router state,
/// fanned out at `width`, results in item order; items whose ids repeat
/// (see [`state_refs`]) run one after another instead.
fn run_per_router<W, R>(
    width: usize,
    state: &mut [RouterState],
    work: &mut [W],
    id_of: impl Fn(&W) -> u32,
    body: impl Fn(&mut RouterState, &mut W) -> R + Sync,
) -> Vec<R>
where
    W: Send,
    R: Send,
{
    match state_refs(state, work.iter().map(&id_of)) {
        Some(refs) => {
            let mut items: Vec<(&mut RouterState, &mut W)> =
                refs.into_iter().zip(work.iter_mut()).collect();
            fan_out(width, usize::MAX, &mut items, |(st, w)| body(st, w))
        }
        None => work
            .iter_mut()
            .map(|w| body(&mut state[id_of(w) as usize], w))
            .collect(),
    }
}

/// Capture fanned out over every core, one router per work item — the
/// paper's planned "collect data from multiple routers concurrently".
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

    fn run(&mut self, now: SimTime) -> RawCycle {
        let (collector, access) = (self.collector, self.access);
        let mut routers: Vec<&String> = self.routers.iter().collect();
        let routers = fan_out(cores(), usize::MAX, &mut routers, |router| {
            let (captures, stats) = collector.collect_with(access, router.as_str(), now);
            let router = (*router).clone();
            RouterCapture {
                router,
                captures,
                stats,
            }
        });
        RawCycle { at: now, routers }
    }
}

/// Text to table snapshots, per router.
pub struct ParseStage {
    /// Whether to fan routers out over every core.
    pub parallel: bool,
}

impl Stage for ParseStage {
    type Input = RawCycle;
    type Output = ParsedCycle;

    fn run(&mut self, mut raw: RawCycle) -> ParsedCycle {
        let at = raw.at;
        let width = stage_width(self.parallel);
        let routers = fan_out(width, usize::MAX, &mut raw.routers, |rc| {
            let (tables, parse) = parse_router(&rc.router, &rc.captures, at);
            let router = std::mem::take(&mut rc.router);
            ParsedRouter {
                router,
                tables,
                parse,
                stats: rc.stats,
            }
        });
        ParsedCycle { at, routers }
    }
}

/// Stateful enrichment: interns each router, admits its batch (health
/// and lifecycle), folds per-pair running bandwidth averages and
/// overlays externally learned session names. Interning, state creation
/// and admission are a short serial prologue; the per-router fold fans
/// out.
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
    /// Whether to fan the per-router bodies out over every core.
    pub parallel: bool,
}

impl Stage for EnrichStage<'_> {
    type Input = ParsedCycle;
    type Output = EnrichedCycle;

    fn run(&mut self, parsed: ParsedCycle) -> EnrichedCycle {
        let at = parsed.at;
        let (full_every, archive) = (self.log_full_every, self.archive);
        // Serial prologue: the router interner and the state vector are
        // shared across routers, so ids, fresh state slots and admission
        // run in configuration order before any fan-out.
        let mut work: Vec<(u32, Tables)> = Vec::with_capacity(parsed.routers.len());
        for pr in parsed.routers {
            let id = router_slot(self.store, self.state, &pr.router, full_every, archive);
            let st = &mut self.state[id as usize];
            if admit(st, &pr.stats, at, archive, full_every, self.retire_after) {
                work.push((id, pr.tables));
            }
        }
        let names = self.session_names;
        let routers = run_per_router(
            stage_width(self.parallel),
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
}

/// Archival: appends each snapshot to its router's delta log (before any
/// analysis, so archives store exactly what was observed) and feeds the
/// long-term trackers. The computed delta rides along on the output for
/// the Analyse stage to fold.
pub struct LogStage<'a> {
    /// Not read: a log diffs its snapshots without shared state.
    pub store: &'a mut TableStore,
    /// Per-router state, indexed by interned router id.
    pub state: &'a mut Vec<RouterState>,
    /// Whether to fan the per-router bodies out over every core.
    pub parallel: bool,
}

impl Stage for LogStage<'_> {
    type Input = EnrichedCycle;
    type Output = LoggedCycle;

    fn run(&mut self, cycle: EnrichedCycle) -> LoggedCycle {
        let at = cycle.at;
        let mut work = cycle.routers;
        let routers = run_per_router(
            stage_width(self.parallel),
            self.state,
            &mut work,
            |er| er.id,
            |st, er| LoggedRouter {
                id: er.id,
                delta: log_router(st, at, &er.tables),
                tables: std::mem::take(&mut er.tables),
            },
        );
        LoggedCycle { at, routers }
    }
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
    /// Whether to run the cross-router consistency sweep.
    pub cross_router: bool,
    /// Whether to fan the per-router bodies out over every core.
    pub parallel: bool,
}

impl Stage for AnalyseStage<'_> {
    type Input = LoggedCycle;
    type Output = CycleReport;

    fn run(&mut self, cycle: LoggedCycle) -> CycleReport {
        let now = cycle.at;
        let (threshold, min_new) = (self.threshold, self.injection_min_new);
        let mut work = cycle.routers;
        let per = run_per_router(
            stage_width(self.parallel),
            self.state,
            &mut work,
            |lr| lr.id,
            |st, lr| {
                let tables = std::mem::take(&mut lr.tables);
                analyse_router(st, tables, lr.delta.as_ref(), now, threshold, min_new)
            },
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
        if self.cross_router {
            let states = work.iter().map(|lr| &self.state[lr.id as usize]);
            let swept = sweep_cycle(self.inconsistency, states, now);
            report.anomalies.extend(swept);
        }
        report
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
    fn metrics_record_cycle_accounts_every_channel() {
        let mut metrics = PipelineMetrics::default();
        metrics.record_cycle([3, 40, 2, 2, 2], [5, 0, 7, 8, 9], SimDuration::secs(3));
        metrics.record_cycle([1, 10, 1, 1, 1], [5, 6, 7, 8, 9], SimDuration::secs(3));
        assert_eq!(metrics.cycles(), 2);
        let capture = metrics.stage(StageKind::Capture);
        assert_eq!(capture.items, 4);
        assert_eq!(capture.wall_nanos, 10);
        assert_eq!(capture.sim_latency, SimDuration::secs(6));
        let parse = metrics.stage(StageKind::Parse);
        assert_eq!(parse.items, 50);
        assert_eq!(parse.wall_nanos, 1 + 6, "at least one nano per cycle");
        assert_eq!(parse.sim_latency, SimDuration::ZERO);
        // The table renders one row per stage, each with the cycle count
        // as its invocations.
        let table = metrics.table();
        assert_eq!(table.rows.len(), StageKind::ALL.len());
        assert!(table.rows.iter().all(|row| row[1] == Cell::Num(2.0)));
    }

    #[test]
    fn fan_out_visits_every_item_once_in_item_order() {
        for (width, life) in [(1, usize::MAX), (2, usize::MAX), (3, 1), (8, 7)] {
            let mut items: Vec<u64> = (0..100).collect();
            let doubled = fan_out(width, life, &mut items, |x| {
                *x += 1;
                *x * 2
            });
            assert_eq!(items, (1..=100).collect::<Vec<_>>(), "width {width}");
            assert_eq!(
                doubled,
                (1..=100).map(|x| x * 2).collect::<Vec<_>>(),
                "width {width}"
            );
        }
    }

    #[test]
    fn fan_out_clamps_its_width_to_the_item_count() {
        // Unclamped, this width would start threads without end.
        let mut items = vec![1u64, 2, 3];
        assert_eq!(fan_out(usize::MAX, 1, &mut items, |x| *x), vec![1, 2, 3]);
        assert_eq!(fan_out(0, 1, &mut items, |x| *x), vec![1, 2, 3]);
        assert!(fan_out(4, 1, &mut Vec::<u64>::new(), |x| *x).is_empty());
    }

    #[test]
    fn fan_out_at_width_one_runs_on_the_callers_thread() {
        let me = std::thread::current().id();
        let mut items: Vec<u32> = (0..8).collect();
        let threads = fan_out(1, 1, &mut items, |_| std::thread::current().id());
        assert!(threads.iter().all(|t| *t == me));
    }

    #[test]
    fn fan_out_runs_its_width_on_workers_at_once() {
        // Each task waits for another, so two run at once, on two
        // workers while the caller waits.
        let barrier = std::sync::Barrier::new(2);
        let mut items = [0u8; 2];
        let threads = fan_out(2, usize::MAX, &mut items, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(threads[0], threads[1]);
        assert!(!threads.contains(&std::thread::current().id()));
    }

    #[test]
    fn a_worker_hands_over_to_a_fresh_thread_after_its_life() {
        // Each task waits for another. A one-item worker starts its
        // successor only once its item is done, so every item runs on a
        // thread of its own.
        let barrier = std::sync::Barrier::new(2);
        let me = std::thread::current().id();
        let mut items: Vec<u32> = (0..8).collect();
        let out = fan_out(2, 1, &mut items, |x| {
            barrier.wait();
            (*x, std::thread::current().id())
        });
        assert_eq!(out.iter().map(|o| o.0).collect::<Vec<_>>(), items);
        let workers: std::collections::HashSet<_> = out.iter().map(|o| o.1).collect();
        assert_eq!(workers.len(), 8);
        assert!(!workers.contains(&me));
    }

    #[test]
    #[should_panic]
    fn a_panicking_task_panics_the_caller() {
        let mut items: Vec<u32> = (0..16).collect();
        fan_out(4, 2, &mut items, |x| {
            assert_ne!(*x, 5, "task failed on item 5");
            *x
        });
    }

    #[test]
    fn width_rule_edges() {
        let unasked = || -> usize { panic!("cores asked although one worker suffices") };
        // A first cycle has no rows to size by.
        assert_eq!(width_for(0, 200, unasked), 1);
        // One thread per ROWS_PER_WORKER rows, rounded down.
        assert_eq!(width_for(ROWS_PER_WORKER - 1, 200, unasked), 1);
        assert_eq!(width_for(ROWS_PER_WORKER + 1, 200, unasked), 1);
        assert_eq!(width_for(2 * ROWS_PER_WORKER - 1, 200, unasked), 1);
        assert_eq!(width_for(2 * ROWS_PER_WORKER, 200, || 8), 2);
        assert_eq!(width_for(3 * ROWS_PER_WORKER + 1, 200, || 8), 3);
        // Capped by the routers in the cycle...
        assert_eq!(width_for(100 * ROWS_PER_WORKER, 3, || 8), 3);
        assert_eq!(width_for(100 * ROWS_PER_WORKER, 1, unasked), 1);
        // ...and by the cores.
        assert_eq!(width_for(100 * ROWS_PER_WORKER, 200, || 2), 2);
        assert_eq!(width_for(100 * ROWS_PER_WORKER, 200, || 1), 1);
        assert_eq!(width_for(u64::MAX, usize::MAX, || 4), 4);
    }

    #[test]
    fn worker_life_edges() {
        // About ROWS_PER_WORKER rows' worth of routers, at least one.
        assert_eq!(worker_life(2 * ROWS_PER_WORKER, 2), 1);
        assert_eq!(worker_life(2 * ROWS_PER_WORKER, 4), 2);
        assert_eq!(worker_life(751_000, 201), 3);
        assert_eq!(worker_life(u64::MAX, 1), 1);
        // Rows too few to size by give a life no cycle outlasts.
        assert_eq!(worker_life(0, 2), ROWS_PER_WORKER as usize);
        assert_eq!(worker_life(0, 0), ROWS_PER_WORKER as usize);
    }

    #[test]
    fn state_refs_hand_out_each_state_once_in_id_order() {
        let state = |name: &str| RouterState::new(name.into(), 1, &ArchiveSpec::Memory);
        let mut states = vec![state("r0"), state("r1"), state("r2")];
        let refs = state_refs(&mut states, [2, 0, 1]).expect("distinct ids");
        let names: Vec<&str> = refs.iter().map(|st| st.name.as_str()).collect();
        assert_eq!(names, ["r2", "r0", "r1"]);
        // A repeated id (a router listed twice) or one out of range hands
        // out nothing.
        assert!(state_refs(&mut states, [1, 1]).is_none());
        assert!(state_refs(&mut states, [3]).is_none());
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
