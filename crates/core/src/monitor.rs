//! The monitoring orchestrator: Figure 1's pipeline, end to end.
//!
//! One [`Monitor`] owns the collector, the router interner, the
//! per-router state (delta logs, statistics histories, anomaly
//! detectors) and the per-stage metrics registry. [`Monitor::run_cycle`]
//! runs one cycle of [`crate::pipeline`]'s per-router tasks, and a
//! [`FleetMonitor`](crate::fleet::FleetMonitor) runs the same cycle over
//! all of its shards at once.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mantra_net::{BitRate, GroupAddr, SimDuration, SimTime};

use crate::aggregate::ParallelAccess;
use crate::anomaly::{Anomaly, InconsistencyMonitor};
use crate::archive::{ArchiveSpec, QueryCache};
use crate::collector::{CollectStats, Collector, RetryPolicy};
use crate::logger::TableLog;
use crate::longterm::LongTermTracker;
use crate::output::{Cell, Graph, Table};
use crate::pipeline::{
    cycle_width, fan_out, ids_are_distinct, router_cycle, router_slot, state_refs, sweep_cycle,
    worker_life, PipelineMetrics, RouterInputs, RouterOutcome, RouterState, StageKind,
};
use crate::processor::ParseStats;
use crate::stats::{RouteChurn, RouteStats, Series, UsageStats};
use crate::store::TableStore;
use crate::tables::Tables;

/// Monitor configuration.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Routers to poll each cycle (names resolvable by the access layer).
    pub routers: Vec<String>,
    /// Collection interval (the paper used minutes-scale cycles).
    pub interval: SimDuration,
    /// Sender classification threshold (the paper's 4 kbps).
    pub threshold: BitRate,
    /// Delta log: full snapshot every this many records.
    pub log_full_every: usize,
    /// Where per-router archives live (in memory, or on disk).
    pub archive: ArchiveSpec,
    /// Route-injection detector: minimum new routes in one cycle.
    pub injection_min_new: usize,
    /// Retry policy for transient capture failures.
    pub retry: RetryPolicy,
    /// A router is flagged stale after this many intervals without a
    /// successful capture.
    pub stale_after_intervals: u64,
    /// A router is retired — its archive sealed, its health shown as
    /// `retired` instead of serving the last status forever — after this
    /// many *consecutive* missed cycles. A later successful capture
    /// (rejoin) unseals the archive at the next epoch.
    pub retire_after_intervals: u64,
    /// Whether the Analyse stage runs the cross-router consistency sweep.
    /// A fleet shard turns this off: [`crate::fleet::FleetMonitor`] sweeps
    /// globally so cross-shard pairs are not missed.
    pub cross_router_checks: bool,
    /// Above this many rows, the per-router health and archive tables
    /// condense to the worst offenders plus a totals footer instead of
    /// printing one row per router (fleet-scale readability).
    pub table_detail_limit: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: SimDuration::mins(15),
            threshold: mantra_net::rate::SENDER_THRESHOLD,
            log_full_every: 96, // one full snapshot per day at 15-min cycles
            archive: ArchiveSpec::Memory,
            injection_min_new: 200,
            retry: RetryPolicy::default(),
            stale_after_intervals: 4,
            retire_after_intervals: 8,
            cross_router_checks: true,
            table_detail_limit: 64,
        }
    }
}

/// Per-router collection health, accumulated across cycles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterHealth {
    /// Tables captured in full.
    pub successes: u64,
    /// Tables whose final attempt failed (even if salvaged).
    pub failures: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Tables recovered by a retry.
    pub retry_successes: u64,
    /// Truncated tables salvaged from partials.
    pub salvaged: u64,
    /// Raw bytes captured.
    pub raw_bytes: u64,
    /// Cycles this router participated in.
    pub cycles: u64,
    /// Last cycle with at least one full capture.
    pub last_success: Option<SimTime>,
    /// Last cycle attempted.
    pub last_attempt: Option<SimTime>,
    /// Backoff latency added by retries in the latest cycle.
    pub last_latency: SimDuration,
    /// Whether this router's archive has degraded persistence: the log
    /// fell back to an in-memory backend (e.g. unwritable archive dir)
    /// or has recorded write errors.
    pub archive_degraded: bool,
    /// Consecutive cycles with no usable capture (reset on any success or
    /// salvage). This is what drives the explicit lifecycle below.
    pub missed_cycles: u64,
    /// Whether the router is currently retired: missed cycles crossed
    /// [`MonitorConfig::retire_after_intervals`] and the archive was
    /// sealed. Cleared on rejoin.
    pub retired: bool,
    /// How many times this router has rejoined after a retirement.
    pub rejoins: u64,
}

/// Explicit per-router lifecycle, judged from consecutive missed cycles —
/// the registry never serves the last OK status forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleState {
    /// Captures are arriving.
    Active,
    /// `missed_cycles` consecutive cycles produced nothing usable.
    Stale {
        /// How many cycles in a row have been missed.
        missed_cycles: u64,
    },
    /// Missed cycles crossed the retirement threshold; the archive is
    /// sealed until the router rejoins.
    Retired,
}

impl LifecycleState {
    /// Table/JSON label: `active`, `stale(3)`, `retired`.
    pub fn label(&self) -> String {
        match self {
            LifecycleState::Active => "active".into(),
            LifecycleState::Stale { missed_cycles } => format!("stale({missed_cycles})"),
            LifecycleState::Retired => "retired".into(),
        }
    }
}

impl RouterHealth {
    pub(crate) fn record(&mut self, stats: &CollectStats, now: SimTime) {
        self.successes += stats.successes;
        self.failures += stats.failures;
        self.retries += stats.retries;
        self.retry_successes += stats.retry_successes;
        self.salvaged += stats.salvaged;
        self.raw_bytes += stats.raw_bytes;
        self.cycles += 1;
        self.last_attempt = Some(now);
        if stats.successes > 0 {
            self.last_success = Some(now);
        }
        if stats.successes + stats.salvaged > 0 {
            self.missed_cycles = 0;
        } else {
            self.missed_cycles += 1;
        }
        self.last_latency = stats.backoff;
    }

    /// Whether the router has gone `stale_after` collection intervals (of
    /// length `interval`) without a successful capture, judged at `now`.
    pub fn is_stale(&self, now: SimTime, interval: SimDuration, stale_after: u64) -> bool {
        match self.last_success {
            Some(t) => now.since(t) > interval * stale_after,
            None => self.cycles >= stale_after,
        }
    }

    /// The explicit lifecycle state under a `stale_after` missed-cycle
    /// threshold. Retirement is a recorded transition (the archive gets
    /// sealed when it happens), so it wins over the derived staleness.
    pub fn lifecycle(&self, stale_after: u64) -> LifecycleState {
        if self.retired {
            LifecycleState::Retired
        } else if self.missed_cycles >= stale_after.max(1) {
            LifecycleState::Stale {
                missed_cycles: self.missed_cycles,
            }
        } else {
            LifecycleState::Active
        }
    }
}

/// What one cycle produced.
#[derive(Clone, Debug, PartialEq)]
pub struct CycleReport {
    /// Cycle timestamp.
    pub at: SimTime,
    /// Per-router `(usage, routes)` statistics, in configuration order.
    pub per_router: Vec<(String, UsageStats, RouteStats)>,
    /// Anomalies raised this cycle.
    pub anomalies: Vec<Anomaly>,
}

/// The Mantra orchestrator: a thin driver over the staged pipeline.
pub struct Monitor {
    /// Configuration.
    pub cfg: MonitorConfig,
    collector: Collector,
    /// Router interner: router names become dense ids here.
    store: TableStore,
    /// Per-router state, indexed by interned router id.
    state: Vec<RouterState>,
    /// Session names learned from an external directory (SAP/sdr); the
    /// paper's Session table carries "the group's name (if available)".
    session_names: BTreeMap<GroupAddr, String>,
    inconsistency: InconsistencyMonitor,
    /// All anomalies raised so far.
    pub anomalies: Vec<Anomaly>,
    /// Cumulative parse accounting.
    pub parse_totals: ParseStats,
    /// Parse accounting of the latest cycle only, for degradation checks.
    pub parse_last: ParseStats,
    metrics: PipelineMetrics,
    /// LRU over archive replay query results, shared with any concurrent
    /// readers (the daemon serves `/replay` through this same cache so
    /// its hit/miss counters land in [`Monitor::health`]).
    query_cache: Arc<QueryCache>,
    cycles: u64,
}

/// A cycle whose malformed lines exceed this percentage of its row-like
/// lines (parsed + malformed) is flagged as degraded parsing — typically a
/// CLI format drift or a router spewing garbage mid-dump.
pub const DEGRADED_PARSE_PCT: f64 = 5.0;

impl Monitor {
    /// A monitor with the given configuration.
    pub fn new(cfg: MonitorConfig) -> Self {
        let collector = Collector::with_retry(cfg.retry.clone());
        Monitor {
            cfg,
            collector,
            store: TableStore::default(),
            state: Vec::new(),
            session_names: BTreeMap::new(),
            inconsistency: InconsistencyMonitor::default(),
            anomalies: Vec::new(),
            parse_totals: ParseStats::default(),
            parse_last: ParseStats::default(),
            metrics: PipelineMetrics::default(),
            query_cache: Arc::new(QueryCache::default()),
            cycles: 0,
        }
    }

    /// Cycles completed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The collector's capture failure count.
    pub fn capture_failures(&self) -> u64 {
        self.collector.failures
    }

    /// The state of one router, if it has participated in a cycle (and
    /// was not rebalanced away to another shard).
    fn state_of(&self, router: &str) -> Option<&RouterState> {
        self.store
            .routers
            .get(&router.to_string())
            .map(|id| &self.state[id as usize])
            .filter(|st| !st.evicted)
    }

    /// Removes a router's state for a fleet rebalance, leaving an
    /// evicted tombstone in its interned slot (ids never renumber). The
    /// state carries its open archive with it. `None` when the router
    /// has no state here (never polled, or already evicted).
    pub(crate) fn evict_router(&mut self, router: &str) -> Option<RouterState> {
        let id = self.store.routers.get(&router.to_string())?;
        let st = &mut self.state[id as usize];
        if st.evicted {
            return None;
        }
        Some(std::mem::replace(
            st,
            RouterState::tombstone(router.to_string()),
        ))
    }

    /// Installs a router's state moved in by a fleet rebalance, replacing
    /// the tombstone if this shard held the router before. Per-router
    /// state is store-independent (deltas are address-keyed, the archive
    /// travels as an open log), so adoption is a slot write — no replay.
    pub(crate) fn adopt_router(&mut self, st: RouterState) {
        let id = self.store.routers.intern_str(&st.name);
        if id as usize == self.state.len() {
            self.state.push(st);
        } else {
            self.state[id as usize] = st;
        }
    }

    /// Replaces the polling list (a fleet rebalance recomputes each
    /// shard's list so global configuration order is preserved).
    pub(crate) fn set_routers(&mut self, routers: Vec<String>) {
        self.cfg.routers = routers;
    }

    /// One full monitoring cycle at `now` over the configured routers,
    /// fanned out as the previous cycle's rows call for (see
    /// [`crate::pipeline`]); outputs never depend on the fan-out.
    pub fn run_cycle<P: ParallelAccess + ?Sized>(
        &mut self,
        access: &P,
        now: SimTime,
    ) -> CycleReport {
        let (rows, routers) = (self.parse_last.parsed as u64, self.cfg.routers.len());
        let (width, life) = (cycle_width(rows, routers), worker_life(rows, routers));
        let shards = std::slice::from_mut(self);
        let mut reports = run_cycle_over(shards, access, now, width, life);
        reports.pop().expect("one report per shard")
    }

    /// Folds one cycle's router outcomes, in configuration order, into
    /// the totals, the stage metrics (the prologue counts as Enrich) and
    /// the report, ending with the cross-router sweep if this monitor runs it.
    fn fold(
        &mut self,
        now: SimTime,
        ids: &[u32],
        outcomes: impl Iterator<Item = RouterOutcome>,
        prologue_nanos: u64,
    ) -> CycleReport {
        self.cycles += 1;
        let mut nanos = [0; 5];
        nanos[StageKind::Enrich as usize] = prologue_nanos;
        self.parse_last = ParseStats::default();
        let (mut tables, mut backoff) = (0, SimDuration::ZERO);
        let mut report = CycleReport {
            at: now,
            per_router: Vec::with_capacity(ids.len()),
            anomalies: Vec::new(),
        };
        for o in outcomes {
            self.collector.successes += o.stats.successes;
            self.collector.failures += o.stats.failures;
            tables += o.stats.successes + o.stats.failures;
            backoff += o.stats.backoff;
            self.parse_totals.merge(o.parse);
            self.parse_last.merge(o.parse);
            for (total, n) in nanos.iter_mut().zip(o.nanos) {
                *total += n;
            }
            if let Some((name, usage, routes, anomalies)) = o.analysed {
                report.anomalies.extend(anomalies);
                report.per_router.push((name, usage, routes));
            }
        }
        if self.cfg.cross_router_checks {
            let t = Instant::now();
            let ids = ids.iter().copied();
            let swept = sweep_cycle(&mut self.inconsistency, &self.state, ids, now);
            report.anomalies.extend(swept);
            nanos[StageKind::Analyse as usize] += t.elapsed().as_nanos() as u64;
        }
        let p = self.parse_last;
        let rows = (p.parsed + p.malformed + p.skipped + p.rejected_mixed) as u64;
        let snapshots = report.per_router.len() as u64;
        self.metrics.record_cycle(
            [tables, rows, snapshots, snapshots, snapshots],
            nanos,
            backoff,
        );
        self.metrics.record_archives(&self.state);
        self.metrics.record_cache(self.query_cache.stats());
        self.anomalies.extend(report.anomalies.iter().cloned());
        report
    }

    // ------------------------------------------------------------------
    // Result access
    // ------------------------------------------------------------------

    /// The archive replay query cache. Concurrent readers (the daemon)
    /// share this handle so their hits and misses show up in
    /// [`Monitor::health`] and the HTML report.
    pub fn query_cache(&self) -> Arc<QueryCache> {
        Arc::clone(&self.query_cache)
    }

    /// Where `router`'s on-disk archive lives, if the configured
    /// [`ArchiveSpec`] writes to disk at all.
    pub fn archive_path(&self, router: &str) -> Option<PathBuf> {
        match &self.cfg.archive {
            ArchiveSpec::Memory => None,
            ArchiveSpec::File { dir, .. } | ArchiveSpec::Threaded { dir, .. } => {
                Some(ArchiveSpec::path_for(dir, router))
            }
        }
    }

    /// Collection health of one router.
    pub fn router_health(&self, router: &str) -> Option<&RouterHealth> {
        self.state_of(router).map(|s| &s.health)
    }

    /// The per-router collection-health summary, judged at `now`: capture
    /// counts, retry effectiveness, salvage counts, volume, the retry
    /// latency of the latest cycle, last success and staleness.
    pub fn health(&self, now: SimTime) -> Table {
        let mut table = Table::new(
            "Collection health",
            vec![
                "router",
                "ok",
                "failed",
                "retries",
                "recovered",
                "salvaged",
                "kbytes",
                "latency_s",
                "last_success",
                "stale",
                "state",
                "archive",
            ],
        );
        for router in &self.cfg.routers {
            let Some(h) = self.router_health(router) else {
                continue;
            };
            let stale = h.is_stale(now, self.cfg.interval, self.cfg.stale_after_intervals);
            table.push_row(vec![
                Cell::Text(router.clone()),
                Cell::Num(h.successes as f64),
                Cell::Num(h.failures as f64),
                Cell::Num(h.retries as f64),
                Cell::Num(h.retry_successes as f64),
                Cell::Num(h.salvaged as f64),
                Cell::Num(h.raw_bytes as f64 / 1024.0),
                Cell::Num(h.last_latency.as_secs() as f64),
                Cell::Text(
                    h.last_success
                        .map(|t| t.iso8601())
                        .unwrap_or_else(|| "never".into()),
                ),
                Cell::Text(if stale { "STALE" } else { "ok" }.into()),
                Cell::Text(h.lifecycle(self.cfg.stale_after_intervals).label()),
                Cell::Text(if h.archive_degraded { "degraded" } else { "ok" }.into()),
            ]);
        }
        condense_router_table(&mut table, self.cfg.table_detail_limit);
        table
    }

    /// The explicit lifecycle state of one router (`None` before its first
    /// cycle).
    pub fn lifecycle_of(&self, router: &str) -> Option<LifecycleState> {
        self.router_health(router)
            .map(|h| h.lifecycle(self.cfg.stale_after_intervals))
    }

    /// Whether the latest cycle's parsing is degraded: malformed lines
    /// exceeded [`DEGRADED_PARSE_PCT`] of its row-like lines.
    pub fn parse_degraded(&self) -> bool {
        parse_degraded(&self.parse_last)
    }

    /// The per-table-kind parse accounting summary over all cycles so far.
    pub fn parse_table(&self) -> Table {
        parse_accounting_table(&self.parse_totals, "Parse accounting")
    }

    /// The pipeline's per-stage metrics registry.
    pub fn pipeline(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// The per-stage pipeline summary table: invocations, items handled,
    /// wall-clock time and accumulated simulated latency per stage.
    pub fn stage_table(&self) -> Table {
        self.metrics.table()
    }

    /// The per-router archive summary: backend, record/checkpoint counts,
    /// stored volume, delta savings and durability accounting.
    pub fn archive_table(&self) -> Table {
        let mut table = Table::new(
            "Archives",
            vec![
                "router",
                "backend",
                "v",
                "epoch",
                "dict",
                "records",
                "checkpoints",
                "kbytes",
                "savings_pct",
                "fsyncs",
                "pending",
                "queue",
                "q_peak",
                "blk_ms",
                "dropped",
                "errors",
                "lifecycle",
                "persistence",
            ],
        );
        for router in &self.cfg.routers {
            let Some(st) = self.state_of(router) else {
                continue;
            };
            let stats = st.log.archive_stats();
            let info = st.log.describe();
            let errors = st.log.write_errors.max(stats.write_errors) + st.log.replay_errors();
            let degraded =
                st.log.fell_back || stats.dropped_records > 0 || st.log.replay_errors() > 0;
            table.push_row(vec![
                Cell::Text(router.clone()),
                Cell::Text(st.log.backend_kind().into()),
                Cell::Num(info.format_version as f64),
                Cell::Num(info.epoch as f64),
                Cell::Num(info.dict_entries as f64),
                Cell::Num(stats.records as f64),
                Cell::Num(stats.checkpoints as f64),
                Cell::Num(stats.bytes as f64 / 1024.0),
                Cell::Num(100.0 * st.log.savings_ratio()),
                Cell::Num(stats.fsyncs as f64),
                Cell::Num(stats.pending_appends as f64),
                Cell::Num(stats.queue_depth as f64),
                Cell::Num(stats.queue_high_water as f64),
                Cell::Num(stats.blocked_nanos as f64 / 1e6),
                Cell::Num(stats.dropped_records as f64),
                Cell::Num(errors as f64),
                Cell::Text(if st.log.is_sealed() { "sealed" } else { "live" }.into()),
                Cell::Text(if degraded { "degraded" } else { "ok" }.into()),
            ]);
        }
        condense_router_table(&mut table, self.cfg.table_detail_limit);
        table
    }

    /// Archive growth of one router: `(cycle time, stored bytes)` after
    /// every cycle.
    pub fn archive_growth(&self, router: &str) -> &[(SimTime, u64)] {
        self.state_of(router)
            .map(|s| s.archive_growth.as_slice())
            .unwrap_or(&[])
    }

    /// This monitor's partial sum of every router's streaming integer
    /// accumulators — the shard-level contribution the fleet's
    /// aggregation tier composes by exact integer summation.
    pub fn stream_totals(&self) -> crate::stats_stream::StatsTotals {
        let mut acc = crate::stats_stream::StatsTotals::default();
        for st in &self.state {
            if st.evicted {
                continue;
            }
            acc.absorb(&st.stream.totals());
        }
        acc
    }

    /// Summed route churn across this monitor's routers for the cycle at
    /// `at` (routers without a churn entry for that cycle — e.g. their
    /// first — contribute nothing).
    pub fn cycle_churn(&self, at: SimTime) -> RouteChurn {
        let mut acc = RouteChurn::default();
        for st in &self.state {
            if st.evicted {
                continue;
            }
            if let Some((t, churn)) = st.churn.last() {
                if *t == at {
                    acc.absorb(churn);
                }
            }
        }
        acc
    }

    /// Usage-statistic history of one router.
    pub fn usage_history(&self, router: &str) -> &[UsageStats] {
        self.state_of(router)
            .map(|s| s.usage.as_slice())
            .unwrap_or(&[])
    }

    /// Route-statistic history of one router.
    pub fn route_history(&self, router: &str) -> &[RouteStats] {
        self.state_of(router)
            .map(|s| s.routes.as_slice())
            .unwrap_or(&[])
    }

    /// Route-churn history of one router.
    pub fn churn_history(&self, router: &str) -> &[(SimTime, RouteChurn)] {
        self.state_of(router)
            .map(|s| s.churn.as_slice())
            .unwrap_or(&[])
    }

    /// The delta log of one router.
    pub fn log(&self, router: &str) -> Option<&TableLog> {
        self.state_of(router).map(|s| &s.log)
    }

    /// The long-term trend tracker of one router.
    pub fn longterm(&self, router: &str) -> Option<&LongTermTracker> {
        self.state_of(router).map(|s| &s.longterm)
    }

    /// Feeds session names from an external directory (e.g. a SAP
    /// listener). Later cycles annotate matching sessions.
    pub fn learn_session_names(&mut self, names: impl IntoIterator<Item = (GroupAddr, String)>) {
        for (g, n) in names {
            self.session_names.insert(g, n);
        }
    }

    /// The latest snapshot of one router.
    pub fn latest(&self, router: &str) -> Option<&Tables> {
        self.state_of(router).and_then(|s| s.prev.as_ref())
    }

    /// Extracts a usage time series (`f` picks the metric).
    pub fn usage_series(&self, router: &str, name: &str, f: impl Fn(&UsageStats) -> f64) -> Series {
        let mut s = Series::new(name);
        for u in self.usage_history(router) {
            s.push(u.at, f(u));
        }
        s
    }

    /// Extracts a route time series.
    pub fn route_series(&self, router: &str, name: &str, f: impl Fn(&RouteStats) -> f64) -> Series {
        let mut s = Series::new(name);
        for r in self.route_history(router) {
            s.push(r.at, f(r));
        }
        s
    }

    /// The paper's four Figure 3 series for one router, as one overlay
    /// graph: sessions, participants, active sessions, senders.
    pub fn usage_graph(&self, router: &str) -> Graph {
        let mut g = Graph::new(format!("Usage at {router}"));
        g.overlay(self.usage_series(router, "sessions", |u| u.sessions as f64));
        g.overlay(self.usage_series(router, "participants", |u| u.participants as f64));
        g.overlay(self.usage_series(router, "active-sessions", |u| u.active_sessions as f64));
        g.overlay(self.usage_series(router, "senders", |u| u.senders as f64));
        g
    }

    /// The busiest-sessions summary table (top `n` by bandwidth) — one of
    /// the paper's example summary tables.
    pub fn busiest_sessions(&self, router: &str, n: usize) -> Table {
        let mut table = Table::new(
            format!("Busiest sessions at {router}"),
            vec!["group", "name", "density", "bandwidth_kbps", "first_seen"],
        );
        if let Some(t) = self.latest(router) {
            for s in t.sessions.values() {
                table.push_row(vec![
                    Cell::Text(s.group.to_string()),
                    Cell::Text(s.name.clone().unwrap_or_default()),
                    Cell::Num(f64::from(s.density)),
                    Cell::Num(s.bandwidth.kbps()),
                    Cell::Time(s.first_seen),
                ]);
            }
        }
        table.sort_by("bandwidth_kbps", false);
        table.truncate(n);
        table
    }

    /// Top senders by current bandwidth.
    pub fn top_senders(&self, router: &str, n: usize) -> Table {
        let mut table = Table::new(
            format!("Top senders at {router}"),
            vec!["source", "group", "current_kbps", "avg_kbps"],
        );
        if let Some(t) = self.latest(router) {
            for p in t.pairs.values() {
                if p.current_bw.is_sender(self.cfg.threshold) {
                    table.push_row(vec![
                        Cell::Text(p.source.to_string()),
                        Cell::Text(p.group.to_string()),
                        Cell::Num(p.current_bw.kbps()),
                        Cell::Num(p.avg_bw.kbps()),
                    ]);
                }
            }
        }
        table.sort_by("current_kbps", false);
        table.truncate(n);
        table
    }
}

/// One cycle at `now` over every router of every shard in `shards`,
/// one report per shard: a serial prologue interns the routers and opens
/// state for new ones, one [`fan_out`] (at `width`, workers living `life`
/// routers) runs each router's whole cycle over that router's state, and
/// each shard folds its outcomes in configuration order.
pub(crate) fn run_cycle_over<P: ParallelAccess + ?Sized>(
    shards: &mut [Monitor],
    access: &P,
    now: SimTime,
    width: usize,
    life: usize,
) -> Vec<CycleReport> {
    let mut prologue = Vec::with_capacity(shards.len());
    for m in shards.iter_mut() {
        let t = Instant::now();
        let (cfg, store, state) = (&m.cfg, &mut m.store, &mut m.state);
        let mut ids = Vec::with_capacity(cfg.routers.len());
        for r in &cfg.routers {
            ids.push(router_slot(
                store,
                state,
                r,
                cfg.log_full_every,
                &cfg.archive,
            ));
        }
        prologue.push((ids, t.elapsed().as_nanos() as u64));
    }
    let distinct = shards
        .iter()
        .zip(&prologue)
        .all(|(m, (ids, _))| ids_are_distinct(m.state.len(), ids.iter().copied()));
    let mut outcomes = {
        let mut inputs = Vec::with_capacity(shards.len());
        let mut states = Vec::with_capacity(shards.len());
        for m in shards.iter_mut() {
            inputs.push(RouterInputs {
                collector: &m.collector,
                access,
                now,
                cfg: &m.cfg,
                session_names: &m.session_names,
            });
            states.push(&mut m.state);
        }
        let mut items = Vec::new();
        let mut outcomes = Vec::new();
        for ((input, state), (ids, _)) in inputs.iter().zip(states).zip(&prologue) {
            let routers = input.cfg.routers.iter();
            if distinct {
                for (router, st) in routers.zip(state_refs(state, ids.iter().copied())) {
                    items.push((input, router, st));
                }
            } else {
                // A router listed twice would alias its state: run every
                // router in turn instead.
                for (router, &id) in routers.zip(ids) {
                    outcomes.push(router_cycle(input, router, &mut state[id as usize]));
                }
            }
        }
        outcomes.extend(fan_out(width, life, &mut items, |(input, router, st)| {
            router_cycle(input, router, st)
        }));
        outcomes
    }
    .into_iter();
    shards
        .iter_mut()
        .zip(prologue)
        .map(|(m, (ids, nanos))| m.fold(now, &ids, outcomes.by_ref().take(ids.len()), nanos))
        .collect()
}

/// Condenses a per-router health or archive table (the fleet's stitched
/// ones included) past `limit` rows to its worst rows, with a footer of
/// fleet totals summed from every row's own cells — the one place either
/// footer is built. Tables at or under the limit are left as they are.
pub(crate) fn condense_router_table(table: &mut Table, limit: usize) {
    let n = table.rows.len();
    if n <= limit {
        return;
    }
    let sum = |col: &str| -> f64 {
        table
            .column_index(col)
            .map(|i| table.rows.iter().filter_map(|r| r[i].as_num()).sum::<f64>())
            .unwrap_or(0.0)
    };
    let count_text = |col: &str, needle: &str| -> usize {
        table
            .column_index(col)
            .map(|i| {
                table
                    .rows
                    .iter()
                    .filter(|r| matches!(&r[i], Cell::Text(s) if s == needle))
                    .count()
            })
            .unwrap_or(0)
    };
    let (rank_by, summary) = if table.column_index("stale").is_some() {
        let summary = format!(
            "{limit} of {n} routers shown (worst by failures); fleet totals: \
             ok {}, failed {}, retries {}, {} stale, {} retired, \
             {} degraded archives",
            sum("ok") as u64,
            sum("failed") as u64,
            sum("retries") as u64,
            count_text("stale", "STALE"),
            count_text("state", "retired"),
            count_text("archive", "degraded"),
        );
        ("failed", summary)
    } else {
        let summary = format!(
            "{limit} of {n} archives shown (worst by errors); fleet totals: \
             {} records, {:.0} kbytes, {} fsyncs, {} dropped, {} errors, \
             {} sealed, {} degraded",
            sum("records") as u64,
            sum("kbytes"),
            sum("fsyncs") as u64,
            sum("dropped") as u64,
            sum("errors") as u64,
            count_text("lifecycle", "sealed"),
            count_text("persistence", "degraded"),
        );
        ("errors", summary)
    };
    table.condense(limit, rank_by, summary);
}

/// Whether a cycle's accounting crosses the [`DEGRADED_PARSE_PCT`]
/// malformed threshold.
pub fn parse_degraded(stats: &ParseStats) -> bool {
    let rows = stats.parsed + stats.malformed;
    rows > 0 && (stats.malformed as f64 / rows as f64) * 100.0 > DEGRADED_PARSE_PCT
}

/// Renders parse accounting as a per-table-kind summary: parsed, malformed
/// and skipped line counts plus the malformed percentage, with a totals
/// row. Shared by the single monitor, the fleet aggregation tier, the CLI
/// and the HTML report.
pub fn parse_accounting_table(stats: &ParseStats, title: impl Into<String>) -> Table {
    let mut table = Table::new(
        title,
        vec!["table", "parsed", "malformed", "skipped", "malformed_pct"],
    );
    let pct = |k: &crate::processor::KindStats| {
        let rows = k.parsed + k.malformed;
        if rows == 0 {
            0.0
        } else {
            (k.malformed as f64 / rows as f64) * 100.0
        }
    };
    for kind in mantra_router_cli::TableKind::ALL {
        let k = stats.kind(kind);
        table.push_row(vec![
            Cell::Text(kind.label().to_string()),
            Cell::Num(k.parsed as f64),
            Cell::Num(k.malformed as f64),
            Cell::Num(k.skipped as f64),
            Cell::Num(pct(&k)),
        ]);
    }
    let total = crate::processor::KindStats {
        parsed: stats.parsed,
        malformed: stats.malformed,
        skipped: stats.skipped,
    };
    table.push_row(vec![
        Cell::Text("(total)".to_string()),
        Cell::Num(total.parsed as f64),
        Cell::Num(total.malformed as f64),
        Cell::Num(total.skipped as f64),
        Cell::Num(pct(&total)),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::SyncPolicy;
    use crate::collector::FlakyAccess;
    use mantra_sim::Scenario;

    /// Drives a scenario and the monitor in lock-step.
    fn drive(sc: &mut mantra_sim::Scenario, monitor: &mut Monitor, cycles: usize) {
        for _ in 0..cycles {
            let next = sc.sim.clock + monitor.cfg.interval;
            sc.sim.advance_to(next);
            monitor.run_cycle(&sc.sim, next);
        }
    }

    #[test]
    fn full_pipeline_cycle() {
        let mut sc = Scenario::transition_snapshot(31, 0.3);
        let mut monitor = Monitor::new(MonitorConfig::default());
        drive(&mut sc, &mut monitor, 12);
        assert_eq!(monitor.cycles(), 12);
        let usage = monitor.usage_history("fixw");
        assert_eq!(usage.len(), 12);
        assert!(usage.last().unwrap().sessions > 0, "{:?}", usage.last());
        let routes = monitor.route_history("fixw");
        assert!(routes.last().unwrap().dvmrp_reachable > 10);
        // Logs recorded every cycle and reconstruct.
        let log = monitor.log("fixw").unwrap();
        assert_eq!(log.len(), 12);
        let replayed = log.replay();
        assert_eq!(replayed.len(), 12);
        assert_eq!(&replayed[11], monitor.latest("fixw").unwrap());
        // Delta logging saved space.
        assert!(
            log.savings_ratio() > 0.12,
            "saved {:.2}",
            log.savings_ratio()
        );
        // Every stage ran once per cycle and spent visible wall time.
        for kind in StageKind::ALL {
            let m = monitor.pipeline().stage(kind);
            assert_eq!(m.invocations, 12, "{kind:?}");
            assert!(m.wall_nanos > 0, "{kind:?}");
        }
        assert_eq!(monitor.stage_table().rows.len(), StageKind::ALL.len());
    }

    #[test]
    fn avg_bandwidth_converges() {
        let mut sc = Scenario::transition_snapshot(32, 0.0);
        let mut monitor = Monitor::new(MonitorConfig::default());
        drive(&mut sc, &mut monitor, 8);
        let t = monitor.latest("ucsb-gw").unwrap();
        // Some long-lived pair has both averages and currents.
        assert!(t
            .pairs
            .values()
            .any(|p| p.avg_bw.bps() > 0 && p.current_bw.bps() > 0));
    }

    #[test]
    fn series_and_tables_come_out() {
        let mut sc = Scenario::transition_snapshot(33, 0.2);
        let mut monitor = Monitor::new(MonitorConfig::default());
        drive(&mut sc, &mut monitor, 10);
        let s = monitor.usage_series("fixw", "sessions", |u| u.sessions as f64);
        assert_eq!(s.len(), 10);
        assert!(s.mean() > 0.0);
        let graph = monitor.usage_graph("fixw");
        assert_eq!(graph.series.len(), 4);
        let busiest = monitor.busiest_sessions("fixw", 5);
        assert!(busiest.rows.len() <= 5);
        assert!(!busiest.rows.is_empty());
        let senders = monitor.top_senders("fixw", 5);
        // Ordered descending by bandwidth.
        let vals: Vec<f64> = senders
            .rows
            .iter()
            .map(|r| r[2].as_num().unwrap())
            .collect();
        assert!(vals.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn cycle_outputs_do_not_depend_on_the_fan_out() {
        let run = |width: usize, life: usize| {
            let mut sc = Scenario::transition_snapshot(35, 0.3);
            let mut monitor = Monitor::new(MonitorConfig::default());
            let mut reports = Vec::new();
            for _ in 0..6 {
                let next = sc.sim.clock + monitor.cfg.interval;
                sc.sim.advance_to(next);
                let flaky = FlakyAccess::new(&sc.sim, 0.2, 0.2, 5);
                let shards = std::slice::from_mut(&mut monitor);
                reports.extend(run_cycle_over(shards, &flaky, next, width, life));
            }
            (reports, monitor)
        };
        let (inline_reports, inline) = run(1, usize::MAX);
        // Width 4 clamps to the two routers; a worker life of one router
        // hands every claim to a fresh thread.
        let (fanned_reports, fanned) = run(4, 1);
        assert_eq!(inline_reports, fanned_reports);
        assert_eq!(inline.capture_failures(), fanned.capture_failures());
        for router in ["fixw", "ucsb-gw"] {
            assert_eq!(inline.latest(router), fanned.latest(router));
            assert_eq!(inline.router_health(router), fanned.router_health(router));
            // The archives replay to identical snapshot sequences.
            assert_eq!(
                inline.log(router).unwrap().replay(),
                fanned.log(router).unwrap().replay()
            );
            assert_eq!(inline.usage_history(router), fanned.usage_history(router));
            assert_eq!(inline.churn_history(router), fanned.churn_history(router));
        }
        // Both widths account the same items per stage (time differs).
        for kind in StageKind::ALL {
            let s = inline.pipeline().stage(kind);
            let p = fanned.pipeline().stage(kind);
            assert_eq!(s.invocations, p.invocations, "{kind:?}");
            assert_eq!(s.items, p.items, "{kind:?}");
            assert_eq!(s.sim_latency, p.sim_latency, "{kind:?}");
        }
    }

    #[test]
    fn file_archives_thread_through_the_pipeline() {
        let dir = crate::testing::TempDir::new("monitor-archive");
        let mut sc = Scenario::transition_snapshot(31, 0.3);
        let mut monitor = Monitor::new(MonitorConfig {
            archive: ArchiveSpec::File {
                dir: dir.path().to_path_buf(),
                sync: SyncPolicy::default(),
            },
            ..MonitorConfig::default()
        });
        drive(&mut sc, &mut monitor, 6);
        // Same snapshots as an equivalent memory-archived run.
        let mut sc2 = Scenario::transition_snapshot(31, 0.3);
        let mut mem = Monitor::new(MonitorConfig::default());
        drive(&mut sc2, &mut mem, 6);
        assert_eq!(
            monitor.log("fixw").unwrap().replay(),
            mem.log("fixw").unwrap().replay()
        );
        // Growth recorded per cycle; totals aggregated under "file".
        assert_eq!(monitor.archive_growth("fixw").len(), 6);
        let archives = monitor.pipeline().archives();
        assert_eq!(archives.len(), 1);
        assert_eq!(archives[0].backend, "file");
        assert_eq!(archives[0].routers, 2);
        assert!(archives[0].fsyncs > 0);
        assert_eq!(archives[0].write_errors, 0);
        assert_eq!(monitor.archive_table().rows.len(), 2);
        // The on-disk archive outlives the monitor and replays equally.
        drop(monitor);
        let path = ArchiveSpec::path_for(dir.path(), "fixw");
        let log = TableLog::load(&path, 96).unwrap();
        assert_eq!(log.replay(), mem.log("fixw").unwrap().replay());
    }

    #[test]
    fn health_registry_tracks_success_and_staleness() {
        let mut sc = Scenario::transition_snapshot(36, 0.2);
        let mut monitor = Monitor::new(MonitorConfig {
            routers: vec!["fixw".into(), "ghost".into()],
            ..MonitorConfig::default()
        });
        drive(&mut sc, &mut monitor, 6);
        let now = sc.sim.clock;
        let fixw = monitor.router_health("fixw").unwrap();
        assert_eq!(fixw.cycles, 6);
        assert!(fixw.successes > 0);
        assert_eq!(fixw.last_success, Some(now));
        assert!(!fixw.is_stale(now, monitor.cfg.interval, monitor.cfg.stale_after_intervals));
        // The ghost router never succeeds and goes stale.
        let ghost = monitor.router_health("ghost").unwrap();
        assert_eq!(ghost.successes, 0);
        assert_eq!(ghost.last_success, None);
        assert!(ghost.is_stale(now, monitor.cfg.interval, monitor.cfg.stale_after_intervals));
        // The health table renders both, in configuration order.
        let table = monitor.health(now);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0][0], Cell::Text("fixw".into()));
        let stale_col = table.columns.iter().position(|c| c == "stale").unwrap();
        assert_eq!(table.rows[0][stale_col], Cell::Text("ok".into()));
        assert_eq!(table.rows[1][stale_col], Cell::Text("STALE".into()));
    }

    #[test]
    fn unknown_router_yields_empty_but_counted_history() {
        let mut sc = Scenario::transition_snapshot(34, 0.0);
        let mut monitor = Monitor::new(MonitorConfig {
            routers: vec!["ghost".into()],
            ..MonitorConfig::default()
        });
        drive(&mut sc, &mut monitor, 3);
        // A router that never answers produces NO statistics samples —
        // absent cycles are gaps, not phantom all-zero entries — while
        // the failures are still counted in health.
        assert!(monitor.usage_history("ghost").is_empty());
        assert!(monitor.route_history("ghost").is_empty());
        assert!(monitor.latest("ghost").is_none());
        assert_eq!(monitor.capture_failures(), 15);
        let ghost = monitor.router_health("ghost").unwrap();
        assert_eq!(ghost.cycles, 3);
        assert_eq!(ghost.missed_cycles, 3);
    }

    /// Past the detail limit both engines condense the health and
    /// archive tables with the same footer, totalled over every row.
    #[test]
    fn condensed_footers_match_across_engines() {
        let cfg = MonitorConfig {
            routers: vec!["fixw".into(), "ghost".into()],
            stale_after_intervals: 2,
            retire_after_intervals: 4,
            table_detail_limit: 1,
            ..MonitorConfig::default()
        };
        let mut sc = Scenario::transition_snapshot(35, 0.0);
        let mut monitor = Monitor::new(cfg.clone());
        let mut fleet = crate::fleet::FleetMonitor::new(cfg, 2);
        for _ in 0..5 {
            let next = sc.sim.clock + monitor.cfg.interval;
            sc.sim.advance_to(next);
            monitor.run_cycle(&sc.sim, next);
            fleet.run_cycle(&sc.sim, next);
        }
        let now = sc.sim.clock;
        let health = monitor.health(now);
        assert_eq!(health.rows.len(), 1);
        assert_eq!(health.footer, fleet.health(now).footer);
        let footer = health.footer.expect("condensed");
        assert!(footer.starts_with("1 of 2 routers shown"), "{footer}");
        assert!(footer.contains("1 stale, 1 retired"), "{footer}");
        let archives = monitor.archive_table();
        assert_eq!(archives.rows.len(), 1);
        assert_eq!(archives.footer, fleet.archive_table().footer);
        let footer = archives.footer.expect("condensed");
        assert!(footer.contains("1 sealed"), "{footer}");
    }

    #[test]
    fn missed_cycles_drive_retirement_and_the_state_column() {
        let mut sc = Scenario::transition_snapshot(35, 0.0);
        let mut monitor = Monitor::new(MonitorConfig {
            routers: vec!["fixw".into(), "ghost".into()],
            stale_after_intervals: 2,
            retire_after_intervals: 4,
            ..MonitorConfig::default()
        });
        drive(&mut sc, &mut monitor, 3);
        assert_eq!(
            monitor.lifecycle_of("ghost"),
            Some(LifecycleState::Stale { missed_cycles: 3 })
        );
        drive(&mut sc, &mut monitor, 2);
        assert_eq!(monitor.lifecycle_of("ghost"), Some(LifecycleState::Retired));
        assert_eq!(monitor.lifecycle_of("fixw"), Some(LifecycleState::Active));
        // The health table shows the lifecycle, the archive table shows
        // the sealed log.
        let health = monitor.health(sc.sim.clock);
        let state_col = health.columns.iter().position(|c| c == "state").unwrap();
        assert_eq!(health.rows[0][state_col], Cell::Text("active".into()));
        assert_eq!(health.rows[1][state_col], Cell::Text("retired".into()));
        let archives = monitor.archive_table();
        let lc_col = archives
            .columns
            .iter()
            .position(|c| c == "lifecycle")
            .unwrap();
        assert_eq!(archives.rows[0][lc_col], Cell::Text("live".into()));
        assert_eq!(archives.rows[1][lc_col], Cell::Text("sealed".into()));
    }
}
