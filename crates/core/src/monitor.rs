//! The monitoring engine: Figure 1's pipeline, end to end.
//!
//! One [`Monitor`] watches the paper's two routers or a fleet of
//! hundreds alike. It owns, once each, the collector, the parse
//! accounting, the per-stage metrics registry, the archive query cache,
//! the session-name directory, the cross-router consistency monitor, the
//! anomaly list and the fleet-wide statistics histories, plus one router
//! interner and one state vector holding every router's state, archives
//! included.
//!
//! [`Monitor::run_cycle`] runs in four steps: a serial prologue interns
//! each router and opens state for new ones; one fan-out (see
//! [`crate::pipeline`]) runs every router's Capture → Parse → Enrich →
//! Log → Analyse over its own state; one fold builds the report in
//! configuration order and accounts the cycle; then the cross-router
//! sweep and the fleet-wide statistics, both over the routers admitted
//! this cycle (the report's routers). Those statistics are integer
//! partial sums ([`StatsTotals`]) divided once, so no fan-out width
//! changes any output.

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
    cycle_width, fan_out, router_cycle, router_slot, state_refs, sweep_cycle, worker_life,
    PipelineMetrics, RouterInputs, RouterOutcome, RouterState, StageKind,
};
use crate::processor::{KindStats, ParseStats};
use crate::stats::{ConsistencyReport, RouteChurn, RouteStats, Series, UsageStats};
use crate::stats_stream::StatsTotals;
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
    /// Whether each cycle ends with the cross-router consistency sweep.
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
    /// Backoff latency added by retries in the latest cycle.
    pub last_latency: SimDuration,
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

/// The Mantra engine: one collector, one metrics registry, one sweep,
/// over one state vector.
pub struct Monitor {
    /// Configuration; `routers` lists every monitored router, in
    /// configuration order.
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
    parse_totals: ParseStats,
    parse_last: ParseStats,
    metrics: PipelineMetrics,
    /// LRU over archive replay query results, shared with any concurrent
    /// readers (the daemon serves `/replay` through this same cache so
    /// its hit/miss counters land in [`Monitor::health`]).
    query_cache: Arc<QueryCache>,
    /// Fleet-wide statistics per cycle, summed over every router.
    usage: Vec<UsageStats>,
    routes: Vec<RouteStats>,
    churn: Vec<(SimTime, RouteChurn)>,
}

/// The engine under the name the benchmark (`perfbench/`) still uses.
pub type FleetMonitor = Monitor;

/// A cycle whose malformed lines exceed this percentage of its row-like
/// lines (parsed + malformed) is flagged as degraded parsing — typically a
/// CLI format drift or a router spewing garbage mid-dump.
pub const DEGRADED_PARSE_PCT: f64 = 5.0;

impl Monitor {
    /// An engine over `cfg.routers`. The second parameter is ignored:
    /// it stays for the benchmark (`perfbench/`), which still passes a
    /// shard count; everything else passes 1.
    pub fn new(cfg: MonitorConfig, _shards: usize) -> Self {
        Monitor {
            collector: Collector::with_retry(cfg.retry.clone()),
            cfg,
            store: TableStore::default(),
            state: Vec::new(),
            session_names: BTreeMap::new(),
            inconsistency: InconsistencyMonitor::default(),
            anomalies: Vec::new(),
            parse_totals: ParseStats::default(),
            parse_last: ParseStats::default(),
            metrics: PipelineMetrics::default(),
            query_cache: Arc::new(QueryCache::default()),
            usage: Vec::new(),
            routes: Vec::new(),
            churn: Vec::new(),
        }
    }

    /// The engine itself when it watches `router`, or `None` — the 404
    /// the daemon's query endpoints lean on.
    pub fn monitor_of(&self, router: &str) -> Option<&Monitor> {
        self.cfg.routers.iter().any(|r| r == router).then_some(self)
    }

    /// Cycles completed.
    pub fn cycles(&self) -> u64 {
        self.metrics.cycles()
    }

    /// Captures whose final attempt failed, summed over every router's
    /// health.
    pub fn capture_failures(&self) -> u64 {
        self.state.iter().map(|st| st.health.failures).sum()
    }

    /// The state of one router, once it has run a cycle.
    fn state_of(&self, router: &str) -> Option<&RouterState> {
        let id = self.store.routers.get(&router.to_string())?;
        Some(&self.state[id as usize])
    }

    /// Every configured router that has state, with that state, in
    /// configuration order.
    fn router_states(&self) -> impl Iterator<Item = (&String, &RouterState)> {
        (self.cfg.routers.iter()).filter_map(|r| Some((r, self.state_of(r)?)))
    }

    /// One full monitoring cycle at `now` over every configured router,
    /// fanned out as the previous cycle's rows call for (see
    /// [`crate::pipeline`]); outputs never depend on the fan-out.
    pub fn run_cycle<P: ParallelAccess + ?Sized>(
        &mut self,
        access: &P,
        now: SimTime,
    ) -> CycleReport {
        let (rows, routers) = (self.parse_last.parsed as u64, self.cfg.routers.len());
        let (width, life) = (cycle_width(rows, routers), worker_life(rows, routers));
        self.cycle(access, now, width, life)
    }

    /// [`Monitor::run_cycle`] at fan-out `width`, workers living `life`
    /// routers: the prologue interns each router and opens state for new
    /// ones, one [`fan_out`] runs each router's whole cycle over that
    /// router's state, and [`Monitor::fold`] takes the outcomes in
    /// configuration order.
    fn cycle<P: ParallelAccess + ?Sized>(
        &mut self,
        access: &P,
        now: SimTime,
        width: usize,
        life: usize,
    ) -> CycleReport {
        let t = Instant::now();
        let (cfg, store, state) = (&self.cfg, &mut self.store, &mut self.state);
        let ids: Vec<u32> = (cfg.routers.iter())
            .map(|router| router_slot(store, state, router, cfg.log_full_every, &cfg.archive))
            .collect();
        let prologue = t.elapsed().as_nanos() as u64;
        let inputs = RouterInputs {
            collector: &self.collector,
            access,
            now,
            cfg: &self.cfg,
            session_names: &self.session_names,
        };
        let outcomes = match state_refs(&mut self.state, ids.iter().copied()) {
            Some(states) => {
                let mut items: Vec<_> = self.cfg.routers.iter().zip(states).collect();
                fan_out(width, life, &mut items, |(router, st)| {
                    router_cycle(&inputs, router, st)
                })
            }
            // A router listed twice would alias its state: run every
            // router in turn instead.
            None => (self.cfg.routers.iter().zip(&ids))
                .map(|(router, &id)| router_cycle(&inputs, router, &mut self.state[id as usize]))
                .collect(),
        };
        self.fold(now, &ids, outcomes, prologue)
    }

    /// Folds one cycle's router outcomes, in configuration order, into
    /// the parse totals, the stage metrics (the prologue counts as
    /// Enrich) and the report; then the cross-router sweep, if
    /// configured, and the fleet-wide statistics. The report, the sweep
    /// and the statistics cover one set of routers: those admitted this
    /// cycle, whose outcome was analysed. A router that missed the cycle
    /// contributes nothing to any of them.
    fn fold(
        &mut self,
        now: SimTime,
        ids: &[u32],
        outcomes: Vec<RouterOutcome>,
        prologue_nanos: u64,
    ) -> CycleReport {
        let mut nanos = [0; 5];
        nanos[StageKind::Enrich as usize] = prologue_nanos;
        self.parse_last = ParseStats::default();
        let (mut tables, mut backoff) = (0, SimDuration::ZERO);
        let mut report = CycleReport {
            at: now,
            per_router: Vec::with_capacity(ids.len()),
            anomalies: Vec::new(),
        };
        let mut admitted = Vec::with_capacity(ids.len());
        for (o, &id) in outcomes.into_iter().zip(ids) {
            tables += o.stats.successes + o.stats.failures;
            backoff += o.stats.backoff;
            self.parse_totals.merge(o.parse);
            self.parse_last.merge(o.parse);
            for (total, n) in nanos.iter_mut().zip(o.nanos) {
                *total += n;
            }
            if let Some((name, usage, routes, anomalies)) = o.analysed {
                admitted.push(id);
                report.anomalies.extend(anomalies);
                report.per_router.push((name, usage, routes));
            }
        }
        if self.cfg.cross_router_checks {
            let t = Instant::now();
            let states = admitted.iter().map(|&id| &self.state[id as usize]);
            let swept = sweep_cycle(&mut self.inconsistency, states, now);
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
        self.anomalies.extend(report.anomalies.iter().cloned());
        // Fleet-wide statistics: the admitted routers' integer sums
        // added, each ratio divided once, every entry stamped with this
        // cycle's time. An admitted router's last churn entry is this
        // cycle's; on its first admission it has none.
        let (mut totals, mut churn) = (StatsTotals::default(), RouteChurn::default());
        for &id in &admitted {
            let st = &self.state[id as usize];
            totals.absorb(st.stream.totals());
            if let Some((_, c)) = st.churn.last() {
                churn.absorb(c);
            }
        }
        self.usage.push(UsageStats {
            at: now,
            ..totals.usage()
        });
        self.routes.push(RouteStats {
            at: now,
            ..totals.route_stats()
        });
        self.churn.push((now, churn));
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
        self.cfg.archive.on_disk(router).map(|(path, ..)| path)
    }

    /// Collection health of one router.
    pub fn router_health(&self, router: &str) -> Option<&RouterHealth> {
        self.state_of(router).map(|s| &s.health)
    }

    /// The per-router collection-health summary, judged at `now`: capture
    /// counts, retry effectiveness, salvage counts, volume, the retry
    /// latency of the latest cycle, last success, staleness, lifecycle
    /// and whether the archive is degraded ([`TableLog::degraded`]).
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
        let (interval, stale_after) = (self.cfg.interval, self.cfg.stale_after_intervals);
        for (router, st) in self.router_states() {
            let h = &st.health;
            let stale = h.is_stale(now, interval, stale_after);
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
                Cell::Text(h.lifecycle(stale_after).label()),
                Cell::Text(if st.log.degraded() { "degraded" } else { "ok" }.into()),
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

    /// Cumulative parse accounting over all cycles so far.
    pub fn parse_totals(&self) -> ParseStats {
        self.parse_totals
    }

    /// Parse accounting of the latest cycle only, for degradation checks.
    pub fn parse_last(&self) -> ParseStats {
        self.parse_last
    }

    /// Whether the latest cycle's parsing is degraded: malformed lines
    /// exceeded [`DEGRADED_PARSE_PCT`] of its row-like lines.
    pub fn parse_degraded(&self) -> bool {
        let p = &self.parse_last;
        let rows = p.parsed + p.malformed;
        rows > 0 && (p.malformed as f64 / rows as f64) * 100.0 > DEGRADED_PARSE_PCT
    }

    /// The per-table-kind parse accounting summary over all cycles so
    /// far: parsed, malformed and skipped line counts plus the malformed
    /// percentage, with a totals row.
    pub fn parse_table(&self) -> Table {
        let mut table = Table::new(
            "Parse accounting",
            vec!["table", "parsed", "malformed", "skipped", "malformed_pct"],
        );
        let stats = &self.parse_totals;
        let total = KindStats {
            parsed: stats.parsed,
            malformed: stats.malformed,
            skipped: stats.skipped,
        };
        let kinds = mantra_router_cli::TableKind::ALL.map(|k| (k.label(), stats.kind(k)));
        for (label, k) in kinds.into_iter().chain([("(total)", total)]) {
            let rows = k.parsed + k.malformed;
            let pct = if rows == 0 {
                0.0
            } else {
                (k.malformed as f64 / rows as f64) * 100.0
            };
            table.push_row(vec![
                Cell::Text(label.to_string()),
                Cell::Num(k.parsed as f64),
                Cell::Num(k.malformed as f64),
                Cell::Num(k.skipped as f64),
                Cell::Num(pct),
            ]);
        }
        table
    }

    /// The pipeline's per-stage metrics registry.
    pub fn pipeline(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// The per-stage pipeline summary table: invocations (the cycle
    /// count), items handled, wall-clock time and accumulated simulated
    /// latency per stage.
    pub fn stage_table(&self) -> Table {
        self.metrics.table()
    }

    /// The per-router archive summary: backend, record/checkpoint counts,
    /// stored volume, delta savings and durability accounting, with the
    /// errors and persistence of [`TableLog::errors`] and
    /// [`TableLog::degraded`].
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
        for (router, st) in self.router_states() {
            let stats = st.log.archive_stats();
            table.push_row(vec![
                Cell::Text(router.clone()),
                Cell::Text(st.log.backend_kind().into()),
                Cell::Num(stats.format_version as f64),
                Cell::Num(stats.epoch as f64),
                Cell::Num(stats.dict_entries as f64),
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
                Cell::Num(st.log.errors() as f64),
                Cell::Text(if st.log.is_sealed() { "sealed" } else { "live" }.into()),
                Cell::Text(if st.log.degraded() { "degraded" } else { "ok" }.into()),
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

    /// Fleet-wide usage statistics per cycle, summed over every router.
    pub fn fleet_usage_history(&self) -> &[UsageStats] {
        &self.usage
    }

    /// Fleet-wide route statistics per cycle.
    pub fn fleet_route_history(&self) -> &[RouteStats] {
        &self.routes
    }

    /// Fleet-wide route churn per cycle.
    pub fn fleet_churn_history(&self) -> &[(SimTime, RouteChurn)] {
        &self.churn
    }

    /// The delta log of one router.
    pub fn log(&self, router: &str) -> Option<&TableLog> {
        self.state_of(router).map(|s| &s.log)
    }

    /// Every router's delta log, once each, in the order the routers
    /// were first seen.
    pub fn logs(&self) -> impl Iterator<Item = &TableLog> {
        self.state.iter().map(|s| &s.log)
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

    /// The divergent router pairs of the latest cycle: every eligible
    /// pair of latest snapshots whose similarity is below the consistency
    /// monitor's floor, with its [`ConsistencyReport`], in configuration
    /// order.
    pub fn consistency_view(&self) -> Vec<(String, String, ConsistencyReport)> {
        let views: Vec<&Tables> = self
            .router_states()
            .filter_map(|(_, st)| st.prev.as_ref())
            .collect();
        self.inconsistency
            .divergent_pairs(&views)
            .into_iter()
            .map(|(i, j, r)| (views[i].router.clone(), views[j].router.clone(), r))
            .collect()
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
        usage_overlay(format!("Usage at {router}"), self.usage_history(router))
    }

    /// [`Monitor::usage_graph`] over the fleet-wide usage history.
    pub fn fleet_usage_graph(&self) -> Graph {
        let title = format!("Fleet usage ({} routers)", self.cfg.routers.len());
        usage_overlay(title, &self.usage)
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

/// The paper's four Figure 3 series over `history`, as one overlay graph.
fn usage_overlay(title: String, history: &[UsageStats]) -> Graph {
    let series = |name: &str, f: fn(&UsageStats) -> f64| {
        let mut s = Series::new(name);
        for u in history {
            s.push(u.at, f(u));
        }
        s
    };
    let mut g = Graph::new(title);
    g.overlay(series("sessions", |u| u.sessions as f64));
    g.overlay(series("participants", |u| u.participants as f64));
    g.overlay(series("active-sessions", |u| u.active_sessions as f64));
    g.overlay(series("senders", |u| u.senders as f64));
    g
}

/// Condenses a per-router health or archive table past `limit` rows to
/// its worst rows, with a footer of fleet totals summed from every row's
/// own cells — the one place either footer is built. Tables at or under
/// the limit are left as they are.
fn condense_router_table(table: &mut Table, limit: usize) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::SyncPolicy;
    use crate::collector::FlakyAccess;
    use mantra_sim::{ChurnSchedule, RawChurnOp, Scenario, CHURN_SLOTS};

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
        let mut monitor = Monitor::new(MonitorConfig::default(), 1);
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
        let replayed = log.replay().unwrap();
        assert_eq!(replayed.len(), 12);
        assert_eq!(&replayed[11], monitor.latest("fixw").unwrap());
        // Delta logging saved space.
        assert!(
            log.savings_ratio() > 0.12,
            "saved {:.2}",
            log.savings_ratio()
        );
        // Every stage spent visible wall time.
        for kind in StageKind::ALL {
            assert!(monitor.pipeline().stage(kind).wall_nanos > 0, "{kind:?}");
        }
        assert_eq!(monitor.stage_table().rows.len(), StageKind::ALL.len());
    }

    #[test]
    fn avg_bandwidth_converges() {
        let mut sc = Scenario::transition_snapshot(32, 0.0);
        let mut monitor = Monitor::new(MonitorConfig::default(), 1);
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
        let mut monitor = Monitor::new(MonitorConfig::default(), 1);
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
        let dir = crate::testing::TempDir::new("fan-out");
        let run = |width: usize, life: usize, name: &str| {
            let mut sc = Scenario::transition_snapshot(206, 0.4);
            let cfg = MonitorConfig {
                archive: ArchiveSpec::File {
                    dir: dir.join(name),
                    sync: SyncPolicy::default(),
                },
                ..MonitorConfig::default()
            };
            let mut monitor = Monitor::new(cfg, 1);
            let mut reports = Vec::new();
            for _ in 0..12 {
                let next = sc.sim.clock + monitor.cfg.interval;
                sc.sim.advance_to(next);
                let flaky = FlakyAccess::new(&sc.sim, 0.25, 0.25, 3);
                reports.push(monitor.cycle(&flaky, next, width, life));
            }
            (reports, monitor)
        };
        let (inline_reports, inline) = run(1, usize::MAX, "inline");
        // Width 4 clamps to the two routers; a worker life of one router
        // hands every claim to a fresh thread.
        let (fanned_reports, fanned) = run(4, 1, "fanned");
        assert!(inline.capture_failures() > 0, "failures were injected");
        assert_eq!(inline_reports, fanned_reports);
        assert_eq!(inline.capture_failures(), fanned.capture_failures());
        assert_eq!(inline.anomalies, fanned.anomalies);
        assert_eq!(inline.fleet_usage_history(), fanned.fleet_usage_history());
        assert_eq!(inline.fleet_route_history(), fanned.fleet_route_history());
        assert_eq!(inline.fleet_churn_history(), fanned.fleet_churn_history());
        for router in ["fixw", "ucsb-gw"] {
            assert_eq!(inline.latest(router), fanned.latest(router));
            assert_eq!(inline.router_health(router), fanned.router_health(router));
            assert_eq!(inline.usage_history(router), fanned.usage_history(router));
            assert_eq!(inline.churn_history(router), fanned.churn_history(router));
        }
        // Both account the same cycles and items per stage (time
        // differs).
        assert_eq!(inline.cycles(), fanned.cycles());
        for kind in StageKind::ALL {
            let s = inline.pipeline().stage(kind);
            let p = fanned.pipeline().stage(kind);
            assert_eq!(s.items, p.items, "{kind:?}");
            assert_eq!(s.sim_latency, p.sim_latency, "{kind:?}");
        }
        // Dropping the engines closes every archive; the files on disk
        // are byte-identical.
        drop((inline, fanned));
        for router in ["fixw", "ucsb-gw"] {
            let a = std::fs::read(ArchiveSpec::path_for(&dir.join("inline"), router)).unwrap();
            let b = std::fs::read(ArchiveSpec::path_for(&dir.join("fanned"), router)).unwrap();
            assert!(!a.is_empty());
            assert_eq!(a, b, "{router} archives diverge");
        }
    }

    /// The 9-router fleet world of seed `seed` under the churn schedule
    /// `raw` draws over `cycles` cycles, and an engine watching every
    /// router with lifecycle thresholds short enough to retire and
    /// rejoin inside the window.
    fn churned_fleet(raw: &[RawChurnOp], seed: u64, cycles: u64) -> (Scenario, Monitor) {
        let mut sc = Scenario::fleet_snapshot(seed, 10, 0.5);
        let routers = (sc.sim.monitored.iter())
            .map(|id| sc.sim.net.topo.router(*id).name.clone())
            .collect();
        let (start, interval) = (sc.sim.clock, sc.sim.tick());
        let end = SimTime(start.0 + interval.as_secs() * cycles);
        let topo = &sc.sim.net.topo;
        let schedule = ChurnSchedule::from_raw(raw, topo, &[sc.fixw], start, end);
        sc.sim.install_churn(schedule);
        let cfg = MonitorConfig {
            routers,
            interval,
            stale_after_intervals: 1,
            retire_after_intervals: 2,
            ..MonitorConfig::default()
        };
        (sc, Monitor::new(cfg, 1))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// Under any churn schedule — routers leaving, retiring and
        /// rejoining, links flapping, partitions forming and healing —
        /// a cycle fanned out at width 4 over one-router workers
        /// produces exactly what the inline cycle does: reports,
        /// fleet-wide histories, anomalies, lifecycles, per-router
        /// histories and archive replays.
        #[test]
        fn any_churn_schedule_is_fan_out_invariant(
            raw in proptest::collection::vec(
                (0u16..CHURN_SLOTS, 0u8..12, 0u16..64u16),
                0..16,
            ),
            seed in 0u64..8,
        ) {
            let cycles = 10;
            let (mut sc_inline, mut inline) = churned_fleet(&raw, seed, cycles);
            let (mut sc_fanned, mut fanned) = churned_fleet(&raw, seed, cycles);
            for _ in 0..cycles {
                let next = sc_inline.sim.clock + inline.cfg.interval;
                sc_inline.sim.advance_to(next);
                sc_fanned.sim.advance_to(next);
                let a = inline.cycle(&sc_inline.sim, next, 1, usize::MAX);
                let b = fanned.cycle(&sc_fanned.sim, next, 4, 1);
                proptest::prop_assert_eq!(a, b);
            }
            proptest::prop_assert_eq!(inline.fleet_usage_history(), fanned.fleet_usage_history());
            proptest::prop_assert_eq!(inline.fleet_route_history(), fanned.fleet_route_history());
            proptest::prop_assert_eq!(inline.fleet_churn_history(), fanned.fleet_churn_history());
            proptest::prop_assert_eq!(&inline.anomalies, &fanned.anomalies);
            for r in &inline.cfg.routers {
                proptest::prop_assert_eq!(inline.lifecycle_of(r), fanned.lifecycle_of(r));
                proptest::prop_assert_eq!(inline.router_health(r), fanned.router_health(r));
                proptest::prop_assert_eq!(inline.usage_history(r), fanned.usage_history(r));
                proptest::prop_assert_eq!(inline.route_history(r), fanned.route_history(r));
                proptest::prop_assert_eq!(inline.churn_history(r), fanned.churn_history(r));
                let replay = |m: &Monitor| m.log(r).map(|log| log.replay().unwrap());
                proptest::prop_assert_eq!(replay(&inline), replay(&fanned), "archive of {}", r);
            }
        }
    }

    #[test]
    fn file_archives_thread_through_the_pipeline() {
        let dir = crate::testing::TempDir::new("monitor-archive");
        let mut sc = Scenario::transition_snapshot(31, 0.3);
        let mut monitor = Monitor::new(
            MonitorConfig {
                archive: ArchiveSpec::File {
                    dir: dir.path().to_path_buf(),
                    sync: SyncPolicy::default(),
                },
                ..MonitorConfig::default()
            },
            1,
        );
        drive(&mut sc, &mut monitor, 6);
        // Same snapshots as an equivalent memory-archived run.
        let mut sc2 = Scenario::transition_snapshot(31, 0.3);
        let mut mem = Monitor::new(MonitorConfig::default(), 1);
        drive(&mut sc2, &mut mem, 6);
        assert_eq!(
            monitor.log("fixw").unwrap().replay().unwrap(),
            mem.log("fixw").unwrap().replay().unwrap()
        );
        // Growth recorded per cycle; both routers archive to files that
        // synced, with no errors.
        assert_eq!(monitor.archive_growth("fixw").len(), 6);
        let table = monitor.archive_table();
        assert_eq!(table.rows.len(), 2);
        let col = |name: &str| table.column_index(name).unwrap();
        for row in &table.rows {
            assert_eq!(row[col("backend")], Cell::Text("file".into()));
            assert!(row[col("fsyncs")].as_num().unwrap() > 0.0);
            assert_eq!(row[col("errors")], Cell::Num(0.0));
            assert_eq!(row[col("persistence")], Cell::Text("ok".into()));
        }
        // The on-disk archive outlives the monitor and replays equally.
        drop(monitor);
        let path = ArchiveSpec::path_for(dir.path(), "fixw");
        let log = TableLog::load(&path, 96).unwrap();
        assert_eq!(
            log.replay().unwrap(),
            mem.log("fixw").unwrap().replay().unwrap()
        );
    }

    /// A memory backend whose appends wait while a test holds `gate`.
    #[derive(Debug)]
    struct Gated {
        inner: crate::archive::MemoryBackend,
        gate: Arc<std::sync::Mutex<()>>,
    }

    impl crate::archive::ArchiveBackend for Gated {
        fn kind(&self) -> &'static str {
            self.inner.kind()
        }
        fn append(&mut self, rec: crate::logger::LogRecord) -> std::io::Result<()> {
            drop(self.gate.lock().unwrap());
            self.inner.append(rec)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn records(&self) -> crate::archive::RecordIter<'_> {
            self.inner.records()
        }
        fn records_from(&self, start: usize) -> crate::archive::RecordIter<'_> {
            self.inner.records_from(start)
        }
        fn last_checkpoint(&self) -> Option<usize> {
            self.inner.last_checkpoint()
        }
        fn stats(&self) -> crate::archive::ArchiveStats {
            self.inner.stats()
        }
    }

    /// The single-router page counts the writer queues as they are when
    /// it renders: a record still queued when the cycle ended, then
    /// drained, is not "still queued".
    #[test]
    fn the_report_reads_writer_queues_when_it_renders() {
        use crate::archive::{ThreadedBackend, WriterConfig};
        let mut sc = Scenario::transition_snapshot(31, 0.3);
        let cfg = MonitorConfig {
            routers: vec!["fixw".into()],
            ..MonitorConfig::default()
        };
        let mut monitor = Monitor::new(cfg, 1);
        drive(&mut sc, &mut monitor, 1);
        let gate = Arc::new(std::sync::Mutex::new(()));
        let held = gate.lock().unwrap();
        let gated = Gated {
            inner: Default::default(),
            gate: Arc::clone(&gate),
        };
        let writer = ThreadedBackend::spawn(Box::new(gated), WriterConfig::default());
        monitor.state[0].log = TableLog::with_backend(Box::new(writer), 96);
        drive(&mut sc, &mut monitor, 1);
        let log = monitor.log("fixw").unwrap();
        assert_eq!(log.archive_stats().queue_depth, 1, "held in the queue");
        drop(held);
        assert_eq!(log.len(), 1, "drained");
        let html = crate::web::report_html(&monitor, "fixw", &[]);
        assert!(html.contains(", 0 of them still queued"), "{html}");
    }

    /// A file archive whose appends fail, with no fallback and no drops,
    /// is degraded in the health table and the archive table alike, and
    /// counts in both condensed footers.
    #[test]
    fn write_errors_alone_degrade_the_archive_everywhere() {
        let dir = crate::testing::TempDir::new("write-errors");
        let mut sc = Scenario::transition_snapshot(31, 0.3);
        let cfg = MonitorConfig {
            archive: ArchiveSpec::File {
                dir: dir.path().to_path_buf(),
                sync: SyncPolicy::default(),
            },
            ..MonitorConfig::default()
        };
        let mut monitor = Monitor::new(cfg, 1);
        drive(&mut sc, &mut monitor, 1);
        // fixw's next append writes part of its frame, then fails.
        let mut torn = crate::archive::FileBackendV2::create(dir.join("torn.marc")).unwrap();
        torn.inject_torn_write(8);
        monitor.state[0].log = TableLog::with_backend(Box::new(torn), 96);
        drive(&mut sc, &mut monitor, 1);
        let log = monitor.log("fixw").unwrap();
        assert_eq!((log.fell_back, log.write_errors), (false, 1));
        assert_eq!(log.archive_stats().dropped_records, 0);
        let cell = |table: &Table, row: usize, col: &str| {
            table.rows[row][table.column_index(col).unwrap()].clone()
        };
        let degraded = Cell::Text("degraded".into());
        let health = monitor.health(sc.sim.clock);
        assert_eq!(cell(&health, 0, "archive"), degraded);
        assert_eq!(cell(&health, 1, "archive"), Cell::Text("ok".into()));
        let archives = monitor.archive_table();
        assert_eq!(cell(&archives, 0, "errors"), Cell::Num(1.0));
        assert_eq!(cell(&archives, 0, "persistence"), degraded);
        assert_eq!(cell(&archives, 1, "persistence"), Cell::Text("ok".into()));
        monitor.cfg.table_detail_limit = 1;
        let footer = monitor.health(sc.sim.clock).footer.unwrap();
        assert!(footer.ends_with(", 1 degraded archives"), "{footer}");
        let footer = monitor.archive_table().footer.unwrap();
        assert!(footer.ends_with(", 1 degraded"), "{footer}");
    }

    #[test]
    fn health_registry_tracks_success_and_staleness() {
        let mut sc = Scenario::transition_snapshot(36, 0.2);
        let mut monitor = Monitor::new(
            MonitorConfig {
                routers: vec!["fixw".into(), "ghost".into()],
                ..MonitorConfig::default()
            },
            1,
        );
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
        let mut monitor = Monitor::new(
            MonitorConfig {
                routers: vec!["ghost".into()],
                ..MonitorConfig::default()
            },
            1,
        );
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

    /// Past the detail limit the health and archive tables condense to
    /// their worst rows, with a footer totalled over every row.
    #[test]
    fn condensed_footers_total_every_router() {
        let cfg = MonitorConfig {
            routers: vec!["fixw".into(), "ghost".into()],
            stale_after_intervals: 2,
            retire_after_intervals: 4,
            table_detail_limit: 1,
            ..MonitorConfig::default()
        };
        let mut sc = Scenario::transition_snapshot(35, 0.0);
        let mut monitor = Monitor::new(cfg, 1);
        drive(&mut sc, &mut monitor, 5);
        let health = monitor.health(sc.sim.clock);
        assert_eq!(health.rows.len(), 1);
        assert_eq!(health.rows[0][0], Cell::Text("ghost".into()), "worst first");
        let footer = health.footer.expect("condensed");
        assert!(footer.starts_with("1 of 2 routers shown"), "{footer}");
        assert!(footer.contains("1 stale, 1 retired"), "{footer}");
        let archives = monitor.archive_table();
        assert_eq!(archives.rows.len(), 1);
        let footer = archives.footer.expect("condensed");
        assert!(footer.contains("1 sealed"), "{footer}");
        // The fleet-wide graph runs over the fleet-wide history.
        assert_eq!(monitor.fleet_usage_graph().series.len(), 4);
        assert_eq!(monitor.fleet_usage_history().len(), 5);
    }

    #[test]
    fn monitor_of_answers_for_configured_routers_only() {
        let cfg = MonitorConfig {
            routers: (0..10).map(|i| format!("r{i}")).collect(),
            ..MonitorConfig::default()
        };
        let monitor = Monitor::new(cfg, 1);
        assert!(monitor.monitor_of("r9").is_some());
        assert!(monitor.monitor_of("r10").is_none());
    }

    /// One router's fleet-wide statistics, summed from its integer sums
    /// and divided once, are its own statistics.
    #[test]
    fn fleet_statistics_of_one_router_are_its_own() {
        let mut sc = Scenario::transition_snapshot(41, 0.4);
        let mut monitor = Monitor::new(
            MonitorConfig {
                routers: vec!["ucsb-gw".into()],
                ..MonitorConfig::default()
            },
            1,
        );
        drive(&mut sc, &mut monitor, 6);
        assert_eq!(
            monitor.fleet_usage_history(),
            monitor.usage_history("ucsb-gw")
        );
        assert_eq!(
            monitor.fleet_route_history(),
            monitor.route_history("ucsb-gw")
        );
        // The churn history starts at the router's second cycle; the
        // fleet-wide one has an entry, empty at first, for every cycle.
        let churn = monitor.fleet_churn_history();
        assert_eq!(churn.len(), 6);
        assert_eq!(&churn[1..], monitor.churn_history("ucsb-gw"));
    }

    /// Every fleet-wide usage, route and churn entry carries its own
    /// cycle's time, also on cycles that admit no router: a sum is not
    /// stamped with the newest snapshot it absorbed.
    #[test]
    fn fleet_entries_carry_their_own_cycles_time() {
        let mut sc = Scenario::transition_snapshot(37, 0.2);
        let mut monitor = Monitor::new(MonitorConfig::default(), 1);
        let mut times = Vec::new();
        // Every login fails on the first cycle and on cycles 3 and 4.
        for cycle in 1..=6 {
            let next = sc.sim.clock + monitor.cfg.interval;
            sc.sim.advance_to(next);
            let fail = if matches!(cycle, 1 | 3 | 4) { 1.0 } else { 0.0 };
            let access = FlakyAccess::new(&sc.sim, fail, 0.0, 5);
            let report = monitor.cycle(&access, next, 1, usize::MAX);
            assert_eq!(report.per_router.is_empty(), fail == 1.0, "cycle {cycle}");
            times.push(next);
        }
        let usage: Vec<SimTime> = monitor.fleet_usage_history().iter().map(|u| u.at).collect();
        let routes: Vec<SimTime> = monitor.fleet_route_history().iter().map(|r| r.at).collect();
        let churn: Vec<SimTime> = monitor.fleet_churn_history().iter().map(|c| c.0).collect();
        assert_eq!(usage, times);
        assert_eq!(routes, times);
        assert_eq!(churn, times);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    /// A cycle's fleet-wide statistics sum the routers it admitted and no
    /// others: a router that missed the cycle adds nothing, so a cycle
    /// that admits no router reads zero.
    #[test]
    fn fleet_statistics_sum_only_the_routers_admitted_that_cycle() {
        let mut sc = Scenario::transition_snapshot(37, 0.2);
        let mut monitor = Monitor::new(MonitorConfig::default(), 1);
        let mut reports = Vec::new();
        // Every login fails on the first cycle and on cycles 3 and 4.
        for cycle in 1..=6 {
            let next = sc.sim.clock + monitor.cfg.interval;
            sc.sim.advance_to(next);
            let fail = if matches!(cycle, 1 | 3 | 4) { 1.0 } else { 0.0 };
            let access = FlakyAccess::new(&sc.sim, fail, 0.0, 5);
            reports.push(monitor.cycle(&access, next, 1, usize::MAX));
        }
        let (usage, routes) = (monitor.fleet_usage_history(), monitor.fleet_route_history());
        let churn = monitor.fleet_churn_history();
        for (i, report) in reports.iter().enumerate() {
            let at = report.at.iso8601();
            if matches!(i, 2 | 3) {
                assert!(report.per_router.is_empty(), "{at}");
                assert_eq!(usage[i].sessions, 0, "{at}");
                assert_eq!(routes[i].dvmrp_total, 0, "{at}");
            }
            let mut sum = vec![0; 13];
            for (router, u, r) in &report.per_router {
                let history = monitor.churn_history(router);
                let c = history.iter().find(|(t, _)| *t == report.at);
                let c = c.map_or(RouteChurn::default(), |(_, c)| *c);
                for (s, n) in sum.iter_mut().zip(counts(u, r, &c)) {
                    *s += n;
                }
            }
            assert_eq!(counts(&usage[i], &routes[i], &churn[i].1), sum, "{at}");
        }
        assert!(usage[4].sessions > 0 && routes[4].dvmrp_reachable > 0);
    }

    /// A cycle's integer statistics: sessions, participants, active
    /// sessions, senders, SA entries, DVMRP total and reachable routes,
    /// MBGP routes, the four churn counts and the total bandwidth.
    fn counts(u: &UsageStats, r: &RouteStats, c: &RouteChurn) -> Vec<u64> {
        let mut n: Vec<u64> = [
            u.sessions,
            u.participants,
            u.active_sessions,
            u.senders,
            u.sa_entries,
            r.dvmrp_total,
            r.dvmrp_reachable,
            r.mbgp_routes,
            c.added,
            c.removed,
            c.changed,
            c.reachability_flips,
        ]
        .map(|n| n as u64)
        .into();
        n.push(u.total_bandwidth.bps());
        n
    }

    #[test]
    fn missed_cycles_drive_retirement_and_the_state_column() {
        let mut sc = Scenario::transition_snapshot(35, 0.0);
        let mut monitor = Monitor::new(
            MonitorConfig {
                routers: vec!["fixw".into(), "ghost".into()],
                stale_after_intervals: 2,
                retire_after_intervals: 4,
                ..MonitorConfig::default()
            },
            1,
        );
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
