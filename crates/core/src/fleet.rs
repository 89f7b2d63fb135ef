//! The sharded fleet: N [`Monitor`]s plus an exact aggregation tier.
//!
//! One [`Monitor`] owns the world — collector, interning store, per-router
//! state, archives. That shape is the paper's, and it tops out well short
//! of the 1k–10k-router north star: every stage walks every router, and
//! the cross-router consistency sweep needs every snapshot in one place.
//! [`FleetMonitor`] keeps the `Monitor` exactly as it is and *partitions*
//! the fleet across several of them (the distributed-hybrid-monitoring
//! shape: local collectors, regional aggregators, global composition).
//! Each shard owns its router subset, its own `TableStore` and its own
//! archives. A fleet cycle is the monitor's cycle over every shard at
//! once: one fan-out over all (shard × router) tasks, its width chosen
//! from the fleet's rows, then each shard's fold. The fleet tier then
//! merges shard outputs into one global view:
//!
//! * **Statistics compose exactly.** Shards expose their integer
//!   accumulator sums ([`Monitor::stream_totals`]); the fleet absorbs
//!   them into one [`StatsTotals`] and assembles global usage/route
//!   figures with every division done once, at the top. Integer addition
//!   is associative and commutative, so any shard count and any
//!   partition produce bit-identical global statistics — proven against
//!   the single-monitor run in `tests/prop_fleet.rs`.
//! * **Consistency joins globally.** Per-shard sweeps are disabled
//!   (`cross_router_checks = false`) and the fleet runs the one
//!   group-by-key join ([`InconsistencyMonitor::sweep`]) over every
//!   router's latest snapshot in configuration order — cross-shard pairs
//!   are not missed, within-shard pairs are not double-reported, and the
//!   anomaly stream is identical to the single-monitor run.
//! * **Reports re-interleave.** Shard partitions preserve relative
//!   configuration order, so the merged [`CycleReport`] lists routers —
//!   and their per-router anomalies — in the same order a single monitor
//!   would.

use mantra_net::SimTime;

use crate::aggregate::ParallelAccess;
use crate::anomaly::{Anomaly, InconsistencyMonitor};
use crate::monitor::{
    condense_router_table, parse_accounting_table, parse_degraded, run_cycle_over, CycleReport,
    Monitor, MonitorConfig,
};
use crate::output::{Cell, Graph, Table};
use crate::pipeline::{cycle_width, worker_life};
use crate::processor::ParseStats;
use crate::stats::{ConsistencyReport, RouteChurn, RouteStats, UsageStats};
use crate::stats_stream::StatsTotals;
use crate::store::FxHashMap;
use crate::tables::Tables;

/// A fleet of monitor shards with a global aggregation tier.
pub struct FleetMonitor {
    /// The global configuration; `routers` is the whole fleet in
    /// configuration order.
    pub cfg: MonitorConfig,
    shards: Vec<Monitor>,
    /// Shard index per global router index.
    assignment: Vec<usize>,
    inconsistency: InconsistencyMonitor,
    /// All anomalies raised so far, fleet-wide.
    pub anomalies: Vec<Anomaly>,
    /// Global per-cycle statistics, assembled from shard partial sums.
    usage: Vec<UsageStats>,
    routes: Vec<RouteStats>,
    churn: Vec<(SimTime, RouteChurn)>,
    cycles: u64,
}

impl FleetMonitor {
    /// A fleet over `cfg.routers` split into `shards` contiguous,
    /// near-equal shards (configuration order preserved). `shards` is
    /// clamped to at least 1 and at most the router count.
    pub fn new(cfg: MonitorConfig, shards: usize) -> Self {
        let n = cfg.routers.len();
        let shards = shards.clamp(1, n.max(1));
        let chunk = n.div_ceil(shards.max(1)).max(1);
        let assignment: Vec<usize> = (0..n).map(|i| (i / chunk).min(shards - 1)).collect();
        Self::with_assignment(cfg, &assignment)
    }

    /// A fleet with an explicit router→shard assignment (`assignment[i]`
    /// is the shard of `cfg.routers[i]`; shard ids need not be dense —
    /// the fleet uses `max + 1` shards). Each shard's router list keeps
    /// the global relative order, so *any* assignment yields the same
    /// global outputs.
    pub fn with_assignment(cfg: MonitorConfig, assignment: &[usize]) -> Self {
        assert_eq!(
            assignment.len(),
            cfg.routers.len(),
            "one shard id per router"
        );
        let shards_n = assignment.iter().map(|s| s + 1).max().unwrap_or(1);
        let mut routers_of: Vec<Vec<String>> = vec![Vec::new(); shards_n];
        for (router, &s) in cfg.routers.iter().zip(assignment) {
            routers_of[s].push(router.clone());
        }
        let shards = routers_of
            .into_iter()
            .map(|routers| {
                Monitor::new(MonitorConfig {
                    routers,
                    // The fleet tier sweeps consistency globally and
                    // condenses tables globally; shards do neither.
                    cross_router_checks: false,
                    table_detail_limit: usize::MAX,
                    ..cfg.clone()
                })
            })
            .collect();
        FleetMonitor {
            cfg,
            shards,
            assignment: assignment.to_vec(),
            inconsistency: InconsistencyMonitor::default(),
            anomalies: Vec::new(),
            usage: Vec::new(),
            routes: Vec::new(),
            churn: Vec::new(),
            cycles: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Re-partitions the fleet onto a new router→shard assignment
    /// between cycles, moving each reassigned router's state — archive
    /// (as its open log), statistics histories, health, streaming
    /// accumulators — wholesale to its new shard. Per-router state is
    /// store-independent, so the move is exact: the next cycle's global
    /// outputs are bit-identical to a fleet (or single monitor) that had
    /// run with the new assignment all along, which the churn property
    /// tests assert. Routers a shard has never polled have no state to
    /// move; their state is created at first sight as usual.
    pub fn rebalance(&mut self, new_assignment: &[usize]) {
        assert_eq!(
            new_assignment.len(),
            self.cfg.routers.len(),
            "one shard id per router"
        );
        let shards_n = new_assignment.iter().map(|s| s + 1).max().unwrap_or(1);
        while self.shards.len() < shards_n {
            self.shards.push(Monitor::new(MonitorConfig {
                routers: Vec::new(),
                cross_router_checks: false,
                table_detail_limit: usize::MAX,
                ..self.cfg.clone()
            }));
        }
        for (i, router) in self.cfg.routers.iter().enumerate() {
            let (from, to) = (self.assignment[i], new_assignment[i]);
            if from == to {
                continue;
            }
            if let Some(st) = self.shards[from].evict_router(router) {
                self.shards[to].adopt_router(st);
            }
        }
        // Recompute every shard's polling list so each keeps the global
        // relative order — the invariant the report re-interleaving
        // relies on.
        let mut routers_of: Vec<Vec<String>> = vec![Vec::new(); self.shards.len()];
        for (router, &s) in self.cfg.routers.iter().zip(new_assignment) {
            routers_of[s].push(router.clone());
        }
        for (shard, routers) in self.shards.iter_mut().zip(routers_of) {
            shard.set_routers(routers);
        }
        self.assignment = new_assignment.to_vec();
    }

    /// The shards, in shard order.
    pub fn shards(&self) -> &[Monitor] {
        &self.shards
    }

    /// The shard index owning `router`, by configuration.
    pub fn shard_of(&self, router: &str) -> Option<usize> {
        self.cfg
            .routers
            .iter()
            .position(|r| r == router)
            .map(|i| self.assignment[i])
    }

    /// The shard monitor owning `router`.
    pub fn monitor_of(&self, router: &str) -> Option<&Monitor> {
        self.shard_of(router).map(|s| &self.shards[s])
    }

    /// Cycles completed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Capture failures summed across shards.
    pub fn capture_failures(&self) -> u64 {
        self.shards.iter().map(Monitor::capture_failures).sum()
    }

    /// Parse accounting summed exactly across shards (all-time totals).
    /// Integer sums compose, so the result is shard-count invariant.
    pub fn parse_totals(&self) -> ParseStats {
        let mut total = ParseStats::default();
        for shard in &self.shards {
            total.merge(shard.parse_totals);
        }
        total
    }

    /// Parse accounting for the most recent fleet cycle.
    pub fn parse_last(&self) -> ParseStats {
        let mut total = ParseStats::default();
        for shard in &self.shards {
            total.merge(shard.parse_last);
        }
        total
    }

    /// Whether the last fleet cycle's malformed share crossed
    /// [`crate::monitor::DEGRADED_PARSE_PCT`].
    pub fn parse_degraded(&self) -> bool {
        parse_degraded(&self.parse_last())
    }

    /// The fleet-wide per-table parse accounting table.
    pub fn parse_table(&self) -> Table {
        parse_accounting_table(&self.parse_totals(), "Parse accounting (fleet)")
    }

    /// One fleet cycle at `now`: one fan-out over every shard's routers,
    /// at the width the fleet's previous-cycle rows call for, and each
    /// shard's fold; then the aggregation tier interleaves the shard
    /// reports back into global configuration order, sweeps cross-router
    /// consistency globally and folds the exact integer-sum statistics.
    /// The merged report is identical to a single [`Monitor`] over the
    /// whole fleet.
    pub fn run_cycle<P: ParallelAccess + ?Sized>(
        &mut self,
        access: &P,
        now: SimTime,
    ) -> CycleReport {
        let (rows, routers) = (self.parse_last().parsed as u64, self.cfg.routers.len());
        let (width, life) = (cycle_width(rows, routers), worker_life(rows, routers));
        let reports = run_cycle_over(&mut self.shards, access, now, width, life);
        self.cycles += 1;
        let mut report = CycleReport {
            at: now,
            per_router: Vec::with_capacity(self.cfg.routers.len()),
            anomalies: Vec::new(),
        };
        // Cursors over each shard's per-router entries and anomalies;
        // both lists are in shard configuration order, and a router's
        // anomalies are contiguous, so popping while the names match
        // re-creates the single-monitor interleaving.
        let mut entry_at = vec![0usize; reports.len()];
        let mut anomaly_at = vec![0usize; reports.len()];
        for (router, &s) in self.cfg.routers.iter().zip(&self.assignment) {
            let shard_report = &reports[s];
            if let Some(entry) = shard_report.per_router.get(entry_at[s]) {
                if &entry.0 == router {
                    report.per_router.push(entry.clone());
                    entry_at[s] += 1;
                }
            }
            while let Some(a) = shard_report.anomalies.get(anomaly_at[s]) {
                if &a.router == router {
                    report.anomalies.push(a.clone());
                    anomaly_at[s] += 1;
                } else {
                    break;
                }
            }
        }
        // Global cross-router consistency over every router's latest
        // snapshot, in configuration order — the group-by-key join
        // compares each pair of distinct views once, within and across
        // shards alike. Only snapshots captured *this* cycle
        // participate: a missed router's `latest` is a stale snapshot
        // from before it went dark, and a single monitor would not have
        // had it in the sweep either.
        let views: Vec<&Tables> = self
            .cfg
            .routers
            .iter()
            .zip(&self.assignment)
            .filter_map(|(router, &s)| self.shards[s].latest(router))
            .filter(|t| t.captured_at == now)
            .collect();
        report
            .anomalies
            .extend(self.inconsistency.sweep(&views, now));
        self.anomalies.extend(report.anomalies.iter().cloned());
        // Exact global statistics: absorb each shard's integer partial
        // sums, divide once at assembly.
        let mut totals = StatsTotals::default();
        let mut churn = RouteChurn::default();
        for shard in &self.shards {
            totals.absorb(&shard.stream_totals());
            churn.absorb(&shard.cycle_churn(now));
        }
        self.usage.push(totals.usage());
        self.routes.push(totals.route_stats());
        self.churn.push((now, churn));
        report
    }

    // ------------------------------------------------------------------
    // Global result access
    // ------------------------------------------------------------------

    /// Global usage statistics per cycle.
    pub fn usage_history(&self) -> &[UsageStats] {
        &self.usage
    }

    /// Global route statistics per cycle.
    pub fn route_history(&self) -> &[RouteStats] {
        &self.routes
    }

    /// Global route churn per cycle.
    pub fn churn_history(&self) -> &[(SimTime, RouteChurn)] {
        &self.churn
    }

    /// The divergent router pairs of the latest cycle, joined into one
    /// global view: every eligible pair whose similarity is below the
    /// monitor's floor, with its [`ConsistencyReport`], in configuration
    /// order.
    pub fn consistency_view(&self) -> Vec<(String, String, ConsistencyReport)> {
        let views: Vec<&Tables> = self
            .cfg
            .routers
            .iter()
            .zip(&self.assignment)
            .filter_map(|(router, &s)| self.shards[s].latest(router))
            .collect();
        self.inconsistency
            .divergent_pairs(&views)
            .into_iter()
            .map(|(i, j, r)| (views[i].router.clone(), views[j].router.clone(), r))
            .collect()
    }

    /// The fleet's Figure 3 overlay graph from the global usage history.
    /// The title is deliberately shard-invariant: sharded and unsharded
    /// runs of the same fleet must render byte-identical output.
    pub fn usage_graph(&self) -> Graph {
        let mut g = Graph::new(format!("Fleet usage ({} routers)", self.cfg.routers.len()));
        let series = |name: &str, f: fn(&UsageStats) -> f64| {
            let mut s = crate::stats::Series::new(name);
            for u in &self.usage {
                s.push(u.at, f(u));
            }
            s
        };
        g.overlay(series("sessions", |u| u.sessions as f64));
        g.overlay(series("participants", |u| u.participants as f64));
        g.overlay(series("active-sessions", |u| u.active_sessions as f64));
        g.overlay(series("senders", |u| u.senders as f64));
        g
    }

    /// The fleet health table: every router's health row with its shard,
    /// in configuration order, condensed to the worst offenders plus a
    /// totals footer past the configured limit.
    pub fn health(&self, now: SimTime) -> Table {
        self.stitch("Fleet collection health", |m| m.health(now))
    }

    /// The fleet archive table, shard column included, condensed like
    /// [`FleetMonitor::health`].
    pub fn archive_table(&self) -> Table {
        self.stitch("Fleet archives", Monitor::archive_table)
    }

    /// Archive query-cache counters summed across the shards' caches.
    pub fn query_cache_stats(&self) -> crate::archive::CacheStats {
        let mut total = crate::archive::CacheStats::default();
        for m in &self.shards {
            total.absorb(&m.query_cache().stats());
        }
        total
    }

    /// Merges per-shard tables into one global table with a `shard`
    /// column after the router column, re-ordered to configuration
    /// order, then condensed by the global detail limit with a totals
    /// footer.
    fn stitch(&self, title: &str, build: impl Fn(&Monitor) -> Table) -> Table {
        let shard_tables: Vec<Table> = self.shards.iter().map(&build).collect();
        let mut columns: Vec<&str> = vec!["router", "shard"];
        let tail: Vec<String> = shard_tables[0].columns[1..].to_vec();
        columns.extend(tail.iter().map(String::as_str));
        let mut table = Table::new(title, columns);
        let mut by_router: FxHashMap<&str, (usize, &Vec<Cell>)> = FxHashMap::default();
        for (s, t) in shard_tables.iter().enumerate() {
            for row in &t.rows {
                if let Cell::Text(name) = &row[0] {
                    by_router.insert(name.as_str(), (s, row));
                }
            }
        }
        for router in &self.cfg.routers {
            let Some((s, row)) = by_router.get(router.as_str()) else {
                continue;
            };
            let mut cells = Vec::with_capacity(row.len() + 1);
            cells.push(row[0].clone());
            cells.push(Cell::Num(*s as f64));
            cells.extend(row[1..].iter().cloned());
            table.push_row(cells);
        }
        condense_router_table(&mut table, self.cfg.table_detail_limit);
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantra_sim::Scenario;

    fn drive(sc: &mut Scenario, fleet: &mut FleetMonitor, cycles: usize) {
        for _ in 0..cycles {
            let next = sc.sim.clock + fleet.cfg.interval;
            sc.sim.advance_to(next);
            fleet.run_cycle(&sc.sim, next);
        }
    }

    fn fleet_cfg(routers: Vec<String>) -> MonitorConfig {
        MonitorConfig {
            routers,
            ..MonitorConfig::default()
        }
    }

    #[test]
    fn contiguous_partition_covers_fleet_in_order() {
        let routers: Vec<String> = (0..10).map(|i| format!("r{i}")).collect();
        let fleet = FleetMonitor::new(fleet_cfg(routers.clone()), 3);
        assert_eq!(fleet.shard_count(), 3);
        let mut seen = Vec::new();
        for shard in fleet.shards() {
            assert!(!shard.cfg.routers.is_empty());
            assert!(!shard.cfg.cross_router_checks);
            seen.extend(shard.cfg.routers.iter().cloned());
        }
        // Contiguous chunks concatenate back to configuration order.
        assert_eq!(seen, routers);
        for r in &routers {
            assert!(fleet.shard_of(r).is_some());
        }
        // Degenerate shapes clamp instead of panicking.
        assert_eq!(
            FleetMonitor::new(fleet_cfg(vec!["a".into()]), 8).shard_count(),
            1
        );
    }

    #[test]
    fn sharded_cycle_matches_single_monitor() {
        let mut sc_fleet = Scenario::transition_snapshot(41, 0.4);
        let mut sc_single = Scenario::transition_snapshot(41, 0.4);
        let cfg = fleet_cfg(vec!["fixw".into(), "ucsb-gw".into()]);
        let mut fleet = FleetMonitor::new(cfg.clone(), 2);
        let mut single = Monitor::new(cfg);
        for _ in 0..6 {
            let next = sc_fleet.sim.clock + fleet.cfg.interval;
            sc_fleet.sim.advance_to(next);
            let fr = fleet.run_cycle(&sc_fleet.sim, next);
            sc_single.sim.advance_to(next);
            let sr = single.run_cycle(&sc_single.sim, next);
            assert_eq!(fr, sr);
            // Global stats equal the single monitor's summed totals.
            assert_eq!(
                fleet.usage_history().last().unwrap(),
                &single.stream_totals().usage()
            );
            assert_eq!(
                fleet.route_history().last().unwrap(),
                &single.stream_totals().route_stats()
            );
            assert_eq!(
                fleet.churn_history().last().unwrap().1,
                single.cycle_churn(next)
            );
        }
        assert_eq!(fleet.anomalies, single.anomalies);
        assert_eq!(fleet.cycles(), 6);
    }

    #[test]
    fn fleet_tables_carry_shard_column_and_condense() {
        let mut sc = Scenario::transition_snapshot(7, 0.3);
        let cfg = MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            table_detail_limit: 1,
            ..MonitorConfig::default()
        };
        let mut fleet = FleetMonitor::new(cfg, 2);
        drive(&mut sc, &mut fleet, 2);
        let health = fleet.health(sc.sim.clock);
        assert_eq!(health.columns[0], "router");
        assert_eq!(health.columns[1], "shard");
        // Two routers, limit 1 → condensed with a totals footer.
        assert_eq!(health.rows.len(), 1);
        let footer = health.footer.as_deref().expect("condensed footer");
        assert!(footer.contains("of 2 routers"), "{footer}");
        let archives = fleet.archive_table();
        assert_eq!(archives.columns[1], "shard");
        assert_eq!(archives.rows.len(), 1);
        assert!(archives.footer.is_some());
        // The graph is over global history.
        assert_eq!(fleet.usage_graph().series.len(), 4);
        assert_eq!(fleet.usage_history().len(), 2);
    }
}
