//! Streaming statistics: the data processor's accumulators, fed by deltas.
//!
//! Computing every cycle's figures from a full snapshot costs O(table)
//! per router per cycle. But the paper's whole storage design rests on
//! the observation that inter-cycle churn is small relative to table
//! size, and the delta logger already computes exactly that churn.
//! [`IncrementalStats`] folds each [`TableDelta`] into running usage and
//! route accumulators in O(delta): adding or removing a pair, session or
//! route adjusts integer counts, bandwidth sums and the density histogram,
//! and the per-cycle [`UsageStats`]/[`RouteStats`]/[`RouteChurn`] are
//! assembled from those integers.
//!
//! The full-snapshot constructors, kept in the test-support crate
//! `mantra-oracle`, are the behavioural reference: every division here
//! happens at assembly time on the same integer sums the reference
//! computes, so the results are bit-identical, and `tests/prop_stream.rs`
//! proves it over arbitrary delta sequences (the byte-identical-fast-path
//! pattern the delta codec and the archive backends already follow).

use std::collections::BTreeMap;

use mantra_net::{BitRate, GroupAddr, Ip, Prefix, SimTime};

use crate::anomaly::AnomalyKind;
use crate::logger::TableDelta;
use crate::stats::{frac, RouteChurn, RouteStats, UsageStats};
use crate::store::{FxHashMap, FxHashSet};
use crate::tables::{LearnedFrom, PairRow, RouteRow, Tables};

/// Per-pair accumulator state.
#[derive(Clone, Copy, Debug)]
struct PairAcc {
    bps: u64,
    forwarding: bool,
}

/// Per-group accumulator state. A group is *present* (a session exists at
/// the router) when it has at least one pair or is a member-only session.
#[derive(Clone, Copy, Debug, Default)]
struct GroupAcc {
    /// Pairs in the group, wildcard sources included.
    pair_count: u32,
    /// Pairs with a specified source — the session's density.
    density: u32,
    /// Pairs at or above the sender threshold.
    sender_pairs: u32,
    /// Sum of the sender pairs' bandwidth.
    sender_bps: u64,
    /// Group carried by an IGMP-membership-only session row.
    member_only: bool,
}

impl GroupAcc {
    fn present(&self) -> bool {
        self.pair_count > 0 || self.member_only
    }

    /// The group's unicast-equivalent bandwidth: every sender's stream
    /// delivered once per other participant (the paper's density × rate
    /// model, same arithmetic as the reference).
    fn unicast_bps(&self) -> u64 {
        self.sender_bps * u64::from(self.density).saturating_sub(1).max(1)
    }

    fn is_dead(&self) -> bool {
        self.pair_count == 0 && !self.member_only
    }
}

/// Per-source accumulator state.
#[derive(Clone, Copy, Debug, Default)]
struct SourceAcc {
    pair_count: u32,
    sender_pairs: u32,
}

/// Per-route accumulator state.
#[derive(Clone, Copy, Debug)]
struct RouteAcc {
    metric: u32,
    next_hop: Option<Ip>,
    reachable: bool,
    uptime_secs: Option<u64>,
}

/// What one [`IncrementalStats::fold`] observed: the route churn of the
/// delta and the gateway attribution of brand-new DVMRP routes, enough to
/// run the route-injection detector without revisiting the snapshots.
#[derive(Clone, Debug, Default)]
pub struct FoldChanges {
    /// Route churn of the folded delta (added/removed/changed/flips).
    pub churn: RouteChurn,
    /// New DVMRP routes per gateway, keyed as the injection detector
    /// counts them.
    new_dvmrp_gateways: BTreeMap<Option<Ip>, usize>,
}

impl FoldChanges {
    /// The route-injection check over this fold's changes: at least
    /// `min_new` new DVMRP routes, at least 80 % of them via one gateway.
    pub fn injection(&self, min_new: usize) -> Option<AnomalyKind> {
        if self.churn.added < min_new {
            return None;
        }
        let (gateway, count) = self
            .new_dvmrp_gateways
            .iter()
            .map(|(gw, c)| (*gw, *c))
            .max_by_key(|(_, c)| *c)
            .unwrap_or((None, 0));
        let share = count as f64 / self.churn.added.max(1) as f64;
        if share >= 0.8 {
            Some(AnomalyKind::RouteInjection {
                new_routes: self.churn.added,
                gateway,
                gateway_share: share,
            })
        } else {
            None
        }
    }
}

/// Running usage and route accumulators for one router's snapshot stream.
///
/// Seed once from a full snapshot ([`IncrementalStats::reseed`]), then
/// fold each cycle's [`TableDelta`] — the per-cycle cost is proportional
/// to what changed, not to table size. [`IncrementalStats::usage`] and
/// [`IncrementalStats::route_stats`] assemble the current cycle's
/// statistics from the integers, bit-identical to computing them from
/// the full snapshot.
#[derive(Clone, Debug, Default)]
pub struct IncrementalStats {
    threshold: BitRate,
    at: SimTime,
    seeded: bool,
    pairs: FxHashMap<(GroupAddr, Ip), PairAcc>,
    groups: FxHashMap<GroupAddr, GroupAcc>,
    sources: FxHashMap<Ip, SourceAcc>,
    routes: FxHashMap<(LearnedFrom, Prefix), RouteAcc>,
    sa: FxHashSet<(GroupAddr, Ip)>,
    /// Present groups per density value — the density distribution the
    /// single-member / ≤2 / top-6 % figures are read from.
    density_hist: BTreeMap<u32, usize>,
    sessions: usize,
    participants: usize,
    senders: usize,
    active_sessions: usize,
    total_density: u64,
    total_bw_bps: u64,
    unicast_bw_bps: u64,
    dvmrp_total: usize,
    dvmrp_reachable: usize,
    mbgp_total: usize,
    uptime_sum: u64,
    uptime_count: usize,
}

impl IncrementalStats {
    /// Whether the accumulators have been seeded from a snapshot yet.
    /// Folding a delta into an unseeded accumulator would silently track
    /// the wrong base, so callers must reseed first.
    pub fn is_seeded(&self) -> bool {
        self.seeded
    }

    /// Resets and rebuilds every accumulator from a full snapshot — the
    /// O(table) fallback for the first cycle (or any cycle whose delta is
    /// unavailable).
    pub fn reseed(&mut self, t: &Tables, threshold: BitRate) {
        *self = IncrementalStats {
            threshold,
            at: t.captured_at,
            seeded: true,
            ..IncrementalStats::default()
        };
        for p in t.pairs.values() {
            self.upsert_pair(p);
        }
        for s in t
            .sessions
            .values()
            .filter(|s| s.density == 0 && s.first_advertised == LearnedFrom::Igmp)
        {
            self.set_member_only(s.group, true);
        }
        for key in t.sa_cache.keys() {
            self.sa.insert(*key);
        }
        let mut discard = FoldChanges::default();
        for r in t.routes.values() {
            self.upsert_route(r, &mut discard);
        }
    }

    /// Folds one delta, advancing the accumulators from the previous
    /// snapshot's state to the next's in O(delta). Returns the changes a
    /// per-cycle analysis needs (route churn, injection attribution).
    pub fn fold(&mut self, d: &TableDelta) -> FoldChanges {
        debug_assert!(self.seeded, "fold before reseed");
        self.at = d.captured_at;
        let mut changes = FoldChanges::default();
        for p in &d.pair_upserts {
            self.upsert_pair(p);
        }
        for key in &d.pair_removals {
            self.remove_pair(*key);
        }
        for s in &d.session_upserts {
            self.set_member_only(s.group, true);
        }
        for g in &d.session_removals {
            self.set_member_only(*g, false);
        }
        for (g, s, _) in &d.sa_upserts {
            self.sa.insert((*g, *s));
        }
        for key in &d.sa_removals {
            self.sa.remove(key);
        }
        for r in &d.route_upserts {
            self.upsert_route(r, &mut changes);
        }
        for key in &d.route_removals {
            self.remove_route(*key, &mut changes);
        }
        changes
    }

    /// This router's contribution to a fleet's totals: the integer
    /// accumulators [`IncrementalStats::usage`]/[`IncrementalStats::route_stats`]
    /// assemble from, with no derived ratios — so shard partial sums
    /// compose exactly (see [`StatsTotals::absorb`]).
    pub fn totals(&self) -> StatsTotals {
        StatsTotals {
            at: self.at,
            density_hist: self.density_hist.clone(),
            sessions: self.sessions,
            participants: self.participants,
            senders: self.senders,
            active_sessions: self.active_sessions,
            total_density: self.total_density,
            total_bw_bps: self.total_bw_bps,
            unicast_bw_bps: self.unicast_bw_bps,
            sa_entries: self.sa.len(),
            dvmrp_total: self.dvmrp_total,
            dvmrp_reachable: self.dvmrp_reachable,
            mbgp_total: self.mbgp_total,
            uptime_sum: self.uptime_sum,
            uptime_count: self.uptime_count,
        }
    }

    /// Assembles the current cycle's usage statistics from the
    /// accumulators — the same integer sums a full pass over the snapshot
    /// computes, divided the same way, so the output is bit-identical.
    pub fn usage(&self) -> UsageStats {
        self.totals().usage()
    }

    /// Assembles the current cycle's route statistics, bit-identical to
    /// a full pass over the snapshot.
    pub fn route_stats(&self) -> RouteStats {
        self.totals().route_stats()
    }

    // ------------------------------------------------------------------
    // Pair / session accumulation
    // ------------------------------------------------------------------

    fn upsert_pair(&mut self, row: &PairRow) {
        let key = (row.group, row.source);
        let acc = PairAcc {
            bps: row.current_bw.bps(),
            forwarding: row.forwarding,
        };
        let old = self.pairs.insert(key, acc);
        let old_sender = old.is_some_and(|p| BitRate(p.bps).is_sender(self.threshold));
        let new_sender = row.current_bw.is_sender(self.threshold);
        let wildcard = row.source.is_unspecified();

        let mut g = self.groups.get(&row.group).copied().unwrap_or_default();
        let g_old = g;
        if old.is_none() {
            g.pair_count += 1;
            if !wildcard {
                g.density += 1;
            }
        }
        if old_sender {
            g.sender_pairs -= 1;
            g.sender_bps -= old.expect("sender implies present").bps;
        }
        if new_sender {
            g.sender_pairs += 1;
            g.sender_bps += acc.bps;
        }
        self.store_group(row.group, g_old, g);

        let mut s = self.sources.get(&row.source).copied().unwrap_or_default();
        let s_old = s;
        if old.is_none() {
            s.pair_count += 1;
        }
        if old_sender {
            s.sender_pairs -= 1;
        }
        if new_sender {
            s.sender_pairs += 1;
        }
        self.store_source(row.source, s_old, s);

        self.total_bw_bps -= old
            .filter(|p| p.forwarding && !wildcard)
            .map_or(0, |p| p.bps);
        if acc.forwarding && !wildcard {
            self.total_bw_bps += acc.bps;
        }
    }

    fn remove_pair(&mut self, key: (GroupAddr, Ip)) {
        let Some(old) = self.pairs.remove(&key) else {
            return;
        };
        let (group, source) = key;
        let wildcard = source.is_unspecified();
        let was_sender = BitRate(old.bps).is_sender(self.threshold);

        let mut g = self.groups.get(&group).copied().unwrap_or_default();
        let g_old = g;
        g.pair_count -= 1;
        if !wildcard {
            g.density -= 1;
        }
        if was_sender {
            g.sender_pairs -= 1;
            g.sender_bps -= old.bps;
        }
        self.store_group(group, g_old, g);

        let mut s = self.sources.get(&source).copied().unwrap_or_default();
        let s_old = s;
        s.pair_count -= 1;
        if was_sender {
            s.sender_pairs -= 1;
        }
        self.store_source(source, s_old, s);

        if old.forwarding && !wildcard {
            self.total_bw_bps -= old.bps;
        }
    }

    fn set_member_only(&mut self, group: GroupAddr, member_only: bool) {
        let mut g = self.groups.get(&group).copied().unwrap_or_default();
        let g_old = g;
        g.member_only = member_only;
        self.store_group(group, g_old, g);
    }

    /// Writes a group's new accumulator back and re-derives every global
    /// the group contributes to, by retiring the old contribution and
    /// adding the new one.
    fn store_group(&mut self, group: GroupAddr, old: GroupAcc, new: GroupAcc) {
        if new.is_dead() {
            self.groups.remove(&group);
        } else {
            self.groups.insert(group, new);
        }
        if old.present() {
            self.sessions -= 1;
            self.total_density -= u64::from(old.density);
            self.unicast_bw_bps -= old.unicast_bps();
            if old.sender_pairs > 0 {
                self.active_sessions -= 1;
            }
            let slot = self
                .density_hist
                .get_mut(&old.density)
                .expect("present group counted in histogram");
            *slot -= 1;
            if *slot == 0 {
                self.density_hist.remove(&old.density);
            }
        }
        if new.present() {
            self.sessions += 1;
            self.total_density += u64::from(new.density);
            self.unicast_bw_bps += new.unicast_bps();
            if new.sender_pairs > 0 {
                self.active_sessions += 1;
            }
            *self.density_hist.entry(new.density).or_insert(0) += 1;
        }
    }

    fn store_source(&mut self, source: Ip, old: SourceAcc, new: SourceAcc) {
        if new.pair_count == 0 {
            self.sources.remove(&source);
        } else {
            self.sources.insert(source, new);
        }
        if !source.is_unspecified() {
            match (old.pair_count > 0, new.pair_count > 0) {
                (false, true) => self.participants += 1,
                (true, false) => self.participants -= 1,
                _ => {}
            }
        }
        match (old.sender_pairs > 0, new.sender_pairs > 0) {
            (false, true) => self.senders += 1,
            (true, false) => self.senders -= 1,
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Route accumulation
    // ------------------------------------------------------------------

    fn upsert_route(&mut self, row: &RouteRow, changes: &mut FoldChanges) {
        let key = (row.learned_from, row.prefix);
        let acc = RouteAcc {
            metric: row.metric,
            next_hop: row.next_hop,
            reachable: row.reachable,
            uptime_secs: row.uptime.map(|u| u.as_secs()),
        };
        let old = self.routes.insert(key, acc);
        match old {
            None => {
                match row.learned_from {
                    LearnedFrom::Dvmrp => {
                        self.dvmrp_total += 1;
                        changes.churn.added += 1;
                        *changes.new_dvmrp_gateways.entry(row.next_hop).or_default() += 1;
                    }
                    LearnedFrom::Mbgp => self.mbgp_total += 1,
                    _ => {}
                }
                if row.learned_from == LearnedFrom::Dvmrp && row.reachable {
                    self.dvmrp_reachable += 1;
                }
            }
            Some(prev) => {
                if row.learned_from == LearnedFrom::Dvmrp {
                    if prev.metric != acc.metric || prev.next_hop != acc.next_hop {
                        changes.churn.changed += 1;
                    }
                    if prev.reachable != acc.reachable {
                        changes.churn.reachability_flips += 1;
                        if acc.reachable {
                            self.dvmrp_reachable += 1;
                        } else {
                            self.dvmrp_reachable -= 1;
                        }
                    }
                }
                if let Some(u) = prev.uptime_secs {
                    self.uptime_sum -= u;
                    self.uptime_count -= 1;
                }
            }
        }
        if let Some(u) = acc.uptime_secs {
            self.uptime_sum += u;
            self.uptime_count += 1;
        }
    }

    fn remove_route(&mut self, key: (LearnedFrom, Prefix), changes: &mut FoldChanges) {
        let Some(old) = self.routes.remove(&key) else {
            return;
        };
        match key.0 {
            LearnedFrom::Dvmrp => {
                self.dvmrp_total -= 1;
                if old.reachable {
                    self.dvmrp_reachable -= 1;
                }
                changes.churn.removed += 1;
            }
            LearnedFrom::Mbgp => self.mbgp_total -= 1,
            _ => {}
        }
        if let Some(u) = old.uptime_secs {
            self.uptime_sum -= u;
            self.uptime_count -= 1;
        }
    }
}

/// The aggregation tier's unit of composition: pure integer accumulators
/// (counts, sums, the density histogram), no derived ratios.
///
/// Integer addition is associative and commutative, so summing per-router
/// totals per shard and then summing the shard partials gives *exactly*
/// the sum over all routers, regardless of partition — every division
/// (average density, bandwidth-saved multiple, uptime mean) happens once,
/// at assembly, on identical integers. That is the whole exactness
/// argument for sharded aggregation: a fleet's global
/// [`UsageStats`]/[`RouteStats`] are bit-identical to the single-monitor
/// computation because the f64 operations see the same operands in the
/// same order. The semantic is router-observations summed across the
/// fleet (a session with state at three routers contributes three times),
/// the same reading the per-router figures already have.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsTotals {
    at: SimTime,
    density_hist: BTreeMap<u32, usize>,
    sessions: usize,
    participants: usize,
    senders: usize,
    active_sessions: usize,
    total_density: u64,
    total_bw_bps: u64,
    unicast_bw_bps: u64,
    sa_entries: usize,
    dvmrp_total: usize,
    dvmrp_reachable: usize,
    mbgp_total: usize,
    uptime_sum: u64,
    uptime_count: usize,
}

impl StatsTotals {
    /// Adds another partial sum into this one. `at` takes the later of
    /// the two timestamps (within one cycle they are equal).
    pub fn absorb(&mut self, other: &StatsTotals) {
        self.at = self.at.max(other.at);
        for (&d, &n) in &other.density_hist {
            *self.density_hist.entry(d).or_insert(0) += n;
        }
        self.sessions += other.sessions;
        self.participants += other.participants;
        self.senders += other.senders;
        self.active_sessions += other.active_sessions;
        self.total_density += other.total_density;
        self.total_bw_bps += other.total_bw_bps;
        self.unicast_bw_bps += other.unicast_bw_bps;
        self.sa_entries += other.sa_entries;
        self.dvmrp_total += other.dvmrp_total;
        self.dvmrp_reachable += other.dvmrp_reachable;
        self.mbgp_total += other.mbgp_total;
        self.uptime_sum += other.uptime_sum;
        self.uptime_count += other.uptime_count;
    }

    /// Assembles usage statistics — every ratio divided here, once, from
    /// the summed integers.
    pub fn usage(&self) -> UsageStats {
        let sessions = self.sessions;
        let avg_density = if sessions == 0 {
            0.0
        } else {
            self.total_density as f64 / sessions as f64
        };
        let hist_count = |d: u32| self.density_hist.get(&d).copied().unwrap_or(0);
        let single = hist_count(1);
        let le2 = hist_count(0) + hist_count(1) + hist_count(2);
        let top6 = {
            let take = (sessions * 6).div_ceil(100).max(usize::from(sessions > 0));
            let mut left = take;
            let mut top = 0u64;
            for (&density, &n) in self.density_hist.iter().rev() {
                let k = n.min(left);
                top += u64::from(density) * k as u64;
                left -= k;
                if left == 0 {
                    break;
                }
            }
            if self.total_density == 0 {
                0.0
            } else {
                top as f64 / self.total_density as f64
            }
        };
        let saved = if self.total_bw_bps == 0 {
            0.0
        } else {
            self.unicast_bw_bps as f64 / self.total_bw_bps as f64
        };
        UsageStats {
            at: self.at,
            sessions,
            participants: self.participants,
            active_sessions: self.active_sessions,
            senders: self.senders,
            avg_density,
            single_member_fraction: frac(single, sessions),
            le2_density_fraction: frac(le2, sessions),
            top6pct_participant_share: top6,
            total_bandwidth: BitRate(self.total_bw_bps),
            bandwidth_saved_multiple: saved,
            sa_entries: self.sa_entries,
        }
    }

    /// Assembles route statistics from the summed integers.
    pub fn route_stats(&self) -> RouteStats {
        RouteStats {
            at: self.at,
            dvmrp_total: self.dvmrp_total,
            dvmrp_reachable: self.dvmrp_reachable,
            mbgp_routes: self.mbgp_total,
            mean_uptime_secs: if self.uptime_count == 0 {
                None
            } else {
                Some(self.uptime_sum as f64 / self.uptime_count as f64)
            },
        }
    }
}
