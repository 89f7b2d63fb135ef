//! Per-cycle statistics from the snapshot: one pass over its key-sorted
//! tables.
//!
//! Every cycle the data processor reduces each router's snapshot to usage
//! statistics (sessions, participants, senders, densities, bandwidth and
//! bandwidth saved) and route statistics. A snapshot's tables are
//! key-sorted runs, so [`SnapshotStats::from_tables`] reads each of them
//! once, in order, into integer sums ([`StatsTotals`]): the sessions for
//! the count, the density sum and the density histogram; the pairs in
//! `(group, source)` order for bandwidth, for the active sessions (one
//! per group run, each session's density read in step from the sessions
//! run) and for the senders; the routes for their counts and uptimes.
//! Route churn and the route-injection detector's gateway attribution
//! come from one merge join of the previous snapshot's DVMRP routes with
//! the new one's ([`RouteChanges::between`]).
//!
//! Every division happens at assembly, on the integer sums, so the
//! statistics are bit-identical to the full-snapshot constructors kept in
//! the test-support crate `mantra-oracle`; `tests/prop_stream.rs` holds
//! the pass and the merge to them over arbitrary snapshot streams.

use std::collections::BTreeMap;

use mantra_net::{BitRate, Ip, SimTime};

use crate::anomaly::AnomalyKind;
use crate::stats::{frac, RouteChurn, RouteStats, UsageStats};
use crate::tables::{LearnedFrom, Tables};

/// The route changes between two consecutive snapshots of one router:
/// the churn, and the gateway attribution of the new DVMRP routes that
/// the route-injection detector reads.
#[derive(Clone, Debug, Default)]
pub struct RouteChanges {
    /// Route churn between the snapshots (added/removed/changed/flips).
    pub churn: RouteChurn,
    /// New DVMRP routes per gateway, keyed as the injection detector
    /// counts them.
    new_dvmrp_gateways: BTreeMap<Option<Ip>, usize>,
}

impl RouteChanges {
    /// One merge join of `prev`'s DVMRP routes with `next`'s, both in
    /// prefix order: a prefix only in `next` is added (and counted
    /// against its gateway), one only in `prev` removed, and one in both
    /// changed when its metric or next hop moved and flipped when its
    /// reachability did.
    pub fn between(prev: &Tables, next: &Tables) -> RouteChanges {
        let mut changes = RouteChanges::default();
        let churn = &mut changes.churn;
        let mut old = prev.routes_of(LearnedFrom::Dvmrp).peekable();
        for r in next.routes_of(LearnedFrom::Dvmrp) {
            while old.next_if(|o| o.prefix < r.prefix).is_some() {
                churn.removed += 1;
            }
            match old.next_if(|o| o.prefix == r.prefix) {
                Some(o) => {
                    if o.metric != r.metric || o.next_hop != r.next_hop {
                        churn.changed += 1;
                    }
                    if o.reachable != r.reachable {
                        churn.reachability_flips += 1;
                    }
                }
                None => {
                    churn.added += 1;
                    *changes.new_dvmrp_gateways.entry(r.next_hop).or_default() += 1;
                }
            }
        }
        churn.removed += old.count();
        changes
    }

    /// The route-injection check over these changes: at least `min_new`
    /// new DVMRP routes, at least 80 % of them via one gateway.
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

/// The statistics of one router's snapshot, as integer sums: the router
/// keeps its latest admitted snapshot's between cycles, and the engine's
/// fold absorbs them into the fleet-wide statistics.
#[derive(Clone, Debug, Default)]
pub struct SnapshotStats {
    totals: StatsTotals,
}

impl SnapshotStats {
    /// Reads a snapshot's statistics off its tables, one pass over each
    /// in key order, classifying senders at `threshold`.
    pub fn from_tables(t: &Tables, threshold: BitRate) -> SnapshotStats {
        let mut s = StatsTotals {
            at: t.captured_at,
            sessions: t.sessions.len(),
            participants: t.participants.len(),
            sa_entries: t.sa_cache.len(),
            ..StatsTotals::default()
        };
        for session in t.sessions.values() {
            s.total_density += u64::from(session.density);
            *s.density_hist.entry(session.density).or_insert(0) += 1;
        }

        // Pairs come in `(group, source)` order, so a group's pairs are
        // one run and the sessions can be walked in step with the runs.
        let mut sessions = t.sessions.values().peekable();
        let mut senders: Vec<Ip> = Vec::new();
        let mut pairs = t.pairs.values().peekable();
        while let Some(first) = pairs.peek() {
            let group = first.group;
            let mut sender_bps = 0u64;
            let mut active = false;
            while let Some(p) = pairs.next_if(|p| p.group == group) {
                let bps = p.current_bw.bps();
                if p.forwarding && !p.source.is_unspecified() {
                    s.total_bw_bps += bps;
                }
                if p.current_bw.is_sender(threshold) {
                    active = true;
                    sender_bps += bps;
                    senders.push(p.source);
                }
            }
            while sessions.next_if(|x| x.group < group).is_some() {}
            // Every sender's stream delivered once per other participant
            // (the paper's density × rate model); a group with no session
            // row counts one participant.
            let density = sessions
                .peek()
                .filter(|x| x.group == group)
                .map_or(1, |x| u64::from(x.density));
            s.unicast_bw_bps += sender_bps * density.saturating_sub(1).max(1);
            s.active_sessions += usize::from(active);
        }
        senders.sort_unstable();
        senders.dedup();
        s.senders = senders.len();

        for r in t.routes.values() {
            match r.learned_from {
                LearnedFrom::Dvmrp => {
                    s.dvmrp_total += 1;
                    s.dvmrp_reachable += usize::from(r.reachable);
                }
                LearnedFrom::Mbgp => s.mbgp_total += 1,
                _ => {}
            }
            if let Some(u) = r.uptime {
                s.uptime_sum += u.as_secs();
                s.uptime_count += 1;
            }
        }
        SnapshotStats { totals: s }
    }

    /// The snapshot's integer sums, with no derived ratios — so
    /// per-router partial sums compose exactly (see
    /// [`StatsTotals::absorb`]).
    pub fn totals(&self) -> &StatsTotals {
        &self.totals
    }
}

/// The fleet-wide statistics' unit of composition: pure integer sums
/// (counts, sums, the density histogram), no derived ratios.
///
/// Integer addition is associative and commutative, so summing per-router
/// totals gives *exactly* the same integers in any order — every division
/// (average density, bandwidth-saved multiple, uptime mean) happens once,
/// at assembly, on identical integers. That is the whole exactness
/// argument for the fleet-wide statistics: a fleet's
/// [`UsageStats`]/[`RouteStats`] do not depend on which thread ran which
/// router, and one router's are its own, because the f64 operations see
/// the same operands in the same order. The semantic is router-observations summed across the fleet (a
/// session with state at three routers contributes three times), the
/// same reading the per-router figures already have.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsTotals {
    at: SimTime,
    /// Sessions per density value — the density distribution the
    /// single-member / ≤2 / top-6 % figures are read from.
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
    /// Adds another partial sum into this one. The timestamp stays this
    /// sum's own: a fleet-wide sum is stamped with its cycle's time by
    /// whoever assembles it, not with the newest snapshot it absorbed.
    pub fn absorb(&mut self, other: &StatsTotals) {
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
