//! The data processor: per-snapshot statistics and time series.
//!
//! This is where the paper's figures come from. Usage monitoring
//! (Figures 3–6) classifies participants into senders vs passive
//! participants by the 4 kbps threshold and sessions into active vs
//! inactive, and estimates the bandwidth multicast saved. Route
//! monitoring (Figures 7–9) tracks route counts, churn between snapshots
//! and cross-router consistency.
//!
//! The per-cycle [`UsageStats`], [`RouteStats`] and [`RouteChurn`] are
//! assembled by [`crate::stats_stream`] from accumulators folded one
//! delta at a time; the full-snapshot constructors they are
//! property-tested against live in the test-support crate
//! `mantra-oracle`.

use serde::{Deserialize, Serialize};

use mantra_net::{BitRate, Prefix, SimTime};

use crate::tables::{LearnedFrom, Tables};

/// Usage-monitoring results for one snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UsageStats {
    /// Snapshot timestamp.
    pub at: SimTime,
    /// Sessions with state at the router.
    pub sessions: usize,
    /// Participants (distinct sources) with state at the router.
    pub participants: usize,
    /// Sessions with at least one sender.
    pub active_sessions: usize,
    /// Participants sending above the threshold.
    pub senders: usize,
    /// Mean participants per session.
    pub avg_density: f64,
    /// Fraction of sessions with exactly one participant.
    pub single_member_fraction: f64,
    /// Fraction of sessions with at most two participants.
    pub le2_density_fraction: f64,
    /// Fraction of all participants held by the densest 6 % of sessions.
    pub top6pct_participant_share: f64,
    /// Aggregate bandwidth of multicast traffic through the router.
    pub total_bandwidth: BitRate,
    /// Estimated unicast-equivalent bandwidth divided by actual multicast
    /// bandwidth (the Figure 5 right-plot "bandwidth saved" multiple).
    pub bandwidth_saved_multiple: f64,
    /// MSDP SA-cache entries (0 before MSDP existed at the router).
    pub sa_entries: usize,
}

impl UsageStats {
    /// Percentage of sessions that are active (Figure 6 left).
    pub fn pct_active(&self) -> f64 {
        100.0 * frac(self.active_sessions, self.sessions)
    }

    /// Percentage of participants that are senders (Figure 6 right).
    pub fn pct_senders(&self) -> f64 {
        100.0 * frac(self.senders, self.participants)
    }
}

/// `num / den`, or 0 for an empty denominator.
pub(crate) fn frac(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Route-monitoring results for one snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouteStats {
    /// Snapshot timestamp.
    pub at: SimTime,
    /// All DVMRP routes present, holddown included.
    pub dvmrp_total: usize,
    /// Reachable DVMRP routes — the Figures 7–9 series.
    pub dvmrp_reachable: usize,
    /// MBGP routes (the native infrastructure's reach).
    pub mbgp_routes: usize,
    /// Mean reported route uptime, where the dialect reports it.
    pub mean_uptime_secs: Option<f64>,
}

/// Route churn between two consecutive snapshots of the same router.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteChurn {
    /// Prefixes present now but not before.
    pub added: usize,
    /// Prefixes gone.
    pub removed: usize,
    /// Prefixes whose metric or next hop changed.
    pub changed: usize,
    /// Prefixes that flipped reachable ↔ unreachable.
    pub reachability_flips: usize,
}

impl RouteChurn {
    /// Total change events.
    pub fn total(&self) -> usize {
        self.added + self.removed + self.changed + self.reachability_flips
    }

    /// Adds another churn count into this one — integer sums, so fleet
    /// aggregation across routers is exact and order-independent.
    pub fn absorb(&mut self, other: &RouteChurn) {
        self.added += other.added;
        self.removed += other.removed;
        self.changed += other.changed;
        self.reachability_flips += other.reachability_flips;
    }
}

/// Cross-router consistency: how much two routers' DVMRP views differ —
/// ideally zero, and the paper's Figure 7 shows it very much was not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyReport {
    /// Reachable prefixes seen only at the first router.
    pub only_first: usize,
    /// Reachable prefixes seen only at the second.
    pub only_second: usize,
    /// Reachable prefixes seen at both.
    pub shared: usize,
}

impl ConsistencyReport {
    /// Compares the reachable DVMRP sets of two snapshots.
    pub fn between(a: &Tables, b: &Tables) -> ConsistencyReport {
        let set_a: std::collections::BTreeSet<Prefix> = a
            .routes_of(LearnedFrom::Dvmrp)
            .filter(|r| r.reachable)
            .map(|r| r.prefix)
            .collect();
        let set_b: std::collections::BTreeSet<Prefix> = b
            .routes_of(LearnedFrom::Dvmrp)
            .filter(|r| r.reachable)
            .map(|r| r.prefix)
            .collect();
        ConsistencyReport {
            only_first: set_a.difference(&set_b).count(),
            only_second: set_b.difference(&set_a).count(),
            shared: set_a.intersection(&set_b).count(),
        }
    }

    /// Jaccard similarity of the two route sets.
    pub fn similarity(&self) -> f64 {
        let union = self.only_first + self.only_second + self.shared;
        if union == 0 {
            1.0
        } else {
            self.shared as f64 / union as f64
        }
    }
}

/// All-pairs consistency over a fleet of snapshots as a group-by-key hash
/// join: the key is each router's reachable DVMRP prefix set, so routers
/// with identical views share one group and every *distinct pair of
/// views* is merged exactly once (memoised sorted-merge), instead of
/// re-walking both route tables for each of the O(n²) router pairs.
///
/// In a consistent fleet most routers agree, so the number of distinct
/// views G stays far below n and the set-comparison cost drops from
/// O(n²·p) to O(n·p + G²·p); a fully divergent fleet (G = n) degrades to
/// the pairwise cost, never worse.
pub struct ConsistencyMatrix {
    /// Group id per input snapshot, `None` when the snapshot's reachable
    /// set is below the caller's floor and every pair involving it is
    /// skipped.
    group_of: Vec<Option<u32>>,
    /// Each distinct reachable set, sorted (route-table iteration order).
    group_sets: Vec<Vec<Prefix>>,
    /// Memoised reports per unordered group pair `(lo, hi)`, lo-first.
    cache: crate::store::FxHashMap<(u32, u32), ConsistencyReport>,
}

impl ConsistencyMatrix {
    /// Groups `views` by reachable DVMRP prefix set. Views with fewer
    /// than `min_routes` reachable routes are excluded (tiny tables make
    /// similarity meaningless — the [`crate::anomaly::InconsistencyMonitor`]
    /// floor).
    pub fn build(views: &[&Tables], min_routes: usize) -> Self {
        let mut ids: crate::store::FxHashMap<Vec<Prefix>, u32> = Default::default();
        let mut group_sets: Vec<Vec<Prefix>> = Vec::new();
        let mut group_of = Vec::with_capacity(views.len());
        for t in views {
            let set: Vec<Prefix> = t
                .routes_of(LearnedFrom::Dvmrp)
                .filter(|r| r.reachable)
                .map(|r| r.prefix)
                .collect();
            if set.len() < min_routes {
                group_of.push(None);
                continue;
            }
            let next = group_sets.len() as u32;
            let id = match ids.entry(set) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    group_sets.push(e.key().clone());
                    e.insert(next);
                    next
                }
            };
            group_of.push(Some(id));
        }
        ConsistencyMatrix {
            group_of,
            group_sets,
            cache: Default::default(),
        }
    }

    /// Whether input `i` cleared the `min_routes` floor.
    pub fn eligible(&self, i: usize) -> bool {
        self.group_of[i].is_some()
    }

    /// The report for input pair `(i, j)`, oriented `i`-first — identical
    /// to [`ConsistencyReport::between`] on the two snapshots — or `None`
    /// when either side is below the floor.
    pub fn report(&mut self, i: usize, j: usize) -> Option<ConsistencyReport> {
        let (gi, gj) = (self.group_of[i]?, self.group_of[j]?);
        if gi == gj {
            return Some(ConsistencyReport {
                only_first: 0,
                only_second: 0,
                shared: self.group_sets[gi as usize].len(),
            });
        }
        let (lo, hi) = (gi.min(gj), gi.max(gj));
        let sets = &self.group_sets;
        let r = *self
            .cache
            .entry((lo, hi))
            .or_insert_with(|| merge_report(&sets[lo as usize], &sets[hi as usize]));
        Some(if gi == lo {
            r
        } else {
            ConsistencyReport {
                only_first: r.only_second,
                only_second: r.only_first,
                shared: r.shared,
            }
        })
    }
}

/// [`ConsistencyReport`] of two sorted, deduplicated prefix sets by
/// linear merge.
fn merge_report(a: &[Prefix], b: &[Prefix]) -> ConsistencyReport {
    let mut shared = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    ConsistencyReport {
        only_first: a.len() - shared,
        only_second: b.len() - shared,
        shared,
    }
}

/// A named time series: the raw material for graphs and for the
/// paper-vs-measured comparison in EXPERIMENTS.md.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Display name.
    pub name: String,
    /// `(time, value)` points in time order.
    pub points: Vec<(SimTime, f64)>,
    /// Points that arrived out of time order and had to be sorted in.
    /// `window()`, `median()` and delta plots all assume time order, so a
    /// violation is repaired (sorted insert) and counted rather than left
    /// to silently corrupt them.
    pub out_of_order: u64,
}

impl Series {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
            out_of_order: 0,
        }
    }

    /// Appends a point. Times are expected non-decreasing; a point older
    /// than the current tail is sorted into place (after any points with
    /// the same timestamp, preserving arrival order among equals) and
    /// counted in [`Series::out_of_order`]. Returns `true` when the point
    /// was in order, `false` when it had to be repaired.
    pub fn push(&mut self, at: SimTime, value: f64) -> bool {
        match self.points.last() {
            Some((t, _)) if *t > at => {
                self.out_of_order += 1;
                let idx = self.points.partition_point(|(t, _)| *t <= at);
                self.points.insert(idx, (at, value));
                false
            }
            _ => {
                self.points.push((at, value));
                true
            }
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        if self.points.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self
            .points
            .iter()
            .map(|(_, v)| (v - m) * (v - m))
            .sum::<f64>()
            / self.points.len() as f64;
        var.sqrt()
    }

    /// Median value.
    pub fn median(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let mut vals: Vec<f64> = self.points.iter().map(|(_, v)| *v).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in series"));
        let mid = vals.len() / 2;
        if vals.len().is_multiple_of(2) {
            (vals[mid - 1] + vals[mid]) / 2.0
        } else {
            vals[mid]
        }
    }

    /// Maximum value and its time.
    pub fn max(&self) -> Option<(SimTime, f64)> {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN in series"))
    }

    /// Minimum value and its time.
    pub fn min(&self) -> Option<(SimTime, f64)> {
        self.points
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN in series"))
    }

    /// Restricts to points in `[from, to]` (the graph-interface zoom).
    pub fn window(&self, from: SimTime, to: SimTime) -> Series {
        Series {
            name: self.name.clone(),
            points: self
                .points
                .iter()
                .copied()
                .filter(|(t, _)| *t >= from && *t <= to)
                .collect(),
            out_of_order: self.out_of_order,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::{diff, SnapshotParts};
    use crate::stats_stream::IncrementalStats;
    use crate::tables::{PairRow, RouteRow};
    use mantra_net::rate::SENDER_THRESHOLD;
    use mantra_net::{GroupAddr, Ip};

    fn t0() -> SimTime {
        SimTime::from_ymd(1998, 11, 1)
    }

    fn g(i: u32) -> GroupAddr {
        GroupAddr::from_index(i)
    }

    fn pair(t: &mut Tables, gi: u32, src: Ip, kbps: u64, forwarding: bool) {
        t.add_pair(PairRow {
            source: src,
            group: g(gi),
            current_bw: BitRate::from_kbps(kbps),
            avg_bw: BitRate::from_kbps(kbps),
            forwarding,
            learned_from: LearnedFrom::Dvmrp,
        });
    }

    fn sample() -> Tables {
        let mut t = Tables::new("fixw", t0());
        // Session 0: sender at 64k + two passives.
        pair(&mut t, 0, Ip::new(1, 0, 0, 1), 64, true);
        pair(&mut t, 0, Ip::new(1, 0, 0, 2), 1, true);
        pair(&mut t, 0, Ip::new(1, 0, 0, 3), 2, true);
        // Session 1: single passive member.
        pair(&mut t, 1, Ip::new(2, 0, 0, 1), 1, true);
        // Session 2: pruned sender (no traffic through this router).
        pair(&mut t, 2, Ip::new(3, 0, 0, 1), 128, false);
        t
    }

    /// The streaming statistics seeded from one snapshot.
    fn seeded(t: &Tables) -> IncrementalStats {
        let mut stats = IncrementalStats::default();
        stats.reseed(t, SENDER_THRESHOLD);
        stats
    }

    #[test]
    fn usage_stats_classification() {
        let u = seeded(&sample()).usage();
        assert_eq!(u.sessions, 3);
        assert_eq!(u.participants, 5);
        assert_eq!(u.senders, 2, "pruned sender still classifies as sender");
        assert_eq!(u.active_sessions, 2);
        assert!((u.avg_density - 5.0 / 3.0).abs() < 1e-9);
        // Sessions 1 and 2 are single-member.
        assert!((u.single_member_fraction - 2.0 / 3.0).abs() < 1e-9);
        assert!((u.le2_density_fraction - 2.0 / 3.0).abs() < 1e-9);
        // Bandwidth counts only forwarding pairs: 64+1+2+1 = 68 kbps.
        assert_eq!(u.total_bandwidth, BitRate::from_kbps(68));
        assert!((u.pct_active() - 66.666).abs() < 0.01);
        assert!((u.pct_senders() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_saved_uses_density_times_rate() {
        let u = seeded(&sample()).usage();
        // Unicast estimate: session-0 sender 64k × (3-1 receivers) +
        // session-2 sender 128k × max(1-1,1)=1 → 128+128 = 256k.
        // Multicast usage: 68k → multiple ≈ 3.76.
        assert!((u.bandwidth_saved_multiple - 256.0 / 68.0).abs() < 1e-6);
    }

    #[test]
    fn empty_tables_are_all_zero() {
        let u = seeded(&Tables::new("x", t0())).usage();
        assert_eq!(u.sessions, 0);
        assert_eq!(u.pct_active(), 0.0);
        assert_eq!(u.bandwidth_saved_multiple, 0.0);
    }

    fn route(t: &mut Tables, third: u8, reachable: bool, metric: u32) {
        t.add_route(RouteRow {
            prefix: Prefix::new(Ip::new(128, third, 0, 0), 16).unwrap(),
            next_hop: Some(Ip::new(10, 0, 0, 1)),
            metric,
            uptime: None,
            reachable,
            learned_from: LearnedFrom::Dvmrp,
        });
    }

    #[test]
    fn route_stats_and_churn() {
        let mut a = Tables::new("fixw", t0());
        route(&mut a, 1, true, 3);
        route(&mut a, 2, true, 3);
        route(&mut a, 3, false, 32);
        let mut stats = seeded(&a);
        let rs = stats.route_stats();
        assert_eq!(rs.dvmrp_total, 3);
        assert_eq!(rs.dvmrp_reachable, 2);
        assert_eq!(rs.mean_uptime_secs, None);

        let mut b = Tables::new("fixw", t0());
        route(&mut b, 1, true, 5); // metric change
        route(&mut b, 3, true, 3); // flip to reachable + metric change
        route(&mut b, 4, true, 3); // added
                                   // 128.2 removed.
        let delta = diff(
            &SnapshotParts::from_tables(&a),
            &SnapshotParts::from_tables(&b),
        );
        let churn = stats.fold(&delta).churn;
        assert_eq!(churn.added, 1);
        assert_eq!(churn.removed, 1);
        assert_eq!(churn.changed, 2);
        assert_eq!(churn.reachability_flips, 1);
        assert_eq!(churn.total(), 5);
    }

    #[test]
    fn consistency_report() {
        let mut a = Tables::new("fixw", t0());
        route(&mut a, 1, true, 3);
        route(&mut a, 2, true, 3);
        let mut b = Tables::new("ucsb", t0());
        route(&mut b, 2, true, 3);
        route(&mut b, 3, true, 3);
        let c = ConsistencyReport::between(&a, &b);
        assert_eq!((c.only_first, c.only_second, c.shared), (1, 1, 1));
        assert!((c.similarity() - 1.0 / 3.0).abs() < 1e-9);
        let ident = ConsistencyReport::between(&a, &a);
        assert_eq!(ident.similarity(), 1.0);
    }

    #[test]
    fn series_statistics() {
        let mut s = Series::new("routes");
        for (i, v) in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().enumerate() {
            s.push(SimTime(t0().as_secs() + i as u64), *v);
        }
        assert_eq!(s.len(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!((s.stddev() - 2.0).abs() < 1e-9);
        assert!((s.median() - 4.5).abs() < 1e-9);
        assert_eq!(s.max().unwrap().1, 9.0);
        assert_eq!(s.min().unwrap().1, 2.0);
        let w = s.window(SimTime(t0().as_secs() + 2), SimTime(t0().as_secs() + 4));
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn series_repairs_out_of_order_points() {
        let mut s = Series::new("routes");
        assert!(s.push(SimTime(100), 1.0));
        assert!(s.push(SimTime(300), 3.0));
        // A late point is sorted into place and counted, not appended.
        assert!(!s.push(SimTime(200), 2.0));
        assert_eq!(s.out_of_order, 1);
        let times: Vec<u64> = s.points.iter().map(|(t, _)| t.as_secs()).collect();
        assert_eq!(times, vec![100, 200, 300]);
        // Window and median see the repaired order.
        assert_eq!(s.window(SimTime(150), SimTime(250)).len(), 1);
        assert!((s.median() - 2.0).abs() < 1e-9);
        // Equal timestamps keep arrival order and do not count as
        // violations.
        assert!(s.push(SimTime(300), 4.0));
        assert_eq!(s.out_of_order, 1);
        // A late duplicate timestamp lands after its equals.
        assert!(!s.push(SimTime(200), 2.5));
        assert_eq!(
            s.points
                .iter()
                .map(|(t, v)| (t.as_secs(), *v))
                .collect::<Vec<_>>(),
            vec![(100, 1.0), (200, 2.0), (200, 2.5), (300, 3.0), (300, 4.0)]
        );
    }
}
