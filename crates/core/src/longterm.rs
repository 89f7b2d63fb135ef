//! Long-term trend analysis across monitoring cycles.
//!
//! The paper's data logger exists "for detailed off-line analysis and
//! long-term trend analysis", and its route monitoring reports "route
//! lifetimes and individual route stability characteristics"; its
//! participant table tracks "the time period for which Mantra has had
//! state" per host. Those statistics all need memory across snapshots,
//! which per-snapshot [`crate::stats`] cannot provide. [`LongTermTracker`]
//! is that memory: feed it every snapshot (or a whole replayed archive)
//! and ask for lifetime and stability distributions.
//!
//! The tracker runs inside every collection cycle, and the paper's
//! deployment ran for six months, so a cycle must cost what the snapshot
//! holds, not what the router has shown since start-up: sessions and
//! participants come and go, and the ones seen so far soon outnumber
//! those present many times over.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use mantra_net::{GroupAddr, Ip, Prefix, SimDuration, SimTime};

use crate::tables::{LearnedFrom, Tables};

/// Presence tracking for one entity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Presence {
    /// First snapshot the entity appeared in.
    pub first_seen: SimTime,
    /// Most recent snapshot it appeared in.
    pub last_seen: SimTime,
    /// Number of distinct appearance intervals (1 = never left;
    /// higher = flapping in and out).
    pub episodes: u32,
    /// Whether it was present in the latest snapshot.
    pub present: bool,
}

impl Presence {
    /// Total observed lifetime (first to last appearance).
    pub fn lifetime(&self) -> SimDuration {
        self.last_seen.since(self.first_seen)
    }
}

/// Closed lifetime records, for distribution statistics: how many
/// lifetimes ended at each distinct length, so a router's whole uptime
/// costs one entry per length seen, not one per lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LifetimeStats {
    /// Completed lifetimes in seconds → how many completed at that length.
    counts: BTreeMap<u64, u64>,
}

impl LifetimeStats {
    /// Records one completed lifetime of `secs` seconds.
    pub fn record(&mut self, secs: u64) {
        *self.counts.entry(secs).or_insert(0) += 1;
    }

    /// Number of completed lifetimes.
    pub fn len(&self) -> usize {
        self.counts.values().sum::<u64>() as usize
    }

    /// True when nothing completed yet.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Mean completed lifetime in seconds.
    pub fn mean_secs(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.counts.iter().map(|(secs, n)| secs * n).sum();
        sum as f64 / self.len() as f64
    }

    /// Median completed lifetime in seconds.
    pub fn median_secs(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        // The lifetime at position `i` of the sorted lifetimes.
        let nth = |i: usize| {
            let mut seen = 0;
            for (&secs, &count) in &self.counts {
                seen += count as usize;
                if seen > i {
                    return secs;
                }
            }
            unreachable!("position {i} is below the count {n}")
        };
        let m = n / 2;
        if n.is_multiple_of(2) {
            (nth(m - 1) + nth(m)) as f64 / 2.0
        } else {
            nth(m) as f64
        }
    }

    /// Fraction of lifetimes at or below `secs`.
    pub fn fraction_shorter_than(&self, secs: u64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let shorter: u64 = self.counts.range(..=secs).map(|(_, n)| n).sum();
        shorter as f64 / self.len() as f64
    }
}

/// Cross-cycle tracker for sessions, participants and routes of one
/// router's snapshot stream.
///
/// Each entity kind is split into what the last snapshot held (a
/// key-sorted `Vec`) and what was seen before but is absent now (a map).
/// [`LongTermTracker::observe`] merge-joins the present entities against
/// the snapshot's keys, which its key-sorted tables hand over in order
/// (one contiguous walk per table), and touches the departed map only
/// for entities that return. A cycle
/// therefore costs O(present + snapshot + changes · log departed): it
/// does not grow with everything the router has ever shown.
#[derive(Clone, Debug, Default)]
pub struct LongTermTracker {
    sessions: Presences<GroupAddr>,
    participants: Presences<Ip>,
    routes: Presences<Prefix>,
    /// Completed session lifetimes.
    pub session_lifetimes: LifetimeStats,
    /// Completed participant lifetimes.
    pub participant_lifetimes: LifetimeStats,
    /// Completed route lifetimes — the paper's route-lifetime statistic.
    pub route_lifetimes: LifetimeStats,
    /// Join-pattern histogram: for each snapshot, how many sessions were
    /// brand new (the "membership join pattern" signal).
    pub new_sessions_per_cycle: Vec<(SimTime, usize)>,
    cycles: u64,
}

impl LongTermTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        LongTermTracker::default()
    }

    /// Cycles observed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Feeds the next snapshot (must be in time order).
    pub fn observe(&mut self, t: &Tables) {
        self.cycles += 1;
        let now = t.captured_at;
        let new_sessions =
            self.sessions
                .observe(t.sessions.keys().copied(), now, &mut self.session_lifetimes);
        self.new_sessions_per_cycle.push((now, new_sessions));
        self.participants.observe(
            t.participants.keys().copied(),
            now,
            &mut self.participant_lifetimes,
        );
        self.routes.observe(
            t.routes_of(LearnedFrom::Dvmrp)
                .filter(|r| r.reachable)
                .map(|r| r.prefix),
            now,
            &mut self.route_lifetimes,
        );
    }

    /// Presence record for one session.
    pub fn session(&self, g: GroupAddr) -> Option<&Presence> {
        self.sessions.get(&g)
    }

    /// Presence record for one participant — the paper's "time period for
    /// which Mantra has had state for it".
    pub fn participant(&self, host: Ip) -> Option<&Presence> {
        self.participants.get(&host)
    }

    /// Presence record for one route.
    pub fn route(&self, p: Prefix) -> Option<&Presence> {
        self.routes.get(&p)
    }

    /// Routes that flapped (more than one presence episode), in prefix
    /// order — "individual route stability characteristics".
    pub fn flapping_routes(&self) -> Vec<(Prefix, u32)> {
        let mut out: Vec<(Prefix, u32)> = self
            .routes
            .all()
            .filter(|(_, p)| p.episodes > 1)
            .map(|(r, p)| (*r, p.episodes))
            .collect();
        out.sort_unstable();
        out
    }

    /// Fraction of tracked routes that never flapped.
    pub fn route_stability(&self) -> f64 {
        let tracked = self.routes.all().count();
        if tracked == 0 {
            return 1.0;
        }
        let steady = self.routes.all().filter(|(_, p)| p.episodes == 1).count();
        steady as f64 / tracked as f64
    }
}

/// The presence records of one entity kind.
#[derive(Clone, Debug)]
struct Presences<K> {
    /// The entities of the last snapshot, sorted by key.
    present: Vec<(K, Presence)>,
    /// Everything seen before but absent from the last snapshot.
    departed: BTreeMap<K, Presence>,
}

impl<K> Default for Presences<K> {
    fn default() -> Self {
        Presences {
            present: Vec::new(),
            departed: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Copy> Presences<K> {
    /// Every record, present ones first; each part in key order.
    fn all(&self) -> impl Iterator<Item = (&K, &Presence)> {
        self.present
            .iter()
            .map(|(k, p)| (k, p))
            .chain(self.departed.iter())
    }

    fn get(&self, k: &K) -> Option<&Presence> {
        match self.present.binary_search_by(|(p, _)| p.cmp(k)) {
            Ok(i) => Some(&self.present[i].1),
            Err(_) => self.departed.get(k),
        }
    }

    /// Moves the presence records to the snapshot whose keys `current`
    /// yields in strictly increasing order; returns how many entities are
    /// brand new. Entities that disappeared get their lifetime recorded,
    /// in key order; entities that reappear start a new episode.
    fn observe(
        &mut self,
        current: impl Iterator<Item = K>,
        now: SimTime,
        lifetimes: &mut LifetimeStats,
    ) -> usize {
        let mut last = std::mem::take(&mut self.present).into_iter().peekable();
        let mut depart = |departed: &mut BTreeMap<K, Presence>, k: K, mut p: Presence| {
            p.present = false;
            lifetimes.record(p.last_seen.since(p.first_seen).as_secs());
            departed.insert(k, p);
        };
        // Sized to the snapshot's key count (exact for map keys): the
        // vector is kept per router until the next cycle, so growth slack
        // would stay resident.
        let mut present = Vec::with_capacity(current.size_hint().0);
        let mut brand_new = 0;
        for k in current {
            while let Some((gone, p)) = last.next_if(|(l, _)| *l < k) {
                depart(&mut self.departed, gone, p);
            }
            let p = match last.next_if(|(l, _)| *l == k) {
                Some((_, p)) => Presence {
                    last_seen: now,
                    ..p
                },
                None => match self.departed.remove(&k) {
                    Some(p) => Presence {
                        last_seen: now,
                        episodes: p.episodes + 1,
                        present: true,
                        ..p
                    },
                    None => {
                        brand_new += 1;
                        Presence {
                            first_seen: now,
                            last_seen: now,
                            episodes: 1,
                            present: true,
                        }
                    }
                },
            };
            present.push((k, p));
        }
        for (gone, p) in last {
            depart(&mut self.departed, gone, p);
        }
        self.present = present;
        brand_new
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{PairRow, RouteRow};
    use mantra_net::BitRate;

    fn t(n: u64) -> SimTime {
        SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n * 900)
    }

    fn g(i: u32) -> GroupAddr {
        GroupAddr::from_index(i)
    }

    fn snapshot(n: u64, groups: &[u32], routes: &[u8]) -> Tables {
        let mut tab = Tables::new("fixw", t(n));
        for gi in groups {
            tab.add_pair(PairRow {
                source: Ip::new(1, 0, 0, *gi as u8 + 1),
                group: g(*gi),
                current_bw: BitRate::from_kbps(8),
                avg_bw: BitRate::from_kbps(8),
                forwarding: true,
                learned_from: LearnedFrom::Dvmrp,
            });
        }
        for third in routes {
            tab.add_route(RouteRow {
                prefix: Prefix::new(Ip::new(128, *third, 0, 0), 16).unwrap(),
                next_hop: Some(Ip::new(10, 0, 0, 1)),
                metric: 3,
                uptime: None,
                reachable: true,
                learned_from: LearnedFrom::Dvmrp,
            });
        }
        tab
    }

    #[test]
    fn lifetimes_recorded_on_disappearance() {
        let mut tr = LongTermTracker::new();
        tr.observe(&snapshot(0, &[0, 1], &[1]));
        tr.observe(&snapshot(1, &[0, 1], &[1]));
        tr.observe(&snapshot(2, &[0], &[1])); // session 1 gone
        assert_eq!(tr.session_lifetimes.len(), 1);
        assert_eq!(tr.session_lifetimes.median_secs(), 900.0);
        let s0 = tr.session(g(0)).unwrap();
        assert!(s0.present);
        assert_eq!(s0.lifetime(), SimDuration::secs(1_800));
        // Participant of session 1 also closed out.
        assert_eq!(tr.participant_lifetimes.len(), 1);
    }

    #[test]
    fn reappearance_counts_episodes() {
        let mut tr = LongTermTracker::new();
        tr.observe(&snapshot(0, &[], &[1, 2]));
        tr.observe(&snapshot(1, &[], &[1])); // route 2 flaps out
        tr.observe(&snapshot(2, &[], &[1, 2])); // and back
        let r2 = tr
            .route(Prefix::new(Ip::new(128, 2, 0, 0), 16).unwrap())
            .unwrap();
        assert_eq!(r2.episodes, 2);
        assert!(r2.present);
        assert_eq!(tr.flapping_routes().len(), 1);
        assert!((tr.route_stability() - 0.5).abs() < 1e-9);
        // One completed lifetime (the first episode of route 2).
        assert_eq!(tr.route_lifetimes.len(), 1);
    }

    #[test]
    fn join_pattern_histogram() {
        let mut tr = LongTermTracker::new();
        tr.observe(&snapshot(0, &[0, 1], &[]));
        tr.observe(&snapshot(1, &[0, 1, 2, 3], &[]));
        tr.observe(&snapshot(2, &[0, 1, 2, 3], &[]));
        let news: Vec<usize> = tr.new_sessions_per_cycle.iter().map(|(_, n)| *n).collect();
        assert_eq!(news, vec![2, 2, 0]);
    }

    #[test]
    fn lifetime_stats_math() {
        let mut stats = LifetimeStats::default();
        for secs in [400, 100, 300, 200] {
            stats.record(secs);
        }
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.mean_secs(), 250.0);
        assert_eq!(stats.median_secs(), 250.0);
        assert_eq!(stats.fraction_shorter_than(200), 0.5);
        assert_eq!(stats.fraction_shorter_than(1_000), 1.0);
        assert!(LifetimeStats::default().is_empty());
        assert_eq!(LifetimeStats::default().median_secs(), 0.0);
    }

    /// Repeated lengths share one count; the median walks the counts to
    /// the same answer a sorted list gives, for odd and even totals.
    #[test]
    fn lifetime_stats_count_repeats() {
        let mut stats = LifetimeStats::default();
        let mut sorted = Vec::new();
        for secs in [900, 900, 2_700, 900, 1_800, 2_700, 900] {
            stats.record(secs);
            sorted.push(secs);
            sorted.sort_unstable();
            let m = sorted.len() / 2;
            let median = if sorted.len().is_multiple_of(2) {
                (sorted[m - 1] + sorted[m]) as f64 / 2.0
            } else {
                sorted[m] as f64
            };
            assert_eq!(stats.len(), sorted.len());
            assert_eq!(stats.median_secs(), median, "{sorted:?}");
            let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
            assert_eq!(stats.mean_secs(), mean, "{sorted:?}");
        }
        // Seven lifetimes: 900 ×4, 1800, 2700 ×2.
        assert_eq!(stats.median_secs(), 900.0);
        assert_eq!(stats.fraction_shorter_than(900), 4.0 / 7.0);
        assert_eq!(stats.fraction_shorter_than(1_799), 4.0 / 7.0);
        assert_eq!(stats.fraction_shorter_than(1_800), 5.0 / 7.0);
        stats.record(1_800);
        // Eight: the middle pair straddles 900 and 1800.
        assert_eq!(stats.median_secs(), 1_350.0);
    }
}
