//! The long-term tracker against its row-at-a-time definition: over
//! random snapshot histories, with entities departing and returning,
//! `LongTermTracker` (present entities merge-joined per cycle, departed
//! ones in a map) must answer exactly what one presence map per entity
//! kind, updated by a full walk every cycle, answers: every presence
//! record, every completed lifetime (as counts per length), the join
//! histogram, the flapping routes and the route stability.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use mantra::core::longterm::{LifetimeStats, LongTermTracker, Presence};
use mantra::core::tables::{LearnedFrom, PairRow, RouteRow, Tables};
use mantra::net::{BitRate, GroupAddr, Ip, Prefix, SimTime};

/// The tracker as one `BTreeMap` per entity kind, walked whole each
/// cycle.
#[derive(Default)]
struct Oracle {
    sessions: BTreeMap<GroupAddr, Presence>,
    participants: BTreeMap<Ip, Presence>,
    routes: BTreeMap<Prefix, Presence>,
    session_lifetimes: LifetimeStats,
    participant_lifetimes: LifetimeStats,
    route_lifetimes: LifetimeStats,
    new_sessions_per_cycle: Vec<(SimTime, usize)>,
    cycles: u64,
}

impl Oracle {
    fn observe(&mut self, t: &Tables) {
        self.cycles += 1;
        let now = t.captured_at;
        let new_sessions = update_presences(
            &mut self.sessions,
            t.sessions.keys().copied(),
            now,
            &mut self.session_lifetimes,
        );
        self.new_sessions_per_cycle.push((now, new_sessions));
        update_presences(
            &mut self.participants,
            t.participants.keys().copied(),
            now,
            &mut self.participant_lifetimes,
        );
        update_presences(
            &mut self.routes,
            t.routes_of(LearnedFrom::Dvmrp)
                .filter(|r| r.reachable)
                .map(|r| r.prefix),
            now,
            &mut self.route_lifetimes,
        );
    }

    fn flapping_routes(&self) -> Vec<(Prefix, u32)> {
        self.routes
            .iter()
            .filter(|(_, p)| p.episodes > 1)
            .map(|(r, p)| (*r, p.episodes))
            .collect()
    }

    fn route_stability(&self) -> f64 {
        if self.routes.is_empty() {
            return 1.0;
        }
        self.routes.values().filter(|p| p.episodes == 1).count() as f64 / self.routes.len() as f64
    }
}

/// Updates a presence map with the current member set; returns how many
/// entities are brand new. Entities that disappeared get their lifetime
/// recorded; entities that reappear start a new episode.
fn update_presences<K: Ord + Copy>(
    map: &mut BTreeMap<K, Presence>,
    current: impl Iterator<Item = K>,
    now: SimTime,
    lifetimes: &mut LifetimeStats,
) -> usize {
    let current: BTreeSet<K> = current.collect();
    let mut brand_new = 0;
    for k in &current {
        match map.get_mut(k) {
            None => {
                brand_new += 1;
                map.insert(
                    *k,
                    Presence {
                        first_seen: now,
                        last_seen: now,
                        episodes: 1,
                        present: true,
                    },
                );
            }
            Some(p) => {
                if !p.present {
                    p.episodes += 1;
                    p.present = true;
                }
                p.last_seen = now;
            }
        }
    }
    for (k, p) in map.iter_mut() {
        if p.present && !current.contains(k) {
            p.present = false;
            lifetimes.record(p.last_seen.since(p.first_seen).as_secs());
        }
    }
    brand_new
}

const GROUPS: u32 = 10;
const HOSTS: u32 = 8;
const PREFIXES: u8 = 8;

fn group(i: u32) -> GroupAddr {
    GroupAddr::from_index(i)
}

/// Host 0 is the wildcard source, which makes no participant.
fn host(i: u32) -> Ip {
    if i == 0 {
        Ip::UNSPECIFIED
    } else {
        Ip(0x0a00_0000 + i)
    }
}

fn prefix(i: u8) -> Prefix {
    Prefix::new(Ip::new(128, i, 0, 0), 16).unwrap()
}

/// Snapshot histories over small universes, so entities leave and come
/// back: each snapshot holds a few pairs (a group, a source) and a few
/// routes (DVMRP or MBGP, reachable or not). Cycles are a quarter-hour
/// apart, some snapshots are empty, and a snapshot may repeat a row.
fn arb_history() -> impl Strategy<Value = Vec<Tables>> {
    let row = (0u32..GROUPS, 0u32..HOSTS, 0u8..PREFIXES, 0u8..4);
    proptest::collection::vec(proptest::collection::vec(row, 0..14), 1..40).prop_map(|cycles| {
        cycles
            .into_iter()
            .enumerate()
            .map(|(n, rows)| {
                let at = SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n as u64 * 900);
                let mut t = Tables::new("fixw", at);
                for (g, h, p, route) in rows {
                    t.add_pair(PairRow {
                        source: host(h),
                        group: group(g),
                        current_bw: BitRate::from_kbps(8),
                        avg_bw: BitRate::from_kbps(8),
                        forwarding: true,
                        learned_from: LearnedFrom::Dvmrp,
                    });
                    t.add_route(RouteRow {
                        prefix: prefix(p),
                        next_hop: None,
                        metric: 1,
                        uptime: None,
                        reachable: route != 0,
                        learned_from: if route == 3 {
                            LearnedFrom::Mbgp
                        } else {
                            LearnedFrom::Dvmrp
                        },
                    });
                }
                t
            })
            .collect()
    })
}

/// Every public answer of the tracker equals the oracle's.
fn assert_same(tracker: &LongTermTracker, oracle: &Oracle, cycle: usize) {
    assert_eq!(tracker.cycles(), oracle.cycles, "cycle {cycle}");
    for g in 0..GROUPS {
        assert_eq!(
            tracker.session(group(g)),
            oracle.sessions.get(&group(g)),
            "cycle {cycle}: session {g}"
        );
    }
    for h in 0..HOSTS {
        assert_eq!(
            tracker.participant(host(h)),
            oracle.participants.get(&host(h)),
            "cycle {cycle}: participant {h}"
        );
    }
    for p in 0..PREFIXES {
        assert_eq!(
            tracker.route(prefix(p)),
            oracle.routes.get(&prefix(p)),
            "cycle {cycle}: route {p}"
        );
    }
    assert_eq!(
        tracker.session_lifetimes, oracle.session_lifetimes,
        "cycle {cycle}: session lifetimes"
    );
    assert_eq!(
        tracker.participant_lifetimes, oracle.participant_lifetimes,
        "cycle {cycle}: participant lifetimes"
    );
    assert_eq!(
        tracker.route_lifetimes, oracle.route_lifetimes,
        "cycle {cycle}: route lifetimes"
    );
    assert_eq!(
        tracker.new_sessions_per_cycle, oracle.new_sessions_per_cycle,
        "cycle {cycle}: join histogram"
    );
    assert_eq!(
        tracker.flapping_routes(),
        oracle.flapping_routes(),
        "cycle {cycle}: flapping routes"
    );
    assert_eq!(
        tracker.route_stability().to_bits(),
        oracle.route_stability().to_bits(),
        "cycle {cycle}: route stability"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every cycle of a random history, the merge-joined tracker
    /// and the full-walk oracle agree on everything they report.
    #[test]
    fn tracker_matches_the_full_walk_oracle(history in arb_history()) {
        let mut tracker = LongTermTracker::new();
        let mut oracle = Oracle::default();
        for (cycle, snapshot) in history.iter().enumerate() {
            tracker.observe(snapshot);
            oracle.observe(snapshot);
            assert_same(&tracker, &oracle, cycle);
        }
    }
}
