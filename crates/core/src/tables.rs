//! Mantra's local data format.
//!
//! The paper defines four table kinds that "provide a standard framework
//! for storing the monitoring information": Pair, Participant, Session and
//! Route. Every raw router dump is normalised into these before anything
//! downstream (logging, statistics, display) touches it.
//!
//! Rows are plain serde-serialisable structs keyed for deterministic
//! ordering, which the delta logger depends on.
//!
//! A snapshot is assembled in key order: the parsers and the archive
//! replay push rows into a [`TablesBuilder`] in arrival order, and
//! [`TablesBuilder::build`] sorts each kind once (a linear pass when, as
//! from the simulated CLIs, rows already arrive in key order) and bulk
//! builds the maps from the sorted runs. [`Tables::add_pair`] and
//! [`Tables::add_route`] stay as the row-at-a-time definition the builder
//! is tested against; the string parser in the test-support crate
//! `mantra-oracle` inserts through them.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use mantra_net::{BitRate, GroupAddr, Ip, Prefix, SimDuration, SimTime};

/// Which protocol a table row was learned from (the Session table records
/// "the protocol that first advertised" each session).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LearnedFrom {
    /// DVMRP forwarding/routing state.
    Dvmrp,
    /// PIM (dense or sparse) forwarding state.
    Pim,
    /// An MSDP source-active advertisement.
    Msdp,
    /// An MBGP route.
    Mbgp,
    /// IGMP membership.
    Igmp,
}

/// One `(S,G)` pair — a session-participant tuple with its bandwidth.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PairRow {
    /// The sending participant.
    pub source: Ip,
    /// The session group.
    pub group: GroupAddr,
    /// Bandwidth at the last capture.
    pub current_bw: BitRate,
    /// Average bandwidth over the pair's observed lifetime.
    pub avg_bw: BitRate,
    /// Whether the router was actually forwarding (false = pruned entry).
    pub forwarding: bool,
    /// Which protocol the state came from.
    pub learned_from: LearnedFrom,
}

/// One participant host.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParticipantRow {
    /// The host address.
    pub host: Ip,
    /// Reverse-DNS name when available (never, for simulated hosts —
    /// the field exists because the paper's table has it).
    pub name: Option<String>,
    /// Number of groups the host currently participates in.
    pub group_count: u32,
    /// When Mantra first had state for this host.
    pub first_seen: SimTime,
}

/// One multicast session.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SessionRow {
    /// The group address.
    pub group: GroupAddr,
    /// Advertised name when available.
    pub name: Option<String>,
    /// Current density: number of participants with state at the router.
    pub density: u32,
    /// Aggregate current bandwidth of the session's senders.
    pub bandwidth: BitRate,
    /// The protocol that first advertised the session to Mantra.
    pub first_advertised: LearnedFrom,
    /// When Mantra first saw the session.
    pub first_seen: SimTime,
}

/// One route (DVMRP or MBGP).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouteRow {
    /// The destination prefix.
    pub prefix: Prefix,
    /// Next-hop gateway; `None` for directly connected.
    pub next_hop: Option<Ip>,
    /// Routing metric.
    pub metric: u32,
    /// Route uptime where the router reports it (IOS does, mrouted
    /// doesn't — Mantra then derives it across snapshots).
    pub uptime: Option<SimDuration>,
    /// False when the router reported the route unreachable/holddown.
    pub reachable: bool,
    /// Which protocol the route belongs to.
    pub learned_from: LearnedFrom,
}

/// Serialises keyed maps as entry lists: JSON object keys must be strings,
/// and these maps are keyed by structured types.
mod map_as_entries {
    use std::collections::BTreeMap;

    use serde::de::Deserializer;
    use serde::ser::Serializer;
    use serde::{Deserialize, Serialize};

    /// Serialise as a `Vec<(K, V)>`.
    pub fn serialize<K, V, S>(map: &BTreeMap<K, V>, s: S) -> Result<S::Ok, S::Error>
    where
        K: Serialize + Ord,
        V: Serialize,
        S: Serializer,
    {
        s.collect_seq(map.iter())
    }

    /// Deserialise from a `Vec<(K, V)>`.
    pub fn deserialize<'de, K, V, D>(d: D) -> Result<BTreeMap<K, V>, D::Error>
    where
        K: Deserialize<'de> + Ord,
        V: Deserialize<'de>,
        D: Deserializer<'de>,
    {
        let entries = Vec::<(K, V)>::deserialize(d)?;
        Ok(entries.into_iter().collect())
    }
}

/// One snapshot of all four local tables for one router.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Tables {
    /// Capture timestamp.
    pub captured_at: SimTime,
    /// Router the tables came from.
    pub router: String,
    /// `(S,G)` pairs keyed by `(group, source)`.
    #[serde(with = "map_as_entries")]
    pub pairs: BTreeMap<(GroupAddr, Ip), PairRow>,
    /// Participants keyed by host address.
    #[serde(with = "map_as_entries")]
    pub participants: BTreeMap<Ip, ParticipantRow>,
    /// Sessions keyed by group.
    #[serde(with = "map_as_entries")]
    pub sessions: BTreeMap<GroupAddr, SessionRow>,
    /// Routes keyed by protocol and prefix (a border router holds both a
    /// DVMRP and an MBGP table; they may carry the same prefix).
    #[serde(with = "map_as_entries")]
    pub routes: BTreeMap<(LearnedFrom, Prefix), RouteRow>,
    /// The MSDP source-active cache: `(group, source) -> first-learned`.
    /// Kept separate from the pair table — SA entries advertise sessions
    /// but say nothing about forwarding state at this router.
    #[serde(with = "map_as_entries")]
    pub sa_cache: BTreeMap<(GroupAddr, Ip), SimTime>,
}

impl Tables {
    /// An empty snapshot.
    pub fn new(router: impl Into<String>, captured_at: SimTime) -> Self {
        Tables {
            captured_at,
            router: router.into(),
            ..Tables::default()
        }
    }

    /// Inserts a pair and folds it into the derived participant and
    /// session tables — the paper's redundancy rule in reverse (pairs are
    /// the primary observation; participants and sessions aggregate them).
    pub fn add_pair(&mut self, row: PairRow) {
        let learned = row.learned_from;
        let at = self.captured_at;
        let (source, group, bw) = (row.source, row.group, row.current_bw);
        self.pairs.insert((group, source), row);
        if !source.is_unspecified() {
            let p = self
                .participants
                .entry(source)
                .or_insert_with(|| ParticipantRow {
                    host: source,
                    name: None,
                    group_count: 0,
                    first_seen: at,
                });
            p.group_count += 1;
        }
        let s = self.sessions.entry(group).or_insert_with(|| SessionRow {
            group,
            name: None,
            density: 0,
            bandwidth: BitRate::ZERO,
            first_advertised: learned,
            first_seen: at,
        });
        if !source.is_unspecified() {
            s.density += 1;
        }
        s.bandwidth += bw;
        // Keep the advertising protocol deterministic regardless of row
        // insertion order (enum order ranks protocol precedence), so that
        // delta-log reconstruction is exact.
        s.first_advertised = s.first_advertised.min(learned);
    }

    /// Inserts a route row.
    pub fn add_route(&mut self, row: RouteRow) {
        self.routes.insert((row.learned_from, row.prefix), row);
    }

    /// Routes of one protocol, in prefix order.
    pub fn routes_of(&self, proto: LearnedFrom) -> impl Iterator<Item = &RouteRow> {
        self.routes
            .range((proto, Prefix::DEFAULT)..)
            .take_while(move |((p, _), _)| *p == proto)
            .map(|(_, r)| r)
    }

    /// Reachable DVMRP routes — the Figures 7–9 series.
    pub fn reachable_dvmrp_routes(&self) -> usize {
        self.routes_of(LearnedFrom::Dvmrp)
            .filter(|r| r.reachable)
            .count()
    }

    /// Participants sending above `threshold` — the paper's *senders*.
    pub fn senders(&self, threshold: BitRate) -> Vec<Ip> {
        let mut out: Vec<Ip> = self
            .pairs
            .values()
            .filter(|p| p.current_bw.is_sender(threshold))
            .map(|p| p.source)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Merges another snapshot's rows into this one (multi-router
    /// aggregation). Pair rows collide only if the same `(S,G)` is seen at
    /// both routers; the higher-bandwidth observation wins (closest to the
    /// source).
    pub fn merge(&mut self, other: &Tables) {
        for ((g, s), row) in &other.pairs {
            match self.pairs.get(&(*g, *s)) {
                Some(mine) if mine.current_bw >= row.current_bw => {}
                _ => {
                    self.pairs.insert((*g, *s), row.clone());
                }
            }
        }
        for (h, row) in &other.participants {
            let e = self.participants.entry(*h).or_insert_with(|| row.clone());
            e.group_count = e.group_count.max(row.group_count);
            e.first_seen = e.first_seen.min(row.first_seen);
        }
        for (g, row) in &other.sessions {
            let e = self.sessions.entry(*g).or_insert_with(|| row.clone());
            e.density = e.density.max(row.density);
            e.bandwidth = e.bandwidth.max(row.bandwidth);
            e.first_seen = e.first_seen.min(row.first_seen);
        }
        for (k, row) in &other.routes {
            self.routes.entry(*k).or_insert_with(|| row.clone());
        }
        for (k, t) in &other.sa_cache {
            let e = self.sa_cache.entry(*k).or_insert(*t);
            *e = (*e).min(*t);
        }
    }
}

/// One snapshot's rows in arrival order, assembled into [`Tables`] by
/// one key-ordered pass per table.
///
/// [`TablesBuilder::build`] returns exactly the `Tables` that the
/// row-at-a-time calls produce: `sessions.insert` for each seeded
/// session, then, in arrival order, [`Tables::add_pair`] per pair,
/// [`Tables::add_route`] per route, `sessions.entry(group).or_insert_with`
/// per IGMP sighting and `sa_cache.insert` per SA entry. It gets there
/// without a map insert per row. Pairs, routes and SA entries are
/// stable-sorted by map key (the last row of a key wins, as repeated
/// inserts leave it) and each map is built in bulk from the distinct,
/// sorted run; participants are counted off the sorted sources; sessions
/// take one map entry per run of same-group pair rows.
#[derive(Debug, Default)]
pub struct TablesBuilder {
    pairs: Vec<PairRow>,
    routes: Vec<RouteRow>,
    /// IGMP sightings: the group, the capture's time, and how many pair
    /// rows had arrived before it.
    sightings: Vec<(GroupAddr, SimTime, usize)>,
    sa: Vec<((GroupAddr, Ip), SimTime)>,
    seeds: Vec<SessionRow>,
}

impl TablesBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        TablesBuilder::default()
    }

    /// Seeds a session as a `sessions.insert` ahead of every other row: a
    /// later seed of the same group replaces it, and its group's pair
    /// rows fold into it.
    pub fn seed_session(&mut self, row: SessionRow) {
        self.seeds.push(row);
    }

    /// An `(S,G)` row, as [`Tables::add_pair`].
    pub fn pair(&mut self, row: PairRow) {
        self.pairs.push(row);
    }

    /// A route row, as [`Tables::add_route`].
    pub fn route(&mut self, row: RouteRow) {
        self.routes.push(row);
    }

    /// IGMP membership of `group` in a capture taken at `at`: the session
    /// exists even with no `(S,G)` state yet, and no participant is
    /// invented for it.
    pub fn igmp(&mut self, group: GroupAddr, at: SimTime) {
        self.sightings.push((group, at, self.pairs.len()));
    }

    /// An MSDP source-active entry first learned at `first_learned`, as
    /// `sa_cache.insert`.
    pub fn sa(&mut self, group: GroupAddr, source: Ip, first_learned: SimTime) {
        self.sa.push(((group, source), first_learned));
    }

    /// Assembles the snapshot of `router` captured at `captured_at`.
    pub fn build(self, router: impl Into<String>, captured_at: SimTime) -> Tables {
        let at = captured_at;
        let TablesBuilder {
            pairs,
            routes,
            sightings,
            sa,
            seeds,
        } = self;
        let sessions = fold_sessions(seeds, &pairs, sightings, at);

        let mut hosts: Vec<Ip> = pairs
            .iter()
            .map(|p| p.source)
            .filter(|s| !s.is_unspecified())
            .collect();
        hosts.sort_unstable();
        let mut participants: Vec<(Ip, ParticipantRow)> = Vec::new();
        for host in hosts {
            match participants.last_mut() {
                Some((h, p)) if *h == host => p.group_count += 1,
                _ => participants.push((
                    host,
                    ParticipantRow {
                        host,
                        name: None,
                        group_count: 1,
                        first_seen: at,
                    },
                )),
            }
        }

        let pairs = last_per_key(pairs, |p| (p.group, p.source));
        let routes = last_per_key(routes, |r| (r.learned_from, r.prefix));
        let sa_cache = last_per_key(sa, |e| e.0).into_iter().map(|(k, e)| (k, e.1));
        Tables {
            captured_at,
            router: router.into(),
            pairs: pairs.into_iter().collect(),
            participants: participants.into_iter().collect(),
            sessions,
            routes: routes.into_iter().collect(),
            sa_cache: sa_cache.collect(),
        }
    }
}

/// Stable-sorts `rows` by key and keeps the last row of each key — what
/// inserting them one by one into a map leaves behind — as a distinct,
/// sorted run for a bulk build.
pub(crate) fn last_per_key<K: Ord, V>(mut rows: Vec<V>, key: impl Fn(&V) -> K) -> Vec<(K, V)> {
    rows.sort_by_key(&key);
    let mut out: Vec<(K, V)> = Vec::with_capacity(rows.len());
    for row in rows {
        let k = key(&row);
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 = row,
            _ => out.push((k, row)),
        }
    }
    out
}

/// The Session table, folded in arrival order: the seeds, then pair rows
/// and IGMP sightings as they came. A session's `first_seen` is its
/// first contribution's time, so the order matters, but a run of pair
/// rows of one group folds through a single map entry; collectors list
/// pairs grouped, so that is one entry per session, not one per row.
fn fold_sessions(
    seeds: Vec<SessionRow>,
    pairs: &[PairRow],
    sightings: Vec<(GroupAddr, SimTime, usize)>,
    at: SimTime,
) -> BTreeMap<GroupAddr, SessionRow> {
    let mut sessions = BTreeMap::new();
    for s in seeds {
        sessions.insert(s.group, s);
    }
    let new_row = |group, first_advertised, first_seen| SessionRow {
        group,
        name: None,
        density: 0,
        bandwidth: BitRate::ZERO,
        first_advertised,
        first_seen,
    };
    let mut sightings = sightings.into_iter().peekable();
    let mut start = 0;
    while let Some(first) = pairs.get(start) {
        while let Some((g, t, _)) = sightings.next_if(|s| s.2 <= start) {
            sessions
                .entry(g)
                .or_insert_with(|| new_row(g, LearnedFrom::Igmp, t));
        }
        let g = first.group;
        let run = pairs[start..].iter().take_while(|p| p.group == g);
        let s = sessions
            .entry(g)
            .or_insert_with(|| new_row(g, first.learned_from, at));
        for p in run {
            s.density += u32::from(!p.source.is_unspecified());
            s.bandwidth += p.current_bw;
            s.first_advertised = s.first_advertised.min(p.learned_from);
            start += 1;
        }
    }
    for (g, t, _) in sightings {
        sessions
            .entry(g)
            .or_insert_with(|| new_row(g, LearnedFrom::Igmp, t));
    }
    sessions
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantra_net::rate::SENDER_THRESHOLD;

    fn t0() -> SimTime {
        SimTime::from_ymd(1998, 11, 1)
    }

    fn g(i: u32) -> GroupAddr {
        GroupAddr::from_index(i)
    }

    fn pair(src: Ip, group: GroupAddr, kbps: u64) -> PairRow {
        PairRow {
            source: src,
            group,
            current_bw: BitRate::from_kbps(kbps),
            avg_bw: BitRate::from_kbps(kbps),
            forwarding: true,
            learned_from: LearnedFrom::Dvmrp,
        }
    }

    #[test]
    fn pairs_derive_participants_and_sessions() {
        let mut t = Tables::new("fixw", t0());
        let s1 = Ip::new(128, 1, 0, 2);
        let s2 = Ip::new(128, 2, 0, 2);
        t.add_pair(pair(s1, g(0), 64));
        t.add_pair(pair(s2, g(0), 1));
        t.add_pair(pair(s1, g(1), 0));
        assert_eq!(t.pairs.len(), 3);
        assert_eq!(t.participants.len(), 2);
        assert_eq!(t.participants[&s1].group_count, 2);
        assert_eq!(t.sessions.len(), 2);
        assert_eq!(t.sessions[&g(0)].density, 2);
        assert_eq!(t.sessions[&g(0)].bandwidth, BitRate::from_kbps(65));
    }

    #[test]
    fn wildcard_pairs_do_not_create_participants() {
        let mut t = Tables::new("fixw", t0());
        t.add_pair(pair(Ip::UNSPECIFIED, g(0), 0));
        assert_eq!(t.participants.len(), 0);
        assert_eq!(t.sessions[&g(0)].density, 0);
    }

    #[test]
    fn senders_use_threshold() {
        let mut t = Tables::new("fixw", t0());
        let s1 = Ip::new(128, 1, 0, 2);
        let s2 = Ip::new(128, 2, 0, 2);
        t.add_pair(pair(s1, g(0), 64));
        t.add_pair(pair(s2, g(0), 2)); // control-level
        t.add_pair(pair(s2, g(1), 3));
        assert_eq!(t.senders(SENDER_THRESHOLD), vec![s1]);
    }

    #[test]
    fn route_counting() {
        let mut t = Tables::new("ucsb", t0());
        t.add_route(RouteRow {
            prefix: "10.0.0.0/8".parse().unwrap(),
            next_hop: Some(Ip::new(10, 128, 0, 2)),
            metric: 3,
            uptime: None,
            reachable: true,
            learned_from: LearnedFrom::Dvmrp,
        });
        t.add_route(RouteRow {
            prefix: "11.0.0.0/8".parse().unwrap(),
            next_hop: None,
            metric: 32,
            uptime: None,
            reachable: false,
            learned_from: LearnedFrom::Dvmrp,
        });
        t.add_route(RouteRow {
            prefix: "10.0.0.0/8".parse().unwrap(),
            next_hop: Some(Ip::new(10, 128, 0, 9)),
            metric: 1,
            uptime: None,
            reachable: true,
            learned_from: LearnedFrom::Mbgp,
        });
        assert_eq!(t.routes.len(), 3, "same prefix, two protocols");
        assert_eq!(t.reachable_dvmrp_routes(), 1);
        assert_eq!(t.routes_of(LearnedFrom::Mbgp).count(), 1);
    }

    #[test]
    fn merge_prefers_stronger_observation() {
        let s = Ip::new(128, 1, 0, 2);
        let mut a = Tables::new("fixw", t0());
        a.add_pair(pair(s, g(0), 10));
        let mut b = Tables::new("ucsb", t0());
        b.add_pair(pair(s, g(0), 64));
        b.add_pair(pair(s, g(1), 1));
        a.merge(&b);
        assert_eq!(a.pairs[&(g(0), s)].current_bw, BitRate::from_kbps(64));
        assert_eq!(a.pairs.len(), 2);
        assert!(a.sessions.contains_key(&g(1)));
    }

    #[test]
    fn serde_round_trip() {
        let mut t = Tables::new("fixw", t0());
        t.add_pair(pair(Ip::new(1, 2, 3, 4), g(7), 64));
        let json = serde_json::to_string(&t).unwrap();
        let back: Tables = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
