//! Mantra's local data format.
//!
//! The paper defines four table kinds that "provide a standard framework
//! for storing the monitoring information": Pair, Participant, Session and
//! Route. Every raw router dump is normalised into these before anything
//! downstream (logging, statistics, display) touches it.
//!
//! Rows are plain serde-serialisable structs keyed for deterministic
//! ordering, which the delta logger depends on. Each table is a
//! [`SortedMap`]: one strictly key-sorted `Vec` of `(key, row)` entries,
//! so a snapshot's rows are contiguous, every later stage walks them in
//! key order, and dropping a snapshot frees one buffer per table.
//!
//! A snapshot is assembled in key order: the parsers and the archive
//! replay push rows into a [`TablesBuilder`] in arrival order, and
//! [`TablesBuilder::build`] sorts each kind once (a linear pass when, as
//! from the simulated CLIs, rows already arrive in key order) and hands
//! the sorted runs over as the tables themselves. [`Tables::add_pair`]
//! and [`Tables::add_route`] stay as the row-at-a-time definition the
//! builder is tested against (and the SNMP manager's way in); an insert
//! out of key order shifts the rows after it, so bulk assembly never
//! goes through them.

use std::fmt;
use std::ops::{Bound, Index, RangeBounds};

use serde::de::Deserializer;
use serde::ser::Serializer;
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

/// A map kept as one strictly key-sorted `Vec` of entries, with the part
/// of `BTreeMap`'s API the workspace uses.
///
/// A snapshot is assembled once from runs that are already in key order
/// ([`TablesBuilder::build`] hands them over as they are) and then read
/// many times — Enrich, the logger, the statistics, the consistency
/// sweep, the pages — so every walk reads contiguous rows and dropping a
/// snapshot frees one buffer per table. A lookup is a binary search. An
/// insert out of key order shifts the entries after it, which suits the
/// row-at-a-time definitions ([`Tables::add_pair`]) and hand-built
/// tables, not bulk assembly.
///
/// It serialises as the entry list `[[key, value], …]` (JSON object keys
/// must be strings, and these maps are keyed by structured types), and
/// collecting entries keeps the last value of a repeated key, as repeated
/// `BTreeMap` inserts do.
#[derive(Clone, PartialEq)]
pub struct SortedMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap::new()
    }
}

impl<K, V> SortedMap<K, V> {
    /// An empty map.
    pub const fn new() -> Self {
        SortedMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter(self.entries.iter())
    }

    /// Entries in key order, values mutable.
    pub fn iter_mut(
        &mut self,
    ) -> impl DoubleEndedIterator<Item = (&K, &mut V)> + ExactSizeIterator {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Keys in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> + ExactSizeIterator + Clone {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + ExactSizeIterator + Clone {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Values in key order, mutable.
    pub fn values_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut V> + ExactSizeIterator {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

impl<K: Ord, V> SortedMap<K, V> {
    /// Wraps entries that are already in strict key order.
    ///
    /// The buffer is trimmed to the entries: a snapshot outlives the
    /// cycle that built it, and growth slack would stay resident with it.
    pub(crate) fn from_sorted(mut entries: Vec<(K, V)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        entries.shrink_to_fit();
        SortedMap { entries }
    }

    fn search(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.search(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value under `key`, mutable.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.search(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }

    /// Sets `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The slot for `key`, filled or not.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let at = self.search(&key);
        Entry { map: self, key, at }
    }

    /// Removes `key`'s entry, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.search(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// The entries whose keys fall in `range`, in key order.
    pub fn range(&self, range: impl RangeBounds<K>) -> Iter<'_, K, V> {
        let start = match range.start_bound() {
            Bound::Included(k) => self.entries.partition_point(|(e, _)| e < k),
            Bound::Excluded(k) => self.entries.partition_point(|(e, _)| e <= k),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(k) => self.entries.partition_point(|(e, _)| e <= k),
            Bound::Excluded(k) => self.entries.partition_point(|(e, _)| e < k),
            Bound::Unbounded => self.entries.len(),
        };
        Iter(self.entries[start..end.max(start)].iter())
    }
}

/// A slot of a [`SortedMap`], from [`SortedMap::entry`].
pub struct Entry<'a, K, V> {
    map: &'a mut SortedMap<K, V>,
    key: K,
    at: Result<usize, usize>,
}

impl<'a, K, V> Entry<'a, K, V> {
    /// The slot's value, first set to `make()` when the key had none.
    pub fn or_insert_with(self, make: impl FnOnce() -> V) -> &'a mut V {
        let i = match self.at {
            Ok(i) => i,
            Err(i) => {
                self.map.entries.insert(i, (self.key, make()));
                i
            }
        };
        &mut self.map.entries[i].1
    }
}

/// A [`SortedMap`]'s entries as `(&key, &value)`, in key order.
#[derive(Clone)]
pub struct Iter<'a, K, V>(std::slice::Iter<'a, (K, V)>);

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<K, V> DoubleEndedIterator for Iter<'_, K, V> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(k, v)| (k, v))
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}

impl<'a, K, V> IntoIterator for &'a SortedMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

impl<K: Ord, V> Index<&K> for SortedMap<K, V> {
    type Output = V;

    /// Panics when `key` has no entry, as `BTreeMap`'s index does.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for SortedMap<K, V> {
    /// Sorts the entries by key, stably, and keeps each key's last value.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut entries: Vec<(K, V)> = entries.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|later, kept| {
            let repeat = later.0 == kept.0;
            if repeat {
                std::mem::swap(later, kept);
            }
            repeat
        });
        SortedMap::from_sorted(entries)
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for SortedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Serialize, V: Serialize> Serialize for SortedMap<K, V> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.collect_seq(self.iter())
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for SortedMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(Vec::<(K, V)>::deserialize(d)?.into_iter().collect())
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
    pub pairs: SortedMap<(GroupAddr, Ip), PairRow>,
    /// Participants keyed by host address.
    pub participants: SortedMap<Ip, ParticipantRow>,
    /// Sessions keyed by group.
    pub sessions: SortedMap<GroupAddr, SessionRow>,
    /// Routes keyed by protocol and prefix (a border router holds both a
    /// DVMRP and an MBGP table; they may carry the same prefix).
    pub routes: SortedMap<(LearnedFrom, Prefix), RouteRow>,
    /// The MSDP source-active cache: `(group, source) -> first-learned`.
    /// Kept separate from the pair table — SA entries advertise sessions
    /// but say nothing about forwarding state at this router.
    pub sa_cache: SortedMap<(GroupAddr, Ip), SimTime>,
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
}

/// One snapshot's rows in arrival order, assembled into [`Tables`] by
/// one key-ordered pass per table.
///
/// [`TablesBuilder::build`] returns exactly the `Tables` that the
/// row-at-a-time calls produce: `sessions.insert` for each seeded
/// session, then, in arrival order, [`Tables::add_pair`] per pair,
/// [`Tables::add_route`] per route, `sessions.entry(group).or_insert_with`
/// per IGMP sighting and `sa_cache.insert` per SA entry. It gets there
/// without a map insert per row. Pairs, routes and SA entries are kept
/// under their map keys and collected into their [`SortedMap`]s, which
/// stable-sort them (one linear pass over a run already in key order)
/// and keep the last row of a key, as repeated inserts leave it;
/// participants are counted off the sorted sources; sessions fold one
/// contribution per run of same-group pair rows.
#[derive(Debug, Default)]
pub struct TablesBuilder {
    pairs: Vec<((GroupAddr, Ip), PairRow)>,
    routes: Vec<((LearnedFrom, Prefix), RouteRow)>,
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
        self.pairs.push(((row.group, row.source), row));
    }

    /// A route row, as [`Tables::add_route`].
    pub fn route(&mut self, row: RouteRow) {
        self.routes.push(((row.learned_from, row.prefix), row));
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
            .map(|((_, source), _)| *source)
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

        Tables {
            captured_at,
            router: router.into(),
            pairs: pairs.into_iter().collect(),
            participants: SortedMap::from_sorted(participants),
            sessions,
            routes: routes.into_iter().collect(),
            sa_cache: sa.into_iter().collect(),
        }
    }
}

/// Stable-sorts `rows` by key and keeps the last row of each key — what
/// inserting them one by one into a map leaves behind — as a distinct,
/// sorted run.
pub(crate) fn last_per_key<K: Ord, V>(rows: Vec<V>, key: impl Fn(&V) -> K) -> Vec<(K, V)> {
    let map: SortedMap<K, V> = rows.into_iter().map(|row| (key(&row), row)).collect();
    map.entries
}

/// The Session table, as the arrival-order inserts fold it: the seeds,
/// then pair rows and IGMP sightings as they came. A session's
/// `first_seen` is its first contribution's time, so the order within a
/// group matters; across groups it does not. Each sighting and each run
/// of same-group pair rows (collectors list pairs grouped) becomes one
/// contribution; a stable sort by group brings each group's
/// contributions together, seeds first and the rest in arrival order,
/// and one pass folds them.
fn fold_sessions(
    seeds: Vec<SessionRow>,
    pairs: &[((GroupAddr, Ip), PairRow)],
    sightings: Vec<(GroupAddr, SimTime, usize)>,
    at: SimTime,
) -> SortedMap<GroupAddr, SessionRow> {
    let new_row = |group, first_advertised, first_seen| SessionRow {
        group,
        name: None,
        density: 0,
        bandwidth: BitRate::ZERO,
        first_advertised,
        first_seen,
    };
    // `true` marks a seed, which replaces an earlier seed of its group.
    let mut arrivals: Vec<(bool, SessionRow)> = seeds.into_iter().map(|s| (true, s)).collect();
    let mut sightings = sightings.into_iter().peekable();
    let mut start = 0;
    while let Some((_, first)) = pairs.get(start) {
        while let Some((g, t, _)) = sightings.next_if(|s| s.2 <= start) {
            arrivals.push((false, new_row(g, LearnedFrom::Igmp, t)));
        }
        let g = first.group;
        let mut s = new_row(g, first.learned_from, at);
        for (_, p) in pairs[start..].iter().take_while(|(_, p)| p.group == g) {
            s.density += u32::from(!p.source.is_unspecified());
            s.bandwidth += p.current_bw;
            s.first_advertised = s.first_advertised.min(p.learned_from);
            start += 1;
        }
        arrivals.push((false, s));
    }
    arrivals.extend(sightings.map(|(g, t, _)| (false, new_row(g, LearnedFrom::Igmp, t))));
    arrivals.sort_by_key(|(_, s)| s.group);

    let mut sessions: Vec<(GroupAddr, SessionRow)> = Vec::with_capacity(arrivals.len());
    for (seed, s) in arrivals {
        match sessions.last_mut() {
            Some((g, kept)) if *g == s.group => {
                if seed {
                    *kept = s;
                } else {
                    kept.density += s.density;
                    kept.bandwidth += s.bandwidth;
                    kept.first_advertised = kept.first_advertised.min(s.first_advertised);
                }
            }
            _ => sessions.push((s.group, s)),
        }
    }
    SortedMap::from_sorted(sessions)
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
    fn serde_round_trip() {
        let mut t = Tables::new("fixw", t0());
        t.add_pair(pair(Ip::new(1, 2, 3, 4), g(7), 64));
        let json = serde_json::to_string(&t).unwrap();
        let back: Tables = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
