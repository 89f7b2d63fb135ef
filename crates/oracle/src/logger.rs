//! The `BTreeMap` delta codec: each section collected into a map by key,
//! then compared (diff) or overwritten (apply) key by key. Duplicate keys
//! keep their last row, and a removal beats an upsert of the same key.

use std::collections::BTreeMap;

use mantra_core::logger::{SnapshotParts, TableDelta};
use mantra_core::tables::{LearnedFrom, PairRow, RouteRow, SessionRow};
use mantra_net::{GroupAddr, Ip, Prefix, SimTime};

/// The delta taking `prev` to `next`: the behavioural reference for
/// `mantra_core::logger::diff`.
pub fn diff_reference(prev: &SnapshotParts, next: &SnapshotParts) -> TableDelta {
    let mut d = TableDelta {
        captured_at: next.captured_at,
        ..TableDelta::default()
    };
    // Pairs.
    let prev_pairs: BTreeMap<(GroupAddr, Ip), &PairRow> = prev
        .pairs
        .iter()
        .map(|p| ((p.group, p.source), p))
        .collect();
    let next_pairs: BTreeMap<(GroupAddr, Ip), &PairRow> = next
        .pairs
        .iter()
        .map(|p| ((p.group, p.source), p))
        .collect();
    for (k, row) in &next_pairs {
        if prev_pairs.get(k) != Some(row) {
            d.pair_upserts.push((*row).clone());
        }
    }
    for k in prev_pairs.keys() {
        if !next_pairs.contains_key(k) {
            d.pair_removals.push(*k);
        }
    }
    // Routes.
    let prev_routes: BTreeMap<(LearnedFrom, Prefix), &RouteRow> = prev
        .routes
        .iter()
        .map(|r| ((r.learned_from, r.prefix), r))
        .collect();
    let next_routes: BTreeMap<(LearnedFrom, Prefix), &RouteRow> = next
        .routes
        .iter()
        .map(|r| ((r.learned_from, r.prefix), r))
        .collect();
    for (k, row) in &next_routes {
        if prev_routes.get(k) != Some(row) {
            d.route_upserts.push((*row).clone());
        }
    }
    for k in prev_routes.keys() {
        if !next_routes.contains_key(k) {
            d.route_removals.push(*k);
        }
    }
    // SA cache.
    let prev_sa: BTreeMap<(GroupAddr, Ip), SimTime> = prev
        .sa_cache
        .iter()
        .map(|(g, s, t)| ((*g, *s), *t))
        .collect();
    let next_sa: BTreeMap<(GroupAddr, Ip), SimTime> = next
        .sa_cache
        .iter()
        .map(|(g, s, t)| ((*g, *s), *t))
        .collect();
    for (k, t) in &next_sa {
        if prev_sa.get(k) != Some(t) {
            d.sa_upserts.push((k.0, k.1, *t));
        }
    }
    for k in prev_sa.keys() {
        if !next_sa.contains_key(k) {
            d.sa_removals.push(*k);
        }
    }
    // Member-only sessions.
    let prev_s: BTreeMap<GroupAddr, &SessionRow> = prev
        .member_only_sessions
        .iter()
        .map(|s| (s.group, s))
        .collect();
    let next_s: BTreeMap<GroupAddr, &SessionRow> = next
        .member_only_sessions
        .iter()
        .map(|s| (s.group, s))
        .collect();
    for (g, row) in &next_s {
        if prev_s.get(g) != Some(row) {
            d.session_upserts.push((*row).clone());
        }
    }
    for g in prev_s.keys() {
        if !next_s.contains_key(g) {
            d.session_removals.push(*g);
        }
    }
    d
}

/// `delta` applied to `base`: the behavioural reference for
/// `mantra_core::logger::apply`.
pub fn apply_reference(base: &SnapshotParts, delta: &TableDelta) -> SnapshotParts {
    let mut pairs: BTreeMap<(GroupAddr, Ip), PairRow> = base
        .pairs
        .iter()
        .map(|p| ((p.group, p.source), p.clone()))
        .collect();
    for p in &delta.pair_upserts {
        pairs.insert((p.group, p.source), p.clone());
    }
    for k in &delta.pair_removals {
        pairs.remove(k);
    }
    let mut routes: BTreeMap<(LearnedFrom, Prefix), RouteRow> = base
        .routes
        .iter()
        .map(|r| ((r.learned_from, r.prefix), r.clone()))
        .collect();
    for r in &delta.route_upserts {
        routes.insert((r.learned_from, r.prefix), r.clone());
    }
    for k in &delta.route_removals {
        routes.remove(k);
    }
    let mut sa: BTreeMap<(GroupAddr, Ip), SimTime> = base
        .sa_cache
        .iter()
        .map(|(g, s, t)| ((*g, *s), *t))
        .collect();
    for (g, s, t) in &delta.sa_upserts {
        sa.insert((*g, *s), *t);
    }
    for k in &delta.sa_removals {
        sa.remove(k);
    }
    let mut sessions: BTreeMap<GroupAddr, SessionRow> = base
        .member_only_sessions
        .iter()
        .map(|s| (s.group, s.clone()))
        .collect();
    for s in &delta.session_upserts {
        sessions.insert(s.group, s.clone());
    }
    for g in &delta.session_removals {
        sessions.remove(g);
    }
    SnapshotParts {
        captured_at: delta.captured_at,
        router: base.router.clone(),
        pairs: pairs.into_values().collect(),
        routes: routes.into_values().collect(),
        sa_cache: sa.into_iter().map(|((g, s), t)| (g, s, t)).collect(),
        member_only_sessions: sessions.into_values().collect(),
    }
}
