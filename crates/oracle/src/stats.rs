//! Statistics and churn computed from whole snapshots, with a set, a
//! sort and a map lookup where the shipped path walks key-sorted runs:
//! the behavioural reference for `SnapshotStats::from_tables` and
//! `RouteChanges::between`, which must come out bit-identical.

use std::collections::BTreeSet;

use mantra_core::stats::{RouteChurn, RouteStats, UsageStats};
use mantra_core::tables::{LearnedFrom, Tables};
use mantra_net::BitRate;

/// `UsageStats::from_tables`.
pub trait UsageStatsExt {
    /// Computes usage statistics from one snapshot.
    fn from_tables(t: &Tables, threshold: BitRate) -> Self;
}

/// `RouteStats::from_tables`.
pub trait RouteStatsExt {
    /// Computes route statistics from one snapshot.
    fn from_tables(t: &Tables) -> Self;
}

/// `RouteChurn::between`.
pub trait RouteChurnExt {
    /// Computes churn between the DVMRP tables of two snapshots.
    fn between(prev: &Tables, next: &Tables) -> Self;
}

fn frac(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl UsageStatsExt for UsageStats {
    fn from_tables(t: &Tables, threshold: BitRate) -> Self {
        let senders = t.senders(threshold).len();
        let active = t
            .pairs
            .values()
            .filter(|p| p.current_bw.is_sender(threshold))
            .map(|p| p.group)
            .collect::<BTreeSet<_>>()
            .len();
        let sessions = t.sessions.len();
        let participants = t.participants.len();
        let densities: Vec<u32> = t.sessions.values().map(|s| s.density).collect();
        let total_density: u64 = densities.iter().map(|d| u64::from(*d)).sum();
        let avg_density = if sessions == 0 {
            0.0
        } else {
            total_density as f64 / sessions as f64
        };
        let single = densities.iter().filter(|d| **d == 1).count();
        let le2 = densities.iter().filter(|d| **d <= 2).count();
        let top6 = {
            let mut sorted = densities.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let take = (sessions * 6).div_ceil(100).max(usize::from(sessions > 0));
            let top: u64 = sorted.iter().take(take).map(|d| u64::from(*d)).sum();
            if total_density == 0 {
                0.0
            } else {
                top as f64 / total_density as f64
            }
        };
        // Bandwidth through the router: forwarding (S,G) pairs only.
        let total_bw: BitRate = t
            .pairs
            .values()
            .filter(|p| p.forwarding && !p.source.is_unspecified())
            .map(|p| p.current_bw)
            .sum();
        // Unicast-equivalent estimate: every sender's stream delivered
        // point-to-point to each of the session's other participants would
        // cross this router once per receiver (the paper's density × rate
        // model).
        let unicast_bw: u64 = t
            .pairs
            .values()
            .filter(|p| p.current_bw.is_sender(threshold))
            .map(|p| {
                let density = t
                    .sessions
                    .get(&p.group)
                    .map(|s| u64::from(s.density))
                    .unwrap_or(1);
                p.current_bw.bps() * density.saturating_sub(1).max(1)
            })
            .sum();
        let saved = if total_bw.bps() == 0 {
            0.0
        } else {
            unicast_bw as f64 / total_bw.bps() as f64
        };
        UsageStats {
            at: t.captured_at,
            sessions,
            participants,
            active_sessions: active,
            senders,
            avg_density,
            single_member_fraction: frac(single, sessions),
            le2_density_fraction: frac(le2, sessions),
            top6pct_participant_share: top6,
            total_bandwidth: total_bw,
            bandwidth_saved_multiple: saved,
            sa_entries: t.sa_cache.len(),
        }
    }
}

impl RouteStatsExt for RouteStats {
    fn from_tables(t: &Tables) -> Self {
        let uptimes: Vec<u64> = t
            .routes
            .values()
            .filter_map(|r| r.uptime.map(|u| u.as_secs()))
            .collect();
        RouteStats {
            at: t.captured_at,
            dvmrp_total: t.routes_of(LearnedFrom::Dvmrp).count(),
            dvmrp_reachable: t.reachable_dvmrp_routes(),
            mbgp_routes: t.routes_of(LearnedFrom::Mbgp).count(),
            mean_uptime_secs: if uptimes.is_empty() {
                None
            } else {
                Some(uptimes.iter().sum::<u64>() as f64 / uptimes.len() as f64)
            },
        }
    }
}

impl RouteChurnExt for RouteChurn {
    fn between(prev: &Tables, next: &Tables) -> RouteChurn {
        let mut churn = RouteChurn::default();
        for r in next.routes_of(LearnedFrom::Dvmrp) {
            match prev.routes.get(&(LearnedFrom::Dvmrp, r.prefix)) {
                None => churn.added += 1,
                Some(old) => {
                    if old.metric != r.metric || old.next_hop != r.next_hop {
                        churn.changed += 1;
                    }
                    if old.reachable != r.reachable {
                        churn.reachability_flips += 1;
                    }
                }
            }
        }
        for r in prev.routes_of(LearnedFrom::Dvmrp) {
            if !next.routes.contains_key(&(LearnedFrom::Dvmrp, r.prefix)) {
                churn.removed += 1;
            }
        }
        churn
    }
}
