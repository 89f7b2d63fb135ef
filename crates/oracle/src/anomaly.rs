//! The detectors in their direct form: every router pair compared in
//! full, and route injection read off two whole snapshots.

use std::collections::BTreeMap;

use mantra_core::anomaly::{Anomaly, AnomalyKind, InconsistencyMonitor};
use mantra_core::stats::{ConsistencyReport, RouteChurn};
use mantra_core::tables::{LearnedFrom, Tables};
use mantra_net::{Ip, SimTime};

use crate::stats::RouteChurnExt;

/// The pairwise consistency check and sweep.
pub trait InconsistencyMonitorExt {
    /// Compares two routers' snapshots: the report and the anomaly when
    /// both clear the route floor and their similarity is below the
    /// monitor's.
    fn check(&self, a: &Tables, b: &Tables) -> Option<(ConsistencyReport, AnomalyKind)>;

    /// Every pair of `views` compared through
    /// [`InconsistencyMonitorExt::check`], in `(i, j)` order with
    /// `i < j`: the behavioural reference for `InconsistencyMonitor::sweep`.
    fn sweep_reference(&self, views: &[&Tables], now: SimTime) -> Vec<Anomaly>;
}

impl InconsistencyMonitorExt for InconsistencyMonitor {
    fn check(&self, a: &Tables, b: &Tables) -> Option<(ConsistencyReport, AnomalyKind)> {
        if a.reachable_dvmrp_routes() < self.min_routes
            || b.reachable_dvmrp_routes() < self.min_routes
        {
            return None;
        }
        let report = ConsistencyReport::between(a, b);
        let similarity = report.similarity();
        if similarity < self.min_similarity {
            Some((
                report,
                AnomalyKind::Inconsistency {
                    peer: b.router.clone(),
                    similarity,
                },
            ))
        } else {
            None
        }
    }

    fn sweep_reference(&self, views: &[&Tables], now: SimTime) -> Vec<Anomaly> {
        let mut out = Vec::new();
        for i in 0..views.len() {
            for j in (i + 1)..views.len() {
                if let Some((_, kind)) = self.check(views[i], views[j]) {
                    out.push(Anomaly {
                        at: now,
                        router: views[i].router.clone(),
                        peer: Some(views[j].router.clone()),
                        kind,
                    });
                }
            }
        }
        out
    }
}

/// Checks consecutive snapshots for the route-injection signature: at
/// least `min_new` routes appearing at once, mostly via one gateway. The
/// behavioural reference for `RouteChanges::injection`.
pub fn detect_injection(prev: &Tables, next: &Tables, min_new: usize) -> Option<AnomalyKind> {
    let churn = RouteChurn::between(prev, next);
    if churn.added < min_new {
        return None;
    }
    // Attribute the new routes to gateways.
    let mut by_gw: BTreeMap<Option<Ip>, usize> = BTreeMap::new();
    let mut new_routes = 0usize;
    for r in next.routes_of(LearnedFrom::Dvmrp) {
        if !prev.routes.contains_key(&(LearnedFrom::Dvmrp, r.prefix)) {
            *by_gw.entry(r.next_hop).or_default() += 1;
            new_routes += 1;
        }
    }
    let (gateway, count) = by_gw
        .into_iter()
        .max_by_key(|(_, c)| *c)
        .unwrap_or((None, 0));
    let share = count as f64 / new_routes.max(1) as f64;
    if share >= 0.8 {
        Some(AnomalyKind::RouteInjection {
            new_routes,
            gateway,
            gateway_share: share,
        })
    } else {
        None
    }
}
