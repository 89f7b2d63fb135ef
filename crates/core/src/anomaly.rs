//! Anomaly detection over monitoring results.
//!
//! The paper shows Mantra's data being used to *detect and debug* routing
//! problems: the flagship example is Figure 9's unicast route injection
//! (a sharp spike in the mrouted route table on 1998-10-14, diagnosed
//! off-line as leaked unicast routes). This module automates the
//! detections the authors did by eye:
//!
//! * [`SpikeDetector`] — an online robust z-score detector over any
//!   series (route counts, session counts),
//! * the specific signature of route injection — a mass of brand-new
//!   routes arriving in one snapshot through one gateway — checked by
//!   [`crate::stats_stream::RouteChanges::injection`] on the merge join
//!   of each cycle's DVMRP routes with the previous snapshot's,
//! * [`InconsistencyMonitor`] — cross-router DVMRP divergence beyond a
//!   floor (the paper's "inconsistent state" observation).
//!
//! The direct forms these detectors are property-tested against — the
//! injection check over two whole snapshots and the sweep comparing every
//! router pair in full — live in the test-support crate `mantra-oracle`.

use serde::{Deserialize, Serialize};

use mantra_net::{Ip, SimTime};

use crate::stats::{ConsistencyMatrix, ConsistencyReport};
use crate::tables::Tables;

/// A detected anomaly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Anomaly {
    /// When the triggering snapshot was captured.
    pub at: SimTime,
    /// Which router's data triggered it.
    pub router: String,
    /// The other router involved, for detections that compare two routers
    /// (cross-router inconsistency names both sides rather than blaming
    /// whichever router sorts first). `None` for single-router detections.
    pub peer: Option<String>,
    /// What was detected.
    pub kind: AnomalyKind,
}

/// Classification of detected anomalies.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// A value jumped far above its recent baseline.
    Spike {
        /// The offending value.
        value: f64,
        /// The recent baseline (median).
        baseline: f64,
    },
    /// A value crashed far below its recent baseline.
    Crash {
        /// The offending value.
        value: f64,
        /// The recent baseline (median).
        baseline: f64,
    },
    /// Route-injection signature: many new routes via one gateway at once.
    RouteInjection {
        /// How many routes appeared in one snapshot.
        new_routes: usize,
        /// The gateway that sourced most of them, when identifiable.
        gateway: Option<Ip>,
        /// Fraction of the new routes behind that gateway.
        gateway_share: f64,
    },
    /// Two routers' DVMRP views diverged beyond tolerance.
    Inconsistency {
        /// The other router.
        peer: String,
        /// Jaccard similarity of reachable route sets.
        similarity: f64,
    },
}

/// Online spike/crash detector using median ± k·MAD over a sliding window.
/// Median/MAD rather than mean/stddev so a single spike does not poison
/// the baseline it is judged against.
#[derive(Clone, Debug)]
pub struct SpikeDetector {
    window: Vec<f64>,
    capacity: usize,
    /// Robust z-score threshold.
    pub k: f64,
    /// Ignore deviations smaller than this absolute floor (quiet series
    /// otherwise alert on noise).
    pub min_delta: f64,
}

impl SpikeDetector {
    /// Detector with a `capacity`-sample baseline and threshold `k`.
    pub fn new(capacity: usize, k: f64, min_delta: f64) -> Self {
        SpikeDetector {
            window: Vec::with_capacity(capacity),
            capacity: capacity.max(4),
            k,
            min_delta,
        }
    }

    fn median(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let n = xs.len();
        if n.is_multiple_of(2) {
            (xs[n / 2 - 1] + xs[n / 2]) / 2.0
        } else {
            xs[n / 2]
        }
    }

    /// Feeds one observation; returns a detection against the *previous*
    /// baseline, then folds the observation in.
    pub fn observe(&mut self, value: f64) -> Option<AnomalyKind> {
        let detection = if self.window.len() >= self.capacity / 2 {
            let baseline = Self::median(self.window.clone());
            let mad = Self::median(
                self.window
                    .iter()
                    .map(|x| (x - baseline).abs())
                    .collect::<Vec<_>>(),
            )
            .max(1e-9);
            let delta = value - baseline;
            if delta.abs() >= self.min_delta && delta.abs() / (1.4826 * mad) >= self.k {
                Some(if delta > 0.0 {
                    AnomalyKind::Spike { value, baseline }
                } else {
                    AnomalyKind::Crash { value, baseline }
                })
            } else {
                None
            }
        } else {
            None
        };
        // Outliers do not enter the baseline; normal values do.
        if detection.is_none() {
            if self.window.len() == self.capacity {
                self.window.remove(0);
            }
            self.window.push(value);
        }
        detection
    }
}

/// Flags cross-router DVMRP divergence beyond a similarity floor.
#[derive(Clone, Copy, Debug)]
pub struct InconsistencyMonitor {
    /// Minimum acceptable Jaccard similarity.
    pub min_similarity: f64,
    /// Ignore comparisons where either table is smaller than this (tiny
    /// tables make similarity meaningless).
    pub min_routes: usize,
}

impl Default for InconsistencyMonitor {
    fn default() -> Self {
        InconsistencyMonitor {
            min_similarity: 0.85,
            min_routes: 20,
        }
    }
}

impl InconsistencyMonitor {
    /// Every pair of `views` whose reachable DVMRP sets are less similar
    /// than the floor, as `(i, j, report)` in `(i, j)` order with `i < j`.
    /// Views below the route floor sit out. The [`ConsistencyMatrix`]
    /// group-by join merges each distinct pair of views once, instead of
    /// once per router pair.
    pub(crate) fn divergent_pairs(
        &self,
        views: &[&Tables],
    ) -> Vec<(usize, usize, ConsistencyReport)> {
        let mut matrix = ConsistencyMatrix::build(views, self.min_routes);
        let mut out = Vec::new();
        for i in 0..views.len() {
            if !matrix.eligible(i) {
                continue;
            }
            for j in (i + 1)..views.len() {
                let Some(report) = matrix.report(i, j) else {
                    continue;
                };
                if report.similarity() < self.min_similarity {
                    out.push((i, j, report));
                }
            }
        }
        out
    }

    /// All pairwise inconsistency anomalies among `views`, in `(i, j)`
    /// order with `i < j` — identical to comparing every pair in full.
    pub fn sweep(&self, views: &[&Tables], now: SimTime) -> Vec<Anomaly> {
        self.divergent_pairs(views)
            .into_iter()
            .map(|(i, j, report)| Anomaly {
                at: now,
                router: views[i].router.clone(),
                peer: Some(views[j].router.clone()),
                kind: AnomalyKind::Inconsistency {
                    peer: views[j].router.clone(),
                    similarity: report.similarity(),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats_stream::RouteChanges;
    use crate::tables::{LearnedFrom, RouteRow};
    use mantra_net::Prefix;

    fn t0() -> SimTime {
        SimTime::from_ymd(1998, 10, 14)
    }

    /// The injection check as the Analyse stage runs it: on the route
    /// changes taking `prev` to `next`.
    fn detect_injection(prev: &Tables, next: &Tables, min_new: usize) -> Option<AnomalyKind> {
        RouteChanges::between(prev, next).injection(min_new)
    }

    fn table_with_routes(n: u32, gw: Ip) -> Tables {
        let mut t = Tables::new("ucsb", t0());
        for i in 0..n {
            t.add_route(RouteRow {
                prefix: Prefix::new(Ip(Ip::new(128, 0, 0, 0).0 + (i << 16)), 16).unwrap(),
                next_hop: Some(gw),
                metric: 3,
                uptime: None,
                reachable: true,
                learned_from: LearnedFrom::Dvmrp,
            });
        }
        t
    }

    #[test]
    fn spike_detector_fires_on_jump_not_noise() {
        let mut d = SpikeDetector::new(16, 6.0, 50.0);
        for i in 0..16 {
            assert_eq!(d.observe(1_000.0 + (i % 5) as f64 * 10.0), None);
        }
        let hit = d.observe(3_400.0);
        assert!(matches!(hit, Some(AnomalyKind::Spike { .. })), "{hit:?}");
        // The spike did not poison the baseline: a return to normal is
        // quiet, another spike still fires.
        assert_eq!(d.observe(1_020.0), None);
        assert!(matches!(
            d.observe(3_400.0),
            Some(AnomalyKind::Spike { .. })
        ));
        // And a crash fires downward.
        assert!(matches!(d.observe(10.0), Some(AnomalyKind::Crash { .. })));
    }

    #[test]
    fn spike_detector_respects_min_delta() {
        let mut d = SpikeDetector::new(8, 3.0, 500.0);
        for _ in 0..8 {
            d.observe(100.0);
        }
        // Relative jump is huge but below the absolute floor.
        assert_eq!(d.observe(400.0), None);
    }

    #[test]
    fn injection_signature() {
        let gw_normal = Ip::new(10, 0, 0, 1);
        let gw_leak = Ip::new(10, 9, 9, 9);
        let prev = table_with_routes(50, gw_normal);
        let mut next = table_with_routes(50, gw_normal);
        for i in 0..2_000u32 {
            next.add_route(RouteRow {
                prefix: Prefix::new(
                    Ip(Ip::new(192, 0, 0, 0).0 + ((i / 256) << 16) + ((i % 256) << 8)),
                    24,
                )
                .unwrap(),
                next_hop: Some(gw_leak),
                metric: 1,
                uptime: None,
                reachable: true,
                learned_from: LearnedFrom::Dvmrp,
            });
        }
        let hit = detect_injection(&prev, &next, 100).unwrap();
        match hit {
            AnomalyKind::RouteInjection {
                new_routes,
                gateway,
                gateway_share,
            } => {
                assert_eq!(new_routes, 2_000);
                assert_eq!(gateway, Some(gw_leak));
                assert!(gateway_share > 0.99);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // No detection between identical snapshots.
        assert!(detect_injection(&prev, &prev, 100).is_none());
        // Nor when growth is spread across gateways.
        let mut organic = table_with_routes(50, gw_normal);
        for i in 0..200u32 {
            organic.add_route(RouteRow {
                prefix: Prefix::new(Ip(Ip::new(172, 16, 0, 0).0 + (i << 8)), 24).unwrap(),
                next_hop: Some(Ip(Ip::new(10, 0, 0, 0).0 + i % 5)),
                metric: 2,
                uptime: None,
                reachable: true,
                learned_from: LearnedFrom::Dvmrp,
            });
        }
        assert!(detect_injection(&prev, &organic, 100).is_none());
    }

    #[test]
    fn inconsistency_monitor_thresholds() {
        let gw = Ip::new(10, 0, 0, 1);
        let a = table_with_routes(100, gw);
        let mut b = table_with_routes(60, gw); // missing 40 routes
        b.router = "fixw".into();
        let mon = InconsistencyMonitor::default();
        let pairs = mon.divergent_pairs(&[&a, &b]);
        let [(0, 1, report)] = pairs[..] else {
            panic!("divergence detected: {pairs:?}");
        };
        assert_eq!(report.only_first, 40);
        let swept = mon.sweep(&[&a, &b], t0());
        assert!(
            matches!(&swept[0].kind, AnomalyKind::Inconsistency { similarity, .. } if *similarity < 0.85)
        );
        // Similar tables pass.
        let c = table_with_routes(98, gw);
        assert!(mon.divergent_pairs(&[&a, &c]).is_empty());
        // Tiny tables are skipped.
        let tiny_a = table_with_routes(5, gw);
        let tiny_b = table_with_routes(1, gw);
        assert!(mon.divergent_pairs(&[&tiny_a, &tiny_b]).is_empty());
    }
}
