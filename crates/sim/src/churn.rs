//! Deterministic topology churn: routers joining and leaving, links
//! flapping, partitions forming and healing mid-scenario.
//!
//! The paper's Mantra watched a fixed FIXW-era topology; this module is what
//! makes the monitored world move. Two entry points produce the same event
//! type:
//!
//! * [`ChurnSchedule::generate`] draws a schedule from a profile
//!   ([`ChurnProfile::Calm`], [`ChurnProfile::Flappy`],
//!   [`ChurnProfile::Partition`]) and a seed. The RNG is its own
//!   [`SimRng`] stream, so installing churn never renumbers the workload or
//!   fault-injection draw sequences of an existing scenario.
//! * [`ChurnSchedule::from_raw`] maps *arbitrary* integer triples onto valid
//!   events. This is the systematic-testing surface: a property test can
//!   hand it any shrinkable `Vec<(u16, u8, u16)>` and always get a
//!   well-formed schedule, so "any churn schedule" is a checkable
//!   quantifier, not a demo.
//!
//! Both paths are pure functions of their inputs and the topology shape —
//! the golden fixture test pins the generated sequence so an accidental
//! reordering of RNG draws shows up as a transcript diff.

use mantra_net::{DomainId, RouterId, SimDuration, SimTime};
use mantra_topology::{LinkId, Topology};

use crate::rng::SimRng;

/// One topology mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A previously departed router powers back on.
    RouterJoin(RouterId),
    /// A router powers off; all its links go down with it.
    RouterLeave(RouterId),
    /// A single link fails.
    LinkDown(LinkId),
    /// A single link recovers.
    LinkUp(LinkId),
    /// The listed domains are split from the rest of the internetwork.
    Partition {
        /// Domains on the far side of the cut.
        domains: Vec<DomainId>,
    },
    /// The current partition cut is restored.
    Heal,
}

/// A churn preset selectable as `mantra monitor --churn <profile>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnProfile {
    /// Occasional link flaps and one slow router outage.
    Calm,
    /// Routers and links bounce constantly with short gaps.
    Flappy,
    /// Whole domains split off and heal, plus background flaps.
    Partition,
}

impl ChurnProfile {
    /// Parses a CLI profile name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "calm" => Some(ChurnProfile::Calm),
            "flappy" => Some(ChurnProfile::Flappy),
            "partition" => Some(ChurnProfile::Partition),
            _ => None,
        }
    }

    /// The CLI name of the profile.
    pub fn name(&self) -> &'static str {
        match self {
            ChurnProfile::Calm => "calm",
            ChurnProfile::Flappy => "flappy",
            ChurnProfile::Partition => "partition",
        }
    }
}

/// The number of equal time slots a scenario window is divided into; raw-op
/// slots are taken modulo this.
pub const CHURN_SLOTS: u16 = 96;

/// An abstract churn instruction `(slot, kind, target)`. Any value is valid:
/// `slot` wraps modulo [`CHURN_SLOTS`], `kind` wraps modulo six, and
/// `target` wraps modulo the relevant candidate list. Property tests shrink
/// these directly.
pub type RawChurnOp = (u16, u8, u16);

/// One scheduled mutation with a human-readable label for event strips.
#[derive(Clone, Debug)]
pub struct ChurnEntry {
    /// When the mutation fires.
    pub at: SimTime,
    /// The mutation itself.
    pub event: ChurnEvent,
    /// Display label (`router ucsb-gw leaves`, `partition {mbone-2}`, …).
    pub label: String,
}

/// A deterministic, time-ordered list of topology mutations.
#[derive(Clone, Debug, Default)]
pub struct ChurnSchedule {
    /// Events in firing order.
    pub events: Vec<ChurnEntry>,
}

impl ChurnSchedule {
    /// Maps arbitrary raw ops onto a valid schedule over `[start, end)`.
    ///
    /// Routers in `protected` (and domains containing them) are never
    /// churned — the collection point has to stay reachable for captures to
    /// mean anything. With no eligible candidate for an op's kind, the op is
    /// skipped.
    pub fn from_raw(
        raw: &[RawChurnOp],
        topo: &Topology,
        protected: &[RouterId],
        start: SimTime,
        end: SimTime,
    ) -> ChurnSchedule {
        let window = end.0.saturating_sub(start.0).max(1);
        let slot_len = (window / u64::from(CHURN_SLOTS)).max(1);
        let routers: Vec<RouterId> = topo
            .routers()
            .iter()
            .filter(|r| !protected.contains(&r.id))
            .map(|r| r.id)
            .collect();
        let links: Vec<LinkId> = topo.links().iter().map(|l| l.id).collect();
        let domains: Vec<DomainId> = topo
            .domains()
            .iter()
            .filter(|d| !d.routers.iter().any(|r| protected.contains(r)))
            .map(|d| d.id)
            .collect();

        let mut entries: Vec<(u64, usize, ChurnEvent)> = Vec::new();
        for (i, (slot, kind, target)) in raw.iter().enumerate() {
            let at = start.0 + u64::from(slot % CHURN_SLOTS) * slot_len;
            let target = usize::from(*target);
            let event = match kind % 6 {
                0 if !routers.is_empty() => {
                    ChurnEvent::RouterLeave(routers[target % routers.len()])
                }
                1 if !routers.is_empty() => ChurnEvent::RouterJoin(routers[target % routers.len()]),
                2 if !links.is_empty() => ChurnEvent::LinkDown(links[target % links.len()]),
                3 if !links.is_empty() => ChurnEvent::LinkUp(links[target % links.len()]),
                4 if !domains.is_empty() => {
                    // One or two adjacent domains split off together.
                    let first = target % domains.len();
                    let mut doms = vec![domains[first]];
                    if target % 3 == 0 && domains.len() > 1 {
                        doms.push(domains[(first + 1) % domains.len()]);
                        doms.sort_unstable();
                        doms.dedup();
                    }
                    ChurnEvent::Partition { domains: doms }
                }
                5 => ChurnEvent::Heal,
                _ => continue,
            };
            entries.push((at, i, event));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        ChurnSchedule {
            events: entries
                .into_iter()
                .map(|(at, _, event)| {
                    let label = label_for(&event, topo);
                    ChurnEntry {
                        at: SimTime(at),
                        event,
                        label,
                    }
                })
                .collect(),
        }
    }

    /// Draws a profile-shaped schedule from its own seeded RNG stream.
    ///
    /// Incidents are paired — every leave schedules the matching rejoin,
    /// every link-down its recovery, every partition its heal — with
    /// durations long enough (relative to the window) that a monitored
    /// router can pass through `Stale` into `Retired` and come back.
    pub fn generate(
        profile: ChurnProfile,
        seed: u64,
        topo: &Topology,
        protected: &[RouterId],
        start: SimTime,
        end: SimTime,
    ) -> ChurnSchedule {
        // Independent stream: never perturbs workload/fault RNG sequences.
        let mut rng = SimRng::seeded(seed ^ 0xC4_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut raw: Vec<RawChurnOp> = Vec::new();
        let slots = u64::from(CHURN_SLOTS);
        let pair = |rng: &mut SimRng,
                    raw: &mut Vec<RawChurnOp>,
                    down_kind: u8,
                    up_kind: u8,
                    min_dur: u64,
                    max_dur: u64| {
            let slot = rng.range_u64(2, slots - 2);
            let dur = rng.range_u64(min_dur, max_dur);
            let target = rng.range_u64(0, u64::from(u16::MAX)) as u16;
            raw.push((slot as u16, down_kind, target));
            let back = slot + dur;
            if back < slots {
                raw.push((back as u16, up_kind, target));
            }
        };
        match profile {
            ChurnProfile::Calm => {
                for _ in 0..3 {
                    pair(&mut rng, &mut raw, 2, 3, 2, 6); // link flaps
                }
                pair(&mut rng, &mut raw, 0, 1, 8, 20); // one long router outage
            }
            ChurnProfile::Flappy => {
                for _ in 0..6 {
                    pair(&mut rng, &mut raw, 0, 1, 1, 10); // router bounces
                }
                for _ in 0..6 {
                    pair(&mut rng, &mut raw, 2, 3, 1, 4); // link flaps
                }
            }
            ChurnProfile::Partition => {
                for _ in 0..2 {
                    pair(&mut rng, &mut raw, 4, 5, 6, 18); // split + heal
                }
                for _ in 0..2 {
                    pair(&mut rng, &mut raw, 2, 3, 2, 5); // background flaps
                }
                pair(&mut rng, &mut raw, 0, 1, 10, 24); // one router outage
            }
        }
        ChurnSchedule::from_raw(&raw, topo, protected, start, end)
    }

    /// The human-readable event strip: `(time, label)` pairs in firing
    /// order, optionally truncated to events at or before `upto`.
    pub fn strip(&self, upto: Option<SimTime>) -> Vec<(SimTime, String)> {
        self.events
            .iter()
            .filter(|e| upto.is_none_or(|t| e.at <= t))
            .map(|e| (e.at, e.label.clone()))
            .collect()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

fn label_for(event: &ChurnEvent, topo: &Topology) -> String {
    match event {
        ChurnEvent::RouterJoin(r) => format!("router {} joins", topo.router(*r).name),
        ChurnEvent::RouterLeave(r) => format!("router {} leaves", topo.router(*r).name),
        ChurnEvent::LinkDown(l) => {
            let l = topo.link(*l);
            format!(
                "link {}--{} down",
                topo.router(l.a.router).name,
                topo.router(l.b.router).name
            )
        }
        ChurnEvent::LinkUp(l) => {
            let l = topo.link(*l);
            format!(
                "link {}--{} up",
                topo.router(l.a.router).name,
                topo.router(l.b.router).name
            )
        }
        ChurnEvent::Partition { domains } => {
            let names: Vec<&str> = domains
                .iter()
                .map(|d| topo.domain(*d).name.as_str())
                .collect();
            format!("partition {{{}}}", names.join(", "))
        }
        ChurnEvent::Heal => "heal".to_string(),
    }
}

/// Convenience: the duration of one churn slot for a window.
pub fn slot_duration(start: SimTime, end: SimTime) -> SimDuration {
    SimDuration::secs((end.0.saturating_sub(start.0).max(1) / u64::from(CHURN_SLOTS)).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantra_topology::reference::{mbone_1998, TopologyConfig};

    fn topo() -> (Topology, RouterId) {
        let r = mbone_1998(&TopologyConfig {
            domains: 4,
            routers_per_domain: 2,
            leaves_per_router: 1,
            native_fraction: 0.0,
        });
        (r.topo, r.fixw)
    }

    fn window() -> (SimTime, SimTime) {
        let start = SimTime::from_ymd(1999, 3, 1);
        (start, start + SimDuration::days(7))
    }

    #[test]
    fn generate_is_deterministic() {
        let (t, fixw) = topo();
        let (s, e) = window();
        for profile in [
            ChurnProfile::Calm,
            ChurnProfile::Flappy,
            ChurnProfile::Partition,
        ] {
            let a = ChurnSchedule::generate(profile, 42, &t, &[fixw], s, e);
            let b = ChurnSchedule::generate(profile, 42, &t, &[fixw], s, e);
            assert!(!a.is_empty());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.events.iter().zip(&b.events) {
                assert_eq!(x.at, y.at);
                assert_eq!(x.event, y.event);
                assert_eq!(x.label, y.label);
            }
            let c = ChurnSchedule::generate(profile, 43, &t, &[fixw], s, e);
            assert!(
                a.len() != c.len()
                    || a.events
                        .iter()
                        .zip(&c.events)
                        .any(|(x, y)| x.at != y.at || x.event != y.event),
                "different seeds should differ for {profile:?}"
            );
        }
    }

    #[test]
    fn from_raw_accepts_arbitrary_ops() {
        let (t, fixw) = topo();
        let (s, e) = window();
        // Degenerate and out-of-range values all map to something valid.
        let raw: Vec<RawChurnOp> = vec![
            (0, 0, 0),
            (u16::MAX, u8::MAX, u16::MAX),
            (50, 4, 3),
            (50, 4, 9),
            (51, 5, 0),
            (1, 17, 12345),
        ];
        let sched = ChurnSchedule::from_raw(&raw, &t, &[fixw], s, e);
        assert_eq!(sched.len(), raw.len());
        // Events are time-ordered.
        for w in sched.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // Protected routers never appear in router events.
        for ev in &sched.events {
            match &ev.event {
                ChurnEvent::RouterJoin(r) | ChurnEvent::RouterLeave(r) => {
                    assert_ne!(*r, fixw, "fixw is protected")
                }
                ChurnEvent::Partition { domains } => {
                    assert!(!domains.is_empty());
                    let fixw_dom = t.router(fixw).domain;
                    assert!(!domains.contains(&fixw_dom));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn strip_filters_by_time() {
        let (t, fixw) = topo();
        let (s, e) = window();
        let sched = ChurnSchedule::generate(ChurnProfile::Partition, 1, &t, &[fixw], s, e);
        let all = sched.strip(None);
        assert_eq!(all.len(), sched.len());
        let none = sched.strip(Some(s));
        assert!(none.len() < all.len());
        assert!(sched.events.iter().any(|e| e.label.contains("partition")));
    }
}
