//! The simulation driver and the paper's evaluation scenarios.
//!
//! [`Simulation`] owns the network, the session registry, the workload and
//! the event queue, and advances virtual time. Scenario constructors wire
//! up the timelines behind each figure:
//!
//! * [`Scenario::fixw_six_months`] — Nov 1998 → Apr 1999 at FIXW + UCSB,
//!   with the 43rd IETF in early December and the sparse-mode transition
//!   migrating domains from February on (Figures 3–7),
//! * [`Scenario::dvmrp_two_years`] — the 24-month DVMRP decline
//!   (Figure 8),
//! * [`Scenario::ucsb_injection_day`] — 1998-10-14 at the UCSB `mrouted`,
//!   with the 14:00 unicast route injection (Figure 9).

use mantra_net::{RouterId, SimDuration, SimTime};
use mantra_protocols::dvmrp::DvmrpTimers;
use mantra_topology::reference::{
    fleet_internetwork, mbone_1998, transition_internetwork, ucsb_campus, ReferenceTopology,
    TopologyConfig,
};
use mantra_topology::ProtocolSuite;

use crate::churn::{ChurnEvent, ChurnProfile, ChurnSchedule};
use crate::event::{Event, EventQueue};
use crate::network::Network;
use crate::rng::SimRng;
use crate::session::SessionRegistry;
use crate::trees::TreeBuilder;
use crate::workload::{Workload, WorkloadConfig};

/// Simulation-wide knobs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed; every run with the same seed is identical.
    pub seed: u64,
    /// Scenario start.
    pub start: SimTime,
    /// Scenario end (events after this are ignored).
    pub end: SimTime,
    /// Routing/monitoring tick (the cadence router state evolves at).
    pub tick: SimDuration,
    /// Per-round probability of losing one DVMRP report.
    pub report_loss: f64,
    /// Synthetic extra /24s each domain border advertises (table realism).
    pub extra_prefixes_per_domain: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1998,
            start: SimTime::from_ymd(1998, 11, 1),
            end: SimTime::from_ymd(1999, 4, 30),
            tick: SimDuration::mins(15),
            report_loss: 0.02,
            extra_prefixes_per_domain: 40,
        }
    }
}

/// A fully wired scenario ready to run.
pub struct Scenario {
    /// The simulation.
    pub sim: Simulation,
    /// The FIXW-equivalent collection point.
    pub fixw: RouterId,
    /// The UCSB-equivalent collection point.
    pub ucsb: RouterId,
}

/// The discrete-event simulation.
pub struct Simulation {
    /// The live network (topology + protocol engines + MFIBs).
    pub net: Network,
    /// Ground-truth sessions.
    pub sessions: SessionRegistry,
    /// Current virtual time.
    pub clock: SimTime,
    /// Routers whose forwarding state is materialised and scrapeable.
    pub monitored: Vec<RouterId>,
    cfg: SimConfig,
    queue: EventQueue,
    workload: Workload,
    trees: TreeBuilder,
    fault_rng: SimRng,
    injection_target: RouterId,
    ticks_run: u64,
    churn: ChurnSchedule,
}

impl Simulation {
    /// Builds a simulation over `reference`, monitoring `monitored`.
    pub fn new(
        reference: ReferenceTopology,
        monitored: Vec<RouterId>,
        cfg: SimConfig,
        wl_cfg: WorkloadConfig,
    ) -> Self {
        let mut master = SimRng::seeded(cfg.seed);
        let wl_rng = master.fork(1);
        let fault_rng = master.fork(2);
        let timers = DvmrpTimers::scaled_to(cfg.tick);
        let net = Network::new(
            reference.topo,
            cfg.start,
            timers,
            cfg.extra_prefixes_per_domain,
        );
        let workload = Workload::new(wl_cfg, &net.topo, wl_rng);
        let injection_target = *monitored.first().expect("at least one monitored router");
        let mut sim = Simulation {
            net,
            sessions: SessionRegistry::new(),
            clock: cfg.start,
            monitored,
            cfg,
            queue: EventQueue::new(),
            workload,
            trees: TreeBuilder::new(),
            fault_rng,
            injection_target,
            ticks_run: 0,
            churn: ChurnSchedule::default(),
        };
        // Recurring machinery.
        let first_arrival = sim.cfg.start + sim.workload.next_arrival_delay(sim.cfg.start);
        sim.queue.schedule(first_arrival, Event::SessionArrival);
        sim.queue
            .schedule(sim.cfg.start + sim.cfg.tick, Event::Tick);
        sim
    }

    /// The router targeted by route-injection anomalies.
    pub fn set_injection_target(&mut self, r: RouterId) {
        self.injection_target = r;
    }

    /// Adjusts the per-round DVMRP report-loss probability (drives route
    /// instability and inter-router inconsistency).
    pub fn set_report_loss(&mut self, loss: f64) {
        self.cfg.report_loss = loss.clamp(0.0, 1.0);
    }

    /// Schedules a scenario event at an absolute time.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        self.queue.schedule(at, event);
    }

    /// Installs a churn schedule: every entry is queued as an
    /// [`Event::Churn`] and the schedule is kept for event strips. The
    /// schedule draws from its own RNG stream, so installing one never
    /// shifts the workload or fault-injection sequences.
    pub fn install_churn(&mut self, schedule: ChurnSchedule) {
        for e in &schedule.events {
            self.queue.schedule(e.at, Event::Churn(e.event.clone()));
        }
        self.churn = schedule;
    }

    /// The installed churn schedule (empty when none was installed).
    pub fn churn(&self) -> &ChurnSchedule {
        &self.churn
    }

    /// Scenario start time.
    pub fn start_time(&self) -> SimTime {
        self.cfg.start
    }

    /// Advances virtual time to `t`, processing every event up to it.
    pub fn advance_to(&mut self, t: SimTime) {
        let t = t.min(self.cfg.end);
        while let Some(at) = self.queue.peek_time() {
            if at > t {
                break;
            }
            let (at, ev) = self.queue.pop().expect("peeked");
            self.clock = at;
            self.handle(at, ev);
        }
        self.clock = t;
    }

    /// Runs to the configured end.
    pub fn run_to_end(&mut self) {
        self.advance_to(self.cfg.end);
    }

    /// The configured tick length.
    pub fn tick(&self) -> SimDuration {
        self.cfg.tick
    }

    /// Scenario end time.
    pub fn end_time(&self) -> SimTime {
        self.cfg.end
    }

    /// Number of ticks processed so far.
    pub fn ticks_run(&self) -> u64 {
        self.ticks_run
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::SessionArrival => {
                for plan in self.workload.draw_sessions(now) {
                    let at = now + plan.start_offset;
                    self.queue
                        .schedule(at, Event::SessionCreate(Box::new(plan)));
                }
                let next = now + self.workload.next_arrival_delay(now);
                if next <= self.cfg.end {
                    self.queue.schedule(next, Event::SessionArrival);
                }
            }
            Event::SessionCreate(plan) => {
                let group = self.sessions.create(plan.kind, now);
                self.queue
                    .schedule(now + plan.lifetime, Event::SessionEnd { group });
                for p in plan.participants {
                    self.queue.schedule(
                        now + p.join_offset,
                        Event::ParticipantJoin {
                            group,
                            plan: Box::new(p),
                        },
                    );
                }
            }
            Event::ParticipantJoin { group, plan } => {
                let Some(host) = self.sessions.join(
                    group,
                    plan.router,
                    plan.iface,
                    plan.leaf_addr,
                    plan.rate,
                    now,
                ) else {
                    return; // session already ended
                };
                self.net.igmp[plan.router.index()].join(plan.iface, group, host, now);
                let stay = SimDuration::secs(
                    plan.leave_offset
                        .as_secs()
                        .saturating_sub(plan.join_offset.as_secs())
                        .max(1),
                );
                self.queue
                    .schedule(now + stay, Event::ParticipantLeave { group, host });
            }
            Event::ParticipantLeave { group, host } => {
                if let Some(p) = self.sessions.leave(group, host) {
                    self.net.igmp[p.router.index()].leave(p.iface, group, host);
                }
            }
            Event::SessionEnd { group } => {
                if let Some(s) = self.sessions.end(group) {
                    for p in s.participants.values() {
                        self.net.igmp[p.router.index()].leave(p.iface, group, p.host);
                    }
                }
            }
            Event::Tick => {
                self.ticks_run += 1;
                self.net.refresh_injected(now);
                self.net
                    .routing_round(now, self.cfg.report_loss, &mut self.fault_rng);
                self.trees.rebuild(
                    &mut self.net,
                    &self.sessions,
                    &self.monitored.clone(),
                    now,
                    self.cfg.tick,
                );
                let next = now + self.cfg.tick;
                if next <= self.cfg.end {
                    self.queue.schedule(next, Event::Tick);
                }
            }
            Event::SetLink { link, up } => {
                self.net.on_link_change(link, up, now);
            }
            Event::MigrateDomain { domain, full } => {
                self.net.topo.migrate_domain_to_sparse(domain);
                if full {
                    if let Some(border) = self.net.topo.domain(domain).border {
                        self.net.topo.router_mut(border).suite = ProtocolSuite::native_sparse(true);
                    }
                }
                self.net.rebuild_control_plane(now);
            }
            Event::Broadcast { duration, audience } => {
                let plan = self.workload.broadcast_event(duration, audience);
                self.queue
                    .schedule(now, Event::SessionCreate(Box::new(plan)));
            }
            Event::InjectRoutes { count } => {
                self.net
                    .inject_unicast_routes(self.injection_target, count, now);
            }
            Event::WithdrawInjected => {
                self.net.withdraw_injected(self.injection_target, now);
            }
            Event::Churn(c) => self.apply_churn(c, now),
        }
    }

    /// Applies one churn mutation. Guards make arbitrary (property-derived)
    /// sequences safe: joining an active router or flapping a link of an
    /// offline one is a no-op.
    fn apply_churn(&mut self, c: ChurnEvent, now: SimTime) {
        match c {
            ChurnEvent::RouterLeave(r) => self.net.router_leave(r, now),
            ChurnEvent::RouterJoin(r) => self.net.router_join(r, now),
            ChurnEvent::LinkDown(l) => {
                let link = self.net.topo.link(l);
                if link.up {
                    self.net.on_link_change(l, false, now);
                }
            }
            ChurnEvent::LinkUp(l) => {
                let link = self.net.topo.link(l);
                if !link.up
                    && self.net.topo.is_active(link.a.router)
                    && self.net.topo.is_active(link.b.router)
                {
                    self.net.on_link_change(l, true, now);
                }
            }
            ChurnEvent::Partition { domains } => self.net.partition(&domains, now),
            ChurnEvent::Heal => self.net.heal(now),
        }
    }
}

impl Scenario {
    /// The headline scenario: six months at FIXW and UCSB spanning the
    /// sparse-mode transition, with the IETF broadcast in early December.
    pub fn fixw_six_months(seed: u64) -> Scenario {
        Scenario::fixw_six_months_with(seed, SimConfig::default().tick)
    }

    /// [`Scenario::fixw_six_months`] with an explicit collection tick —
    /// coarser ticks trade temporal resolution for run time (protocol
    /// timers rescale automatically), preserving every figure's shape.
    pub fn fixw_six_months_with(seed: u64, tick: SimDuration) -> Scenario {
        let topo_cfg = TopologyConfig {
            domains: 12,
            routers_per_domain: 3,
            leaves_per_router: 2,
            native_fraction: 0.0,
        };
        let r = mbone_1998(&topo_cfg);
        let cfg = SimConfig {
            seed,
            tick,
            ..SimConfig::default()
        };
        let monitored = vec![r.fixw, r.ucsb];
        let member_domains = r.member_domains.clone();
        let (fixw, ucsb) = (r.fixw, r.ucsb);
        let mut sim = Simulation::new(r, monitored, cfg, WorkloadConfig::default());
        // The 43rd IETF: 1998-12-07, five days, large audience.
        sim.schedule(
            SimTime::from_ymd(1998, 12, 7),
            Event::Broadcast {
                duration: SimDuration::days(5),
                audience: 250,
            },
        );
        // The transition: from February 1999, one member domain migrates
        // to native sparse mode every ~10 days (UCSB, index 0, stays on
        // mrouted throughout, as it did historically).
        for (i, d) in member_domains.iter().enumerate().skip(1) {
            let when = SimTime::from_ymd(1999, 2, 1) + SimDuration::days(10 * (i as u64 - 1));
            sim.schedule(
                when,
                Event::MigrateDomain {
                    domain: *d,
                    full: false,
                },
            );
        }
        Scenario { sim, fixw, ucsb }
    }

    /// The 24-month DVMRP-decline scenario behind Figure 8: domains first
    /// migrate to native sparse mode, then decommission DVMRP entirely.
    pub fn dvmrp_two_years(seed: u64) -> Scenario {
        let topo_cfg = TopologyConfig {
            domains: 12,
            routers_per_domain: 2,
            leaves_per_router: 2,
            native_fraction: 0.0,
        };
        let r = mbone_1998(&topo_cfg);
        let cfg = SimConfig {
            seed,
            start: SimTime::from_ymd(1998, 11, 1),
            end: SimTime::from_ymd(2000, 11, 1),
            tick: SimDuration::hours(6),
            report_loss: 0.02,
            extra_prefixes_per_domain: 40,
        };
        let monitored = vec![r.fixw];
        let member_domains = r.member_domains.clone();
        let (fixw, ucsb) = (r.fixw, r.ucsb);
        // Light workload: this scenario is about routes, not sessions.
        let wl = WorkloadConfig {
            experimental_per_hour: 4.0,
            content_per_hour: 0.5,
            storms_per_day: 0.2,
            ..WorkloadConfig::default()
        };
        let mut sim = Simulation::new(r, monitored, cfg, wl);
        // Phase 1 (Feb–Jul 1999): migrate to native, borders keep DVMRP.
        for (i, d) in member_domains.iter().enumerate().skip(1) {
            let when = SimTime::from_ymd(1999, 2, 1) + SimDuration::days(14 * (i as u64 - 1));
            sim.schedule(
                when,
                Event::MigrateDomain {
                    domain: *d,
                    full: false,
                },
            );
        }
        // Phase 2 (Jan–Oct 2000): decommission DVMRP border by border;
        // UCSB goes last.
        for (i, d) in member_domains.iter().enumerate().skip(1) {
            let when = SimTime::from_ymd(2000, 1, 15) + SimDuration::days(20 * (i as u64 - 1));
            sim.schedule(
                when,
                Event::MigrateDomain {
                    domain: *d,
                    full: true,
                },
            );
        }
        sim.schedule(
            SimTime::from_ymd(2000, 10, 1),
            Event::MigrateDomain {
                domain: member_domains[0],
                full: true,
            },
        );
        Scenario { sim, fixw, ucsb }
    }

    /// One day at the UCSB campus `mrouted` — 1998-10-14 — with unicast
    /// routes injected at 14:00 and withdrawn ~75 minutes later (Figure 9).
    pub fn ucsb_injection_day(seed: u64) -> Scenario {
        let topo_cfg = TopologyConfig {
            domains: 1,
            routers_per_domain: 4,
            leaves_per_router: 3,
            native_fraction: 0.0,
        };
        let r = ucsb_campus(&topo_cfg);
        let start = SimTime::from_ymd(1998, 10, 14);
        let cfg = SimConfig {
            seed,
            start,
            end: start + SimDuration::days(1),
            tick: SimDuration::mins(5),
            report_loss: 0.01,
            extra_prefixes_per_domain: 60,
        };
        let monitored = vec![r.ucsb];
        let (fixw, ucsb) = (r.fixw, r.ucsb);
        let wl = WorkloadConfig {
            experimental_per_hour: 6.0,
            content_per_hour: 1.0,
            storms_per_day: 0.0,
            ..WorkloadConfig::default()
        };
        let mut sim = Simulation::new(r, monitored, cfg, wl);
        sim.schedule(
            start + SimDuration::hours(14),
            Event::InjectRoutes { count: 2_200 },
        );
        sim.schedule(
            start + SimDuration::hours(15) + SimDuration::mins(15),
            Event::WithdrawInjected,
        );
        Scenario { sim, fixw, ucsb }
    }

    /// The fleet-scale world: a transition internetwork sized to roughly
    /// `target_routers` routers (see `fleet_internetwork`), every router
    /// monitored, driven by the fleet-scale workload preset. This is the
    /// scenario behind the fleet-monitor evaluation — coarse hourly
    /// ticks over a 30-day window keep a 2000-router run tractable while
    /// the workload accumulates participant joins into the millions.
    pub fn fleet_snapshot(seed: u64, target_routers: usize, native_fraction: f64) -> Scenario {
        let r = fleet_internetwork(target_routers, native_fraction);
        let start = SimTime::from_ymd(1999, 3, 1);
        let cfg = SimConfig {
            seed,
            start,
            end: start + SimDuration::days(30),
            tick: SimDuration::hours(1),
            report_loss: 0.02,
            // Fleet domains advertise fewer synthetic extras: table realism
            // comes from the domain count itself at this scale.
            extra_prefixes_per_domain: 4,
        };
        let monitored: Vec<RouterId> = r.topo.routers().iter().map(|router| router.id).collect();
        let (fixw, ucsb) = (r.fixw, r.ucsb);
        let sim = Simulation::new(r, monitored, cfg, WorkloadConfig::fleet_scale(1.0));
        Scenario { sim, fixw, ucsb }
    }

    /// A mid-transition snapshot world (used by examples/tests): part of
    /// the infrastructure native from the start.
    pub fn transition_snapshot(seed: u64, native_fraction: f64) -> Scenario {
        let topo_cfg = TopologyConfig {
            domains: 10,
            routers_per_domain: 2,
            leaves_per_router: 2,
            native_fraction,
        };
        let r = transition_internetwork(&topo_cfg);
        let start = SimTime::from_ymd(1999, 3, 1);
        let cfg = SimConfig {
            seed,
            start,
            end: start + SimDuration::days(7),
            ..SimConfig::default()
        };
        let monitored = vec![r.fixw, r.ucsb];
        let (fixw, ucsb) = (r.fixw, r.ucsb);
        let sim = Simulation::new(r, monitored, cfg, WorkloadConfig::default());
        Scenario { sim, fixw, ucsb }
    }

    /// Installs a profile-shaped churn schedule over the scenario window
    /// and returns it (for event strips). The FIXW-equivalent exchange
    /// router is protected — the collection point itself never churns —
    /// but everything else, including other monitored routers, is fair
    /// game. Deterministic in `(profile, seed)`.
    pub fn with_churn(&mut self, profile: ChurnProfile, seed: u64) -> ChurnSchedule {
        let schedule = ChurnSchedule::generate(
            profile,
            seed,
            &self.sim.net.topo,
            &[self.fixw],
            self.sim.start_time(),
            self.sim.end_time(),
        );
        self.sim.install_churn(schedule.clone());
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantra_net::rate::SENDER_THRESHOLD;

    #[test]
    fn one_day_smoke_run_produces_state_at_fixw() {
        let mut sc = Scenario::fixw_six_months(7);
        let day1 = SimTime::from_ymd(1998, 11, 2);
        sc.sim.advance_to(day1);
        assert_eq!(sc.sim.clock, day1);
        assert!(sc.sim.ticks_run() >= 90);
        // Ground truth: sessions exist.
        assert!(
            sc.sim.sessions.len() > 10,
            "sessions {}",
            sc.sim.sessions.len()
        );
        // FIXW's MFIB sees flood-and-prune state for remote sessions.
        let mfib = &sc.sim.net.mfib[sc.fixw.index()];
        assert!(mfib.len() > 10, "fixw mfib {}", mfib.len());
        assert!(mfib.group_count() > 5);
        // DVMRP routes converged at both points.
        assert!(sc.sim.net.dvmrp_route_count(sc.fixw) > 100);
        assert!(sc.sim.net.dvmrp_route_count(sc.ucsb) > 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sc = Scenario::fixw_six_months(seed);
            sc.sim.advance_to(SimTime::from_ymd(1998, 11, 3));
            (
                sc.sim.sessions.len(),
                sc.sim.sessions.participant_count(),
                sc.sim.net.mfib[sc.fixw.index()].len(),
                sc.sim.net.dvmrp_route_count(sc.fixw),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn injection_day_has_spike_and_recovery() {
        let mut sc = Scenario::ucsb_injection_day(5);
        let start = SimTime::from_ymd(1998, 10, 14);
        sc.sim.advance_to(start + SimDuration::hours(13));
        let before = sc.sim.net.dvmrp_route_count(sc.ucsb);
        sc.sim.advance_to(start + SimDuration::hours(15));
        let during = sc.sim.net.dvmrp_route_count(sc.ucsb);
        sc.sim.advance_to(start + SimDuration::hours(18));
        let after = sc.sim.net.dvmrp_route_count(sc.ucsb);
        assert!(during > before + 2_000, "spike: {before} -> {during}");
        assert!(after < before + 200, "recovery: {after} vs {before}");
    }

    #[test]
    fn transition_reduces_fixw_visibility_share() {
        // Run two one-week worlds with identical workload seeds: all-DVMRP
        // versus majority-native, and compare what FIXW sees against the
        // ground truth.
        let visible_share = |native: f64| {
            let mut sc = Scenario::transition_snapshot(11, native);
            let end = SimTime::from_ymd(1999, 3, 3);
            sc.sim.advance_to(end);
            let truth = sc.sim.sessions.len().max(1);
            let seen = sc.sim.net.mfib[sc.fixw.index()].group_count();
            seen as f64 / truth as f64
        };
        let dvmrp_share = visible_share(0.0);
        let native_share = visible_share(0.8);
        assert!(
            dvmrp_share > native_share + 0.1,
            "sparse filtering must reduce visibility: {dvmrp_share:.2} vs {native_share:.2}"
        );
    }

    #[test]
    fn fleet_snapshot_monitors_every_router() {
        let mut sc = Scenario::fleet_snapshot(13, 50, 0.5);
        assert_eq!(sc.sim.monitored.len(), sc.sim.net.topo.router_count());
        assert_eq!(sc.sim.net.topo.router_count(), 49);
        let start = SimTime::from_ymd(1999, 3, 1);
        sc.sim.advance_to(start + SimDuration::hours(6));
        assert!(sc.sim.ticks_run() >= 6);
        // The fleet workload is dense: hundreds of sessions within hours.
        assert!(
            sc.sim.sessions.len() > 200,
            "sessions {}",
            sc.sim.sessions.len()
        );
    }

    #[test]
    fn churned_scenario_is_deterministic_and_changes_state() {
        // Sample route counts and down-router counts every 12 hours across
        // the window so short-lived flaps can't slip between observations.
        let run = |churn: bool| {
            let mut sc = Scenario::transition_snapshot(21, 0.4);
            if churn {
                let sched = sc.with_churn(ChurnProfile::Flappy, 21);
                assert!(!sched.is_empty());
                assert_eq!(sc.sim.churn().len(), sched.len());
            }
            let mut routes = Vec::new();
            let mut down = Vec::new();
            let mut at = sc.sim.start_time();
            let end = sc.sim.end_time();
            while at < end {
                at += SimDuration::hours(12);
                sc.sim.advance_to(at);
                routes.push(sc.sim.net.dvmrp_route_count(sc.fixw));
                down.push(
                    sc.sim
                        .net
                        .topo
                        .routers()
                        .iter()
                        .filter(|r| !r.active)
                        .count(),
                );
            }
            (sc.sim.sessions.len(), routes, down)
        };
        assert_eq!(run(true), run(true), "same seed, same churned world");
        let (quiet_sessions, quiet_routes, quiet_down) = run(false);
        let (churn_sessions, churn_routes, churn_down) = run(true);
        // Churn must not disturb the workload stream...
        assert_eq!(quiet_sessions, churn_sessions);
        assert!(quiet_down.iter().all(|d| *d == 0));
        // ...but captures genuinely change: routes differ at some sample or
        // a router is observably gone.
        assert!(
            churn_routes != quiet_routes || churn_down.iter().any(|d| *d > 0),
            "churn changed nothing across the window"
        );
    }

    #[test]
    fn senders_are_minority_of_participants() {
        let mut sc = Scenario::fixw_six_months(3);
        sc.sim.advance_to(SimTime::from_ymd(1998, 11, 3));
        let total = sc.sim.sessions.participant_count();
        let senders: usize = sc
            .sim
            .sessions
            .iter()
            .map(|s| s.senders(SENDER_THRESHOLD).count())
            .sum();
        assert!(total > 0);
        assert!(
            (senders as f64) < 0.5 * total as f64,
            "senders {senders} / participants {total}"
        );
        assert!(senders > 0);
    }

    #[test]
    fn broadcast_event_raises_participants() {
        // A compressed IETF on a channel-free workload so the scheduled
        // event is the only big session, on a window short enough for a
        // unit test.
        let topo_cfg = mantra_topology::reference::TopologyConfig {
            domains: 8,
            routers_per_domain: 2,
            leaves_per_router: 2,
            native_fraction: 0.0,
        };
        let r = mbone_1998(&topo_cfg);
        let start = SimTime::from_ymd(1999, 3, 1);
        let cfg = SimConfig {
            seed: 9,
            start,
            end: start + SimDuration::days(7),
            ..SimConfig::default()
        };
        let monitored = vec![r.fixw];
        let wl = WorkloadConfig {
            channels_per_hour: 0.0,
            ..WorkloadConfig::default()
        };
        let mut sim = Simulation::new(r, monitored, cfg, wl);
        sim.schedule(
            start + SimDuration::days(2),
            crate::event::Event::Broadcast {
                duration: SimDuration::days(4),
                audience: 250,
            },
        );
        sim.advance_to(start + SimDuration::days(2));
        let before = sim.sessions.participant_count();
        sim.advance_to(start + SimDuration::days(4));
        let during = sim.sessions.participant_count();
        assert!(
            during > before + 80,
            "broadcast audience visible: {before} -> {during}"
        );
        // And the big session dominates density.
        let max_density = sim.sessions.iter().map(|s| s.density()).max().unwrap();
        assert!(max_density > 80, "max density {max_density}");
    }
}
