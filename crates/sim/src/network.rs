//! The live network: topology plus per-router protocol engines.
//!
//! [`Network`] owns one engine of each protocol per router (where the
//! router's suite enables it) and implements the synchronous routing round
//! the simulation runs every tick: DVMRP report exchange (with configurable
//! report loss — the paper's main source of inter-router inconsistency),
//! MBGP session syncs, MSDP SA floods, and timer processing.

use mantra_net::{IfaceId, Ip, Prefix, RouterId, SimTime};
use mantra_protocols::dvmrp::{DvmrpEngine, DvmrpTimers};
use mantra_protocols::igmp::IgmpState;
use mantra_protocols::mbgp::MbgpEngine;
use mantra_protocols::mfib::Mfib;
use mantra_protocols::msdp::MsdpEngine;
use mantra_protocols::pim::{PimSmEngine, RpSet};
use mantra_topology::{LinkId, Topology};

use crate::rng::SimRng;

/// Which links a path computation may traverse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFilter {
    /// Links whose both endpoints run DVMRP (the MBone overlay).
    Dvmrp,
    /// Links whose both endpoints run PIM-SM (the native infrastructure).
    Sparse,
    /// Any up link.
    Any,
}

/// One hop of a BFS tree: how a router reaches toward the root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeHop {
    /// The next router toward the root.
    pub parent: RouterId,
    /// This router's interface toward the parent (the RPF iif).
    pub iface_to_parent: IfaceId,
    /// The parent's interface toward this router (the parent's oif).
    pub parent_iface: IfaceId,
}

/// The live network state.
#[derive(Debug)]
pub struct Network {
    /// The underlying internetwork.
    pub topo: Topology,
    /// Per-router DVMRP engines (where enabled).
    pub dvmrp: Vec<Option<DvmrpEngine>>,
    /// Per-router IGMP querier state (all routers).
    pub igmp: Vec<IgmpState>,
    /// Per-router forwarding tables.
    pub mfib: Vec<Mfib>,
    /// Per-router PIM-SM engines (where enabled).
    pub pim_sm: Vec<Option<PimSmEngine>>,
    /// Per-router MBGP speakers (where enabled).
    pub mbgp: Vec<Option<MbgpEngine>>,
    /// Per-router MSDP engines (on RPs).
    pub msdp: Vec<Option<MsdpEngine>>,
    /// Interdomain MBGP sessions (pairs of speakers on a shared link).
    pub mbgp_peerings: Vec<(RouterId, RouterId)>,
    /// MSDP peerings (hub-and-spoke around the exchange RP).
    pub msdp_peerings: Vec<(RouterId, RouterId)>,
    /// DVMRP timers applied to every engine (scenario-scaled).
    pub dvmrp_timers: DvmrpTimers,
    /// Prefixes currently injected by the Figure 9 anomaly, per router.
    injected: Vec<Vec<Prefix>>,
    /// Extra per-domain prefixes advertised by borders, inflating route
    /// tables toward realistic MBone sizes.
    extra_prefixes_per_domain: usize,
    /// Per router: the links that were up when it went offline, restored on
    /// rejoin (links downed for other reasons stay down).
    offline_links: Vec<Vec<LinkId>>,
    /// Links cut by the most recent partition event, restored by heal.
    partition_cuts: Vec<LinkId>,
}

impl Network {
    /// Builds a network over `topo`, instantiating engines per suite.
    ///
    /// `extra_prefixes_per_domain` adds that many /24s under each domain's
    /// /16 to the border's advertisements, approximating the thousands of
    /// routes the real MBone carried without simulating thousands of
    /// routers.
    pub fn new(
        topo: Topology,
        now: SimTime,
        dvmrp_timers: DvmrpTimers,
        extra_prefixes_per_domain: usize,
    ) -> Self {
        let n = topo.router_count();
        let mut net = Network {
            topo,
            dvmrp: (0..n).map(|_| None).collect(),
            igmp: vec![IgmpState::new(); n],
            mfib: vec![Mfib::new(); n],
            pim_sm: (0..n).map(|_| None).collect(),
            mbgp: (0..n).map(|_| None).collect(),
            msdp: (0..n).map(|_| None).collect(),
            mbgp_peerings: Vec::new(),
            msdp_peerings: Vec::new(),
            dvmrp_timers,
            injected: vec![Vec::new(); n],
            extra_prefixes_per_domain,
            offline_links: vec![Vec::new(); n],
            partition_cuts: Vec::new(),
        };
        net.rebuild_control_plane(now);
        net
    }

    /// The prefixes a router originates: one /24 per leaf interface, plus
    /// the domain aggregate and synthetic extras on the domain border.
    fn originated_prefixes(&self, router: RouterId) -> Vec<Prefix> {
        let r = self.topo.router(router);
        let mut out: Vec<Prefix> = r
            .leaf_ifaces()
            .map(|i| Prefix::new(i.addr, 24).expect("valid /24"))
            .collect();
        let dom = self.topo.domain(r.domain);
        if dom.border == Some(router) {
            for p in &dom.prefixes {
                out.push(*p);
                // Extras live in the upper half of the /16 (third octet
                // ≥ 128) so they never collide with leaf subnets, which use
                // small third octets.
                for k in 0..self.extra_prefixes_per_domain.min(128) {
                    let q = Prefix::new(Ip(p.network().0 | ((128 + k as u32) << 8)), 24)
                        .expect("valid /24");
                    if p.covers(q) {
                        out.push(q);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// (Re)creates engines and peerings to match the current suites, keeping
    /// existing engine state wherever the protocol stays enabled. Called at
    /// construction and after every domain migration.
    pub fn rebuild_control_plane(&mut self, now: SimTime) {
        let n = self.topo.router_count();
        for i in 0..n {
            let id = RouterId(i as u32);
            // Offline routers run nothing; their engines come back fresh
            // (and reconverge from scratch) when the router rejoins.
            if !self.topo.is_active(id) {
                self.dvmrp[i] = None;
                self.pim_sm[i] = None;
                self.mbgp[i] = None;
                self.msdp[i] = None;
                continue;
            }
            let suite = self.topo.router(id).suite;
            // DVMRP.
            if suite.dvmrp {
                if self.dvmrp[i].is_none() {
                    let mut e = DvmrpEngine::new(id, self.originated_prefixes(id), now);
                    e.timers = self.dvmrp_timers;
                    self.dvmrp[i] = Some(e);
                }
            } else {
                self.dvmrp[i] = None;
            }
            // PIM-SM: the RP set is the set of RP-flagged routers in the
            // same domain.
            if suite.pim_sm {
                let domain = self.topo.router(id).domain;
                let rps: Vec<RouterId> = self
                    .topo
                    .domain(domain)
                    .routers
                    .iter()
                    .copied()
                    .filter(|r| self.topo.router(*r).suite.rp)
                    .collect();
                let set = RpSet::new(rps);
                match &mut self.pim_sm[i] {
                    Some(e) => e.rp_set = set,
                    None => self.pim_sm[i] = Some(PimSmEngine::new(id, set)),
                }
            } else {
                self.pim_sm[i] = None;
            }
            // MBGP: only border routers speak interdomain.
            let domain = self.topo.router(id).domain;
            let is_border = self.topo.domain(domain).border == Some(id);
            if suite.mbgp && is_border {
                if self.mbgp[i].is_none() {
                    self.mbgp[i] = Some(MbgpEngine::new(
                        id,
                        domain,
                        self.originated_prefixes(id),
                        now,
                    ));
                }
            } else {
                self.mbgp[i] = None;
            }
            // MSDP on RPs.
            if suite.msdp && suite.rp {
                if self.msdp[i].is_none() {
                    self.msdp[i] = Some(MsdpEngine::new(id));
                }
            } else {
                self.msdp[i] = None;
            }
        }
        // MBGP peerings: links whose two endpoints both speak MBGP and sit
        // in different domains.
        self.mbgp_peerings = self
            .topo
            .links()
            .iter()
            .filter(|l| {
                self.mbgp[l.a.router.index()].is_some()
                    && self.mbgp[l.b.router.index()].is_some()
                    && self.topo.router(l.a.router).domain != self.topo.router(l.b.router).domain
            })
            .map(|l| (l.a.router, l.b.router))
            .collect();
        // MSDP hub-and-spoke: the speaker with the most links is the hub
        // (historically the exchange-point RP), everyone else peers with it.
        let speakers: Vec<RouterId> = (0..n)
            .filter(|i| self.msdp[*i].is_some())
            .map(|i| RouterId(i as u32))
            .collect();
        self.msdp_peerings.clear();
        if speakers.len() >= 2 {
            let hub = *speakers
                .iter()
                .max_by_key(|r| self.topo.links_of(**r).count())
                .expect("non-empty");
            for s in &speakers {
                if *s != hub {
                    self.msdp_peerings.push((hub, *s));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Routing round
    // ------------------------------------------------------------------

    /// Runs one synchronous routing round at `now`.
    ///
    /// `report_loss` is the probability that any single DVMRP report (one
    /// direction of one link) is lost this round — the knob behind the
    /// paper's observed route instability and inter-router inconsistency.
    pub fn routing_round(&mut self, now: SimTime, report_loss: f64, rng: &mut SimRng) {
        self.dvmrp_round(now, report_loss, rng);
        self.mbgp_round(now);
        self.msdp_round(now);
    }

    fn dvmrp_round(&mut self, now: SimTime, loss: f64, rng: &mut SimRng) {
        // Phase 1: snapshot every report (synchronous exchange semantics).
        struct Delivery {
            to: RouterId,
            from: RouterId,
            via: IfaceId,
            metric: u32,
            report: Vec<(Prefix, u32)>,
        }
        let mut deliveries = Vec::new();
        for l in self.topo.links() {
            if !l.up {
                continue;
            }
            for (tx, rx) in [(l.a, l.b), (l.b, l.a)] {
                let (Some(sender), Some(_)) = (
                    self.dvmrp[tx.router.index()].as_ref(),
                    self.dvmrp[rx.router.index()].as_ref(),
                ) else {
                    continue;
                };
                if rng.chance(loss) {
                    continue;
                }
                deliveries.push(Delivery {
                    to: rx.router,
                    from: tx.router,
                    via: rx.iface,
                    metric: l.metric,
                    report: sender.report_for(rx.router),
                });
            }
        }
        // Phase 2: deliver.
        for d in deliveries {
            if let Some(e) = self.dvmrp[d.to.index()].as_mut() {
                e.handle_report(d.from, d.via, d.metric, &d.report, now);
            }
        }
        // Phase 3: timers.
        for e in self.dvmrp.iter_mut().flatten() {
            e.tick(now);
        }
    }

    fn mbgp_round(&mut self, now: SimTime) {
        let peerings = self.mbgp_peerings.clone();
        for (a, b) in peerings {
            // Skip sessions over down links.
            let link_up = self.topo.link_between(a, b).map(|l| l.up).unwrap_or(false);
            if !link_up {
                if let Some(e) = self.mbgp[a.index()].as_mut() {
                    e.session_down(b, now);
                }
                if let Some(e) = self.mbgp[b.index()].as_mut() {
                    e.session_down(a, now);
                }
                continue;
            }
            let dom_a = self.topo.router(a).domain;
            let dom_b = self.topo.router(b).domain;
            let to_b = self.mbgp[a.index()]
                .as_ref()
                .map(|e| e.advertisements_for(dom_b))
                .unwrap_or_default();
            let to_a = self.mbgp[b.index()]
                .as_ref()
                .map(|e| e.advertisements_for(dom_a))
                .unwrap_or_default();
            if let Some(e) = self.mbgp[b.index()].as_mut() {
                e.session_sync(a, to_b, now);
            }
            if let Some(e) = self.mbgp[a.index()].as_mut() {
                e.session_sync(b, to_a, now);
            }
        }
    }

    fn msdp_round(&mut self, now: SimTime) {
        let peerings = self.msdp_peerings.clone();
        for (a, b) in peerings {
            let to_b = self.msdp[a.index()]
                .as_ref()
                .map(|e| e.sa_for_peer(b))
                .unwrap_or_default();
            let to_a = self.msdp[b.index()]
                .as_ref()
                .map(|e| e.sa_for_peer(a))
                .unwrap_or_default();
            if let Some(e) = self.msdp[b.index()].as_mut() {
                e.handle_sa(a, &to_b, now);
            }
            if let Some(e) = self.msdp[a.index()].as_mut() {
                e.handle_sa(b, &to_a, now);
            }
        }
        for e in self.msdp.iter_mut().flatten() {
            e.expire(now);
        }
    }

    /// Reacts to a link state change: withdraws routes over dead sessions
    /// immediately, as real routers do on neighbor loss.
    pub fn on_link_change(&mut self, link: LinkId, up: bool, now: SimTime) {
        self.topo.set_link_up(link, up);
        if up {
            return; // Recovery happens through the next routing rounds.
        }
        let l = self.topo.link(link).clone();
        for (me, other) in [(l.a.router, l.b.router), (l.b.router, l.a.router)] {
            if let Some(e) = self.dvmrp[me.index()].as_mut() {
                e.neighbor_down(other, now);
            }
            if let Some(e) = self.mbgp[me.index()].as_mut() {
                e.session_down(other, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Topology churn
    // ------------------------------------------------------------------

    /// Takes a router offline. Every up link it touches goes down (so both
    /// sides see the DVMRP neighbor loss / MBGP session reset immediately),
    /// and the router's own protocol and group state is dropped — a rejoin
    /// boots cold and reconverges over the following routing rounds.
    pub fn router_leave(&mut self, router: RouterId, now: SimTime) {
        if !self.topo.is_active(router) {
            return;
        }
        let links: Vec<LinkId> = self
            .topo
            .links_of(router)
            .filter(|l| l.up)
            .map(|l| l.id)
            .collect();
        for l in &links {
            self.on_link_change(*l, false, now);
        }
        self.offline_links[router.index()] = links;
        self.topo.set_router_active(router, false);
        let i = router.index();
        self.dvmrp[i] = None;
        self.pim_sm[i] = None;
        self.mbgp[i] = None;
        self.msdp[i] = None;
        self.igmp[i] = IgmpState::new();
        self.mfib[i] = Mfib::new();
        self.injected[i].clear();
        // Peerings that involved the router must disappear from the meshes.
        self.rebuild_control_plane(now);
    }

    /// Brings a previously departed router back. The links it took down are
    /// restored where the far side is still active and not behind a
    /// partition cut; engines are rebuilt cold and relearn state through the
    /// next routing rounds.
    pub fn router_join(&mut self, router: RouterId, now: SimTime) {
        if self.topo.is_active(router) {
            return;
        }
        self.topo.set_router_active(router, true);
        let links = std::mem::take(&mut self.offline_links[router.index()]);
        for l in links {
            let link = self.topo.link(l);
            let far = if link.a.router == router {
                link.b.router
            } else {
                link.a.router
            };
            if !link.up && self.topo.is_active(far) && !self.partition_cuts.contains(&l) {
                self.on_link_change(l, true, now);
            }
        }
        self.rebuild_control_plane(now);
    }

    /// Partitions `domains` away from the rest of the internetwork by
    /// cutting every interdomain link crossing the boundary. A later
    /// [`Network::heal`] restores exactly this cut set.
    pub fn partition(&mut self, domains: &[mantra_net::DomainId], now: SimTime) {
        for l in self.topo.partition_cut(domains) {
            if self.topo.link(l).up {
                self.on_link_change(l, false, now);
                self.partition_cuts.push(l);
            }
        }
    }

    /// Heals the current partition: every link cut by partition events comes
    /// back up (where both endpoints are still active).
    pub fn heal(&mut self, now: SimTime) {
        let cuts = std::mem::take(&mut self.partition_cuts);
        for l in cuts {
            let link = self.topo.link(l);
            if !link.up && self.topo.is_active(link.a.router) && self.topo.is_active(link.b.router)
            {
                self.on_link_change(l, true, now);
            }
        }
    }

    /// Links currently held down by an unhealed partition.
    pub fn partition_cut_len(&self) -> usize {
        self.partition_cuts.len()
    }

    // ------------------------------------------------------------------
    // Anomaly injection
    // ------------------------------------------------------------------

    /// Leaks `count` unicast /24 routes into `router`'s DVMRP table — the
    /// 1998-10-14 incident of Figure 9.
    pub fn inject_unicast_routes(&mut self, router: RouterId, count: u32, now: SimTime) {
        let Some(e) = self.dvmrp[router.index()].as_mut() else {
            return;
        };
        let prefixes: Vec<Prefix> = (0..count)
            .map(|i| {
                // 192.x.y.0/24 — unicast space that should never appear in a
                // multicast routing table.
                Prefix::new(
                    Ip(Ip::new(192, 0, 0, 0).0 + ((i / 256) << 16) + ((i % 256) << 8)),
                    24,
                )
                .expect("valid /24")
            })
            .collect();
        e.inject(prefixes.iter().copied(), 1, router, IfaceId(0), now);
        self.injected[router.index()].extend(prefixes);
    }

    /// Withdraws previously injected routes (the leak was fixed): they stop
    /// being refreshed, so the next engine ticks age them out.
    pub fn withdraw_injected(&mut self, router: RouterId, now: SimTime) {
        self.injected[router.index()].clear();
        if let Some(e) = self.dvmrp[router.index()].as_mut() {
            // Injected routes were attributed to `router` itself as a fake
            // neighbor, so a neighbor-down for self withdraws exactly them.
            e.neighbor_down(router, now);
        }
    }

    /// Keeps injected routes alive across ticks (the leak persists until
    /// withdrawn): refreshes them like a received report would.
    pub fn refresh_injected(&mut self, now: SimTime) {
        for i in 0..self.injected.len() {
            if self.injected[i].is_empty() {
                continue;
            }
            let router = RouterId(i as u32);
            let report: Vec<(Prefix, u32)> = self.injected[i].iter().map(|p| (*p, 1)).collect();
            if let Some(e) = self.dvmrp[i].as_mut() {
                e.handle_report(router, IfaceId(0), 0, &report, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Paths
    // ------------------------------------------------------------------

    /// True when the link can carry traffic under `filter`.
    fn link_admits(&self, l: &mantra_topology::Link, filter: LinkFilter) -> bool {
        if !l.up || !self.topo.is_active(l.a.router) || !self.topo.is_active(l.b.router) {
            return false;
        }
        match filter {
            LinkFilter::Any => true,
            LinkFilter::Dvmrp => {
                self.topo.router(l.a.router).suite.dvmrp && self.topo.router(l.b.router).suite.dvmrp
            }
            LinkFilter::Sparse => {
                self.topo.router(l.a.router).suite.pim_sm
                    && self.topo.router(l.b.router).suite.pim_sm
            }
        }
    }

    /// BFS shortest-path tree rooted at `root` over links admitted by
    /// `filter`. Index `i` holds the hop toward the root for router `i`
    /// (`None` for unreachable routers and for the root itself).
    pub fn bfs_tree(&self, root: RouterId, filter: LinkFilter) -> Vec<Option<TreeHop>> {
        let n = self.topo.router_count();
        let mut hops: Vec<Option<TreeHop>> = vec![None; n];
        let mut visited = vec![false; n];
        visited[root.index()] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(r) = queue.pop_front() {
            for (l, local, remote) in self.topo.neighbors(r) {
                if !self.link_admits(l, filter) || visited[remote.router.index()] {
                    continue;
                }
                visited[remote.router.index()] = true;
                hops[remote.router.index()] = Some(TreeHop {
                    parent: r,
                    iface_to_parent: remote.iface,
                    parent_iface: local.iface,
                });
                queue.push_back(remote.router);
            }
        }
        hops
    }

    /// Routers in the same component as `root` under `filter`, including
    /// `root`.
    pub fn component(&self, root: RouterId, filter: LinkFilter) -> Vec<RouterId> {
        let hops = self.bfs_tree(root, filter);
        let mut out = vec![root];
        out.extend(
            hops.iter()
                .enumerate()
                .filter(|(_, h)| h.is_some())
                .map(|(i, _)| RouterId(i as u32)),
        );
        out.sort_unstable();
        out
    }

    /// Convenience: this router's DVMRP route count (reachable only), or
    /// zero when it does not run DVMRP — the Figure 7/8/9 series.
    pub fn dvmrp_route_count(&self, router: RouterId) -> usize {
        self.dvmrp[router.index()]
            .as_ref()
            .map(|e| e.rib.reachable_count())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantra_net::SimDuration;
    use mantra_topology::reference::{mbone_1998, transition_internetwork, TopologyConfig};

    fn t0() -> SimTime {
        SimTime::from_ymd(1998, 11, 1)
    }

    fn small_cfg() -> TopologyConfig {
        TopologyConfig {
            domains: 4,
            routers_per_domain: 2,
            leaves_per_router: 1,
            native_fraction: 0.0,
        }
    }

    fn run_rounds(net: &mut Network, rounds: u32, loss: f64, rng: &mut SimRng) -> SimTime {
        let mut now = t0();
        for _ in 0..rounds {
            now += SimDuration::secs(60);
            net.routing_round(now, loss, rng);
        }
        now
    }

    #[test]
    fn dvmrp_converges_on_mbone() {
        let r = mbone_1998(&small_cfg());
        let mut net = Network::new(r.topo, t0(), DvmrpTimers::default(), 0);
        let mut rng = SimRng::seeded(1);
        run_rounds(&mut net, 6, 0.0, &mut rng);
        // FIXW must reach every leaf /24 and every domain /16.
        let fixw_routes = net.dvmrp_route_count(r.fixw);
        // 4 domains × (2 routers × 1 leaf + 1 border leaf + 1 aggregate) = 16.
        assert_eq!(fixw_routes, 16);
        // UCSB gateway sees the same networks (consistent state, no loss).
        assert_eq!(net.dvmrp_route_count(r.ucsb), 16);
    }

    #[test]
    fn report_loss_causes_inconsistency_and_flaps() {
        let r = mbone_1998(&small_cfg());
        let mut net = Network::new(r.topo, t0(), DvmrpTimers::default(), 8);
        let mut rng = SimRng::seeded(2);
        run_rounds(&mut net, 6, 0.0, &mut rng);
        let stable = net.dvmrp_route_count(r.fixw);
        // Heavy loss: counts dip below the converged value at least once.
        let mut dipped = false;
        let mut now = t0() + SimDuration::secs(360);
        for _ in 0..40 {
            now += SimDuration::secs(60);
            net.routing_round(now, 0.4, &mut rng);
            if net.dvmrp_route_count(r.fixw) < stable {
                dipped = true;
            }
        }
        assert!(dipped, "loss should cause visible route flaps");
    }

    #[test]
    fn link_down_withdraws_and_recovery_relearns() {
        let r = mbone_1998(&small_cfg());
        let mut net = Network::new(r.topo, t0(), DvmrpTimers::default(), 0);
        let mut rng = SimRng::seeded(3);
        let mut now = run_rounds(&mut net, 6, 0.0, &mut rng);
        let full = net.dvmrp_route_count(r.fixw);
        let link = net.topo.link_between(r.fixw, r.ucsb).unwrap().id;
        net.on_link_change(link, false, now);
        assert!(net.dvmrp_route_count(r.fixw) < full, "immediate withdrawal");
        net.on_link_change(link, true, now);
        for _ in 0..6 {
            now += SimDuration::secs(60);
            net.routing_round(now, 0.0, &mut rng);
        }
        assert_eq!(net.dvmrp_route_count(r.fixw), full, "relearned after flap");
    }

    #[test]
    fn injection_spike_and_withdrawal() {
        let r = mbone_1998(&small_cfg());
        let mut net = Network::new(r.topo, t0(), DvmrpTimers::default(), 0);
        let mut rng = SimRng::seeded(4);
        let mut now = run_rounds(&mut net, 6, 0.0, &mut rng);
        let base = net.dvmrp_route_count(r.ucsb);
        net.inject_unicast_routes(r.ucsb, 500, now);
        assert_eq!(net.dvmrp_route_count(r.ucsb), base + 500);
        // The leak persists across rounds while refreshed.
        for _ in 0..4 {
            now += SimDuration::secs(60);
            net.refresh_injected(now);
            net.routing_round(now, 0.0, &mut rng);
        }
        assert_eq!(net.dvmrp_route_count(r.ucsb), base + 500);
        // Withdrawal drops the spike immediately.
        net.withdraw_injected(r.ucsb, now);
        assert_eq!(net.dvmrp_route_count(r.ucsb), base);
    }

    #[test]
    fn transition_creates_mbgp_and_msdp_meshes() {
        let cfg = TopologyConfig {
            domains: 6,
            native_fraction: 0.5,
            ..small_cfg()
        };
        let r = transition_internetwork(&cfg);
        let mut net = Network::new(r.topo, t0(), DvmrpTimers::default(), 0);
        // round(6 × 0.5) = 3 native indices, but index 0 is always the
        // DVMRP UCSB domain, leaving two native borders.
        assert_eq!(
            net.mbgp_peerings.len(),
            2,
            "one MBGP session per native border"
        );
        // MSDP: FIXW hub + 2 native RPs = 2 spokes.
        assert_eq!(net.msdp_peerings.len(), 2);
        let mut rng = SimRng::seeded(5);
        let mut now = t0();
        for _ in 0..4 {
            now += SimDuration::secs(60);
            net.routing_round(now, 0.0, &mut rng);
        }
        // FIXW's MBGP RIB carries the native domains' prefixes.
        let fixw_mbgp = net.mbgp[r.fixw.index()].as_ref().unwrap();
        assert!(
            fixw_mbgp.route_count() >= 3,
            "rib = {}",
            fixw_mbgp.route_count()
        );
        // And a native border's RIB learned FIXW-side routes transitively.
        let native_border = net
            .topo
            .domains()
            .iter()
            .find(|d| d.protocol == mantra_topology::DomainProtocol::NativeSparse)
            .and_then(|d| d.border)
            .unwrap();
        assert!(
            net.mbgp[native_border.index()]
                .as_ref()
                .unwrap()
                .route_count()
                >= 3
        );
    }

    #[test]
    fn bfs_tree_and_component_respect_filters() {
        let cfg = TopologyConfig {
            domains: 4,
            native_fraction: 0.5,
            ..small_cfg()
        };
        let r = transition_internetwork(&cfg);
        let net = Network::new(r.topo, t0(), DvmrpTimers::default(), 0);
        let dv = net.component(r.fixw, LinkFilter::Dvmrp);
        let sp = net.component(r.fixw, LinkFilter::Sparse);
        let all = net.component(r.fixw, LinkFilter::Any);
        assert!(dv.len() > 1);
        assert!(sp.len() > 1);
        assert!(all.len() >= dv.len());
        assert!(all.len() >= sp.len());
        assert_eq!(all.len(), net.topo.router_count());
        // DVMRP and sparse components only share FIXW (the border).
        let overlap: Vec<_> = dv.iter().filter(|x| sp.contains(x)).collect();
        assert_eq!(overlap, vec![&r.fixw]);
        // Hops lead back to the root.
        let hops = net.bfs_tree(r.fixw, LinkFilter::Any);
        let mut cur = r.ucsb;
        let mut steps = 0;
        while cur != r.fixw {
            cur = hops[cur.index()].expect("reachable").parent;
            steps += 1;
            assert!(steps < 10);
        }
    }

    #[test]
    fn router_leave_and_rejoin_reconverge() {
        let r = mbone_1998(&small_cfg());
        let mut net = Network::new(r.topo, t0(), DvmrpTimers::default(), 0);
        let mut rng = SimRng::seeded(6);
        let mut now = run_rounds(&mut net, 6, 0.0, &mut rng);
        let full = net.dvmrp_route_count(r.fixw);
        let ucsb_links: Vec<LinkId> = net
            .topo
            .links_of(r.ucsb)
            .filter(|l| l.up)
            .map(|l| l.id)
            .collect();
        net.router_leave(r.ucsb, now);
        assert!(!net.topo.is_active(r.ucsb));
        assert!(net.dvmrp[r.ucsb.index()].is_none(), "engines dropped");
        assert!(ucsb_links.iter().all(|l| !net.topo.link(*l).up));
        assert!(
            net.dvmrp_route_count(r.fixw) < full,
            "neighbors withdraw immediately"
        );
        net.router_leave(r.ucsb, now); // idempotent
        let full_ucsb = full; // symmetric convergence earlier in the test
        net.router_join(r.ucsb, now);
        assert!(net.topo.is_active(r.ucsb));
        assert!(ucsb_links.iter().all(|l| net.topo.link(*l).up));
        assert!(
            net.dvmrp_route_count(r.ucsb) < full_ucsb,
            "rejoin boots cold with only originated prefixes"
        );
        now = {
            let mut t = now;
            for _ in 0..8 {
                t += SimDuration::secs(60);
                net.routing_round(t, 0.0, &mut rng);
            }
            t
        };
        assert_eq!(net.dvmrp_route_count(r.fixw), full, "reconverged");
        let _ = now;
    }

    #[test]
    fn partition_and_heal_restore_exact_cut() {
        let r = mbone_1998(&small_cfg());
        let mut net = Network::new(r.topo, t0(), DvmrpTimers::default(), 0);
        let mut rng = SimRng::seeded(7);
        let mut now = run_rounds(&mut net, 6, 0.0, &mut rng);
        let full = net.dvmrp_route_count(r.fixw);
        let dom = net.topo.router(r.ucsb).domain;
        net.partition(&[dom], now);
        assert!(net.partition_cut_len() > 0);
        assert!(net.dvmrp_route_count(r.fixw) < full);
        let reachable = net.component(r.fixw, LinkFilter::Any);
        assert!(!reachable.contains(&r.ucsb), "ucsb side is unreachable");
        net.heal(now);
        assert_eq!(net.partition_cut_len(), 0);
        for _ in 0..8 {
            now += SimDuration::secs(60);
            net.routing_round(now, 0.0, &mut rng);
        }
        assert_eq!(net.dvmrp_route_count(r.fixw), full, "healed and relearned");
    }

    #[test]
    fn migration_rebuild_swaps_engines() {
        let r = mbone_1998(&small_cfg());
        let mut net = Network::new(r.topo, t0(), DvmrpTimers::default(), 0);
        let dom = net.topo.router(r.ucsb).domain;
        assert!(net.dvmrp[r.ucsb.index()].is_some());
        assert!(net.pim_sm[r.ucsb.index()].is_none());
        net.topo.migrate_domain_to_sparse(dom);
        net.rebuild_control_plane(t0());
        // Border keeps DVMRP and gains PIM-SM.
        assert!(net.dvmrp[r.ucsb.index()].is_some());
        assert!(net.pim_sm[r.ucsb.index()].is_some());
        assert!(net.msdp[r.ucsb.index()].is_some());
        // Internal routers lose DVMRP entirely.
        let internal = net
            .topo
            .domain(dom)
            .routers
            .iter()
            .copied()
            .find(|x| *x != r.ucsb)
            .unwrap();
        assert!(net.dvmrp[internal.index()].is_none());
        assert!(net.pim_sm[internal.index()].is_some());
    }
}
