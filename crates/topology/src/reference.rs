//! Reference internetworks used by the evaluation.
//!
//! Three builders mirror the paper's two collection points and the
//! infrastructure they were embedded in:
//!
//! * [`mbone_1998`] — the DVMRP-tunnel MBone with FIXW as the core
//!   exchange router and UCSB as one of the member campuses,
//! * [`ucsb_campus`] — the standalone campus `mrouted` view,
//! * [`transition_internetwork`] — the mixed world of early 1999: part of
//!   the domains already native sparse-mode (PIM-SM + MBGP + MSDP), the
//!   rest still DVMRP, with FIXW as the border between the two.

use mantra_net::{DomainId, Ip, Prefix, RouterId};

use crate::domain::DomainProtocol;
use crate::graph::Topology;
use crate::link::LinkKind;
use crate::router::ProtocolSuite;

/// Handles into a built reference topology.
#[derive(Clone, Debug)]
pub struct ReferenceTopology {
    /// The internetwork itself.
    pub topo: Topology,
    /// The FIXW exchange-point router (first collection point).
    pub fixw: RouterId,
    /// The UCSB campus gateway `mrouted` (second collection point).
    pub ucsb: RouterId,
    /// Every non-exchange domain, in construction order.
    pub member_domains: Vec<DomainId>,
}

/// Size knobs for the reference internetworks.
#[derive(Clone, Copy, Debug)]
pub struct TopologyConfig {
    /// Number of member domains (regional networks / campuses) besides UCSB.
    pub domains: usize,
    /// Internal routers per member domain.
    pub routers_per_domain: usize,
    /// Leaf subnets per internal router.
    pub leaves_per_router: usize,
    /// Fraction (0..=1) of member domains already migrated to native
    /// sparse mode; only [`transition_internetwork`] honours it.
    pub native_fraction: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            domains: 12,
            routers_per_domain: 3,
            leaves_per_router: 2,
            native_fraction: 0.0,
        }
    }
}

/// The /16 a member domain originates, derived from its index.
pub fn domain_prefix(i: usize) -> Prefix {
    Prefix::new(Ip(Ip::new(128, 0, 0, 0).0 + ((i as u32 % 256) << 16)), 16).expect("valid /16")
}

/// A leaf-subnet /24 inside a domain.
pub fn leaf_prefix(domain: usize, leaf: usize) -> Prefix {
    let base = domain_prefix(domain).network();
    Prefix::new(Ip(base.0 + ((leaf as u32 % 256) << 8)), 24).expect("valid /24")
}

fn build_member_domain(
    t: &mut Topology,
    idx: usize,
    name: String,
    protocol: DomainProtocol,
    cfg: &TopologyConfig,
) -> (DomainId, RouterId) {
    let d = t.add_domain(name.clone(), protocol);
    t.add_domain_prefix(d, domain_prefix(idx));
    let suite = match protocol {
        DomainProtocol::Dvmrp => ProtocolSuite::mbone(),
        DomainProtocol::NativeDense => ProtocolSuite::native_dense(),
        DomainProtocol::NativeSparse => ProtocolSuite::native_sparse(false),
    };
    let border_suite = match protocol {
        DomainProtocol::Dvmrp => ProtocolSuite::mbone(),
        DomainProtocol::NativeDense => ProtocolSuite::native_dense(),
        // The border of a native domain is its RP and MSDP speaker.
        DomainProtocol::NativeSparse => ProtocolSuite::native_sparse(true),
    };
    let base = domain_prefix(idx).network();
    let border = t.add_router(format!("{name}-gw"), Ip(base.0 + 1), d, border_suite);
    t.set_border(border);
    let intra_kind = if protocol == DomainProtocol::Dvmrp {
        LinkKind::Tunnel
    } else {
        LinkKind::Native
    };
    let mut leaf_no = 0usize;
    for r in 0..cfg.routers_per_domain {
        let router = t.add_router(format!("{name}-r{r}"), Ip(base.0 + 10 + r as u32), d, suite);
        t.connect(
            border,
            router,
            intra_kind,
            if intra_kind == LinkKind::Tunnel { 3 } else { 1 },
        );
        for _ in 0..cfg.leaves_per_router {
            let p = leaf_prefix(idx, leaf_no);
            leaf_no += 1;
            t.add_leaf(router, Ip(p.network().0 + 1));
        }
    }
    // The border also hosts one leaf so single-router domains have members.
    let p = leaf_prefix(idx, leaf_no);
    t.add_leaf(border, Ip(p.network().0 + 1));
    (d, border)
}

/// The MBone circa 1998: every member domain DVMRP, tunneled to FIXW.
pub fn mbone_1998(cfg: &TopologyConfig) -> ReferenceTopology {
    build(cfg, |_| DomainProtocol::Dvmrp)
}

/// Early-1999 mixed infrastructure: the leading `native_fraction` of member
/// domains run native sparse mode and MBGP-peer with FIXW over native links;
/// the rest remain DVMRP tunnels. FIXW runs the border suite (DVMRP +
/// PIM-SM + MBGP + MSDP), mirroring its historical role change.
pub fn transition_internetwork(cfg: &TopologyConfig) -> ReferenceTopology {
    let native = (cfg.domains as f64 * cfg.native_fraction).round() as usize;
    build(cfg, move |i| {
        if i < native {
            DomainProtocol::NativeSparse
        } else {
            DomainProtocol::Dvmrp
        }
    })
}

fn build(cfg: &TopologyConfig, protocol_of: impl Fn(usize) -> DomainProtocol) -> ReferenceTopology {
    let mut t = Topology::new();
    let any_native = (0..cfg.domains).any(|i| protocol_of(i) == DomainProtocol::NativeSparse);
    let exchange = t.add_domain("fixw-exchange", DomainProtocol::Dvmrp);
    let fixw_suite = if any_native {
        ProtocolSuite::border(true)
    } else {
        ProtocolSuite::mbone()
    };
    let fixw = t.add_router("fixw", Ip::new(198, 32, 136, 1), exchange, fixw_suite);
    t.set_border(fixw);

    // UCSB is always domain index 0 among members, always DVMRP in the
    // evaluation period (it ran mrouted throughout).
    let (_, ucsb_gw) = build_member_domain(&mut t, 0, "ucsb".into(), DomainProtocol::Dvmrp, cfg);
    t.connect(fixw, ucsb_gw, LinkKind::Tunnel, 3);
    let mut member_domains = vec![t.router(ucsb_gw).domain];

    for i in 1..cfg.domains {
        let protocol = protocol_of(i);
        let name = match protocol {
            DomainProtocol::Dvmrp => format!("mbone-{i}"),
            DomainProtocol::NativeDense => format!("dense-{i}"),
            DomainProtocol::NativeSparse => format!("native-{i}"),
        };
        let (d, border) = build_member_domain(&mut t, i, name, protocol, cfg);
        let (kind, metric) = if protocol == DomainProtocol::Dvmrp {
            (LinkKind::Tunnel, 3)
        } else {
            (LinkKind::Native, 1)
        };
        t.connect(fixw, border, kind, metric);
        member_domains.push(d);
    }

    debug_assert!(t.validate().is_ok());
    ReferenceTopology {
        topo: t,
        fixw,
        ucsb: ucsb_gw,
        member_domains,
    }
}

/// Size knobs hitting a target fleet-wide router count.
///
/// The router count of a reference internetwork is
/// `1 + domains * (1 + routers_per_domain)`. Up to ~2000 routers the
/// fleet grows by adding domains of 8 routers each; past that the
/// domain count pins at 250 (the /16 address plan wraps at 256 domain
/// indices) and domains grow internally instead. The achieved count is
/// within a domain's size of `target_routers`.
pub fn fleet_config(target_routers: usize, native_fraction: f64) -> TopologyConfig {
    let target = target_routers.max(3);
    let mut routers_per_domain = 7usize;
    let per_domain = routers_per_domain + 1;
    let mut domains = (target - 1 + per_domain / 2) / per_domain;
    if domains > 250 {
        domains = 250;
        routers_per_domain = (target - 1).div_ceil(domains).saturating_sub(1).max(1);
    }
    TopologyConfig {
        domains: domains.max(1),
        routers_per_domain,
        leaves_per_router: 1,
        native_fraction,
    }
}

/// A fleet-scale transition internetwork sized to roughly
/// `target_routers` routers (see [`fleet_config`] for the sizing rule):
/// hundreds of member domains hanging off the FIXW exchange, the leading
/// `native_fraction` of them already native sparse-mode. This is the
/// 1k–10k-router shape the fleet monitor is evaluated on.
pub fn fleet_internetwork(target_routers: usize, native_fraction: f64) -> ReferenceTopology {
    transition_internetwork(&fleet_config(target_routers, native_fraction))
}

/// The standalone UCSB campus: a gateway `mrouted` plus internal routers and
/// leaf subnets, no exchange point. Used for the single-router Figure 9
/// scenario.
pub fn ucsb_campus(cfg: &TopologyConfig) -> ReferenceTopology {
    let mut t = Topology::new();
    let (d, gw) = build_member_domain(&mut t, 0, "ucsb".into(), DomainProtocol::Dvmrp, cfg);
    debug_assert!(t.validate().is_ok());
    ReferenceTopology {
        topo: t,
        fixw: gw, // single collection point doubles as both handles
        ucsb: gw,
        member_domains: vec![d],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbone_shape() {
        let cfg = TopologyConfig::default();
        let r = mbone_1998(&cfg);
        r.topo.validate().unwrap();
        assert_eq!(r.member_domains.len(), cfg.domains);
        // FIXW tunnels to every member domain border.
        assert_eq!(r.topo.router(r.fixw).tunnel_count(), cfg.domains);
        // Every router in member domains runs DVMRP, none run PIM.
        for router in r.topo.routers() {
            assert!(router.suite.dvmrp);
            assert!(!router.suite.pim_sm);
        }
        let expected_routers = 1 + cfg.domains * (1 + cfg.routers_per_domain);
        assert_eq!(r.topo.router_count(), expected_routers);
    }

    #[test]
    fn transition_shape() {
        let cfg = TopologyConfig {
            domains: 10,
            native_fraction: 0.4,
            ..TopologyConfig::default()
        };
        let r = transition_internetwork(&cfg);
        r.topo.validate().unwrap();
        let native_domains = r
            .topo
            .domains()
            .iter()
            .filter(|d| d.protocol == DomainProtocol::NativeSparse)
            .count();
        // UCSB (index 0) is always DVMRP; indices 1..4 are native.
        assert_eq!(native_domains, 3);
        // FIXW must be a border router: both DVMRP and sparse.
        let fixw = r.topo.router(r.fixw);
        assert!(fixw.suite.dvmrp && fixw.suite.pim_sm && fixw.suite.msdp);
        // Native domain borders are RPs.
        for d in r.topo.domains() {
            if d.protocol == DomainProtocol::NativeSparse {
                let b = r.topo.router(d.border.unwrap());
                assert!(
                    b.suite.rp && b.suite.msdp,
                    "native border {} is an RP",
                    b.name
                );
            }
        }
    }

    #[test]
    fn ucsb_campus_shape() {
        let cfg = TopologyConfig {
            domains: 1,
            routers_per_domain: 4,
            leaves_per_router: 3,
            native_fraction: 0.0,
        };
        let r = ucsb_campus(&cfg);
        r.topo.validate().unwrap();
        assert_eq!(r.topo.router_count(), 5);
        assert_eq!(r.fixw, r.ucsb);
        let gw = r.topo.router(r.ucsb);
        assert!(gw.suite.dvmrp);
        // Gateway has one leaf plus tunnels to the 4 internal routers.
        assert_eq!(gw.tunnel_count(), 4);
    }

    #[test]
    fn fleet_sizing_tracks_target() {
        for target in [50usize, 500, 2000, 10_000] {
            let cfg = fleet_config(target, 0.5);
            assert!(cfg.domains <= 250, "address plan wraps past 250 domains");
            let routers = 1 + cfg.domains * (1 + cfg.routers_per_domain);
            let err = routers.abs_diff(target) as f64 / target as f64;
            assert!(err < 0.05, "target {target} → {routers} routers");
        }
        // The built topology matches the sizing formula and validates.
        let r = fleet_internetwork(500, 0.5);
        r.topo.validate().unwrap();
        assert_eq!(r.topo.router_count(), 497);
        assert_eq!(r.member_domains.len(), 62);
        let native = r
            .topo
            .domains()
            .iter()
            .filter(|d| d.protocol == DomainProtocol::NativeSparse)
            .count();
        // round(62 * 0.5) = 31 leading domains, minus UCSB at index 0
        // which stays DVMRP throughout.
        assert_eq!(native, 30);
    }

    #[test]
    fn prefixes_are_disjoint_across_domains() {
        for i in 0..20usize {
            for j in (i + 1)..20 {
                let a = domain_prefix(i);
                let b = domain_prefix(j);
                assert!(!a.covers(b) && !b.covers(a), "{a} vs {b}");
            }
        }
        // Leaf prefixes nest inside their domain prefix.
        assert!(domain_prefix(3).covers(leaf_prefix(3, 7)));
    }
}
