//! SNMP vs CLI collection, head to head — the reproducible version of the
//! paper's Section II argument for router-login scraping.

use mantra::core::collector::preprocess;
use mantra::core::processor::process;
use mantra::core::tables::LearnedFrom;
use mantra::core::ParallelAccess;
use mantra::net::{SimDuration, SimTime};
use mantra::router_cli::TableKind;
use mantra::sim::Scenario;
use mantra::snmp::manager::SnmpCollector;
use mantra::snmp::mib::refresh_agent;
use mantra::snmp::{Agent, SnmpError};

fn warmed(seed: u64) -> (Scenario, SimTime) {
    let mut sc = Scenario::transition_snapshot(seed, 0.6);
    sc.sim.advance_to(sc.sim.clock + SimDuration::hours(8));
    let t = sc.sim.clock;
    (sc, t)
}

fn cli_tables(sc: &Scenario, router: &str, now: SimTime) -> mantra::core::tables::Tables {
    let captures: Vec<_> = TableKind::ALL
        .iter()
        .filter_map(|k| {
            sc.sim
                .capture(router, *k, now)
                .ok()
                .map(|raw| preprocess(router, *k, &raw, now))
        })
        .collect();
    process(&captures).0
}

#[test]
fn both_paths_agree_where_mibs_exist() {
    let (sc, now) = warmed(1);
    let cli = cli_tables(&sc, "fixw", now);
    let mut agent = Agent::new("public");
    refresh_agent(&mut agent, &sc.sim.net, sc.fixw, now);
    let snmp = mantra::snmp::snmp_collect(&agent, "fixw", now).unwrap();
    // DVMRP: identical route sets.
    assert_eq!(cli.reachable_dvmrp_routes(), snmp.reachable_dvmrp_routes());
    // Forwarding pairs: SNMP sees every (S,G) the CLI sees (the CLI also
    // renders (*,G) entries that RFC 2932-era agents skipped).
    for key in snmp.pairs.keys() {
        assert!(
            cli.pairs.contains_key(key),
            "SNMP pair {key:?} missing in CLI view"
        );
    }
}

#[test]
fn snmp_is_structurally_blind_to_the_new_protocols() {
    let (sc, now) = warmed(2);
    let cli = cli_tables(&sc, "fixw", now);
    let mut agent = Agent::new("public");
    refresh_agent(&mut agent, &sc.sim.net, sc.fixw, now);
    let snmp = mantra::snmp::snmp_collect(&agent, "fixw", now).unwrap();
    // The CLI path sees the new-protocol state...
    assert!(cli.sa_cache.len() > 10, "MSDP visible via CLI");
    assert!(
        cli.routes_of(LearnedFrom::Mbgp).count() > 10,
        "MBGP visible via CLI"
    );
    // ...SNMP sees none of it, with the identical router state underneath.
    assert!(snmp.sa_cache.is_empty());
    assert_eq!(snmp.routes_of(LearnedFrom::Mbgp).count(), 0);
}

#[test]
fn snmp_sender_classification_lags_a_poll_behind() {
    let (mut sc, now) = warmed(3);
    let th = mantra::net::rate::SENDER_THRESHOLD;
    let cli_senders_now = cli_tables(&sc, "fixw", now).senders(th).len();
    let mut agent = Agent::new("public");
    refresh_agent(&mut agent, &sc.sim.net, sc.fixw, now);
    let mut snmp = SnmpCollector::new("public");
    let first = snmp.collect(&agent, "fixw", now).unwrap();
    assert_eq!(
        first.senders(th).len(),
        0,
        "first SNMP poll has no rates at all"
    );
    assert!(cli_senders_now > 0, "the CLI classifies immediately");
    // Second poll closes part of the gap.
    let later = now + SimDuration::mins(15);
    sc.sim.advance_to(later);
    refresh_agent(&mut agent, &sc.sim.net, sc.fixw, later);
    let second = snmp.collect(&agent, "fixw", later).unwrap();
    assert!(
        !second.senders(th).is_empty(),
        "rates appear after two polls"
    );
}

#[test]
fn wrong_community_is_rejected_everywhere() {
    let (sc, now) = warmed(4);
    let mut agent = Agent::new("s3cret");
    refresh_agent(&mut agent, &sc.sim.net, sc.fixw, now);
    let mut collector = SnmpCollector::new("public");
    assert!(matches!(
        collector.collect(&agent, "fixw", now),
        Err(SnmpError::BadCommunity)
    ));
    let mut collector = SnmpCollector::new("s3cret");
    assert!(collector.collect(&agent, "fixw", now).is_ok());
}

#[test]
fn mrouted_agent_exposes_dvmrp_but_not_border_tables() {
    let (sc, now) = warmed(5);
    let mut agent = Agent::new("public");
    refresh_agent(&mut agent, &sc.sim.net, sc.ucsb, now);
    let snmp = mantra::snmp::snmp_collect(&agent, "ucsb-gw", now).unwrap();
    assert!(snmp.reachable_dvmrp_routes() > 10);
    assert!(snmp.sa_cache.is_empty());
}
