//! Fast shape assertions for every figure — the CI-sized versions of the
//! full regeneration binaries. Each test checks the *qualitative* claim
//! the paper's figure makes, on a window short enough for the test suite.

use mantra::core::anomaly::AnomalyKind;
use mantra::core::{Monitor, MonitorConfig};
use mantra::net::{SimDuration, SimTime};
use mantra::sim::{Event, Scenario};

fn drive_until(sc: &mut Scenario, monitor: &mut Monitor, until: SimTime) {
    loop {
        let next = sc.sim.clock + monitor.cfg.interval;
        if next > until {
            break;
        }
        sc.sim.advance_to(next);
        monitor.run_cycle(&sc.sim, next);
    }
}

fn two_point_monitor(sc: &Scenario) -> Monitor {
    Monitor::new(
        MonitorConfig {
            routers: vec![
                sc.sim.net.topo.router(sc.fixw).name.clone(),
                sc.sim.net.topo.router(sc.ucsb).name.clone(),
            ],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    )
}

/// Figure 3: counts low, active subset much smaller, variation high.
#[test]
fn fig3_shape_low_counts_wide_gap_high_variance() {
    let mut sc = Scenario::fixw_six_months(301);
    let mut monitor = two_point_monitor(&sc);
    let end = sc.sim.clock + SimDuration::days(4);
    drive_until(&mut sc, &mut monitor, end);
    let sessions = monitor.usage_series("fixw", "s", |u| u.sessions as f64);
    let active = monitor.usage_series("fixw", "a", |u| u.active_sessions as f64);
    let participants = monitor.usage_series("fixw", "p", |u| u.participants as f64);
    // Counts are low: hundreds, not tens of thousands.
    assert!(sessions.mean() > 20.0 && sessions.mean() < 2_000.0);
    assert!(participants.mean() > 20.0 && participants.mean() < 5_000.0);
    // Wide gap: most sessions carry no data.
    assert!(
        active.mean() < 0.4 * sessions.mean(),
        "active {} vs sessions {}",
        active.mean(),
        sessions.mean()
    );
    // High variation (storms).
    assert!(
        sessions.stddev() / sessions.mean() > 0.10,
        "cv {}",
        sessions.stddev() / sessions.mean()
    );
}

/// Figure 4: session-count spikes coincide with density dips.
#[test]
fn fig4_shape_density_anticorrelates_with_session_spikes() {
    let mut sc = Scenario::fixw_six_months(401);
    let mut monitor = two_point_monitor(&sc);
    let end = sc.sim.clock + SimDuration::days(6);
    drive_until(&mut sc, &mut monitor, end);
    let sessions = monitor.usage_series("fixw", "s", |u| u.sessions as f64);
    let density = monitor.usage_series("fixw", "d", |u| u.avg_density);
    // At the session-count maximum (a storm), density sits below its
    // median (single-member flood).
    let (t_peak, _) = sessions.max().unwrap();
    let density_at_peak = density
        .points
        .iter()
        .find(|(t, _)| *t == t_peak)
        .map(|(_, v)| *v)
        .unwrap();
    assert!(
        density_at_peak < density.median(),
        "density at storm peak {density_at_peak} !< median {}",
        density.median()
    );
    // The single-member share at the peak is storm-dominated.
    let single = monitor.usage_series("fixw", "sm", |u| u.single_member_fraction);
    let single_at_peak = single
        .points
        .iter()
        .find(|(t, _)| *t == t_peak)
        .map(|(_, v)| *v)
        .unwrap();
    assert!(single_at_peak > 0.6, "single-member {single_at_peak}");
}

/// Figure 5: nonzero spiky bandwidth; unicast-equivalent multiple > 1.
#[test]
fn fig5_shape_bandwidth_and_savings() {
    let mut sc = Scenario::fixw_six_months(501);
    let mut monitor = two_point_monitor(&sc);
    let end = sc.sim.clock + SimDuration::days(4);
    drive_until(&mut sc, &mut monitor, end);
    let bw = monitor.usage_series("fixw", "bw", |u| u.total_bandwidth.mbps());
    let saved = monitor.usage_series("fixw", "sv", |u| u.bandwidth_saved_multiple);
    assert!(bw.mean() > 0.5, "mean bandwidth {:.2} Mbps", bw.mean());
    assert!(bw.mean() < 40.0, "mean bandwidth {:.2} Mbps", bw.mean());
    assert!(
        bw.stddev() / bw.mean() > 0.2,
        "bandwidth is spiky: cv {:.2}",
        bw.stddev() / bw.mean()
    );
    assert!(
        saved.mean() > 1.0,
        "multicast saves bandwidth: {:.2}",
        saved.mean()
    );
}

/// Figure 6: the transition raises the sender share and cuts variance.
/// (Uses the two static worlds; the time-series version is the binary.)
#[test]
fn fig6_shape_transition_effect() {
    let run = |native: f64| {
        let mut sc = Scenario::transition_snapshot(601, native);
        let mut monitor = two_point_monitor(&sc);
        let end = sc.sim.clock + SimDuration::days(3);
        drive_until(&mut sc, &mut monitor, end);
        let pct_senders = monitor.usage_series("fixw", "ps", |u| u.pct_senders());
        let sessions = monitor.usage_series("fixw", "s", |u| u.sessions as f64);
        let participants = monitor.usage_series("fixw", "p", |u| u.participants as f64);
        (pct_senders.mean(), sessions.stddev(), participants.mean())
    };
    let (snd_pre, var_pre, part_pre) = run(0.0);
    let (snd_post, var_post, part_post) = run(0.8);
    assert!(
        snd_post > snd_pre,
        "sender share rises: {snd_pre:.1}% -> {snd_post:.1}%"
    );
    assert!(
        var_post < var_pre,
        "session-count variance drops: {var_pre:.1} -> {var_post:.1}"
    );
    assert!(
        part_post < part_pre,
        "participants drop: {part_pre:.0} -> {part_post:.0}"
    );
}

/// Figure 7: report loss makes route counts vary and the two collection
/// points disagree.
#[test]
fn fig7_shape_instability_and_inconsistency() {
    let mut sc = Scenario::fixw_six_months(701);
    sc.sim.set_report_loss(0.30);
    let mut monitor = two_point_monitor(&sc);
    let end = sc.sim.clock + SimDuration::days(2);
    drive_until(&mut sc, &mut monitor, end);
    let fixw = monitor.route_series("fixw", "f", |r| r.dvmrp_reachable as f64);
    assert!(
        fixw.stddev() > 1.0,
        "unstable routes: stddev {}",
        fixw.stddev()
    );
    // Some cycle saw the two routers disagree.
    let churn_events: usize = monitor
        .churn_history("fixw")
        .iter()
        .map(|(_, c)| c.total())
        .sum();
    assert!(churn_events > 10, "churn {churn_events}");
    let a = monitor.latest("fixw").unwrap();
    let b = monitor.latest("ucsb-gw").unwrap();
    let report = mantra::core::stats::ConsistencyReport::between(a, b);
    assert!(report.shared > 0);
}

/// Figure 8: full DVMRP decommissioning drives the count to ~zero.
#[test]
fn fig8_shape_dvmrp_declines_to_zero() {
    let mut sc = Scenario::dvmrp_two_years(801);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    // Sample one day per quarter.
    let mut probe = SimTime::from_ymd(1998, 11, 2);
    while probe < SimTime::from_ymd(2000, 11, 1) {
        sc.sim.advance_to(probe);
        drive_until(&mut sc, &mut monitor, probe + SimDuration::hours(12));
        let (y, m, _) = probe.ymd();
        let (ny, nm) = if m >= 10 { (y + 1, m - 9) } else { (y, m + 3) };
        probe = SimTime::from_ymd(ny, nm, 2);
    }
    let routes = monitor.route_series("fixw", "r", |r| r.dvmrp_reachable as f64);
    let first = routes.points.first().unwrap().1;
    let last = routes.points.last().unwrap().1;
    assert!(first > 100.0, "healthy MBone at the start: {first}");
    assert!(
        last < 0.15 * first,
        "DVMRP nearly gone at the end: {first} -> {last}"
    );
}

/// Figure 9: the injection spike and the automated diagnosis.
#[test]
fn fig9_shape_injection_spike_detected_and_recovers() {
    let mut sc = Scenario::ucsb_injection_day(901);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    let end = sc.sim.end_time();
    drive_until(&mut sc, &mut monitor, end);
    let routes = monitor.route_series("ucsb-gw", "r", |r| r.dvmrp_reachable as f64);
    let baseline = routes.median();
    let (t_peak, peak) = routes.max().unwrap();
    assert!(peak > baseline * 5.0, "sharp spike: {baseline} -> {peak}");
    assert!(
        (t_peak.hour_of_day() - 14.0).abs() < 1.5,
        "spike near 14:00, got {:.1}",
        t_peak.hour_of_day()
    );
    // Recovered by end of day.
    let final_v = routes.points.last().unwrap().1;
    assert!(
        final_v < baseline * 1.5,
        "recovered: {final_v} vs {baseline}"
    );
    // Detectors fired with the right classification.
    assert!(monitor
        .anomalies
        .iter()
        .any(|a| matches!(a.kind, AnomalyKind::Spike { .. })));
    assert!(monitor
        .anomalies
        .iter()
        .any(|a| matches!(a.kind, AnomalyKind::RouteInjection { .. })));
}

/// The IETF broadcast (Figure 4's December peak) is visible end-to-end
/// through the monitoring pipeline, not just in ground truth.
#[test]
fn ietf_broadcast_visible_in_monitored_density() {
    let mut sc = Scenario::transition_snapshot(911, 0.0);
    let start = sc.sim.clock;
    sc.sim.schedule(
        start + SimDuration::days(1),
        Event::Broadcast {
            duration: SimDuration::days(3),
            audience: 250,
        },
    );
    let mut monitor = two_point_monitor(&sc);
    drive_until(&mut sc, &mut monitor, start + SimDuration::days(3));
    let density = monitor.usage_series("fixw", "d", |u| u.avg_density);
    let before = density.window(start, start + SimDuration::days(1));
    let during = density.window(start + SimDuration::days(2), start + SimDuration::days(3));
    assert!(
        during.mean() > before.mean() * 1.2,
        "density rises with the broadcast: {:.2} -> {:.2}",
        before.mean(),
        during.mean()
    );
}
