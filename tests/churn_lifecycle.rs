//! Archive lifecycle under churn, end to end: a monitored router leaves
//! mid-scenario, passes through `Stale{n}` into `Retired` (which seals
//! its `.marc` behind a writer-drain barrier), stays byte-stable while
//! absent, and rejoins at a fresh dictionary epoch with the full history
//! replaying clean. An [`ArchiveReader`] opened mid-churn always sees a
//! consistent prefix.

mod common;

use std::path::Path;

use common::TempDir;
use mantra::core::archive::ArchiveReader;
use mantra::core::logger::TableLog;
use mantra::core::{
    ArchiveSpec, BackpressureMode, LifecycleState, Monitor, MonitorConfig, SyncPolicy, WriterConfig,
};
use mantra::net::SimTime;
use mantra::sim::{ChurnEntry, ChurnEvent, ChurnSchedule, Scenario};

/// Cycle indices (hard-coded against the 15-minute transition tick):
/// ucsb-gw leaves just after cycle 6 and rejoins just before cycle 21.
const LEAVE_AFTER: u64 = 6;
const REJOIN_BEFORE: u64 = 21;
/// With `stale_after=2, retire_after=4`, the retiring seal lands on the
/// 4th missed cycle — cycle 10.
const RETIRED_BY: u64 = LEAVE_AFTER + 4;

/// A transition world with one precisely-timed churn incident installed:
/// ucsb-gw powers off, stays down long enough to retire, powers back on.
fn churned_world(seed: u64) -> Scenario {
    let mut sc = Scenario::transition_snapshot(seed, 0.4);
    sc.sim.set_report_loss(0.0);
    let ucsb = sc
        .sim
        .net
        .topo
        .router_by_name("ucsb-gw")
        .expect("ucsb-gw exists")
        .id;
    let step = sc.sim.tick().as_secs();
    let start = sc.sim.clock;
    let schedule = ChurnSchedule {
        events: vec![
            ChurnEntry {
                at: SimTime(start.0 + LEAVE_AFTER * step + 1),
                event: ChurnEvent::RouterLeave(ucsb),
                label: "router ucsb-gw leaves".into(),
            },
            ChurnEntry {
                at: SimTime(start.0 + (REJOIN_BEFORE - 1) * step + 1),
                event: ChurnEvent::RouterJoin(ucsb),
                label: "router ucsb-gw joins".into(),
            },
        ],
    };
    sc.sim.install_churn(schedule);
    sc
}

fn monitor_for(sc: &Scenario, dir: &Path) -> Monitor {
    Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            archive: ArchiveSpec::Threaded {
                dir: dir.to_path_buf(),
                sync: SyncPolicy::default(),
                writer: WriterConfig {
                    capacity: 64,
                    mode: BackpressureMode::Block,
                },
            },
            stale_after_intervals: 2,
            retire_after_intervals: 4,
            ..MonitorConfig::default()
        },
        1,
    )
}

fn drive(sc: &mut Scenario, m: &mut Monitor, cycles: u64) -> SimTime {
    let mut now = sc.sim.clock;
    for _ in 0..cycles {
        now = sc.sim.clock + m.cfg.interval;
        sc.sim.advance_to(now);
        m.run_cycle(&sc.sim, now);
    }
    now
}

#[test]
fn retire_seals_a_drained_archive_and_rejoin_appends_at_a_fresh_epoch() {
    let dir = TempDir::new("churn-lifecycle");
    let mut sc = churned_world(11);
    let mut m = monitor_for(&sc, dir.path());
    let path = ArchiveSpec::path_for(dir.path(), "ucsb-gw");

    // Healthy prefix: every cycle captured and archived.
    drive(&mut sc, &mut m, LEAVE_AFTER);
    assert_eq!(
        m.lifecycle_of("ucsb-gw"),
        Some(LifecycleState::Active),
        "still up"
    );

    // The router leaves; staleness accrues until the retiring cycle
    // seals the archive.
    drive(&mut sc, &mut m, RETIRED_BY - LEAVE_AFTER);
    assert_eq!(m.lifecycle_of("ucsb-gw"), Some(LifecycleState::Retired));
    let log = m.log("ucsb-gw").expect("state exists");
    assert!(log.is_sealed(), "retirement seals the log");

    // Seal is a drain barrier: every pre-departure snapshot reached the
    // disk through the writer thread — a cold read-only load sees all of
    // them, with no torn tail.
    let sealed = TableLog::load_read_only(&path).expect("sealed archive loads");
    let prefix = sealed.replay();
    assert_eq!(prefix.len() as u64, LEAVE_AFTER, "drained, nothing torn");
    let epoch_before = sealed.describe().epoch;

    // Byte-stable while retired: more cycles run (fixw keeps archiving),
    // the sealed file does not move.
    let frozen = std::fs::read(&path).expect("sealed bytes");
    drive(&mut sc, &mut m, 5);
    assert_eq!(m.lifecycle_of("ucsb-gw"), Some(LifecycleState::Retired));
    assert_eq!(
        std::fs::read(&path).expect("sealed bytes again"),
        frozen,
        "sealed .marc changed while the router was retired"
    );

    // An ArchiveReader opened mid-churn (writer alive, router retired)
    // yields the clean prefix.
    let reader = ArchiveReader::open(&path).expect("reader opens sealed archive");
    assert_eq!(reader.len() as u64, LEAVE_AFTER);
    assert!(reader.summary_lines(reader.len()).is_ok());

    // The router powers back on just before the cycle-21 capture: cycles
    // 21..=24 all succeed, and the first of them reopens the archive at a
    // fresh dictionary epoch and appends.
    let total = RETIRED_BY + 5;
    drive(&mut sc, &mut m, REJOIN_BEFORE + 3 - total);
    const POST_REJOIN: u64 = 24 - (REJOIN_BEFORE - 1);
    assert_eq!(m.lifecycle_of("ucsb-gw"), Some(LifecycleState::Active));
    let h = m.router_health("ucsb-gw").expect("health");
    assert_eq!(h.rejoins, 1, "one rejoin counted");
    let log = m.log("ucsb-gw").expect("state exists");
    assert!(!log.is_sealed(), "rejoin unseals");
    assert!(
        log.describe().epoch > epoch_before,
        "rejoin must bump the dictionary epoch ({} -> {})",
        epoch_before,
        log.describe().epoch
    );
    // `archive_stats` never drains the threaded writer (by design), so
    // the cycle's last record may still be queued: count after the
    // `len` drain barrier.
    assert_eq!(log.len() as u64, LEAVE_AFTER + POST_REJOIN);
    assert_eq!(
        log.archive_stats().records,
        LEAVE_AFTER + POST_REJOIN,
        "history plus post-rejoin appends"
    );

    // The rejoined archive replays clean from disk: the pre-departure
    // prefix byte-compatibly first, then the post-rejoin snapshots.
    let reopened = TableLog::load_read_only(&path).expect("rejoined archive loads");
    let full = reopened.replay();
    assert_eq!(full.len() as u64, LEAVE_AFTER + POST_REJOIN);
    assert_eq!(&full[..LEAVE_AFTER as usize], &prefix[..], "prefix intact");
    for w in full.windows(2) {
        assert!(w[0].captured_at < w[1].captured_at, "monotonic history");
    }
}

#[test]
fn sealed_log_refuses_appends_loudly() {
    let dir = TempDir::new("churn-sealed-append");
    let mut sc = churned_world(13);
    let mut m = monitor_for(&sc, dir.path());
    drive(&mut sc, &mut m, RETIRED_BY);
    assert_eq!(m.lifecycle_of("ucsb-gw"), Some(LifecycleState::Retired));
    let errors_at_seal = m.log("ucsb-gw").expect("log").write_errors;

    // While retired no cycle work happens for the router, so no append
    // is even attempted — the error count stays put.
    drive(&mut sc, &mut m, 3);
    assert_eq!(m.log("ucsb-gw").expect("log").write_errors, errors_at_seal);
}

#[test]
fn reader_mid_churn_tracks_the_growing_archive_consistently() {
    let dir = TempDir::new("churn-reader-prefix");
    let mut sc = churned_world(17);
    let mut m = monitor_for(&sc, dir.path());
    let path = ArchiveSpec::path_for(dir.path(), "fixw");

    // fixw never churns; its archive grows the whole run. A reader
    // opened at any point replays exactly the records it snapshotted.
    let mut seen = 0usize;
    for _ in 0..6 {
        drive(&mut sc, &mut m, 4);
        let reader = ArchiveReader::open(&path).expect("open mid-run");
        let len = reader.len();
        assert!(len >= seen, "logical end never goes backwards");
        seen = len;
        let lines = reader.summary_lines(len).expect("clean prefix");
        assert_eq!(lines.len(), len);
    }
    // The writer thread may still hold the last cycle's record when the
    // run ends: past the `len` drain barrier a fresh reader sees them all.
    m.log("fixw").expect("log").len();
    let reader = ArchiveReader::open(&path).expect("open after the drain");
    assert!(reader.len() >= seen, "logical end never goes backwards");
    assert_eq!(reader.len(), 24, "every cycle archived");
}
