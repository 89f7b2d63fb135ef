//! Golden v1 fixture archives: committed MANTRARC v1 files that pin the
//! legacy on-disk format forever. v1 is read-only — nothing writes it
//! any more, so the fixture is frozen. The read-only decoder must keep
//! replaying it byte-identically to a memory archive fed the same
//! stream, `v1 → compact → v2` must preserve every row while shrinking
//! the file, and opening it for append must fail with a pointer to the
//! compaction.
//!
//! The fixture stream is regenerated deterministically in-test (no
//! committed JSON), so a drift in either the fixture bytes or the reader
//! shows up as a replay diff.

mod common;

use std::path::PathBuf;

use common::TempDir;
use mantra::core::archive::{ArchiveBackend, FileBackendV1};
use mantra::core::logger::{compact_archive, CompactOptions, TableLog};
use mantra::core::tables::{LearnedFrom, PairRow, RouteRow, Tables};
use mantra::net::{BitRate, GroupAddr, Ip, Prefix, SimTime};

const FULL_EVERY: usize = 4;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/data/{name}"))
}

/// The canonical fixture stream: 10 cycles over a small multicast fleet
/// with per-cycle bandwidth drift, pair churn and a route flap — every
/// record kind and both full/delta encodings appear.
fn fixture_stream() -> Vec<Tables> {
    (0..10u64)
        .map(|n| {
            let at = SimTime(SimTime::from_ymd(1999, 2, 15).as_secs() + n * 900);
            let mut t = Tables::new("fixw", at);
            for g in 0..10u32 {
                t.add_pair(PairRow {
                    source: Ip(0x0a14_0000 + g),
                    group: GroupAddr::from_index(g),
                    current_bw: BitRate::from_bps(2_000 + 131 * n * u64::from(g == 1)),
                    avg_bw: BitRate::from_bps(2_000),
                    forwarding: g % 3 != 0,
                    learned_from: if g % 2 == 0 {
                        LearnedFrom::Dvmrp
                    } else {
                        LearnedFrom::Pim
                    },
                });
            }
            // Churn: a pair that joins halfway through.
            if n >= 5 {
                t.add_pair(PairRow {
                    source: Ip(0x0a14_0100 + n as u32),
                    group: GroupAddr::from_index(30 + n as u32),
                    current_bw: BitRate::from_bps(750),
                    avg_bw: BitRate::from_bps(750),
                    forwarding: true,
                    learned_from: LearnedFrom::Msdp,
                });
            }
            for i in 0..6u32 {
                // One prefix flaps reachability every other cycle.
                let reachable = i != 2 || n % 2 == 0;
                t.add_route(RouteRow {
                    prefix: Prefix::new(Ip(Ip::new(128, 111, 0, 0).0 + (i << 8)), 24).unwrap(),
                    next_hop: Some(Ip::new(10, 20, 0, 1)),
                    metric: 1 + i,
                    uptime: None,
                    reachable,
                    learned_from: LearnedFrom::Dvmrp,
                });
            }
            t
        })
        .collect()
}

#[test]
fn v1_fixture_replays_byte_identically_to_memory() {
    let streams = fixture_stream();
    let log = TableLog::load_read_only(&fixture_path("fixw-v1.marc")).unwrap();
    assert_eq!(log.backend_kind(), "file");
    assert_eq!(log.describe().format_version, 1);
    assert_eq!(log.archive_stats().recovered_bytes, 0);

    let mut mem = TableLog::new(FULL_EVERY);
    for s in &streams {
        mem.append(s);
    }
    // Same rows, same record kinds: the read-only v1 decoder loses
    // nothing.
    assert_eq!(log.replay(), streams);
    assert_eq!(log.replay(), mem.replay());
    // Every stored payload is the serde_json rendering of the record
    // decoded from it, plus the fixed 9-byte v1 frame header per record —
    // pinning both the payload bytes and the frame overhead.
    let v1 = FileBackendV1::open_read_only(fixture_path("fixw-v1.marc")).unwrap();
    let payload: u64 = v1
        .records()
        .map(|r| serde_json::to_string(&r.unwrap()).unwrap().len() as u64)
        .sum();
    let stats = log.archive_stats();
    assert_eq!(stats.bytes, payload + 9 * stats.records);
    assert_eq!(stats.checkpoints, mem.archive_stats().checkpoints);
}

#[test]
fn v1_fixture_refuses_appends_and_names_compaction() {
    let fixture = fixture_path("fixw-v1.marc");
    let before = std::fs::read(&fixture).unwrap();
    let err = TableLog::load(&fixture, FULL_EVERY).unwrap_err();
    assert!(err.to_string().contains("mantra archive compact"), "{err}");
    // A read-only log counts the refused append instead of writing.
    let mut log = TableLog::load_read_only(&fixture).unwrap();
    log.append(&fixture_stream()[0]);
    assert_eq!(log.write_errors, 1);
    assert!(
        log.backend_error()
            .is_some_and(|e| e.contains("mantra archive compact")),
        "{:?}",
        log.backend_error()
    );
    drop(log);
    assert_eq!(std::fs::read(&fixture).unwrap(), before, "fixture written");
}

#[test]
fn v1_fixture_compacts_to_an_equivalent_smaller_v2_archive() {
    let src = TableLog::load_read_only(&fixture_path("fixw-v1.marc")).unwrap();
    let dir = TempDir::new("fixture-compact");
    let out = dir.join("compacted.marc");
    let (dst, dropped) = compact_archive(
        &src,
        &out,
        &CompactOptions {
            full_every: FULL_EVERY,
            ..CompactOptions::default()
        },
    )
    .unwrap();
    assert_eq!(dropped, 0);
    assert_eq!(dst.replay(), src.replay());
    // The rewrite bumps the dictionary epoch past the v1 source's 0 and
    // lands in the id-keyed format, which is strictly smaller on disk.
    let info = dst.describe();
    assert_eq!(info.format_version, 2);
    assert_eq!(info.epoch, 1);
    assert!(info.dict_entries > 0);
    assert!(
        dst.archive_stats().bytes < src.archive_stats().bytes,
        "v2 {} bytes vs v1 {} bytes",
        dst.archive_stats().bytes,
        src.archive_stats().bytes
    );
    // And the compacted archive reopens for append.
    drop(dst);
    let reloaded = TableLog::load(&out, FULL_EVERY).unwrap();
    assert_eq!(reloaded.replay(), src.replay());
}
