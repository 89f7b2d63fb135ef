//! Crash-injection harness for the v2 archive: a [`FailingBackend`]
//! wrapper gives the on-disk file a byte budget and "crashes" the first
//! append that would exceed it — only the bytes that made it to the
//! platter survive, exactly like a power cut mid-write. Sweeping the
//! budget across every frame boundary (and the bytes around them) proves
//! the recovery invariant: reopening always yields a clean prefix of the
//! appended stream, accounts the torn tail in `recovered_bytes`, and the
//! archive accepts new appends afterwards.

mod common;

use std::io;
use std::path::{Path, PathBuf};

use common::TempDir;
use mantra::core::archive::{
    ArchiveBackend, ArchiveInfo, ArchiveSpec, ArchiveStats, BackpressureMode, FileBackendV2,
    RecordIter, ThreadedBackend, WriterConfig,
};
use mantra::core::logger::{LogRecord, TableLog};
use mantra::core::pipeline::RouterState;
use mantra::core::tables::{LearnedFrom, PairRow, Tables};
use mantra::net::{BitRate, GroupAddr, Ip, SimTime};

/// A deterministic snapshot stream: enough churn that full and delta
/// records, dictionary growth and checkpoints all appear.
fn snapshot(n: u64) -> Tables {
    let at = SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n * 900);
    let mut t = Tables::new("fixw", at);
    for g in 0..12 {
        t.add_pair(PairRow {
            source: Ip(0x0a00_0000 + g),
            group: GroupAddr::from_index(g),
            // One rate varies per cycle so every snapshot differs.
            current_bw: BitRate::from_bps(1_000 + 97 * n * u64::from(g == 0)),
            avg_bw: BitRate::from_bps(1_000),
            forwarding: g % 2 == 0,
            learned_from: LearnedFrom::Dvmrp,
        });
    }
    // A pair that only exists on later cycles: dictionary entries keep
    // arriving after the first record, so dict segments interleave.
    if n >= 3 {
        t.add_pair(PairRow {
            source: Ip(0x0a00_0100 + n as u32),
            group: GroupAddr::from_index(20 + n as u32),
            current_bw: BitRate::from_bps(500),
            avg_bw: BitRate::from_bps(500),
            forwarding: true,
            learned_from: LearnedFrom::Pim,
        });
    }
    t
}

fn stream() -> Vec<Tables> {
    (0..8).map(snapshot).collect()
}

/// Wraps a [`FileBackendV2`] with a byte budget. The append that pushes
/// the file past the budget truncates it back to exactly `budget` bytes
/// (the prefix that "reached the disk") and kills the backend: every
/// later append and fsync fails, as it would on a dead device.
#[derive(Debug)]
struct FailingBackend {
    inner: FileBackendV2,
    path: PathBuf,
    budget: u64,
    dead: bool,
}

impl FailingBackend {
    fn create(path: &Path, budget: u64) -> Self {
        FailingBackend {
            inner: FileBackendV2::create(path).unwrap(),
            path: path.to_path_buf(),
            budget,
            dead: false,
        }
    }

    fn die(&mut self) -> io::Error {
        self.dead = true;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .unwrap();
        let len = f.metadata().unwrap().len();
        f.set_len(self.budget.min(len)).unwrap();
        io::Error::other("simulated crash: write budget exhausted")
    }
}

impl ArchiveBackend for FailingBackend {
    fn kind(&self) -> &'static str {
        "failing"
    }

    fn append(&mut self, rec: LogRecord) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::other("simulated crash: backend dead"));
        }
        self.inner.append(rec)?;
        if std::fs::metadata(&self.path).unwrap().len() > self.budget {
            return Err(self.die());
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn records(&self) -> RecordIter<'_> {
        self.inner.records()
    }

    fn records_from(&self, start: usize) -> RecordIter<'_> {
        self.inner.records_from(start)
    }

    fn last_checkpoint(&self) -> Option<usize> {
        self.inner.last_checkpoint()
    }

    fn stats(&self) -> ArchiveStats {
        self.inner.stats()
    }

    fn describe(&self) -> ArchiveInfo {
        self.inner.describe()
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::other("simulated crash: backend dead"));
        }
        self.inner.sync()
    }
}

/// Record-batch offsets (dict frame + record frame spans) of the clean,
/// uncrashed archive — the crashed file is byte-identical up to its
/// budget, so these are the ground truth for what each budget preserves.
/// The clean archive is written inside the calling test's own `dir`.
fn clean_offsets(dir: &TempDir, streams: &[Tables], full_every: usize) -> (Vec<u64>, u64) {
    let path = dir.join("clean.marc");
    let backend = FileBackendV2::create(&path).unwrap();
    let mut log = TableLog::with_backend(Box::new(backend), full_every);
    for s in streams {
        log.append(s);
    }
    assert_eq!(log.backend_error(), None);
    drop(log);
    let be = FileBackendV2::open(&path).unwrap();
    let offsets = be.offsets().to_vec();
    let total = *offsets.last().unwrap();
    (offsets, total)
}

#[test]
fn every_crash_point_recovers_to_a_clean_prefix_and_keeps_appending() {
    let dir = TempDir::new("crash-sweep");
    let streams = stream();
    let full_every = 3;
    let (offsets, total) = clean_offsets(&dir, &streams, full_every);
    assert_eq!(offsets.len(), streams.len() + 1);

    // Every frame boundary ± 1, plus a stride across the whole file.
    let mut budgets: Vec<u64> = offsets
        .iter()
        .flat_map(|&o| [o.saturating_sub(1), o, o + 1])
        .chain((24..total).step_by(7))
        .filter(|&b| (24..total).contains(&b))
        .collect();
    budgets.sort_unstable();
    budgets.dedup();
    assert!(budgets.len() > 50, "sweep too small: {}", budgets.len());

    let path = dir.join("crash.marc");
    for &budget in &budgets {
        // Expected survivors: record batches wholly within the budget.
        let k = offsets[1..].iter().filter(|&&end| end <= budget).count();

        let mut log =
            TableLog::with_backend(Box::new(FailingBackend::create(&path, budget)), full_every);
        for s in &streams {
            log.append(s);
        }
        assert!(log.write_errors >= 1, "budget {budget}: no crash observed");
        assert!(log.backend_error().is_some(), "budget {budget}");
        drop(log);

        // Reopen: the torn tail is dropped and accounted, survivors
        // replay byte-faithfully. Recovery may retain a complete
        // dictionary frame whose record was torn (harmless: unreferenced
        // entries), so the surviving length lands between the last
        // record boundary and the budget, with every dropped byte
        // accounted in `recovered_bytes`.
        let recovered = TableLog::load(&path, full_every).unwrap();
        let stats = recovered.archive_stats();
        assert_eq!(stats.records, k as u64, "budget {budget}");
        let len_after = std::fs::metadata(&path).unwrap().len();
        assert!(
            (offsets[k]..=budget).contains(&len_after),
            "budget {budget}: recovered file len {len_after}"
        );
        assert_eq!(stats.recovered_bytes, budget - len_after, "budget {budget}");
        assert_eq!(recovered.replay(), &streams[..k], "budget {budget}");

        // And the recovered archive is writable: life goes on after a
        // crash, from the last intact record.
        let mut recovered = recovered;
        recovered.append(&snapshot(99));
        assert_eq!(recovered.backend_error(), None, "budget {budget}");
        assert_eq!(recovered.replay().len(), k + 1, "budget {budget}");
    }
}

#[test]
fn every_crash_point_recovers_under_the_threaded_writer() {
    let dir = TempDir::new("crash-threaded");
    let streams = stream();
    let full_every = 3;
    let (offsets, total) = clean_offsets(&dir, &streams, full_every);

    // Frame boundaries ± 1 — the sweep that matters for torn frames.
    // (The dense byte stride is covered by the synchronous sweep above;
    // this one proves the same invariant holds with a writer thread
    // between the logger and the disk.)
    let mut budgets: Vec<u64> = offsets
        .iter()
        .flat_map(|&o| [o.saturating_sub(1), o, o + 1])
        .filter(|&b| (24..total).contains(&b))
        .collect();
    budgets.sort_unstable();
    budgets.dedup();
    assert!(budgets.len() > 10, "sweep too small: {}", budgets.len());

    let serial_path = dir.join("thr-serial.marc");
    let threaded_path = dir.join("thr-crash.marc");
    for &budget in &budgets {
        let k = offsets[1..].iter().filter(|&&end| end <= budget).count();

        // Ground truth: the same crash through the synchronous backend.
        let mut serial = TableLog::with_backend(
            Box::new(FailingBackend::create(&serial_path, budget)),
            full_every,
        );
        for s in &streams {
            serial.append(s);
        }
        drop(serial);

        let failing = Box::new(FailingBackend::create(&threaded_path, budget));
        let writer = ThreadedBackend::spawn(
            failing,
            WriterConfig {
                capacity: 2, // small enough that backpressure engages
                mode: BackpressureMode::Block,
            },
        );
        let mut log = TableLog::with_backend(Box::new(writer), full_every);
        for s in &streams {
            log.append(s);
        }
        // The crash happened on the writer thread; the error is still
        // visible — either deferred into the logger on a later append,
        // or through the backend stats the writer maintains. len() is a
        // drain barrier, so the crash has been applied by the time the
        // stats are read.
        let _ = log.len();
        let observed = log.write_errors.max(log.archive_stats().write_errors);
        assert!(observed >= 1, "budget {budget}: crash never surfaced");
        drop(log); // shutdown drain barrier

        // Nothing past the crash reaches the disk on either path: the
        // crashed files are byte-identical, writer thread or not.
        assert_eq!(
            std::fs::read(&serial_path).unwrap(),
            std::fs::read(&threaded_path).unwrap(),
            "budget {budget}"
        );

        // And recovery is the same clean prefix the synchronous sweep
        // proves.
        let recovered = TableLog::load(&threaded_path, full_every).unwrap();
        assert_eq!(
            recovered.archive_stats().records,
            k as u64,
            "budget {budget}"
        );
        assert_eq!(recovered.replay(), &streams[..k], "budget {budget}");
    }
}

#[test]
fn corrupted_archive_replay_degrades_instead_of_panicking() {
    // Satellite regression for the `.expect("archive replay failed")`
    // panic: a record that goes bad *after* the archive was opened (the
    // open-time scan can no longer truncate it away) must end replay at
    // the last clean snapshot, not crash the monitor.
    let dir = TempDir::new("crash-degrade");
    let path = dir.join("replay-degrade.marc");
    let streams = stream();
    let backend = FileBackendV2::create(&path).unwrap();
    let mut log = TableLog::with_backend(Box::new(backend), 3);
    for s in &streams {
        log.append(s);
    }
    assert_eq!(log.backend_error(), None);

    // Corrupt a payload byte of the 4th record batch on disk while the
    // log stays open — bit rot under a live monitor.
    let offsets: Vec<u64> = {
        let be = FileBackendV2::open(&path).unwrap();
        be.offsets().to_vec()
    };
    let mut bytes = std::fs::read(&path).unwrap();
    let target = (offsets[3] + 15) as usize;
    bytes[target] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    // replay(): clean prefix, error counted, no panic.
    let got = log.replay();
    assert!(got.len() < streams.len(), "corruption must cut the replay");
    assert_eq!(got.as_slice(), &streams[..got.len()]);
    assert_eq!(log.replay_errors(), 1);
    assert!(log.last_replay_error().is_some());

    // try_replay(): same accounting, error propagated.
    assert!(log.try_replay().is_err());
    assert_eq!(log.replay_errors(), 2);

    // The failures reach the archive's error count and health rule (and
    // from there the health and archive tables, the HTML report and
    // `/health`).
    assert_eq!(log.errors(), 2);
    assert!(log.degraded());
}

#[test]
fn crashed_backend_surfaces_in_pipeline_metrics() {
    let dir = TempDir::new("crash-metrics");
    let path = dir.join("metrics.marc");
    let budget = 200; // enough for the header and about one record
    let mut log = TableLog::with_backend(Box::new(FailingBackend::create(&path, budget)), 4);
    for s in &stream() {
        log.append(s);
    }
    assert!(log.write_errors > 0);

    // The log's health rule counts the errors and reads degraded.
    assert_eq!(log.backend_kind(), "failing");
    assert!(log.errors() >= log.write_errors);
    assert!(log.degraded());
}

#[test]
fn unopenable_archive_dir_counts_as_fallback_in_metrics() {
    // A path under a regular file can never become a directory, so the
    // spec's file backend cannot be created and the log silently
    // degrades to memory — which the health rule must surface.
    let dir = TempDir::new("crash-flat");
    let flat = dir.join("flat");
    std::fs::write(&flat, b"not a dir").unwrap();
    let spec = ArchiveSpec::File {
        dir: flat.join("archives"),
        sync: Default::default(),
    };
    let state = RouterState::new("fixw".into(), 4, &spec);
    assert!(state.log.fell_back);
    assert_eq!(state.log.backend_kind(), "memory");
    // The fallback counts one write error and degrades the archive.
    assert_eq!(state.log.errors(), 1);
    assert!(state.log.degraded());
}
