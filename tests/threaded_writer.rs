//! Slow-disk and blocked-writer fault injection for the threaded
//! archive writer: a [`SlowBackend`] wrapper sleeps on every append, so
//! the bounded queue actually fills and both backpressure policies are
//! exercised for real — `Block` must account its wall time and lose
//! nothing, `Shed` must keep collection unblocked and lose records
//! *loudly*. Shutdown and sync are drain barriers: whatever was queued
//! is on disk (and fsynced) when they return.

mod common;

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use common::TempDir;
use mantra::core::archive::{
    ArchiveBackend, ArchiveStats, BackpressureMode, FileBackendV2, RecordIter, SyncPolicy,
    ThreadedBackend, WriterConfig,
};
use mantra::core::logger::{LogRecord, SnapshotParts};
use mantra::net::SimTime;

/// Wraps any backend and sleeps before each append — a disk whose write
/// latency dwarfs the collection cadence.
#[derive(Debug)]
struct SlowBackend {
    inner: Box<dyn ArchiveBackend>,
    delay: Duration,
}

impl SlowBackend {
    fn new(inner: Box<dyn ArchiveBackend>, delay: Duration) -> Self {
        SlowBackend { inner, delay }
    }
}

impl ArchiveBackend for SlowBackend {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn append(&mut self, rec: LogRecord) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.append(rec)
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

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

/// A small full-snapshot record with a unique timestamp.
fn full_record(n: u64) -> LogRecord {
    LogRecord::Full(SnapshotParts {
        captured_at: SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n * 900),
        router: "fixw".into(),
        ..SnapshotParts::default()
    })
}

fn slow_file_writer(
    path: &Path,
    delay: Duration,
    capacity: usize,
    mode: BackpressureMode,
) -> ThreadedBackend {
    let inner = Box::new(FileBackendV2::create(path).unwrap());
    let slow = Box::new(SlowBackend::new(inner, delay));
    ThreadedBackend::spawn(slow, WriterConfig { capacity, mode })
}

#[test]
fn block_mode_loses_nothing_and_accounts_its_wall_time() {
    let dir = TempDir::new("threaded");
    let path = dir.join("block.marc");
    let mut be = slow_file_writer(
        &path,
        Duration::from_millis(2),
        2, // tiny queue: the producer outruns the disk immediately
        BackpressureMode::Block,
    );
    const N: u64 = 50;
    for n in 0..N {
        be.append(full_record(n)).unwrap();
    }
    let stats = be.stats();
    assert!(
        stats.blocked_nanos > 0,
        "a 2ms disk behind a 2-slot queue must block the producer"
    );
    assert!(stats.queue_high_water >= 2);
    assert_eq!(stats.dropped_records, 0);
    drop(be); // shutdown drain barrier

    // Every record survived, in order.
    let reopened = FileBackendV2::open(&path).unwrap();
    assert_eq!(reopened.len(), N as usize);
    let times: Vec<u64> = reopened
        .records()
        .map(|r| match r.unwrap() {
            LogRecord::Full(p) => p.captured_at.as_secs(),
            LogRecord::Delta(d) => d.captured_at.as_secs(),
        })
        .collect();
    let expected: Vec<u64> = (0..N)
        .map(|n| SimTime::from_ymd(1998, 11, 1).as_secs() + n * 900)
        .collect();
    assert_eq!(times, expected);
}

#[test]
fn shed_mode_keeps_collection_unblocked_and_loses_records_loudly() {
    let dir = TempDir::new("threaded");
    let path = dir.join("shed.marc");
    let mut be = slow_file_writer(&path, Duration::from_millis(5), 1, BackpressureMode::Shed);
    const N: u64 = 30;
    let start = Instant::now();
    let mut shed = 0u64;
    for n in 0..N {
        if be.append(full_record(n)).is_err() {
            shed += 1;
        }
    }
    let elapsed = start.elapsed();
    // 30 appends against a 5ms-per-record disk take >= 150ms when
    // blocking; shedding must come back far sooner than that.
    assert!(
        elapsed < Duration::from_millis(100),
        "shed mode must not block the producer (took {elapsed:?})"
    );
    assert!(shed > 0, "a 1-slot queue over a 5ms disk must shed");
    let stats = be.stats();
    assert!(stats.dropped_records >= shed, "every shed is accounted");
    assert_eq!(stats.blocked_nanos, 0, "shed mode never blocks");
    drop(be);

    // What survived is an in-order subsequence of what was offered —
    // records are lost, never reordered, duplicated or altered.
    let reopened = FileBackendV2::open(&path).unwrap();
    let stored = reopened.len() as u64;
    assert_eq!(stored + shed, N);
    assert!(stored >= 1, "the first record always fits the empty queue");
    let times: Vec<u64> = reopened
        .records()
        .map(|r| match r.unwrap() {
            LogRecord::Full(p) => p.captured_at.as_secs(),
            LogRecord::Delta(d) => d.captured_at.as_secs(),
        })
        .collect();
    let base = SimTime::from_ymd(1998, 11, 1).as_secs();
    for t in &times {
        assert_eq!((t - base) % 900, 0, "stored record was altered");
    }
    assert!(times.windows(2).all(|w| w[0] < w[1]), "order preserved");
}

#[test]
fn dropping_the_backend_drains_the_queue() {
    let dir = TempDir::new("threaded");
    let path = dir.join("drain.marc");
    let mut be = slow_file_writer(
        &path,
        Duration::from_millis(2),
        64, // roomy queue: everything is still queued when we drop
        BackpressureMode::Block,
    );
    const N: u64 = 20;
    for n in 0..N {
        be.append(full_record(n)).unwrap();
    }
    // No barrier call — drop while the writer is still chewing.
    drop(be);
    let reopened = FileBackendV2::open(&path).unwrap();
    assert_eq!(
        reopened.len(),
        N as usize,
        "shutdown must drain, not discard"
    );
    assert_eq!(reopened.stats().recovered_bytes, 0);
}

#[test]
fn sync_is_a_drain_and_fsync_barrier() {
    let dir = TempDir::new("threaded");
    let path = dir.join("sync-barrier.marc");
    let inner = Box::new({
        let mut b = FileBackendV2::create(&path).unwrap();
        // Never fsync on its own: only the explicit barrier may clear
        // the pending count.
        b.sync = SyncPolicy {
            on_checkpoint: false,
            every_records: 0,
            every_bytes: 0,
        };
        b
    });
    let slow = Box::new(SlowBackend::new(inner, Duration::from_millis(2)));
    let mut be = ThreadedBackend::spawn(
        slow,
        WriterConfig {
            capacity: 64,
            mode: BackpressureMode::Block,
        },
    );
    const N: u64 = 12;
    for n in 0..N {
        be.append(full_record(n)).unwrap();
    }
    // Checkpoint barrier: when sync() returns, nothing is queued and
    // nothing is pending an fsync — the archive is durable to here.
    be.sync().unwrap();
    let stats = be.stats();
    assert_eq!(stats.records, N);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.pending_appends, 0);
    assert!(stats.fsyncs >= 1);
    drop(be);
}

#[test]
fn observers_never_act_as_drain_barriers() {
    // The daemon polls stats() between cycles while the writer chews
    // through its queue. That observer must answer from the mirror +
    // queue overlay, never by waiting for the drain — a health query
    // that stalls behind a slow disk would defeat the writer thread
    // entirely.
    let dir = TempDir::new("threaded");
    let path = dir.join("observer-no-stall.marc");
    let delay = Duration::from_millis(20);
    let mut be = slow_file_writer(&path, delay, 64, BackpressureMode::Block);
    const N: u64 = 24;
    for n in 0..N {
        be.append(full_record(n)).unwrap();
    }
    // ~N*20ms of disk work is queued; the observer must return well
    // inside one append's delay, and the queue must still be non-empty
    // after — proof it did not silently drain it.
    let t = Instant::now();
    let stats = be.stats();
    let observed = t.elapsed();
    assert!(
        stats.queue_depth > 0,
        "queue drained under the observers: stats() blocked on the writer"
    );
    assert!(
        observed < delay * (N as u32) / 2,
        "stats() took {observed:?} — it stalled behind the slow disk"
    );
    assert_eq!(stats.format_version, 2);
    // pending includes the queued records (power-loss exposure).
    assert!(stats.pending_appends >= stats.queue_depth);
    drop(be); // the shutdown drain barrier is still a drain barrier
    let reopened = FileBackendV2::open(&path).unwrap();
    assert_eq!(reopened.len(), N as usize);
}
