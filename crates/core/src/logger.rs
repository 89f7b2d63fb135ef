//! The data logger: space-efficient archival of table snapshots.
//!
//! The paper names two storage-conservation techniques and this module
//! implements both:
//!
//! * **Storing only deltas** — instead of the full table, each cycle
//!   stores what changed since the previous one (with periodic full
//!   snapshots so archives remain seekable and loss-bounded).
//! * **Avoiding redundancy** — tables derivable from other tables are not
//!   stored at all. In this schema the Participant and Session tables are
//!   functions of the Pair table (plus IGMP-only sessions), so a log
//!   record carries only pairs, routes, the SA cache and the handful of
//!   member-only sessions; reconstruction rebuilds the rest.
//!
//! A delta is one merge join per section: [`SnapshotParts`] keep every
//! section in key order, so [`diff`] and [`apply`] walk two sorted runs
//! in step and keep no state between cycles. The `BTreeMap` codec they
//! are property-tested against lives in the test-support crate
//! `mantra-oracle`.
//!
//! Reconstruction is lossless: replaying a log yields snapshots equal to
//! the originals, which the property tests assert. Every replay — of a
//! live log, of an archive reopened from disk, or of an
//! [`ArchiveReader`]'s prefix — runs through one fold, [`ReplayIter`].
//!
//! An archive on disk is opened one of two ways: [`TableLog::load`]
//! reopens a v2 archive for append (healing a torn tail), and
//! [`TableLog::load_read_only`] reads v1 or v2 without ever writing.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use mantra_net::{GroupAddr, Ip, Prefix, SimTime};

use crate::archive::{
    read_header, unsupported_version, ArchiveBackend, ArchiveInfo, ArchiveReader, ArchiveSpec,
    ArchiveStats, FileBackendV1, FileBackendV2, MemoryBackend, RecordIter, SyncPolicy,
    ThreadedBackend, WriterConfig, FORMAT_VERSION, FORMAT_VERSION_V2,
};
use crate::tables::{
    last_per_key, LearnedFrom, PairRow, RouteRow, SessionRow, Tables, TablesBuilder,
};

/// What a stored row costs, in the units the Full/Delta choice and
/// [`TableLog::savings_ratio`] count: pairs, routes, SA entries and
/// member-only sessions alike, whether in a Full record or as a Delta
/// upsert.
pub const ROW_COST: u64 = 2;
/// What a Delta removal costs: a key alone, about half a row.
pub const KEY_COST: u64 = 1;

/// What one cycle stores.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// A full (but redundancy-eliminated) snapshot.
    Full(SnapshotParts),
    /// Changes relative to the previous record.
    Delta(TableDelta),
}

impl LogRecord {
    /// The record's storage cost ([`ROW_COST`] per row, [`KEY_COST`]
    /// per removal key).
    pub fn cost(&self) -> u64 {
        match self {
            LogRecord::Full(p) => p.cost(),
            LogRecord::Delta(d) => d.cost(),
        }
    }
}

/// The non-derivable parts of a snapshot. Every section is in strict
/// key order when built by [`SnapshotParts::from_tables`] or [`apply`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SnapshotParts {
    /// Capture timestamp.
    pub captured_at: SimTime,
    /// Source router.
    pub router: String,
    /// All `(S,G)` pairs.
    pub pairs: Vec<PairRow>,
    /// All routes.
    pub routes: Vec<RouteRow>,
    /// The SA cache.
    pub sa_cache: Vec<(GroupAddr, Ip, SimTime)>,
    /// Sessions not derivable from pairs (IGMP-membership-only).
    pub member_only_sessions: Vec<SessionRow>,
}

/// A delta between consecutive snapshots.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TableDelta {
    /// Capture timestamp of the new snapshot.
    pub captured_at: SimTime,
    /// Added or changed pairs.
    pub pair_upserts: Vec<PairRow>,
    /// Removed pairs.
    pub pair_removals: Vec<(GroupAddr, Ip)>,
    /// Added or changed routes.
    pub route_upserts: Vec<RouteRow>,
    /// Removed routes.
    pub route_removals: Vec<(LearnedFrom, Prefix)>,
    /// Added or changed SA entries.
    pub sa_upserts: Vec<(GroupAddr, Ip, SimTime)>,
    /// Removed SA entries.
    pub sa_removals: Vec<(GroupAddr, Ip)>,
    /// Added or changed member-only sessions.
    pub session_upserts: Vec<SessionRow>,
    /// Removed member-only sessions.
    pub session_removals: Vec<GroupAddr>,
}

impl SnapshotParts {
    /// Extracts the non-derivable parts of a snapshot.
    pub fn from_tables(t: &Tables) -> Self {
        SnapshotParts {
            captured_at: t.captured_at,
            router: t.router.clone(),
            pairs: t.pairs.values().cloned().collect(),
            routes: t.routes.values().cloned().collect(),
            sa_cache: t
                .sa_cache
                .iter()
                .map(|((g, s), at)| (*g, *s, *at))
                .collect(),
            member_only_sessions: t
                .sessions
                .values()
                .filter(|s| s.density == 0 && s.first_advertised == LearnedFrom::Igmp)
                .cloned()
                .collect(),
        }
    }

    /// The cost of storing this snapshot as a Full record: every row
    /// at [`ROW_COST`].
    pub fn cost(&self) -> u64 {
        let rows = self.pairs.len()
            + self.routes.len()
            + self.sa_cache.len()
            + self.member_only_sessions.len();
        ROW_COST * rows as u64
    }

    /// Rebuilds the full four-table snapshot (the redundancy rule run
    /// forward): the member-only sessions seed the Session table and
    /// every stored row goes through one [`TablesBuilder`].
    pub fn rebuild(&self) -> Tables {
        let mut rows = TablesBuilder::new();
        for s in &self.member_only_sessions {
            rows.seed_session(s.clone());
        }
        for p in &self.pairs {
            rows.pair(p.clone());
        }
        for r in &self.routes {
            rows.route(r.clone());
        }
        for (g, s, at) in &self.sa_cache {
            rows.sa(*g, *s, *at);
        }
        rows.build(self.router.clone(), self.captured_at)
    }
}

impl TableDelta {
    /// The cost of storing this delta: each upsert at [`ROW_COST`],
    /// each removal at [`KEY_COST`].
    pub fn cost(&self) -> u64 {
        let upserts = self.pair_upserts.len()
            + self.route_upserts.len()
            + self.sa_upserts.len()
            + self.session_upserts.len();
        let removals = self.pair_removals.len()
            + self.route_removals.len()
            + self.sa_removals.len()
            + self.session_removals.len();
        ROW_COST * upserts as u64 + KEY_COST * removals as u64
    }
}

/// `rows` in strict key order: borrowed as they are when already so,
/// otherwise sorted keeping the last row of each key, as collecting them
/// into a map would. Sections this program builds are always in key
/// order; only hand-built input or a hand-edited archive is sorted here.
fn in_key_order<T: Clone, K: Ord>(rows: &[T], key: impl Fn(&T) -> K) -> Cow<'_, [T]> {
    if rows.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        return Cow::Borrowed(rows);
    }
    let sorted = last_per_key(rows.to_vec(), key);
    Cow::Owned(sorted.into_iter().map(|(_, row)| row).collect())
}

/// Walks two key-sorted sections in step, handing `f` each key's row
/// from `a`, from `b`, or from both.
fn merge_join<T, K: Ord>(
    a: &[T],
    b: &[T],
    key: impl Fn(&T) -> K,
    mut f: impl FnMut(Option<&T>, Option<&T>),
) {
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    loop {
        let order = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => key(x).cmp(&key(y)),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return,
        };
        let x = if order.is_le() { a.next() } else { None };
        let y = if order.is_ge() { b.next() } else { None };
        f(x, y);
    }
}

/// Diffs one keyed section: a key only in `prev` is a removal, a key
/// only in `next` or whose row changed is an upsert. Upserts come out
/// in `next` key order and removals in `prev` key order.
fn diff_section<T: Clone + PartialEq, K: Ord>(
    prev: &[T],
    next: &[T],
    key: impl Fn(&T) -> K,
    upserts: &mut Vec<T>,
    removals: &mut Vec<K>,
) {
    let (prev, next) = (in_key_order(prev, &key), in_key_order(next, &key));
    merge_join(&prev, &next, &key, |p, n| match (p, n) {
        (Some(p), None) => removals.push(key(p)),
        (p, Some(n)) if p != Some(n) => upserts.push(n.clone()),
        _ => {}
    });
}

/// Applies one keyed section: an upsert replaces its key's base row, and
/// every removed key is dropped, even one that was also upserted. The
/// output is in strict key order.
fn apply_section<T: Clone, K: Ord + Copy>(
    base: &[T],
    upserts: &[T],
    removals: &[K],
    key: impl Fn(&T) -> K,
    out: &mut Vec<T>,
) {
    let (base, upserts) = (in_key_order(base, &key), in_key_order(upserts, &key));
    let removals = in_key_order(removals, |k| *k);
    let mut removed = removals.iter().peekable();
    merge_join(&base, &upserts, &key, |b, u| {
        let Some(row) = u.or(b) else { return };
        let k = key(row);
        while removed.next_if(|r| **r < k).is_some() {}
        if removed.peek() != Some(&&k) {
            out.push(row.clone());
        }
    });
}

/// Computes the delta taking `prev` to `next`, one merge join per
/// section. Output is identical to the `BTreeMap` codec's in
/// `mantra-oracle`.
pub fn diff(prev: &SnapshotParts, next: &SnapshotParts) -> TableDelta {
    let mut d = TableDelta {
        captured_at: next.captured_at,
        ..TableDelta::default()
    };
    diff_section(
        &prev.pairs,
        &next.pairs,
        |p| (p.group, p.source),
        &mut d.pair_upserts,
        &mut d.pair_removals,
    );
    diff_section(
        &prev.routes,
        &next.routes,
        |r| (r.learned_from, r.prefix),
        &mut d.route_upserts,
        &mut d.route_removals,
    );
    diff_section(
        &prev.sa_cache,
        &next.sa_cache,
        |(g, s, _)| (*g, *s),
        &mut d.sa_upserts,
        &mut d.sa_removals,
    );
    diff_section(
        &prev.member_only_sessions,
        &next.member_only_sessions,
        |s| s.group,
        &mut d.session_upserts,
        &mut d.session_removals,
    );
    d
}

/// Applies a delta to `base`, producing the next snapshot's parts.
/// Output is identical to the `BTreeMap` codec's in `mantra-oracle`.
pub fn apply(base: &SnapshotParts, delta: &TableDelta) -> SnapshotParts {
    let mut next = SnapshotParts {
        captured_at: delta.captured_at,
        router: base.router.clone(),
        ..SnapshotParts::default()
    };
    apply_section(
        &base.pairs,
        &delta.pair_upserts,
        &delta.pair_removals,
        |p| (p.group, p.source),
        &mut next.pairs,
    );
    apply_section(
        &base.routes,
        &delta.route_upserts,
        &delta.route_removals,
        |r| (r.learned_from, r.prefix),
        &mut next.routes,
    );
    apply_section(
        &base.sa_cache,
        &delta.sa_upserts,
        &delta.sa_removals,
        |(g, s, _)| (*g, *s),
        &mut next.sa_cache,
    );
    apply_section(
        &base.member_only_sessions,
        &delta.session_upserts,
        &delta.session_removals,
        |s| s.group,
        &mut next.member_only_sessions,
    );
    next
}

/// The append-only log for one router's snapshot stream.
///
/// Where the records live is delegated to an [`ArchiveBackend`]: the
/// default [`MemoryBackend`] keeps them in process, while
/// [`FileBackendV2`] turns the log into a durable on-disk archive with
/// checkpoints and crash recovery. The log itself never serialises: it
/// chooses each record by row cost and hands the record over. Appending
/// is infallible either way — a failing backend write is counted in
/// [`TableLog::write_errors`] and surfaced through
/// [`TableLog::backend_error`] rather than panicking mid-cycle.
#[derive(Debug)]
pub struct TableLog {
    backend: Box<dyn ArchiveBackend>,
    tail: Option<SnapshotParts>,
    since_full: usize,
    /// A full snapshot is stored every this many records (bounds replay
    /// cost and the blast radius of a corrupt record).
    pub full_every: usize,
    /// Cost of the records the log stored ([`ROW_COST`] per row,
    /// [`KEY_COST`] per removal key). Bytes on disk are the backend's
    /// [`ArchiveStats::bytes`].
    pub stored_cost: u64,
    /// What storing every snapshot as a Full record would have cost, in
    /// the same units — the paper's baseline for the space-conservation
    /// claim. Zero for archives reopened from disk (the baseline is not
    /// persisted).
    pub full_cost: u64,
    /// Appends the backend failed to persist.
    pub write_errors: u64,
    /// True when the requested backend could not be opened and the log
    /// silently degraded to an in-memory archive — persistence the
    /// operator asked for is *not* happening, so [`TableLog::degraded`]
    /// surfaces this rather than leaving it buried in
    /// [`TableLog::backend_error`].
    pub fell_back: bool,
    backend_error: Option<String>,
    /// True once [`TableLog::seal`] ran: the archive is closed to
    /// appends until the router rejoins (see
    /// [`ArchiveSpec::rejoin_log`]). Reads keep working — a sealed
    /// archive is exactly a read-only one.
    sealed: bool,
    /// Archive reads that failed during [`TableLog::replay`]. Interior
    /// mutability because replay takes `&self`; surfaced through
    /// [`TableLog::replay_errors`] and [`TableLog::degraded`] instead of
    /// panicking the monitor.
    replay_errors: Cell<u64>,
    replay_error: RefCell<Option<String>>,
}

impl Default for TableLog {
    fn default() -> Self {
        TableLog {
            backend: Box::<MemoryBackend>::default(),
            tail: None,
            since_full: 0,
            full_every: 0,
            stored_cost: 0,
            full_cost: 0,
            write_errors: 0,
            fell_back: false,
            backend_error: None,
            sealed: false,
            replay_errors: Cell::new(0),
            replay_error: RefCell::new(None),
        }
    }
}

impl TableLog {
    /// An in-memory log storing a full snapshot every `full_every`
    /// records.
    pub fn new(full_every: usize) -> Self {
        TableLog {
            full_every: full_every.max(1),
            ..TableLog::default()
        }
    }

    /// A log writing into a caller-supplied (empty) backend.
    pub fn with_backend(backend: Box<dyn ArchiveBackend>, full_every: usize) -> Self {
        TableLog {
            backend,
            full_every: full_every.max(1),
            ..TableLog::default()
        }
    }

    /// Opens an existing on-disk archive for appending: a v2 archive
    /// opens through [`FileBackendV2::open`] (which heals a torn tail),
    /// a v1 archive is read-only and fails with an error naming `mantra
    /// archive compact`, and anything else fails with the header or
    /// version error of [`read_header`].
    ///
    /// The tail snapshot and delta cadence are rebuilt by replaying only
    /// the records from the last checkpoint — a reopened archive keeps
    /// appending deltas exactly as if the process had never stopped.
    pub fn load(path: &Path, full_every: usize) -> io::Result<TableLog> {
        Self::resume(Box::new(FileBackendV2::open(path)?), full_every)
    }

    /// Opens an existing on-disk archive for reading only, dispatching
    /// on the format version: v1 through the [`FileBackendV1`] decoder,
    /// v2 through an [`ArchiveReader`]. The file is never written: a
    /// torn or corrupt tail is clamped to the last intact record in
    /// memory instead of being truncated away, so this is safe against
    /// an archive another process is actively appending to. `mantra
    /// archive info|replay|compact` read through here. Appends through
    /// the returned log fail (and are counted in
    /// [`TableLog::write_errors`]), so it has no checkpoint cadence to
    /// configure.
    pub fn load_read_only(path: &Path) -> io::Result<TableLog> {
        let (version, _) = read_header(&mut std::fs::File::open(path)?)?;
        let backend: Box<dyn ArchiveBackend> = match version {
            FORMAT_VERSION => Box::new(FileBackendV1::open_read_only(path)?),
            FORMAT_VERSION_V2 => Box::new(ArchiveReader::open(path)?),
            v => return Err(unsupported_version(v)),
        };
        Self::resume(backend, 1)
    }

    /// Rebuilds the in-memory tail state (last snapshot, delta cadence)
    /// from an already-opened backend by replaying from its last
    /// checkpoint.
    fn resume(backend: Box<dyn ArchiveBackend>, full_every: usize) -> io::Result<TableLog> {
        let mut replay =
            ReplayIter::new(backend.records_from(backend.last_checkpoint().unwrap_or(0)));
        let mut since_full = 0usize;
        while let Some(full) = replay.step() {
            since_full = if full? { 1 } else { since_full + 1 };
        }
        let tail = replay.into_cursor();
        Ok(TableLog {
            backend,
            tail,
            since_full,
            full_every: full_every.max(1),
            ..TableLog::default()
        })
    }

    /// Seals the archive when its router retires from the fleet.
    ///
    /// Sealing is a **drain barrier**: on threaded backends every queued
    /// append lands on disk before this returns, so the `.marc` file is
    /// byte-stable from this moment until the router rejoins. Further
    /// appends are refused (counted in [`TableLog::write_errors`]);
    /// replay and stats keep working. Idempotent.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        // `len` is the drain barrier on ThreadedBackend.
        let _ = self.backend.len();
        self.sealed = true;
    }

    /// True once the archive has been sealed by [`TableLog::seal`].
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// The backend's archive accounting. Non-draining on every backend:
    /// on [`ThreadedBackend`](crate::archive::ThreadedBackend) this reads
    /// the writer's mirror plus a live queue overlay, so health tables
    /// and daemon endpoints never stall behind a slow disk.
    pub fn archive_stats(&self) -> ArchiveStats {
        self.backend.stats()
    }

    /// The backend's format identity (version/epoch/dictionary size).
    /// Non-draining, like [`TableLog::archive_stats`].
    pub fn describe(&self) -> ArchiveInfo {
        self.backend.describe()
    }

    /// The backend's name ("memory", "file").
    pub fn backend_kind(&self) -> &'static str {
        self.backend.kind()
    }

    /// The last backend write failure, if any.
    pub fn backend_error(&self) -> Option<&str> {
        self.backend_error.as_deref()
    }

    /// The archive's errors: its write errors, the larger of the log's
    /// count and the backend's (a threaded writer's failures reach the
    /// log a cycle late, if at all), plus its replay errors.
    /// Non-draining, like [`TableLog::archive_stats`].
    pub fn errors(&self) -> u64 {
        self.write_errors.max(self.archive_stats().write_errors) + self.replay_errors()
    }

    /// Whether the archive's persistence is degraded: the log fell back
    /// to memory, counted an error ([`TableLog::errors`]) or dropped a
    /// record. Every health table, report and endpoint asks this.
    pub fn degraded(&self) -> bool {
        self.fell_back || self.errors() > 0 || self.archive_stats().dropped_records > 0
    }

    /// Appends a snapshot, choosing full or delta representation by row
    /// cost: a row costs [`ROW_COST`] and a removal key [`KEY_COST`]. A
    /// delta record is stored only when it is due (within the
    /// full-snapshot cadence) and costs strictly less than the full
    /// record; equal cost stores the Full, which is also a checkpoint.
    /// Only the chosen record is built.
    ///
    /// Returns the delta taking the previous snapshot to this one whenever
    /// a previous snapshot exists — even on cycles that *store* a full
    /// checkpoint record — so streaming analysers can fold it without
    /// re-diffing. `None` only for the first append of a fresh log.
    pub fn append(&mut self, tables: &Tables) -> Option<TableDelta> {
        if self.sealed {
            self.write_errors += 1;
            self.backend_error = Some("archive is sealed (router retired)".into());
            return None;
        }
        let parts = SnapshotParts::from_tables(tables);
        let full_cost = parts.cost();
        self.full_cost += full_cost;
        let delta = self.tail.as_ref().map(|prev| diff(prev, &parts));
        let due = self.since_full < self.full_every;
        let record = match &delta {
            Some(d) if due && d.cost() < full_cost => {
                self.since_full += 1;
                LogRecord::Delta(d.clone())
            }
            _ => {
                self.since_full = 1;
                LogRecord::Full(parts.clone())
            }
        };
        self.stored_cost += record.cost();
        if let Err(e) = self.backend.append(record) {
            self.write_errors += 1;
            self.backend_error = Some(e.to_string());
            // The record never reached the archive; a delta stored after
            // it would replay against a base the archive doesn't have.
            // Exhaust the cadence so the next append stores a full
            // snapshot and re-anchors the chain.
            self.since_full = self.full_every;
        }
        self.tail = Some(parts);
        delta
    }

    /// Number of stored records.
    ///
    /// **Drain barrier** on threaded backends: the count is only exact
    /// once queued appends have landed, so this blocks until the writer
    /// queue is empty. Concurrent observers (the daemon) must use
    /// [`TableLog::archive_stats`] (non-draining, includes queued
    /// records) or a read-only
    /// [`ArchiveReader`](crate::archive::ArchiveReader) instead.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// True when nothing has been appended. A drain barrier on threaded
    /// backends, like [`TableLog::len`].
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Storage saved relative to storing every snapshot as a Full
    /// record, in row-cost units, in `[0, 1)`.
    pub fn savings_ratio(&self) -> f64 {
        if self.full_cost == 0 {
            0.0
        } else {
            1.0 - self.stored_cost as f64 / self.full_cost as f64
        }
    }

    /// Streams the log's snapshots in order, holding one current
    /// snapshot (plus the record being applied) in memory regardless of
    /// archive length.
    pub fn replay_iter(&self) -> ReplayIter<'_> {
        ReplayIter::new(self.backend.records())
    }

    /// Replays the log, returning every snapshot in order.
    ///
    /// An unreadable record ends the replay at the last clean snapshot
    /// instead of panicking: the error is counted in
    /// [`TableLog::replay_errors`] (which degrades the archive, see
    /// [`TableLog::degraded`]) and kept in
    /// [`TableLog::last_replay_error`]. Callers that need the error
    /// itself use [`TableLog::try_replay`] or [`TableLog::replay_iter`].
    pub fn replay(&self) -> Vec<Tables> {
        let mut out = Vec::new();
        for step in self.replay_iter() {
            match step {
                Ok(tables) => out.push(tables),
                Err(e) => {
                    self.note_replay_error(&e);
                    break;
                }
            }
        }
        out
    }

    /// Replays the log, propagating the first archive read error (still
    /// counted in [`TableLog::replay_errors`], so health degrades even
    /// when the caller handles the error).
    pub fn try_replay(&self) -> io::Result<Vec<Tables>> {
        let mut out = Vec::new();
        for step in self.replay_iter() {
            match step {
                Ok(tables) => out.push(tables),
                Err(e) => {
                    self.note_replay_error(&e);
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    fn note_replay_error(&self, e: &io::Error) {
        self.replay_errors.set(self.replay_errors.get() + 1);
        *self.replay_error.borrow_mut() = Some(e.to_string());
    }

    /// Archive read failures observed by [`TableLog::replay`] /
    /// [`TableLog::try_replay`].
    pub fn replay_errors(&self) -> u64 {
        self.replay_errors.get()
    }

    /// The most recent replay failure, if any.
    pub fn last_replay_error(&self) -> Option<String> {
        self.replay_error.borrow().clone()
    }

    /// Replays only the final snapshot (cheap tail access).
    pub fn last(&self) -> Option<Tables> {
        self.tail.as_ref().map(|p| p.rebuild())
    }
}

/// The replay fold over an archive's records — the one place records
/// turn back into snapshots. A Full record resets the cursor, a Delta
/// applies to it, and a Delta with no base ends the replay with
/// [`io::ErrorKind::InvalidData`], as does the first read error. As an
/// iterator each step yields the rebuilt four-table snapshot. Memory use
/// is one snapshot regardless of how long the archive is — the property
/// that makes FIXW-scale archives replayable at all.
pub struct ReplayIter<'a> {
    records: RecordIter<'a>,
    cur: Option<SnapshotParts>,
    done: bool,
}

impl<'a> ReplayIter<'a> {
    /// A replay of `records` from an empty cursor.
    pub(crate) fn new(records: RecordIter<'a>) -> Self {
        ReplayIter {
            records,
            cur: None,
            done: false,
        }
    }

    /// Applies the next record to the cursor without rebuilding any
    /// tables: `Some(Ok(true))` after a Full record, `Some(Ok(false))`
    /// after a Delta.
    pub(crate) fn step(&mut self) -> Option<io::Result<bool>> {
        if self.done {
            return None;
        }
        let step = self.records.next()?.and_then(|rec| match rec {
            LogRecord::Full(p) => {
                self.cur = Some(p);
                Ok(true)
            }
            LogRecord::Delta(d) => match &self.cur {
                Some(base) => {
                    self.cur = Some(apply(base, &d));
                    Ok(false)
                }
                None => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "delta record without a base snapshot",
                )),
            },
        });
        self.done = step.is_err();
        Some(step)
    }

    /// The cursor: the last snapshot replayed.
    pub(crate) fn into_cursor(self) -> Option<SnapshotParts> {
        self.cur
    }
}

impl Iterator for ReplayIter<'_> {
    type Item = io::Result<Tables>;

    fn next(&mut self) -> Option<io::Result<Tables>> {
        let step = self.step()?;
        Some(step.map(|_| self.cur.as_ref().expect("a step sets the cursor").rebuild()))
    }
}

impl ArchiveSpec {
    /// `router`'s archive file under this spec, with the spec's fsync
    /// policy and, for threaded specs, its writer; `None` for memory
    /// archives.
    pub(crate) fn on_disk(
        &self,
        router: &str,
    ) -> Option<(PathBuf, SyncPolicy, Option<WriterConfig>)> {
        match self {
            ArchiveSpec::Memory => None,
            ArchiveSpec::File { dir, sync } => {
                Some((ArchiveSpec::path_for(dir, router), *sync, None))
            }
            ArchiveSpec::Threaded { dir, sync, writer } => {
                Some((ArchiveSpec::path_for(dir, router), *sync, Some(*writer)))
            }
        }
    }

    /// Opens the log for one router under this spec. File backends that
    /// fail to open (unwritable directory, exhausted disk) fall back to
    /// an in-memory log so a collection cycle never dies on archival —
    /// the failure is visible through [`TableLog::backend_error`].
    pub fn open_log(&self, router: &str, full_every: usize) -> TableLog {
        let Some((path, sync, writer)) = self.on_disk(router) else {
            return TableLog::new(full_every);
        };
        match FileBackendV2::create(path) {
            Ok(backend) => TableLog::with_backend(file_backend(backend, sync, writer), full_every),
            Err(e) => memory_fallback(full_every, "file archive unavailable", e),
        }
    }

    /// Reopens a sealed archive when its router rejoins the fleet.
    ///
    /// File-backed archives are rewritten in place at the **next interner
    /// epoch** (via [`compact_archive`] to a sibling temp file, then an
    /// atomic rename) and reopened for appending with the tail resumed —
    /// so payloads salvaged from the pre-retirement file can never be
    /// resolved against the post-rejoin dictionary, while the replayed
    /// history stays snapshot-identical. Memory archives simply unseal
    /// and continue. Any rewrite failure falls back to a fresh in-memory
    /// log with [`TableLog::fell_back`] set, mirroring
    /// [`ArchiveSpec::open_log`]: a rejoin never kills the cycle.
    ///
    /// Either way the log continues from the sealed log's own tail, the
    /// snapshot the analysers last folded. When the archive ends
    /// elsewhere — an append was lost (failed or shed) before the router
    /// retired, or the rewrite fell back to an empty log — the next
    /// record is stored Full, since the archive lacks that snapshot.
    pub fn rejoin_log(&self, router: &str, full_every: usize, mut sealed: TableLog) -> TableLog {
        let Some((path, sync, writer)) = self.on_disk(router) else {
            sealed.sealed = false;
            return sealed;
        };
        let tmp = path.with_extension("marc.rejoin");
        let opts = CompactOptions {
            full_every,
            drop_before: None,
            sync,
        };
        let rewritten = compact_archive(&sealed, &tmp, &opts);
        let tail = sealed.tail.take();
        // Close both the sealed source and the rewrite before renaming.
        drop(sealed);
        let mut log = match rewritten {
            Ok((rewrite, _)) => {
                drop(rewrite);
                std::fs::rename(&tmp, &path)
                    .and_then(|()| FileBackendV2::open(&path))
                    .and_then(|backend| {
                        TableLog::resume(file_backend(backend, sync, writer), full_every)
                    })
                    .unwrap_or_else(|e| memory_fallback(full_every, "archive rejoin failed", e))
            }
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                memory_fallback(full_every, "archive rejoin failed", e)
            }
        };
        if log.tail != tail {
            log.tail = tail;
            log.since_full = log.full_every;
        }
        log
    }
}

/// A file backend as its spec asks for it: the spec's fsync policy, and
/// a writer thread in front for threaded specs.
fn file_backend(
    mut backend: FileBackendV2,
    sync: SyncPolicy,
    writer: Option<WriterConfig>,
) -> Box<dyn ArchiveBackend> {
    backend.sync = sync;
    match writer {
        Some(cfg) => Box::new(ThreadedBackend::spawn(Box::new(backend), cfg)),
        None => Box::new(backend),
    }
}

/// The in-memory log a file archive that could not be opened falls
/// back to: [`TableLog::fell_back`] set, one write error counted, and
/// `context` with the error kept as the backend error.
fn memory_fallback(full_every: usize, context: &str, e: io::Error) -> TableLog {
    let mut log = TableLog::new(full_every);
    log.write_errors = 1;
    log.fell_back = true;
    log.backend_error = Some(format!("{context}, logging to memory: {e}"));
    log
}

/// Policies for [`compact_archive`].
#[derive(Clone, Debug)]
pub struct CompactOptions {
    /// Checkpoint cadence of the rewritten archive — compaction is also
    /// a re-checkpointing pass, so replay-entry density can be chosen
    /// independently of what the source archive used.
    pub full_every: usize,
    /// Drop snapshots captured before this time (a retention policy:
    /// fleet-day archives are compacted with the already-summarised
    /// prefix dropped).
    pub drop_before: Option<SimTime>,
    /// Fsync cadence for the rewrite.
    pub sync: SyncPolicy,
}

impl Default for CompactOptions {
    fn default() -> Self {
        CompactOptions {
            full_every: 96,
            drop_before: None,
            sync: SyncPolicy::default(),
        }
    }
}

/// Rewrites `src` as a fresh MANTRARC v2 archive at `out`, returning the
/// rewritten log and how many snapshots the retention policy dropped.
///
/// The rewrite replays the source and re-appends, so it re-checkpoints
/// on the new cadence, re-chooses full-vs-delta per record, and builds a
/// brand-new dictionary containing only keys the surviving records
/// reference — dead entries (routers renamed away, sessions long gone,
/// everything referenced only by dropped snapshots) are garbage
/// collected. The new archive's interner epoch is the source's epoch
/// plus one, so v2 payloads salvaged from the old file can never be
/// resolved against the new dictionary.
pub fn compact_archive(
    src: &TableLog,
    out: &Path,
    opts: &CompactOptions,
) -> io::Result<(TableLog, usize)> {
    let epoch = src.describe().epoch.saturating_add(1);
    let mut backend = FileBackendV2::create_with_epoch(out, epoch)?;
    backend.sync = opts.sync;
    let mut dst = TableLog::with_backend(Box::new(backend), opts.full_every);
    let mut dropped = 0usize;
    for tables in src.replay_iter() {
        let tables = tables?;
        if opts.drop_before.is_some_and(|ts| tables.captured_at < ts) {
            dropped += 1;
            continue;
        }
        dst.append(&tables);
        if let Some(e) = dst.backend_error() {
            return Err(io::Error::other(format!("compaction write failed: {e}")));
        }
    }
    Ok((dst, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TempDir;
    use mantra_net::BitRate;

    fn t(n: u64) -> SimTime {
        SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n * 900)
    }

    fn g(i: u32) -> GroupAddr {
        GroupAddr::from_index(i)
    }

    fn snapshot(n: u64, pairs: &[(u32, Ip, u64)]) -> Tables {
        let mut tab = Tables::new("fixw", t(n));
        for (gi, src, kbps) in pairs {
            tab.add_pair(PairRow {
                source: *src,
                group: g(*gi),
                current_bw: BitRate::from_kbps(*kbps),
                avg_bw: BitRate::from_kbps(*kbps),
                forwarding: true,
                learned_from: LearnedFrom::Dvmrp,
            });
        }
        tab
    }

    #[test]
    fn replay_reconstructs_exactly() {
        let s1 = Ip::new(1, 1, 1, 1);
        let s2 = Ip::new(2, 2, 2, 2);
        let snaps = vec![
            snapshot(0, &[(0, s1, 64), (1, s2, 2)]),
            snapshot(1, &[(0, s1, 80), (1, s2, 2)]), // rate change
            snapshot(2, &[(0, s1, 80)]),             // s2 left
            snapshot(3, &[(0, s1, 80), (2, s2, 128)]), // new session
        ];
        let mut log = TableLog::new(100);
        for s in &snaps {
            log.append(s);
        }
        let replayed = log.replay();
        assert_eq!(replayed, snaps);
        assert_eq!(log.last().unwrap(), snaps[3]);
    }

    #[test]
    fn key_order_fast_path_and_fallback_agree() {
        let sorted = vec![1u32, 3, 5, 9];
        assert!(matches!(in_key_order(&sorted, |x| *x), Cow::Borrowed(_)));
        assert_eq!(*in_key_order(&sorted, |x| *x), sorted);
        // Unsorted with a duplicate: last occurrence wins, output sorted.
        let messy = vec![5u32, 1, 5, 3];
        assert_eq!(*in_key_order(&messy, |x| *x), [1, 3, 5]);
        // Last-wins is observable through identity: pair (key, payload).
        let messy = vec![(5u32, 'a'), (1, 'b'), (5, 'c')];
        assert_eq!(*in_key_order(&messy, |x| x.0), [(1, 'b'), (5, 'c')]);
    }

    #[test]
    fn deltas_save_space_on_stable_tables() {
        // A big, slowly-changing table (the paper's route-table case).
        let mut base = Tables::new("fixw", t(0));
        for i in 0..500u32 {
            base.add_route(RouteRow {
                prefix: Prefix::new(Ip(Ip::new(128, 0, 0, 0).0 + (i << 16)), 16).unwrap(),
                next_hop: Some(Ip::new(10, 128, 0, 2)),
                metric: 3,
                uptime: None,
                reachable: true,
                learned_from: LearnedFrom::Dvmrp,
            });
        }
        let mut log = TableLog::new(1_000);
        for n in 0..50u64 {
            let mut s = base.clone();
            s.captured_at = t(n);
            // One route flaps each cycle.
            let key = (
                LearnedFrom::Dvmrp,
                Prefix::new(Ip(Ip::new(128, 0, 0, 0).0 + ((n as u32 % 500) << 16)), 16).unwrap(),
            );
            s.routes.get_mut(&key).unwrap().reachable = n % 2 == 0;
            log.append(&s);
        }
        assert!(
            log.savings_ratio() > 0.9,
            "delta log should save >90% on stable tables, saved {:.2}",
            log.savings_ratio()
        );
        assert_eq!(log.replay().len(), 50);
    }

    #[test]
    fn periodic_full_snapshots_bound_replay_chains() {
        // A table large enough that deltas genuinely beat full snapshots.
        let pairs: Vec<(u32, Ip, u64)> = (0..40u32).map(|i| (i, Ip(100 + i), 64)).collect();
        let mut log = TableLog::new(5);
        for n in 0..17u64 {
            let mut p = pairs.clone();
            p[0].2 = n; // one rate changes per cycle
            log.append(&snapshot(n, &p));
        }
        assert_eq!(log.archive_stats().checkpoints, 4, "full at 0, 5, 10, 15");
        assert_eq!(log.replay().len(), 17);
    }

    #[test]
    fn tiny_tables_prefer_full_records() {
        // When the delta would cost as much as the data, the logger
        // stores full records even inside the delta cadence: one changed
        // row costs what the one-row Full does, and equal cost means Full.
        let s1 = Ip::new(1, 1, 1, 1);
        let mut log = TableLog::new(100);
        for n in 0..5u64 {
            log.append(&snapshot(n, &[(0, s1, n)]));
        }
        assert!(
            log.stored_cost <= log.full_cost,
            "stored {} vs full {}",
            log.stored_cost,
            log.full_cost
        );
        assert_eq!(kinds(&log), [true; 5]);
        assert_eq!(log.replay().len(), 5);
    }

    /// The record kinds the log stored, oldest first: `true` for Full.
    fn kinds(log: &TableLog) -> Vec<bool> {
        log.backend
            .records()
            .map(|r| matches!(r.unwrap(), LogRecord::Full(_)))
            .collect()
    }

    fn pairs(sources: std::ops::Range<u32>) -> Vec<(u32, Ip, u64)> {
        sources.map(|i| (i % 64, Ip(100 + i), 64)).collect()
    }

    #[test]
    fn an_unchanged_snapshot_stores_a_delta() {
        let rows = pairs(0..3);
        let mut log = TableLog::new(100);
        log.append(&snapshot(0, &rows));
        log.append(&snapshot(1, &rows));
        assert_eq!(kinds(&log), [true, false]);
        // The empty delta costs nothing; the baseline pays for two Fulls.
        assert_eq!(log.stored_cost, 3 * ROW_COST);
        assert_eq!(log.full_cost, 6 * ROW_COST);
        assert_eq!(log.replay(), [snapshot(0, &rows), snapshot(1, &rows)]);
    }

    #[test]
    fn a_wholesale_replacement_stores_a_full() {
        // Every row removed and re-added under a new key: ten upserts
        // plus ten removal keys outweigh the ten-row Full.
        let (old, new) = (pairs(0..10), pairs(64..74));
        let mut log = TableLog::new(100);
        log.append(&snapshot(0, &old));
        let delta = log.append(&snapshot(1, &new)).expect("a tail to diff");
        assert_eq!(delta.cost(), 10 * ROW_COST + 10 * KEY_COST);
        assert_eq!(kinds(&log), [true, true]);
        assert_eq!(log.replay(), [snapshot(0, &old), snapshot(1, &new)]);
    }

    #[test]
    fn shrinking_to_a_few_rows_through_many_removals_stores_a_full() {
        // 40 rows down to 3: 37 removal keys cost more than 3 rows.
        let (many, few) = (pairs(0..40), pairs(0..3));
        let mut log = TableLog::new(100);
        log.append(&snapshot(0, &many));
        log.append(&snapshot(1, &few));
        assert_eq!(kinds(&log), [true, true]);
        assert_eq!(log.replay(), [snapshot(0, &many), snapshot(1, &few)]);
    }

    #[test]
    fn member_only_sessions_survive_the_redundancy_rule() {
        let mut tab = Tables::new("fixw", t(0));
        tab.sessions.insert(
            g(9),
            SessionRow {
                group: g(9),
                name: None,
                density: 0,
                bandwidth: BitRate::ZERO,
                first_advertised: LearnedFrom::Igmp,
                first_seen: t(0),
            },
        );
        tab.add_pair(PairRow {
            source: Ip::new(1, 1, 1, 1),
            group: g(0),
            current_bw: BitRate::from_kbps(5),
            avg_bw: BitRate::from_kbps(5),
            forwarding: true,
            learned_from: LearnedFrom::Dvmrp,
        });
        let mut log = TableLog::new(10);
        log.append(&tab);
        let back = log.replay().pop().unwrap();
        assert_eq!(back, tab);
        assert!(back.sessions.contains_key(&g(9)));
    }

    #[test]
    fn load_rejects_orphan_delta() {
        // A v2 archive whose first record is a Delta has no base to apply
        // it to: every read path fails with InvalidData.
        let dir = TempDir::new("logger");
        let path = dir.join("orphan.marc");
        let mut be = FileBackendV2::create(&path).unwrap();
        be.append(LogRecord::Delta(TableDelta {
            captured_at: t(0),
            ..TableDelta::default()
        }))
        .unwrap();
        drop(be);
        let invalid = |e: io::Error| assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        invalid(TableLog::load(&path, 3).unwrap_err());
        invalid(TableLog::load_read_only(&path).unwrap_err());
        let rd = ArchiveReader::open(&path).unwrap();
        invalid(rd.summary_lines(rd.len()).unwrap_err());
        invalid(rd.state_at(t(0)).unwrap_err());
    }

    #[test]
    fn empty_log_behaviour() {
        let log = TableLog::new(10);
        assert!(log.is_empty());
        assert!(log.last().is_none());
        assert!(log.replay().is_empty());
        assert_eq!(log.savings_ratio(), 0.0);
        assert_eq!(log.backend_kind(), "memory");
        assert!(log.backend_error().is_none());
    }

    #[test]
    fn file_backed_log_matches_memory_and_reopens() {
        let s1 = Ip::new(1, 1, 1, 1);
        let s2 = Ip::new(2, 2, 2, 2);
        let snaps: Vec<Tables> = (0..9u64)
            .map(|n| snapshot(n, &[(0, s1, 64 + n), (1, s2, 2)]))
            .collect();
        let dir = TempDir::new("logger");
        let spec = ArchiveSpec::File {
            dir: dir.path().to_path_buf(),
            sync: SyncPolicy::default(),
        };
        let mut file_log = spec.open_log("fixw", 3);
        assert_eq!(file_log.describe().format_version, FORMAT_VERSION_V2);
        let mut mem_log = TableLog::new(3);
        assert_eq!(file_log.backend_kind(), "file");
        for s in &snaps {
            file_log.append(s);
            mem_log.append(s);
        }
        assert!(file_log.backend_error().is_none());
        assert_eq!(file_log.replay(), mem_log.replay());
        assert_eq!(file_log.stored_cost, mem_log.stored_cost);
        assert_eq!(
            file_log.archive_stats().checkpoints,
            mem_log.archive_stats().checkpoints
        );
        drop(file_log);
        // `load` reopens the archive and resumes from the last
        // checkpoint; appending continues seamlessly.
        let path = ArchiveSpec::path_for(dir.path(), "fixw");
        let mut reopened = TableLog::load(&path, 3).unwrap();
        assert_eq!(reopened.backend_kind(), "file");
        assert_eq!(reopened.replay(), snaps);
        assert_eq!(reopened.last().unwrap(), snaps[8]);
        reopened.append(&snapshot(9, &[(0, s1, 99)]));
        assert_eq!(reopened.replay().len(), 10);
    }

    #[test]
    fn replay_iter_streams_the_same_snapshots_as_replay() {
        let s1 = Ip::new(1, 1, 1, 1);
        let mut log = TableLog::new(4);
        for n in 0..11u64 {
            log.append(&snapshot(n, &[(0, s1, 64 + n), (1, Ip(50 + n as u32), 2)]));
        }
        let streamed: Vec<Tables> = log.replay_iter().map(|r| r.unwrap()).collect();
        assert_eq!(streamed, log.replay());
    }

    #[test]
    fn load_rejects_unrecognised_headers() {
        // Garbage, and the JSON-lines shape this crate no longer reads.
        let dir = TempDir::new("logger");
        let line = serde_json::to_string(&LogRecord::Delta(TableDelta::default())).unwrap();
        let inputs = [
            ("garbage.bin", b"\x7fELF not an archive at all".to_vec()),
            ("legacy.jsonl", format!("{line}\n").into_bytes()),
        ];
        for (name, bytes) in inputs {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            for err in [
                TableLog::load(&path, 3).unwrap_err(),
                TableLog::load_read_only(&path).unwrap_err(),
            ] {
                assert!(
                    err.to_string().contains("unrecognised archive header"),
                    "{name}: {err}"
                );
            }
        }
    }

    #[test]
    fn load_fails_loudly_on_unknown_mantrarc_versions() {
        // A future v3 archive must be refused with a version error that
        // says so, not a bewildering decode failure.
        let dir = TempDir::new("logger");
        let path = dir.join("future.marc");
        let mut header = Vec::new();
        header.extend_from_slice(&crate::archive::MAGIC);
        header.extend_from_slice(&3u16.to_le_bytes());
        header.resize(24, 0);
        std::fs::write(&path, &header).unwrap();
        let err = TableLog::load(&path, 3).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unsupported format version 3"), "{msg}");
        assert!(msg.contains("versions 1 and 2"), "{msg}");
    }

    #[test]
    fn compaction_drops_old_snapshots_gcs_the_dictionary_and_bumps_the_epoch() {
        let dir = TempDir::new("logger");
        let spec = ArchiveSpec::File {
            dir: dir.path().to_path_buf(),
            sync: SyncPolicy::default(),
        };
        let mut log = spec.open_log("fixw-compact", 3);
        // Tables big enough that deltas beat full records; early cycles
        // reference hosts that later disappear entirely.
        let base: Vec<(u32, Ip, u64)> = (0..40u32).map(|i| (i, Ip(0x0a00_0000 + i), 64)).collect();
        for n in 0..10u64 {
            let mut pairs = base.clone();
            pairs[0].2 = 64 + n; // one rate changes per cycle
            if n < 4 {
                pairs.push((90 + n as u32, Ip(0x0909_0900 + n as u32), 8));
            }
            log.append(&snapshot(n, &pairs));
        }
        let out = dir.join("fixw-compacted.marc");
        let (compacted, dropped) = compact_archive(
            &log,
            &out,
            &CompactOptions {
                full_every: 4,
                drop_before: Some(t(4)),
                sync: SyncPolicy::default(),
            },
        )
        .unwrap();
        assert_eq!(dropped, 4);
        assert_eq!(compacted.replay(), log.replay()[4..].to_vec());
        assert_eq!(compacted.describe().epoch, log.describe().epoch + 1);
        assert!(
            compacted.describe().dict_entries < log.describe().dict_entries,
            "keys referenced only by dropped snapshots are GC'd \
             ({} vs {})",
            compacted.describe().dict_entries,
            log.describe().dict_entries
        );
        // The rewrite re-checkpoints on its own cadence and reloads.
        assert_eq!(compacted.archive_stats().checkpoints, 2);
        let reloaded = TableLog::load(&out, 4).unwrap();
        assert_eq!(reloaded.replay(), compacted.replay());
    }

    #[test]
    fn cached_replays_follow_appends_and_compaction() {
        use crate::archive::{replay_summary_line, QueryCache};
        let dir = TempDir::new("logger");
        let spec = ArchiveSpec::File {
            dir: dir.path().to_path_buf(),
            sync: SyncPolicy::default(),
        };
        let path = ArchiveSpec::path_for(dir.path(), "fixw");
        let mut log = spec.open_log("fixw", 3);
        let snap = |n: u64| snapshot(n, &[(n as u32 % 3, Ip::new(10, 0, 0, 1), 64 + n)]);
        let lines_of = |log: &TableLog| -> Vec<String> {
            let snaps = log.replay();
            let lines = snaps.iter().enumerate();
            lines.map(|(i, t)| replay_summary_line(i, t)).collect()
        };
        for n in 0..3 {
            log.append(&snap(n));
        }
        let cache = QueryCache::default();
        let (count, first) = cache.replay_lines(&path, None).unwrap();
        assert_eq!((count, first.to_vec()), (3, lines_of(&log)));
        let (_, again) = cache.replay_lines(&path, None).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&first, &again),
            "an unchanged archive is a hit"
        );
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));

        // Records appended between two queries show up.
        for n in 3..5 {
            log.append(&snap(n));
        }
        let (count, lines) = cache.replay_lines(&path, None).unwrap();
        assert_eq!((count, lines.to_vec()), (5, lines_of(&log)));
        let (count, lines) = cache.replay_lines(&path, Some(t(1))).unwrap();
        assert_eq!((count, lines.to_vec()), (2, lines_of(&log)[..2].to_vec()));

        // A compaction renamed over the archive between two queries is
        // read afresh, at its new epoch.
        let staged = dir.join("fixw.compacting");
        let opts = CompactOptions {
            full_every: 4,
            drop_before: Some(t(2)),
            sync: SyncPolicy::default(),
        };
        let (compacted, _) = compact_archive(&log, &staged, &opts).unwrap();
        let want = lines_of(&compacted);
        std::fs::rename(&staged, &path).unwrap();
        let misses = cache.stats().misses;
        let (count, lines) = cache.replay_lines(&path, None).unwrap();
        assert_eq!((count, lines.to_vec()), (3, want));
        assert_eq!(cache.stats().misses, misses + 1);
        let fresh = ArchiveReader::open(&path).unwrap();
        assert_eq!(fresh.epoch(), log.describe().epoch + 1);
    }

    /// An in-memory backend whose `fail_at`-th append (counting from 1)
    /// fails, as a full disk or a shed record would.
    #[derive(Debug, Default)]
    struct FailOneAppend {
        inner: MemoryBackend,
        appends: usize,
        fail_at: usize,
    }

    impl ArchiveBackend for FailOneAppend {
        fn kind(&self) -> &'static str {
            "memory"
        }

        fn append(&mut self, rec: LogRecord) -> io::Result<()> {
            self.appends += 1;
            if self.appends == self.fail_at {
                return Err(io::Error::other("simulated lost append"));
            }
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
    }

    /// A router whose last append before it retired was lost: after the
    /// rejoin, deltas continue from that lost snapshot — the one the
    /// analysers already folded — and not from the archive's older tail;
    /// the next record is Full, so the archive replays to the latest
    /// snapshot. The same holds when the rewrite fails and the log falls
    /// back to memory.
    #[test]
    fn a_rejoin_after_a_lost_append_continues_from_the_folded_snapshot() {
        let (a, b, c) = (
            Ip::new(1, 1, 1, 1),
            Ip::new(2, 2, 2, 2),
            Ip::new(3, 3, 3, 3),
        );
        let snaps = [
            snapshot(0, &[(0, a, 64)]),
            snapshot(1, &[(0, a, 64), (1, b, 64)]),
            snapshot(2, &[(0, a, 64), (2, c, 64)]),
        ];
        let parts: Vec<SnapshotParts> = snaps.iter().map(SnapshotParts::from_tables).collect();
        let dir = TempDir::new("logger-rejoin");
        let file = ArchiveSpec::File {
            dir: dir.path().to_path_buf(),
            sync: SyncPolicy::default(),
        };
        let threaded = ArchiveSpec::Threaded {
            dir: dir.path().to_path_buf(),
            sync: SyncPolicy::default(),
            writer: crate::archive::WriterConfig::default(),
        };
        let cases = [
            (&file, false, &snaps[..1]),
            (&threaded, false, &snaps[..1]),
            // A directory where the rewrite goes fails the rewrite.
            (&file, true, &[][..]),
        ];
        for (spec, fail_rewrite, archived) in cases {
            let tmp = ArchiveSpec::path_for(dir.path(), "fixw").with_extension("marc.rejoin");
            if fail_rewrite {
                std::fs::create_dir(&tmp).unwrap();
            }
            let backend = FailOneAppend {
                fail_at: 2,
                ..FailOneAppend::default()
            };
            let mut log = TableLog::with_backend(Box::new(backend), 100);
            log.append(&snaps[0]);
            let lost = log.append(&snaps[1]).expect("a tail to diff");
            assert_eq!(apply(&parts[0], &lost), parts[1]);
            assert_eq!(log.write_errors, 1);
            log.seal();
            let mut log = spec.rejoin_log("fixw", 100, log);
            assert_eq!(log.fell_back, fail_rewrite);
            let delta = log
                .append(&snaps[2])
                .expect("a delta from the folded snapshot");
            assert_eq!(
                apply(&parts[1], &delta),
                parts[2],
                "rewrite fails: {fail_rewrite}"
            );
            assert_eq!(
                kinds(&log).last(),
                Some(&true),
                "the lost base forces a Full"
            );
            let mut want = archived.to_vec();
            want.push(snaps[2].clone());
            assert_eq!(log.replay(), want);
            assert_eq!(log.last().as_ref(), want.last());
            if fail_rewrite {
                std::fs::remove_dir(&tmp).unwrap();
            }
        }
    }

    #[test]
    fn unwritable_archive_dir_falls_back_to_memory() {
        let spec = ArchiveSpec::File {
            dir: std::path::PathBuf::from("/proc/no-such-dir/archives"),
            sync: SyncPolicy::default(),
        };
        let mut log = spec.open_log("fixw", 3);
        assert_eq!(log.backend_kind(), "memory");
        assert!(log.backend_error().is_some());
        log.append(&snapshot(0, &[(0, Ip::new(1, 1, 1, 1), 64)]));
        assert_eq!(log.replay().len(), 1, "collection keeps working");
    }
}
