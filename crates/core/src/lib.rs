//! Mantra: router-based monitoring of Internet multicast protocols.
//!
//! This crate is the reproduction's primary contribution — the monitoring
//! tool of Rajvaidya & Almeroth (ICPP 2001). Its modules mirror the
//! paper's Figure 1 pipeline:
//!
//! * [`aggregate`] — the router transport, [`aggregate::ParallelAccess`]:
//!   one capture interface for every cycle, inline or fanned out (the
//!   simulator-backed implementation stands in for the paper's expect
//!   scripts),
//! * [`collector`] — logs into routers through that transport, retrying
//!   transient failures, and pre-processes the raw captures,
//! * [`tables`] — Mantra's local data format: the Pair, Participant,
//!   Session and Route tables,
//! * [`processor`] — the router-table processor mapping raw CLI dumps
//!   (mrouted- or IOS-style) onto the local tables,
//! * [`logger`] — the data logger: delta encoding and redundancy
//!   elimination for long-term archives, with lossless reconstruction,
//! * [`archive`] — where those archives live: pluggable backends behind
//!   [`archive::ArchiveBackend`], from the in-memory record list to a
//!   versioned on-disk format with checkpoints and crash recovery,
//! * [`longterm`] — cross-cycle trend analysis: session/participant/route
//!   lifetimes, stability and join patterns,
//! * [`stats`] — the data processor: usage monitoring (sessions,
//!   participants, senders, densities, bandwidth, bandwidth saved) and
//!   route monitoring (counts, stability, consistency),
//! * [`output`] — the output interface: interactive summary tables
//!   (search/sort/column algebra/date conversion) and 2-D graphs
//!   (overlay, rescale, zoom, ASCII rendering),
//! * [`anomaly`] — detectors for the routing problems the paper
//!   debugged, led by the Figure 9 unicast route injection,
//! * [`store`] — dense ids for router names and the archive dictionary's
//!   keys,
//! * [`pipeline`] — the cycle's per-router work: each router's Capture →
//!   Parse → Enrich → Log → Analyse as one task, one fan-out per cycle
//!   sized by the rows it carries, and per-stage instrumentation,
//! * [`monitor`] — the engine running that cycle over the paper's two
//!   routers or a fleet, and the paper's announced next step: every router
//!   collected concurrently in one fan-out, the combined results folded
//!   from exact integer sums with one cross-router consistency join,
//! * [`web`] — the web presentation layer (static HTML + SVG reports,
//!   standing in for the paper's Java applets).

pub mod aggregate;
pub mod anomaly;
pub mod archive;
pub mod collector;
pub mod logger;
pub mod longterm;
pub mod monitor;
pub mod output;
pub mod pipeline;
pub mod processor;
pub mod stats;
pub mod stats_stream;
pub mod store;
pub mod tables;
pub mod web;

pub use aggregate::ParallelAccess;
pub use archive::{
    ArchiveBackend, ArchiveInfo, ArchiveReader, ArchiveSpec, ArchiveStats, BackpressureMode,
    CacheStats, FileBackendV1, FileBackendV2, MemoryBackend, QueryCache, SyncPolicy,
    ThreadedBackend, WriterConfig,
};
pub use collector::{CaptureError, CollectStats, Collector, RetryPolicy};
pub use monitor::{FleetMonitor, LifecycleState, Monitor, MonitorConfig, RouterHealth};
pub use pipeline::{PipelineMetrics, Stage, StageKind, StageMetrics};
pub use stats::{ConsistencyMatrix, RouteStats, UsageStats};
pub use stats_stream::{IncrementalStats, StatsTotals};
pub use store::TableStore;
pub use tables::{PairRow, ParticipantRow, RouteRow, SessionRow, Tables};

/// Helpers shared by the unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A temporary directory owned by one test, deleted (with everything
    /// in it) when the guard drops — also when the test panics. The name
    /// carries the tag, the process id and a per-process sequence
    /// number, so tests running on parallel threads never share one.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        /// Creates a fresh, empty directory `mantra-<tag>-<pid>-<seq>`.
        pub(crate) fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "mantra-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        /// The directory itself.
        pub(crate) fn path(&self) -> &Path {
            &self.0
        }

        /// A path inside the directory.
        pub(crate) fn join(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
