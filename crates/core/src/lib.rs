//! Mantra: router-based monitoring of Internet multicast protocols.
//!
//! This crate is the reproduction's primary contribution — the monitoring
//! tool of Rajvaidya & Almeroth (ICPP 2001). Its modules mirror the
//! paper's Figure 1 pipeline:
//!
//! * [`aggregate`] — the router transport, [`aggregate::ParallelAccess`]:
//!   one capture interface for every cycle, serial or concurrent (the
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
//! * [`store`] — interned identifier tables mapping router names, hosts,
//!   groups and route keys to dense ids for the hot path,
//! * [`pipeline`] — the staged cycle: typed Capture → Parse → Enrich →
//!   Log → Analyse stages with per-stage instrumentation,
//! * [`monitor`] — the orchestrator driving the pipeline,
//! * [`fleet`] — the sharded fleet, and the paper's announced next step:
//!   N monitors over disjoint router subsets collecting concurrently,
//!   merged through an exact (integer-sum) aggregation tier with a global
//!   consistency join,
//! * [`web`] — the web presentation layer (static HTML + SVG reports,
//!   standing in for the paper's Java applets).

pub mod aggregate;
pub mod anomaly;
pub mod archive;
pub mod collector;
pub mod fleet;
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
    ArchiveBackend, ArchiveDict, ArchiveInfo, ArchiveReader, ArchiveSpec, ArchiveStats,
    BackpressureMode, CacheStats, FileBackendV1, FileBackendV2, MemoryBackend, OpenMode,
    QueryCache, SyncPolicy, ThreadedBackend, WriterConfig,
};
pub use collector::{CaptureError, CollectStats, Collector, RetryPolicy};
pub use fleet::FleetMonitor;
pub use monitor::{LifecycleState, Monitor, MonitorConfig, RouterHealth};
pub use pipeline::{PipelineMetrics, Stage, StageKind, StageMetrics};
pub use stats::{ConsistencyMatrix, RouteStats, UsageStats};
pub use stats_stream::{IncrementalStats, StatsTotals};
pub use store::TableStore;
pub use tables::{PairRow, ParticipantRow, RouteRow, SessionRow, Tables};
