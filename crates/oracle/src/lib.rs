//! Reference implementations the Mantra tests and benches hold the
//! shipped pipeline to.
//!
//! `mantra-core` ships one path per stage. The plain implementations
//! those paths replaced are kept here, as the yardsticks the property
//! tests and the `ablation_*` benches compare against, and nowhere in
//! the shipped library:
//!
//! * [`collector::effective_lines`] — the line-at-a-time capture
//!   scanner, for the word-at-a-time `mantra_core::collector::preprocess_bytes`
//!   (`tests/prop_parse.rs`, the `ablation_parse` bench);
//! * [`processor::process`] — the string parser with row-at-a-time
//!   inserts into its own `BTreeMap`s, for the zero-copy
//!   `mantra_core::processor::process` (`tests/prop_parse.rs`, the
//!   `ablation_parse` bench);
//! * [`logger::diff_reference`] and [`logger::apply_reference`] — the
//!   `BTreeMap` delta codec, for the merge-join `logger::diff`/`apply`
//!   (`tests/prop_pipeline.rs`, the `ablation_delta_codec` bench);
//! * [`InconsistencyMonitorExt`] — the pairwise consistency check and
//!   sweep, for `InconsistencyMonitor::sweep`'s group-by join
//!   (`tests/prop_fleet.rs`);
//! * [`UsageStatsExt`], [`RouteStatsExt`], [`RouteChurnExt`] and
//!   [`detect_injection`] — statistics, churn and the route-injection
//!   signature computed from whole snapshots with maps and sets, for the
//!   one pass of `SnapshotStats::from_tables` and the merge join of
//!   `RouteChanges::between` (`tests/prop_stream.rs`, the
//!   `ablation_streaming` bench).
//!
//! The extension traits keep the names the oracles had as associated
//! functions (`UsageStats::from_tables`, `RouteChurn::between`,
//! `monitor.sweep_reference(..)`), so a call site only imports the
//! trait. Only the root package and `mantra-bench` depend on this crate,
//! and only as a dev-dependency.

pub mod anomaly;
pub mod collector;
pub mod logger;
pub mod processor;
pub mod stats;

pub use anomaly::{detect_injection, InconsistencyMonitorExt};
pub use stats::{RouteChurnExt, RouteStatsExt, UsageStatsExt};
