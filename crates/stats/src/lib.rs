//! Statistics and report-rendering utilities for the Doppelganger Loads
//! simulator.
//!
//! This crate is deliberately free of simulator dependencies: it deals in
//! plain numbers. It provides
//!
//! * [`Counter`] — a named, saturating event counter,
//! * [`MetricsRegistry`] — named counters/gauges/histograms that
//!   components publish for snapshot/delta/merge and JSON export,
//! * [`Json`] — the dependency-free JSON value (writer + parser) the
//!   machine-readable exports are built on,
//! * [`log`] — structured JSON-lines logging with a swappable global
//!   sink (the host-side observability channel),
//! * [`span`] — host-side span timing (queue wait, checkpoint
//!   planning, simulation, manifest write) with post-mortem stacks,
//! * [`prom`] — Prometheus text exposition of a [`MetricsRegistry`]
//!   snapshot, agreeing with the JSON encoding value-for-value,
//! * [`prof`] — host-side self-profiling (named wall-time slots fed
//!   by batched local accumulators) for finding the simulator's own
//!   hot paths,
//! * [`geomean`] / [`normalize`] — the aggregations the paper uses for its
//!   figures (normalized IPC, geometric-mean slowdowns),
//! * [`Table`] — ASCII table rendering for experiment reports,
//! * [`BarChart`] / [`chart::sparkline`] — ASCII charts that stand in
//!   for the paper's figures (and occupancy time series) in terminal
//!   output.
//!
//! # Examples
//!
//! ```
//! use dgl_stats::{geomean, normalize};
//!
//! let baseline = [2.0, 1.0];
//! let scheme = [1.8, 0.8];
//! let normalized = normalize(&scheme, &baseline);
//! assert!((normalized[0] - 0.9).abs() < 1e-12);
//! let g = geomean(&normalized);
//! assert!(g > 0.84 && g < 0.85);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod counter;
pub mod histogram;
pub mod json;
pub mod log;
pub mod prof;
pub mod prom;
pub mod registry;
pub mod span;
pub mod summary;
pub mod table;

pub use chart::{BarChart, StackedBarChart};
pub use counter::{Counter, CounterSet};
pub use histogram::Histogram;
pub use json::Json;
pub use prof::{ProfAccum, ProfId, ProfRegistry, ProfReport};
pub use registry::{Metric, MetricsRegistry};
pub use span::{SpanCollector, SpanGuard, SpanRecord};
pub use summary::{geomean, harmonic_mean, mean, normalize, percent_change, Summary};
pub use table::{Align, Table};
