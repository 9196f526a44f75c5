//! High-level facade for the Doppelganger Loads reproduction.
//!
//! * [`SimBuilder`] — configure and run one simulation;
//! * [`experiments`] — regenerate every figure of the paper's
//!   evaluation (Figures 1, 6, 7, 8 and the baseline+AP result);
//! * [`sampling`] — simpoint-style sampled simulation: functional
//!   fast-forward, detailed warmup, measurement windows, stitched IPC;
//! * [`security`] — the attack laboratory: Spectre-v1 gadgets, the
//!   implicit-channel scenarios of Figures 2–4, and observation-trace
//!   noninterference checks.
//!
//! # Examples
//!
//! ```
//! use dgl_sim::SimBuilder;
//! use dgl_core::SchemeKind;
//! use dgl_workloads::{by_name, Scale};
//!
//! let w = by_name("hmmer_like", Scale::Custom(2_000)).unwrap();
//! let report = SimBuilder::new()
//!     .scheme(SchemeKind::Stt)
//!     .address_prediction(true)
//!     .run_workload(&w)?;
//! assert!(report.halted);
//! # Ok::<(), dgl_pipeline::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod ckptstore;
pub mod compare;
pub mod experiments;
pub mod manifest;
pub mod report;
pub mod sampling;
pub mod security;
pub mod serve;
pub mod telemetry;

pub use builder::{Golden, SimBuilder, VerifyError};
pub use ckptstore::{CheckpointKey, CheckpointStore, ProgramTotals, StoreCounters};
pub use compare::{compare, CompareOptions, Comparison, MetricDelta};
pub use experiments::{
    figure1_from, figure6_from, figure7_from, BuiltSuite, ConfigId, Evaluation, Figure1, Figure6,
    Figure7, Figure8,
};
pub use manifest::{
    run_manifest, sampled_manifest, workload_fingerprint, MANIFEST_SCHEMA, MANIFEST_VERSION,
};
pub use report::{render_occupancy, render_report};
pub use sampling::{SampledRun, SamplingConfig, WindowReport};
pub use telemetry::{spawn_metrics_listener, ServeTelemetry};
