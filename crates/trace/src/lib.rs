//! # dgl-trace — cycle-accurate pipeline & doppelganger event tracing
//!
//! The simulator's aggregate counters (`CoreStats`) say *how often*
//! doppelganger loads propagate or die; this crate records *why*, one
//! event at a time. Producers (the pipeline, the doppelganger state
//! machine, and the memory hierarchy) push [`TraceEvent`]s into a
//! [`TraceSink`] behind an `Option<&mut dyn TraceSink>`-style hook, so
//! a run without a sink pays only a branch per would-be event.
//!
//! ## Event taxonomy
//!
//! - [`TraceEvent::Stage`] — an instruction crossed a pipeline stage
//!   boundary (fetch, rename/dispatch, issue, memory, writeback,
//!   commit), stamped with the cycle.
//! - [`TraceEvent::Squash`] — an in-flight instruction was thrown away
//!   by a pipeline flush.
//! - [`TraceEvent::Dgl`] — a doppelganger lifecycle transition
//!   ([`DglEvent`]): predicted → issued → verified →
//!   propagated / deferred / discarded / squashed, with predicted vs.
//!   real address and the scheme's safe/unsafe verdict.
//! - [`TraceEvent::Mem`] — a cache lookup/fill or DRAM access.
//!
//! ## Sinks
//!
//! [`RecordingSink`] keeps everything (tests, exporters);
//! [`SharedSink`] is a clonable handle that lets a caller keep access
//! to the events after handing the sink to a consuming simulator run.
//! [`FlightRecorder`] is the one bounded sink: a pre-allocated lossy
//! ring keeping the last *N* events. Behind a [`SharedFlightRecorder`]
//! its tail can be snapshotted non-destructively after a failed run
//! and dumped as a [`flight::render_postmortem`] JSONL artifact; each
//! producer emits into its own lock-free [`LocalFlightSink`], which
//! joins the shared ring when its run ends or it is dropped.
//!
//! ## Exporters
//!
//! [`chrome::export`] emits Chrome trace-event JSON (loadable in
//! Perfetto or `chrome://tracing`): one track per pipeline stage plus
//! an async track per doppelganger. [`konata::export`] emits a
//! Konata/Kanata pipeline-viewer log. [`jsonl::export`] emits one
//! self-describing JSON object per line for ad-hoc scripting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod event;
pub mod flight;
pub mod jsonl;
pub mod konata;
mod sink;

pub use event::{
    Cycle, DglEvent, DiscardReason, InstKind, MemEvent, MemLevel, Seq, Stage, TraceEvent,
};
pub use flight::{render_postmortem, FlightRecorder, LocalFlightSink, SharedFlightRecorder};
pub use sink::{RecordingSink, SharedSink, TraceSink};
