//! The cycle-stepped out-of-order core.
//!
//! This is the substrate the paper's evaluation runs on: a gem5-like o3
//! CPU with the Table 1 configuration (5-wide decode, 8-wide
//! issue/commit, 160-entry IQ, 352-entry ROB, 128-entry LQ, 72-entry
//! SQ), speculative wrong-path execution with real data, and the four
//! speculation policies under study:
//!
//! * unsafe **baseline**,
//! * **NDA-P** — speculative load results are locked until the load is
//!   non-speculative,
//! * **STT** — speculative load results propagate but carry taint;
//!   transmitters (load issue, store address generation, branch
//!   resolution) are delayed while their operands are tainted,
//! * **DoM** — speculative loads must hit in L1; misses are delayed and
//!   reissued at the visibility point, with delayed replacement update.
//!
//! Each scheme can be combined with **doppelganger loads** (`dgl-core`):
//! loads get their addresses predicted at dispatch, issue early into
//! spare memory slots, preload their destination registers, and release
//! the value under [`dgl_core::rules::may_propagate`]. Every
//! scheme-conditional decision is a [`dgl_core::rules`] function of the
//! core's [`dgl_core::SchemeKind`].
//!
//! Speculation is tracked with *shadows* (Ghost Loads): an instruction
//! is speculative while any older unresolved branch (C-shadow) or
//! unresolved store address (D-shadow) exists. The visibility point is
//! the oldest active shadow; NDA unlocking, STT untainting, DoM
//! reissue, doppelganger propagation, and in-order branch resolution
//! (DoM+AP) all key off it.
//!
//! # Examples
//!
//! ```
//! use dgl_isa::{ProgramBuilder, Reg, SparseMemory};
//! use dgl_pipeline::{Core, CoreConfig};
//! use dgl_core::SchemeKind;
//!
//! let r1 = Reg::new(1);
//! let mut b = ProgramBuilder::new("quick");
//! b.imm(r1, 5).subi(r1, r1, 5).halt();
//! let program = b.build()?;
//!
//! let mut core = Core::new(CoreConfig::default(), SchemeKind::Baseline, false);
//! let report = core.run(&program, SparseMemory::new(), 10_000)?;
//! assert!(report.halted);
//! assert_eq!(report.committed, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
mod calendar;
pub mod config;
pub mod core;
pub mod cpi;
pub mod frontend;
mod iq;
pub mod lsq;
pub mod regfile;
pub mod rob;
pub mod sampler;
pub mod shadow;
pub mod soa;
pub mod stats;
pub mod taint;
mod wake;

pub use crate::core::{core_prof_registry, Core, Provenance, RunError, RunReport};
pub use attribution::{LoadSiteStats, LoadSiteTable};
pub use config::CoreConfig;
pub use cpi::{CpiComponent, CpiStack, RuleProvenance, CPI_SCHEMA, CPI_VERSION};
pub use sampler::{OccupancySample, OccupancySeries};
pub use stats::CoreStats;
