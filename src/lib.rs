//! # Doppelganger Loads
//!
//! A from-scratch Rust reproduction of
//! *Doppelganger Loads: A Safe, Complexity-Effective Optimization for
//! Secure Speculation Schemes* (Kvalsvik, Aimoniotis, Kaxiras,
//! Själander — ISCA 2023).
//!
//! A **doppelganger load** is an address-predicted stand-in for a load
//! that a secure speculation scheme would delay: a stride predictor
//! trained *only on committed loads* guesses the load's address at
//! decode, the access is issued early, the value is preloaded into the
//! load's own destination register, and it is released only once the
//! real address verifies **and** the underlying scheme (NDA-P, STT, or
//! DoM) declares the load safe. Mispredictions discard the preload and
//! replay the load conventionally — no squash, no rollback, no change
//! to the memory hierarchy, and no change to the scheme's threat model.
//!
//! This crate is the facade over the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`isa`] | RISC-like ISA, assembler, program builder, golden-model emulator |
//! | [`mem`] | L1/L2/L3 + DRAM hierarchy, MSHRs, bandwidth model, observation traces |
//! | [`predictor`] | gshare/BTB branch prediction, the shared stride table |
//! | [`core`] | the doppelganger mechanism itself (predictor, state machine, rules) |
//! | [`pipeline`] | the out-of-order core with the four speculation policies |
//! | [`workloads`] | the synthetic SPEC-like benchmark suite |
//! | [`stats`] | counters, geomeans, tables, charts |
//! | [`trace`] | structured event tracing, Chrome-trace / Konata / JSONL export |
//! | [`sim`] | [`SimBuilder`], figure reproduction, run diffing, the security laboratory |
//! | [`figures`] | every table and figure `dgl figures` prints |
//! | [`pin`] | the committed artifact-hash table `dgl pin` checks |
//!
//! # Quickstart
//!
//! ```
//! use doppelganger_loads::{SchemeKind, SimBuilder};
//! use doppelganger_loads::workloads::{by_name, Scale};
//!
//! let workload = by_name("hmmer_like", Scale::Custom(3_000)).unwrap();
//!
//! let secure = SimBuilder::new()
//!     .scheme(SchemeKind::NdaP)
//!     .run_workload(&workload)?;
//! let with_doppelgangers = SimBuilder::new()
//!     .scheme(SchemeKind::NdaP)
//!     .address_prediction(true)
//!     .run_workload(&workload)?;
//!
//! // Address prediction recovers performance the secure scheme lost.
//! assert!(with_doppelgangers.ipc() >= secure.ipc());
//! # Ok::<(), doppelganger_loads::RunError>(())
//! ```
//!
//! See `examples/` for runnable demonstrations (including an
//! in-simulator Spectre attack stopped by every secure scheme) and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod pin;

pub use dgl_core as core;
pub use dgl_fuzz as fuzz;
pub use dgl_isa as isa;
pub use dgl_mem as mem;
pub use dgl_pipeline as pipeline;
pub use dgl_predictor as predictor;
pub use dgl_sim as sim;
pub use dgl_stats as stats;
pub use dgl_trace as trace;
pub use dgl_workloads as workloads;

pub use dgl_core::{DoppelgangerConfig, SchemeKind, REGISTRY};
pub use dgl_isa::{Emulator, Program, ProgramBuilder, Reg, SparseMemory};
pub use dgl_pipeline::{Core, CoreConfig, RunError, RunReport};
pub use dgl_sim::SimBuilder;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let _ = crate::SchemeKind::DoM;
        let _ = crate::CoreConfig::default();
        let _ = crate::DoppelgangerConfig::default();
    }
}
