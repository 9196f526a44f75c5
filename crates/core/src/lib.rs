//! **Doppelganger Loads** — the primary contribution of the paper,
//! implemented as a pipeline-independent component.
//!
//! A *doppelganger load* is an address-predicted stand-in for a load that
//! a secure speculation scheme would delay (paper §4.1). It
//!
//! 1. predicts the load's address at decode, from a PC-indexed stride
//!    table trained **only on committed loads**;
//! 2. issues the memory access early with the predicted address and
//!    **preloads** the load's destination register;
//! 3. propagates the preloaded value only once the real address has been
//!    computed and verified to match **and** the underlying scheme
//!    (NDA-P, STT, or DoM) declares the load safe.
//!
//! On a misprediction the preload is silently discarded and the real
//! load is issued under the scheme's ordinary rules — no squash, no
//! rollback, no extra physical register.
//!
//! This crate owns everything about that mechanism that does not touch
//! pipeline plumbing:
//!
//! * [`AddressPredictor`] — the dual-mode stride predictor/prefetcher
//!   with coverage/accuracy accounting (paper §5.1, Figure 7);
//! * [`DoppelgangerState`] — the per-load-queue-entry state machine
//!   (predicted/issued/preloaded/verified bits, store-forward override,
//!   invalidation note);
//! * [`SchemeKind`] + [`rules`] — the scheme truth table: every
//!   scheme-conditional decision, including the §5.2/§5.3 propagation
//!   and reissue rules, in one auditable place; [`REGISTRY`] holds the
//!   schemes' names, aliases and families.
//!
//! The out-of-order core in `dgl-pipeline` drives these via a narrow
//! interface (`predict_at_decode`, `on_data`, `resolve`, the [`rules`]
//! functions, `train`), mirroring the paper's claim that the
//! mechanism integrates with complexity-effective changes: the
//! doppelganger shares the load's LQ entry, physical destination
//! register, and the existing stride-prefetcher storage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod entry;
pub mod policy;
pub mod predictor;
pub mod rules;
pub mod scheme;

pub use config::DoppelgangerConfig;
pub use entry::{DoppelgangerState, Verification};
pub use policy::{DelayCause, DemandAccessPlan, SchemeEntry, REGISTRY};
pub use predictor::{AddressPredictor, ApMode, ApStats};
pub use rules::{may_propagate, reissue_allowed};
pub use scheme::SchemeKind;
