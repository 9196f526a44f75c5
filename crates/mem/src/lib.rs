//! Memory hierarchy for the Doppelganger Loads simulator.
//!
//! Models the three-level cache hierarchy of the paper's Table 1 — a
//! 48 KiB/12-way L1D, a 2 MiB/8-way private L2, a 16 MiB/16-way shared
//! L3 — plus DRAM, with MSHR-limited outstanding misses and LRU
//! replacement. Caches are *tag-only*: data always comes from the
//! functional [`SparseMemory`](dgl_isa::SparseMemory) image, so the
//! timing model can never return stale values.
//!
//! Two features exist specifically for the secure speculation schemes:
//!
//! * **L1-bounded requests** ([`MemRequest::l1_only`]) — Delay-on-Miss
//!   issues speculative loads that must *fail* instead of propagating a
//!   miss to L2 (paper §2.3); such requests leave no microarchitectural
//!   trace beyond the L1 lookup.
//! * **Delayed replacement update** ([`MemRequest::update_replacement`]
//!   and [`MemorySystem::touch_l1`]) — DoM defers LRU updates for
//!   speculative hits until the access is safe (paper footnote 1).
//!
//! The hierarchy records optional observation traces used by the
//! security tests: everything an attacker could learn from the memory
//! side-channel (which lines moved where) is derivable from
//! [`MemorySystem::trace`] and the tag state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod mshr;

pub use cache::{Cache, CacheStats};
pub use config::{CacheConfig, HierarchyConfig, Replacement};
pub use hierarchy::{
    AccessKind, Level, MemReqId, MemRequest, MemResponse, MemorySystem, ResponsePayload,
};
pub use mshr::MshrFile;
