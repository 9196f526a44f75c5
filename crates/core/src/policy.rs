//! The scheme registry and the types the scheme rules speak in.
//!
//! A scheme is a [`SchemeKind`] variant, one [`SchemeEntry`] row in
//! [`REGISTRY`] (aliases, summary, family), and one arm in each rule of
//! [`crate::rules`], the scheme truth table. `dgl-sim`'s `ConfigId`, the
//! `dgl` CLI parser and `attack` sweep, and the `dgl-bench` report bins
//! all enumerate the registry, so nothing else needs an edit.
//!
//! [`DemandAccessPlan`] is the answer type of
//! [`crate::rules::demand_access`]; [`DelayCause`] tags the cycles a
//! restrictive verdict costs, for cycle-loss accounting.

use crate::scheme::SchemeKind;

/// How a *speculative* demand load is allowed to probe the memory
/// hierarchy (DoM's §2.2 lever; everyone else uses [`Self::FULL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandAccessPlan {
    /// Probe the L1 only; a miss is *not* forwarded down the hierarchy.
    pub l1_only: bool,
    /// Update replacement state on a hit (DoM defers this to
    /// non-speculation so a transient hit leaves no LRU footprint).
    pub update_replacement: bool,
}

impl DemandAccessPlan {
    /// Unrestricted access: full hierarchy, replacement updated.
    pub const FULL: Self = Self {
        l1_only: false,
        update_replacement: true,
    };
    /// DoM's speculative probe: L1 only, replacement untouched.
    pub const L1_PROBE: Self = Self {
        l1_only: true,
        update_replacement: false,
    };
}

/// Why a scheme rule parked a load (or held a result): the delay
/// provenance tag of a restrictive verdict, so cycle-loss accounting can charge exposed stall cycles to the exact
/// rule that caused them rather than to an undifferentiated "scheme"
/// bucket.
///
/// Every cause corresponds to the restrictive branch of one rule in
/// [`crate::rules`]; a scheme that never takes that branch never
/// produces its cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DelayCause {
    /// STT: a transmitter stalled at issue on a tainted operand.
    TaintOperand,
    /// DoM: a speculative L1 miss parked the load until the visibility
    /// point (also covers DoM's doppelganger-visibility deferral).
    DomDelay,
    /// NDA: a completed load's result is locked until the visibility
    /// point (permissive and strict propagation alike).
    PropagateLock,
    /// NDA-S: a non-load speculative result is locked at writeback.
    ResultLock,
    /// DoM: a mispredicted doppelganger's conventional replay is held
    /// until the load is non-speculative (§5.3).
    ReissueHold,
    /// Branches forced to resolve in visibility-point order (§4.6,
    /// DoM+AP).
    BranchOrder,
}

impl DelayCause {
    /// Every cause, in stable report order.
    pub const ALL: [DelayCause; 6] = [
        DelayCause::TaintOperand,
        DelayCause::DomDelay,
        DelayCause::PropagateLock,
        DelayCause::ResultLock,
        DelayCause::ReissueHold,
        DelayCause::BranchOrder,
    ];

    /// Stable snake_case label used in metrics and manifests.
    pub fn label(self) -> &'static str {
        match self {
            DelayCause::TaintOperand => "taint_operand",
            DelayCause::DomDelay => "dom_delay",
            DelayCause::PropagateLock => "propagate_lock",
            DelayCause::ResultLock => "result_lock",
            DelayCause::ReissueHold => "reissue_hold",
            DelayCause::BranchOrder => "branch_order",
        }
    }

    /// Dense index into per-cause arrays (inverse of [`Self::ALL`]).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).expect("in ALL")
    }

    /// Whether the cause parks a load on the *issue* side (the load
    /// could not even access memory) as opposed to holding an already
    /// completed result back from dependents. Cycle accounting uses
    /// this to classify how a park ultimately resolved: issue-side
    /// parks that propagate conventionally were *delayed*, while
    /// propagate-side parks released at the visibility point were
    /// merely *woken*.
    pub fn is_issue_side(self) -> bool {
        matches!(
            self,
            DelayCause::TaintOperand | DelayCause::DomDelay | DelayCause::ReissueHold
        )
    }
}

/// One registered scheme: kind, aliases, description, and family.
#[derive(Debug, Clone, Copy)]
pub struct SchemeEntry {
    /// The enum tag; [`SchemeKind::name`] is the canonical name (what
    /// reports print and the CLI accepts).
    pub kind: SchemeKind,
    /// Accepted parse aliases, lowercase.
    pub aliases: &'static [&'static str],
    /// One-line description for `--help`-style listings.
    pub summary: &'static str,
    /// Scheme family for grouped reports (`baseline`, `nda`, `stt`,
    /// `dom`) — e.g. the `nda_variants` bench enumerates family `nda`.
    pub family: &'static str,
}

/// Every scheme the simulator knows, in presentation order. This is the
/// single source of truth enumerated by `ConfigId`, the CLI, and the
/// bench bins.
pub static REGISTRY: [SchemeEntry; 6] = [
    SchemeEntry {
        kind: SchemeKind::Baseline,
        aliases: &["unsafe"],
        summary: "unprotected out-of-order execution",
        family: "baseline",
    },
    SchemeEntry {
        kind: SchemeKind::NdaP,
        aliases: &["nda", "ndap"],
        summary: "NDA, permissive propagation: lock speculative load results",
        family: "nda",
    },
    SchemeEntry {
        kind: SchemeKind::NdaS,
        aliases: &["ndas"],
        summary: "NDA, strict propagation: lock every speculative result",
        family: "nda",
    },
    SchemeEntry {
        kind: SchemeKind::NdaPEager,
        aliases: &["ndape", "nda-eager"],
        summary: "NDA-P variant: branches resolve on ready-but-unpropagated operands",
        family: "nda",
    },
    SchemeEntry {
        kind: SchemeKind::Stt,
        aliases: &[],
        summary: "Speculative Taint Tracking: delay tainted transmitters",
        family: "stt",
    },
    SchemeEntry {
        kind: SchemeKind::DoM,
        aliases: &["delay-on-miss"],
        summary: "Delay-on-Miss: speculative loads are L1-hit-only",
        family: "dom",
    },
];

/// Case-insensitive lookup by canonical name or alias.
pub fn lookup(name: &str) -> Option<&'static SchemeEntry> {
    let lower = name.to_ascii_lowercase();
    REGISTRY
        .iter()
        .find(|e| e.kind.name() == lower || e.aliases.contains(&lower.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_kind_once() {
        let kinds: Vec<_> = REGISTRY.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, SchemeKind::ALL);
    }

    #[test]
    fn lookup_accepts_names_and_aliases() {
        assert_eq!(lookup("NDA").unwrap().kind, SchemeKind::NdaP);
        assert_eq!(lookup("delay-on-miss").unwrap().kind, SchemeKind::DoM);
        assert_eq!(lookup("nda-p-eager").unwrap().kind, SchemeKind::NdaPEager);
        assert!(lookup("spectre").is_none());
    }

    #[test]
    fn delay_cause_labels_are_stable_and_indexed() {
        for (i, c) in DelayCause::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(c
                .label()
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch == '_'));
        }
        assert!(DelayCause::TaintOperand.is_issue_side());
        assert!(DelayCause::DomDelay.is_issue_side());
        assert!(DelayCause::ReissueHold.is_issue_side());
        assert!(!DelayCause::PropagateLock.is_issue_side());
        assert!(!DelayCause::ResultLock.is_issue_side());
    }
}
