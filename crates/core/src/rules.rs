//! The scheme truth table (paper §5, §5.2, §5.3): every
//! scheme-conditional decision the out-of-order core makes, as one pure
//! `match scheme` function per decision.
//!
//! Doppelganger loads are *threat-model transparent*: a preload follows
//! the host scheme's own rule for a conventional load, so each scheme
//! reduces to a handful of verdicts. They are written here once and
//! nowhere else — the pipeline's stage modules call these functions
//! with the core's [`SchemeKind`], and `tests/rules_invariants.rs`
//! checks the security invariants over the whole doppelganger state
//! space.
//!
//! Every `match` is exhaustive with no wildcard arm: a new
//! [`SchemeKind`] variant fails to compile until each rule decides for
//! it. Adding a scheme therefore means the variant, a
//! [`REGISTRY`](crate::policy::REGISTRY) row, and one arm per rule.

use crate::entry::{DoppelgangerState, Verification};
use crate::policy::{DelayCause, DemandAccessPlan};
use crate::scheme::SchemeKind;

/// STT: taint speculative load results, propagate taint through
/// dependents, and delay *transmitters* with tainted operands. Gates
/// every taint-map interaction in the pipeline.
pub fn tracks_taint(scheme: SchemeKind) -> bool {
    match scheme {
        SchemeKind::Stt => true,
        SchemeKind::Baseline
        | SchemeKind::NdaP
        | SchemeKind::NdaS
        | SchemeKind::NdaPEager
        | SchemeKind::DoM => false,
    }
}

/// NDA-S: **every** speculative result is locked at writeback, not just
/// load results; the visibility sweep unlocks them in order.
pub fn locks_all_results(scheme: SchemeKind) -> bool {
    match scheme {
        SchemeKind::NdaS => true,
        SchemeKind::Baseline
        | SchemeKind::NdaP
        | SchemeKind::NdaPEager
        | SchemeKind::Stt
        | SchemeKind::DoM => false,
    }
}

/// Whether a *conventional* load result (own demand access, no
/// doppelganger involved) may propagate to dependents now. NDA delays
/// this to the visibility point; [`may_propagate`] applies the same
/// rule to preloads.
pub fn may_propagate_load(scheme: SchemeKind, load_nonspec: bool) -> bool {
    match scheme {
        SchemeKind::NdaP | SchemeKind::NdaS | SchemeKind::NdaPEager => load_nonspec,
        SchemeKind::Baseline | SchemeKind::Stt | SchemeKind::DoM => true,
    }
}

/// Whether a doppelganger's preloaded value may be propagated to
/// dependent instructions.
///
/// Common preconditions for every scheme: the predicted address must be
/// **verified correct** and the data must be **ready** (preloaded from
/// memory or overridden by an older store). On top of that:
///
/// * **Baseline + AP** — propagate immediately (there is no security
///   delay to respect; the paper uses this to show AP alone gains only
///   ~0.5%).
/// * **NDA-P / NDA-S + AP** — propagate only when the load is non-speculative,
///   matching NDA-P's rule for conventional loads (§5: "loads cannot
///   propagate before address is verified and load is non-speculative").
/// * **STT + AP** — propagate as soon as verified; the value then
///   carries taint exactly as a conventional STT load result would
///   (§5.2). The pipeline handles tainting.
/// * **DoM + AP** — a doppelganger that *hit* in L1 behaves like a DoM
///   hit (propagate once verified); one that *missed* behaves like a
///   DoM miss (propagate only when non-speculative) (§5.3 / §4.6).
pub fn may_propagate(scheme: SchemeKind, dg: &DoppelgangerState, load_nonspec: bool) -> bool {
    if dg.verification() != Verification::Correct || !dg.data_ready() {
        return false;
    }
    match scheme {
        SchemeKind::Baseline => true,
        // NDA-P-eager changes *operand readiness for branches*, not the
        // propagation rule: preloads stay NDA-P-gated.
        SchemeKind::NdaP | SchemeKind::NdaS | SchemeKind::NdaPEager => load_nonspec,
        SchemeKind::Stt => true,
        SchemeKind::DoM => match (dg.is_store_overridden(), dg.l1_hit()) {
            // §4.6: store-forwarded values follow the same visibility
            // rule as the underlying access would.
            (_, Some(true)) => true,
            (_, Some(false)) => load_nonspec,
            // Store override arrived before the memory response: be
            // conservative until the hit/miss outcome is known.
            (true, None) => load_nonspec,
            (false, None) => false,
        },
    }
}

/// Whether the conventional load of a **mispredicted** doppelganger may
/// be issued to memory now.
///
/// * **Baseline / NDA-P / STT** — reissue immediately; the load then
///   obeys the scheme's ordinary issue rules (for STT the pipeline has
///   already established that the address operands are untainted, since
///   it only resolves addresses it may legally use; under NDA-P an
///   address that could be computed implies its producers propagated).
/// * **DoM + AP** — §5.3: "the second load of mispredicted doppelgangers
///   are only issued once the load is non-speculative", closing the
///   implicit doppelganger channel of Figure 2 without any taint
///   tracking.
pub fn reissue_allowed(scheme: SchemeKind, load_nonspec: bool) -> bool {
    match scheme {
        SchemeKind::Baseline
        | SchemeKind::NdaP
        | SchemeKind::NdaS
        | SchemeKind::NdaPEager
        | SchemeKind::Stt => true,
        SchemeKind::DoM => load_nonspec,
    }
}

/// How a demand load may access the hierarchy. `speculative` is the
/// load's status at issue time. DoM restricts speculative loads to an
/// L1 probe with the replacement update deferred (§2.2).
pub fn demand_access(scheme: SchemeKind, speculative: bool) -> DemandAccessPlan {
    match scheme {
        SchemeKind::DoM if speculative => DemandAccessPlan::L1_PROBE,
        SchemeKind::Baseline
        | SchemeKind::NdaP
        | SchemeKind::NdaS
        | SchemeKind::NdaPEager
        | SchemeKind::Stt
        | SchemeKind::DoM => DemandAccessPlan::FULL,
    }
}

/// Whether speculative branches must resolve in visibility-point
/// order. §4.6: DoM+AP closes its implicit channel this way, so the
/// rule sees whether address prediction is enabled.
pub fn resolves_branches_in_order(scheme: SchemeKind, ap_enabled: bool) -> bool {
    match scheme {
        SchemeKind::DoM => ap_enabled,
        SchemeKind::Baseline
        | SchemeKind::NdaP
        | SchemeKind::NdaS
        | SchemeKind::NdaPEager
        | SchemeKind::Stt => false,
    }
}

/// Whether branch-like instructions (conditional branches, indirect
/// jumps, returns) may *issue* reading operands that are ready but not
/// yet propagated. Only NDA-P-eager does; the pipeline then tracks such
/// reads so a locked value repaired in place squashes its eager
/// consumers (the §4.4 no-squash rule assumes no consumer observed the
/// old value).
pub fn branch_reads_unpropagated(scheme: SchemeKind) -> bool {
    match scheme {
        SchemeKind::NdaPEager => true,
        SchemeKind::Baseline
        | SchemeKind::NdaP
        | SchemeKind::NdaS
        | SchemeKind::Stt
        | SchemeKind::DoM => false,
    }
}

/// The cycle-accounting tag for a denied propagation of a completed
/// load result ([`may_propagate_load`] or [`may_propagate`] said no):
/// NDA's lock, or DoM's deferral of an L1-missing preload. `None` for
/// schemes that never deny on security grounds. Observability only —
/// a tag never influences a decision.
pub fn propagate_delay_cause(scheme: SchemeKind) -> Option<DelayCause> {
    match scheme {
        SchemeKind::NdaP | SchemeKind::NdaS | SchemeKind::NdaPEager => {
            Some(DelayCause::PropagateLock)
        }
        SchemeKind::DoM => Some(DelayCause::DomDelay),
        SchemeKind::Baseline | SchemeKind::Stt => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verified(l1_hit: bool) -> DoppelgangerState {
        let mut dg = DoppelgangerState::predicted(0x40);
        dg.mark_issued();
        dg.on_data(l1_hit);
        dg.resolve(0x40);
        dg
    }

    #[test]
    fn never_propagates_unverified() {
        let mut dg = DoppelgangerState::predicted(0x40);
        dg.mark_issued();
        dg.on_data(true);
        for s in SchemeKind::ALL {
            assert!(!may_propagate(s, &dg, true), "{s}: unverified");
        }
    }

    #[test]
    fn never_propagates_without_data() {
        let mut dg = DoppelgangerState::predicted(0x40);
        dg.mark_issued();
        dg.resolve(0x40);
        for s in SchemeKind::ALL {
            assert!(!may_propagate(s, &dg, true), "{s}: no data");
        }
    }

    #[test]
    fn never_propagates_mispredicted() {
        let mut dg = DoppelgangerState::predicted(0x40);
        dg.mark_issued();
        dg.on_data(true);
        dg.resolve(0x80);
        for s in SchemeKind::ALL {
            assert!(!may_propagate(s, &dg, true), "{s}: mispredicted");
        }
    }

    #[test]
    fn baseline_and_stt_propagate_once_verified() {
        let dg = verified(false);
        assert!(may_propagate(SchemeKind::Baseline, &dg, false));
        assert!(may_propagate(SchemeKind::Stt, &dg, false));
    }

    #[test]
    fn nda_requires_nonspeculative() {
        let dg = verified(true);
        assert!(!may_propagate(SchemeKind::NdaP, &dg, false));
        assert!(may_propagate(SchemeKind::NdaP, &dg, true));
    }

    #[test]
    fn dom_hit_propagates_on_verify_miss_waits() {
        let hit = verified(true);
        assert!(may_propagate(SchemeKind::DoM, &hit, false));
        let miss = verified(false);
        assert!(!may_propagate(SchemeKind::DoM, &miss, false));
        assert!(may_propagate(SchemeKind::DoM, &miss, true));
    }

    #[test]
    fn dom_store_forward_before_outcome_is_conservative() {
        let mut dg = DoppelgangerState::predicted(0x40);
        dg.mark_issued();
        dg.on_store_forward();
        dg.resolve(0x40);
        // Outcome unknown: wait for non-speculation.
        assert!(!may_propagate(SchemeKind::DoM, &dg, false));
        assert!(may_propagate(SchemeKind::DoM, &dg, true));
        // Once the access is known to have hit, it may go early.
        dg.on_data(true);
        assert!(may_propagate(SchemeKind::DoM, &dg, false));
    }

    #[test]
    fn reissue_rules() {
        assert!(reissue_allowed(SchemeKind::Baseline, false));
        assert!(reissue_allowed(SchemeKind::NdaP, false));
        assert!(reissue_allowed(SchemeKind::Stt, false));
        assert!(!reissue_allowed(SchemeKind::DoM, false));
        assert!(reissue_allowed(SchemeKind::DoM, true));
    }

    #[test]
    fn flags_match_paper() {
        use SchemeKind as S;
        for s in SchemeKind::ALL {
            assert_eq!(tracks_taint(s), s == S::Stt, "{s}");
            assert_eq!(locks_all_results(s), s == S::NdaS, "{s}");
            assert_eq!(resolves_branches_in_order(s, true), s == S::DoM, "{s}");
            assert!(!resolves_branches_in_order(s, false), "{s}");
            assert_eq!(branch_reads_unpropagated(s), s == S::NdaPEager, "{s}");
            assert_eq!(reissue_allowed(s, false), s != S::DoM, "{s}");
        }
    }

    #[test]
    fn demand_access_plans() {
        for s in SchemeKind::ALL {
            assert_eq!(demand_access(s, false), DemandAccessPlan::FULL, "{s}");
            let spec = demand_access(s, true);
            if s == SchemeKind::DoM {
                assert_eq!(spec, DemandAccessPlan::L1_PROBE);
            } else {
                assert_eq!(spec, DemandAccessPlan::FULL, "{s}");
            }
        }
    }

    #[test]
    fn delay_causes_tag_exactly_the_restrictive_verdicts() {
        use DelayCause as C;
        use SchemeKind as S;
        let expected = [
            (S::Baseline, None),
            (S::NdaP, Some(C::PropagateLock)),
            (S::NdaS, Some(C::PropagateLock)),
            (S::NdaPEager, Some(C::PropagateLock)),
            (S::Stt, None),
            (S::DoM, Some(C::DomDelay)),
        ];
        for (s, cause) in expected {
            assert_eq!(propagate_delay_cause(s), cause, "{s}");
            // The tag covers both denial paths: a speculative
            // conventional result held back, or a verified data-ready
            // preload deferred (DoM defers an L1-missing preload even
            // though conventional propagation is unrestricted).
            let can_deny =
                !may_propagate_load(s, false) || !may_propagate(s, &verified(false), false);
            assert_eq!(cause.is_some(), can_deny, "{s}");
        }
        // The other restrictive sites name their cause directly
        // (`TaintOperand`, `DomDelay` for the L1-miss park, `ReissueHold`,
        // `ResultLock`, `BranchOrder` for DoM with AP on or off): each
        // is taken by exactly one scheme, pinned by `flags_match_paper` and
        // `demand_access_plans`.
    }

    #[test]
    fn eager_variant_mirrors_nda_p_visibility() {
        for nonspec in [false, true] {
            assert_eq!(
                may_propagate_load(SchemeKind::NdaPEager, nonspec),
                may_propagate_load(SchemeKind::NdaP, nonspec)
            );
            assert_eq!(
                reissue_allowed(SchemeKind::NdaPEager, nonspec),
                reissue_allowed(SchemeKind::NdaP, nonspec)
            );
        }
    }
}
