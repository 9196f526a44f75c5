//! Security invariants of the scheme truth table in `dgl_core::rules`,
//! checked for every scheme over the doppelganger state space.
//!
//! For every scheme, state and speculation status:
//!
//! * (a) a preload propagates only once its address is verified correct
//!   and its data is ready;
//! * (b) permission is monotone in `load_nonspec` — reaching the
//!   visibility point never revokes a verdict;
//! * (c) no scheme is more permissive than the unsafe `Baseline`;
//! * (d) a preload is never more permissive than the scheme's own rule
//!   for a conventional load (§5.2 threat-model transparency);
//! * (e) liveness: a verified, data-ready preload propagates once the
//!   load is non-speculative, and a mispredicted doppelganger's replay
//!   may then issue.
//!
//! Two layers of evidence: an **exhaustive** sweep over every reachable
//! `DoppelgangerState` (the state machine is tiny — that is the paper's
//! §5.1 cost argument — so it can simply be enumerated), and a
//! **property test** driving the state machine with random event
//! sequences, catching any reachable-state combination the enumeration
//! template might miss.

use dgl_core::rules::may_propagate_load;
use dgl_core::{may_propagate, reissue_allowed, DoppelgangerState, SchemeKind, Verification};
use proptest::prelude::*;

/// Every reachable doppelganger state, built through the public event
/// API: {no data, memory hit, memory miss} × {store override or not} ×
/// {unresolved, verified correct, mispredicted} × {invalidated or not},
/// plus the unpredicted and discarded states.
fn reachable_states() -> Vec<DoppelgangerState> {
    let mut states = vec![DoppelgangerState::unpredicted()];
    // A prediction that never issued (no spare port before resolution).
    states.push(DoppelgangerState::predicted(0x40));
    for data in [None, Some(true), Some(false)] {
        for store_forward in [false, true] {
            for invalidated in [false, true] {
                for resolve in [None, Some(0x40), Some(0x80)] {
                    let mut dg = DoppelgangerState::predicted(0x40);
                    dg.mark_issued();
                    if store_forward {
                        dg.on_store_forward();
                    }
                    if let Some(hit) = data {
                        dg.on_data(hit);
                    }
                    if invalidated {
                        dg.on_invalidation();
                    }
                    if let Some(real) = resolve {
                        dg.resolve(real);
                    }
                    states.push(dg);
                    let mut discarded = dg;
                    discarded.discard();
                    states.push(discarded);
                }
            }
        }
    }
    states
}

/// Checks invariants (a)–(e) of the propagation rule for one state.
fn check_state(s: SchemeKind, dg: &DoppelgangerState) -> Result<(), String> {
    let verified_ready = dg.verification() == Verification::Correct && dg.data_ready();
    for nonspec in [false, true] {
        let fail = |rule: &str| Err(format!("{rule}: {s}: {dg:?} nonspec={nonspec}"));
        if !may_propagate(s, dg, nonspec) {
            continue;
        }
        if !verified_ready {
            return fail("(a) propagates unverified or without data");
        }
        if !may_propagate(s, dg, true) {
            return fail("(b) not monotone in nonspec");
        }
        if !may_propagate(SchemeKind::Baseline, dg, nonspec) {
            return fail("(c) more permissive than baseline");
        }
        if !may_propagate_load(s, nonspec) {
            return fail("(d) preload beats the conventional rule");
        }
    }
    if verified_ready && !may_propagate(s, dg, true) {
        return Err(format!(
            "(e) verified preload never propagates: {s}: {dg:?}"
        ));
    }
    Ok(())
}

#[test]
fn propagation_rule_holds_its_invariants_over_every_reachable_state() {
    let states = reachable_states();
    for s in SchemeKind::ALL {
        for dg in &states {
            check_state(s, dg).unwrap();
        }
    }
}

#[test]
fn conventional_and_reissue_rules_hold_their_invariants() {
    for s in SchemeKind::ALL {
        // (b) monotone, (c) bounded by baseline.
        for rule in [may_propagate_load, reissue_allowed] {
            assert!(!rule(s, false) || rule(s, true), "{s}: not monotone");
            for nonspec in [false, true] {
                assert!(
                    !rule(s, nonspec) || rule(SchemeKind::Baseline, nonspec),
                    "{s}: more permissive than baseline, nonspec={nonspec}"
                );
            }
        }
        // (e) a non-speculative load always makes progress.
        assert!(may_propagate_load(s, true), "{s}");
        assert!(reissue_allowed(s, true), "{s}");
    }
}

/// One random event applied to the state machine.
#[derive(Debug, Clone, Copy)]
enum Event {
    Issue,
    Data(bool),
    StoreForward,
    Invalidate,
    Resolve(bool),
    Discard,
}

fn apply(dg: &mut DoppelgangerState, ev: Event) {
    match ev {
        Event::Issue => {
            if dg.is_predicted() {
                dg.mark_issued();
            }
        }
        Event::Data(hit) => dg.on_data(hit),
        Event::StoreForward => dg.on_store_forward(),
        Event::Invalidate => dg.on_invalidation(),
        Event::Resolve(correct) => {
            dg.resolve(if correct { 0x40 } else { 0x80 });
        }
        Event::Discard => dg.discard(),
    }
}

proptest! {
    #[test]
    fn random_event_sequences_keep_the_invariants(
        predicted in proptest::prelude::any::<bool>(),
        choices in proptest::collection::vec((0u8..6, proptest::prelude::any::<bool>()), 0..8),
    ) {
        let mut dg = if predicted {
            DoppelgangerState::predicted(0x40)
        } else {
            DoppelgangerState::unpredicted()
        };
        for (tag, flag) in choices {
            let ev = match tag {
                0 => Event::Issue,
                1 => Event::Data(flag),
                2 => Event::StoreForward,
                3 => Event::Invalidate,
                4 => Event::Resolve(flag),
                _ => Event::Discard,
            };
            apply(&mut dg, ev);
        }
        for s in SchemeKind::ALL {
            check_state(s, &dg).map_err(TestCaseError::fail)?;
        }
    }
}
