//! The per-load doppelganger state machine.
//!
//! Each load-queue entry carries one [`DoppelgangerState`]. The paper's
//! cost argument (§5.1) rests on this state being tiny: the predicted
//! address reuses the LQ entry's address slot, the preloaded value lives
//! in the load's own physical destination register, and the only new
//! bits are `predicted`/`executed` plus bookkeeping for store-forward
//! override and snooped invalidations.

use std::fmt;

/// Outcome of comparing the predicted address with the resolved one
/// (step (E) in the paper's Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verification {
    /// The real address has not been generated yet.
    #[default]
    Pending,
    /// Predicted and resolved addresses match: the preload may be used.
    Correct,
    /// Mismatch: the preload must be discarded and the load reissued.
    Mispredicted,
}

/// Doppelganger bookkeeping attached to one load-queue entry.
///
/// # Examples
///
/// ```
/// use dgl_core::{DoppelgangerState, Verification};
///
/// let mut dg = DoppelgangerState::predicted(0x1000);
/// dg.mark_issued();
/// dg.on_data(true); // preload arrived, L1 hit
/// assert_eq!(dg.resolve(0x1000), Verification::Correct);
/// assert!(dg.data_ready());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DoppelgangerState {
    predicted_addr: Option<u64>,
    issued: bool,
    data_ready: bool,
    l1_hit: Option<bool>,
    verification: Verification,
    store_overridden: bool,
    invalidated: bool,
}

impl DoppelgangerState {
    /// State for a load the predictor produced no prediction for — the
    /// load falls under the normal operation of the secure scheme.
    pub fn unpredicted() -> Self {
        Self::default()
    }

    /// State for a load with a predicted address (the `predicted` bit of
    /// Figure 5 is set).
    pub fn predicted(addr: u64) -> Self {
        Self {
            predicted_addr: Some(addr),
            ..Self::default()
        }
    }

    /// The predicted address, if any.
    pub fn predicted_addr(&self) -> Option<u64> {
        self.predicted_addr
    }

    /// Whether a prediction exists.
    pub fn is_predicted(&self) -> bool {
        self.predicted_addr.is_some()
    }

    /// Whether the doppelganger memory request has been sent.
    pub fn is_issued(&self) -> bool {
        self.issued
    }

    /// Whether the preloaded value (memory response or store-forward
    /// override) is in the destination register.
    pub fn data_ready(&self) -> bool {
        self.data_ready
    }

    /// L1 hit/miss outcome of the doppelganger access, once known.
    /// Drives the DoM propagation rule (§5.3).
    pub fn l1_hit(&self) -> Option<bool> {
        self.l1_hit
    }

    /// Current verification status.
    pub fn verification(&self) -> Verification {
        self.verification
    }

    /// Whether an older store's value replaced the memory preload
    /// (§4.4: forwarding happens transparently; the doppelganger still
    /// appears in memory).
    pub fn is_store_overridden(&self) -> bool {
        self.store_overridden
    }

    /// Whether an external invalidation matched the predicted address
    /// while in flight (§4.5).
    pub fn is_invalidated(&self) -> bool {
        self.invalidated
    }

    /// Marks the doppelganger request as issued to memory.
    ///
    /// # Panics
    ///
    /// Panics (debug) if there is no prediction to issue.
    pub fn mark_issued(&mut self) {
        debug_assert!(self.is_predicted(), "cannot issue without a prediction");
        self.issued = true;
    }

    /// Records the arrival of the doppelganger's memory response.
    /// `l1_hit` reports where the data was found (true = L1 hit). A
    /// store-forward override that already supplied the value keeps
    /// priority: memory data never overwrites a forwarded store value.
    pub fn on_data(&mut self, l1_hit: bool) {
        self.l1_hit = Some(l1_hit);
        self.data_ready = true;
    }

    /// Records that an older store with a matching resolved address
    /// supplied the value (replacing any memory preload, §4.4 case 1/2).
    pub fn on_store_forward(&mut self) {
        self.store_overridden = true;
        self.data_ready = true;
    }

    /// Notes an external invalidation that matched the predicted
    /// address. The doppelganger itself is *not* squashed; the note
    /// takes effect when the preload would propagate (§4.5).
    pub fn on_invalidation(&mut self) {
        self.invalidated = true;
    }

    /// Compares the freshly generated address against the prediction
    /// (step (E) of Figure 5) and records the outcome.
    ///
    /// On a mismatch the preload is discarded (`data_ready` clears) and
    /// the `predicted`/`executed` bits reset so the conventional load
    /// can be replayed.
    pub fn resolve(&mut self, real_addr: u64) -> Verification {
        let verdict = match self.predicted_addr {
            Some(p) if p == real_addr => Verification::Correct,
            Some(_) => Verification::Mispredicted,
            None => Verification::Pending,
        };
        if verdict == Verification::Mispredicted {
            // Discard the preload; any late response to the wrong
            // address request is dropped by the pipeline. A mispredicted
            // doppelganger's invalidation note is ignored (§4.5).
            self.data_ready = false;
            self.issued = false;
            self.store_overridden = false;
            self.invalidated = false;
        }
        self.verification = verdict;
        verdict
    }

    /// Abandons the doppelganger entirely: the load reverts to the
    /// scheme's normal operation. Used when the preload cannot stand in
    /// for the load (e.g. a partially overlapping older store) — the
    /// preload is discarded exactly as on a misprediction, so no stale
    /// data can ever propagate.
    pub fn discard(&mut self) {
        self.predicted_addr = None;
        self.issued = false;
        self.data_ready = false;
        self.l1_hit = None;
        self.verification = Verification::Pending;
        self.store_overridden = false;
        self.invalidated = false;
    }

    /// Whether the invalidation note must take effect when propagating
    /// (only for verified-correct doppelgangers; mispredicted ones
    /// ignore it, §4.5).
    pub fn invalidation_applies(&self) -> bool {
        self.invalidated && self.verification == Verification::Correct
    }
}

impl fmt::Display for DoppelgangerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.predicted_addr {
            None => write!(f, "unpredicted"),
            Some(a) => write!(
                f,
                "pred={a:#x} issued={} ready={} verif={:?}",
                self.issued, self.data_ready, self.verification
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpredicted_stays_pending() {
        let mut dg = DoppelgangerState::unpredicted();
        assert!(!dg.is_predicted());
        assert_eq!(dg.resolve(0x40), Verification::Pending);
        assert!(!dg.data_ready());
    }

    #[test]
    fn correct_prediction_keeps_preload() {
        let mut dg = DoppelgangerState::predicted(0x40);
        dg.mark_issued();
        dg.on_data(false);
        assert_eq!(dg.resolve(0x40), Verification::Correct);
        assert!(dg.data_ready());
        assert_eq!(dg.l1_hit(), Some(false));
    }

    #[test]
    fn misprediction_discards_preload() {
        let mut dg = DoppelgangerState::predicted(0x40);
        dg.mark_issued();
        dg.on_data(true);
        assert_eq!(dg.resolve(0x80), Verification::Mispredicted);
        assert!(!dg.data_ready(), "preload must be discarded");
        assert!(!dg.is_issued(), "executed bit cleared for replay");
    }

    #[test]
    fn verification_before_data() {
        // Address can resolve before the doppelganger response arrives.
        let mut dg = DoppelgangerState::predicted(0x40);
        dg.mark_issued();
        assert_eq!(dg.resolve(0x40), Verification::Correct);
        assert!(!dg.data_ready());
        dg.on_data(true);
        assert!(dg.data_ready());
    }

    #[test]
    fn store_forward_overrides_memory() {
        let mut dg = DoppelgangerState::predicted(0x40);
        dg.mark_issued();
        dg.on_store_forward();
        assert!(dg.is_store_overridden());
        assert!(dg.data_ready());
        // A late memory response does not clear the override flag.
        dg.on_data(false);
        assert!(dg.is_store_overridden());
    }

    #[test]
    fn invalidation_only_applies_when_correct() {
        let mut dg = DoppelgangerState::predicted(0x40);
        dg.mark_issued();
        dg.on_invalidation();
        assert!(!dg.invalidation_applies(), "not yet verified");
        dg.resolve(0x40);
        assert!(dg.invalidation_applies());

        let mut dg = DoppelgangerState::predicted(0x40);
        dg.mark_issued();
        dg.on_invalidation();
        dg.resolve(0x80);
        assert!(
            !dg.invalidation_applies(),
            "mispredicted doppelganger ignores the invalidation"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without a prediction")]
    fn issuing_unpredicted_panics_in_debug() {
        let mut dg = DoppelgangerState::unpredicted();
        dg.mark_issued();
    }

    #[test]
    fn discard_reverts_to_unpredicted() {
        let mut dg = DoppelgangerState::predicted(0x40);
        dg.mark_issued();
        dg.on_data(true);
        dg.resolve(0x40);
        dg.discard();
        assert_eq!(dg, DoppelgangerState::unpredicted());
        assert!(!dg.data_ready());
    }

    #[test]
    fn display_forms() {
        assert_eq!(DoppelgangerState::unpredicted().to_string(), "unpredicted");
        assert!(DoppelgangerState::predicted(0x40)
            .to_string()
            .contains("pred=0x40"));
    }
}
