//! The dual-mode address predictor / prefetcher.
//!
//! Paper §5.1: "The address predictor can be shared with a conventional
//! strided prefetcher, with the only difference that the current
//! address, instead of a future load address, being predicted." One
//! [`StrideTable`] instance backs both modes; the table is trained
//! exclusively from [`AddressPredictor::train_at_commit`], preserving
//! the security invariant that predictor state is a function of
//! committed execution only.

use crate::config::DoppelgangerConfig;
use dgl_predictor::StrideTable;
use std::collections::HashMap;
use std::fmt;

/// Which mode a query came from (statistics bucketing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApMode {
    /// Address prediction: predict the current instance at decode.
    AddressPrediction,
    /// Prefetching: predict a future instance at resolution.
    Prefetch,
}

/// Coverage and accuracy statistics for Figure 7.
///
/// Definitions match the paper's usage:
/// * **coverage** — committed loads that carried a prediction, over all
///   committed loads;
/// * **accuracy** — committed loads whose prediction matched the
///   resolved address, over committed loads that carried a prediction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApStats {
    /// Committed loads observed.
    pub committed_loads: u64,
    /// Committed loads that had a doppelganger prediction.
    pub predicted_loads: u64,
    /// Committed predicted loads whose prediction was correct.
    pub correct_predictions: u64,
    /// Predictions handed out at decode (includes squashed loads).
    pub predictions_issued: u64,
    /// Prefetch candidates proposed.
    pub prefetches_proposed: u64,
}

impl ApStats {
    /// Coverage in [0, 1].
    pub fn coverage(&self) -> f64 {
        if self.committed_loads == 0 {
            0.0
        } else {
            self.predicted_loads as f64 / self.committed_loads as f64
        }
    }

    /// Accuracy in [0, 1].
    pub fn accuracy(&self) -> f64 {
        if self.predicted_loads == 0 {
            0.0
        } else {
            self.correct_predictions as f64 / self.predicted_loads as f64
        }
    }

    /// Publishes the counters (plus the derived coverage/accuracy
    /// gauges) into `reg` under `ap.*` names. One-way copy taken after
    /// a run; never read back by the simulator.
    pub fn publish(&self, reg: &mut dgl_stats::MetricsRegistry) {
        reg.counter("ap.committed_loads", self.committed_loads);
        reg.counter("ap.predicted_loads", self.predicted_loads);
        reg.counter("ap.correct_predictions", self.correct_predictions);
        reg.counter("ap.predictions_issued", self.predictions_issued);
        reg.counter("ap.prefetches_proposed", self.prefetches_proposed);
        reg.gauge("ap.coverage", self.coverage());
        reg.gauge("ap.accuracy", self.accuracy());
    }
}

impl fmt::Display for ApStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coverage {:.1}% accuracy {:.1}% ({} loads)",
            100.0 * self.coverage(),
            100.0 * self.accuracy(),
            self.committed_loads
        )
    }
}

/// The shared stride predictor in both of its modes.
///
/// # Examples
///
/// ```
/// use dgl_core::{AddressPredictor, DoppelgangerConfig};
///
/// let mut ap = AddressPredictor::new(DoppelgangerConfig::default(), true);
/// for i in 0..4 {
///     ap.train_at_commit(0x100, 0x8000 + i * 8);
/// }
/// assert_eq!(ap.predict_at_decode(0x100), Some(0x8020));
/// let distance = ap.config().table.prefetch_distance as u64;
/// assert_eq!(ap.prefetch_candidate(0x100, 0x8020), Some(0x8020 + 8 * distance));
/// ```
#[derive(Debug, Clone)]
pub struct AddressPredictor {
    cfg: DoppelgangerConfig,
    /// Decode-time address prediction on (the "+AP" switch).
    address_prediction: bool,
    table: StrideTable,
    stats: ApStats,
    /// Dispatched-but-uncommitted instances per load PC. The current
    /// instance's address is `last_committed + stride * (inflight + 1)`;
    /// without this the deep out-of-order window (352-entry ROB ≈ tens
    /// of loop iterations) would make every prediction stale. The count
    /// derives only from the fetch stream (committed-trained branch
    /// prediction), never from speculative data, so it is as
    /// secret-independent as the stride history itself.
    inflight: HashMap<u64, u32>,
}

impl AddressPredictor {
    /// Creates the predictor, with address prediction on or off.
    pub fn new(cfg: DoppelgangerConfig, address_prediction: bool) -> Self {
        // Values here only fill the struct: `reset` sets the state.
        let mut ap = Self {
            cfg,
            address_prediction,
            table: StrideTable::new(cfg.table),
            stats: ApStats::default(),
            inflight: HashMap::new(),
        };
        ap.reset(address_prediction);
        ap
    }

    /// The configuration.
    pub fn config(&self) -> DoppelgangerConfig {
        self.cfg
    }

    /// Returns the predictor to the state [`new`](Self::new) builds
    /// from its configuration with address prediction set to
    /// `address_prediction`: an empty table, zero statistics and no
    /// in-flight instances. Allocations are kept.
    pub fn reset(&mut self, address_prediction: bool) {
        // Every field is named, so a new one cannot be left out.
        let Self {
            cfg: _, // the configuration is fixed at `new`
            address_prediction: enabled,
            table,
            stats,
            inflight,
        } = self;
        *enabled = address_prediction;
        table.reset();
        *stats = ApStats::default();
        inflight.clear();
    }

    /// The same trained predictor with address prediction switched to
    /// `enabled`. Training never reads the flag, so a table trained on
    /// committed loads under one setting is exactly the table the other
    /// setting would have built; only decode-time prediction changes.
    pub fn with_address_prediction(mut self, enabled: bool) -> Self {
        self.address_prediction = enabled;
        self
    }

    /// Whether decode-time address prediction is on.
    pub fn address_prediction(&self) -> bool {
        self.address_prediction
    }

    /// Address-prediction mode: called at decode/dispatch for **every**
    /// load PC (predicted or not — the in-flight instance count must
    /// stay consistent). Returns `None` when AP is disabled, the PC is
    /// untracked, or confidence is too low — the load then falls under
    /// the scheme's normal operation.
    ///
    /// Pair each call with exactly one [`train_at_commit`] (commit) or
    /// [`note_squash`](Self::note_squash) (squash) for the same PC.
    ///
    /// [`train_at_commit`]: Self::train_at_commit
    pub fn predict_at_decode(&mut self, pc: u64) -> Option<u64> {
        if !self.address_prediction {
            return None;
        }
        let older = if self.cfg.inflight_compensation {
            *self.inflight.get(&pc).unwrap_or(&0)
        } else {
            0
        };
        *self.inflight.entry(pc).or_insert(0) += 1;
        let p = self.table.predict_current(pc).map(|base| {
            let stride = self.table.peek(pc).map_or(0, |e| e.stride);
            base.wrapping_add((stride.wrapping_mul(older as i64)) as u64)
        });
        if p.is_some() {
            self.stats.predictions_issued += 1;
        }
        p
    }

    /// Releases the in-flight slot of a squashed load instance.
    pub fn note_squash(&mut self, pc: u64) {
        if !self.address_prediction {
            return;
        }
        if let Some(n) = self.inflight.get_mut(&pc) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.inflight.remove(&pc);
            }
        }
    }

    /// Prefetching mode: called when a load's address resolves; proposes
    /// the next line to prefetch, or `None` when prefetching is off or
    /// confidence is too low.
    pub fn prefetch_candidate(&mut self, pc: u64, resolved_addr: u64) -> Option<u64> {
        if !self.cfg.prefetch {
            return None;
        }
        let c = self.table.prefetch_candidate(pc, resolved_addr);
        if c.is_some() {
            self.stats.prefetches_proposed += 1;
        }
        c
    }

    /// Trains the shared table with a committed load and accounts
    /// coverage/accuracy. `prediction` is the address the doppelganger
    /// used for this (now committed) load, if any.
    ///
    /// This is the **only** mutation path into the table: training
    /// strictly by non-speculative loads when they commit is the
    /// security key of the whole approach (paper §5, Figure 5 caption).
    pub fn train_at_commit(&mut self, pc: u64, resolved_addr: u64) {
        self.table.train(pc, resolved_addr);
        self.stats.committed_loads += 1;
        if let Some(n) = self.inflight.get_mut(&pc) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.inflight.remove(&pc);
            }
        }
    }

    /// Accounts a committed load's prediction outcome without training
    /// twice — call together with [`Self::train_at_commit`] when the load had
    /// a doppelganger.
    pub fn note_commit_outcome(&mut self, was_predicted: bool, was_correct: bool) {
        if was_predicted {
            self.stats.predicted_loads += 1;
            if was_correct {
                self.stats.correct_predictions += 1;
            }
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> ApStats {
        self.stats
    }

    /// Zeroes the coverage/accuracy counters while keeping the trained
    /// stride table and the in-flight compensation map. Sampled
    /// simulation calls this at the warmup/measurement boundary so a
    /// window's coverage reflects only its measured slice.
    pub fn reset_stats(&mut self) {
        self.stats = ApStats::default();
        self.table.reset_stats();
    }

    /// Occupancy of the underlying table.
    pub fn table_occupancy(&self) -> usize {
        self.table.occupancy()
    }

    /// Appends a canonical flat-word dump of the predictor state —
    /// statistics, the in-flight compensation map (sorted by PC so the
    /// stream is deterministic), and the underlying stride table — to
    /// `out`. Restoring via [`restore_state`](Self::restore_state) into
    /// a predictor of the same configuration reproduces the trained
    /// state exactly.
    pub fn dump_state(&self, out: &mut Vec<u64>) {
        out.push(self.stats.committed_loads);
        out.push(self.stats.predicted_loads);
        out.push(self.stats.correct_predictions);
        out.push(self.stats.predictions_issued);
        out.push(self.stats.prefetches_proposed);
        let mut inflight: Vec<(u64, u32)> = self.inflight.iter().map(|(&k, &v)| (k, v)).collect();
        inflight.sort_unstable();
        out.push(inflight.len() as u64);
        for (pc, n) in inflight {
            out.push(pc);
            out.push(n as u64);
        }
        self.table.dump_state(out);
    }

    /// Restores state dumped by [`dump_state`](Self::dump_state) into
    /// this predictor, consuming exactly the words the dump produced.
    /// Returns `None` when the stream is truncated or malformed —
    /// corrupted serialized checkpoints must surface as a clean miss,
    /// not a panic.
    pub fn restore_state(&mut self, words: &mut &[u64]) -> Option<()> {
        if words.len() < 6 {
            return None;
        }
        let stats = ApStats {
            committed_loads: words[0],
            predicted_loads: words[1],
            correct_predictions: words[2],
            predictions_issued: words[3],
            prefetches_proposed: words[4],
        };
        let n_inflight = words[5];
        *words = &words[6..];
        if words.len() < 2 * n_inflight as usize {
            return None;
        }
        let mut inflight = HashMap::new();
        for chunk in words[..2 * n_inflight as usize].chunks_exact(2) {
            let count = u32::try_from(chunk[1]).ok()?;
            if count == 0 || inflight.insert(chunk[0], count).is_some() {
                return None; // zero counts and duplicate PCs never occur
            }
        }
        *words = &words[2 * n_inflight as usize..];
        self.table.restore_state(words)?;
        self.stats = stats;
        self.inflight = inflight;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained(ap: &mut AddressPredictor, pc: u64, base: u64, stride: u64, n: u64) {
        for i in 0..n {
            ap.train_at_commit(pc, base + i * stride);
        }
    }

    #[test]
    fn disabled_ap_never_predicts() {
        let mut ap = AddressPredictor::new(DoppelgangerConfig::default(), false);
        trained(&mut ap, 0x10, 0x1000, 8, 8);
        assert_eq!(ap.predict_at_decode(0x10), None);
        // ...but prefetching still works.
        assert!(ap.prefetch_candidate(0x10, 0x1040).is_some());
    }

    #[test]
    fn disabled_prefetch_proposes_nothing() {
        let cfg = DoppelgangerConfig {
            prefetch: false,
            ..DoppelgangerConfig::default()
        };
        let mut ap = AddressPredictor::new(cfg, true);
        trained(&mut ap, 0x10, 0x1000, 8, 8);
        assert_eq!(ap.prefetch_candidate(0x10, 0x1040), None);
        assert!(ap.predict_at_decode(0x10).is_some());
    }

    #[test]
    fn coverage_and_accuracy_accounting() {
        let mut ap = AddressPredictor::new(DoppelgangerConfig::default(), true);
        // 4 committed loads: 2 predicted, 1 correct.
        ap.train_at_commit(0x10, 0x100);
        ap.note_commit_outcome(false, false);
        ap.train_at_commit(0x10, 0x108);
        ap.note_commit_outcome(false, false);
        ap.train_at_commit(0x10, 0x110);
        ap.note_commit_outcome(true, true);
        ap.train_at_commit(0x10, 0x118);
        ap.note_commit_outcome(true, false);
        let s = ap.stats();
        assert_eq!(s.committed_loads, 4);
        assert!((s.coverage() - 0.5).abs() < 1e-12);
        assert!((s.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let s = ApStats::default();
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.accuracy(), 0.0);
    }

    #[test]
    fn predictions_issued_counts_only_hits() {
        let mut ap = AddressPredictor::new(DoppelgangerConfig::default(), true);
        assert_eq!(ap.predict_at_decode(0x77), None);
        assert_eq!(ap.stats().predictions_issued, 0);
        trained(&mut ap, 0x77, 0x2000, 16, 5);
        assert!(ap.predict_at_decode(0x77).is_some());
        assert_eq!(ap.stats().predictions_issued, 1);
    }

    #[test]
    fn display_contains_percentages() {
        let s = ApStats {
            committed_loads: 10,
            predicted_loads: 5,
            correct_predictions: 4,
            ..ApStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("50.0%"));
        assert!(text.contains("80.0%"));
    }
}
