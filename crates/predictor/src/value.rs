//! Load **value** prediction — the prior approach Doppelganger Loads is
//! motivated against.
//!
//! DoM's original paper proposed hiding delayed-miss latency with value
//! prediction, but (paper §2.3) "it was not so successful in terms of
//! accuracy and coverage, even with state-of-the-art VTAGE value
//! predictors, and because it had to be validated in-order it did not
//! yield significant improvement in MLP." This module implements a
//! last-value + value-stride hybrid so the reproduction can *measure*
//! that claim (`dgl figures --fig vp`).
//!
//! Like every predictor in this project it is trained **only at
//! commit** (security requirement) and uses full-PC tags.

use std::fmt;

/// Configuration for [`ValuePredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValuePredictorConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Confidence threshold to predict (values are harder to predict
    /// than addresses, so the default is stricter than the stride
    /// table's).
    pub confidence_threshold: u8,
    /// Confidence ceiling.
    pub max_confidence: u8,
}

impl Default for ValuePredictorConfig {
    fn default() -> Self {
        Self {
            entries: 1024,
            ways: 8,
            confidence_threshold: 3,
            max_confidence: 7,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct VpEntry {
    tag: u64,
    last_value: i64,
    stride: i64,
    confidence: u8,
    lru: u64,
}

/// Prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VpStats {
    /// Committed loads observed.
    pub committed_loads: u64,
    /// Committed loads that carried a value prediction.
    pub predicted_loads: u64,
    /// Committed predicted loads whose value matched.
    pub correct_predictions: u64,
}

impl VpStats {
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
    /// gauges) into `reg` under `vp.*` names. One-way copy taken after
    /// a run; never read back by the simulator.
    pub fn publish(&self, reg: &mut dgl_stats::MetricsRegistry) {
        reg.counter("vp.committed_loads", self.committed_loads);
        reg.counter("vp.predicted_loads", self.predicted_loads);
        reg.counter("vp.correct_predictions", self.correct_predictions);
        reg.gauge("vp.coverage", self.coverage());
        reg.gauge("vp.accuracy", self.accuracy());
    }
}

/// Last-value + value-stride hybrid predictor.
///
/// # Examples
///
/// ```
/// use dgl_predictor::{ValuePredictor, ValuePredictorConfig};
///
/// let mut vp = ValuePredictor::new(ValuePredictorConfig::default());
/// for v in [10, 10, 10, 10] {
///     vp.train(0x40, v); // a constant load value
/// }
/// assert_eq!(vp.predict(0x40), Some(10));
/// ```
#[derive(Debug, Clone)]
pub struct ValuePredictor {
    cfg: ValuePredictorConfig,
    sets: Vec<Vec<VpEntry>>,
    tick: u64,
    stats: VpStats,
    /// Dispatched-but-uncommitted instances per PC, mirroring the
    /// address predictor's in-flight compensation: with a 352-entry
    /// window the current instance is `last_committed + stride ×
    /// (in-flight + 1)`. Giving value prediction the same correction
    /// keeps the VP-vs-AP comparison fair.
    inflight: std::collections::HashMap<u64, u32>,
}

impl ValuePredictor {
    /// Creates an empty predictor.
    pub fn new(cfg: ValuePredictorConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.entries >= cfg.ways);
        Self {
            cfg,
            sets: vec![Vec::with_capacity(cfg.ways); (cfg.entries / cfg.ways).max(1)],
            tick: 0,
            stats: VpStats::default(),
            inflight: std::collections::HashMap::new(),
        }
    }

    fn set_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.sets.len()
    }

    /// Predicts the value of the *current* instance of the load at
    /// `pc`, compensating for in-flight instances (see the field docs).
    /// Call once per dispatched load (even when it returns `None`) and
    /// balance every call with [`train`](Self::train) at commit or
    /// [`note_squash`](Self::note_squash).
    pub fn predict(&mut self, pc: u64) -> Option<i64> {
        let older = *self.inflight.get(&pc).unwrap_or(&0);
        *self.inflight.entry(pc).or_insert(0) += 1;
        let e = self.sets[self.set_index(pc)].iter().find(|e| e.tag == pc)?;
        if e.confidence >= self.cfg.confidence_threshold {
            Some(
                e.last_value
                    .wrapping_add(e.stride.wrapping_mul(older as i64 + 1)),
            )
        } else {
            None
        }
    }

    /// Releases the in-flight slot of a squashed load instance.
    pub fn note_squash(&mut self, pc: u64) {
        if let Some(n) = self.inflight.get_mut(&pc) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.inflight.remove(&pc);
            }
        }
    }

    /// Accounts the outcome of a committed load's dispatch-time
    /// prediction (coverage/accuracy for the VP-vs-AP comparison).
    pub fn note_commit_outcome(&mut self, was_predicted: bool, was_correct: bool) {
        if was_predicted {
            self.stats.predicted_loads += 1;
            if was_correct {
                self.stats.correct_predictions += 1;
            }
        }
    }

    /// Trains with a **committed** load's value.
    pub fn train(&mut self, pc: u64, value: i64) {
        self.stats.committed_loads += 1;
        if let Some(n) = self.inflight.get_mut(&pc) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.inflight.remove(&pc);
            }
        }
        self.tick += 1;
        let tick = self.tick;
        let cfg = self.cfg;
        let idx = self.set_index(pc);
        let set = &mut self.sets[idx];
        if let Some(e) = set.iter_mut().find(|e| e.tag == pc) {
            let new_stride = value.wrapping_sub(e.last_value);
            if new_stride == e.stride {
                e.confidence = (e.confidence + 1).min(cfg.max_confidence);
            } else {
                e.confidence = 0;
                e.stride = new_stride;
            }
            e.last_value = value;
            e.lru = tick;
            return;
        }
        let fresh = VpEntry {
            tag: pc,
            last_value: value,
            stride: 0,
            confidence: 0,
            lru: tick,
        };
        if set.len() < cfg.ways {
            set.push(fresh);
        } else if let Some(v) = set.iter_mut().min_by_key(|e| e.lru) {
            *v = fresh;
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> VpStats {
        self.stats
    }

    /// Zeroes the statistics while keeping every trained entry
    /// (sampled-simulation warmup boundary).
    pub fn reset_stats(&mut self) {
        self.stats = VpStats::default();
    }
}

impl fmt::Display for ValuePredictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value predictor: cov {:.1}% acc {:.1}%",
            100.0 * self.stats.coverage(),
            100.0 * self.stats.accuracy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp() -> ValuePredictor {
        ValuePredictor::new(ValuePredictorConfig::default())
    }

    #[test]
    fn constant_values_predict() {
        let mut v = vp();
        for _ in 0..5 {
            v.train(4, 42);
        }
        assert_eq!(v.predict(4), Some(42));
        v.note_squash(4);
    }

    #[test]
    fn inflight_compensation_advances_strided_values() {
        let mut v = vp();
        for i in 0..6 {
            v.train(4, 100 + 10 * i);
        }
        // Three in-flight instances: each sees one more stride.
        assert_eq!(v.predict(4), Some(160));
        assert_eq!(v.predict(4), Some(170));
        assert_eq!(v.predict(4), Some(180));
        // A squash releases the youngest slot.
        v.note_squash(4);
        assert_eq!(v.predict(4), Some(180));
    }

    #[test]
    fn strided_values_predict() {
        let mut v = vp();
        for i in 0..6 {
            v.train(4, 100 + 10 * i);
        }
        assert_eq!(v.predict(4), Some(160));
    }

    #[test]
    fn random_values_do_not_predict() {
        let mut v = vp();
        for x in [3, 99, -7, 1234, 8, 0] {
            v.train(4, x);
        }
        assert_eq!(v.predict(4), None);
    }

    #[test]
    fn change_resets_confidence() {
        let mut v = vp();
        for _ in 0..5 {
            v.train(4, 1);
        }
        v.train(4, 500);
        assert_eq!(v.predict(4), None);
    }

    #[test]
    fn coverage_accuracy_accounting() {
        let mut v = vp();
        for _ in 0..10 {
            v.train(4, 7);
        }
        v.note_commit_outcome(true, true);
        v.note_commit_outcome(true, false);
        v.note_commit_outcome(false, false);
        let s = v.stats();
        assert_eq!(s.committed_loads, 10);
        assert_eq!(s.predicted_loads, 2);
        assert_eq!(s.correct_predictions, 1);
        assert!((s.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn full_pc_tags_do_not_alias() {
        let mut v = ValuePredictor::new(ValuePredictorConfig {
            entries: 4,
            ways: 1,
            ..ValuePredictorConfig::default()
        });
        for _ in 0..5 {
            v.train(0x10, 1);
        }
        // Same set, different pc: evicts rather than corrupting.
        v.train(0x10 + 4 * 4, 999);
        assert_eq!(v.predict(0x10), None);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = VpStats::default();
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.accuracy(), 0.0);
    }
}
