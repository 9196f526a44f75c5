//! Branch direction and target prediction.
//!
//! A classic gshare predictor: the program counter is xor-folded with a
//! global history register to index a table of 2-bit saturating counters.
//! A direct-mapped branch target buffer (BTB) predicts targets of indirect
//! jumps. Direction/target tables are updated **at commit only** — a
//! security requirement shared by all the schemes in the paper (predictor
//! state must never be a function of speculative data). The speculative
//! history register, which only encodes *predicted* directions, is
//! checkpointed at each prediction and restored on squash.

use std::fmt;

/// Initial gshare counter value: weakly not-taken.
const COUNTER_INIT: u8 = 1;

/// log2 of the entries per [`DirtyBlocks`] block.
const BLOCK_SHIFT: u32 = 6;

/// One bit per block of `1 << BLOCK_SHIFT` table entries, set when an
/// entry of the block is written: what a reset must rewrite.
#[derive(Debug, Clone)]
struct DirtyBlocks {
    words: Vec<u64>,
}

impl DirtyBlocks {
    /// All clean, for a table of `len` entries.
    fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64 << BLOCK_SHIFT)],
        }
    }

    /// Entry `i` is about to be written.
    #[inline]
    fn mark(&mut self, i: usize) {
        let block = i >> BLOCK_SHIFT;
        self.words[block / 64] |= 1 << (block % 64);
    }

    /// Every entry was (or may have been) written.
    fn mark_all(&mut self) {
        self.words.fill(u64::MAX);
    }

    /// Writes `fresh` over every dirty block of `table`, leaving all
    /// blocks clean.
    fn reset<T: Clone>(&mut self, table: &mut [T], fresh: T) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let block = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let start = (block << BLOCK_SHIFT).min(table.len());
                let end = ((block + 1) << BLOCK_SHIFT).min(table.len());
                table[start..end].fill(fresh.clone());
            }
        }
    }
}

/// Configuration for [`BranchPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchPredictorConfig {
    /// log2 of the number of 2-bit counters in the gshare table.
    pub gshare_bits: u32,
    /// Number of global-history bits folded into the index.
    pub history_bits: u32,
    /// log2 of the number of BTB entries.
    pub btb_bits: u32,
}

impl Default for BranchPredictorConfig {
    fn default() -> Self {
        Self {
            gshare_bits: 14,
            history_bits: 12,
            btb_bits: 12,
        }
    }
}

/// A single branch prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction for conditional branches (`true` = taken).
    pub taken: bool,
    /// Predicted target instruction index for indirect jumps, if the BTB
    /// has one.
    pub target: Option<usize>,
    /// History checkpoint to restore on a squash of this branch.
    pub history_checkpoint: u64,
}

/// gshare + BTB branch predictor with commit-time training.
///
/// # Examples
///
/// ```
/// use dgl_predictor::{BranchPredictor, BranchPredictorConfig};
///
/// let mut bp = BranchPredictor::new(BranchPredictorConfig::default());
/// // Train a strongly-taken branch at commit...
/// for _ in 0..4 {
///     bp.train(0x40, true, Some(7));
/// }
/// // ...and it predicts taken afterwards.
/// let p = bp.predict(0x40);
/// assert!(p.taken);
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    cfg: BranchPredictorConfig,
    counters: Vec<u8>,
    btb: Vec<Option<(u64, usize)>>,
    /// Blocks of `counters` and `btb` written since the last reset, so
    /// [`reset`](Self::reset) rewrites only those.
    dirty_counters: DirtyBlocks,
    dirty_btb: DirtyBlocks,
    /// Speculative history: shifted at predict time with the prediction.
    spec_history: u64,
    /// Architectural history: shifted at commit time with the outcome.
    commit_history: u64,
    predictions: u64,
    mispredictions: u64,
}

impl BranchPredictor {
    /// Creates a predictor with all counters weakly not-taken.
    pub fn new(cfg: BranchPredictorConfig) -> Self {
        // The tables are allocated fresh and all blocks clean, so
        // `reset` leaves them alone; the other values here only fill
        // the struct, and `reset` sets them.
        let mut bp = Self {
            cfg,
            counters: vec![COUNTER_INIT; 1 << cfg.gshare_bits],
            btb: vec![None; 1 << cfg.btb_bits],
            dirty_counters: DirtyBlocks::new(1 << cfg.gshare_bits),
            dirty_btb: DirtyBlocks::new(1 << cfg.btb_bits),
            spec_history: 0,
            commit_history: 0,
            predictions: 0,
            mispredictions: 0,
        };
        bp.reset();
        bp
    }

    /// Returns the predictor to the state [`new`](Self::new) builds,
    /// keeping its tables: only the blocks written since the last
    /// reset are rewritten, so the cost follows what the last run
    /// trained, not the table size.
    pub fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self {
            cfg: _,
            counters,
            btb,
            dirty_counters,
            dirty_btb,
            spec_history,
            commit_history,
            predictions,
            mispredictions,
        } = self;
        dirty_counters.reset(counters, COUNTER_INIT);
        dirty_btb.reset(btb, None);
        *spec_history = 0;
        *commit_history = 0;
        *predictions = 0;
        *mispredictions = 0;
    }

    fn index(&self, pc: u64, history: u64) -> usize {
        let mask = (1u64 << self.cfg.gshare_bits) - 1;
        let hist_mask = (1u64 << self.cfg.history_bits) - 1;
        (((pc >> 2) ^ (history & hist_mask)) & mask) as usize
    }

    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1u64 << self.cfg.btb_bits) - 1)) as usize
    }

    /// Predicts a branch at fetch time using speculative history. The
    /// returned checkpoint must be kept so a squash of this branch can
    /// [`restore_history`](Self::restore_history).
    pub fn predict(&mut self, pc: u64) -> Prediction {
        let checkpoint = self.spec_history;
        let idx = self.index(pc, self.spec_history);
        let taken = self.counters[idx] >= 2;
        self.spec_history = (self.spec_history << 1) | u64::from(taken);
        self.predictions += 1;
        let target = self.btb[self.btb_index(pc)].and_then(|(tag, t)| (tag == pc).then_some(t));
        Prediction {
            taken,
            target,
            history_checkpoint: checkpoint,
        }
    }

    /// Predicts an *unconditionally taken* control transfer (indirect
    /// jump or return): shifts speculative history with `taken = true`
    /// so it stays consistent with commit-time training, and returns
    /// any BTB target.
    pub fn predict_unconditional(&mut self, pc: u64) -> Prediction {
        let checkpoint = self.spec_history;
        self.spec_history = (self.spec_history << 1) | 1;
        self.predictions += 1;
        let target = self.btb[self.btb_index(pc)].and_then(|(tag, t)| (tag == pc).then_some(t));
        Prediction {
            taken: true,
            target,
            history_checkpoint: checkpoint,
        }
    }

    /// Restores speculative history after squashing a mispredicted
    /// branch, then shifts in the now-known outcome.
    pub fn restore_history(&mut self, checkpoint: u64, actual_taken: bool) {
        self.spec_history = (checkpoint << 1) | u64::from(actual_taken);
    }

    /// Trains the predictor at commit with the architectural outcome.
    /// `target` supplies the BTB entry for taken control flow.
    pub fn train(&mut self, pc: u64, taken: bool, target: Option<usize>) {
        let idx = self.index(pc, self.commit_history);
        self.dirty_counters.mark(idx);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.commit_history = (self.commit_history << 1) | u64::from(taken);
        if let (true, Some(t)) = (taken, target) {
            let idx = self.btb_index(pc);
            self.dirty_btb.mark(idx);
            self.btb[idx] = Some((pc, t));
        }
    }

    /// Records a misprediction (for statistics).
    pub fn note_mispredict(&mut self) {
        self.mispredictions += 1;
    }

    /// `(predictions, mispredictions)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }

    /// Zeroes the prediction counters while keeping the trained
    /// counters, BTB, and history registers (sampled-simulation warmup
    /// boundary).
    pub fn reset_stats(&mut self) {
        self.predictions = 0;
        self.mispredictions = 0;
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> BranchPredictorConfig {
        self.cfg
    }

    /// Appends a canonical flat-word dump of the predictor state —
    /// history registers, statistics, the 2-bit counter table packed
    /// eight counters per word, and each BTB slot — to `out`. Restoring
    /// via [`restore_state`](Self::restore_state) into a predictor of
    /// the same geometry reproduces the trained state exactly.
    pub fn dump_state(&self, out: &mut Vec<u64>) {
        out.push(self.spec_history);
        out.push(self.commit_history);
        out.push(self.predictions);
        out.push(self.mispredictions);
        for chunk in self.counters.chunks(8) {
            let mut word = 0u64;
            for (i, &c) in chunk.iter().enumerate() {
                word |= (c as u64) << (8 * i);
            }
            out.push(word);
        }
        for slot in &self.btb {
            match slot {
                Some((pc, target)) => {
                    out.push(1);
                    out.push(*pc);
                    out.push(*target as u64);
                }
                None => out.push(0),
            }
        }
    }

    /// Restores state dumped by [`dump_state`](Self::dump_state) into
    /// this predictor, consuming exactly the words the dump produced.
    /// Returns `None` when the stream is truncated or holds an invalid
    /// counter or BTB slot encoding — corrupted serialized checkpoints
    /// must surface as a clean miss, not a panic.
    pub fn restore_state(&mut self, words: &mut &[u64]) -> Option<()> {
        let counter_words = self.counters.len().div_ceil(8);
        if words.len() < 4 + counter_words {
            return None;
        }
        let spec_history = words[0];
        let commit_history = words[1];
        let predictions = words[2];
        let mispredictions = words[3];
        *words = &words[4..];
        let mut counters = Vec::with_capacity(self.counters.len());
        for &word in &words[..counter_words] {
            for i in 0..8 {
                if counters.len() == self.counters.len() {
                    if (word >> (8 * i)) != 0 {
                        return None; // padding lanes must be zero
                    }
                    continue;
                }
                let c = (word >> (8 * i)) as u8;
                if c > 3 {
                    return None; // 2-bit saturating counter range
                }
                counters.push(c);
            }
        }
        *words = &words[counter_words..];
        let mut btb = Vec::with_capacity(self.btb.len());
        for _ in 0..self.btb.len() {
            let (&present, rest) = words.split_first()?;
            *words = rest;
            match present {
                0 => btb.push(None),
                1 => {
                    if words.len() < 2 {
                        return None;
                    }
                    btb.push(Some((words[0], words[1] as usize)));
                    *words = &words[2..];
                }
                _ => return None,
            }
        }
        self.spec_history = spec_history;
        self.commit_history = commit_history;
        self.predictions = predictions;
        self.mispredictions = mispredictions;
        self.counters = counters;
        self.btb = btb;
        self.dirty_counters.mark_all();
        self.dirty_btb.mark_all();
        Some(())
    }
}

impl fmt::Display for BranchPredictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (p, m) = self.stats();
        write!(
            f,
            "gshare[{} entries] {p} predictions, {m} mispredicts",
            self.counters.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(BranchPredictorConfig::default())
    }

    #[test]
    fn learns_biased_branch() {
        let mut bp = predictor();
        for _ in 0..8 {
            bp.train(0x10, true, None);
        }
        assert!(bp.predict(0x10).taken);
    }

    #[test]
    fn learns_not_taken() {
        let mut bp = predictor();
        for _ in 0..8 {
            bp.train(0x10, false, None);
        }
        assert!(!bp.predict(0x10).taken);
    }

    #[test]
    fn initial_prediction_is_not_taken() {
        let mut bp = predictor();
        assert!(!bp.predict(0x44).taken);
    }

    #[test]
    fn btb_predicts_trained_target() {
        let mut bp = predictor();
        assert_eq!(bp.predict(0x20).target, None);
        bp.train(0x20, true, Some(99));
        assert_eq!(bp.predict(0x20).target, Some(99));
    }

    #[test]
    fn btb_tag_mismatch_yields_none() {
        let mut bp = predictor();
        bp.train(0x20, true, Some(99));
        // A different pc mapping to a different btb slot (or tag) misses.
        assert_eq!(bp.predict(0x24).target, None);
    }

    #[test]
    fn history_checkpoint_round_trip() {
        let mut bp = predictor();
        let p1 = bp.predict(0x10);
        let _p2 = bp.predict(0x14);
        // Squash back to the first branch; it was actually taken.
        bp.restore_history(p1.history_checkpoint, true);
        assert_eq!(bp.spec_history & 1, 1);
    }

    #[test]
    fn learns_alternating_pattern_with_history() {
        // taken, not-taken alternation is learnable with history bits.
        let mut bp = predictor();
        let pc = 0x80;
        let mut outcome = false;
        for _ in 0..256 {
            bp.train(pc, outcome, None);
            outcome = !outcome;
        }
        // After training, prediction accuracy on the same alternation
        // should be high: simulate commit-synchronous prediction.
        let mut correct = 0;
        for _ in 0..64 {
            let p = bp.predict(pc);
            // Keep speculative and commit history in sync for this test.
            bp.restore_history(p.history_checkpoint, outcome);
            if p.taken == outcome {
                correct += 1;
            }
            bp.train(pc, outcome, None);
            outcome = !outcome;
        }
        assert!(correct >= 56, "correct = {correct}");
    }

    #[test]
    fn stats_track_predictions() {
        let mut bp = predictor();
        bp.predict(0);
        bp.predict(4);
        bp.note_mispredict();
        assert_eq!(bp.stats(), (2, 1));
    }

    #[test]
    fn display_is_nonempty() {
        let bp = predictor();
        assert!(!bp.to_string().is_empty());
    }

    #[test]
    fn dump_restore_round_trips_trained_state() {
        let mut a = predictor();
        for i in 0..64u64 {
            a.train(i * 4, i % 3 == 0, (i % 3 == 0).then_some(i as usize));
        }
        a.predict(0x40);
        a.note_mispredict();
        let mut words = Vec::new();
        a.dump_state(&mut words);
        let mut b = predictor();
        let mut slice = words.as_slice();
        b.restore_state(&mut slice).expect("geometry matches");
        assert!(slice.is_empty(), "restore consumes exactly the dump");
        assert_eq!(b.stats(), a.stats());
        // Same trained state: identical predictions afterwards.
        for pc in (0..256).step_by(4) {
            assert_eq!(a.predict(pc), b.predict(pc));
        }
    }

    #[test]
    fn reset_matches_a_fresh_predictor() {
        let fresh = predictor();
        let mut a = predictor();
        for i in 0..4096u64 {
            a.train(i * 36, i % 3 != 0, Some(i as usize));
            a.predict(i * 4);
        }
        a.note_mispredict();
        a.reset();
        let (mut x, mut y) = (Vec::new(), Vec::new());
        a.dump_state(&mut x);
        fresh.dump_state(&mut y);
        assert!(x == y, "reset left trained state behind");
        // A restored (wholly rewritten) table resets too.
        let mut words = Vec::new();
        let mut trained = predictor();
        trained.train(0x40, true, Some(3));
        trained.dump_state(&mut words);
        a.restore_state(&mut words.as_slice()).unwrap();
        a.reset();
        x.clear();
        a.dump_state(&mut x);
        assert!(x == y, "reset after restore left state behind");
    }

    #[test]
    fn restore_rejects_bad_counter_and_truncation() {
        let mut a = predictor();
        a.train(0x10, true, None);
        let mut words = Vec::new();
        a.dump_state(&mut words);
        let mut truncated = &words[..words.len() - 1];
        assert!(predictor().restore_state(&mut truncated).is_none());
        words[4] = 0xff; // counter lane out of 2-bit range
        let mut slice = words.as_slice();
        assert!(predictor().restore_state(&mut slice).is_none());
    }
}
