//! The PC-indexed stride table shared by the prefetcher and the
//! doppelganger address predictor.
//!
//! The paper's key cost argument (§5.1) is that the address predictor
//! comes "for free" as a modified stride prefetcher: the same
//! set-associative, PC-tagged structure serves both. In *prefetching
//! mode* the table predicts a future instance (`addr + stride`) when a
//! load executes; in *address-prediction mode* it predicts the current
//! instance (`last + stride`) at decode, before the address operands are
//! even ready.
//!
//! Security properties (paper §5):
//!
//! * trained **strictly on committed loads** — the pipeline only calls
//!   [`StrideTable::train`] at commit, and a debug assertion guards the
//!   training-order invariant;
//! * **full-PC tags** prevent aliasing between different loads, so one
//!   PC's (secret-independent) history can never leak into another's
//!   prediction.

use std::fmt;

/// Configuration for a [`StrideTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideTableConfig {
    /// Total number of entries (Table 1: 1024).
    pub entries: usize,
    /// Associativity (Table 1: 8-way).
    pub ways: usize,
    /// Confidence threshold at/above which predictions are made.
    pub confidence_threshold: u8,
    /// Saturation ceiling for confidence.
    pub max_confidence: u8,
    /// Prefetch look-ahead in strides: `prefetch_candidate` proposes
    /// `resolved + stride * prefetch_distance`, reaching past the large
    /// out-of-order window that would otherwise cover the next instance
    /// already.
    pub prefetch_distance: i64,
    /// Two-delta update policy (the paper's conclusion leaves "a more
    /// advanced address predictor" as future work; this is the classic
    /// first step): the working stride only changes after the same new
    /// delta is observed twice, so a single irregular access — an
    /// `xalancbmk`-style run break — does not poison a stable stride.
    pub two_delta: bool,
}

impl Default for StrideTableConfig {
    fn default() -> Self {
        Self {
            entries: 1024,
            ways: 8,
            confidence_threshold: 2,
            max_confidence: 7,
            prefetch_distance: 2,
            two_delta: false,
        }
    }
}

impl StrideTableConfig {
    /// Hardware width of the full-PC tag (paper §5.1).
    pub const TAG_BITS: usize = 48;
    /// Hardware width of the last-address field.
    pub const ADDR_BITS: usize = 48;
    /// Hardware width of a stride field.
    pub const STRIDE_BITS: usize = 10;

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.entries / self.ways).max(1)
    }

    /// The configuration whose hardware budget Table 1 quotes: the
    /// default table with confidence saturating at 3, so the counter
    /// fits the table's 2 bits of confidence/LRU — 108 bits/entry,
    /// 13.5 KiB at 1024 entries. The simulator's [`Default`] keeps a
    /// deeper 3-bit counter (`max_confidence: 7`), which
    /// [`storage_bits`](Self::storage_bits) accounts honestly.
    pub fn paper() -> Self {
        Self {
            max_confidence: 3,
            ..Self::default()
        }
    }

    /// Bits needed for the saturating confidence counter. Per the
    /// paper's joint "confidence/LRU" budget, replacement state shares
    /// these bits (the simulator's 64-bit LRU tick is a convenience,
    /// not a hardware cost).
    pub fn confidence_bits(&self) -> usize {
        (u8::BITS - self.max_confidence.leading_zeros()).max(1) as usize
    }

    /// Storage bits per entry, derived from the configured fields: a
    /// 48-bit full-PC tag, 48-bit last address, 10-bit stride, the
    /// confidence/LRU counter sized by
    /// [`confidence_bits`](Self::confidence_bits), and — in two-delta
    /// mode — a second 10-bit field for the pending stride.
    pub fn entry_bits(&self) -> usize {
        let pending = if self.two_delta { Self::STRIDE_BITS } else { 0 };
        Self::TAG_BITS + Self::ADDR_BITS + Self::STRIDE_BITS + self.confidence_bits() + pending
    }

    /// Total storage in bits: `entries × entry_bits()`. For
    /// [`paper`](Self::paper) this is the 13.5 KiB of Table 1.
    pub fn storage_bits(&self) -> usize {
        self.entries * self.entry_bits()
    }
}

/// One stride-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideEntry {
    /// Full PC tag (paper: full tags to prevent aliasing).
    pub tag: u64,
    /// Address of the most recent committed instance.
    pub last_addr: u64,
    /// The working (confirmed) stride.
    pub stride: i64,
    /// Saturating confidence in the stride.
    pub confidence: u8,
    /// Two-delta mode: the candidate stride awaiting confirmation.
    pub pending_stride: i64,
    lru: u64,
}

/// Set-associative, PC-tagged stride table.
///
/// # Examples
///
/// ```
/// use dgl_predictor::{StrideTable, StrideTableConfig};
///
/// let mut t = StrideTable::new(StrideTableConfig::default());
/// for i in 0..4 {
///     t.train(0x100, 0x8000 + i * 8); // commit-time training
/// }
/// // Address-prediction mode: next instance of this load.
/// assert_eq!(t.predict_current(0x100), Some(0x8020));
/// // Prefetching mode: a few strides past a just-resolved access.
/// let distance = t.config().prefetch_distance as u64;
/// assert_eq!(t.prefetch_candidate(0x100, 0x8020), Some(0x8020 + 8 * distance));
/// ```
#[derive(Debug, Clone)]
pub struct StrideTable {
    cfg: StrideTableConfig,
    sets: Vec<Vec<StrideEntry>>,
    tick: u64,
    trains: u64,
    hits: u64,
}

impl StrideTable {
    /// Creates an empty table.
    pub fn new(cfg: StrideTableConfig) -> Self {
        assert!(cfg.ways > 0, "stride table needs at least one way");
        assert!(
            cfg.entries >= cfg.ways,
            "entries must be at least the associativity"
        );
        // Values here only fill the struct: `reset` sets the state.
        let mut table = Self {
            cfg,
            sets: vec![Vec::with_capacity(cfg.ways); cfg.sets()],
            tick: 0,
            trains: 0,
            hits: 0,
        };
        table.reset();
        table
    }

    /// Empties the table and zeroes its counters, the state
    /// [`new`](Self::new) builds, keeping each set's allocation.
    pub fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self {
            cfg: _,
            sets,
            tick,
            trains,
            hits,
        } = self;
        for set in sets {
            set.clear();
        }
        *tick = 0;
        *trains = 0;
        *hits = 0;
    }

    /// The configuration.
    pub fn config(&self) -> StrideTableConfig {
        self.cfg
    }

    fn set_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.sets.len()
    }

    /// Looks up the entry for `pc` without modifying replacement state.
    pub fn peek(&self, pc: u64) -> Option<&StrideEntry> {
        self.sets[self.set_index(pc)].iter().find(|e| e.tag == pc)
    }

    /// Trains the table with a **committed** load's PC and address.
    ///
    /// Call this only from the commit stage: the security argument of the
    /// paper requires that predictor state is a function of architectural
    /// (non-speculative) execution only.
    pub fn train(&mut self, pc: u64, addr: u64) {
        self.tick += 1;
        self.trains += 1;
        let set_idx = self.set_index(pc);
        let tick = self.tick;
        let cfg = self.cfg;
        let set = &mut self.sets[set_idx];
        if let Some(entry) = set.iter_mut().find(|e| e.tag == pc) {
            let new_stride = addr.wrapping_sub(entry.last_addr) as i64;
            if new_stride == entry.stride {
                entry.confidence = (entry.confidence + 1).min(cfg.max_confidence);
            } else if cfg.two_delta {
                // Two-delta: adopt a new stride only when the same delta
                // repeats; a lone irregular access just dents confidence.
                if new_stride == entry.pending_stride {
                    entry.stride = new_stride;
                    entry.confidence = 1;
                } else {
                    entry.pending_stride = new_stride;
                    if entry.confidence > 0 {
                        entry.confidence /= 2;
                    }
                }
            } else {
                // One mismatch halves trust; a changed stride restarts it.
                if entry.confidence > 0 {
                    entry.confidence /= 2;
                }
                entry.stride = new_stride;
            }
            entry.last_addr = addr;
            entry.lru = tick;
            return;
        }
        let fresh = StrideEntry {
            tag: pc,
            last_addr: addr,
            stride: 0,
            confidence: 0,
            pending_stride: 0,
            lru: tick,
        };
        if set.len() < cfg.ways {
            set.push(fresh);
        } else if let Some(victim) = set.iter_mut().min_by_key(|e| e.lru) {
            *victim = fresh;
        }
    }

    /// Address-prediction mode: predicts the address of the *current*
    /// (about-to-execute) instance of the load at `pc`. Returns `None`
    /// when the PC is untracked or confidence is below threshold.
    pub fn predict_current(&mut self, pc: u64) -> Option<u64> {
        let threshold = self.cfg.confidence_threshold;
        let set_idx = self.set_index(pc);
        let entry = self.sets[set_idx].iter().find(|e| e.tag == pc)?;
        if entry.confidence >= threshold {
            self.hits += 1;
            Some(entry.last_addr.wrapping_add(entry.stride as u64))
        } else {
            None
        }
    }

    /// Prefetching mode: given a just-resolved access by `pc` at
    /// `resolved_addr`, proposes the next line to prefetch.
    pub fn prefetch_candidate(&self, pc: u64, resolved_addr: u64) -> Option<u64> {
        let entry = self.peek(pc)?;
        if entry.confidence >= self.cfg.confidence_threshold && entry.stride != 0 {
            let delta = entry.stride.wrapping_mul(self.cfg.prefetch_distance);
            Some(resolved_addr.wrapping_add(delta as u64))
        } else {
            None
        }
    }

    /// `(training events, confident predictions issued)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.trains, self.hits)
    }

    /// Zeroes the event counters while keeping every trained entry
    /// (sampled-simulation warmup boundary).
    pub fn reset_stats(&mut self) {
        self.trains = 0;
        self.hits = 0;
    }

    /// Number of live entries across all sets.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Appends a canonical flat-word dump of the table state — tick,
    /// event counters, and every live entry in set/way order — to
    /// `out`. Signed strides are stored as raw u64 bit patterns so the
    /// round trip is bit-exact. Restoring with
    /// [`restore_state`](Self::restore_state) into a table of the same
    /// geometry reproduces training and replacement state exactly.
    pub fn dump_state(&self, out: &mut Vec<u64>) {
        out.push(self.tick);
        out.push(self.trains);
        out.push(self.hits);
        out.push(self.sets.len() as u64);
        for set in &self.sets {
            out.push(set.len() as u64);
            for e in set {
                out.push(e.tag);
                out.push(e.last_addr);
                out.push(e.stride as u64);
                out.push(e.confidence as u64);
                out.push(e.pending_stride as u64);
                out.push(e.lru);
            }
        }
    }

    /// Restores state dumped by [`dump_state`](Self::dump_state) into
    /// this table, consuming exactly the words the dump produced.
    /// Returns `None` when the stream is truncated, the set count does
    /// not match this table's geometry, a set exceeds the configured
    /// associativity, or a confidence value exceeds the saturation
    /// ceiling — corrupted serialized checkpoints must surface as a
    /// clean miss, not a panic.
    pub fn restore_state(&mut self, words: &mut &[u64]) -> Option<()> {
        if words.len() < 4 {
            return None;
        }
        let tick = words[0];
        let trains = words[1];
        let hits = words[2];
        let n_sets = words[3];
        *words = &words[4..];
        if n_sets as usize != self.sets.len() {
            return None;
        }
        let mut sets = Vec::with_capacity(self.sets.len());
        for _ in 0..n_sets {
            let (&len, rest) = words.split_first()?;
            *words = rest;
            if len as usize > self.cfg.ways || words.len() < 6 * len as usize {
                return None;
            }
            let mut set = Vec::with_capacity(self.cfg.ways);
            for chunk in words[..6 * len as usize].chunks_exact(6) {
                if chunk[3] > self.cfg.max_confidence as u64 {
                    return None;
                }
                set.push(StrideEntry {
                    tag: chunk[0],
                    last_addr: chunk[1],
                    stride: chunk[2] as i64,
                    confidence: chunk[3] as u8,
                    pending_stride: chunk[4] as i64,
                    lru: chunk[5],
                });
            }
            *words = &words[6 * len as usize..];
            sets.push(set);
        }
        self.tick = tick;
        self.trains = trains;
        self.hits = hits;
        self.sets = sets;
        Some(())
    }
}

impl fmt::Display for StrideTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stride table {} entries / {}-way, {} live",
            self.cfg.entries,
            self.cfg.ways,
            self.occupancy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> StrideTable {
        StrideTable::new(StrideTableConfig::default())
    }

    #[test]
    fn storage_matches_table1() {
        let bits = StrideTableConfig::paper().storage_bits();
        let kib = bits as f64 / 8.0 / 1024.0;
        assert!((kib - 13.5).abs() < 1e-9, "storage = {kib} KiB");
    }

    #[test]
    fn storage_accounting_derives_from_config() {
        // The simulator default keeps a 3-bit confidence counter, and
        // the accounting must say so (109 bits/entry, not the paper's
        // 108).
        let default = StrideTableConfig::default();
        assert_eq!(default.confidence_bits(), 3);
        assert_eq!(default.entry_bits(), 48 + 48 + 10 + 3);
        // Two-delta mode stores the pending stride too.
        let two_delta = StrideTableConfig {
            two_delta: true,
            ..StrideTableConfig::paper()
        };
        assert_eq!(two_delta.entry_bits(), 48 + 48 + 10 + 2 + 10);
        assert_eq!(
            two_delta.storage_bits(),
            two_delta.entries * two_delta.entry_bits()
        );
    }

    #[test]
    fn needs_confidence_before_predicting() {
        let mut t = table();
        t.train(0x10, 100);
        assert_eq!(t.predict_current(0x10), None); // one sample: no stride yet
        t.train(0x10, 108);
        assert_eq!(t.predict_current(0x10), None); // stride seen once
        t.train(0x10, 116);
        assert_eq!(t.predict_current(0x10), None); // confidence 1 < 2
        t.train(0x10, 124);
        assert_eq!(t.predict_current(0x10), Some(132));
    }

    #[test]
    fn zero_stride_is_predictable_for_current_instance() {
        // A load that always reads the same address is perfectly
        // predictable in address-prediction mode...
        let mut t = table();
        for _ in 0..5 {
            t.train(0x10, 4096);
        }
        assert_eq!(t.predict_current(0x10), Some(4096));
        // ...but useless to prefetch (candidate suppressed).
        assert_eq!(t.prefetch_candidate(0x10, 4096), None);
    }

    #[test]
    fn stride_change_drops_confidence() {
        let mut t = table();
        for i in 0..6 {
            t.train(0x10, 1000 + i * 8);
        }
        assert!(t.predict_current(0x10).is_some());
        let before = t.peek(0x10).unwrap().confidence;
        t.train(0x10, 5); // wild jump: stride changes, trust halves
        assert!(t.peek(0x10).unwrap().confidence < before);
        t.train(0x10, 100_000); // second change drops below threshold
        assert_eq!(t.predict_current(0x10), None);
    }

    #[test]
    fn full_pc_tags_prevent_aliasing() {
        let cfg = StrideTableConfig {
            entries: 8,
            ways: 1,
            ..StrideTableConfig::default()
        };
        let mut t = StrideTable::new(cfg);
        // Two PCs mapping to the same set with 1 way: the second evicts
        // the first rather than corrupting its stride.
        let pc_a = 0x20;
        let pc_b = pc_a + 4 * 8; // same set (8 sets, pc>>2 % 8)
        for i in 0..4 {
            t.train(pc_a, 100 + i * 8);
        }
        t.train(pc_b, 9999);
        assert!(t.peek(pc_a).is_none(), "evicted, not aliased");
        assert_eq!(t.peek(pc_b).unwrap().last_addr, 9999);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cfg = StrideTableConfig {
            entries: 2,
            ways: 2,
            ..StrideTableConfig::default()
        };
        let mut t = StrideTable::new(cfg);
        t.train(4, 1);
        t.train(8, 2);
        t.train(4, 3); // refresh pc=4
        t.train(12, 4); // evicts pc=8
        assert!(t.peek(4).is_some());
        assert!(t.peek(8).is_none());
        assert!(t.peek(12).is_some());
    }

    #[test]
    fn negative_strides() {
        let mut t = table();
        for i in 0..5i64 {
            t.train(0x30, (10_000 - i * 16) as u64);
        }
        assert_eq!(t.predict_current(0x30), Some(10_000 - 5 * 16));
    }

    #[test]
    fn prefetch_candidate_uses_resolved_address() {
        let mut t = table();
        for i in 0..5 {
            t.train(0x40, 2000 + i * 64);
        }
        let dist = t.config().prefetch_distance as u64;
        assert_eq!(t.prefetch_candidate(0x40, 4096), Some(4096 + 64 * dist));
    }

    #[test]
    fn occupancy_and_stats() {
        let mut t = table();
        t.train(4, 1);
        t.train(8, 1);
        assert_eq!(t.occupancy(), 2);
        let (trains, hits) = t.stats();
        assert_eq!(trains, 2);
        assert_eq!(hits, 0);
    }

    #[test]
    fn two_delta_survives_a_lone_break() {
        let cfg = StrideTableConfig {
            two_delta: true,
            ..StrideTableConfig::default()
        };
        let mut t = StrideTable::new(cfg);
        for i in 0..6 {
            t.train(0x10, 1000 + i * 8);
        }
        let stride_before = t.peek(0x10).unwrap().stride;
        t.train(0x10, 50_000); // one irregular access (run break)
        assert_eq!(
            t.peek(0x10).unwrap().stride,
            stride_before,
            "a single break must not poison the stride"
        );
        // Resuming the old rhythm rebuilds confidence quickly.
        t.train(0x10, 50_008);
        t.train(0x10, 50_016);
        t.train(0x10, 50_024);
        assert_eq!(t.predict_current(0x10), Some(50_032));
    }

    #[test]
    fn two_delta_adopts_a_repeated_new_stride() {
        let cfg = StrideTableConfig {
            two_delta: true,
            ..StrideTableConfig::default()
        };
        let mut t = StrideTable::new(cfg);
        for i in 0..5 {
            t.train(0x10, 1000 + i * 8);
        }
        // Switch to stride 64, seen twice: adopted.
        t.train(0x10, 2000);
        t.train(0x10, 2064);
        t.train(0x10, 2128);
        assert_eq!(t.peek(0x10).unwrap().stride, 64);
    }

    #[test]
    fn dump_restore_round_trips_trained_state() {
        let mut a = table();
        for i in 0..12u64 {
            a.train(0x10 + (i % 3) * 4, 1000 + i * 8);
        }
        let _ = a.predict_current(0x10);
        let mut words = Vec::new();
        a.dump_state(&mut words);
        let mut b = table();
        let mut slice = words.as_slice();
        b.restore_state(&mut slice).expect("geometry matches");
        assert!(slice.is_empty(), "restore consumes exactly the dump");
        assert_eq!(b.stats(), a.stats());
        assert_eq!(b.occupancy(), a.occupancy());
        for pc in [0x10, 0x14, 0x18] {
            assert_eq!(a.predict_current(pc), b.predict_current(pc));
            assert_eq!(a.peek(pc), b.peek(pc));
        }
    }

    #[test]
    fn restore_rejects_bad_confidence_and_truncation() {
        let mut a = table();
        for i in 0..4 {
            a.train(0x10, 1000 + i * 8);
        }
        let mut words = Vec::new();
        a.dump_state(&mut words);
        let mut truncated = &words[..words.len() - 1];
        assert!(table().restore_state(&mut truncated).is_none());
        // Word layout: 4-word header, set lengths, then entries; the
        // confidence of the single live entry is the 4th entry word.
        let pos = words
            .iter()
            .position(|&w| w == a.peek(0x10).unwrap().confidence as u64)
            .unwrap();
        words[pos] = u64::from(a.config().max_confidence) + 1;
        let mut slice = words.as_slice();
        assert!(table().restore_state(&mut slice).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = StrideTable::new(StrideTableConfig {
            ways: 0,
            ..StrideTableConfig::default()
        });
    }
}
