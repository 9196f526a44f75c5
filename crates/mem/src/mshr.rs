//! Miss-status holding registers: the structure that bounds memory-level
//! parallelism.
//!
//! The paper raises the L1 MSHR count from gem5's default 4 to 16
//! (Table 1) precisely because MSHRs cap the MLP that the doppelganger
//! mechanism recovers. Each MSHR tracks one outstanding line; secondary
//! misses to the same line merge onto the existing entry.

use std::collections::HashMap;

/// An MSHR file tracking outstanding line-fill requests.
///
/// # Examples
///
/// ```
/// use dgl_mem::MshrFile;
///
/// let mut mshrs = MshrFile::new(2);
/// assert_eq!(mshrs.allocate(0x000, 100), Some(false)); // primary miss
/// assert_eq!(mshrs.allocate(0x000, 100), Some(true));  // secondary: merged
/// assert_eq!(mshrs.allocate(0x040, 120), Some(false));
/// assert_eq!(mshrs.allocate(0x080, 130), None);        // full
/// assert_eq!(mshrs.complete(0x000), Some(100));
/// assert_eq!(mshrs.allocate(0x080, 130), Some(false)); // freed
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// line address -> completion cycle of the in-flight fill.
    outstanding: HashMap<u64, u64>,
    peak: usize,
    merges: u64,
    rejects: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        // Values here only fill the struct: `reset` sets the state.
        let mut mshrs = Self {
            capacity,
            outstanding: HashMap::new(),
            peak: 0,
            merges: 0,
            rejects: 0,
        };
        mshrs.reset();
        mshrs
    }

    /// Releases every entry and zeroes the counters, the state
    /// [`new`](Self::new) builds, keeping the map's allocation.
    pub fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self {
            capacity: _,
            outstanding,
            peak,
            merges,
            rejects,
        } = self;
        outstanding.clear();
        *peak = 0;
        *merges = 0;
        *rejects = 0;
    }

    /// Tries to track a miss of `line_addr` completing at `completes_at`.
    ///
    /// Returns `Some(false)` for a primary miss (new entry), `Some(true)`
    /// for a secondary miss merged onto an existing entry, or `None` when
    /// the file is full (the requester must retry).
    pub fn allocate(&mut self, line_addr: u64, completes_at: u64) -> Option<bool> {
        if self.outstanding.contains_key(&line_addr) {
            self.merges += 1;
            return Some(true);
        }
        if self.outstanding.len() >= self.capacity {
            self.rejects += 1;
            return None;
        }
        self.outstanding.insert(line_addr, completes_at);
        self.peak = self.peak.max(self.outstanding.len());
        Some(false)
    }

    /// Completion time of the in-flight fill for `line_addr`, if any.
    pub fn completion_time(&self, line_addr: u64) -> Option<u64> {
        self.outstanding.get(&line_addr).copied()
    }

    /// Releases the entry for `line_addr` when its fill arrives.
    /// Returns the completion cycle that had been recorded.
    pub fn complete(&mut self, line_addr: u64) -> Option<u64> {
        self.outstanding.remove(&line_addr)
    }

    /// Entries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether no entry is free.
    pub fn is_full(&self) -> bool {
        self.outstanding.len() >= self.capacity
    }

    /// `(peak occupancy, merges, rejections)` so far.
    pub fn stats(&self) -> (usize, u64, u64) {
        (self.peak, self.merges, self.rejects)
    }

    /// Zeroes the counters while keeping in-flight entries; the peak
    /// restarts from the current occupancy (sampled-simulation warmup
    /// boundary).
    pub fn reset_stats(&mut self) {
        self.peak = self.outstanding.len();
        self.merges = 0;
        self.rejects = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_secondary_and_full() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.allocate(0, 10), Some(false));
        assert_eq!(m.allocate(0, 10), Some(true));
        assert_eq!(m.allocate(64, 20), None);
        assert!(m.is_full());
        assert_eq!(m.stats(), (1, 1, 1));
    }

    #[test]
    fn completion_frees_entry() {
        let mut m = MshrFile::new(1);
        m.allocate(0, 10);
        assert_eq!(m.completion_time(0), Some(10));
        assert_eq!(m.complete(0), Some(10));
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.complete(0), None);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = MshrFile::new(4);
        m.allocate(0, 1);
        m.allocate(64, 1);
        m.allocate(128, 1);
        m.complete(0);
        assert_eq!(m.stats().0, 3);
    }
}
