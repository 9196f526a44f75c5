//! Shadow tracking (Ghost Loads / DoM style).
//!
//! A *shadow caster* is an older instruction that can still squash or
//! reorder younger ones: an unresolved predicted branch or indirect jump
//! (C-shadow), or a store whose address is not yet known (D-shadow). An
//! instruction is *speculative* while any caster older than it is
//! active; the youngest sequence number with no older caster is the
//! *visibility point*. All four schemes and the doppelganger rules key
//! off this one structure (paper §5: "we use shadow tracking ... we
//! focus on tracking speculation originating from unresolved control
//! flow, and unresolved store addresses").

use std::collections::VecDeque;

/// Dynamic instruction sequence number.
pub type Seq = u64;

/// Tracks active shadow casters by sequence number.
///
/// Casters are kept sorted by `seq`. They are cast in dispatch order,
/// so a cast appends and a squash truncates the tail.
///
/// # Examples
///
/// ```
/// use dgl_pipeline::shadow::ShadowTracker;
///
/// let mut sh = ShadowTracker::new();
/// sh.cast(10); // a branch at seq 10
/// assert!(!sh.is_speculative(10)); // the caster itself is not shadowed
/// assert!(sh.is_speculative(11));
/// sh.resolve(10);
/// assert!(!sh.is_speculative(11));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShadowTracker {
    active: VecDeque<Seq>,
    /// Bumped whenever a caster is removed: the only way an instruction
    /// becomes non-speculative.
    epoch: u64,
}

impl ShadowTracker {
    /// Creates an empty tracker (nothing is speculative).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every caster, the state [`new`](Self::new) builds.
    pub fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self { active, epoch } = self;
        active.clear();
        *epoch = 0;
    }

    /// Registers a shadow caster. Idempotent.
    pub fn cast(&mut self, seq: Seq) {
        if self.active.back().is_none_or(|&last| last < seq) {
            self.active.push_back(seq);
        } else if let Err(at) = self.active.binary_search(&seq) {
            self.active.insert(at, seq);
        }
    }

    /// Removes a caster when it resolves. Idempotent.
    pub fn resolve(&mut self, seq: Seq) {
        if let Ok(at) = self.active.binary_search(&seq) {
            self.active.remove(at);
            self.epoch += 1;
        }
    }

    /// Removes every caster with `seq > from_exclusive` — used on a
    /// squash of everything younger than `from_exclusive`.
    pub fn squash_younger_than(&mut self, from_exclusive: Seq) {
        let keep = self.active.partition_point(|&s| s <= from_exclusive);
        if keep < self.active.len() {
            self.active.truncate(keep);
            self.epoch += 1;
        }
    }

    /// A counter that moves whenever some instruction may have become
    /// non-speculative; every verdict of [`is_nonspeculative`](Self::is_nonspeculative)
    /// for a live instruction holds while it is unchanged.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The oldest active caster, if any.
    pub fn oldest(&self) -> Option<Seq> {
        self.active.front().copied()
    }

    /// Whether the instruction at `seq` is under a shadow (some caster
    /// is strictly older).
    pub fn is_speculative(&self, seq: Seq) -> bool {
        match self.oldest() {
            Some(o) => o < seq,
            None => false,
        }
    }

    /// Whether the instruction at `seq` has reached the visibility
    /// point (not speculative).
    pub fn is_nonspeculative(&self, seq: Seq) -> bool {
        !self.is_speculative(seq)
    }

    /// Whether `seq` itself is an active caster.
    pub fn is_active(&self, seq: Seq) -> bool {
        self.active.binary_search(&seq).is_ok()
    }

    /// Number of active casters.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Whether no caster is active.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_is_nonspeculative() {
        let sh = ShadowTracker::new();
        assert!(!sh.is_speculative(0));
        assert!(!sh.is_speculative(1000));
        assert!(sh.is_empty());
    }

    #[test]
    fn shadows_cover_strictly_younger() {
        let mut sh = ShadowTracker::new();
        sh.cast(5);
        assert!(!sh.is_speculative(4));
        assert!(!sh.is_speculative(5));
        assert!(sh.is_speculative(6));
    }

    #[test]
    fn oldest_tracks_minimum() {
        let mut sh = ShadowTracker::new();
        sh.cast(9);
        sh.cast(3);
        sh.cast(7);
        assert_eq!(sh.oldest(), Some(3));
        sh.resolve(3);
        assert_eq!(sh.oldest(), Some(7));
    }

    #[test]
    fn resolve_is_idempotent() {
        let mut sh = ShadowTracker::new();
        sh.cast(1);
        sh.resolve(1);
        sh.resolve(1);
        assert!(sh.is_empty());
    }

    #[test]
    fn epoch_moves_only_when_a_caster_leaves() {
        let mut sh = ShadowTracker::new();
        sh.cast(3);
        sh.cast(8);
        assert_eq!(sh.epoch(), 0);
        sh.resolve(8);
        sh.resolve(8);
        assert_eq!(sh.epoch(), 1);
        sh.squash_younger_than(3);
        assert_eq!(sh.epoch(), 1);
        sh.cast(9);
        sh.squash_younger_than(5);
        assert_eq!(sh.epoch(), 2);
    }

    #[test]
    fn squash_removes_younger_casters() {
        let mut sh = ShadowTracker::new();
        sh.cast(2);
        sh.cast(5);
        sh.cast(9);
        sh.squash_younger_than(5);
        assert!(sh.is_active(2));
        assert!(sh.is_active(5));
        assert!(!sh.is_active(9));
        assert_eq!(sh.len(), 2);
        // Nothing is younger than the largest seq: a caster there stays.
        sh.cast(Seq::MAX);
        sh.squash_younger_than(Seq::MAX);
        assert_eq!(sh.len(), 3);
        sh.squash_younger_than(Seq::MAX - 1);
        assert!(!sh.is_active(Seq::MAX));
        assert_eq!(sh.oldest(), Some(2));
        sh.squash_younger_than(0);
        assert!(sh.is_empty());
    }

    #[test]
    fn visibility_point_semantics() {
        let mut sh = ShadowTracker::new();
        sh.cast(10);
        sh.cast(20);
        // Everything <= 10 is at the visibility point.
        assert!(sh.is_nonspeculative(10));
        assert!(!sh.is_nonspeculative(11));
        sh.resolve(10);
        assert!(sh.is_nonspeculative(20));
        assert!(!sh.is_nonspeculative(21));
    }
}
