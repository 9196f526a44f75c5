//! STT taint tracking.
//!
//! Speculative Taint Tracking taints the output of every *access
//! instruction* (load) executed under speculation and propagates taint
//! dataflow-style through register dependences. A value untaints when
//! its *root* load reaches the visibility point ("bound to commit").
//!
//! We implement the taint of a value as the sequence number of the
//! **youngest** unsafe root load among its producers (Yu et al.'s
//! youngest-root optimization): when that root becomes non-speculative,
//! every root in the value's history is non-speculative too, so the
//! value is clean. Untainting is lazy — a register keeps its recorded
//! root, and taint queries check whether the root is still in the
//! unsafe-root set.

use crate::regfile::PhysReg;
use crate::shadow::Seq;
use std::collections::BTreeSet;

/// Dataflow taint state for STT.
///
/// # Examples
///
/// ```
/// use dgl_pipeline::taint::TaintTracker;
/// use dgl_pipeline::regfile::PhysReg;
///
/// let mut t = TaintTracker::new(64);
/// let dst = PhysReg(40);
/// t.add_root(7); // a load at seq 7 executed speculatively
/// t.set(dst, Some(7));
/// assert!(t.is_tainted(dst));
/// t.retire_roots_older_than(8); // visibility point passed seq 7
/// assert!(!t.is_tainted(dst));
/// ```
#[derive(Debug, Clone)]
pub struct TaintTracker {
    /// Per physical register: youngest unsafe root, if any was recorded.
    root: Vec<Option<Seq>>,
    /// Loads whose outputs are currently unsafe.
    unsafe_roots: BTreeSet<Seq>,
    /// Bumped on every mutation that can change any `is_tainted`
    /// verdict. Taint-gated stores wait on one issue-queue list that
    /// wakes whenever this version moves (untainting is lazy, so there
    /// is no per-register event to wait on).
    version: u64,
}

impl TaintTracker {
    /// Creates a tracker for `phys_regs` registers, all untainted.
    pub fn new(phys_regs: usize) -> Self {
        // Values here only fill the struct: `reset` sets the state.
        let mut t = Self {
            root: vec![None; phys_regs],
            unsafe_roots: BTreeSet::new(),
            version: 0,
        };
        t.reset();
        t
    }

    /// Untaints every register and forgets every root, the state
    /// [`new`](Self::new) builds.
    pub fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self {
            root,
            unsafe_roots,
            version,
        } = self;
        root.fill(None);
        unsafe_roots.clear();
        *version = 0;
    }

    /// Registers a speculative load as an unsafe root.
    pub fn add_root(&mut self, seq: Seq) {
        if self.unsafe_roots.insert(seq) {
            self.version += 1;
        }
    }

    /// Whether the given root is still unsafe.
    pub fn is_unsafe_root(&self, seq: Seq) -> bool {
        self.unsafe_roots.contains(&seq)
    }

    /// Removes roots that have reached the visibility point: every root
    /// with `seq < visibility` untaints (bound to commit).
    pub fn retire_roots_older_than(&mut self, visibility: Seq) {
        // Runs every cycle from the visibility sweep; the common case
        // (no root old enough) must not pay for `split_off`'s tree
        // rebuild.
        match self.unsafe_roots.first() {
            Some(&oldest) if oldest < visibility => {}
            _ => return,
        }
        self.unsafe_roots = self.unsafe_roots.split_off(&visibility);
        self.version += 1;
    }

    /// Removes roots younger than `from_exclusive` on a squash.
    pub fn squash_roots_younger_than(&mut self, from_exclusive: Seq) {
        // Nothing is younger than `Seq::MAX`; and with no younger root
        // there is no tree to split.
        let Some(first_dropped) = from_exclusive.checked_add(1) else {
            return;
        };
        if self
            .unsafe_roots
            .last()
            .is_some_and(|&r| r >= first_dropped)
        {
            self.unsafe_roots.split_off(&first_dropped);
            self.version += 1;
        }
    }

    /// Records the taint root of a freshly written register.
    ///
    /// Physical register 0 is the architectural zero register: it holds
    /// the constant 0 and can carry no information, so taint writes to
    /// it are discarded. (Without this, a transient load *into r0*
    /// would taint a register shared with *older* instructions — the
    /// one case rename does not isolate — wedging their resolution.)
    pub fn set(&mut self, p: PhysReg, root: Option<Seq>) {
        if p == crate::regfile::PHYS_ZERO {
            return;
        }
        if self.root[p.0 as usize] != root {
            self.version += 1;
        }
        self.root[p.0 as usize] = root;
    }

    /// A counter that strictly increases whenever any `is_tainted`
    /// verdict could change; cached taint verdicts stay valid while it
    /// is unchanged.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The *effective* taint root of a register: the recorded root if it
    /// is still unsafe, otherwise `None`.
    pub fn effective_root(&self, p: PhysReg) -> Option<Seq> {
        self.root[p.0 as usize].filter(|r| self.unsafe_roots.contains(r))
    }

    /// Whether the register currently carries taint.
    pub fn is_tainted(&self, p: PhysReg) -> bool {
        self.effective_root(p).is_some()
    }

    /// Whether any of the given registers carries taint.
    pub fn any_tainted(&self, regs: &[PhysReg]) -> bool {
        regs.iter().any(|&p| self.is_tainted(p))
    }

    /// Combines source taints into an output taint (youngest root wins).
    pub fn combine(&self, srcs: &[PhysReg]) -> Option<Seq> {
        srcs.iter().filter_map(|&p| self.effective_root(p)).max()
    }

    /// Number of unsafe roots currently live (diagnostics).
    pub fn live_roots(&self) -> usize {
        self.unsafe_roots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> PhysReg {
        PhysReg(i)
    }

    #[test]
    fn untainted_by_default() {
        let t = TaintTracker::new(8);
        assert!(!t.is_tainted(p(3)));
        assert_eq!(t.combine(&[p(1), p(2)]), None);
    }

    #[test]
    fn taint_propagates_youngest_root() {
        let mut t = TaintTracker::new(8);
        t.add_root(5);
        t.add_root(9);
        t.set(p(1), Some(5));
        t.set(p(2), Some(9));
        assert_eq!(t.combine(&[p(1), p(2)]), Some(9));
    }

    #[test]
    fn untaints_at_visibility_point() {
        let mut t = TaintTracker::new(8);
        t.add_root(5);
        t.set(p(1), Some(5));
        assert!(t.is_tainted(p(1)));
        t.retire_roots_older_than(5); // visibility at 5: root 5 not yet safe
        assert!(t.is_tainted(p(1)));
        t.retire_roots_older_than(6); // now it is
        assert!(!t.is_tainted(p(1)));
        assert_eq!(t.live_roots(), 0);
    }

    #[test]
    fn squash_removes_young_roots() {
        let mut t = TaintTracker::new(8);
        t.add_root(5);
        t.add_root(10);
        t.squash_roots_younger_than(5);
        assert!(t.is_unsafe_root(5));
        assert!(!t.is_unsafe_root(10));
    }

    #[test]
    fn squash_at_the_largest_seq_keeps_every_root() {
        let mut t = TaintTracker::new(8);
        t.add_root(5);
        t.add_root(Seq::MAX);
        t.squash_roots_younger_than(Seq::MAX);
        assert!(t.is_unsafe_root(Seq::MAX));
        t.squash_roots_younger_than(Seq::MAX - 1);
        assert!(!t.is_unsafe_root(Seq::MAX));
        assert!(t.is_unsafe_root(5));
    }

    #[test]
    fn version_moves_only_when_a_squash_drops_a_root() {
        let mut t = TaintTracker::new(8);
        t.add_root(5);
        t.add_root(9);
        let v = t.version();
        t.squash_roots_younger_than(9);
        t.squash_roots_younger_than(Seq::MAX);
        assert_eq!(t.version(), v);
        assert_eq!(t.live_roots(), 2);
        t.squash_roots_younger_than(6);
        assert_eq!(t.version(), v + 1);
        assert_eq!(t.live_roots(), 1);
    }

    #[test]
    fn stale_roots_do_not_retaint() {
        let mut t = TaintTracker::new(8);
        t.add_root(5);
        t.set(p(1), Some(5));
        t.retire_roots_older_than(100);
        // A younger unrelated root must not make p1 tainted again.
        t.add_root(50);
        assert!(!t.is_tainted(p(1)));
    }

    #[test]
    fn zero_register_never_taints() {
        let mut t = TaintTracker::new(8);
        t.add_root(5);
        t.set(crate::regfile::PHYS_ZERO, Some(5));
        assert!(!t.is_tainted(crate::regfile::PHYS_ZERO));
    }

    #[test]
    fn any_tainted_checks_all() {
        let mut t = TaintTracker::new(8);
        t.add_root(3);
        t.set(p(2), Some(3));
        assert!(t.any_tainted(&[p(1), p(2)]));
        assert!(!t.any_tainted(&[p(1)]));
    }
}
