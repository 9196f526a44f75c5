//! Physical register file, rename table, and free list.
//!
//! Each physical register carries, besides its value, two visibility
//! flags that the secure schemes manipulate independently:
//!
//! * `ready` — the value has been computed (written back);
//! * `propagated` — dependents may consume it. For the unsafe baseline
//!   these coincide; NDA-P keeps speculative load results
//!   `ready && !propagated` ("locked", Figure 5 ①) until the load is
//!   non-speculative.
//!
//! Every `ready` or `propagated` transition is reported once on a wake
//! list ([`RegFile::pop_woken`]); the issue queue keeps consumers that
//! wait on a register linked to it and wakes them only from that list.
//!
//! STT taint lives in [`crate::taint::TaintTracker`], keyed by the same
//! physical register indices.

use dgl_isa::Reg;

/// Index of a physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PhysReg(pub u16);

/// The zero physical register: permanently 0, ready, propagated.
pub const PHYS_ZERO: PhysReg = PhysReg(0);

/// Rename state: physical register file + RAT + free list.
#[derive(Debug, Clone)]
pub struct RegFile {
    value: Vec<i64>,
    ready: Vec<bool>,
    propagated: Vec<bool>,
    free: Vec<PhysReg>,
    rat: [PhysReg; dgl_isa::reg::NUM_REGS],
    /// Registers whose `ready` or `propagated` flag went false → true
    /// since they were last popped, one push per transition.
    woken: Vec<PhysReg>,
}

impl RegFile {
    /// Creates a register file with `phys_regs` physical registers.
    /// Registers 1..=31 are pre-mapped for the architectural registers
    /// (initial value 0); register 0 is the hardwired zero.
    ///
    /// # Panics
    ///
    /// Panics if `phys_regs < 64`.
    pub fn new(phys_regs: usize) -> Self {
        assert!(phys_regs >= 64, "need at least 64 physical registers");
        // Values here only fill the struct: `reset` sets the state.
        let mut rf = Self {
            value: vec![0; phys_regs],
            ready: vec![true; phys_regs],
            propagated: vec![true; phys_regs],
            free: Vec::with_capacity(phys_regs - dgl_isa::reg::NUM_REGS),
            rat: [PHYS_ZERO; dgl_isa::reg::NUM_REGS],
            woken: Vec::with_capacity(2 * phys_regs),
        };
        rf.reset();
        rf
    }

    /// Returns the file to the state [`new`](Self::new) builds: every
    /// register zero, ready and propagated, the identity mapping, the
    /// same free list. Allocations are kept.
    pub fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self {
            value,
            ready,
            propagated,
            free,
            rat,
            woken,
        } = self;
        value.fill(0);
        ready.fill(true);
        propagated.fill(true);
        free.clear();
        free.extend(
            (dgl_isa::reg::NUM_REGS..value.len())
                .rev()
                .map(|i| PhysReg(i as u16)),
        );
        for (i, slot) in rat.iter_mut().enumerate() {
            *slot = PhysReg(i as u16); // r0 -> p0, r1 -> p1, ...
        }
        woken.clear();
    }

    /// Current mapping of an architectural register.
    pub fn map(&self, r: Reg) -> PhysReg {
        self.rat[r.index()]
    }

    /// Renames `dst`, returning `(new, old)` mappings. Writes to `r0`
    /// return the zero register unchanged (the write is discarded).
    /// Returns `None` when no physical register is free (rename stalls).
    pub fn rename(&mut self, dst: Reg) -> Option<(PhysReg, PhysReg)> {
        if dst.is_zero() {
            return Some((PHYS_ZERO, PHYS_ZERO));
        }
        let new = self.free.pop()?;
        let old = self.rat[dst.index()];
        self.rat[dst.index()] = new;
        self.value[new.0 as usize] = 0;
        self.ready[new.0 as usize] = false;
        self.propagated[new.0 as usize] = false;
        Some((new, old))
    }

    /// Undoes a rename during squash recovery: restores the RAT and
    /// frees the new register.
    pub fn unrename(&mut self, dst: Reg, new: PhysReg, old: PhysReg) {
        if dst.is_zero() {
            return;
        }
        debug_assert_eq!(self.rat[dst.index()], new, "unrename out of order");
        self.rat[dst.index()] = old;
        self.free.push(new);
    }

    /// Frees the *previous* mapping when an instruction commits.
    pub fn release(&mut self, old: PhysReg) {
        if old != PHYS_ZERO {
            self.free.push(old);
        }
    }

    /// Writes a computed value (sets `ready`; propagation is separate).
    pub fn write(&mut self, p: PhysReg, v: i64) {
        if p == PHYS_ZERO {
            return;
        }
        let i = p.0 as usize;
        // Only the `ready` transition can wake a consumer: a rewrite (a
        // locked load's value is re-written whenever the visibility
        // sweep re-evaluates it) changes no readiness verdict.
        if !self.ready[i] {
            self.woken.push(p);
        }
        self.value[i] = v;
        self.ready[i] = true;
    }

    /// Marks a register consumable by dependents. Returns `true` when
    /// this call transitioned it (so the caller wakes consumers once).
    ///
    /// # Panics
    ///
    /// Debug-panics if the value is not ready yet.
    pub fn propagate(&mut self, p: PhysReg) -> bool {
        if p == PHYS_ZERO {
            return false;
        }
        debug_assert!(self.ready[p.0 as usize], "propagating unwritten register");
        let was = self.propagated[p.0 as usize];
        self.propagated[p.0 as usize] = true;
        if !was {
            self.woken.push(p);
        }
        !was
    }

    /// Pops one reported visibility transition: a register whose
    /// `ready` or `propagated` flag was set by [`write`](Self::write)
    /// or [`propagate`](Self::propagate) since it was last popped. A
    /// register appears once per transition, so at most twice per
    /// rename; rewrites, repeated propagates and `PHYS_ZERO` never
    /// appear.
    pub fn pop_woken(&mut self) -> Option<PhysReg> {
        self.woken.pop()
    }

    /// The transitions not yet popped, oldest first.
    pub fn woken(&self) -> &[PhysReg] {
        &self.woken
    }

    /// Reads a register's value.
    ///
    /// # Panics
    ///
    /// Debug-panics when the register is not ready.
    pub fn read(&self, p: PhysReg) -> i64 {
        debug_assert!(self.ready[p.0 as usize], "reading unwritten register");
        self.value[p.0 as usize]
    }

    /// Whether the value has been computed.
    pub fn is_ready(&self, p: PhysReg) -> bool {
        self.ready[p.0 as usize]
    }

    /// Whether dependents may consume the value.
    pub fn is_propagated(&self, p: PhysReg) -> bool {
        self.propagated[p.0 as usize]
    }

    /// Free physical registers remaining.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Reads the architectural value of `r` through the RAT (valid at
    /// commit boundaries; used for final-state comparison with the
    /// golden model).
    pub fn arch_value(&self, r: Reg) -> i64 {
        if r.is_zero() {
            0
        } else {
            self.value[self.rat[r.index()].0 as usize]
        }
    }

    /// Seeds the architectural value of `r` through the RAT. Writes to
    /// `r0` are discarded. Only meaningful before execution starts
    /// (e.g. injecting a golden-model checkpoint for a sampled window),
    /// while every pre-mapped register is still ready and propagated.
    pub fn set_arch_value(&mut self, r: Reg, v: i64) {
        if !r.is_zero() {
            self.value[self.rat[r.index()].0 as usize] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_ready_zero() {
        let rf = RegFile::new(64);
        let r5 = Reg::new(5);
        let p = rf.map(r5);
        assert!(rf.is_ready(p));
        assert!(rf.is_propagated(p));
        assert_eq!(rf.read(p), 0);
    }

    #[test]
    fn rename_write_propagate() {
        let mut rf = RegFile::new(64);
        let r1 = Reg::new(1);
        let (new, old) = rf.rename(r1).unwrap();
        assert_ne!(new, old);
        assert!(!rf.is_ready(new));
        rf.write(new, 42);
        assert!(rf.is_ready(new));
        assert!(!rf.is_propagated(new));
        assert!(rf.propagate(new));
        assert!(!rf.propagate(new), "second propagate is not a transition");
        assert_eq!(rf.read(new), 42);
        assert_eq!(rf.arch_value(r1), 42);
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut rf = RegFile::new(64);
        let (new, old) = rf.rename(Reg::ZERO).unwrap();
        assert_eq!(new, PHYS_ZERO);
        assert_eq!(old, PHYS_ZERO);
        rf.write(PHYS_ZERO, 99);
        assert_eq!(rf.read(PHYS_ZERO), 0);
        assert!(!rf.propagate(PHYS_ZERO));
        // Neither it nor an already-visible premapped register wakes anyone.
        let p5 = rf.map(Reg::new(5));
        rf.write(p5, 3);
        assert!(!rf.propagate(p5));
        assert!(rf.woken().is_empty());
    }

    #[test]
    fn each_visibility_transition_is_reported_exactly_once() {
        let mut rf = RegFile::new(64);
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        let (a, a_old) = rf.rename(r1).unwrap();
        let (b, _) = rf.rename(r2).unwrap();
        rf.write(a, 7); // a: ready
        rf.write(a, 7); // same value again: no transition
        rf.write(a, 8); // new value, still ready: no transition
        rf.write(b, 1); // b: ready
        assert!(rf.propagate(a)); // a: propagated
        assert!(!rf.propagate(a)); // repeated: no transition
        assert_eq!(rf.woken(), [a, b, a]);
        let popped: Vec<_> = std::iter::from_fn(|| rf.pop_woken()).collect();
        assert_eq!(popped, [a, b, a], "newest first");
        assert!(rf.woken().is_empty());
        // A register renamed again reports its new life's transitions.
        rf.unrename(r1, a, a_old);
        let (again, _) = rf.rename(r1).unwrap();
        assert_eq!(again, a, "the free list hands the register back");
        rf.write(again, 2);
        rf.propagate(again);
        assert_eq!(rf.woken(), [a, a]);
    }

    #[test]
    fn rename_exhaustion_returns_none() {
        let mut rf = RegFile::new(64);
        let r1 = Reg::new(1);
        let mut n = 0;
        while rf.rename(r1).is_some() {
            n += 1;
        }
        assert_eq!(n, 32, "64 regs - 32 premapped = 32 free");
    }

    #[test]
    fn unrename_restores_and_frees() {
        let mut rf = RegFile::new(64);
        let r1 = Reg::new(1);
        let before = rf.map(r1);
        let free_before = rf.free_count();
        let (new, old) = rf.rename(r1).unwrap();
        rf.unrename(r1, new, old);
        assert_eq!(rf.map(r1), before);
        assert_eq!(rf.free_count(), free_before);
    }

    #[test]
    fn release_recycles_old_mapping() {
        let mut rf = RegFile::new(64);
        let r1 = Reg::new(1);
        let free_before = rf.free_count();
        let (_, old) = rf.rename(r1).unwrap();
        rf.release(old); // commit: old mapping dies
                         // Note: `old` here was a premapped register (p1), so the count
                         // nets out to free_before - 1 + 1.
        assert_eq!(rf.free_count(), free_before);
    }

    #[test]
    fn set_arch_value_seeds_initial_state() {
        let mut rf = RegFile::new(64);
        let r7 = Reg::new(7);
        rf.set_arch_value(r7, -42);
        assert_eq!(rf.arch_value(r7), -42);
        assert!(rf.is_ready(rf.map(r7)), "premapped registers stay ready");
        rf.set_arch_value(Reg::ZERO, 99);
        assert_eq!(rf.arch_value(Reg::ZERO), 0);
    }

    #[test]
    fn squash_recovery_sequence() {
        // rename r1 three times, squash the last two in reverse order.
        let mut rf = RegFile::new(64);
        let r1 = Reg::new(1);
        let (p1, _o1) = rf.rename(r1).unwrap();
        rf.write(p1, 10);
        let (p2, o2) = rf.rename(r1).unwrap();
        let (p3, o3) = rf.rename(r1).unwrap();
        rf.unrename(r1, p3, o3);
        rf.unrename(r1, p2, o2);
        assert_eq!(rf.map(r1), p1);
        assert_eq!(rf.arch_value(r1), 10);
    }
}
