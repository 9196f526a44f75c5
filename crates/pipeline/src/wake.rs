//! Slot sets and waiter lists: what the visibility sweep, the memory
//! stage and the issue queue evaluate instead of walking the load,
//! store and reorder queues every tick.
//!
//! Every set is a bitset over the physical slots of one ring (LQ, ROB or
//! SQ), walked oldest-first from the ring head, so a walk visits entries
//! in ascending `seq`. Work blocked only by the visibility point is
//! parked per kind and released by a prefix move once the point passes
//! it; loads waiting on a store sit on that store's waiter row until
//! the store changes. Entries blocked on a physical register sit on
//! that register's [`WaiterLists`] list until it transitions: issue-queue
//! entries over ROB slots, and stores whose data register has not
//! propagated over SQ slots ([`StoreCapture`]). The memory stage walks
//! its issue and capture candidates ([`MemSets`]). Everything is sized
//! in `Core::new`, so the tick allocates nothing. `docs/INTERNALS.md`
//! ("Slot sets", "Issue-queue wake-up" and "Visibility wake-up") gives
//! the byte-identity argument.

/// One bit per physical slot of a power-of-two ring.
#[derive(Debug, Clone)]
pub(crate) struct SlotSet {
    mask: usize,
    words: Box<[u64]>,
}

impl SlotSet {
    /// An empty set over `slots` ring slots (a power of two).
    pub(crate) fn new(slots: usize) -> Self {
        assert!(slots.is_power_of_two());
        Self {
            mask: slots - 1,
            words: vec![0; slots.div_ceil(64)].into_boxed_slice(),
        }
    }

    pub(crate) fn insert(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    /// Removes every member.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    pub(crate) fn remove(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }

    pub(crate) fn contains(&self, slot: usize) -> bool {
        self.words[slot / 64] >> (slot % 64) & 1 != 0
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The oldest member at logical index `from` or younger, as
    /// `(logical index, slot)`, for a ring of `len` live entries whose
    /// oldest sits in slot `head`.
    pub(crate) fn next(&self, head: usize, mut from: usize, len: usize) -> Option<(usize, usize)> {
        let slots = self.mask + 1;
        while from < len {
            let slot = (head + from) & self.mask;
            let bits = self.words[slot / 64] >> (slot % 64);
            if bits != 0 {
                // No slot index wraps within one word, so the logical
                // offset grows with the bit position.
                let i = from + bits.trailing_zeros() as usize;
                return (i < len).then(|| (i, (head + i) & self.mask));
            }
            // Next word, or the wrap to slot 0 if that comes first.
            from += (64 - slot % 64).min(slots - slot);
        }
        None
    }

    /// Moves the members among logical entries `[0, upto)` into `to`.
    pub(crate) fn release_into(&mut self, to: &mut SlotSet, head: usize, upto: usize) {
        for w in 0..self.words.len() {
            if self.words[w] == 0 {
                continue;
            }
            let m = self.span_mask(w, head, upto);
            to.words[w] |= self.words[w] & m;
            self.words[w] &= !m;
        }
    }

    /// Panics naming `what` when a member lies outside the live entries
    /// `[0, len)` of a ring whose oldest entry sits in slot `head`.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_live(&self, head: usize, len: usize, what: &str) {
        for slot in (0..=self.mask).filter(|&s| self.contains(s)) {
            let i = slot.wrapping_sub(head) & self.mask;
            assert!(i < len, "{what} bit on dead slot {slot}");
        }
    }

    /// Drops every member outside the live entries `[0, len)`.
    pub(crate) fn retain_live(&mut self, head: usize, len: usize) {
        for w in 0..self.words.len() {
            if self.words[w] != 0 {
                self.words[w] &= self.span_mask(w, head, len);
            }
        }
    }

    /// The bits of word `w` that hold logical entries `[0, n)` of a ring
    /// whose oldest entry sits in slot `head`.
    fn span_mask(&self, w: usize, head: usize, n: usize) -> u64 {
        let slots = self.mask + 1;
        let end = head + n.min(slots);
        // At most two physical runs: up to the ring's end, then the wrap.
        let runs = [(head, end.min(slots)), (0, end.saturating_sub(slots))];
        let (lo, hi) = (w * 64, w * 64 + 64);
        let mut m = 0;
        for (a, b) in runs {
            let (a, b) = (a.max(lo), b.min(hi));
            if a < b {
                m |= (u64::MAX >> (64 - (b - a))) << (a - lo);
            }
        }
        m
    }
}

/// Link terminator in [`WaiterLists`].
const NIL: u16 = u16::MAX;

/// Numbered waiter lists over the slots of one ring, doubly linked
/// through flat `u16` arrays: link, wake and unlink are O(1) per entry
/// and nothing allocates per cycle. A slot is on at most one list; the
/// owner knows which of its slots are linked.
#[derive(Debug, Clone)]
pub(crate) struct WaiterLists {
    /// First waiter of each list.
    head: Box<[u16]>,
    /// Next waiter on the same list, per slot.
    next: Box<[u16]>,
    /// Previous waiter per slot, or `slots + list` for the first entry
    /// of `list`, so an unlink needs no list lookup.
    prev: Box<[u16]>,
}

impl WaiterLists {
    /// `lists` empty lists over `slots` ring slots.
    pub(crate) fn new(slots: usize, lists: usize) -> Self {
        assert!(slots + lists < NIL as usize);
        // Values here only fill the struct: `reset` sets the state.
        let mut waiters = Self {
            head: vec![NIL; lists].into_boxed_slice(),
            next: vec![NIL; slots].into_boxed_slice(),
            prev: vec![NIL; slots].into_boxed_slice(),
        };
        waiters.reset();
        waiters
    }

    /// Empties every list, the state [`new`](Self::new) builds.
    pub(crate) fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self { head, next, prev } = self;
        head.fill(NIL);
        next.fill(NIL);
        prev.fill(NIL);
    }

    /// Number of lists.
    pub(crate) fn lists(&self) -> usize {
        self.head.len()
    }

    /// Links the unlinked `slot` at the front of `list`.
    pub(crate) fn park(&mut self, slot: usize, list: usize) {
        let first = self.head[list];
        if first != NIL {
            self.prev[first as usize] = slot as u16;
        }
        self.next[slot] = first;
        self.prev[slot] = (self.next.len() + list) as u16;
        self.head[list] = slot as u16;
    }

    /// Moves every waiter on `list` into `to`, emptying the list.
    #[inline]
    pub(crate) fn wake_into(&mut self, list: usize, to: &mut SlotSet) {
        let mut at = std::mem::replace(&mut self.head[list], NIL);
        while at != NIL {
            to.insert(at as usize);
            at = self.next[at as usize];
        }
    }

    /// Unlinks the linked `slot` from its list.
    pub(crate) fn unlink(&mut self, slot: usize) {
        let (back, fwd) = (self.prev[slot] as usize, self.next[slot]);
        match back.checked_sub(self.next.len()) {
            Some(list) => self.head[list] = fwd,
            None => self.next[back] = fwd,
        }
        if fwd != NIL {
            self.prev[fwd as usize] = back as u16;
        }
    }

    /// Whether `list` is empty.
    pub(crate) fn is_empty(&self, list: usize) -> bool {
        self.head[list] == NIL
    }

    /// Every `(list, slot)` link, list by list, after checking that each
    /// `prev` agrees with the walk and that no linked slot is also in
    /// `awake` (the owner's set of unlinked entries).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn links(&self, awake: &SlotSet) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for list in 0..self.head.len() {
            let (mut back, mut at) = ((self.next.len() + list) as u16, self.head[list]);
            while at != NIL {
                assert_eq!(self.prev[at as usize], back, "waiter link out of sync");
                assert!(!awake.contains(at as usize), "slot {at} awake and linked");
                out.push((list, at as usize));
                (back, at) = (at, self.next[at as usize]);
            }
        }
        out
    }
}

/// Stores whose address resolved before their data: each waits on its
/// data register's list until that register propagates, then sits in
/// `due` until the memory stage captures the value. A store is in
/// exactly one of the two places from address resolution until its data
/// is captured or it is squashed.
#[derive(Debug, Clone)]
pub(crate) struct StoreCapture {
    /// SQ slots whose data register has propagated: what the capture
    /// walk takes, oldest first.
    pub(crate) due: SlotSet,
    /// Per physical register, the SQ slots waiting for it to propagate.
    waiting: WaiterLists,
}

impl StoreCapture {
    /// Empty for a ring of `sq_slots` and `phys_regs` registers.
    pub(crate) fn new(sq_slots: usize, phys_regs: usize) -> Self {
        Self {
            due: SlotSet::new(sq_slots),
            waiting: WaiterLists::new(sq_slots, phys_regs),
        }
    }

    /// Empties both places, the state [`new`](Self::new) builds.
    pub(crate) fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self { due, waiting } = self;
        due.clear();
        waiting.reset();
    }

    /// The store in `sq_slot` waits for register `reg` to propagate.
    pub(crate) fn park(&mut self, sq_slot: usize, reg: usize) {
        self.waiting.park(sq_slot, reg);
    }

    /// Register `reg` propagated: its waiting stores become due.
    #[inline]
    pub(crate) fn wake(&mut self, reg: usize) {
        self.waiting.wake_into(reg, &mut self.due);
    }

    /// The store in `sq_slot`, due or waiting, is squashed.
    pub(crate) fn remove(&mut self, sq_slot: usize) {
        if self.due.contains(sq_slot) {
            self.due.remove(sq_slot);
        } else {
            self.waiting.unlink(sq_slot);
        }
    }

    /// Every `(register, SQ slot)` wait (see [`WaiterLists::links`]).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn links(&self) -> Vec<(usize, usize)> {
        self.waiting.links(&self.due)
    }
}

/// The memory stage's candidates. `set_load_state` keeps `wait_issue`
/// exact; `dgl` gains a load at dispatch when it is predicted and
/// loses it once its doppelganger issues, is discarded or is
/// mispredicted, all for good; `capture` gains a store when its address
/// resolves without data and loses it when the data is captured.
#[derive(Debug, Clone)]
pub(crate) struct MemSets {
    /// LQ slots of `WaitIssue` loads: the demand-issue candidates.
    pub(crate) wait_issue: SlotSet,
    /// LQ slots of loads whose doppelganger can still issue.
    pub(crate) dgl: SlotSet,
    /// Stores with a resolved address still waiting for their data.
    pub(crate) capture: StoreCapture,
}

impl MemSets {
    /// Empty sets for rings of `lq_slots` and `sq_slots`, with one
    /// capture list per physical register.
    pub(crate) fn new(lq_slots: usize, sq_slots: usize, phys_regs: usize) -> Self {
        Self {
            wait_issue: SlotSet::new(lq_slots),
            dgl: SlotSet::new(lq_slots),
            capture: StoreCapture::new(sq_slots, phys_regs),
        }
    }

    /// Empties every set, the state [`new`](Self::new) builds.
    pub(crate) fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self {
            wait_issue,
            dgl,
            capture,
        } = self;
        wait_issue.clear();
        dgl.clear();
        capture.reset();
    }

    /// The load in `lq_slot` commits.
    pub(crate) fn forget_load(&mut self, lq_slot: usize) {
        self.wait_issue.remove(lq_slot);
        self.dgl.remove(lq_slot);
    }

    /// A squash left the LQ entries `[0, len)` from the ring's
    /// `(head, len)`: drops the bits of everything younger. Squashed
    /// stores leave `capture` one by one.
    pub(crate) fn retain_live(&mut self, lq: (usize, usize)) {
        self.wait_issue.retain_live(lq.0, lq.1);
        self.dgl.retain_live(lq.0, lq.1);
    }
}

/// The wake-up state of the visibility sweep (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct VisWake {
    /// LQ slots of loads blocked only by the visibility point: locked
    /// `Done` loads and `DelayedDoM` loads.
    pub(crate) loads: SlotSet,
    /// LQ slots the next sweep re-evaluates.
    pub(crate) due: SlotSet,
    /// Per SQ slot, one row of `due`-sized words: the LQ slots of loads
    /// that parked in `WaitStore` on that store.
    waiters: Box<[u64]>,
    /// ROB slots of NDA-S results locked until the visibility point.
    pub(crate) results: SlotSet,
    /// ROB slots of branches whose resolution waits for the visibility
    /// point (in-order resolution).
    pub(crate) branches: SlotSet,
    /// ROB slots of branches whose resolution waits for their operands
    /// to untaint (STT).
    pub(crate) tainted: SlotSet,
    /// ROB slots of branches the running sweep retries; empty between
    /// sweeps.
    pub(crate) due_branches: SlotSet,
    /// `TaintTracker::version` when `tainted` was last retried.
    pub(crate) taint_seen: u64,
    /// `ShadowTracker::epoch` at the last release of `loads`,
    /// `results` and `branches`. Work parks only while speculative, so
    /// a set has nothing to release until the epoch moves past these.
    pub(crate) loads_epoch: u64,
    pub(crate) results_epoch: u64,
    pub(crate) branches_epoch: u64,
}

impl VisWake {
    /// Empty sets for rings of `lq_slots`, `sq_slots` and `rob_slots`.
    pub(crate) fn new(lq_slots: usize, sq_slots: usize, rob_slots: usize) -> Self {
        let due = SlotSet::new(lq_slots);
        // Values here only fill the struct: `reset` sets the state.
        let mut vis = Self {
            loads: SlotSet::new(lq_slots),
            waiters: vec![0; sq_slots * due.words.len()].into_boxed_slice(),
            due,
            results: SlotSet::new(rob_slots),
            branches: SlotSet::new(rob_slots),
            tainted: SlotSet::new(rob_slots),
            due_branches: SlotSet::new(rob_slots),
            taint_seen: 0,
            loads_epoch: 0,
            results_epoch: 0,
            branches_epoch: 0,
        };
        vis.reset();
        vis
    }

    /// Empties every set and row and zeroes the seen versions, the
    /// state [`new`](Self::new) builds.
    pub(crate) fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self {
            loads,
            due,
            waiters,
            results,
            branches,
            tainted,
            due_branches,
            taint_seen,
            loads_epoch,
            results_epoch,
            branches_epoch,
        } = self;
        for set in [loads, due, results, branches, tainted, due_branches] {
            set.clear();
        }
        waiters.fill(0);
        *taint_seen = 0;
        *loads_epoch = 0;
        *results_epoch = 0;
        *branches_epoch = 0;
    }

    /// The load in `lq_slot` commits.
    pub(crate) fn forget_load(&mut self, lq_slot: usize) {
        self.loads.remove(lq_slot);
        self.due.remove(lq_slot);
    }

    /// The instruction in `rob_slot` commits.
    pub(crate) fn forget_inst(&mut self, rob_slot: usize) {
        self.results.remove(rob_slot);
        self.branches.remove(rob_slot);
        self.tainted.remove(rob_slot);
    }

    /// A squash left the LQ and ROB entries `[0, len)` from each ring's
    /// `(head, len)`: drops the bits of everything younger.
    pub(crate) fn retain_live(&mut self, lq: (usize, usize), rob: (usize, usize)) {
        self.loads.retain_live(lq.0, lq.1);
        self.due.retain_live(lq.0, lq.1);
        for set in [
            &mut self.results,
            &mut self.branches,
            &mut self.tainted,
            &mut self.due_branches,
        ] {
            set.retain_live(rob.0, rob.1);
        }
    }

    fn row(&self, sq_slot: usize) -> std::ops::Range<usize> {
        let n = self.due.words.len();
        sq_slot * n..sq_slot * n + n
    }

    /// Parks the load in `lq_slot` on the store in `sq_slot`.
    pub(crate) fn wait_on_store(&mut self, sq_slot: usize, lq_slot: usize) {
        let row = self.row(sq_slot);
        self.waiters[row][lq_slot / 64] |= 1 << (lq_slot % 64);
    }

    /// Whether the load in `lq_slot` is parked on the store in `sq_slot`.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn waits_on_store(&self, sq_slot: usize, lq_slot: usize) -> bool {
        self.waiters[self.row(sq_slot)][lq_slot / 64] >> (lq_slot % 64) & 1 != 0
    }

    /// The store in `sq_slot` changed: its live waiters (LQ entries
    /// `[0, lq_len)` from `lq_head`) become due and the row empties.
    /// Bits of loads squashed since they parked are dropped here.
    pub(crate) fn wake_store(&mut self, sq_slot: usize, lq_head: usize, lq_len: usize) {
        let row = self.row(sq_slot);
        for (w, bits) in self.waiters[row].iter_mut().enumerate() {
            if *bits != 0 {
                self.due.words[w] |= *bits & self.due.span_mask(w, lq_head, lq_len);
                *bits = 0;
            }
        }
    }

    /// Empties the row of a squashed store (its waiters are younger, so
    /// squashed with it).
    pub(crate) fn clear_store(&mut self, sq_slot: usize) {
        let row = self.row(sq_slot);
        self.waiters[row].fill(0);
    }

    /// Whether the row of `sq_slot` is empty.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn store_row_is_empty(&self, sq_slot: usize) -> bool {
        self.waiters[self.row(sq_slot)].iter().all(|&w| w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(s: &SlotSet, head: usize, len: usize) -> Vec<usize> {
        let (mut seen, mut from) = (Vec::new(), 0);
        while let Some((i, slot)) = s.next(head, from, len) {
            assert_eq!(slot, (head + i) & s.mask);
            seen.push(i);
            from = i + 1;
        }
        seen
    }

    #[test]
    fn park_and_release_by_bound_in_age_order() {
        let mut parked = SlotSet::new(16);
        let mut due = SlotSet::new(16);
        let head = 5;
        // Parked out of age order, as loads lock out of order.
        for i in [7, 2, 9, 4] {
            parked.insert((head + i) % 16);
        }
        // The visibility point passes logical entries 0..=4.
        parked.release_into(&mut due, head, 5);
        assert_eq!(members(&due, head, 12), [2, 4]);
        assert_eq!(members(&parked, head, 12), [7, 9]);
        // Releasing the same bound again moves nothing.
        parked.release_into(&mut due, head, 5);
        assert_eq!(members(&due, head, 12), [2, 4]);
        // No caster left: everything goes.
        parked.release_into(&mut due, head, 12);
        assert!(parked.is_empty());
        assert_eq!(members(&due, head, 12), [2, 4, 7, 9]);
    }

    #[test]
    fn walks_and_releases_across_the_wrap() {
        for slots in [16, 128, 512] {
            let mut s = SlotSet::new(slots);
            let head = slots - 3;
            // Logical 1 and 2 sit before the wrap to slot 0; 5 and 12 after it.
            for i in [1, 2, 5, 12] {
                s.insert((head + i) % slots);
            }
            assert_eq!(members(&s, head, 14), [1, 2, 5, 12], "{slots} slots");
            let mut to = SlotSet::new(slots);
            s.release_into(&mut to, head, 6);
            assert_eq!(members(&to, head, 14), [1, 2, 5], "{slots} slots");
            assert_eq!(members(&s, head, 14), [12], "{slots} slots");
        }
    }

    #[test]
    fn stale_members_are_skipped_and_dropped() {
        let mut s = SlotSet::new(64);
        let head = 60;
        for i in [0, 3, 6, 9] {
            s.insert((head + i) % 64);
        }
        // A squash leaves 5 live entries: the walk stops at the live end
        // and `retain_live` drops the rest.
        assert_eq!(members(&s, head, 5), [0, 3]);
        s.retain_live(head, 5);
        assert_eq!(members(&s, head, 64), [0, 3]);
        s.retain_live(head, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn waiter_lists_park_wake_and_unlink_in_o1() {
        let mut lists = WaiterLists::new(16, 65);
        let mut awake = SlotSet::new(16);
        lists.park(3, 40);
        lists.park(5, 40);
        lists.park(9, 64);
        assert_eq!(lists.links(&awake), [(40, 5), (40, 3), (64, 9)]);
        lists.unlink(5); // squashed while linked
        assert_eq!(lists.links(&awake), [(40, 3), (64, 9)]);
        lists.wake_into(40, &mut awake);
        assert!(lists.is_empty(40));
        assert_eq!(members(&awake, 0, 16), [3]);
        lists.unlink(9); // the only waiter of its list
        assert!(lists.is_empty(64) && lists.links(&awake).is_empty());
    }

    #[test]
    fn store_capture_holds_each_store_in_one_place() {
        let mut c = StoreCapture::new(8, 64);
        c.park(2, 40);
        c.park(6, 40);
        c.park(7, 41);
        c.wake(40);
        assert_eq!(members(&c.due, 0, 8), [2, 6]);
        assert_eq!(c.links(), [(41, 7)]);
        c.remove(6); // squashed while due
        c.remove(7); // squashed while waiting
        assert_eq!(members(&c.due, 0, 8), [2]);
        assert!(c.links().is_empty());
        c.wake(41); // nothing left on it
        assert_eq!(members(&c.due, 0, 8), [2]);
    }

    #[test]
    fn store_rows_wake_only_live_waiters() {
        let mut v = VisWake::new(128, 8, 16);
        let (lq_head, lq_len) = (120, 20); // live LQ slots 120..=127 and 0..=11
        v.wait_on_store(3, 125);
        v.wait_on_store(3, 2);
        v.wait_on_store(3, 40); // squashed since it parked
        v.wait_on_store(4, 126);
        assert!(v.waits_on_store(3, 2) && !v.waits_on_store(4, 2));
        v.wake_store(3, lq_head, lq_len);
        assert!(v.store_row_is_empty(3));
        assert_eq!(members(&v.due, lq_head, lq_len), [5, 10]);
        assert!(!v.due.contains(40));
        v.clear_store(4);
        assert!(v.store_row_is_empty(4));
        assert!(!v.due.contains(126));
    }
}
