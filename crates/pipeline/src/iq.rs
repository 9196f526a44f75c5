//! Issue-queue wake-up: waiter lists and an age-ordered ready set.
//!
//! Each waiting entry, named by its physical ROB slot, is in exactly one
//! place: the ready set (a bitset the issue stage walks oldest-first),
//! the waiter list of the register that last blocked it, or the taint
//! list of stores held by STT's store-address gate. Lists are numbered
//! by physical register, with the taint list last; they are the shared
//! [`WaiterLists`], so link, wake and unlink are O(1) per entry and
//! nothing allocates per cycle. `docs/INTERNALS.md` ("Issue-queue
//! wake-up") gives the byte-identity argument.

use crate::wake::{SlotSet, WaiterLists};

/// Waiter lists plus the ready bitset (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct IssueQueue {
    /// Occupied entries: ready plus linked.
    len: usize,
    /// The entries to evaluate.
    ready: SlotSet,
    /// One list per physical register, then the taint list.
    lists: WaiterLists,
}

impl IssueQueue {
    /// An empty queue over `rob_slots` ROB slots (a power of two) with
    /// one list per physical register plus the taint list.
    pub(crate) fn new(rob_slots: usize, phys_regs: usize) -> Self {
        // Values here only fill the struct: `reset` sets the state.
        let mut iq = Self {
            len: 0,
            ready: SlotSet::new(rob_slots),
            lists: WaiterLists::new(rob_slots, phys_regs + 1),
        };
        iq.reset();
        iq
    }

    /// Empties the queue, the state [`new`](Self::new) builds.
    pub(crate) fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self { len, ready, lists } = self;
        *len = 0;
        ready.clear();
        lists.reset();
    }

    /// Occupied entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The list of stores held by STT's store-address gate.
    pub(crate) fn taint_list(&self) -> usize {
        self.lists.lists() - 1
    }

    /// Adds a freshly dispatched entry to the ready set.
    pub(crate) fn insert(&mut self, slot: usize) {
        self.len += 1;
        self.ready.insert(slot);
    }

    /// Removes an entry (issued or squashed) from wherever it sits.
    pub(crate) fn remove(&mut self, slot: usize) {
        self.len -= 1;
        if self.is_ready(slot) {
            self.ready.remove(slot);
        } else {
            self.lists.unlink(slot);
        }
    }

    /// Moves a ready-set entry onto `list`.
    pub(crate) fn park(&mut self, slot: usize, list: usize) {
        debug_assert!(
            self.is_ready(slot),
            "parking an entry outside the ready set"
        );
        self.ready.remove(slot);
        self.lists.park(slot, list);
    }

    /// Moves every entry on `list` into the ready set.
    #[inline]
    pub(crate) fn wake(&mut self, list: usize) {
        self.lists.wake_into(list, &mut self.ready);
    }

    /// Whether `list` is empty.
    pub(crate) fn is_empty(&self, list: usize) -> bool {
        self.lists.is_empty(list)
    }

    /// The oldest ready entry at logical ROB index `from` or younger,
    /// as `(logical index, slot)`, for a ROB of `len` entries whose
    /// oldest sits in physical slot `rob_head`.
    pub(crate) fn next_ready(
        &self,
        rob_head: usize,
        from: usize,
        len: usize,
    ) -> Option<(usize, usize)> {
        self.ready.next(rob_head, from, len)
    }

    /// Whether the entry in `slot` is in the ready set.
    pub(crate) fn is_ready(&self, slot: usize) -> bool {
        self.ready.contains(slot)
    }

    /// Every `(list, slot)` link, list by list, after checking that each
    /// `prev` agrees with the walk and no linked slot is also ready.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn links(&self) -> Vec<(usize, usize)> {
        self.lists.links(&self.ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_wake_and_unlink_keep_every_entry_in_one_place() {
        let mut q = IssueQueue::new(16, 64);
        let ready = |q: &IssueQueue| (0..16).filter(|&s| q.is_ready(s)).collect::<Vec<_>>();
        for s in [3, 5, 9] {
            q.insert(s);
        }
        q.park(3, 40);
        q.park(5, 40);
        q.park(9, q.taint_list());
        assert_eq!(q.links(), [(40, 5), (40, 3), (64, 9)]);
        q.remove(5); // squashed while linked
        assert_eq!(q.links(), [(40, 3), (64, 9)]);
        q.wake(40);
        assert!(q.is_empty(40));
        assert_eq!(ready(&q), [3]);
        q.wake(q.taint_list());
        assert_eq!(ready(&q), [3, 9]);
        q.remove(3);
        q.remove(9);
        assert_eq!((q.len(), q.links()), (0, vec![]));
    }

    #[test]
    fn next_ready_walks_oldest_first_across_the_wrap() {
        for slots in [16, 128] {
            let mut q = IssueQueue::new(slots, 64);
            let head = slots - 3;
            // Logical 1 and 2 sit before the wrap to slot 0; 5 and 12 after it.
            for i in [1, 2, 5, 12] {
                q.insert((head + i) % slots);
            }
            let (mut seen, mut from) = (Vec::new(), 0);
            while let Some((i, s)) = q.next_ready(head, from, 14) {
                assert_eq!(s, (head + i) % slots);
                seen.push(i);
                from = i + 1;
            }
            assert_eq!(seen, [1, 2, 5, 12], "{slots} slots");
        }
    }
}
