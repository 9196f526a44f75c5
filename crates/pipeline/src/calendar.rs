//! Completion calendar: functional-unit and AGU completions, bucketed
//! by the cycle they land in.
//!
//! Every completion is scheduled at issue, at most `Op::latency` cycles
//! ahead, so a ring of one bucket per cycle, longer than the longest
//! latency, never holds two cycles in one bucket. Each entry carries the
//! ROB [`SlotHandle`] of its instruction: the handler finds the entry by
//! one generation-checked lookup, and an entry squashed since it issued
//! fails that check. A bucket drains in ascending `seq`, the order the
//! binary heap it replaces popped in. `docs/INTERNALS.md` ("Completion
//! calendar") gives the byte-identity argument.

use crate::shadow::Seq;
use crate::soa::SlotHandle;
use dgl_isa::AluOp;

/// Ring length: one bucket per cycle, a power of two.
const SLOTS: usize = 16;

// A completion `latency` cycles ahead must land in a bucket no earlier
// cycle still owns.
const _: () = {
    let mut i = 0;
    while i < AluOp::ALL.len() {
        assert!((AluOp::ALL[i].latency() as usize) < SLOTS);
        i += 1;
    }
};

/// What completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// ALU, branch or jump execution.
    ExecDone,
    /// Address generation of a load or store.
    AguDone,
}

/// One scheduled completion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) seq: Seq,
    pub(crate) rob: SlotHandle,
    pub(crate) kind: EventKind,
}

/// The ring of per-cycle buckets (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Calendar {
    buckets: Box<[Vec<Event>]>,
}

impl Calendar {
    pub(crate) fn new() -> Self {
        Self {
            buckets: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }

    /// Drops every scheduled completion, keeping the buckets'
    /// allocations.
    pub(crate) fn reset(&mut self) {
        for b in self.buckets.iter_mut() {
            b.clear();
        }
    }

    fn bucket(cycle: u64) -> usize {
        cycle as usize & (SLOTS - 1)
    }

    /// Schedules `ev` to complete at cycle `at`, `now < at < now + SLOTS`.
    pub(crate) fn push(&mut self, now: u64, at: u64, ev: Event) {
        debug_assert!(
            now < at && at - now < SLOTS as u64,
            "completion out of range"
        );
        let b = &mut self.buckets[Self::bucket(at)];
        // Issue is in age order, so entries usually arrive sorted; an
        // older one arrives later only when its latency is shorter.
        let i = b.partition_point(|e| e.seq < ev.seq);
        b.insert(i, ev);
    }

    /// Takes the completions of cycle `now`, oldest first. Hand the
    /// buffer back through [`restore`](Self::restore) so its capacity
    /// is reused.
    pub(crate) fn take(&mut self, now: u64) -> Vec<Event> {
        std::mem::take(&mut self.buckets[Self::bucket(now)])
    }

    /// Returns a drained buffer from [`take`](Self::take).
    pub(crate) fn restore(&mut self, now: u64, mut buf: Vec<Event>) {
        buf.clear();
        let b = &mut self.buckets[Self::bucket(now)];
        debug_assert!(b.is_empty(), "completion scheduled while draining");
        *b = buf;
    }

    /// The earliest cycle after `now` with a completion scheduled.
    pub(crate) fn next_after(&self, now: u64) -> Option<u64> {
        (now + 1..now + SLOTS as u64).find(|&c| !self.buckets[Self::bucket(c)].is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: Seq) -> Event {
        Event {
            seq,
            rob: SlotHandle { slot: 0, gen: 0 },
            kind: EventKind::ExecDone,
        }
    }

    fn seqs(v: &[Event]) -> Vec<Seq> {
        v.iter().map(|e| e.seq).collect()
    }

    #[test]
    fn buckets_drain_oldest_first() {
        let mut c = Calendar::new();
        // Cycle 10: a younger multiply lands at 13, then an older add
        // issued two cycles later lands in the same cycle.
        c.push(10, 13, ev(8));
        c.push(10, 11, ev(7));
        c.push(12, 13, ev(5));
        c.push(12, 13, ev(9));
        assert_eq!(c.next_after(10), Some(11));
        let due = c.take(11);
        assert_eq!(seqs(&due), [7]);
        c.restore(11, due);
        assert_eq!(c.next_after(11), Some(13));
        let due = c.take(13);
        assert_eq!(seqs(&due), [5, 8, 9]);
        c.restore(13, due);
        assert_eq!(c.next_after(13), None);
    }

    #[test]
    fn the_longest_latency_lands_in_its_own_cycle() {
        let mut c = Calendar::new();
        let now = 30;
        let far = now + AluOp::Div.latency() as u64;
        c.push(now, far, ev(1));
        c.push(now, now + 1, ev(2));
        for cycle in now + 1..far {
            assert_eq!(
                c.next_after(cycle - 1),
                Some(if cycle == now + 1 { cycle } else { far })
            );
            let due = c.take(cycle);
            assert_eq!(seqs(&due), if cycle == now + 1 { vec![2] } else { vec![] });
            c.restore(cycle, due);
        }
        assert_eq!(seqs(&c.take(far)), [1]);
        assert_eq!(c.next_after(far), None);
    }
}
