//! Issue stage: wakes issue-queue entries whose blocking register (or
//! the taint set) moved, and selects ready ones into execution under
//! the operand-readiness and transmitter-gating rules.

use super::*;

impl Core {
    pub(super) fn issue_stage(&mut self) {
        // Wake-up: a register's visibility transition moves its waiters
        // into the ready set, and any taint change moves every
        // taint-gated store. Nothing else can make a linked entry ready.
        self.drain_woken();
        if self.taint.version() != self.iq_taint_seen {
            self.iq_taint_seen = self.taint.version();
            self.iq.wake(self.iq.taint_list());
        }
        if self.iq.len() == 0 {
            return;
        }
        // Select: the ready set in age order (from the ROB head), each
        // entry evaluated until the width is spent. A blocked entry is
        // linked where its wake-up will come from; linked entries are
        // never ready, so this issues exactly the oldest ready entries.
        let head = self.rob.handle(0).slot;
        let mut budget = self.cfg.issue_width;
        let mut from = 0;
        while budget > 0 {
            let Some((idx, slot)) = self.iq.next_ready(head, from, self.rob.len()) else {
                break;
            };
            from = idx + 1;
            debug_assert!(self.rob.in_iq(idx) && self.rob.state(idx) == ExecState::Waiting);
            if let Some(p) = self.issue_blocker(idx) {
                self.iq.park(slot, p.0 as usize);
                continue;
            }
            if self.taint_gated(idx) {
                self.iq.park(slot, self.iq.taint_list());
                continue;
            }
            let seq = self.rob.seq(idx);
            let pc = self.rob.pc(idx);
            let op = self.rob.op(idx);
            // An eager read of a still-locked value breaks §4.4's
            // no-consumer precondition for in-place repair: record it
            // so the producing load squashes instead.
            if self.reads_unpropagated(idx) {
                for &p in self.rob.srcs(idx).as_slice() {
                    if !self.rf.is_propagated(p) {
                        self.note_unpropagated_read(p);
                    }
                }
            }
            let kind = if op.is_load() || op.is_store() {
                EventKind::AguDone
            } else {
                EventKind::ExecDone
            };
            *self.rob.state_mut(idx) = ExecState::Issued;
            *self.rob.in_iq_mut(idx) = false;
            self.iq.remove(slot);
            let ev = Event {
                seq,
                rob: self.rob.handle(idx),
                kind,
            };
            self.events
                .push(self.cycle, self.cycle + op.latency() as u64, ev);
            budget -= 1;
            self.tick_activity = true;
            self.emit_stage(seq, pc, inst_kind(op), Stage::Issue, self.cycle);
        }
    }

    /// The first source register that keeps ROB entry `idx` from
    /// issuing. Stores issue their AGU once the *base* is propagated
    /// (the data register may lag, captured later); NDA-P-eager
    /// branches need their sources only ready; everything else needs
    /// them propagated. An entry blocked on `p` cannot turn ready until
    /// `p` transitions, so it waits on `p`'s list.
    pub(super) fn issue_blocker(&self, idx: usize) -> Option<PhysReg> {
        let srcs = self.rob.srcs(idx);
        if self.rob.op(idx).is_store() {
            let base = srcs.as_slice()[1];
            return (!self.rf.is_propagated(base)).then_some(base);
        }
        let eager = self.reads_unpropagated(idx);
        srcs.as_slice().iter().copied().find(|&p| {
            if eager {
                !self.rf.is_ready(p)
            } else {
                !self.rf.is_propagated(p)
            }
        })
    }

    /// NDA-P-eager: branch-like instructions may read operands whose
    /// value is *ready* but not yet propagated (still scheme-locked).
    /// Load/store address operands never get this shortcut, so the
    /// explicit Spectre-v1 channel stays closed.
    fn reads_unpropagated(&self, idx: usize) -> bool {
        rules::branch_reads_unpropagated(self.scheme) && self.rob.branch(idx).is_some()
    }

    /// STT: store address generation is delayed while the address
    /// operand is tainted (implicit store-to-load-forwarding channel).
    /// Untainting is lazy, so such stores wait on the taint list and
    /// wake whenever the tracker's version moves.
    pub(super) fn taint_gated(&self, idx: usize) -> bool {
        rules::tracks_taint(self.scheme)
            && self.rob.op(idx).is_store()
            && self.taint.is_tainted(self.rob.srcs(idx).as_slice()[1])
    }

    /// Records that an eagerly-issued branch read `preg` before it was
    /// propagated. If the producer is a load still in the LQ, its
    /// repair on a store-order violation or coherence invalidation must
    /// squash rather than override in place — a consumer has observed
    /// the old value.
    fn note_unpropagated_read(&mut self, preg: PhysReg) {
        // The register's producer renamed it at dispatch; its handle
        // resolves only while that instruction is in the ROB.
        let Some(i) = self.rob.resolve(self.producer[preg.0 as usize]) else {
            return;
        };
        debug_assert!(matches!(self.rob.dst(i), Some((_, p, _)) if p == preg));
        if let Some(li) = self.lq_index(self.rob.seq(i)) {
            *self.lq.eager_consumed_mut(li) = true;
        }
    }
}
