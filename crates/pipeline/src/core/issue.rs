//! Issue stage: wakes ready instructions from the issue queue into
//! execution, applying operand-readiness and transmitter-gating rules.

use super::*;

impl Core {
    pub(super) fn issue_stage(&mut self) {
        // Whole-scan skip: the previous scan left every entry parked,
        // and no wake source (register visibility, taint set) has moved
        // since — re-walking the list would skip every entry anyway.
        // This is the common shape of a long memory stall.
        if self.iq_quiesced
            && self.rf.clock() == self.iq_seen_clock
            && self.taint.version() == self.iq_seen_taint
        {
            return;
        }
        let mut budget = self.cfg.issue_width;
        // The IQ list holds exactly the waiting entries in age order, so
        // the select loop touches no empty ROB slots. Issued entries are
        // compacted out in place (write pointer `w`); taken out of
        // `self` so the borrow does not overlap the `&mut self` work.
        let mut iq = std::mem::take(&mut self.iq);
        let mut w = 0;
        let mut quiesced = true;
        for r in 0..iq.len() {
            if budget == 0 {
                // Width exhausted: the untouched tail keeps its order.
                // Only shift it when compaction already started. The
                // tail was not examined, so the list is not quiescent.
                if w != r {
                    iq.copy_within(r.., w);
                }
                w += iq.len() - r;
                quiesced = false;
                break;
            }
            let mut e = iq[r];
            // A parked entry's cached not-ready verdict holds while the
            // blocking input is unchanged — skip it without touching
            // operands.
            let still_parked = match e.park {
                IqPark::Reg(p, stamp) => self.rf.stamp(p) == stamp,
                IqPark::Taint(v) => self.taint.version() == v,
                IqPark::None => false,
            };
            if still_parked {
                if w != r {
                    iq[w] = e;
                }
                w += 1;
                continue;
            }
            let idx = self
                .rob
                .resolve(e.h)
                .expect("IQ entry outlived its ROB slot");
            debug_assert_eq!(self.rob.seq(idx), e.seq);
            debug_assert!(self.rob.in_iq(idx));
            if self.rob.state(idx) != ExecState::Waiting {
                // Kept but unparked: must be re-examined next tick.
                quiesced = false;
                if w != r {
                    iq[w] = e;
                }
                w += 1;
                continue;
            }
            let op = self.rob.op(idx);
            let srcs = self.rob.srcs(idx);
            // NDA-P-eager: branch-like instructions may read operands
            // whose value is *ready* in the register file but not yet
            // propagated (still scheme-locked). Load/store address
            // operands never get this shortcut, so the explicit
            // Spectre-v1 channel stays closed.
            let eager =
                self.rob.branch(idx).is_some() && rules::branch_reads_unpropagated(self.scheme);
            // Stores issue their AGU as soon as the *base* register is
            // available; the data register may lag (captured later).
            // The first blocking source becomes the entry's park: its
            // visibility must transition before readiness can flip.
            let blocking = if op.is_store() {
                let base = srcs.as_slice()[1];
                (!self.rf.is_propagated(base)).then_some(base)
            } else if eager {
                srcs.as_slice()
                    .iter()
                    .copied()
                    .find(|&p| !self.rf.is_ready(p))
            } else {
                srcs.as_slice()
                    .iter()
                    .copied()
                    .find(|&p| !self.rf.is_propagated(p))
            };
            if let Some(p) = blocking {
                e.park = IqPark::Reg(p, self.rf.stamp(p));
                iq[w] = e;
                w += 1;
                continue;
            }
            // STT: store address generation is delayed while the address
            // operand is tainted (implicit store-to-load-forwarding
            // channel). Untainting is lazy, so the park keys on the
            // tracker's global version.
            if rules::tracks_taint(self.scheme)
                && op.is_store()
                && self.taint.is_tainted(srcs.as_slice()[1])
            {
                e.park = IqPark::Taint(self.taint.version());
                iq[w] = e;
                w += 1;
                continue;
            }
            let seq = self.rob.seq(idx);
            let pc = self.rob.pc(idx);
            let latency = op.latency() as u64;
            // An eager read of a still-locked value breaks §4.4's
            // no-consumer precondition for in-place repair: record it
            // so the producing load squashes instead.
            if eager {
                for &p in srcs.as_slice() {
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
            // Issued: not written back through `w`, so compaction drops
            // it from the IQ list.
            self.events.push(Reverse((self.cycle + latency, seq, kind)));
            budget -= 1;
            self.tick_activity = true;
            self.emit_stage(seq, pc, inst_kind(op), Stage::Issue, self.cycle);
        }
        iq.truncate(w);
        self.iq = iq;
        // Every survivor carries a park verdict keyed to the stamps /
        // version recorded here; dispatch clears the flag when it
        // appends unexamined entries. The scan itself writes no
        // registers and no taint, so reading the clocks after the loop
        // is the same as reading them before it.
        self.iq_quiesced = quiesced;
        self.iq_seen_clock = self.rf.clock();
        self.iq_seen_taint = self.taint.version();
    }

    /// Records that an eagerly-issued branch read `preg` before it was
    /// propagated. If the producer is a load still in the LQ, its
    /// repair on a store-order violation or coherence invalidation must
    /// squash rather than override in place — a consumer has observed
    /// the old value.
    fn note_unpropagated_read(&mut self, preg: PhysReg) {
        let producer = (0..self.rob.len()).find_map(|i| match self.rob.dst(i) {
            Some((_, p, _)) if p == preg => Some(self.rob.seq(i)),
            _ => None,
        });
        if let Some(seq) = producer {
            if let Some(li) = self.lq_index(seq) {
                *self.lq.eager_consumed_mut(li) = true;
            }
        }
    }
}
