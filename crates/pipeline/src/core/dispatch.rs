//! Dispatch stage: rename, resource allocation (ROB/IQ/LQ/SQ), shadow
//! casting, and decode-time doppelganger address prediction.

use super::*;

impl Core {
    pub(super) fn dispatch_stage(&mut self, program: &Program) {
        for _ in 0..self.cfg.decode_width {
            let Some(fetched) = self.front.peek_ready(self.cycle, self.cfg.frontend_depth) else {
                break;
            };
            let op = fetched.inst.op;
            // Structural hazards: check everything before consuming.
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let needs_iq = !matches!(op, Op::Halt | Op::Jump { .. });
            if needs_iq && self.iq.len() >= self.cfg.iq_entries {
                break;
            }
            if op.is_load() && self.lq.len() >= self.cfg.lq_entries {
                break;
            }
            if op.is_store() && self.sq.len() >= self.cfg.sq_entries {
                break;
            }
            if op.dst().is_some_and(|d| !d.is_zero()) && self.rf.free_count() == 0 {
                break;
            }
            let fetched = self
                .front
                .take_ready(self.cycle, self.cfg.frontend_depth)
                .expect("peeked");
            let seq = self.next_seq;
            self.next_seq += 1;
            self.tick_activity = true;
            // An instruction entered the ROB: the post-squash refill
            // gap (if one was open) is over.
            self.cpi.note_dispatch();
            if self.sink.is_some() {
                // Decode/rename/dispatch are one cycle in this model;
                // the stamps share a cycle but keep their stage order.
                let kind = inst_kind(op);
                self.emit_stage(
                    seq,
                    fetched.inst.pc,
                    kind,
                    Stage::Fetch,
                    fetched.fetch_cycle,
                );
                self.emit_stage(seq, fetched.inst.pc, kind, Stage::Decode, self.cycle);
                self.emit_stage(seq, fetched.inst.pc, kind, Stage::Rename, self.cycle);
                self.emit_stage(seq, fetched.inst.pc, kind, Stage::Dispatch, self.cycle);
            }
            let mut entry = RobEntry::new(seq, fetched.inst.pc, op);
            entry.srcs = op.srcs().map(|r| self.rf.map(r));
            if let Some(d) = op.dst() {
                let (new, old) = self.rf.rename(d).expect("checked free list");
                // Every consumer of the register's previous life has
                // issued or been squashed, so no entry waits on it.
                debug_assert!(
                    self.iq.is_empty(new.0 as usize),
                    "renamed p{} has waiters",
                    new.0
                );
                if rules::tracks_taint(self.scheme) {
                    self.taint.set(new, None);
                }
                entry.dst = Some((d, new, old));
            }
            match op {
                Op::Branch { .. } | Op::JumpReg { .. } | Op::Ret => {
                    entry.branch = Some(BranchInfo {
                        predicted_taken: fetched.predicted_taken,
                        predicted_next: fetched.predicted_next,
                        actual_taken: None,
                        actual_next: None,
                        history_checkpoint: fetched.history_checkpoint,
                        ras_checkpoint: fetched.ras_checkpoint,
                        resolved: false,
                    });
                    self.shadows.cast(seq);
                }
                Op::Load { width, .. } => {
                    let pred = if self.ap_enabled {
                        self.ap.predict_at_decode(Self::pc_addr(fetched.inst.pc))
                    } else {
                        None
                    };
                    let dgl = match pred {
                        Some(predicted) => {
                            self.note_dgl(seq, fetched.inst.pc, DglEvent::Predicted { predicted });
                            DoppelgangerState::predicted(predicted)
                        }
                        None => DoppelgangerState::unpredicted(),
                    };
                    let mut lq_entry = LqEntry::new(seq, fetched.inst.pc, width, dgl);
                    lq_entry.dispatch_cycle = self.cycle;
                    // DoM+VP comparison mode: the predicted *value*
                    // propagates immediately; validation happens when
                    // the real load completes (squash on mismatch).
                    if let Some(vp) = &mut self.vp {
                        let pred = vp.predict(Self::pc_addr(fetched.inst.pc));
                        if let (Some(v), Some((arch, preg, _))) = (pred, entry.dst) {
                            if !arch.is_zero() {
                                self.rf.write(preg, v);
                                self.rf.propagate(preg);
                                lq_entry.vp = Some(v);
                                self.stats.vp_predicted += 1;
                            }
                        }
                    }
                    self.lq.push(lq_entry);
                    if pred.is_some() {
                        let slot = self.lq.handle(self.lq.len() - 1).slot;
                        self.mem_sets.dgl.insert(slot);
                    }
                }
                Op::Store { width, .. } => {
                    let data_src = entry.srcs.as_slice()[0];
                    self.sq
                        .push(SqEntry::new(seq, fetched.inst.pc, width, data_src));
                    // D-shadow until the address resolves.
                    self.shadows.cast(seq);
                }
                Op::Halt => {
                    entry.state = ExecState::Completed;
                }
                Op::Jump { .. } => {
                    // Direct jumps are fully handled at fetch.
                    entry.state = ExecState::Completed;
                }
                _ => {}
            }
            entry.in_iq = needs_iq;
            self.rob.push(entry);
            if needs_iq {
                // Unevaluated yet: next tick's issue stage looks at it.
                self.iq.insert(self.rob.handle(self.rob.len() - 1).slot);
            }
            let _ = program;
        }
    }
}
