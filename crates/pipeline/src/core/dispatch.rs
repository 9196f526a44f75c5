//! Dispatch stage: rename, resource allocation (ROB/IQ/LQ/SQ), shadow
//! casting, and decode-time doppelganger address prediction.

use super::*;

impl Core {
    pub(super) fn dispatch_stage(&mut self) {
        for _ in 0..self.cfg.decode_width {
            let Some(inst) = self.front.ready_head(self.cycle, self.cfg.frontend_depth) else {
                break;
            };
            let (pc, op) = (inst.pc, inst.op);
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
            // The head's prediction fields are read in place, then the
            // fetch-queue entry is dropped.
            let fq = self.front.queue();
            let branch =
                matches!(op, Op::Branch { .. } | Op::JumpReg { .. } | Op::Ret).then(|| {
                    BranchInfo {
                        predicted_taken: fq.predicted_taken(0),
                        predicted_next: fq.predicted_next(0),
                        actual_taken: None,
                        actual_next: None,
                        history_checkpoint: fq.history_checkpoint(0),
                        ras_checkpoint: fq.ras_checkpoint(0),
                        resolved: false,
                    }
                });
            let fetch_cycle = fq.fetch_cycle(0);
            self.front.drop_ready();
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
                self.emit_stage(seq, pc, kind, Stage::Fetch, fetch_cycle);
                self.emit_stage(seq, pc, kind, Stage::Decode, self.cycle);
                self.emit_stage(seq, pc, kind, Stage::Rename, self.cycle);
                self.emit_stage(seq, pc, kind, Stage::Dispatch, self.cycle);
            }
            let srcs = op.srcs().map(|r| self.rf.map(r));
            let dst = op.dst().map(|d| {
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
                (d, new, old)
            });
            let mut state = ExecState::Waiting;
            match op {
                Op::Branch { .. } | Op::JumpReg { .. } | Op::Ret => self.shadows.cast(seq),
                Op::Load { width, .. } => {
                    let pred = self.ap.predict_at_decode(Self::pc_addr(pc));
                    let dgl = match pred {
                        Some(predicted) => {
                            self.note_dgl(seq, pc, DglEvent::Predicted { predicted });
                            DoppelgangerState::predicted(predicted)
                        }
                        None => DoppelgangerState::unpredicted(),
                    };
                    // DoM+VP comparison mode: the predicted *value*
                    // propagates immediately; validation happens when
                    // the real load completes (squash on mismatch).
                    let mut vp = None;
                    if let Some(predictor) = &mut self.vp {
                        let pred = predictor.predict(Self::pc_addr(pc));
                        if let (Some(v), Some((arch, preg, _))) = (pred, dst) {
                            if !arch.is_zero() {
                                self.rf.write(preg, v);
                                self.rf.propagate(preg);
                                vp = Some(v);
                                self.stats.vp_predicted += 1;
                            }
                        }
                    }
                    self.lq.push(LqEntry {
                        dispatch_cycle: self.cycle,
                        vp,
                        ..LqEntry::new(seq, pc, width, dgl)
                    });
                    if pred.is_some() {
                        let slot = self.lq.handle(self.lq.len() - 1).slot;
                        self.mem_sets.dgl.insert(slot);
                    }
                }
                Op::Store { width, .. } => {
                    self.sq
                        .push(SqEntry::new(seq, pc, width, srcs.as_slice()[0]));
                    // D-shadow until the address resolves.
                    self.shadows.cast(seq);
                }
                // Halts complete at once; direct jumps are fully
                // handled at fetch.
                Op::Halt | Op::Jump { .. } => state = ExecState::Completed,
                _ => {}
            }
            self.rob.push(RobEntry {
                seq,
                pc,
                op,
                dst,
                srcs,
                state,
                branch,
                in_iq: needs_iq,
                out_taint: None,
                locked: false,
            });
            let rob = self.rob.handle(self.rob.len() - 1);
            if let Some((_, new, _)) = dst {
                // NDA-P-eager finds a register's producer through this.
                self.producer[new.0 as usize] = rob;
            }
            if needs_iq {
                // Unevaluated yet: next tick's issue stage looks at it.
                self.iq.insert(rob.slot);
            }
        }
    }
}
