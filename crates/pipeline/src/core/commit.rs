//! Commit stage: in-order retirement, architectural updates, predictor
//! training, and deferred DoM replacement touches.

use super::*;

impl Core {
    pub(super) fn commit_stage(&mut self, _program: &Program) {
        let mut committed_now = 0usize;
        for _ in 0..self.cfg.commit_width {
            if self.rob.is_empty() {
                break;
            }
            let seq = self.rob.seq(0);
            // Give locked results a final unlock chance: the head is by
            // definition non-speculative.
            if self.rob.locked(0) {
                if self.rob.op(0).is_load() {
                    // The oldest instruction's load is the oldest load.
                    debug_assert_eq!(self.lq.seq(0), seq);
                    self.try_propagate_load(0);
                } else {
                    self.try_unlock_result(0);
                }
            }
            if self.rob.is_empty() || !self.rob.can_commit(0) {
                break;
            }
            let op = self.rob.op(0);
            let pc = self.rob.pc(0);
            // Indirect jump off the program: architectural error,
            // matching the golden model.
            if let (Op::JumpReg { .. } | Op::Ret, Some(b)) = (op, self.rob.branch(0)) {
                if b.actual_next == Some(usize::MAX) {
                    let target = self.rf.read(self.rob.srcs(0).as_slice()[0]) as u64;
                    self.bad_indirect = Some((pc, target));
                    return;
                }
            }
            if op.is_store() {
                if self.store_buffer.len() >= self.cfg.store_buffer_entries {
                    break; // stall until the buffer drains
                }
                // Loads parked on this store search past it from now on.
                self.wake_store_waiters(0);
                debug_assert_eq!(self.sq.seq(0), seq);
                let addr = self.sq.addr(0).expect("committed store has addr");
                let data = self.sq.data(0).expect("committed store has data");
                self.data.write(addr, data as u64, self.sq.width(0));
                self.sq.drop_front();
                self.store_buffer.push_back(SbEntry { addr, req: None });
                self.stats.committed_stores += 1;
                if let Some(log) = self.commit_log.as_mut() {
                    log.push(dgl_isa::ArchEvent::Store { pc, addr });
                }
            }
            if op.is_load() {
                let slot = self.lq.handle(0).slot;
                self.vis.forget_load(slot);
                self.mem_sets.forget_load(slot);
                debug_assert_eq!(self.lq.seq(0), seq);
                let addr = self.lq.addr(0).expect("committed load has addr");
                let pc_a = Self::pc_addr(pc);
                // Security invariant: the predictor trains *here*, and
                // only here — on committed, non-speculative loads.
                self.ap.train_at_commit(pc_a, addr);
                let dgl = self.lq.dgl(0);
                self.ap.note_commit_outcome(
                    dgl.is_predicted(),
                    dgl.verification() == Verification::Correct,
                );
                if self.lq.needs_touch(0) {
                    // DoM's retroactive replacement update.
                    self.mem.touch_l1(addr);
                }
                if let Some(vp) = &mut self.vp {
                    let actual = self.lq.value(0).expect("committed load has a value");
                    let predicted = self.lq.vp(0);
                    vp.note_commit_outcome(predicted.is_some(), predicted == Some(actual));
                    vp.train(pc_a, actual);
                }
                self.lq.drop_front();
                if let Some(cand) = self.ap.prefetch_candidate(pc_a, addr) {
                    if self.prefetch_q.len() < self.cfg.prefetch_queue
                        && !self.prefetch_q.contains(&cand)
                    {
                        self.prefetch_q.push_back(cand);
                    }
                }
                self.stats.committed_loads += 1;
                self.sites.record_committed(pc_a);
                if let Some(log) = self.commit_log.as_mut() {
                    log.push(dgl_isa::ArchEvent::Load { pc, addr });
                }
            }
            if let Some(b) = self.rob.branch(0) {
                let taken = b.actual_taken.expect("resolved");
                let target = b.actual_next.expect("resolved");
                self.front
                    .bpred_mut()
                    .train(Self::pc_addr(pc), taken, Some(target));
                self.stats.committed_branches += 1;
                if let Some(log) = self.commit_log.as_mut() {
                    log.push(dgl_isa::ArchEvent::Branch {
                        pc,
                        taken,
                        next: target,
                    });
                }
            }
            self.vis.forget_inst(self.rob.handle(0).slot);
            if let Some((_, _, old)) = self.rob.dst(0) {
                self.rf.release(old);
            }
            self.rob.drop_front();
            self.emit_stage(seq, pc, inst_kind(op), Stage::Commit, self.cycle);
            self.stats.committed += 1;
            committed_now += 1;
            if op == Op::Halt {
                self.halted = true;
                break;
            }
        }
        if committed_now == 0 {
            self.stats.commit_idle_cycles += 1;
            self.cycles_since_commit += 1;
            let target = self.cpi_classify_idle();
            self.cpi.charge_tick(target);
        } else {
            self.tick_activity = true;
            self.cycles_since_commit = 0;
            self.cpi.charge_tick(Charge::Bucket(CpiComponent::Commit));
        }
    }
}
