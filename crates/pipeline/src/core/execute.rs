//! Execute stage: the completion calendar (functional-unit latency),
//! ALU/branch completion, AGU completion, and branch resolution with
//! its scheme-conditional ordering constraints.

use super::*;

impl Core {
    pub(super) fn handle_events(&mut self, program: &Program) {
        let due = self.events.take(self.cycle);
        if !due.is_empty() {
            self.tick_activity = true;
        }
        for ev in &due {
            // A squashed entry's slot generation moved on.
            let Some(idx) = self.rob.resolve(ev.rob) else {
                continue;
            };
            debug_assert_eq!(self.rob.seq(idx), ev.seq);
            match ev.kind {
                EventKind::ExecDone => self.exec_done(idx, program),
                EventKind::AguDone => self.agu_done(idx),
            }
        }
        self.events.restore(self.cycle, due);
    }

    pub(super) fn exec_done(&mut self, idx: usize, program: &Program) {
        let op = self.rob.op(idx);
        let pc = self.rob.pc(idx);
        let srcs = self.rob.srcs(idx);
        let dst = self.rob.dst(idx);
        match op {
            Op::Imm { value, .. } => {
                self.writeback(idx, dst, value, srcs.as_slice());
            }
            Op::Alu {
                op: alu, a: _, b, ..
            } => {
                let av = self.rf.read(srcs.as_slice()[0]);
                let bv = match b {
                    Src::Reg(_) => self.rf.read(srcs.as_slice()[1]),
                    Src::Imm(i) => i as i64,
                };
                self.writeback(idx, dst, alu.apply(av, bv), srcs.as_slice());
            }
            Op::Nop => {
                *self.rob.state_mut(idx) = ExecState::Completed;
            }
            Op::Branch { cond, target, .. } => {
                let av = self.rf.read(srcs.as_slice()[0]);
                let bv = self.rf.read(srcs.as_slice()[1]);
                let taken = cond.eval(av, bv);
                let b = self.rob.branch_mut(idx).as_mut().expect("branch info");
                b.actual_taken = Some(taken);
                b.actual_next = Some(if taken { target } else { pc + 1 });
                *self.rob.state_mut(idx) = ExecState::Executed;
                self.try_resolve_branch(idx, program);
                // Resolution deferred by the scheme: park it where the
                // visibility sweep's retry will come from.
                self.park_branch(idx);
            }
            Op::Call { .. } => {
                // The call's only datapath effect: link = pc + 1. The
                // redirect happened statically at fetch.
                self.writeback(idx, dst, (pc + 1) as i64, srcs.as_slice());
            }
            Op::JumpReg { .. } | Op::Ret => {
                let target = self.rf.read(srcs.as_slice()[0]) as u64;
                let b = self
                    .rob
                    .branch_mut(idx)
                    .as_mut()
                    .expect("indirect-control info");
                b.actual_taken = Some(true);
                b.actual_next = Some(if (target as usize) < program.len() {
                    target as usize
                } else {
                    usize::MAX // poison: error if this commits
                });
                *self.rob.state_mut(idx) = ExecState::Executed;
                self.try_resolve_branch(idx, program);
                self.park_branch(idx);
            }
            Op::Jump { .. } | Op::Halt | Op::Load { .. } | Op::Store { .. } => {
                unreachable!("{op} does not use ExecDone")
            }
        }
    }

    pub(super) fn agu_done(&mut self, idx: usize) {
        let seq = self.rob.seq(idx);
        let srcs = self.rob.srcs(idx);
        match self.rob.op(idx) {
            Op::Load { offset, .. } => {
                let base = self.rf.read(*srcs.as_slice().last().expect("load base"));
                let addr = effective_addr(base, offset);
                self.load_address_resolved(seq, addr);
            }
            Op::Store { offset, .. } => {
                let base = self.rf.read(srcs.as_slice()[1]);
                let addr = effective_addr(base, offset);
                let data = self
                    .rf
                    .is_propagated(srcs.as_slice()[0])
                    .then(|| self.rf.read(srcs.as_slice()[0]));
                self.store_address_resolved(idx, addr, data);
            }
            _ => unreachable!("AguDone on non-memory op"),
        }
    }

    /// Resolves the executed branch at ROB index `idx` unless the
    /// scheme defers it. A misprediction squashes only younger entries,
    /// so `idx` still names the branch afterwards.
    pub(super) fn try_resolve_branch(&mut self, idx: usize, _program: &Program) {
        let seq = self.rob.seq(idx);
        if self.rob.state(idx) != ExecState::Executed {
            return;
        }
        let Some(b) = self.rob.branch(idx) else {
            return;
        };
        if b.resolved || b.actual_taken.is_none() {
            return;
        }
        // STT: branch resolution is a transmitter; delay while the
        // predicate is tainted (§2.2).
        if rules::tracks_taint(self.scheme) && self.taint.any_tainted(self.rob.srcs(idx).as_slice())
        {
            return;
        }
        // Some schemes (DoM+AP, §4.6/§5.3) resolve branches in order —
        // only at the visibility point.
        if self.is_spec(seq)
            && rules::resolves_branches_in_order(self.scheme, self.address_prediction())
        {
            return;
        }
        let actual_taken = b.actual_taken.expect("executed");
        let actual_next = b.actual_next.expect("executed");
        let mispredicted = actual_next != b.predicted_next;
        let checkpoint = b.history_checkpoint;
        let ras_checkpoint = b.ras_checkpoint;
        self.rob.branch_mut(idx).as_mut().expect("branch").resolved = true;
        *self.rob.state_mut(idx) = ExecState::Completed;
        self.tick_activity = true;
        self.shadows.resolve(seq);
        if mispredicted {
            self.front.bpred_mut().note_mispredict();
            let redirect = if actual_next == usize::MAX {
                // Poison target: starve fetch; the error surfaces if the
                // jump commits.
                usize::MAX
            } else {
                actual_next
            };
            self.squash_to(
                SquashKind::Branch,
                seq,
                redirect,
                Some((checkpoint, actual_taken)),
                // A mispredicted return corrupted the speculative RAS
                // with its own (wrong) pop as well: restore to the
                // pre-ret checkpoint. For branches/jumps the checkpoint
                // undoes any wrong-path call/ret damage.
                Some(ras_checkpoint),
            );
        }
    }
}
