//! Writeback stage: result write/propagate/lock decisions, the
//! event-driven visibility sweep, and load-value propagation under the
//! scheme and doppelganger rules.

use super::*;

impl Core {
    /// ALU-style writeback: compute, write, propagate, taint.
    pub(super) fn writeback(
        &mut self,
        idx: usize,
        dst: Option<(Reg, PhysReg, PhysReg)>,
        value: i64,
        srcs: &[PhysReg],
    ) {
        let (seq, pc, op) = (self.rob.seq(idx), self.rob.pc(idx), self.rob.op(idx));
        self.emit_stage(seq, pc, inst_kind(op), Stage::Writeback, self.cycle);
        if let Some((arch, preg, _)) = dst {
            self.rf.write(preg, value);
            if rules::tracks_taint(self.scheme) {
                let root = self.taint.combine(srcs);
                self.taint.set(preg, root);
                *self.rob.out_taint_mut(idx) = root;
            }
            // NDA-S: *no* speculative result propagates until the
            // instruction is non-speculative — the strict variant's
            // ILP-killing rule.
            if rules::locks_all_results(self.scheme) && !arch.is_zero() && self.is_spec(seq) {
                *self.rob.locked_mut(idx) = true;
                *self.rob.state_mut(idx) = ExecState::Executed;
                // Parked until the visibility point passes it.
                self.vis.results.insert(self.rob.handle(idx).slot);
                return;
            }
            self.rf.propagate(preg);
        }
        *self.rob.state_mut(idx) = ExecState::Completed;
    }

    /// NDA-S: releases a locked non-load result once it reaches the
    /// visibility point.
    pub(super) fn try_unlock_result(&mut self, idx: usize) {
        if !self.rob.locked(idx) || self.rob.op(idx).is_load() {
            return;
        }
        if !self.shadows.is_nonspeculative(self.rob.seq(idx)) {
            return;
        }
        let (_, preg, _) = self.rob.dst(idx).expect("locked result has a destination");
        self.rf.propagate(preg);
        *self.rob.locked_mut(idx) = false;
        *self.rob.state_mut(idx) = ExecState::Completed;
        self.tick_activity = true;
    }

    /// The visibility sweep. It evaluates only what may act: work
    /// blocked solely by the visibility point is released once the
    /// point passes it, and everything else was queued by the event
    /// that changed one of its inputs. The order is that of a full
    /// walk: LQ entries by ascending seq, then locked results, then
    /// deferred branches. Work parks only while speculative, so a
    /// parked set has nothing to release until a caster leaves (the
    /// shadow epoch moves).
    pub(super) fn visibility_maintenance(&mut self, program: &Program) {
        let bound = self.visibility_bound();
        if rules::tracks_taint(self.scheme) {
            // Roots <= bound reached the visibility point. Idempotent:
            // re-running with an unchanged bound changes nothing, so
            // this is not an activity source for the skip-ahead kernel.
            self.taint.retire_roots_older_than(bound.saturating_add(1));
        }
        let head = self.lq.head_slot();
        if self.vis.loads_epoch != self.shadows.epoch() && !self.vis.loads.is_empty() {
            self.vis.loads_epoch = self.shadows.epoch();
            let upto = self.lq.count_through(bound);
            self.vis.loads.release_into(&mut self.vis.due, head, upto);
        }
        // A DoM+VP value mismatch squashes from inside this loop, so the
        // live length is re-read on every step.
        let mut from = 0;
        while let Some((li, slot)) = self.vis.due.next(head, from, self.lq.len()) {
            self.vis.due.remove(slot);
            from = li + 1;
            self.sweep_load(li);
        }
        if rules::locks_all_results(self.scheme) {
            self.unlock_visible_results();
        }
        if rules::tracks_taint(self.scheme)
            || rules::resolves_branches_in_order(self.scheme, self.address_prediction())
        {
            self.retry_deferred_branches(program);
        }
    }

    /// NDA-S: unlocks the locked results the visibility point passed.
    fn unlock_visible_results(&mut self) {
        if self.vis.results_epoch == self.shadows.epoch() || self.vis.results.is_empty() {
            return;
        }
        self.vis.results_epoch = self.shadows.epoch();
        let head = self.rob.head_slot();
        let upto = self.rob.count_through(self.visibility_bound());
        let mut from = 0;
        while let Some((i, slot)) = self.vis.results.next(head, from, upto) {
            self.vis.results.remove(slot);
            from = i + 1;
            self.try_unlock_result(i);
        }
    }

    /// Retries deferred branches: every taint-held one once the taint
    /// version moved (untainting is lazy), and the in-order ones the
    /// visibility point passed. Resolving the oldest caster moves the
    /// point past younger parked branches, which join the walk ahead of
    /// its cursor.
    fn retry_deferred_branches(&mut self, program: &Program) {
        let head = self.rob.head_slot();
        if self.vis.taint_seen != self.taint.version() {
            self.vis.taint_seen = self.taint.version();
            let len = self.rob.len();
            self.vis
                .tainted
                .release_into(&mut self.vis.due_branches, head, len);
        }
        let mut from = 0;
        loop {
            if self.vis.branches_epoch != self.shadows.epoch() && !self.vis.branches.is_empty() {
                self.vis.branches_epoch = self.shadows.epoch();
                let upto = self.rob.count_through(self.visibility_bound());
                self.vis
                    .branches
                    .release_into(&mut self.vis.due_branches, head, upto);
            }
            if self.vis.due_branches.is_empty() {
                break;
            }
            let Some((i, slot)) = self.vis.due_branches.next(head, from, self.rob.len()) else {
                break;
            };
            self.vis.due_branches.remove(slot);
            from = i + 1;
            self.try_resolve_branch(i, program);
            self.park_branch(i);
        }
    }

    /// The visibility sweep's verdict for one due LQ entry.
    fn sweep_load(&mut self, li: usize) {
        let seq = self.lq.seq(li);
        match self.lq.state(li) {
            LoadState::Done if !self.lq.propagated(li) => {
                // Unlock a locked result / propagate a doppelganger
                // preload.
                self.try_propagate_load(li);
            }
            LoadState::DelayedDoM if self.shadows.is_nonspeculative(seq) => {
                self.set_load_state(li, LoadState::WaitIssue);
                self.cpi_note_unpark(li);
                self.tick_activity = true;
            }
            LoadState::WaitStore(_) => {
                self.recheck_wait_store(li);
            }
            _ => {
                // A verified-correct doppelganger whose data arrived
                // while unresolved is promoted by dgl_response.
            }
        }
    }

    /// Attempts to make a finished load's value visible to dependents,
    /// applying the scheme rules (and the doppelganger rules of §5.2/5.3
    /// when the value came from a verified preload).
    pub(super) fn try_propagate_load(&mut self, li: usize) {
        let seq = self.lq.seq(li);
        if self.lq.propagated(li)
            || self.lq.value(li).is_none()
            || self.lq.state(li) != LoadState::Done
        {
            return;
        }
        // DoM+VP validation (§2.3 comparison mode): the predicted value
        // already propagated at dispatch; when the real result arrives,
        // a match costs nothing and a mismatch squashes every younger
        // instruction — the rollback that address prediction avoids.
        if let Some(predicted) = self.lq.vp(li) {
            let actual = self.lq.value(li).expect("checked");
            let pc = self.lq.pc(li);
            let Some(idx) = self.rob_index(seq) else {
                return;
            };
            let (_, preg, _) = self.rob.dst(idx).expect("vp loads have destinations");
            self.complete_load(li, idx, false);
            if predicted != actual {
                self.rf.write(preg, actual);
                self.squash_to(SquashKind::Value, seq, pc + 1, None, None);
            }
            return;
        }
        let nonspec = self.shadows.is_nonspeculative(seq);
        // The doppelganger rules apply only when the value actually came
        // through the doppelganger (memory preload or store override). A
        // correct prediction whose data arrived via the load's own demand
        // request follows the scheme's conventional rules.
        let dgl = self.lq.dgl(li);
        let via_dgl =
            dgl.is_predicted() && dgl.verification() == Verification::Correct && dgl.data_ready();
        let allowed = if via_dgl {
            rules::may_propagate(self.scheme, &dgl, nonspec)
        } else {
            rules::may_propagate_load(self.scheme, nonspec)
        };
        let Some(idx) = self.rob_index(seq) else {
            return;
        };
        let Some((_, preg, _)) = self.rob.dst(idx) else {
            // Load to r0: nothing to propagate.
            self.complete_load(li, idx, via_dgl);
            return;
        };
        let value = self.lq.value(li).expect("checked");
        // Memory-consistency note (§4.5): a snooped invalidation takes
        // effect when the preload would propagate — replay the load
        // instead of using possibly-stale data.
        if via_dgl && dgl.invalidation_applies() {
            self.discard_dgl(li);
            *self.lq.dgl_req_mut(li) = None;
            *self.lq.value_mut(li) = None;
            self.set_load_state(li, LoadState::WaitIssue);
            self.tick_activity = true;
            let pc = self.lq.pc(li);
            self.note_dgl(
                seq,
                pc,
                DglEvent::Discarded {
                    reason: DiscardReason::Invalidation,
                },
            );
            return;
        }
        self.rf.write(preg, value);
        if allowed {
            if rules::tracks_taint(self.scheme) {
                let root = if self.is_spec(seq) {
                    self.taint.add_root(seq);
                    Some(seq)
                } else {
                    None
                };
                self.taint.set(preg, root);
                *self.rob.out_taint_mut(idx) = root;
            }
            self.rf.propagate(preg);
            self.complete_load(li, idx, via_dgl);
            if via_dgl {
                let addr = self
                    .lq
                    .addr(li)
                    .or(self.lq.dgl(li).predicted_addr())
                    .unwrap_or(0);
                self.note_dgl(seq, self.lq.pc(li), DglEvent::Propagated { addr });
            }
        } else {
            // Value ready but locked (NDA / DoM-miss), parked until the
            // visibility point passes it. Only the first lock is a state
            // transition — a recheck of an already-locked entry is a
            // no-op and must not count as activity, or long NDA/DoM
            // stalls would never elide.
            if !self.rob.locked(idx) {
                if via_dgl {
                    // Record the unsafe-at-propagate verdict once, not
                    // on every recheck.
                    self.note_dgl(seq, self.lq.pc(li), DglEvent::Deferred);
                }
                let cause =
                    rules::propagate_delay_cause(self.scheme).unwrap_or(DelayCause::PropagateLock);
                self.cpi_note_park(li, cause);
                self.tick_activity = true;
            }
            *self.rob.locked_mut(idx) = true;
            *self.rob.state_mut(idx) = ExecState::Executed;
            self.park_load(li);
        }
    }

    /// Makes load `li` (ROB slot `idx`) visible to dependents: its
    /// outcome, latency samples, ROB completion and writeback stamp.
    fn complete_load(&mut self, li: usize, idx: usize, via_dgl: bool) {
        *self.lq.propagated_mut(li) = true;
        self.cpi_note_outcome(li, via_dgl);
        let lat = self.cycle.saturating_sub(self.lq.dispatch_cycle(li));
        self.load_latency.record(lat);
        let pc = self.lq.pc(li);
        self.sites.record_latency(Self::pc_addr(pc), lat);
        *self.rob.state_mut(idx) = ExecState::Completed;
        *self.rob.locked_mut(idx) = false;
        self.tick_activity = true;
        let seq = self.lq.seq(li);
        self.emit_stage(seq, pc, InstKind::Load, Stage::Writeback, self.cycle);
    }
}
