//! Writeback stage: result write/propagate/lock decisions, the
//! per-cycle visibility-point maintenance sweep, and load-value
//! propagation under the scheme and doppelganger rules.

use super::*;

impl Core {
    /// ALU-style writeback: compute, write, propagate, taint.
    pub(super) fn writeback(
        &mut self,
        seq: Seq,
        dst: Option<(Reg, PhysReg, PhysReg)>,
        value: i64,
        srcs: &[PhysReg],
    ) {
        let idx = self.rob_index(seq).expect("live entry");
        let (pc, op) = (self.rob.pc(idx), self.rob.op(idx));
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
                // Queue for the visibility-point unlock sweep, which
                // walks only locked results instead of the whole ROB.
                self.locked_results.push(seq);
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

    pub(super) fn visibility_maintenance(&mut self, program: &Program) {
        // Everything with seq <= bound is non-speculative.
        let bound = self.shadows.oldest().unwrap_or(Seq::MAX);
        if rules::tracks_taint(self.scheme) {
            // Roots <= bound reached the visibility point. Idempotent:
            // re-running with an unchanged bound changes nothing, so
            // this is not an activity source for the skip-ahead kernel.
            self.taint.retire_roots_older_than(bound.saturating_add(1));
        }
        // Unlock NDA results / propagate doppelganger preloads / reissue
        // DoM-delayed loads. No LQ entry is added or removed inside this
        // loop, so plain indexing is safe. The sweep only acts on the
        // three gated buckets, so it is skipped when all are empty.
        if self.gates.lq_done_unprop + self.gates.lq_delayed_dom + self.gates.lq_wait_store > 0 {
            for li in 0..self.lq.len() {
                let seq = self.lq.seq(li);
                match self.lq.state(li) {
                    LoadState::Done if !self.lq.propagated(li) => {
                        self.try_propagate_load(seq);
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
                        // A verified-correct doppelganger whose data
                        // arrived while unresolved is promoted by
                        // dgl_response.
                    }
                }
            }
        }
        // NDA-S: unlock non-load results that reached the visibility
        // point. Only results queued at their lock are candidates; the
        // ROB itself is never scanned. Sorted so unlocks happen in the
        // ROB order the full scan used.
        if rules::locks_all_results(self.scheme) && !self.locked_results.is_empty() {
            let mut locked = std::mem::take(&mut self.locked_results);
            locked.sort_unstable();
            for &seq in &locked {
                if let Some(idx) = self.rob_index(seq) {
                    self.try_unlock_result(idx);
                }
            }
            // Keep only the still-locked survivors (squashed or
            // commit-unlocked entries fall out here).
            locked.retain(|&seq| {
                self.rob_index(seq)
                    .is_some_and(|i| self.rob.locked(i) && !self.rob.op(i).is_load())
            });
            self.locked_results = locked;
        }
        // Delayed branch resolutions (STT untaint / DoM+AP in-order):
        // only branches queued at execute time are candidates, sorted
        // into the ROB (= seq) order the full scan used. Stale entries
        // (resolved or squashed since) make the retry a no-op and are
        // dropped by the retain.
        if !self.pending_branches.is_empty() {
            let mut pending = std::mem::take(&mut self.pending_branches);
            pending.sort_unstable();
            for &seq in &pending {
                self.try_resolve_branch(seq, program);
            }
            pending.retain(|&seq| {
                self.rob_index(seq).is_some_and(|i| {
                    self.rob.state(i) == ExecState::Executed
                        && self.rob.branch(i).is_some_and(|b| !b.resolved)
                })
            });
            self.pending_branches = pending;
        }
    }

    /// Attempts to make a finished load's value visible to dependents,
    /// applying the scheme rules (and the doppelganger rules of §5.2/5.3
    /// when the value came from a verified preload).
    pub(super) fn try_propagate_load(&mut self, seq: Seq) {
        let Some(li) = self.lq_index(seq) else { return };
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
                self.stats.vp_squashes += 1;
                if let Some(a) = self.cpi.as_mut() {
                    a.note_squash(SquashKind::Value);
                }
                self.squash_to(seq, pc + 1, None, None);
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
            self.lq.dgl_mut(li).discard();
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
            // Value ready but locked (NDA / DoM-miss / unverified). Only
            // the first lock is a state transition — the per-cycle
            // recheck of an already-locked entry is a no-op and must not
            // count as activity, or long NDA/DoM stalls would never
            // elide.
            if !self.rob.locked(idx) {
                if via_dgl {
                    // Record the unsafe-at-propagate verdict once, not
                    // every cycle.
                    self.note_dgl(seq, self.lq.pc(li), DglEvent::Deferred);
                }
                let cause =
                    rules::propagate_delay_cause(self.scheme).unwrap_or(DelayCause::PropagateLock);
                self.cpi_note_park(li, cause);
                self.tick_activity = true;
            }
            *self.rob.locked_mut(idx) = true;
            *self.rob.state_mut(idx) = ExecState::Executed;
        }
    }

    /// Makes load `li` (ROB slot `idx`) visible to dependents: its
    /// outcome, latency samples, ROB completion and writeback stamp.
    fn complete_load(&mut self, li: usize, idx: usize, via_dgl: bool) {
        self.mark_load_propagated(li);
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
