//! Recovery: the single squash routine — rolls rename/ROB/LQ/SQ/shadow
//! state back past a mispredicted or violated instruction and redirects
//! fetch.

use super::*;

impl Core {
    /// Squashes every instruction with `seq > last_good` and redirects
    /// fetch to `redirect_pc`.
    ///
    /// `kind` names the squash funnel. This is the only writer of its
    /// [`CoreStats`] counter and of the accounting's refill kind, so
    /// every squash is counted and charged the same way.
    ///
    /// `history` carries the branch-predictor global-history repair for
    /// mispredicted branches; `ras` a return-address-stack checkpoint
    /// when the squashed region may contain calls or returns. Both are
    /// `None` for non-branch squashes (memory-order violations, value
    /// mispredictions, coherence replays).
    pub(super) fn squash_to(
        &mut self,
        kind: SquashKind,
        last_good: Seq,
        redirect_pc: usize,
        history: Option<(u64, bool)>,
        ras: Option<crate::frontend::RasCheckpoint>,
    ) {
        // Nested host-profiling region: squashes run inside whichever
        // stage detected the misprediction, so the slot is excluded
        // from the tick partition sum. Timed into the local accumulator
        // at the end (the body below never returns early).
        let t0 = self.prof.as_ref().map(|p| (Instant::now(), p.ids.recovery));
        self.tick_activity = true;
        *match kind {
            SquashKind::Branch => &mut self.stats.branch_mispredicts,
            SquashKind::MemOrder => &mut self.stats.memory_order_squashes,
            SquashKind::Value => &mut self.stats.vp_squashes,
        } += 1;
        self.cpi.note_squash(kind);
        while !self.rob.is_empty() && self.rob.seq(self.rob.len() - 1) > last_good {
            let slot = self.rob.handle(self.rob.len() - 1).slot;
            let e = self.rob.pop_back().expect("non-empty");
            if e.in_iq {
                self.iq.remove(slot);
            }
            self.stats.squashed += 1;
            if self.sink.is_some() {
                self.emit(TraceEvent::Squash {
                    seq: e.seq,
                    pc: Self::pc_addr(e.pc),
                    cycle: self.cycle,
                });
            }
            if let Some((arch, new, old)) = e.dst {
                self.rf.unrename(arch, new, old);
            }
        }
        while !self.lq.is_empty() && self.lq.seq(self.lq.len() - 1) > last_good {
            let li = self.lq.len() - 1;
            if self.lq.dgl(li).is_predicted() {
                self.note_dgl(self.lq.seq(li), self.lq.pc(li), DglEvent::Squashed);
            }
            let e = self.lq.pop_back().expect("checked");
            self.cpi_note_squashed_load(&e);
            if self.ap_enabled {
                // Keep the predictor's in-flight instance count honest.
                self.ap.note_squash(Self::pc_addr(e.pc));
            }
            if let Some(vp) = &mut self.vp {
                vp.note_squash(Self::pc_addr(e.pc));
            }
        }
        while !self.sq.is_empty() && self.sq.seq(self.sq.len() - 1) > last_good {
            self.vis.clear_store(self.sq.handle(self.sq.len() - 1).slot);
            self.sq.pop_back();
        }
        let lq = (self.lq.head_slot(), self.lq.len());
        self.vis
            .retain_live(lq, (self.rob.head_slot(), self.rob.len()));
        self.mem_sets
            .retain_live(lq, (self.sq.head_slot(), self.sq.len()));
        self.shadows.squash_younger_than(last_good);
        self.taint.squash_roots_younger_than(last_good);
        self.front.redirect_with_ras(
            redirect_pc,
            self.cycle,
            self.cfg.squash_penalty,
            history,
            ras,
        );
        if let Some((t0, id)) = t0 {
            self.prof_accum.add(id, t0.elapsed().as_nanos() as u64);
        }
    }
}
