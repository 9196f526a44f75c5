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
        // from the tick partition sum.
        self.prof_region(
            |ids| ids.recovery,
            |core| core.squash(kind, last_good, redirect_pc, history, ras),
        );
    }

    /// The body of [`squash_to`](Self::squash_to), untimed.
    fn squash(
        &mut self,
        kind: SquashKind,
        last_good: Seq,
        redirect_pc: usize,
        history: Option<(u64, bool)>,
        ras: Option<crate::frontend::RasCheckpoint>,
    ) {
        self.tick_activity = true;
        *match kind {
            SquashKind::Branch => &mut self.stats.branch_mispredicts,
            SquashKind::MemOrder => &mut self.stats.memory_order_squashes,
            SquashKind::Value => &mut self.stats.vp_squashes,
        } += 1;
        self.cpi.note_squash(kind);
        // Each ring is walked youngest first for its per-entry
        // bookkeeping, reading fields in place, then cut in one step.
        let keep = self.rob.count_through(last_good);
        for i in (keep..self.rob.len()).rev() {
            if self.rob.in_iq(i) {
                self.iq.remove(self.rob.handle(i).slot);
            }
            self.stats.squashed += 1;
            if self.sink.is_some() {
                let (seq, pc) = (self.rob.seq(i), self.rob.pc(i));
                self.emit(TraceEvent::Squash {
                    seq,
                    pc: Self::pc_addr(pc),
                    cycle: self.cycle,
                });
            }
            if let Some((arch, new, old)) = self.rob.dst(i) {
                self.rf.unrename(arch, new, old);
            }
        }
        self.rob.truncate(keep);
        let keep = self.lq.count_through(last_good);
        for li in (keep..self.lq.len()).rev() {
            let pc = self.lq.pc(li);
            if self.lq.dgl(li).is_predicted() {
                self.note_dgl(self.lq.seq(li), pc, DglEvent::Squashed);
            }
            self.cpi_note_squashed_load(li);
            // Keep the predictor's in-flight instance count honest.
            self.ap.note_squash(Self::pc_addr(pc));
            if let Some(vp) = &mut self.vp {
                vp.note_squash(Self::pc_addr(pc));
            }
        }
        self.lq.truncate(keep);
        let keep = self.sq.count_through(last_good);
        for si in keep..self.sq.len() {
            let slot = self.sq.handle(si).slot;
            self.vis.clear_store(slot);
            if self.sq.addr(si).is_some() && self.sq.data(si).is_none() {
                self.mem_sets.capture.remove(slot);
            }
        }
        self.sq.truncate(keep);
        let lq = (self.lq.head_slot(), self.lq.len());
        self.vis
            .retain_live(lq, (self.rob.head_slot(), self.rob.len()));
        self.mem_sets.retain_live(lq);
        self.shadows.squash_younger_than(last_good);
        self.taint.squash_roots_younger_than(last_good);
        self.front.redirect_with_ras(
            redirect_pc,
            self.cycle,
            self.cfg.squash_penalty,
            history,
            ras,
        );
    }
}
