//! Memory stage: demand/doppelganger response handling, the memory
//! issue port, AGU address resolution for loads and stores, the
//! store-violation scan and its §4.4 repair, store-to-load forwarding,
//! and external (coherence) invalidations.

use super::*;

impl Core {
    pub(super) fn handle_mem_responses(&mut self) {
        // With nothing due the hierarchy is neither called nor timed.
        if self.mem.next_ready().is_none_or(|t| t > self.cycle) {
            return;
        }
        // Anything landing this cycle changes hierarchy state, even when
        // it produces no owner response (prefetch fills, stale ids) —
        // the fill alone can turn a future miss into a hit.
        self.tick_activity = true;
        // The response buffer is reused across ticks (allocation-free).
        let mut responses = std::mem::take(&mut self.mem_responses);
        self.prof_region(
            |ids| ids.hierarchy,
            |core| {
                core.mem
                    .advance_into(core.cycle, core.sink.as_deref_mut(), &mut responses)
            },
        );
        for resp in responses.drain(..) {
            let Some(owner) = self.req_owners.take(resp.id) else {
                continue;
            };
            match owner {
                ReqOwner::Demand(load) => self.demand_response(load, resp),
                ReqOwner::Doppelganger(load) => self.dgl_response(load, resp),
                ReqOwner::StoreDrain => {
                    let pos = self
                        .store_buffer
                        .range(..self.sb_draining)
                        .position(|e| e.req == Some(resp.id));
                    debug_assert!(pos.is_some(), "store-drain response without its entry");
                    if let Some(pos) = pos {
                        self.store_buffer.remove(pos);
                        self.sb_draining -= 1;
                    }
                    self.debug_assert_sb_prefix();
                }
            }
        }
        self.mem_responses = responses;
    }

    /// Debug check of the store buffer's draining-prefix invariant.
    fn debug_assert_sb_prefix(&self) {
        debug_assert!(
            self.store_buffer
                .iter()
                .enumerate()
                .all(|(i, e)| e.req.is_some() == (i < self.sb_draining)),
            "store-buffer drains must be an in-flight prefix"
        );
    }

    /// Handles the response to the demand access of the load `load`
    /// names.
    fn demand_response(&mut self, load: SlotHandle, resp: MemResponse) {
        let Some(li) = self.lq.resolve(load) else {
            return; // squashed
        };
        if self.lq.req(li) != Some(resp.id) {
            return; // stale (replayed)
        }
        let seq = self.lq.seq(li);
        *self.lq.req_mut(li) = None;
        match resp.payload {
            ResponsePayload::Data { hit_level } => {
                // Any head wait accumulated against this access now
                // charges to the level that served it.
                self.cpi.resolve_mem(seq, hit_level);
                if hit_level != Level::L1 {
                    *self.lq.needs_touch_mut(li) = false;
                }
                // Prefer a covering older store over memory (the store
                // has not drained yet).
                let addr = self.lq.addr(li).expect("demand response without addr");
                let width = self.lq.width(li);
                match self.search_forward(seq, addr, width) {
                    ForwardResult::Covers { value, store_seq } => {
                        *self.lq.value_mut(li) = Some(value);
                        *self.lq.forwarded_mut(li) = true;
                        *self.lq.fwd_src_mut(li) = Some(store_seq);
                    }
                    ForwardResult::Partial { store_seq } => {
                        self.set_load_state(li, LoadState::WaitStore(store_seq));
                        *self.lq.value_mut(li) = None;
                        return;
                    }
                    ForwardResult::None => {
                        *self.lq.value_mut(li) = Some(self.data.read(addr, width) as i64);
                    }
                }
                self.set_load_state(li, LoadState::Done);
                self.try_propagate_load(li);
            }
            ResponsePayload::L1MissBlocked => {
                self.stats.dom_delayed += 1;
                // The refused probe only reached the L1.
                self.cpi.resolve_mem(seq, Level::L1);
                if self.shadows.is_nonspeculative(seq) {
                    // Became safe while the probe was in flight: retry
                    // with full access immediately.
                    self.set_load_state(li, LoadState::WaitIssue);
                } else {
                    self.set_load_state(li, LoadState::DelayedDoM);
                    self.cpi_note_park(li, DelayCause::DomDelay);
                }
            }
        }
    }

    /// Handles the response to the doppelganger of the load `load`
    /// names.
    fn dgl_response(&mut self, load: SlotHandle, resp: MemResponse) {
        let Some(li) = self.lq.resolve(load) else {
            return; // squashed: the doppelganger's fill is harmless (§4.2)
        };
        if self.lq.dgl_req(li) != Some(resp.id) {
            return; // discarded after misprediction
        }
        let seq = self.lq.seq(li);
        *self.lq.dgl_req_mut(li) = None;
        let ResponsePayload::Data { hit_level } = resp.payload else {
            unreachable!("doppelgangers always issue full-hierarchy accesses");
        };
        let pred_addr = self
            .lq
            .dgl(li)
            .predicted_addr()
            .expect("dgl response without prediction");
        let width = self.lq.width(li);
        if !self.lq.dgl(li).is_store_overridden() {
            // §4.4: an older matching store overrides transparently; the
            // memory value is only used when no store supplied one.
            match self.search_forward(seq, pred_addr, width) {
                ForwardResult::Covers { value, store_seq } => {
                    *self.lq.value_mut(li) = Some(value);
                    *self.lq.fwd_src_mut(li) = Some(store_seq);
                    self.lq.dgl_mut(li).on_store_forward();
                }
                ForwardResult::Partial { store_seq } => {
                    // Cannot assemble the value: discard the preload and
                    // put the load back on the conventional path (it may
                    // already have been counting on this request).
                    self.discard_dgl(li);
                    let pc = self.lq.pc(li);
                    self.note_dgl(
                        seq,
                        pc,
                        DglEvent::Discarded {
                            reason: DiscardReason::StoreConflict,
                        },
                    );
                    if self.lq.addr(li).is_some() && self.lq.req(li).is_none() {
                        self.set_load_state(li, LoadState::WaitStore(store_seq));
                    }
                    return;
                }
                ForwardResult::None => {
                    *self.lq.value_mut(li) = Some(self.data.read(pred_addr, width) as i64);
                }
            }
        }
        let l1_hit = hit_level == Level::L1;
        self.lq.dgl_mut(li).on_data(l1_hit);
        if self.lq.dgl(li).verification() == Verification::Correct {
            self.set_load_state(li, LoadState::Done);
            self.try_propagate_load(li);
        }
    }

    pub(super) fn memory_issue(&mut self) {
        let mut load_ports = self.cfg.load_ports;
        let mut mshr_blocked = false;
        // 1. Conventional demand loads, oldest first. The LQ does not
        // change shape during this stage, so plain indexing is safe.
        let head = self.lq.head_slot();
        let mut from = 0;
        while load_ports > 0 && !mshr_blocked {
            let Some((li, _)) = self.mem_sets.wait_issue.next(head, from, self.lq.len()) else {
                break;
            };
            from = li + 1;
            let seq = self.lq.seq(li);
            let addr = self.lq.addr(li).expect("WaitIssue implies addr");
            // STT: a load is a transmitter — its address operands must
            // be untainted before it may touch the memory hierarchy.
            if rules::tracks_taint(self.scheme) {
                let idx = self.rob_index(seq).expect("load in rob");
                if self.taint.any_tainted(self.rob.srcs(idx).as_slice()) {
                    self.cpi_note_park(li, DelayCause::TaintOperand);
                    continue;
                }
            }
            // A mispredicted doppelganger's conventional load may be
            // held back by the scheme (DoM: visibility point only, §5.3).
            let nonspec = self.shadows.is_nonspeculative(seq);
            if self.lq.dgl(li).verification() == Verification::Mispredicted
                && !rules::reissue_allowed(self.scheme, nonspec)
            {
                self.cpi_note_park(li, DelayCause::ReissueHold);
                continue;
            }
            let plan = rules::demand_access(self.scheme, !nonspec);
            let req = MemRequest {
                addr,
                kind: AccessKind::Load,
                l1_only: plan.l1_only,
                update_replacement: plan.update_replacement,
            };
            match self.mem_request(req) {
                Some(id) => {
                    *self.lq.req_mut(li) = Some(id);
                    self.set_load_state(li, LoadState::Issued);
                    self.cpi_note_unpark(li);
                    *self.lq.needs_touch_mut(li) = plan.l1_only; // cleared on non-hit outcomes
                    self.req_owners
                        .insert(id, ReqOwner::Demand(self.lq.handle(li)));
                    load_ports -= 1;
                    self.tick_activity = true;
                    let pc = self.lq.pc(li);
                    self.emit_stage(seq, pc, InstKind::Load, Stage::Memory, self.cycle);
                }
                None => mshr_blocked = true,
            }
        }
        // 2. Doppelgangers fill the remaining slots (Figure 5 (D)). The
        // candidate set holds every load whose doppelganger can still
        // issue; the full condition is checked here.
        let mut from = 0;
        while load_ports > 0 && !mshr_blocked {
            let Some((li, slot)) = self.mem_sets.dgl.next(head, from, self.lq.len()) else {
                break;
            };
            from = li + 1;
            let dgl = self.lq.dgl(li);
            let issueable = dgl.is_predicted()
                && !dgl.is_issued()
                && dgl.verification() != Verification::Mispredicted
                && self.lq.value(li).is_none()
                && self.lq.req(li).is_none()
                && matches!(
                    self.lq.state(li),
                    LoadState::WaitAddr | LoadState::WaitIssue
                );
            if !issueable {
                continue;
            }
            let seq = self.lq.seq(li);
            let pred = dgl.predicted_addr().expect("predicted");
            // Doppelgangers may access the full hierarchy under every
            // scheme: the predicted address is secret-independent.
            let req = MemRequest {
                addr: pred,
                kind: AccessKind::Load,
                l1_only: false,
                update_replacement: true,
            };
            match self.mem_request(req) {
                Some(id) => {
                    self.lq.dgl_mut(li).mark_issued();
                    self.mem_sets.dgl.remove(slot);
                    *self.lq.dgl_req_mut(li) = Some(id);
                    if self.lq.state(li) == LoadState::WaitIssue {
                        // Verified-correct: this request *is* the load.
                        self.set_load_state(li, LoadState::Issued);
                    }
                    self.req_owners
                        .insert(id, ReqOwner::Doppelganger(self.lq.handle(li)));
                    load_ports -= 1;
                    self.tick_activity = true;
                    let pc = self.lq.pc(li);
                    self.emit_stage(seq, pc, InstKind::Load, Stage::Memory, self.cycle);
                    self.note_dgl(seq, pc, DglEvent::Issued { predicted: pred });
                }
                None => mshr_blocked = true,
            }
        }
        // 3. Store-buffer drain, oldest first, starting past the
        // entries whose drain is already in flight.
        let mut store_ports = self.cfg.store_ports;
        let drained_from = self.sb_draining;
        for i in drained_from..self.store_buffer.len() {
            if store_ports == 0 {
                break;
            }
            match self.mem_request(MemRequest::store(self.store_buffer[i].addr)) {
                Some(id) => {
                    self.store_buffer[i].req = Some(id);
                    self.req_owners.insert(id, ReqOwner::StoreDrain);
                    self.sb_draining += 1;
                    store_ports -= 1;
                }
                None => break,
            }
        }
        if self.sb_draining > drained_from {
            self.tick_activity = true;
        }
        self.debug_assert_sb_prefix();
        // Commit-time classification distinguishes "MSHRs refused a
        // request this tick" from plain port contention.
        self.cpi.mshr_blocked = mshr_blocked;
        // 4. Prefetches into whatever is left.
        let mut pf_ports = self.cfg.prefetch_ports;
        while pf_ports > 0 && !mshr_blocked {
            let Some(addr) = self.prefetch_q.front().copied() else {
                break;
            };
            if self.mem.contains(Level::L1, addr) {
                self.prefetch_q.pop_front();
                self.tick_activity = true;
                continue;
            }
            match self.mem_request(MemRequest::prefetch(addr)) {
                Some(_) => {
                    self.prefetch_q.pop_front();
                    self.stats.prefetches += 1;
                    pf_ports -= 1;
                    self.tick_activity = true;
                }
                None => break,
            }
        }
    }

    /// Issues `req` to the hierarchy this cycle, timed as
    /// `mem.hierarchy` (see [`MemorySystem::request`]).
    fn mem_request(&mut self, req: MemRequest) -> Option<MemReqId> {
        self.prof_region(
            |ids| ids.hierarchy,
            |core| core.mem.request(req, core.cycle, core.sink.as_deref_mut()),
        )
    }

    pub(super) fn load_address_resolved(&mut self, seq: Seq, addr: u64) {
        let li = self.lq_index(seq).expect("load in lq");
        *self.lq.addr_mut(li) = Some(addr);
        let pc = self.lq.pc(li);
        let predicted = self.lq.dgl(li).predicted_addr();
        let verdict = self.lq.dgl_mut(li).resolve(addr);
        if let Some(predicted) = predicted {
            self.note_dgl(
                seq,
                pc,
                DglEvent::Verified {
                    predicted,
                    actual: addr,
                    correct: verdict == Verification::Correct,
                },
            );
        }
        if verdict == Verification::Mispredicted {
            self.mem_sets.dgl.remove(self.lq.handle(li).slot);
            // Drop any in-flight doppelganger request; its response will
            // be ignored (stale id). The fill it causes stays — that is
            // the safe, secret-independent side effect (§4.2). No
            // squash: the discard is the whole cost (§4.3).
            *self.lq.dgl_req_mut(li) = None;
            *self.lq.value_mut(li) = None;
            self.note_dgl(
                seq,
                pc,
                DglEvent::Discarded {
                    reason: DiscardReason::AddressMismatch,
                },
            );
        }
        let width = self.lq.width(li);
        match self.search_forward(seq, addr, width) {
            ForwardResult::Covers { value, store_seq } => {
                if verdict == Verification::Correct {
                    // §4.4 case (1): the doppelganger already appears in
                    // memory; the preloaded value becomes the store's.
                    self.lq.dgl_mut(li).on_store_forward();
                }
                *self.lq.value_mut(li) = Some(value);
                *self.lq.forwarded_mut(li) = true;
                *self.lq.fwd_src_mut(li) = Some(store_seq);
                self.set_load_state(li, LoadState::Done);
                self.try_propagate_load(li);
            }
            ForwardResult::Partial { store_seq } => {
                let was_predicted = self.lq.dgl(li).is_predicted();
                self.discard_dgl(li);
                *self.lq.dgl_req_mut(li) = None;
                *self.lq.value_mut(li) = None;
                self.set_load_state(li, LoadState::WaitStore(store_seq));
                if was_predicted {
                    self.note_dgl(
                        seq,
                        pc,
                        DglEvent::Discarded {
                            reason: DiscardReason::StoreConflict,
                        },
                    );
                }
            }
            ForwardResult::None => {
                match verdict {
                    Verification::Correct => {
                        if self.lq.dgl(li).data_ready() {
                            self.set_load_state(li, LoadState::Done);
                            self.try_propagate_load(li);
                        } else if self.lq.dgl_req(li).is_some() {
                            // The doppelganger request is the load's
                            // request; wait for it.
                            self.set_load_state(li, LoadState::Issued);
                        } else {
                            // Predicted but never issued: issue now (the
                            // doppelganger path still applies — the
                            // address is the safe predicted one).
                            self.set_load_state(li, LoadState::WaitIssue);
                        }
                    }
                    Verification::Mispredicted | Verification::Pending => {
                        self.set_load_state(li, LoadState::WaitIssue);
                    }
                }
            }
        }
    }

    /// The store at ROB index `idx` generated its address; `data` is
    /// its value when the data register had already propagated.
    pub(super) fn store_address_resolved(&mut self, idx: usize, addr: u64, data: Option<i64>) {
        let seq = self.rob.seq(idx);
        let si = self.sq.index_of(seq).expect("store in sq");
        *self.sq.addr_mut(si) = Some(addr);
        *self.sq.data_mut(si) = data;
        let width = self.sq.width(si);
        // The store completes once the data is captured too; with the
        // data pending it stays Issued and waits on its data register,
        // the only way into store capture.
        if data.is_some() {
            *self.rob.state_mut(idx) = ExecState::Completed;
            let pc = self.rob.pc(idx);
            self.emit_stage(seq, pc, InstKind::Store, Stage::Writeback, self.cycle);
        } else {
            *self.rob.state_mut(idx) = ExecState::Issued;
            let src = self.sq.data_src(si);
            self.mem_sets
                .capture
                .park(self.sq.handle(si).slot, src.0 as usize);
        }
        // D-shadow released: the store's address is known.
        self.shadows.resolve(seq);
        self.store_violation_scan(seq, addr, data, width);
    }

    /// Captures store data for address-resolved entries whose data
    /// register has since propagated, completing the store. Walks only
    /// the due stores, oldest first: a store becomes due when its data
    /// register's transition is drained, here or at the previous issue
    /// stage, so it is captured at the first walk that follows.
    pub(super) fn capture_store_data(&mut self) {
        self.drain_woken();
        let head = self.sq.head_slot();
        let mut from = 0;
        while let Some((si, slot)) = self.mem_sets.capture.due.next(head, from, self.sq.len()) {
            from = si + 1;
            let value = self.rf.read(self.sq.data_src(si));
            *self.sq.data_mut(si) = Some(value);
            self.mem_sets.capture.due.remove(slot);
            self.tick_activity = true;
            // A load parked on a covering store can forward now.
            self.wake_store_waiters(si);
            let seq = self.sq.seq(si);
            if let Some(idx) = self.rob_index(seq) {
                *self.rob.state_mut(idx) = ExecState::Completed;
                let pc = self.rob.pc(idx);
                self.emit_stage(seq, pc, InstKind::Store, Stage::Writeback, self.cycle);
            }
        }
    }

    /// When a store's address resolves, younger loads that overlap must
    /// be repaired: conventional executed-and-propagated loads squash
    /// (memory-order violation); unpropagated preloads are transparently
    /// overridden (§4.4 — no squash for doppelgangers).
    pub(super) fn store_violation_scan(
        &mut self,
        store_seq: Seq,
        addr: u64,
        data: Option<i64>,
        width: Width,
    ) {
        let mut squash_load: Option<(Seq, usize)> = None;
        // Only younger loads can have read past this store.
        for li in self.lq.count_through(store_seq)..self.lq.len() {
            let seq = self.lq.seq(li);
            // Check resolved addresses and (for unverified doppelgangers)
            // predicted addresses.
            let dgl = self.lq.dgl(li);
            let eff_addr = self.lq.addr(li).or_else(|| {
                if dgl.verification() == Verification::Pending {
                    dgl.predicted_addr()
                } else {
                    None
                }
            });
            let Some(load_addr) = eff_addr else { continue };
            let load_width = self.lq.width(li);
            let ov = overlap(addr, width, load_addr, load_width);
            if ov == Overlap::None {
                continue;
            }
            // The visibility sweep re-evaluates every load this store
            // can affect: an overridden or discarded preload, and a
            // `WaitStore` load whose forwarding source may have changed.
            self.recheck_load(li);
            // A newer forwarding source takes precedence.
            if let Some(src) = self.lq.fwd_src(li) {
                if src > store_seq {
                    continue;
                }
            }
            if self.lq.propagated(li) || self.lq.eager_consumed(li) {
                // Dependents consumed a stale value (ordinary
                // propagation, or an eager branch read of a locked
                // value): squash from the load.
                squash_load = match squash_load {
                    Some((s, i)) if s <= seq => Some((s, i)),
                    _ => Some((seq, self.lq.pc(li))),
                };
                continue;
            }
            if self.lq.value(li).is_some() || dgl.is_issued() {
                let mut dgl_conflict: Option<(Seq, usize)> = None;
                match (ov, data) {
                    (Overlap::Covers, Some(d)) => {
                        *self.lq.value_mut(li) =
                            Some(forward_value(addr, d, load_addr, load_width));
                        *self.lq.forwarded_mut(li) = true;
                        *self.lq.fwd_src_mut(li) = Some(store_seq);
                        if dgl.is_predicted() {
                            self.lq.dgl_mut(li).on_store_forward();
                        }
                    }
                    // Covering store whose data is still pending, or a
                    // partial overlap: the preloaded value is stale;
                    // wait on the store.
                    (Overlap::Covers, None) | (Overlap::Partial, _) => {
                        *self.lq.value_mut(li) = None;
                        if dgl.is_predicted() {
                            dgl_conflict = Some((seq, self.lq.pc(li)));
                        }
                        self.discard_dgl(li);
                        *self.lq.dgl_req_mut(li) = None;
                        if self.lq.addr(li).is_some() {
                            self.set_load_state(li, LoadState::WaitStore(store_seq));
                        }
                    }
                    (Overlap::None, _) => unreachable!(),
                }
                if let Some((lseq, lpc)) = dgl_conflict {
                    self.note_dgl(
                        lseq,
                        lpc,
                        DglEvent::Discarded {
                            reason: DiscardReason::StoreConflict,
                        },
                    );
                }
            }
        }
        if let Some((seq, pc)) = squash_load {
            self.squash_to(SquashKind::MemOrder, seq - 1, pc, None, None);
        }
    }

    /// Re-evaluates a load parked on an older store: forward once the
    /// store's data lands, keep waiting on partial overlaps, or go to
    /// memory once the store has drained. Only an actual state change
    /// counts as activity — re-parking on the same store is the no-op
    /// steady state of a stalled load.
    pub(super) fn recheck_wait_store(&mut self, li: usize) {
        let seq = self.lq.seq(li);
        let addr = self.lq.addr(li).expect("WaitStore implies addr");
        let width = self.lq.width(li);
        match self.search_forward(seq, addr, width) {
            ForwardResult::Covers { value, store_seq } => {
                *self.lq.value_mut(li) = Some(value);
                *self.lq.forwarded_mut(li) = true;
                *self.lq.fwd_src_mut(li) = Some(store_seq);
                if self.lq.dgl(li).verification() == Verification::Correct {
                    self.lq.dgl_mut(li).on_store_forward();
                }
                self.set_load_state(li, LoadState::Done);
                self.tick_activity = true;
                self.try_propagate_load(li);
            }
            ForwardResult::Partial { store_seq } => {
                let next = LoadState::WaitStore(store_seq);
                if self.lq.state(li) != next {
                    self.tick_activity = true;
                }
                self.set_load_state(li, next);
            }
            ForwardResult::None => {
                self.set_load_state(li, LoadState::WaitIssue);
                self.tick_activity = true;
            }
        }
    }

    pub(super) fn search_forward(&self, load_seq: Seq, addr: u64, width: Width) -> ForwardResult {
        // Youngest older store with a resolved address that overlaps.
        for si in (0..self.sq.count_through(load_seq - 1)).rev() {
            let Some(st_addr) = self.sq.addr(si) else {
                continue;
            };
            match overlap(st_addr, self.sq.width(si), addr, width) {
                Overlap::None => continue,
                Overlap::Covers => {
                    // A covering store whose data has not arrived yet
                    // behaves like a partial overlap: the load waits and
                    // rechecks (it will forward once the data lands).
                    return match self.sq.data(si) {
                        Some(d) => ForwardResult::Covers {
                            value: forward_value(st_addr, d, addr, width),
                            store_seq: self.sq.seq(si),
                        },
                        None => ForwardResult::Partial {
                            store_seq: self.sq.seq(si),
                        },
                    };
                }
                Overlap::Partial => {
                    return ForwardResult::Partial {
                        store_seq: self.sq.seq(si),
                    };
                }
            }
        }
        ForwardResult::None
    }

    /// Models an external (cross-core) invalidation: removes the line
    /// from the hierarchy and snoops the load queue (§4.5). Exposed for
    /// the memory-consistency security experiments.
    pub fn external_invalidate(&mut self, addr: u64) {
        self.mem.invalidate(addr);
        let mask = self.cfg.hierarchy.l1.line_mask();
        let line = addr & mask;
        let mut squash: Option<(Seq, usize)> = None;
        for li in 0..self.lq.len() {
            let matches_resolved = self.lq.addr(li).is_some_and(|a| a & mask == line);
            let matches_predicted = self
                .lq
                .dgl(li)
                .predicted_addr()
                .is_some_and(|a| a & mask == line);
            if !matches_resolved && !matches_predicted {
                continue;
            }
            if self.lq.propagated(li) || self.lq.eager_consumed(li) {
                // Conventional consistency repair: squash the load. An
                // eager branch read counts as consumption even though
                // the value never propagated.
                let seq = self.lq.seq(li);
                squash = match squash {
                    Some((s, p)) if s <= seq => Some((s, p)),
                    _ => Some((seq, self.lq.pc(li))),
                };
            } else if self.lq.dgl(li).is_issued() {
                // §4.5: the doppelganger is not squashed; the note takes
                // effect if/when the preload propagates.
                self.lq.dgl_mut(li).on_invalidation();
                self.recheck_load(li);
            } else if self.lq.value(li).is_some() {
                *self.lq.value_mut(li) = None;
                self.set_load_state(li, LoadState::WaitIssue);
            }
        }
        if let Some((seq, pc)) = squash {
            self.squash_to(SquashKind::MemOrder, seq - 1, pc, None, None);
        }
    }
}

/// Who waits on an in-flight memory request.
#[derive(Debug, Clone, Copy)]
pub(super) enum ReqOwner {
    /// The demand access of the load in this LQ slot.
    Demand(SlotHandle),
    /// The doppelganger of the load in this LQ slot.
    Doppelganger(SlotHandle),
    /// A store-buffer drain.
    StoreDrain,
}

/// The owners of in-flight memory requests: a ring indexed by
/// `id - base`. [`MemorySystem`] hands out ids in ascending order, so an
/// owner is appended at the back (ids with no owner, such as
/// prefetches, leave an empty entry), a response takes its entry out in
/// O(1), and the empty entries at the front are dropped as the oldest
/// requests return.
#[derive(Debug, Clone, Default)]
pub(super) struct ReqOwners {
    /// Id of the ring's front entry.
    base: u64,
    ring: VecDeque<Option<ReqOwner>>,
}

impl ReqOwners {
    /// Forgets every owner, the default state.
    pub(super) fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self { base, ring } = self;
        *base = 0;
        ring.clear();
    }

    /// Records the owner of the request just issued as `id`.
    pub(super) fn insert(&mut self, id: MemReqId, owner: ReqOwner) {
        if self.ring.is_empty() {
            self.base = id.0;
        }
        let at =
            id.0.checked_sub(self.base)
                .and_then(|d| usize::try_from(d).ok())
                .filter(|&at| at >= self.ring.len())
                .expect("request ids ascend");
        self.ring.resize(at, None);
        self.ring.push_back(Some(owner));
    }

    /// Removes and returns the owner of the request `id`, if one was
    /// recorded.
    pub(super) fn take(&mut self, id: MemReqId) -> Option<ReqOwner> {
        let at = usize::try_from(id.0.checked_sub(self.base)?).ok()?;
        let owner = self.ring.get_mut(at)?.take();
        while self.ring.front().is_some_and(Option::is_none) {
            self.ring.pop_front();
            self.base += 1;
        }
        owner
    }
}
