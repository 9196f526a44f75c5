//! Fetch engine: follows branch predictions (including down wrong
//! paths), stalls on unpredictable indirect jumps, and applies redirect
//! penalties after squashes.

use crate::soa::soa_ring;
use dgl_isa::{Inst, Op, Program};
use dgl_predictor::{BranchPredictor, BranchPredictorConfig};

/// Maximum return-address-stack depth.
const RAS_DEPTH: usize = 16;

/// A snapshot of the return-address stack's top, used to repair the
/// speculative RAS after a squash. Restoring only `(len, top)` is the
/// classic imperfect-RAS approximation: deeper corruption costs
/// performance, never correctness (returns are verified at execute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RasCheckpoint {
    /// Stack depth at capture time.
    pub len: u8,
    /// Top-of-stack value at capture time (0 when empty).
    pub top: usize,
}

/// An instruction fetched (but not yet renamed), with its prediction
/// metadata.
#[derive(Debug, Clone, Copy)]
pub struct FetchedInst {
    /// The static instruction.
    pub inst: Inst,
    /// Cycle it was fetched (rename may consume it `frontend_depth`
    /// cycles later).
    pub fetch_cycle: u64,
    /// Predicted direction for predicted control flow.
    pub predicted_taken: bool,
    /// The pc fetch continued at after this instruction.
    pub predicted_next: usize,
    /// History checkpoint for squash recovery.
    pub history_checkpoint: u64,
    /// Return-address-stack checkpoint for squash recovery.
    pub ras_checkpoint: RasCheckpoint,
}

soa_ring! {
    /// Struct-of-arrays fetch queue. Rename's readiness check touches
    /// only the `fetch_cycle` array; redirect clears in O(len).
    pub struct FetchQueue from FetchedInst {
        inst / inst_mut: Inst,
        fetch_cycle / fetch_cycle_mut: u64,
        predicted_taken / predicted_taken_mut: bool,
        predicted_next / predicted_next_mut: usize,
        history_checkpoint / history_checkpoint_mut: u64,
        ras_checkpoint / ras_checkpoint_mut: RasCheckpoint,
    }
}

/// The fetch stage.
#[derive(Debug)]
pub struct Frontend {
    bpred: BranchPredictor,
    queue: FetchQueue,
    ras: Vec<usize>,
    fetch_pc: usize,
    /// Fetch is blocked until an unpredictable indirect jump resolves.
    blocked_on_indirect: bool,
    /// Fetch stalled until this cycle (redirect penalty).
    stall_until: u64,
    /// Stop fetching entirely (a halt was fetched on this path).
    halted_path: bool,
    capacity: usize,
    width: usize,
}

impl Frontend {
    /// Creates a frontend starting at pc 0.
    pub fn new(width: usize, bpred_cfg: BranchPredictorConfig) -> Self {
        let capacity = width * 12;
        let filler = FetchedInst {
            inst: Inst { pc: 0, op: Op::Nop },
            fetch_cycle: 0,
            predicted_taken: false,
            predicted_next: 0,
            history_checkpoint: 0,
            ras_checkpoint: RasCheckpoint::default(),
        };
        // Values here only fill the struct: `reset` sets the state.
        let mut front = Self {
            bpred: BranchPredictor::new(bpred_cfg),
            queue: FetchQueue::with_capacity(capacity, filler),
            ras: Vec::with_capacity(RAS_DEPTH),
            fetch_pc: 0,
            blocked_on_indirect: false,
            stall_until: 0,
            halted_path: false,
            capacity,
            width,
        };
        front.reset();
        front
    }

    /// Returns the frontend to the state [`new`](Self::new) builds:
    /// fetch at pc 0, an empty queue and return-address stack, and an
    /// untrained branch predictor (see [`BranchPredictor::reset`]).
    pub fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self {
            bpred,
            queue,
            ras,
            fetch_pc,
            blocked_on_indirect,
            stall_until,
            halted_path,
            capacity: _,
            width: _,
        } = self;
        bpred.reset();
        queue.reset();
        ras.clear();
        *fetch_pc = 0;
        *blocked_on_indirect = false;
        *stall_until = 0;
        *halted_path = false;
    }

    /// The branch predictor (for commit-time training).
    pub fn bpred_mut(&mut self) -> &mut BranchPredictor {
        &mut self.bpred
    }

    /// Read-only access to the branch predictor.
    pub fn bpred(&self) -> &BranchPredictor {
        &self.bpred
    }

    /// Fetches up to `width` instructions this cycle. Returns whether
    /// any instruction entered the queue (fetch-side activity for the
    /// skip-ahead kernel).
    pub fn fetch(&mut self, program: &Program, now: u64) -> bool {
        if now < self.stall_until || self.blocked_on_indirect || self.halted_path {
            return false;
        }
        let mut pushed = false;
        for _ in 0..self.width {
            if self.queue.len() >= self.capacity {
                break;
            }
            let Some(inst) = program.fetch(self.fetch_pc) else {
                // Ran off the program (wrong path): starve until squash.
                self.halted_path = true;
                break;
            };
            let mut predicted_taken = false;
            let mut checkpoint = 0;
            let ras_checkpoint = RasCheckpoint {
                len: self.ras.len() as u8,
                top: self.ras.last().copied().unwrap_or(0),
            };
            let next = match inst.op {
                Op::Jump { target } => target,
                Op::Call { target } => {
                    if self.ras.len() == RAS_DEPTH {
                        self.ras.remove(0);
                    }
                    self.ras.push(inst.pc + 1);
                    target
                }
                Op::Ret => {
                    predicted_taken = true;
                    // Shift history with the known-taken outcome so the
                    // speculative and commit histories stay in step.
                    checkpoint = self
                        .bpred
                        .predict_unconditional(inst.pc_addr())
                        .history_checkpoint;
                    match self.ras.pop() {
                        Some(t) => t,
                        None => {
                            // Empty RAS: block until the return resolves.
                            self.queue.push(FetchedInst {
                                inst,
                                fetch_cycle: now,
                                predicted_taken: true,
                                predicted_next: usize::MAX,
                                history_checkpoint: checkpoint,
                                ras_checkpoint,
                            });
                            self.blocked_on_indirect = true;
                            return true;
                        }
                    }
                }
                Op::Branch { .. } => {
                    let p = self.bpred.predict(inst.pc_addr());
                    predicted_taken = p.taken;
                    checkpoint = p.history_checkpoint;
                    if p.taken {
                        match inst.op {
                            Op::Branch { target, .. } => target,
                            _ => unreachable!(),
                        }
                    } else {
                        inst.pc + 1
                    }
                }
                Op::JumpReg { .. } => {
                    let p = self.bpred.predict_unconditional(inst.pc_addr());
                    predicted_taken = true;
                    checkpoint = p.history_checkpoint;
                    match p.target {
                        Some(t) => t,
                        None => {
                            // No BTB entry: fetch this jump, then block
                            // until it resolves and redirects us.
                            self.queue.push(FetchedInst {
                                inst,
                                fetch_cycle: now,
                                predicted_taken: true,
                                predicted_next: usize::MAX,
                                history_checkpoint: checkpoint,
                                ras_checkpoint,
                            });
                            self.blocked_on_indirect = true;
                            return true;
                        }
                    }
                }
                Op::Halt => {
                    self.queue.push(FetchedInst {
                        inst,
                        fetch_cycle: now,
                        predicted_taken: false,
                        predicted_next: inst.pc,
                        history_checkpoint: 0,
                        ras_checkpoint,
                    });
                    self.halted_path = true;
                    return true;
                }
                _ => inst.pc + 1,
            };
            self.queue.push(FetchedInst {
                inst,
                fetch_cycle: now,
                predicted_taken,
                predicted_next: next,
                history_checkpoint: checkpoint,
                ras_checkpoint,
            });
            pushed = true;
            self.fetch_pc = next;
        }
        pushed
    }

    /// The instruction at the head of the fetch queue, once its
    /// front-end latency has elapsed. Rename checks its structural
    /// hazards on this, reads the rest of the head's fields in place
    /// through [`queue`](Self::queue), and then consumes it with
    /// [`drop_ready`](Self::drop_ready).
    #[inline]
    pub fn ready_head(&self, now: u64, depth: u64) -> Option<Inst> {
        (!self.queue.is_empty() && self.queue.fetch_cycle(0) + depth <= now)
            .then(|| self.queue.inst(0))
    }

    /// Consumes the head instruction [`ready_head`](Self::ready_head)
    /// returned.
    #[inline]
    pub fn drop_ready(&mut self) {
        self.queue.drop_front();
    }

    /// The fetch queue, oldest instruction at logical index 0.
    #[inline]
    pub fn queue(&self) -> &FetchQueue {
        &self.queue
    }

    /// The earliest future cycle at which time passage alone can change
    /// fetch-domain state: the redirect-penalty expiry (when fetch is
    /// neither blocked nor halted and the queue has room) and the front
    /// of the queue clearing its front-end latency. Returns `None` when
    /// no timed wake exists; wakes at or before the current cycle mean
    /// the blockage is not time-driven and must be ignored by the
    /// caller.
    pub fn next_wake(&self, depth: u64) -> Option<u64> {
        let mut wake: Option<u64> = None;
        if !self.blocked_on_indirect && !self.halted_path && self.queue.len() < self.capacity {
            wake = Some(self.stall_until);
        }
        if !self.queue.is_empty() {
            let head = self.queue.fetch_cycle(0) + depth;
            wake = Some(wake.map_or(head, |w| w.min(head)));
        }
        wake
    }

    /// Redirects fetch after a squash or an indirect-jump resolution.
    /// `history_checkpoint`/`actual_taken` repair the speculative
    /// global-history register.
    pub fn redirect(
        &mut self,
        target: usize,
        now: u64,
        penalty: u64,
        history: Option<(u64, bool)>,
    ) {
        self.redirect_with_ras(target, now, penalty, history, None)
    }

    /// [`redirect`](Self::redirect), additionally repairing the
    /// return-address stack from the squashing instruction's
    /// checkpoint.
    pub fn redirect_with_ras(
        &mut self,
        target: usize,
        now: u64,
        penalty: u64,
        history: Option<(u64, bool)>,
        ras: Option<RasCheckpoint>,
    ) {
        self.queue.clear();
        self.fetch_pc = target;
        self.blocked_on_indirect = false;
        self.halted_path = false;
        self.stall_until = now + penalty;
        if let Some((checkpoint, taken)) = history {
            self.bpred.restore_history(checkpoint, taken);
        }
        if let Some(cp) = ras {
            self.ras.truncate(cp.len as usize);
            if self.ras.len() < cp.len as usize {
                // Wrong-path pops destroyed entries; at least the top
                // can be repaired (imperfect-RAS approximation).
                self.ras.clear();
                if cp.len > 0 {
                    self.ras.push(cp.top);
                }
            }
        }
    }

    /// Current return-address-stack depth (tests).
    pub fn ras_depth(&self) -> usize {
        self.ras.len()
    }

    /// Number of queued instructions.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Whether fetch is blocked on an unpredictable indirect jump.
    pub fn is_blocked_on_indirect(&self) -> bool {
        self.blocked_on_indirect
    }

    /// Whether fetch is still serving a redirect penalty at `now`
    /// (read-only; cycle accounting uses it to classify empty-ROB
    /// cycles).
    pub fn is_redirect_stalled(&self, now: u64) -> bool {
        now < self.stall_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgl_isa::{ProgramBuilder, Reg};

    fn frontend() -> Frontend {
        Frontend::new(4, BranchPredictorConfig::default())
    }

    /// Consumes the ready head as dispatch does: `(pc, predicted taken)`.
    fn take(f: &mut Frontend, now: u64, depth: u64) -> Option<(usize, bool)> {
        let inst = f.ready_head(now, depth)?;
        let taken = f.queue().predicted_taken(0);
        f.drop_ready();
        Some((inst.pc, taken))
    }

    #[test]
    fn fetches_straight_line() {
        let mut b = ProgramBuilder::new("p");
        b.nop().nop().nop().halt();
        let p = b.build().unwrap();
        let mut f = frontend();
        assert!(f.fetch(&p, 0));
        assert_eq!(f.queued(), 4);
        // Fourth is halt; fetch stops after it.
        assert!(!f.fetch(&p, 1));
        assert_eq!(f.queued(), 4);
    }

    #[test]
    fn respects_frontend_depth() {
        let mut b = ProgramBuilder::new("p");
        b.nop().halt();
        let p = b.build().unwrap();
        let mut f = frontend();
        f.fetch(&p, 0);
        assert!(take(&mut f, 3, 6).is_none());
        assert!(take(&mut f, 6, 6).is_some());
    }

    #[test]
    fn follows_not_taken_prediction_on_cold_branch() {
        let r1 = Reg::new(1);
        let mut b = ProgramBuilder::new("p");
        b.beq(r1, r1, "away").nop().halt().label("away").halt();
        let p = b.build().unwrap();
        let mut f = frontend();
        f.fetch(&p, 0);
        // Cold gshare counters predict not-taken: fetch falls through.
        assert_eq!(take(&mut f, 10, 0), Some((0, false)));
        assert_eq!(take(&mut f, 10, 0).map(|(pc, _)| pc), Some(1));
    }

    #[test]
    fn follows_trained_taken_prediction() {
        let r1 = Reg::new(1);
        let mut b = ProgramBuilder::new("p");
        b.label("top").beq(r1, r1, "top").halt();
        let p = b.build().unwrap();
        let mut f = frontend();
        for _ in 0..8 {
            f.bpred_mut().train(0, true, Some(0));
        }
        f.fetch(&p, 0);
        let insts: Vec<_> = std::iter::from_fn(|| take(&mut f, 10, 0))
            .map(|(pc, _)| pc)
            .collect();
        assert!(insts.iter().all(|&pc| pc == 0), "loop fetched: {insts:?}");
    }

    #[test]
    fn blocks_on_cold_indirect_jump() {
        let r1 = Reg::new(1);
        let mut b = ProgramBuilder::new("p");
        b.jr(r1).halt();
        let p = b.build().unwrap();
        let mut f = frontend();
        f.fetch(&p, 0);
        assert!(f.is_blocked_on_indirect());
        assert_eq!(f.queued(), 1);
        f.fetch(&p, 1);
        assert_eq!(f.queued(), 1, "no fetch past unpredictable jr");
        f.redirect(1, 2, 0, None);
        f.fetch(&p, 2);
        assert!(!f.is_blocked_on_indirect());
        assert_eq!(f.queued(), 1); // the halt at pc 1
    }

    #[test]
    fn redirect_applies_penalty_and_clears_queue() {
        let mut b = ProgramBuilder::new("p");
        b.nop().nop().halt();
        let p = b.build().unwrap();
        let mut f = frontend();
        f.fetch(&p, 0);
        assert!(f.queued() > 0);
        f.redirect(2, 10, 4, None);
        assert_eq!(f.queued(), 0);
        f.fetch(&p, 12); // still stalled
        assert_eq!(f.queued(), 0);
        f.fetch(&p, 14);
        assert_eq!(f.queued(), 1);
    }

    #[test]
    fn call_pushes_and_ret_pops_the_ras() {
        let mut b = ProgramBuilder::new("p");
        b.call("f").halt().label("f").nop().ret();
        let p = b.build().unwrap();
        let mut f = frontend();
        f.fetch(&p, 0);
        // call (push), nop, ret (pop back to 1), halt.
        let pcs: Vec<_> = std::iter::from_fn(|| take(&mut f, 10, 0))
            .map(|(pc, _)| pc)
            .collect();
        assert_eq!(pcs, vec![0, 2, 3, 1]);
        assert_eq!(f.ras_depth(), 0);
    }

    #[test]
    fn empty_ras_return_blocks_fetch() {
        let mut b = ProgramBuilder::new("p");
        b.ret().halt();
        let p = b.build().unwrap();
        let mut f = frontend();
        f.fetch(&p, 0);
        assert!(f.is_blocked_on_indirect());
        assert_eq!(f.queued(), 1);
    }

    #[test]
    fn redirect_restores_ras_from_checkpoint() {
        let mut b = ProgramBuilder::new("p");
        b.call("f").halt().label("f").nop().ret();
        let p = b.build().unwrap();
        let mut f = frontend();
        f.fetch(&p, 0);
        assert_eq!(f.ras_depth(), 0, "ret already popped");
        // Pretend a squash back to just after the call: depth 1, top 1.
        f.redirect_with_ras(2, 5, 0, None, Some(RasCheckpoint { len: 1, top: 1 }));
        assert_eq!(f.ras_depth(), 1);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        // 20 nested calls into a 16-deep RAS must not panic and must
        // cap the depth.
        let mut b = ProgramBuilder::new("p");
        for i in 0..20 {
            b.label(&format!("f{i}")).call(&format!("f{}", i + 1));
        }
        b.label("f20").halt();
        let p = b.build().unwrap();
        let mut f = frontend();
        for c in 0..10 {
            f.fetch(&p, c);
        }
        assert!(f.ras_depth() <= 16);
    }

    #[test]
    fn wrong_path_off_end_starves_quietly() {
        let mut b = ProgramBuilder::new("p");
        b.nop(); // no halt: program "ends"
        let p = b.build().unwrap();
        let mut f = frontend();
        f.fetch(&p, 0);
        f.fetch(&p, 1);
        assert_eq!(f.queued(), 1, "one nop, then starvation");
    }

    #[test]
    fn next_wake_reports_stall_and_head_latency() {
        let mut b = ProgramBuilder::new("p");
        b.nop().nop().halt();
        let p = b.build().unwrap();
        let mut f = frontend();
        f.redirect(0, 10, 4, None);
        // Stalled with an empty queue: wake when the penalty expires.
        assert_eq!(f.next_wake(6), Some(14));
        f.fetch(&p, 14);
        // Halt fetched: only the head-ready wake remains.
        assert_eq!(f.next_wake(6), Some(20));
    }
}
