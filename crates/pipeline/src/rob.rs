//! Reorder buffer: entry descriptor and struct-of-arrays storage.

use crate::frontend::RasCheckpoint;
use crate::regfile::PhysReg;
use crate::shadow::Seq;
use crate::soa::{soa_index_of, soa_ring};
use dgl_isa::{Op, Reg, SrcRegs};

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecState {
    /// Dispatched; waiting in the instruction queue for operands.
    Waiting,
    /// Issued to a functional unit (or address generation in flight).
    Issued,
    /// Result computed but the entry is not yet finished (loads waiting
    /// for memory; branches waiting for delayed resolution).
    Executed,
    /// Fully done; eligible for commit.
    Completed,
}

/// Per-branch bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct BranchInfo {
    /// Direction the front-end predicted.
    pub predicted_taken: bool,
    /// Where fetch continued after this instruction.
    pub predicted_next: usize,
    /// Actual direction, once executed.
    pub actual_taken: Option<bool>,
    /// Actual next pc, once executed.
    pub actual_next: Option<usize>,
    /// Global-history checkpoint for recovery.
    pub history_checkpoint: u64,
    /// Return-address-stack checkpoint for recovery.
    pub ras_checkpoint: RasCheckpoint,
    /// Whether resolution (shadow release / possible squash) happened.
    pub resolved: bool,
}

/// Source physical registers, in operand order: the renamed
/// [`Op::srcs`] list, inline in the ROB's source array.
pub type SrcList = SrcRegs<PhysReg>;

/// One in-flight instruction: the push/materialize descriptor for the
/// struct-of-arrays [`Rob`].
#[derive(Debug, Clone, Copy)]
pub struct RobEntry {
    /// Dynamic sequence number (commit order).
    pub seq: Seq,
    /// Static instruction.
    pub pc: usize,
    /// Operation.
    pub op: Op,
    /// Destination rename: `(arch, new, old)`.
    pub dst: Option<(Reg, PhysReg, PhysReg)>,
    /// Source physical registers, in operand order.
    pub srcs: SrcList,
    /// Execution state.
    pub state: ExecState,
    /// Branch/jump bookkeeping.
    pub branch: Option<BranchInfo>,
    /// Whether this entry currently occupies an IQ slot.
    pub in_iq: bool,
    /// STT: taint root recorded for the output.
    pub out_taint: Option<Seq>,
    /// NDA: completed load whose result is locked (not propagated).
    pub locked: bool,
}

impl RobEntry {
    /// Creates a freshly dispatched entry.
    pub fn new(seq: Seq, pc: usize, op: Op) -> Self {
        Self {
            seq,
            pc,
            op,
            dst: None,
            srcs: SrcList::default(),
            state: ExecState::Waiting,
            branch: None,
            in_iq: false,
            out_taint: None,
            locked: false,
        }
    }

    /// The predictor-visible PC address.
    pub fn pc_addr(&self) -> u64 {
        (self.pc as u64) << 2
    }

    /// Whether the entry may retire: completed, and for control flow,
    /// resolved.
    pub fn can_commit(&self) -> bool {
        self.state == ExecState::Completed && self.branch.is_none_or(|b| b.resolved) && !self.locked
    }
}

soa_ring! {
    /// Struct-of-arrays reorder buffer.
    ///
    /// Entries are pushed at dispatch in ascending `seq` order, dropped
    /// from the front at commit, and truncated from the back on squash.
    /// Each field lives in its own ring-indexed array so per-cycle
    /// scans (issue select reads `state`/`in_iq`; commit reads the
    /// head) touch only the bytes they need.
    pub struct Rob from RobEntry {
        seq / seq_mut: Seq,
        pc / pc_mut: usize,
        op / op_mut: Op,
        dst / dst_mut: Option<(Reg, PhysReg, PhysReg)>,
        srcs / srcs_mut: SrcList,
        state / state_mut: ExecState,
        branch / branch_mut: Option<BranchInfo>,
        in_iq / in_iq_mut: bool,
        out_taint / out_taint_mut: Option<Seq>,
        locked / locked_mut: bool,
    }
}

soa_index_of!(Rob);

impl Rob {
    /// Whether the entry at logical index `i` may retire (mirrors
    /// [`RobEntry::can_commit`] without materializing the entry).
    pub fn can_commit(&self, i: usize) -> bool {
        self.state(i) == ExecState::Completed
            && self.branch(i).is_none_or(|b| b.resolved)
            && !self.locked(i)
    }

    /// The predictor-visible PC address of logical index `i`.
    pub fn pc_addr(&self, i: usize) -> u64 {
        (self.pc(i) as u64) << 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entry_waits() {
        let e = RobEntry::new(1, 0, Op::Nop);
        assert_eq!(e.state, ExecState::Waiting);
        assert!(!e.can_commit());
    }

    #[test]
    fn completed_plain_entry_commits() {
        let mut e = RobEntry::new(1, 0, Op::Nop);
        e.state = ExecState::Completed;
        assert!(e.can_commit());
    }

    #[test]
    fn unresolved_branch_blocks_commit() {
        let mut e = RobEntry::new(1, 0, Op::Jump { target: 0 });
        e.state = ExecState::Completed;
        e.branch = Some(BranchInfo {
            predicted_taken: true,
            predicted_next: 0,
            actual_taken: None,
            actual_next: None,
            history_checkpoint: 0,
            ras_checkpoint: RasCheckpoint::default(),
            resolved: false,
        });
        assert!(!e.can_commit());
        e.branch.as_mut().unwrap().resolved = true;
        assert!(e.can_commit());
    }

    #[test]
    fn locked_entry_blocks_commit() {
        let mut e = RobEntry::new(1, 0, Op::Nop);
        e.state = ExecState::Completed;
        e.locked = true;
        assert!(!e.can_commit());
    }

    #[test]
    fn pc_addr_is_shifted() {
        let e = RobEntry::new(1, 5, Op::Nop);
        assert_eq!(e.pc_addr(), 20);
    }

    #[test]
    fn ring_push_pop_round_trips() {
        let mut rob = Rob::with_capacity(4, RobEntry::new(0, 0, Op::Nop));
        for s in 1..=4u64 {
            rob.push(RobEntry::new(s, s as usize, Op::Nop));
        }
        assert_eq!(rob.len(), 4);
        assert_eq!(rob.index_of(3), Some(2));
        assert_eq!(rob.index_of(9), None);
        assert_eq!(rob.seq(0), 1);
        rob.drop_front();
        // Ring wraps: slot 0 is free again.
        rob.push(RobEntry::new(5, 5, Op::Nop));
        assert_eq!(rob.seq(0), 2);
        assert_eq!(rob.seq(3), 5);
        assert_eq!(rob.index_of(5), Some(3));
        rob.truncate(3);
        assert_eq!((rob.len(), rob.seq(2)), (3, 4));
        rob.truncate(9); // not below the live count: nothing to drop
        assert_eq!(rob.len(), 3);
    }

    #[test]
    fn handles_die_on_recycle() {
        let mut rob = Rob::with_capacity(2, RobEntry::new(0, 0, Op::Nop));
        rob.push(RobEntry::new(1, 0, Op::Nop));
        let h = rob.handle(0);
        assert_eq!(rob.resolve(h), Some(0));
        rob.truncate(0);
        assert_eq!(rob.resolve(h), None);
        rob.push(RobEntry::new(2, 0, Op::Nop));
        // Same physical slot, new generation: the stale handle must not
        // alias the new occupant.
        assert_eq!(rob.resolve(h), None);
    }
}
