//! Load and store queues: entry descriptors, struct-of-arrays storage,
//! and address-overlap logic.

use crate::shadow::Seq;
use crate::soa::{soa_index_of, soa_ring};
use dgl_core::{DelayCause, DoppelgangerState};
use dgl_isa::Width;
use dgl_mem::MemReqId;

/// Progress of a load through the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadState {
    /// Waiting for address generation.
    WaitAddr,
    /// Address known; waiting for a port / scheme permission to issue.
    WaitIssue,
    /// Waiting for an older partially-overlapping store to drain.
    WaitStore(Seq),
    /// Request in flight.
    Issued,
    /// DoM: speculative L1 miss was blocked; reissue at the visibility
    /// point.
    DelayedDoM,
    /// Value obtained (from memory, store forwarding, or a verified
    /// doppelganger preload).
    Done,
}

/// A load-queue entry: the push/materialize descriptor for the
/// struct-of-arrays [`Lq`]. The doppelganger shares this entry (paper
/// §5.1: "a load and its doppelganger share the same load queue
/// entry").
#[derive(Debug, Clone, Copy)]
pub struct LqEntry {
    /// Owning instruction.
    pub seq: Seq,
    /// Static pc.
    pub pc: usize,
    /// Access width.
    pub width: Width,
    /// Resolved address (after AGU).
    pub addr: Option<u64>,
    /// Progress.
    pub state: LoadState,
    /// The loaded (or preloaded) value.
    pub value: Option<i64>,
    /// In-flight conventional request id.
    pub req: Option<MemReqId>,
    /// In-flight doppelganger request id.
    pub dgl_req: Option<MemReqId>,
    /// Doppelganger state machine.
    pub dgl: DoppelgangerState,
    /// Value prediction (DoM+VP comparison mode): the value preloaded
    /// and propagated at dispatch, pending validation against the real
    /// load result.
    pub vp: Option<i64>,
    /// Whether the value came from an older store (forwarding).
    pub forwarded: bool,
    /// Sequence number of the store the value was forwarded from (so a
    /// later-resolving but older store does not clobber a younger
    /// source).
    pub fwd_src: Option<Seq>,
    /// Whether the value has been propagated to dependents.
    pub propagated: bool,
    /// DoM: a speculative L1 hit whose replacement update is deferred
    /// to commit.
    pub needs_touch: bool,
    /// Whether this load was speculative when its value was obtained
    /// (drives NDA locking and STT tainting).
    pub speculative_at_complete: bool,
    /// Cycle the load was dispatched (for latency accounting).
    pub dispatch_cycle: u64,
    /// Set when an eagerly-issued branch consumed this load's
    /// ready-but-unpropagated value (NDA-P-eager). The §4.4 in-place
    /// repair assumes no consumer has observed the old value; once this
    /// is set, repair must squash instead of overriding.
    pub eager_consumed: bool,
    /// Cycle accounting: the first scheme rule that parked this load
    /// (sticky — the load's later exposed head wait charges here).
    /// Never read by simulation.
    pub park_rule: Option<DelayCause>,
    /// Cycle accounting: start cycle of the currently open park
    /// episode, if one is active. Same write-only discipline as
    /// [`Self::park_rule`].
    pub park_since: Option<u64>,
}

impl LqEntry {
    /// Creates an entry at dispatch. `dgl` carries the decode-time
    /// address prediction, if one was made.
    pub fn new(seq: Seq, pc: usize, width: Width, dgl: DoppelgangerState) -> Self {
        Self {
            seq,
            pc,
            width,
            addr: None,
            state: LoadState::WaitAddr,
            value: None,
            req: None,
            dgl_req: None,
            dgl,
            vp: None,
            forwarded: false,
            fwd_src: None,
            propagated: false,
            needs_touch: false,
            speculative_at_complete: false,
            dispatch_cycle: 0,
            eager_consumed: false,
            park_rule: None,
            park_since: None,
        }
    }
}

/// A store-queue entry: the push/materialize descriptor for the
/// struct-of-arrays [`Sq`]. Address generation and data capture are
/// decoupled, as in real LSQs: the AGU runs as soon as the base
/// register is available (releasing the D-shadow early), while the data
/// may arrive much later.
#[derive(Debug, Clone, Copy)]
pub struct SqEntry {
    /// Owning instruction.
    pub seq: Seq,
    /// Static pc.
    pub pc: usize,
    /// Access width.
    pub width: Width,
    /// Resolved address (after AGU).
    pub addr: Option<u64>,
    /// Store data, once the source register propagates.
    pub data: Option<i64>,
    /// Physical register the data comes from.
    pub data_src: crate::regfile::PhysReg,
}

impl SqEntry {
    /// Creates an entry at dispatch.
    pub fn new(seq: Seq, pc: usize, width: Width, data_src: crate::regfile::PhysReg) -> Self {
        Self {
            seq,
            pc,
            width,
            addr: None,
            data: None,
            data_src,
        }
    }
}

soa_ring! {
    /// Struct-of-arrays load queue.
    ///
    /// Entries enter at dispatch in ascending `seq` order, leave from
    /// the front at commit and are truncated on squash, so `seq` stays
    /// sorted and `index_of` is a binary search. Hot scans (memory
    /// issue reads `state`/`addr`; visibility maintenance reads
    /// `state`/`propagated`) touch only their own arrays.
    pub struct Lq from LqEntry {
        seq / seq_mut: Seq,
        pc / pc_mut: usize,
        width / width_mut: Width,
        addr / addr_mut: Option<u64>,
        state / state_mut: LoadState,
        value / value_mut: Option<i64>,
        req / req_mut: Option<MemReqId>,
        dgl_req / dgl_req_mut: Option<MemReqId>,
        dgl / dgl_mut: DoppelgangerState,
        vp / vp_mut: Option<i64>,
        forwarded / forwarded_mut: bool,
        fwd_src / fwd_src_mut: Option<Seq>,
        propagated / propagated_mut: bool,
        needs_touch / needs_touch_mut: bool,
        speculative_at_complete / speculative_at_complete_mut: bool,
        dispatch_cycle / dispatch_cycle_mut: u64,
        eager_consumed / eager_consumed_mut: bool,
        park_rule / park_rule_mut: Option<DelayCause>,
        park_since / park_since_mut: Option<u64>,
    }
}

soa_index_of!(Lq);

soa_ring! {
    /// Struct-of-arrays store queue (same dispatch/commit/squash
    /// ordering discipline as [`Lq`]).
    pub struct Sq from SqEntry {
        seq / seq_mut: Seq,
        pc / pc_mut: usize,
        width / width_mut: Width,
        addr / addr_mut: Option<u64>,
        data / data_mut: Option<i64>,
        data_src / data_src_mut: crate::regfile::PhysReg,
    }
}

soa_index_of!(Sq);

/// Relationship between a store's bytes and a load's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlap {
    /// No bytes shared.
    None,
    /// The store covers every byte of the load (forwardable).
    Covers,
    /// Some bytes shared but not all (must wait for the store to
    /// drain).
    Partial,
}

/// Classifies the overlap between `[store_addr, store_addr+store_w)` and
/// `[load_addr, load_addr+load_w)`.
pub fn overlap(store_addr: u64, store_w: Width, load_addr: u64, load_w: Width) -> Overlap {
    let s0 = store_addr;
    let s1 = store_addr.wrapping_add(store_w.bytes());
    let l0 = load_addr;
    let l1 = load_addr.wrapping_add(load_w.bytes());
    // Addresses in workloads are far from wraparound; treat as linear.
    if s1 <= l0 || l1 <= s0 {
        Overlap::None
    } else if s0 <= l0 && l1 <= s1 {
        Overlap::Covers
    } else {
        Overlap::Partial
    }
}

/// Extracts the loaded value when a covering store forwards: shifts the
/// store data to the load's offset and masks to the load width.
pub fn forward_value(store_addr: u64, store_data: i64, load_addr: u64, load_w: Width) -> i64 {
    let byte_off = load_addr.wrapping_sub(store_addr);
    let shifted = (store_data as u64) >> (8 * byte_off);
    let masked = match load_w {
        Width::B1 => shifted & 0xff,
        Width::B2 => shifted & 0xffff,
        Width::B4 => shifted & 0xffff_ffff,
        Width::B8 => shifted,
    };
    masked as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_classification() {
        use Overlap::*;
        assert_eq!(overlap(0, Width::B8, 8, Width::B8), None);
        assert_eq!(overlap(8, Width::B8, 0, Width::B8), None);
        assert_eq!(overlap(0, Width::B8, 0, Width::B8), Covers);
        assert_eq!(overlap(0, Width::B8, 4, Width::B4), Covers);
        assert_eq!(overlap(0, Width::B4, 0, Width::B8), Partial);
        assert_eq!(overlap(4, Width::B8, 0, Width::B8), Partial);
    }

    #[test]
    fn forward_value_same_address() {
        assert_eq!(
            forward_value(0x100, 0x1122334455667788, 0x100, Width::B8),
            0x1122334455667788
        );
        assert_eq!(
            forward_value(0x100, 0x1122334455667788, 0x100, Width::B4),
            0x55667788
        );
    }

    #[test]
    fn forward_value_offset_within_store() {
        // Load the high 4 bytes of an 8-byte store.
        assert_eq!(
            forward_value(0x100, 0x1122334455667788, 0x104, Width::B4),
            0x11223344
        );
        // Single byte at offset 1 (little-endian: byte 1 is 0x77).
        assert_eq!(
            forward_value(0x100, 0x1122334455667788, 0x101, Width::B1),
            0x77
        );
    }

    #[test]
    fn load_entry_starts_waiting() {
        let e = LqEntry::new(3, 0, Width::B8, DoppelgangerState::unpredicted());
        assert_eq!(e.state, LoadState::WaitAddr);
        assert!(e.addr.is_none());
        assert!(!e.propagated);
    }

    #[test]
    fn store_entry_starts_unresolved() {
        let e = SqEntry::new(3, 0, Width::B8, crate::regfile::PhysReg(5));
        assert!(e.addr.is_none());
        assert!(e.data.is_none());
        assert_eq!(e.data_src, crate::regfile::PhysReg(5));
    }

    #[test]
    fn lq_ring_stays_seq_sorted() {
        let filler = LqEntry::new(0, 0, Width::B8, DoppelgangerState::unpredicted());
        let mut lq = Lq::with_capacity(4, filler);
        for s in [2u64, 5, 9] {
            lq.push(LqEntry::new(
                s,
                0,
                Width::B8,
                DoppelgangerState::unpredicted(),
            ));
        }
        assert_eq!(lq.index_of(5), Some(1));
        assert_eq!(lq.index_of(4), None);
        lq.drop_front();
        lq.push(LqEntry::new(
            11,
            0,
            Width::B8,
            DoppelgangerState::unpredicted(),
        ));
        assert_eq!(lq.index_of(11), Some(2));
        assert_eq!(lq.index_of(2), None);
        // Live: 5, 9, 11.
        assert_eq!(lq.count_through(4), 0);
        assert_eq!(lq.count_through(9), 2);
        assert_eq!(lq.count_through(10), 2);
        assert_eq!(lq.count_through(u64::MAX), 3);
    }
}
