//! Property tests for the struct-of-arrays ring queues: slot recycling
//! must never alias a live entry. A [`SlotHandle`] taken for an entry
//! stays valid (and resolves to the *same* entry) exactly until that
//! entry is removed — by `drop_front` (commit), `truncate` (squash), or
//! `clear` (redirect) — and resolves to `None` forever after, even once
//! the physical slot is reused by younger pushes. A second test drives
//! seeded branchy programs through the full core so real squash
//! recovery (`recovery.rs`) exercises wraparound and recycling against
//! the golden model.

use dgl_core::SchemeKind;
use dgl_isa::{Emulator, Op, ProgramBuilder, Reg, SparseMemory};
use dgl_pipeline::rob::{Rob, RobEntry};
use dgl_pipeline::soa::SlotHandle;
use dgl_pipeline::{Core, CoreConfig};
use proptest::prelude::*;
use std::collections::VecDeque;

/// One operation on the ring, mirroring how the pipeline uses it.
#[derive(Debug, Clone, Copy)]
enum RingOp {
    /// Dispatch: append a younger entry.
    Push,
    /// Commit: retire the oldest entry.
    DropFront,
    /// Squash: keep only the oldest `n` entries (`n` may exceed the
    /// live count, which keeps everything).
    Truncate(usize),
    /// Fetch redirect: drop everything.
    Clear,
}

fn ring_op() -> impl Strategy<Value = RingOp> {
    prop_oneof![
        // Weight toward pushes so the ring fills and wraps.
        Just(RingOp::Push),
        Just(RingOp::Push),
        Just(RingOp::Push),
        Just(RingOp::DropFront),
        (0..CAP + 2).prop_map(RingOp::Truncate),
        Just(RingOp::Clear),
    ]
}

const CAP: usize = 8; // small so slots recycle constantly

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn handles_never_alias_across_recycling(ops in prop::collection::vec(ring_op(), 1..120)) {
        let mut rob = Rob::with_capacity(CAP, RobEntry::new(0, 0, Op::Nop));
        // Model: the live entries in order, and every handle ever taken.
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut live: Vec<(SlotHandle, u64)> = Vec::new();
        let mut dead: Vec<(SlotHandle, u64)> = Vec::new();
        let mut next_seq: u64 = 1;
        for op in ops {
            match op {
                RingOp::Push => {
                    if model.len() == CAP {
                        continue; // structural hazard: dispatch stalls
                    }
                    let seq = next_seq;
                    next_seq += 1;
                    rob.push(RobEntry::new(seq, seq as usize, Op::Nop));
                    model.push_back(seq);
                    live.push((rob.handle(rob.len() - 1), seq));
                }
                RingOp::DropFront => {
                    if model.is_empty() {
                        continue;
                    }
                    let seq = rob.seq(0);
                    prop_assert_eq!(Some(seq), model.pop_front());
                    rob.drop_front();
                    let i = live.iter().position(|&(_, s)| s == seq).expect("was live");
                    dead.push(live.swap_remove(i));
                }
                RingOp::Truncate(n) => {
                    rob.truncate(n);
                    while model.len() > n {
                        let seq = model.pop_back().expect("non-empty");
                        let i = live.iter().position(|&(_, s)| s == seq).expect("was live");
                        dead.push(live.swap_remove(i));
                    }
                }
                RingOp::Clear => {
                    rob.clear();
                    model.clear();
                    dead.append(&mut live);
                }
            }
            // Ring contents mirror the model exactly, in order.
            prop_assert_eq!(rob.len(), model.len());
            for (i, &seq) in model.iter().enumerate() {
                prop_assert_eq!(rob.seq(i), seq);
                prop_assert_eq!(rob.index_of(seq), Some(i));
            }
            // Every live handle resolves to its own entry...
            for &(h, seq) in &live {
                let i = rob.resolve(h);
                prop_assert!(i.is_some(), "live handle for seq {} died", seq);
                prop_assert_eq!(rob.seq(i.unwrap()), seq, "live handle aliased");
            }
            // ...and every dead handle resolves to nothing, even after
            // its physical slot was recycled by younger pushes.
            for &(h, seq) in &dead {
                prop_assert_eq!(
                    rob.resolve(h),
                    None,
                    "dead handle for seq {} came back to life",
                    seq
                );
            }
        }
    }

    /// Seeded branchy programs with data-dependent control flow: every
    /// misprediction runs `recovery.rs`'s truncation of all three
    /// SoA rings on a tiny core (constant wraparound), then dispatch
    /// recycles the freed slots. Any aliasing corrupts architectural
    /// state, which the golden model catches.
    #[test]
    fn squash_recovery_recycles_slots_without_aliasing(
        seeds in prop::collection::vec(1i64..64, 4),
        rounds in 2u8..10,
    ) {
        let r = Reg::new;
        let mut b = ProgramBuilder::new("squashy");
        let region: i64 = 0x8000;
        b.imm(r(10), region);
        for (i, &s) in seeds.iter().enumerate() {
            b.imm(r(i as u8 + 1), s);
        }
        b.imm(r(12), rounds as i64).label("top");
        // Data-dependent stores and loads so squashes roll back LQ and
        // SQ entries too, not just the ROB.
        b.andi(r(11), r(1), 0x78)
            .add(r(11), r(11), r(10))
            .store(r(2), r(11), 0)
            .load(r(3), r(11), 0)
            .add(r(1), r(1), r(3))
            .andi(r(4), r(1), 0x7)
            // Hard-to-predict branch on loaded data: mispredicts squash
            // mid-flight loads and stores.
            .beq(r(4), Reg::ZERO, "skip")
            .add(r(2), r(2), r(4))
            .label("skip")
            .subi(r(12), r(12), 1)
            .bne(r(12), Reg::ZERO, "top")
            .halt();
        let p = b.build().expect("valid program");
        let mut emu = Emulator::new(&p, SparseMemory::new());
        let golden = emu.run(10_000_000).expect("golden model runs");
        prop_assert!(golden.halted);
        for scheme in SchemeKind::ALL {
            for ap in [false, true] {
                // `tiny()` queues wrap after a handful of instructions,
                // maximizing slot reuse under squash pressure.
                let core = Core::new(CoreConfig::tiny(), scheme, ap);
                let report = core
                    .run(&p, SparseMemory::new(), 2_000_000)
                    .expect("pipeline runs");
                prop_assert!(report.halted, "{} ap={}: did not halt", scheme, ap);
                prop_assert_eq!(
                    report.committed,
                    golden.instructions,
                    "{} ap={}: instruction count",
                    scheme,
                    ap
                );
                for i in 1..5u8 {
                    prop_assert_eq!(
                        report.reg(r(i)),
                        emu.reg(r(i)),
                        "{} ap={}: r{} mismatch",
                        scheme,
                        ap,
                        i
                    );
                }
                prop_assert_eq!(
                    &report.memory,
                    emu.memory(),
                    "{} ap={}: memory mismatch",
                    scheme,
                    ap
                );
            }
        }
    }
}
