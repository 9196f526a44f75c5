//! Visibility-sweep edge cases, checked against the golden emulator.
//! Debug builds also run the wake-up consistency check on every tick,
//! so a load that misses its wake-up fails here.
//!
//! * A squash raised inside the sweep must not leave the sweep walking
//!   load-queue slots the squash just freed. One load per iteration
//!   waits on an older store whose data arrives late (a shift plus four
//!   dependent multiplies), so the load forwards only once the sweep
//!   rechecks it. Under DoM+VP the load carries a value prediction that
//!   the forwarded value contradicts, and the mismatch squashes every
//!   younger instruction, including the three younger loads queued
//!   behind it.
//! * A store that resolves its address between a waiting load and the
//!   store the load waits on changes the load's forwarding source, so
//!   it must wake the load.

use dgl_core::SchemeKind;
use dgl_isa::{Emulator, Program, ProgramBuilder, Reg, SparseMemory};
use dgl_pipeline::{Core, CoreConfig};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

const BUF: i64 = 0x20_0000;

fn late_store_kernel(iters: i64) -> (Program, SparseMemory) {
    let mut b = ProgramBuilder::new("late-store-forward");
    b.imm(r(1), BUF)
        .imm(r(2), iters)
        .imm(r(3), 0)
        .imm(r(7), 3)
        .imm(r(8), 0x1234_5678)
        .label("top")
        .shri(r(9), r(8), 3)
        .mul(r(9), r(9), r(7))
        .mul(r(9), r(9), r(7))
        .mul(r(9), r(9), r(7))
        .mul(r(9), r(9), r(7))
        .store(r(9), r(1), 0)
        .load(r(4), r(1), 0)
        .load(r(5), r(1), 8)
        .load(r(6), r(1), 16)
        .load(r(10), r(1), 24)
        .add(r(3), r(3), r(4))
        .add(r(3), r(3), r(5))
        .add(r(3), r(3), r(6))
        .add(r(3), r(3), r(10))
        .addi(r(8), r(8), 977)
        .subi(r(2), r(2), 1)
        .bne(r(2), Reg::ZERO, "top")
        .halt();
    let mut mem = SparseMemory::new();
    for i in 0..4u64 {
        mem.write_u64(BUF as u64 + 8 * i, 11 + i);
    }
    (b.build().unwrap(), mem)
}

#[test]
fn value_mismatch_squash_inside_the_sweep_keeps_registers_golden() {
    let (p, mem) = late_store_kernel(200);
    let mut emu = Emulator::new(&p, mem.clone());
    let g = emu.run(10_000_000).unwrap();
    for scheme in [SchemeKind::Baseline, SchemeKind::DoM] {
        for (name, cfg) in [
            ("default", CoreConfig::default()),
            ("tiny", CoreConfig::tiny()),
        ] {
            let mut core = Core::new(cfg, scheme, false);
            core.enable_value_prediction();
            let rep = core.run(&p, mem.clone(), 4_000_000).expect("run");
            assert!(rep.halted, "{scheme}/{name}");
            assert_eq!(rep.committed, g.instructions, "{scheme}/{name}");
            for i in 1..=10 {
                assert_eq!(rep.reg(r(i)), emu.reg(r(i)), "{scheme}/{name} r{i}");
            }
            assert!(
                rep.stats.vp_squashes > 0,
                "{scheme}/{name}: no value squash"
            );
        }
    }
}

/// Per iteration: store `S` with an early address and late data, then
/// store `X` to the same address with a late address and early data,
/// then a load of that address. The load parks on `S` (covering, data
/// pending) before `X` resolves; once `X` resolves, it forwards from
/// `X` without waiting for `S`.
fn younger_store_resolves_late(iters: i64) -> (Program, SparseMemory) {
    let mut b = ProgramBuilder::new("younger-store-resolves-late");
    b.imm(r(1), BUF)
        .imm(r(2), iters)
        .imm(r(3), 0)
        .imm(r(7), 3)
        .imm(r(8), 0x55)
        .imm(r(11), BUF)
        .imm(r(12), 1)
        .label("top")
        .mul(r(9), r(8), r(7))
        .mul(r(9), r(9), r(7))
        .mul(r(9), r(9), r(7))
        .mul(r(9), r(9), r(7))
        .mul(r(9), r(9), r(7))
        .mul(r(10), r(11), r(12))
        .mul(r(10), r(10), r(12))
        .store(r(9), r(1), 0)
        .store(r(2), r(10), 0)
        .load(r(4), r(1), 0)
        .add(r(3), r(3), r(4))
        .addi(r(8), r(8), 7)
        .subi(r(2), r(2), 1)
        .bne(r(2), Reg::ZERO, "top")
        .halt();
    (b.build().unwrap(), SparseMemory::new())
}

#[test]
fn a_store_resolving_between_a_waiting_load_and_its_store_wakes_the_load() {
    let (p, mem) = younger_store_resolves_late(200);
    let mut emu = Emulator::new(&p, mem.clone());
    let g = emu.run(10_000_000).unwrap();
    for scheme in [
        SchemeKind::Baseline,
        SchemeKind::NdaP,
        SchemeKind::Stt,
        SchemeKind::DoM,
    ] {
        for ap in [false, true] {
            let rep = Core::new(CoreConfig::default(), scheme, ap)
                .run(&p, mem.clone(), 4_000_000)
                .expect("run");
            assert!(rep.halted, "{scheme}/{ap}");
            assert_eq!(rep.committed, g.instructions, "{scheme}/{ap}");
            assert_eq!(rep.reg(r(3)), emu.reg(r(3)), "{scheme}/{ap}");
        }
    }
}
