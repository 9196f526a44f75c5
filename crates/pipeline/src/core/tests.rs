use super::*;
use dgl_isa::ProgramBuilder;

fn r(i: u8) -> Reg {
    Reg::new(i)
}

fn run_tiny(
    scheme: SchemeKind,
    ap: bool,
    build: impl FnOnce(&mut ProgramBuilder),
    mem: SparseMemory,
) -> RunReport {
    let mut b = ProgramBuilder::new("t");
    build(&mut b);
    let p = b.build().unwrap();
    Core::new(CoreConfig::tiny(), scheme, ap)
        .run(&p, mem, 1_000_000)
        .expect("run")
}

#[test]
fn empty_halt_program() {
    let rep = run_tiny(
        SchemeKind::Baseline,
        false,
        |b| {
            b.halt();
        },
        SparseMemory::new(),
    );
    assert!(rep.halted);
    assert_eq!(rep.committed, 1);
}

#[test]
fn rename_pressure_does_not_wedge() {
    // More renames than free physical registers in flight.
    let rep = run_tiny(
        SchemeKind::Baseline,
        false,
        |b| {
            for i in 0..400 {
                b.imm(r(1 + (i % 8) as u8), i);
            }
            b.halt();
        },
        SparseMemory::new(),
    );
    assert_eq!(rep.committed, 401);
}

#[test]
fn rob_wraps_many_times() {
    let rep = run_tiny(
        SchemeKind::Stt,
        true,
        |b| {
            b.imm(r(2), 200)
                .label("top")
                .addi(r(1), r(1), 1)
                .subi(r(2), r(2), 1)
                .bne(r(2), Reg::ZERO, "top")
                .halt();
        },
        SparseMemory::new(),
    );
    assert_eq!(rep.reg(r(1)), 200);
}

#[test]
fn store_buffer_pressure_stalls_but_completes() {
    // A burst of stores larger than the tiny store buffer.
    let rep = run_tiny(
        SchemeKind::Baseline,
        false,
        |b| {
            b.imm(r(1), 0x4000);
            for i in 0..32 {
                b.imm(r(2), i).store(r(2), r(1), (8 * i) as i32);
            }
            b.halt();
        },
        SparseMemory::new(),
    );
    assert!(rep.halted);
    assert_eq!(rep.memory.read_u64(0x4000 + 8 * 31), 31);
}

#[test]
fn mshr_saturation_from_many_parallel_misses() {
    // 32 independent loads to distinct lines: more than the 16
    // MSHRs; the core must retry, not drop.
    let mut mem = SparseMemory::new();
    for i in 0..32u64 {
        mem.write_u64(0x10000 + 0x1000 * i, i + 1);
    }
    let rep = run_tiny(
        SchemeKind::Baseline,
        false,
        |b| {
            b.imm(r(1), 0x10000).imm(r(3), 0);
            for i in 0..32 {
                b.load(r(2), r(1), 0x1000 * i).add(r(3), r(3), r(2));
            }
            b.halt();
        },
        mem,
    );
    assert_eq!(rep.reg(r(3)), (1..=32).sum::<i64>());
}

#[test]
fn load_to_r0_discards_but_accesses_memory() {
    let mut mem = SparseMemory::new();
    mem.write_u64(0x9000, 7);
    let rep = run_tiny(
        SchemeKind::DoM,
        true,
        |b| {
            b.imm(r(1), 0x9000).load(Reg::ZERO, r(1), 0).halt();
        },
        mem,
    );
    assert_eq!(rep.reg(Reg::ZERO), 0);
    let (l1, _, _) = rep.caches;
    assert!(l1.accesses >= 1);
}

#[test]
fn dgl_stats_zero_when_ap_off() {
    let mut mem = SparseMemory::new();
    for i in 0..32u64 {
        mem.write_u64(0x8000 + 8 * i, i);
    }
    let rep = run_tiny(
        SchemeKind::NdaP,
        false,
        |b| {
            b.imm(r(1), 0x8000)
                .imm(r(2), 32)
                .label("top")
                .load(r(3), r(1), 0)
                .addi(r(1), r(1), 8)
                .subi(r(2), r(2), 1)
                .bne(r(2), Reg::ZERO, "top")
                .halt();
        },
        mem,
    );
    assert_eq!(rep.stats.dgl_issued, 0);
    assert_eq!(rep.ap.predictions_issued, 0);
    assert_eq!(rep.ap.coverage(), 0.0);
}

#[test]
fn partial_overlap_store_forwarding() {
    // 8-byte store, 4-byte load of its upper half (covers), then a
    // 4-byte store under an 8-byte load (partial: must wait).
    let rep = run_tiny(
        SchemeKind::Baseline,
        true,
        |b| {
            b.imm(r(1), 0xA000)
                .imm(r(2), 0x1122334455667788u64 as i64)
                .store(r(2), r(1), 0)
                .load_w(dgl_isa::Width::B4, r(3), r(1), 4)
                .store_w(dgl_isa::Width::B4, r(2), r(1), 16)
                .load(r(4), r(1), 16)
                .halt();
        },
        SparseMemory::new(),
    );
    assert_eq!(rep.reg(r(3)), 0x11223344);
    assert_eq!(rep.reg(r(4)) as u64, 0x55667788);
}

#[test]
fn committed_branch_counts_match() {
    let rep = run_tiny(
        SchemeKind::Baseline,
        false,
        |b| {
            b.imm(r(2), 50)
                .label("top")
                .subi(r(2), r(2), 1)
                .bne(r(2), Reg::ZERO, "top")
                .halt();
        },
        SparseMemory::new(),
    );
    assert_eq!(rep.stats.committed_branches, 50);
    assert_eq!(rep.committed, 1 + 100 + 1);
}

#[test]
fn deadlock_detector_reports_not_hangs() {
    // A pathological config (zero-latency budget) cannot be built,
    // so exercise the detector via an artificially tiny budget:
    // run() returns halted=false rather than erroring when the
    // cycle budget is the limiter.
    let mut b = ProgramBuilder::new("slow");
    b.imm(r(2), 100_000)
        .label("top")
        .subi(r(2), r(2), 1)
        .bne(r(2), Reg::ZERO, "top")
        .halt();
    let p = b.build().unwrap();
    let rep = Core::new(CoreConfig::tiny(), SchemeKind::Baseline, false)
        .run(&p, SparseMemory::new(), 50)
        .expect("cycle budget is not an error");
    assert!(!rep.halted);
}

#[test]
fn invalidation_injection_is_sorted_and_applied() {
    let mut core = Core::new(CoreConfig::tiny(), SchemeKind::Baseline, false);
    core.inject_invalidation_at(50, 0x2000);
    core.inject_invalidation_at(10, 0x1000);
    let mut b = ProgramBuilder::new("p");
    b.imm(r(1), 0x1000)
        .load(r(2), r(1), 0)
        .load(r(3), r(1), 0x1000)
        .halt();
    let p = b.build().unwrap();
    let rep = core.run(&p, SparseMemory::new(), 100_000).unwrap();
    assert!(rep.halted);
}

#[test]
fn taint_clears_across_reuse() {
    // Regression shape for the r0-taint deadlock: repeated
    // speculative loads into r0 under STT with branches reading r0.
    let mut mem = SparseMemory::new();
    for i in 0..64u64 {
        mem.write_u64(0xB000 + 8 * i, i % 3);
    }
    let rep = run_tiny(
        SchemeKind::Stt,
        true,
        |b| {
            b.imm(r(1), 0xB000)
                .imm(r(2), 64)
                .label("top")
                .load(Reg::ZERO, r(1), 0)
                .beq(Reg::ZERO, Reg::ZERO, "always") // reads r0
                .nop()
                .label("always")
                .addi(r(1), r(1), 8)
                .subi(r(2), r(2), 1)
                .bne(r(2), Reg::ZERO, "top")
                .halt();
        },
        mem,
    );
    assert!(rep.halted);
}

#[test]
fn locked_load_consumers_wake_when_the_load_propagates() {
    // Under NDA-P the second load completes under the first one's
    // unresolved branch and stays locked (ready, not propagated), so
    // its consumer re-waits on the propagate transition alone.
    let mut mem = SparseMemory::new();
    for i in 0..16u64 {
        mem.write_u64(0x20000 + 0x1000 * i, 1);
        mem.write_u64(0x20008 + 0x1000 * i, i);
    }
    for scheme in [SchemeKind::NdaP, SchemeKind::NdaPEager] {
        let rep = run_tiny(
            scheme,
            false,
            |b| {
                b.imm(r(1), 0x20000).imm(r(5), 16).imm(r(4), 0);
                b.label("top")
                    .load(r(2), r(1), 0)
                    .beq(r(2), Reg::ZERO, "out")
                    .load(r(3), r(1), 8)
                    .add(r(4), r(4), r(3))
                    .addi(r(1), r(1), 0x1000)
                    .subi(r(5), r(5), 1)
                    .bne(r(5), Reg::ZERO, "top");
                b.label("out").halt();
            },
            mem.clone(),
        );
        assert_eq!(rep.reg(r(4)), (0..16).sum::<i64>(), "{scheme:?}");
    }
}
