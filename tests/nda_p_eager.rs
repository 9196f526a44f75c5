//! NDA-P-eager acceptance tests.
//!
//! The scheme exists purely as one arm per rule in `dgl_core::rules`
//! (`branch_reads_unpropagated` is its only difference from NDA-P) —
//! no pipeline stage module was edited to add it. These tests prove the
//! variant carries its weight: it must match the golden model on every
//! workload, stay Spectre-safe, and actually deliver the
//! eager-branch-resolution benefit it claims.

use doppelganger_loads::isa::{Emulator, ProgramBuilder, Reg};
use doppelganger_loads::sim::security::{LeakOutcome, SpectreV1Lab};
use doppelganger_loads::workloads::{suite, Scale};
use doppelganger_loads::{SchemeKind, SimBuilder, SparseMemory};

const SCALE: Scale = Scale::Custom(3_000);

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// A long-latency "gate" branch (fed by a cold strided load) followed by
/// segments that branch *directly* on warm loaded values — the shape
/// eager branch resolution targets. The suite's kernels compute branch
/// predicates through an intervening ALU mask, so this idiom needs its
/// own microbenchmark. `accumulate` adds an ALU consumer of each loaded
/// value and plants nonzero values for it to sum; that re-serializes
/// the segments on load *propagation* (the adds cannot issue on locked
/// values) and makes the segment branches taken, hiding eager's cycle
/// win behind squash traffic, so the perf test leaves it off (all-zero
/// warm block, quiet branches) while the repair test keeps it for an
/// architecturally visible result.
fn branch_on_load_kernel(accumulate: bool) -> (doppelganger_loads::Program, SparseMemory) {
    let mut b = ProgramBuilder::new("branch_on_load");
    b.imm(r(1), 0x0100_0000) // gate cursor: strided cold loads
        .imm(r(2), 0x0800_0000) // reused block: warm after iter 1
        .imm(r(3), 48) // iterations
        .imm(r(6), 0) // accumulator
        .label("top")
        .load(r(9), r(1), 0) // gate load: cold miss
        .bne(r(9), Reg::ZERO, "g"); // gate branch: slow to resolve
    b.label("g");
    for i in 0..8 {
        let l = format!("s{i}");
        b.load(r(5), r(2), 8 * i) // ready fast, locked under the gate
            .bne(r(5), Reg::ZERO, &l) // branches directly on the load
            .label(&l);
        if accumulate {
            b.add(r(6), r(6), r(5));
        }
    }
    b.addi(r(1), r(1), 4096)
        .subi(r(3), r(3), 1)
        .bne(r(3), Reg::ZERO, "top")
        .halt();
    let mut mem = SparseMemory::new();
    if accumulate {
        for i in 0..8u64 {
            mem.write_u64(0x0800_0000 + 8 * i, i % 3);
        }
    }
    (b.build().unwrap(), mem)
}

/// While the gate branch is unresolved, the segment loads sit
/// ready-but-locked; stock NDA-P keeps the segment branches waiting and
/// pays a serial unlock cascade once the gate resolves, while the eager
/// variant resolves them in the shadow and recovers the lost cycles.
#[test]
fn eager_branches_resolve_on_locked_loads_and_recover_cycles() {
    let (p, mem) = branch_on_load_kernel(false);
    let mut stock = SimBuilder::new();
    stock.scheme(SchemeKind::NdaP);
    let mut eager = SimBuilder::new();
    eager.scheme(SchemeKind::NdaPEager);
    let stock_rep = stock
        .run_program(&p, mem.clone(), 1_000_000)
        .expect("nda-p");
    // Verified run: eager's shortcut must not disturb architectural
    // state even on the kernel built to exercise it.
    let eager_rep = eager
        .run_verified(&p, mem, 1_000_000)
        .expect("nda-p-eager verified");
    assert_eq!(stock_rep.committed, eager_rep.committed);
    assert!(
        (eager_rep.cycles as f64) < stock_rep.cycles as f64 * 0.9,
        "eager {} cycles vs stock {} — the shortcut never fired",
        eager_rep.cycles,
        stock_rep.cycles
    );
}

/// §4.4's in-place repair assumes no consumer observed the old value.
/// An eager branch read breaks that precondition, so a coherence
/// invalidation of an eagerly-consumed line must fall back to a squash
/// (`eager_consumed` → `memory_order_squashes`) — and results must
/// still match the golden model.
#[test]
fn eager_consumption_forces_squash_repair_under_invalidation() {
    let (p, mem) = branch_on_load_kernel(true);
    let mut emu = Emulator::new(&p, mem.clone());
    let golden = emu.run(10_000_000).unwrap();
    let mut sb = SimBuilder::new();
    sb.scheme(SchemeKind::NdaPEager);
    let mut core = sb.build_core();
    for k in 0..120u64 {
        core.inject_invalidation_at(15 + 5 * k, 0x0800_0000);
    }
    let rep = core.run(&p, mem, 2_000_000).expect("run");
    assert!(rep.halted);
    assert_eq!(rep.committed, golden.instructions);
    assert_eq!(rep.reg(r(6)), emu.reg(r(6)));
    assert!(
        rep.stats.memory_order_squashes > 0,
        "no eager-consumed repair ever squashed"
    );
}

/// Cycle-level cross-check against the in-order golden model: final
/// registers, full memory image, and instruction count must all match,
/// with and without doppelganger loads, on the whole workload suite.
#[test]
fn nda_p_eager_matches_golden_model_across_the_suite() {
    for w in suite(SCALE) {
        for ap in [false, true] {
            let mut b = SimBuilder::new();
            b.scheme(SchemeKind::NdaPEager).address_prediction(ap);
            let report = b
                .run_verified(&w.program, w.memory.clone(), w.max_cycles)
                .unwrap_or_else(|e| panic!("{} ap={ap}: {e}", w.name));
            assert!(report.halted, "{} ap={ap} must halt", w.name);
        }
    }
}

/// Eager branch resolution must not reopen the Spectre-v1 explicit
/// channel: load/store addresses still wait for propagation, so the
/// transient access pattern never becomes architecturally visible.
#[test]
fn nda_p_eager_does_not_leak_spectre_v1() {
    let lab = SpectreV1Lab::new(0x5a);
    for ap in [false, true] {
        let (outcome, _) = lab.run(SchemeKind::NdaPEager, ap).expect("lab run");
        assert_eq!(outcome, LeakOutcome::NoLeak, "ap={ap}");
    }
    // Sanity: the same lab does leak on the unprotected baseline.
    let (outcome, _) = lab.run(SchemeKind::Baseline, false).expect("lab run");
    assert_eq!(outcome, LeakOutcome::Leaked(0x5a));
}

/// The point of the variant: resolving branches on ready-but-locked
/// operands recovers IPC that stock NDA-P leaves on the table. Compare
/// geomeans across the suite so one microarchitecturally noisy workload
/// cannot flip the verdict.
#[test]
fn nda_p_eager_is_no_slower_than_stock_nda_p() {
    let mut log_ratio_sum = 0.0f64;
    let mut n = 0u32;
    for w in suite(SCALE) {
        let mut stock = SimBuilder::new();
        stock.scheme(SchemeKind::NdaP);
        let mut eager = SimBuilder::new();
        eager.scheme(SchemeKind::NdaPEager);
        let stock_ipc = stock.run_workload(&w).expect("nda-p").ipc();
        let eager_ipc = eager.run_workload(&w).expect("nda-p-eager").ipc();
        log_ratio_sum += (eager_ipc / stock_ipc).ln();
        n += 1;
    }
    let geomean_ratio = (log_ratio_sum / n as f64).exp();
    assert!(
        geomean_ratio >= 0.999,
        "eager/stock geomean IPC ratio {geomean_ratio:.4} regressed"
    );
}
