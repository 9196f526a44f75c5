//! Figure 2 (§4.2): the doppelganger itself is a new implicit channel —
//! and a safe one. A *transient* (bound-to-squash) instance of a
//! trained load gets a doppelganger issued at its **predicted** address,
//! which may miss and change cache state. That is allowed precisely
//! because the prediction derives from committed history only:
//!
//! * the observable state change is identical for every secret
//!   (noninterference), even when the transient instance's *real*
//!   address was poisoned with the secret;
//! * the secret-derived address itself never appears in the hierarchy
//!   under any secure scheme.

use doppelganger_loads::sim::security::observation;
use doppelganger_loads::{Core, CoreConfig, Program, Reg, SchemeKind, SimBuilder, SparseMemory};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

const BASE: i64 = 0x0010_0000; // trained stride region
const SECRET: i64 = 0x0030_0000;
const CHAIN: i64 = 0x0040_0000;
const TRAIN_ITERS: i64 = 12;

/// Phase 1 trains a strided load (inside a function, so the *same
/// static load* can be reached transiently later); phase 2 enters a
/// never-taken region via a cold misprediction and calls the function
/// with a secret-poisoned cursor.
fn gadget() -> Program {
    let mut b = doppelganger_loads::ProgramBuilder::new("fig2");
    b.imm(r(9), SECRET)
        .imm(r(1), BASE)
        .imm(r(3), TRAIN_ITERS)
        .imm(r(2), CHAIN)
        // Phase 1: train.
        .label("train")
        .call("work")
        .subi(r(3), r(3), 1)
        .bne(r(3), Reg::ZERO, "train")
        // Phase 2: a slow, always-taken guard; its first execution is
        // cold-mispredicted into the region below.
        .load(r(2), r(2), 0)
        .load(r(7), r(2), 8) // always 1, arrives ~150 cycles later
        .bne(r(7), Reg::ZERO, "after")
        // --- transient-only region ---
        // The secret is **speculatively loaded** here (the threat all
        // three schemes share, §3.1 — a register-resident secret would
        // be out of scope for NDA-P/STT).
        .load(r(8), r(9), 0)
        .shli(r(8), r(8), 6)
        .add(r(1), r(1), r(8)) // poison the cursor with the secret
        .call("work") // transient instance of the trained load
        .label("after")
        .halt()
        // The trained function: load through r1, advance by the stride.
        .label("work")
        .load(r(4), r(1), 0)
        .addi(r(1), r(1), 8)
        .ret();
    b.build().unwrap()
}

fn memory(secret: u64) -> SparseMemory {
    let mut m = SparseMemory::new();
    m.write_u64(SECRET as u64, secret);
    for i in 0..64u64 {
        m.write_u64(BASE as u64 + 8 * i, i + 1);
    }
    let mut node = CHAIN as u64;
    let mut state = 0xfeedu64;
    for _ in 0..4 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let next = CHAIN as u64 + (state % 2048) * 0x1000;
        m.write_u64(node, next);
        m.write_u64(node + 8, 1);
        node = next;
    }
    m
}

/// AP on, prefetching off — so any fill beyond the committed stream is
/// attributable to the doppelganger alone. Returns the report and the
/// core, whose hierarchy the run left in place.
fn run(scheme: SchemeKind, secret: u64) -> (doppelganger_loads::RunReport, Core) {
    let mut cfg = CoreConfig::default();
    cfg.doppelganger.prefetch = false;
    let mut b = SimBuilder::new();
    b.scheme(scheme)
        .address_prediction(true)
        .config(cfg)
        .trace(true);
    let mut core = b.build_core();
    let rep = core
        .run_in_place(&gadget(), memory(secret), 2_000_000)
        .unwrap();
    (rep, core)
}

#[test]
fn transient_doppelganger_fills_only_the_predicted_line() {
    // The committed stream touches BASE..BASE+12*8. The transient
    // instance's doppelganger extends it by exactly one stride.
    let predicted = (BASE + TRAIN_ITERS * 8) as u64;
    for scheme in SchemeKind::SECURE {
        let (rep, core) = run(scheme, 3);
        assert!(
            core.memory_system()
                .contains(doppelganger_loads::mem::Level::L3, predicted),
            "{scheme}: the doppelganger's (safe) fill should be visible"
        );
        assert!(rep.stats.dgl_issued >= 1, "{scheme}");
    }
}

#[test]
fn secret_poisoned_address_never_reaches_the_hierarchy() {
    for scheme in SchemeKind::SECURE {
        for secret in [3u64, 500u64] {
            let (_, core) = run(scheme, secret);
            let poisoned = (BASE as u64)
                .wrapping_add(TRAIN_ITERS as u64 * 8)
                .wrapping_add(secret << 6);
            for level in [
                doppelganger_loads::mem::Level::L1,
                doppelganger_loads::mem::Level::L2,
                doppelganger_loads::mem::Level::L3,
            ] {
                assert!(
                    !core.memory_system().contains(level, poisoned),
                    "{scheme} secret={secret}: poisoned line at {level:?}"
                );
            }
        }
    }
}

#[test]
fn observable_traffic_is_secret_independent() {
    // The Figure 2 argument in full: with the doppelganger channel
    // open, the observation trace still cannot distinguish secrets.
    for scheme in SchemeKind::SECURE {
        let (a, _) = run(scheme, 3);
        let (b, _) = run(scheme, 500);
        let secret_line = |&(line, _): &(u64, _)| line != (SECRET as u64 & !63);
        let ta: Vec<_> = observation(&a).into_iter().filter(secret_line).collect();
        let tb: Vec<_> = observation(&b).into_iter().filter(secret_line).collect();
        assert_eq!(ta, tb, "{scheme}: trace distinguishes secrets");
        assert_eq!(a.cycles, b.cycles, "{scheme}: timing distinguishes secrets");
    }
}

#[test]
fn unsafe_baseline_does_leak_through_the_poisoned_address() {
    // Contrast: with no protection the transient load itself issues at
    // the secret-derived address.
    let secret = 5u64;
    let (_, core) = run(SchemeKind::Baseline, secret);
    let poisoned = (BASE as u64)
        .wrapping_add(TRAIN_ITERS as u64 * 8)
        .wrapping_add(secret << 6);
    assert!(
        core.memory_system()
            .contains(doppelganger_loads::mem::Level::L3, poisoned),
        "baseline should have filled the secret-derived line"
    );
}
