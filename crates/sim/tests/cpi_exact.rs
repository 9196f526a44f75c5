//! Cycle-loss accounting is *exact*.
//!
//! For every (workload, config) in the full registry matrix (every
//! scheme, AP off and on), a store-to-load race that squashes on memory
//! order, and DoM with value prediction, the CPI
//! stack's components sum to the stack total and the stack total equals
//! the simulated cycle count — there is no `other` bucket to absorb
//! unclassified cycles. The same holds for each measurement window of a
//! sampled run.
//!
//! Accounting is part of every core and never read by simulation; the
//! `dgl pin` table and the golden-model tests hold simulated behaviour
//! fixed, so there is no accounting-off run to compare against.

use dgl_core::SchemeKind;
use dgl_isa::{Program, ProgramBuilder, Reg, SparseMemory};
use dgl_pipeline::{CpiComponent, RunReport};
use dgl_sim::experiments::ConfigId;
use dgl_sim::SimBuilder;
use dgl_workloads::{by_name, Scale};

/// Checks one report's stack: components tile the total, the total is
/// the run's cycles, and per-rule provenance tiles the scheme
/// components.
fn assert_exact(label: &str, report: &RunReport) {
    let stack = report.cpi.as_ref().expect("every core reports a stack");
    assert_eq!(
        stack.sum(),
        stack.total(),
        "{label}: components must sum to the stack total"
    );
    assert_eq!(
        stack.total(),
        report.cycles,
        "{label}: stack total must equal simulated cycles"
    );
    let scheme_cycles: u64 = stack
        .iter()
        .filter(|(c, _)| c.name().starts_with("scheme."))
        .map(|(_, v)| v)
        .sum();
    let rule_cycles: u64 = dgl_core::DelayCause::ALL
        .iter()
        .map(|&c| stack.rule(c).cycles)
        .sum();
    assert_eq!(
        scheme_cycles, rule_cycles,
        "{label}: rule provenance must tile the scheme components"
    );
}

/// A load that reads its address before an older store, whose address
/// comes from a cold load, resolves to the same address: the unsafe
/// baseline propagates the stale value and squashes on memory order.
fn store_load_race() -> (Program, SparseMemory) {
    const TARGET: i64 = 0x0030_0000;
    const CHAIN: i64 = 0x0040_0000;
    let r = Reg::new;
    let mut b = ProgramBuilder::new("stl_race");
    b.imm(r(1), TARGET)
        .imm(r(2), 8)
        .label("train")
        .load(r(3), r(1), 0)
        .subi(r(2), r(2), 1)
        .bne(r(2), Reg::ZERO, "train")
        .imm(r(4), CHAIN)
        .load(r(5), r(4), 0) // r5 = TARGET after a cold miss
        .imm(r(6), 77)
        .store(r(6), r(5), 0)
        .load(r(7), r(1), 0) // reads TARGET before the store resolves
        .halt();
    let mut mem = SparseMemory::new();
    mem.write_u64(TARGET as u64, 5);
    mem.write_u64(CHAIN as u64, TARGET as u64);
    (b.build().expect("valid program"), mem)
}

#[test]
fn full_matrix_components_sum_exactly_to_total_cycles() {
    for name in ["mcf_like", "hmmer_like"] {
        let w = by_name(name, Scale::Custom(3_000)).expect("suite workload");
        for cfg in ConfigId::full_matrix() {
            let mut b = SimBuilder::new();
            b.scheme(cfg.scheme()).address_prediction(cfg.ap());
            let report = b.run_workload(&w).expect("run");
            assert_exact(&format!("{name}/{}", cfg.label()), &report);
        }
    }
    // The memory-order squash and its `bad_spec.mem_order` refill
    // charge: the unsafe baseline without AP takes one on this race.
    let (p, mem) = store_load_race();
    for cfg in ConfigId::full_matrix() {
        let mut b = SimBuilder::new();
        b.scheme(cfg.scheme()).address_prediction(cfg.ap());
        let report = b.run_program(&p, mem.clone(), 1_000_000).expect("run");
        assert_exact(&format!("stl_race/{}", cfg.label()), &report);
        if cfg.scheme() == SchemeKind::Baseline && !cfg.ap() {
            assert!(
                report.stats.memory_order_squashes > 0,
                "the baseline must squash on memory order"
            );
            let stack = report.cpi.as_ref().expect("every core reports a stack");
            assert!(stack.get(CpiComponent::BadSpecMemOrder) > 0);
        }
    }
    // DoM+VP: the value-misprediction squash and its `bad_spec.value`
    // refill charge. This workload mispredicts values at this budget,
    // so the input is not vacuous.
    let w = by_name("xalancbmk_like", Scale::Custom(3_000)).expect("suite workload");
    let mut b = SimBuilder::new();
    b.scheme(SchemeKind::DoM).value_prediction(true);
    let report = b.run_workload(&w).expect("run");
    assert!(
        report.stats.vp_squashes > 0,
        "DoM+VP must squash on a value"
    );
    let stack = report.cpi.as_ref().expect("every core reports a stack");
    assert!(stack.get(CpiComponent::BadSpecValue) > 0);
    assert_exact("xalancbmk_like/dom+vp", &report);
}

#[test]
fn sampled_windows_are_exact() {
    use dgl_sim::{CheckpointStore, SamplingConfig};
    let w = by_name("hmmer_like", Scale::Custom(6_000)).expect("suite workload");
    let cfg = SamplingConfig {
        interval_insts: 2_000,
        warmup_insts: 500,
        window_insts: 300,
        ..SamplingConfig::default()
    };
    let mut b = SimBuilder::new();
    b.scheme(SchemeKind::DoM).address_prediction(true);
    let sampled = b
        .run_sampled_with_store(&w, &cfg, Some(&CheckpointStore::new(8)))
        .expect("sampled run");
    assert!(!sampled.windows.is_empty());
    // Exactness holds per measurement window: the accounting epoch
    // resets with the measurement stats, so each window's stack covers
    // exactly that window's cycles.
    for win in &sampled.windows {
        let stack = win.report.cpi.as_ref().expect("every core reports a stack");
        assert_eq!(stack.sum(), stack.total(), "window {}", win.index);
        assert_eq!(stack.total(), win.report.cycles, "window {}", win.index);
    }
}
