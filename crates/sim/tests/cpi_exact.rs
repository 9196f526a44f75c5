//! Cycle-loss accounting is *exact* and *write-only*.
//!
//! Exact: for every (workload, config) in the full registry matrix
//! (every scheme, AP off and on), the CPI stack's components sum to the stack total and the
//! stack total equals the simulated cycle count — there is no `other`
//! bucket to absorb unclassified cycles.
//!
//! Write-only: running with accounting disabled produces byte-identical
//! simulated results (metrics registry, stats block, cycles, registers,
//! occupancy series, and the serialized manifest minus its `cpi`
//! section), mirroring `telemetry_identical.rs` for the PR 5/PR 9
//! observability planes.

use dgl_sim::experiments::ConfigId;
use dgl_sim::{run_manifest, sampled_manifest, SimBuilder};
use dgl_workloads::{by_name, Scale};

#[test]
fn full_matrix_components_sum_exactly_to_total_cycles() {
    for name in ["mcf_like", "hmmer_like"] {
        let w = by_name(name, Scale::Custom(3_000)).expect("suite workload");
        for cfg in ConfigId::full_matrix() {
            let mut b = SimBuilder::new();
            b.scheme(cfg.scheme()).address_prediction(cfg.ap());
            let report = b.run_workload(&w).expect("run");
            let stack = report.cpi.as_ref().expect("accounting on by default");
            assert_eq!(
                stack.sum(),
                stack.total(),
                "{name}/{}: components must sum to the stack total",
                cfg.label()
            );
            assert_eq!(
                stack.total(),
                report.cycles,
                "{name}/{}: stack total must equal simulated cycles",
                cfg.label()
            );
            // Per-rule provenance is consistent with the scheme
            // components it details.
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
                scheme_cycles,
                rule_cycles,
                "{name}/{}: rule provenance must tile the scheme components",
                cfg.label()
            );
        }
    }
}

#[test]
fn full_matrix_is_byte_identical_with_accounting_off() {
    let w = by_name("mcf_like", Scale::Custom(3_000)).expect("suite workload");
    for cfg in ConfigId::ALL {
        let run = |accounting: bool| {
            let mut b = SimBuilder::new();
            b.scheme(cfg.scheme())
                .address_prediction(cfg.ap())
                .occupancy_sampling(64)
                .cycle_accounting(accounting);
            b.run_workload(&w).expect("run")
        };
        let bare = run(false);
        let mut accounted = run(true);
        assert!(
            bare.cpi.is_none(),
            "{cfg:?}: accounting off carries no stack"
        );
        assert!(
            accounted.cpi.is_some(),
            "{cfg:?}: accounting on carries one"
        );
        assert_eq!(
            bare.metrics().to_json().to_string_pretty(),
            accounted.metrics().to_json().to_string_pretty(),
            "{cfg:?}: metrics registry must be byte-identical"
        );
        assert_eq!(bare.stats, accounted.stats, "{cfg:?}: stats");
        assert_eq!(bare.cycles, accounted.cycles, "{cfg:?}: cycle count");
        assert_eq!(
            bare.regs, accounted.regs,
            "{cfg:?}: architectural registers"
        );
        let (bo, ao) = (
            bare.occupancy.as_ref().expect("sampled"),
            accounted.occupancy.as_ref().expect("sampled"),
        );
        assert_eq!(
            format!("{bo:?}"),
            format!("{ao:?}"),
            "{cfg:?}: occupancy series must be byte-identical"
        );
        // The serialized contract: with the `cpi` section removed, the
        // manifests are the same bytes.
        accounted.cpi = None;
        assert_eq!(
            run_manifest(&w, cfg, false, &bare).to_string_pretty(),
            run_manifest(&w, cfg, false, &accounted).to_string_pretty(),
            "{cfg:?}: manifests must match byte for byte outside `cpi`"
        );
    }
}

#[test]
fn sampled_windows_are_exact_and_identical_with_accounting_off() {
    use dgl_sim::{CheckpointStore, SamplingConfig};
    let w = by_name("hmmer_like", Scale::Custom(6_000)).expect("suite workload");
    let cfg = SamplingConfig {
        interval_insts: 2_000,
        warmup_insts: 500,
        window_insts: 300,
        ..SamplingConfig::default()
    };
    let run = |accounting: bool| {
        let mut b = SimBuilder::new();
        b.scheme(dgl_core::SchemeKind::DoM)
            .address_prediction(true)
            .cycle_accounting(accounting);
        b.run_sampled_with_store(&w, &cfg, Some(&CheckpointStore::new(8)))
            .expect("sampled run")
    };
    let bare = run(false);
    let mut accounted = run(true);
    // Exactness holds per measurement window: the accounting epoch
    // resets with the measurement stats, so each window's stack covers
    // exactly that window's cycles.
    for win in &accounted.windows {
        let stack = win.report.cpi.as_ref().expect("accounting on");
        assert_eq!(stack.sum(), stack.total(), "window {}", win.index);
        assert_eq!(stack.total(), win.report.cycles, "window {}", win.index);
    }
    let config = ConfigId::new(dgl_core::SchemeKind::DoM, true);
    for win in &mut accounted.windows {
        win.report.cpi = None;
    }
    assert_eq!(
        sampled_manifest(&w, config, false, &bare).to_string_pretty(),
        sampled_manifest(&w, config, false, &accounted).to_string_pretty(),
        "sampled manifests must match byte for byte outside `cpi`"
    );
}
