//! The byte-identical guarantee of the event-driven skip-ahead kernel:
//! eliding provably-idle cycles must not perturb any simulated result.
//! The full 8-config matrix over the whole suite is collected from a
//! template with elision disabled and enabled and compared byte for byte — figure
//! renders, figure JSON, and the complete matrix JSON — and a
//! representative per-workload run is compared down to its metrics
//! registry, occupancy series, and architectural state.

use dgl_sim::experiments::{figure1_from, figure6_from, figure7_from, ConfigId, Evaluation};
use dgl_sim::SimBuilder;
use dgl_workloads::{by_name, Scale};

#[test]
fn full_matrix_is_byte_identical_with_elision_on() {
    let scale = Scale::Custom(2_000);
    let matrix = |elide: bool| {
        let mut template = SimBuilder::new();
        template.elision(elide);
        Evaluation::run(&template, scale, &ConfigId::ALL)
    };
    let plain = matrix(false).expect("ticked");
    let elided = matrix(true).expect("elided");

    assert!(plain.failures.is_empty(), "{:?}", plain.failures);
    assert!(elided.failures.is_empty(), "{:?}", elided.failures);

    // The whole matrix, then every figure projection, as both text and
    // JSON.
    assert_eq!(
        plain.to_json().to_string_pretty(),
        elided.to_json().to_string_pretty(),
        "evaluation matrix must be byte-identical with elision enabled"
    );
    let fig6_plain = figure6_from(&plain);
    let fig6_elided = figure6_from(&elided);
    assert_eq!(
        fig6_plain.render(),
        fig6_elided.render(),
        "figure 6 text must be byte-identical with elision enabled"
    );
    assert_eq!(
        fig6_plain.to_json().to_string_pretty(),
        fig6_elided.to_json().to_string_pretty()
    );
    assert_eq!(
        figure1_from(&plain).to_json().to_string(),
        figure1_from(&elided).to_json().to_string()
    );
    assert_eq!(
        figure7_from(&plain).to_json().to_string(),
        figure7_from(&elided).to_json().to_string()
    );
}

#[test]
fn per_run_state_is_identical_and_elision_engages() {
    // One representative workload per scheme family, compared far
    // deeper than the matrix projection: metrics registry (every
    // counter that can land in a manifest), occupancy time series,
    // final registers, and the stats block.
    let w = by_name("mcf_like", Scale::Custom(3_000)).expect("suite workload");
    for cfg in ConfigId::ALL {
        let run = |elide: bool| {
            let mut b = SimBuilder::new();
            b.scheme(cfg.scheme())
                .address_prediction(cfg.ap())
                .occupancy_sampling(64)
                .elision(elide);
            b.run_workload(&w).expect("run")
        };
        let plain = run(false);
        let elided = run(true);
        assert_eq!(plain.elided_cycles, 0, "{cfg:?}: elision off must tick");
        assert_eq!(
            plain.metrics().to_json().to_string_pretty(),
            elided.metrics().to_json().to_string_pretty(),
            "{cfg:?}: metrics registry must be byte-identical"
        );
        assert_eq!(plain.stats, elided.stats, "{cfg:?}: stats");
        assert_eq!(plain.cycles, elided.cycles, "{cfg:?}: cycle count");
        assert_eq!(plain.regs, elided.regs, "{cfg:?}: architectural registers");
        let (po, eo) = (
            plain.occupancy.as_ref().expect("sampled"),
            elided.occupancy.as_ref().expect("sampled"),
        );
        assert_eq!(
            format!("{po:?}"),
            format!("{eo:?}"),
            "{cfg:?}: occupancy series must be byte-identical"
        );
    }
    // The kernel must actually skip somewhere in the matrix — a secure
    // scheme stalled on a blocked L1 miss is the canonical idle gap.
    let mut b = SimBuilder::new();
    b.scheme(ConfigId::Dom.scheme()).elision(true);
    let dom = b.run_workload(&w).expect("dom run");
    assert!(
        dom.elided_cycles > 0,
        "skip-ahead never engaged on a DoM mcf-like pointer chase ({} cycles)",
        dom.cycles
    );
}
