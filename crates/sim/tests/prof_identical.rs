//! The byte-identical guarantee: host-side self-profiling must not
//! perturb any simulated result. The Figure 6 matrix (every secure
//! config, every workload) is rendered with profiling disabled and
//! enabled and compared byte for byte, as both text and JSON.

use dgl_pipeline::core_prof_registry;
use dgl_sim::experiments::{figure1_from, figure6_from, figure7_from, ConfigId, Evaluation};
use dgl_workloads::Scale;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn figure6_matrix_is_byte_identical_with_profiling_on() {
    let scale = Scale::Custom(2_000);
    let plain = Evaluation::run(scale, &ConfigId::ALL).expect("plain matrix");
    let reg = Arc::new(core_prof_registry());
    let profiled = Evaluation::run_with_opts(scale, &ConfigId::ALL, Some(Arc::clone(&reg)), true)
        .expect("profiled");

    assert!(plain.failures.is_empty(), "{:?}", plain.failures);
    assert!(profiled.failures.is_empty(), "{:?}", profiled.failures);

    let fig6_plain = figure6_from(&plain);
    let fig6_prof = figure6_from(&profiled);
    assert_eq!(
        fig6_plain.render(),
        fig6_prof.render(),
        "figure 6 text must be byte-identical with profiling enabled"
    );
    assert_eq!(
        fig6_plain.to_json().to_string_pretty(),
        fig6_prof.to_json().to_string_pretty(),
        "figure 6 JSON must be byte-identical with profiling enabled"
    );
    // The whole matrix, not just the figure-6 projection.
    assert_eq!(
        plain.to_json().to_string_pretty(),
        profiled.to_json().to_string_pretty(),
        "evaluation matrix must be byte-identical with profiling enabled"
    );
    assert_eq!(
        figure1_from(&plain).to_json().to_string(),
        figure1_from(&profiled).to_json().to_string()
    );
    assert_eq!(
        figure7_from(&plain).to_json().to_string(),
        figure7_from(&profiled).to_json().to_string()
    );

    // And the profile itself actually measured the matrix: every
    // core of every (workload, config) run accumulated into the
    // shared registry.
    let prof = reg.snapshot();
    assert!(!prof.is_empty());
    assert!(prof.stage_total() > Duration::ZERO);
    let hierarchy = prof
        .entries
        .iter()
        .find(|e| e.name == "mem.hierarchy")
        .expect("hierarchy slot");
    assert!(hierarchy.nested);
    assert!(hierarchy.calls > 0, "memory system must have been profiled");
}
