//! Rendering and structure tests for the figure types (no paper claims
//! here — those live in the root `paper_claims.rs` suite).

use dgl_sim::experiments::{figure1_from, figure7_from, ConfigId, Evaluation, Figure6, Figure8};
use dgl_sim::SimBuilder;
use dgl_workloads::Scale;

fn tiny_eval() -> Evaluation {
    Evaluation::run(&SimBuilder::new(), Scale::Custom(1_500), &ConfigId::ALL).expect("matrix")
}

#[test]
fn figure1_renders_paper_references() {
    let fig = figure1_from(&tiny_eval());
    let text = fig.render();
    assert!(text.contains("nda-p"));
    assert!(text.contains("0.887"), "paper reference value missing");
    assert!(text.contains("baseline+ap"));
    assert_eq!(fig.schemes.len(), 3);
}

#[test]
fn figure6_has_a_row_per_workload_plus_gmean() {
    let eval = tiny_eval();
    let n = eval.rows.len();
    let text = Figure6 { eval }.render();
    // header + separator + n workloads + GMEAN
    assert_eq!(text.lines().count(), 3 + n + 1);
    assert!(text.contains("GMEAN"));
}

#[test]
fn figure7_percentages_are_bounded() {
    let configs = [ConfigId::Baseline, ConfigId::DomAp];
    let eval = Evaluation::run(&SimBuilder::new(), Scale::Custom(1_500), &configs).expect("matrix");
    let fig = figure7_from(&eval);
    assert_eq!(fig.rows.len(), eval.rows.len());
    for (name, cov, acc) in &fig.rows {
        assert!((0.0..=1.0).contains(cov), "{name} coverage {cov}");
        assert!((0.0..=1.0).contains(acc), "{name} accuracy {acc}");
    }
    assert!(fig.gmean_coverage() <= 1.0);
    assert!(fig.render().contains('%'));
}

#[test]
fn figure8_normalization_is_finite_everywhere() {
    let eval = tiny_eval();
    let fig = Figure8 { eval };
    for row in &fig.eval.rows {
        for pair in Figure8::PAIRS {
            for level in [1u8, 2] {
                let v = fig.normalized(row, pair, level);
                assert!(
                    v.is_finite() && v >= 0.0,
                    "{} {:?} L{level}: {v}",
                    row.workload,
                    pair
                );
            }
        }
    }
}

#[test]
fn evaluation_reuses_rows_consistently() {
    let eval = tiny_eval();
    let g1 = eval.gmean_normalized(ConfigId::Baseline);
    assert!((g1 - 1.0).abs() < 1e-12, "baseline normalizes to itself");
    for row in &eval.rows {
        assert_eq!(row.cells.len(), ConfigId::ALL.len());
    }
}
