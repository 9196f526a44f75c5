//! Shared helpers for the Doppelganger Loads benchmark harness.
//!
//! The paper's figures come from `dgl figures --fig 1|6|7|8|all
//! [--json|--csv] [--insts N]`, and [`trajectory`] builds the
//! `dgl bench` record from the same figure emitters. The binaries in
//! this crate regenerate the rest of the evaluation:
//!
//! | target | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 (system configuration) |
//! | `ablation` | design-choice sweeps (predictor size, bandwidth, ports) |
//! | `motivation_vp` | the value-prediction motivation result |
//! | `nda_variants` | every NDA-family scheme with and without AP |
//! | `sample_error` | sampled-vs-detailed IPC error |
//!
//! Run them with `cargo run --release -p dgl-bench --bin <target> [insts]`,
//! where `insts` is the per-workload committed-instruction budget
//! (default 25000; EXPERIMENTS.md uses 150000).

pub mod trajectory;

use dgl_sim::ConfigId;
use dgl_workloads::Scale;

/// Progress text for a run over the full configuration × workload
/// matrix, with both counts taken from [`ConfigId::ALL`] and the
/// workload catalog.
pub fn matrix_banner(scale: Scale) -> String {
    format!(
        "{} configurations x {} workloads at {scale:?}",
        ConfigId::ALL.len(),
        dgl_workloads::catalog().len()
    )
}

/// Parses one `insts` budget argument, exiting with status 2 (and an
/// error naming the bad value) when it is not a positive integer —
/// silently running the wrong budget is worse than not running at all.
fn parse_insts(arg: &str) -> Scale {
    match arg.parse::<u64>() {
        Ok(n) if n > 0 => Scale::Custom(n),
        _ => {
            eprintln!(
                "error: invalid insts argument `{arg}` (expected a positive \
                 integer committed-instruction budget, e.g. 25000)"
            );
            std::process::exit(2);
        }
    }
}

/// Parses the per-workload instruction budget from `argv[1]`
/// (defaulting to [`Scale::Quick`] when absent). An unparsable value
/// prints an error naming it and exits with status 2.
pub fn scale_from_args() -> Scale {
    match std::env::args().nth(1) {
        Some(arg) => parse_insts(&arg),
        None => Scale::Quick,
    }
}
