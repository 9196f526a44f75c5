//! Shared helpers for the Doppelganger Loads benchmark harness.
//!
//! The binaries in this crate regenerate every table and figure of the
//! paper's evaluation:
//!
//! | target | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 (system configuration) |
//! | `fig1` | Figure 1 (headline geomean summary + baseline+AP) |
//! | `fig6` | Figure 6 (per-benchmark normalized IPC) |
//! | `fig7` | Figure 7 (predictor coverage/accuracy) |
//! | `fig8` | Figure 8 (normalized L1/L2 accesses) |
//! | `ablation` | design-choice sweeps (predictor size, bandwidth, ports) |
//!
//! Run them with `cargo run --release -p dgl-bench --bin <target> [insts]`,
//! where `insts` is the per-workload committed-instruction budget
//! (default 25000; EXPERIMENTS.md uses 150000). The figure bins also
//! accept `--json` to emit the same table as machine-readable JSON —
//! these are the emitters the [`trajectory`] records are built from.

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

/// Common figure-bin arguments: an optional positional `insts` budget
/// plus the `--json` output flag, in either order.
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    /// Per-workload committed-instruction budget.
    pub scale: Scale,
    /// Emit the figure as JSON on stdout instead of the ASCII table.
    pub json: bool,
}

impl BenchArgs {
    /// Parses the process arguments. Unknown flags, repeated budgets,
    /// and unparsable budgets print an error and exit with status 2.
    pub fn parse_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut scale = None;
        let mut json = false;
        for arg in args {
            if arg == "--json" {
                json = true;
            } else if arg.starts_with('-') {
                eprintln!("error: unknown flag `{arg}` (supported: --json, [insts])");
                std::process::exit(2);
            } else if scale.is_some() {
                eprintln!("error: more than one insts argument (`{arg}` is extra)");
                std::process::exit(2);
            } else {
                scale = Some(parse_insts(&arg));
            }
        }
        Self {
            scale: scale.unwrap_or(Scale::Quick),
            json,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_to_quick_without_json() {
        let a = parse(&[]);
        assert_eq!(a.scale, Scale::Quick);
        assert!(!a.json);
    }

    #[test]
    fn accepts_budget_and_json_in_either_order() {
        let a = parse(&["4000", "--json"]);
        assert_eq!(a.scale, Scale::Custom(4000));
        assert!(a.json);
        let b = parse(&["--json", "4000"]);
        assert_eq!(b.scale, Scale::Custom(4000));
        assert!(b.json);
    }
}
