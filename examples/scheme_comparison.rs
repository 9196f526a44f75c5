//! Compare the secure schemes across the whole SPEC-like suite and
//! render a miniature Figure 6 as an ASCII chart.
//!
//! ```sh
//! cargo run --release --example scheme_comparison [insts-per-workload]
//! ```
//!
//! Pass an instruction budget (default 10000) to trade precision for
//! speed; `dgl figures --fig 6` runs the full version.

use doppelganger_loads::sim::experiments::{ConfigId, Evaluation};
use doppelganger_loads::stats::BarChart;
use doppelganger_loads::workloads::Scale;
use doppelganger_loads::SimBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10_000);
    eprintln!(
        "running {} configurations x {} workloads at ~{budget} instructions each...",
        ConfigId::ALL.len(),
        doppelganger_loads::workloads::catalog().len()
    );
    let eval = Evaluation::run(&SimBuilder::new(), Scale::Custom(budget), &ConfigId::ALL)?;

    for cfg in [
        ConfigId::Nda,
        ConfigId::NdaAp,
        ConfigId::Stt,
        ConfigId::SttAp,
        ConfigId::Dom,
        ConfigId::DomAp,
    ] {
        let mut chart = BarChart::new(
            &format!("{} — normalized IPC (baseline = 1.0)", cfg.label()),
            1.1,
        );
        for row in &eval.rows {
            chart.bar(&row.workload, row.normalized_ipc(cfg));
        }
        chart.bar("GMEAN", eval.gmean_normalized(cfg));
        println!("{chart}");
    }

    println!("headline (geomean normalized IPC):");
    for (a, b) in [
        (ConfigId::Nda, ConfigId::NdaAp),
        (ConfigId::Stt, ConfigId::SttAp),
        (ConfigId::Dom, ConfigId::DomAp),
    ] {
        let without = eval.gmean_normalized(a);
        let with = eval.gmean_normalized(b);
        let cut = if without < 1.0 {
            100.0 * (with - without) / (1.0 - without)
        } else {
            0.0
        };
        println!(
            "  {:6} {:.3} -> {:.3} with doppelganger loads ({:.0}% of the slowdown recovered)",
            a.label(),
            without,
            with,
            cut
        );
    }
    Ok(())
}
