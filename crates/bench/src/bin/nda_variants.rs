//! NDA strategy comparison (extension beyond the paper's evaluation):
//! every scheme in the registry's `nda` family, with and without
//! doppelganger loads. §2.1 notes that NDA blocks ILP as well as MLP;
//! NDA-S makes that cost explicit, NDA-P is the variant the paper
//! optimizes, and NDA-P-eager shows how much of the remaining gap is
//! branch-resolution delay. The `+ap` columns add address prediction.
//!
//! The variant list comes straight from [`dgl_core::REGISTRY`]: adding
//! a new `nda`-family scheme there adds its columns here with no edits.
//!
//! ```sh
//! cargo run --release -p dgl-bench --bin nda_variants [insts]
//! ```

use dgl_core::REGISTRY;
use dgl_sim::SimBuilder;
use dgl_stats::{geomean, Align, Table};
use dgl_workloads::suite;

fn main() {
    let scale = dgl_bench::scale_from_args();
    let variants: Vec<_> = REGISTRY
        .iter()
        .filter(|e| e.family == "nda")
        .flat_map(|e| [(e, false), (e, true)])
        .collect();
    let workloads = suite(scale);
    eprintln!(
        "running {} NDA variants x {} workloads at {scale:?}...",
        variants.len(),
        workloads.len()
    );

    let mut header = vec!["benchmark".to_owned()];
    header.extend(variants.iter().map(|(e, ap)| {
        if *ap {
            format!("{}+ap", e.kind.name())
        } else {
            e.kind.name().to_owned()
        }
    }));
    let mut t = Table::new(header);
    for c in 1..=variants.len() {
        t.align(c, Align::Right);
    }
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for w in &workloads {
        let base = SimBuilder::new().run_workload(w).expect("baseline").ipc();
        let norm = |ipc: f64| if base > 0.0 { ipc / base } else { 0.0 };
        let mut values = vec![0.0f64; variants.len()];
        for (i, (entry, ap)) in variants.iter().enumerate() {
            let mut b = SimBuilder::new();
            b.scheme(entry.kind).address_prediction(*ap);
            values[i] = norm(b.run_workload(w).expect("variant").ipc());
            cols[i].push(values[i]);
        }
        t.row_f64(w.name, &values, 3);
    }
    let gmeans: Vec<f64> = cols.iter().map(|c| geomean(c)).collect();
    t.row_f64("GMEAN", &gmeans, 3);
    println!("NDA strategies — geomean normalized IPC (baseline = 1.0)\n{t}");
    println!(
        "NDA-S pays for blocking ILP as well as MLP; the paper optimizes \
         NDA-P, and doppelganger loads recover most of that security cost."
    );
}
