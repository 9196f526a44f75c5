//! Reproduces the paper's §2.3 motivation: DoM with **value prediction**
//! (the prior approach) recovers far less of DoM's slowdown than DoM
//! with **address prediction** (doppelganger loads), because values are
//! harder to predict than addresses (§8, [32, 43]) and validation is
//! effectively in-order.
//!
//! ```sh
//! cargo run --release -p dgl-bench --bin motivation_vp [insts]
//! ```

use dgl_core::SchemeKind;
use dgl_sim::SimBuilder;
use dgl_stats::{geomean, Align, Table};
use dgl_workloads::suite;

fn main() {
    let scale = dgl_bench::scale_from_args();
    let workloads = suite(scale);
    eprintln!(
        "running baseline/DoM/DoM+VP/DoM+AP x {} workloads at {scale:?}...",
        workloads.len()
    );

    let mut t = Table::new(vec![
        "benchmark".into(),
        "dom".into(),
        "dom+vp".into(),
        "dom+ap".into(),
        "vp cov".into(),
        "vp acc".into(),
        "vp squashes".into(),
    ]);
    for c in 1..7 {
        t.align(c, Align::Right);
    }

    let mut dom_all = Vec::new();
    let mut vp_all = Vec::new();
    let mut ap_all = Vec::new();
    for w in &workloads {
        let base = SimBuilder::new().run_workload(w).expect("baseline").ipc();
        let norm = |ipc: f64| if base > 0.0 { ipc / base } else { 0.0 };

        let mut b = SimBuilder::new();
        b.scheme(SchemeKind::DoM);
        let dom = norm(b.run_workload(w).expect("dom").ipc());

        let mut b = SimBuilder::new();
        b.scheme(SchemeKind::DoM).value_prediction(true);
        let vp_rep = b.run_workload(w).expect("dom+vp");
        let vp = norm(vp_rep.ipc());

        let mut b = SimBuilder::new();
        b.scheme(SchemeKind::DoM).address_prediction(true);
        let ap = norm(b.run_workload(w).expect("dom+ap").ipc());

        dom_all.push(dom);
        vp_all.push(vp);
        ap_all.push(ap);
        t.row(vec![
            w.name.to_owned(),
            format!("{dom:.3}"),
            format!("{vp:.3}"),
            format!("{ap:.3}"),
            format!("{:.0}%", 100.0 * vp_rep.vp.coverage()),
            format!("{:.0}%", 100.0 * vp_rep.vp.accuracy()),
            format!("{}", vp_rep.stats.vp_squashes),
        ]);
    }
    let g = |v: &[f64]| geomean(v);
    t.row(vec![
        "GMEAN".into(),
        format!("{:.3}", g(&dom_all)),
        format!("{:.3}", g(&vp_all)),
        format!("{:.3}", g(&ap_all)),
        String::new(),
        String::new(),
        String::new(),
    ]);
    println!("§2.3 motivation — DoM optimized with value vs address prediction\n{t}");
    println!(
        "recovery of DoM's slowdown: VP {:.0}%, AP {:.0}% (the paper's point: \
         VP \"did not yield significant improvement in MLP\")",
        100.0 * (g(&vp_all) - g(&dom_all)) / (1.0 - g(&dom_all)),
        100.0 * (g(&ap_all) - g(&dom_all)) / (1.0 - g(&dom_all)),
    );
}
