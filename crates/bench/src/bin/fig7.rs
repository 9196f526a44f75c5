//! Reproduces Figure 7: address-predictor coverage and accuracy under
//! DoM+AP (the representative configuration, as in the paper). Pass
//! `--json` for the machine-readable form.

use dgl_bench::BenchArgs;
use dgl_sim::figure7;

fn main() {
    let args = BenchArgs::parse_env();
    eprintln!(
        "running DoM+AP x {} workloads at {:?}...",
        dgl_workloads::catalog().len(),
        args.scale
    );
    let fig = figure7(args.scale).expect("simulation");
    if args.json {
        println!("{}", fig.to_json().to_string_pretty());
    } else {
        println!("{}", fig.render());
    }
}
