//! Reproduces Figure 6: per-benchmark normalized IPC of the six secure
//! configurations, with the GMEAN row. Pass `--json` for the
//! machine-readable form.

use dgl_bench::BenchArgs;
use dgl_sim::figure6;

fn main() {
    let args = BenchArgs::parse_env();
    eprintln!("running {}...", dgl_bench::matrix_banner(args.scale));
    let fig = figure6(args.scale).expect("simulation");
    if args.json {
        println!("{}", fig.to_json().to_string_pretty());
    } else {
        println!("{}", fig.render());
    }
}
