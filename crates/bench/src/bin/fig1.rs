//! Reproduces Figure 1: headline geomean normalized IPC of NDA-P, STT,
//! and DoM with and without doppelganger loads, plus the unsafe
//! baseline + AP sanity result (§7). Pass `--json` for the
//! machine-readable form.

use dgl_bench::BenchArgs;
use dgl_sim::figure1;

fn main() {
    let args = BenchArgs::parse_env();
    eprintln!("running {}...", dgl_bench::matrix_banner(args.scale));
    let fig = figure1(args.scale).expect("simulation");
    if args.json {
        println!("{}", fig.to_json().to_string_pretty());
    } else {
        println!("{}", fig.render());
    }
}
