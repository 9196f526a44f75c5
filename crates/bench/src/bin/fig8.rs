//! Reproduces Figure 8: L1 and L2 access counts of each +AP
//! configuration, normalized to the same scheme without AP.

use dgl_sim::figure8;

fn main() {
    let scale = dgl_bench::scale_from_args();
    eprintln!("running {}...", dgl_bench::matrix_banner(scale));
    let fig = figure8(scale).expect("simulation");
    println!("{}", fig.render());
}
