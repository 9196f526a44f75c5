//! Pins every catalog workload's initial memory image at
//! `Scale::Quick`, byte for byte: a 64-bit FNV-1a hash over the
//! image's [`SparseMemory::dump_state`] word stream (page count, page
//! indices and every data word). A change to how kernels fill their
//! tables must leave each hash unchanged.

use dgl_isa::SparseMemory;
use dgl_workloads::{catalog, Scale};

/// FNV-1a over the little-endian bytes of the image's dump.
fn image_hash(mem: &SparseMemory) -> u64 {
    let mut words = Vec::new();
    mem.dump_state(&mut words);
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1_0000_01b3)
        })
}

const PINNED: [(&str, u64); 27] = [
    ("bzip2_like", 0x0ebcefcdaa28bce7),
    ("gcc_like", 0x535bec1d47586ec6),
    ("mcf_like", 0x4ca474e8dfc35710),
    ("gromacs_like", 0xe1f11ab85da3c302),
    ("GemsFDTD_like", 0x00a0d66d9688b3b9),
    ("hmmer_like", 0x056dd127346afb45),
    ("sjeng_like", 0x74f4986572a76745),
    ("libquantum_like", 0x33e587d3c2531baf),
    ("omnetpp_like", 0xec47485c48dc721b),
    ("astar_like", 0xe3d39528ae2f2620),
    ("xalancbmk_like", 0xbcd618ed8e771d67),
    ("gcc_s_like", 0xcf3857aa4e233214),
    ("mcf_s_like", 0x92b2786986abe0d5),
    ("omnetpp_s_like", 0xa7528c9a35b32650),
    ("xalancbmk_s_like", 0x62be7784b20a33ef),
    ("exchange2_s_like", 0xf978e92c514ae556),
    ("deepsjeng_s_like", 0x7db0ad38c9a54e5a),
    ("lbm_s_like", 0x5a43b4f097de8e46),
    ("wrf_s_like", 0x8de21ed6cca91f58),
    ("perlbench_like", 0xc56450d57d3a49ff),
    ("milc_like", 0xadfa29a1a3c89699),
    ("soplex_like", 0x7a2c854dcd107cf7),
    ("povray_like", 0xd67e84842b1e2ac3),
    ("cactuBSSN_s_like", 0x60e07ab41660495d),
    ("leela_s_like", 0x88d88dd5d3a2a9f6),
    ("nab_s_like", 0x7d9f58406547abbd),
    ("x264_s_like", 0x77a287500f9ba8ee),
];

#[test]
fn quick_memory_images_are_pinned() {
    let pinned: Vec<&str> = PINNED.iter().map(|&(name, _)| name).collect();
    let names: Vec<&str> = catalog().iter().map(|spec| spec.name).collect();
    assert_eq!(pinned, names, "one pin per catalog entry, in catalog order");
    let mut wrong = Vec::new();
    for (spec, &(name, want)) in catalog().iter().zip(&PINNED) {
        let got = image_hash(&spec.build(Scale::Quick).memory);
        if got != want {
            wrong.push(format!("(\"{name}\", {got:#018x}),"));
        }
    }
    assert!(
        wrong.is_empty(),
        "memory images changed:\n{}",
        wrong.join("\n")
    );
}
