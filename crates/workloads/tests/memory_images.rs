//! Pins every catalog workload's initial memory image at
//! `Scale::Quick`, byte for byte: a 64-bit FNV-1a hash over the
//! image's [`SparseMemory::dump_state`] word stream (page count, page
//! indices and every data word). A change to how kernels fill their
//! tables must leave each hash unchanged.

use dgl_isa::hash::fnv1a64;
use dgl_isa::SparseMemory;
use dgl_workloads::{catalog, Scale};

/// FNV-1a-64 over the little-endian bytes of the image's dump.
fn image_hash(mem: &SparseMemory) -> u64 {
    let mut words = Vec::new();
    mem.dump_state(&mut words);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

const PINNED: [(&str, u64); 27] = [
    ("bzip2_like", 0x4e7ad57aaa28bce7),
    ("gcc_like", 0x6e6909ab47586ec6),
    ("mcf_like", 0x9ccbf99fdfc35710),
    ("gromacs_like", 0xc8d043535da3c302),
    ("GemsFDTD_like", 0xbe243b749688b3b9),
    ("hmmer_like", 0x2ee8f068346afb45),
    ("sjeng_like", 0x09649c0872a76745),
    ("libquantum_like", 0x65491dd9c2531baf),
    ("omnetpp_like", 0x68eba2fb48dc721b),
    ("astar_like", 0x2f145fa9ae2f2620),
    ("xalancbmk_like", 0x949b09998e771d67),
    ("gcc_s_like", 0x6519235c4e233214),
    ("mcf_s_like", 0xb6b840f686abe0d5),
    ("omnetpp_s_like", 0xd91e5e1435b32650),
    ("xalancbmk_s_like", 0x75d569e9b20a33ef),
    ("exchange2_s_like", 0x2607bd7c514ae556),
    ("deepsjeng_s_like", 0x449d2cecc9a54e5a),
    ("lbm_s_like", 0xcc4c775197de8e46),
    ("wrf_s_like", 0x90b685b6cca91f58),
    ("perlbench_like", 0xec9bcee87d3a49ff),
    ("milc_like", 0x5203d5bea3c89699),
    ("soplex_like", 0x619fddf0cd107cf7),
    ("povray_like", 0x9e3489f52b1e2ac3),
    ("cactuBSSN_s_like", 0x9be12d331660495d),
    ("leela_s_like", 0x0d4580e0d3a2a9f6),
    ("nab_s_like", 0xcf4115296547abbd),
    ("x264_s_like", 0x435351d20f9ba8ee),
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
