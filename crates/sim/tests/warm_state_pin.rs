//! Pins the functionally warmed cache hierarchy byte for byte.
//!
//! Sampled runs and the checkpoint store's disk tier both rest on the
//! warmed `MemorySystem` being a pure function of the workload: every
//! window's core starts from it, and `dump_warm_state` is the word
//! stream disk checkpoints carry. For every catalog workload this test
//! hashes that dump twice — after pre-warming the declared
//! `warm_ranges` (the template a sampled run starts from), and again
//! after warming with the golden model's load and store addresses for
//! the first 20k instructions (the functional warmer's path). Any
//! change to cache layout, replacement or the dump format shows up as
//! a changed hash.

use dgl_isa::hash::fnv1a64;
use dgl_isa::{ArchEvent, Emulator};
use dgl_mem::{HierarchyConfig, MemorySystem};
use dgl_workloads::{catalog, Scale, Workload};

/// Golden-model instructions replayed into the hierarchy.
const WARM_INSTS: u64 = 20_000;

/// `(workload, hash after warm_ranges, hash after 20k instructions)`.
/// An empty `warm_ranges` hashes to `0xeb6cb549589fcdc4` (cold caches).
const PINNED: &[(&str, u64, u64)] = &[
    ("bzip2_like", 0x8a5759ad0d04732c, 0x8c79920b1ea77631),
    ("gcc_like", 0x0af1b8df9555c12e, 0xdcea35890797315c),
    ("mcf_like", 0x2c5843ebcc00af54, 0x6fb0ef9f65eed9fe),
    ("gromacs_like", 0xeb6cb549589fcdc4, 0xfc9aeb863815d991),
    ("GemsFDTD_like", 0x7a241f9f720459c0, 0x813cdae605142184),
    ("hmmer_like", 0xcd966e24e7fbff58, 0x18f8f123aeeb20a8),
    ("sjeng_like", 0xeb6cb549589fcdc4, 0xd0b3a3e647aad896),
    ("libquantum_like", 0xeb6cb549589fcdc4, 0x04c8ec5a2474d341),
    ("omnetpp_like", 0x2ee40a37a94fb400, 0x659c223a560c74f9),
    ("astar_like", 0xafe12a5e420122f0, 0x539b1571912f2c6d),
    ("xalancbmk_like", 0xc27080a951fad01e, 0x53a73e834622b275),
    ("gcc_s_like", 0xbfc9807b17021842, 0x1092757961023dde),
    ("mcf_s_like", 0xcff0246154b03a44, 0x64eaa5825899f2ab),
    ("omnetpp_s_like", 0x3fa3ea444c159fec, 0xb10737ac63ad20cd),
    ("xalancbmk_s_like", 0x2b46a1382429453e, 0xbd5398484dc2177b),
    ("exchange2_s_like", 0xeb6cb549589fcdc4, 0xc38a073fdaf6c180),
    ("deepsjeng_s_like", 0x69be5866d7f4caa0, 0x8f466b7a7121e890),
    ("lbm_s_like", 0xeb6cb549589fcdc4, 0x7f9274f891c8f808),
    ("wrf_s_like", 0x81c836747e771b4c, 0x50dbdaca4a3ec948),
    ("perlbench_like", 0xd37d643538780960, 0xfa5c3cabb1fdf338),
    ("milc_like", 0xeb6cb549589fcdc4, 0xc0d972dd609410f8),
    ("soplex_like", 0xbc53d91d984fb790, 0xaf81d3354e5fa934),
    ("povray_like", 0xeb6cb549589fcdc4, 0x987e665f8d538eea),
    ("cactuBSSN_s_like", 0xbe2d34fd50662120, 0x0608524fc5d04b7f),
    ("leela_s_like", 0xfb93f4deef1f0910, 0x121d7963a729f6c6),
    ("nab_s_like", 0x5f4e40e82ea755cc, 0x5c2a19d386e0e1ab),
    ("x264_s_like", 0x722b6ec81947a51f, 0xb5fdd17ffddd0fe1),
];

/// FNV-1a-64 over the little-endian bytes of the hierarchy's dump.
fn hash(mem: &MemorySystem) -> u64 {
    let mut words = Vec::new();
    mem.dump_warm_state(&mut words);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// The two hashes for one workload.
fn warmed_hashes(w: &Workload) -> (u64, u64) {
    let cfg = HierarchyConfig::default();
    let mut mem = MemorySystem::new(cfg);
    // The same call `SimBuilder` and the sampled template warmer use.
    mem.warm_ranges(&w.warm_ranges);
    let ranges = hash(&mem);
    let mut emu = Emulator::new(&w.program, w.memory.clone());
    while emu.retired() < WARM_INSTS && !emu.halted() {
        emu.step_observed(&mut |ev| match ev {
            ArchEvent::Load { addr, .. } | ArchEvent::Store { addr, .. } => mem.warm(addr),
            ArchEvent::Branch { .. } => {}
        })
        .expect("catalog workloads run cleanly on the golden model");
    }
    (ranges, hash(&mem))
}

#[test]
fn warmed_hierarchy_matches_pinned_hashes() {
    let actual: Vec<(&str, u64, u64)> = catalog()
        .iter()
        .map(|s| {
            let (ranges, walked) = warmed_hashes(&s.build(Scale::Quick));
            (s.name, ranges, walked)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(n, a, b)| format!("    ({n:?}, {a:#018x}, {b:#018x}),\n"))
        .collect();
    assert!(
        actual == PINNED,
        "warmed hierarchy drifted; actual table:\n{table}"
    );
}
