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

use dgl_isa::{ArchEvent, Emulator};
use dgl_mem::{HierarchyConfig, MemorySystem};
use dgl_workloads::{catalog, Scale, Workload};

/// Golden-model instructions replayed into the hierarchy.
const WARM_INSTS: u64 = 20_000;

/// `(workload, hash after warm_ranges, hash after 20k instructions)`.
/// An empty `warm_ranges` hashes to `0x43f690e7589fcdc4` (cold caches).
const PINNED: &[(&str, u64, u64)] = &[
    ("bzip2_like", 0x73f0a5860d04732c, 0xa93ef1171ea77631),
    ("gcc_like", 0x621375cd9555c12e, 0x18bc7c650797315c),
    ("mcf_like", 0x1cf802d3cc00af54, 0x8dbbcefc65eed9fe),
    ("gromacs_like", 0x43f690e7589fcdc4, 0x960a65383815d991),
    ("GemsFDTD_like", 0xb10c2469720459c0, 0x8e1c423105142184),
    ("hmmer_like", 0xaca991eee7fbff58, 0x36a4d8eaaeeb20a8),
    ("sjeng_like", 0x43f690e7589fcdc4, 0xd0c05dd847aad896),
    ("libquantum_like", 0x43f690e7589fcdc4, 0x7156ba962474d341),
    ("omnetpp_like", 0x1a5fd98ba94fb400, 0x463427b1560c74f9),
    ("astar_like", 0x3c2b36c2420122f0, 0x9d9d3416912f2c6d),
    ("xalancbmk_like", 0x4526f89951fad01e, 0xb2959d264622b275),
    ("gcc_s_like", 0x8c75b59f17021842, 0x52af981f61023dde),
    ("mcf_s_like", 0x562d2d5f54b03a44, 0x1deaf05c5899f2ab),
    ("omnetpp_s_like", 0x43f35f5c4c159fec, 0x4da2b54d63ad20cd),
    ("xalancbmk_s_like", 0xe00f5cb62429453e, 0xb9e316864dc2177b),
    ("exchange2_s_like", 0x43f690e7589fcdc4, 0xa03bc92bdaf6c180),
    ("deepsjeng_s_like", 0xe33fd472d7f4caa0, 0xbb7fd6757121e890),
    ("lbm_s_like", 0x43f690e7589fcdc4, 0x510c372c91c8f808),
    ("wrf_s_like", 0x5a27e9dc7e771b4c, 0xb7fee8504a3ec948),
    ("perlbench_like", 0xaec4ea6938780960, 0xfaaef6a6b1fdf338),
    ("milc_like", 0x43f690e7589fcdc4, 0x91472135609410f8),
    ("soplex_like", 0x0d437f8f984fb790, 0x34aa7a974e5fa934),
    ("povray_like", 0x43f690e7589fcdc4, 0x01c6cc918d538eea),
    ("cactuBSSN_s_like", 0xc5e1e51550662120, 0xe8883395c5d04b7f),
    ("leela_s_like", 0xab24b9caef1f0910, 0xcb29a597a729f6c6),
    ("nab_s_like", 0x7799924d2ea755cc, 0xf1afcb4f86e0e1ab),
    ("x264_s_like", 0x0f92c9bd1947a51f, 0x366b3203fddd0fe1),
];

fn fnv(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

fn hash(mem: &MemorySystem) -> u64 {
    let mut words = Vec::new();
    mem.dump_warm_state(&mut words);
    fnv(&words)
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
