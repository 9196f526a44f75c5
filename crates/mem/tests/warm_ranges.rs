//! `MemorySystem::warm_ranges` against the per-line `warm` loop it
//! stands in for: same `dump_warm_state` words, same statistics, for
//! overlapping, unaligned and empty ranges, every replacement policy,
//! outer line sizes that differ from L1's, and fresh or pre-touched
//! hierarchies — so both the one-pass fill and its fallback are held
//! to the loop.

use dgl_mem::{HierarchyConfig, MemorySystem, Replacement};
use proptest::prelude::*;

/// The per-line walk `warm_ranges` documents.
fn warm_loop(mem: &mut MemorySystem, ranges: &[(u64, u64)]) {
    let l1 = mem.config().l1;
    for &(start, bytes) in ranges {
        let mut addr = start & l1.line_mask();
        while addr < start + bytes {
            mem.warm(addr);
            addr += l1.line_bytes as u64;
        }
    }
}

fn dump(mem: &MemorySystem) -> Vec<u64> {
    let mut out = Vec::new();
    mem.dump_warm_state(&mut out);
    out
}

/// The tiny hierarchy with per-level policies. `policies` holds a
/// bit per level, LRU or FIFO; `random` below 3 makes that level
/// Random instead, so half the draws keep every level eligible for the
/// one-pass fill. `lines` below 3 keeps 64-byte lines everywhere,
/// otherwise L2 moves to 32 or 128 bytes or L3 to 128. Capacities are
/// unchanged, so set counts stay powers of two.
fn hierarchy(policies: u8, random: u8, lines: u8) -> HierarchyConfig {
    let mut cfg = HierarchyConfig::tiny();
    for (level, cache) in [&mut cfg.l1, &mut cfg.l2, &mut cfg.l3]
        .into_iter()
        .enumerate()
    {
        cache.replacement = if usize::from(random) == level {
            Replacement::Random
        } else if policies >> level & 1 == 0 {
            Replacement::Lru
        } else {
            Replacement::Fifo
        };
    }
    match lines {
        3 => cfg.l2.line_bytes = 32,
        4 => cfg.l2.line_bytes = 128,
        5 => cfg.l3.line_bytes = 128,
        _ => {}
    }
    cfg
}

/// Lays `raw` out as ranges. Mode 0 takes each `(start, bytes)` as
/// drawn, so ranges overlap freely; modes 1 and 2 place each range a
/// drawn gap past the previous one's end plus a line, so no line is
/// walked twice, in ascending or descending order.
fn layout(mode: u8, raw: &[(u64, u64)]) -> Vec<(u64, u64)> {
    if mode == 0 {
        return raw.to_vec();
    }
    let mut cursor = 0;
    let mut out: Vec<(u64, u64)> = raw
        .iter()
        .map(|&(gap, bytes)| {
            let start = cursor + gap % 0x1000;
            cursor = start + bytes + 64;
            (start, bytes)
        })
        .collect();
    if mode == 2 {
        out.reverse();
    }
    out
}

/// Conditions the hierarchy before warming: nothing (half the
/// draws), a warmed line, an L1 replacement touch (ticks L1 without
/// filling it), or a warm then an invalidate (empty sets again, ticks
/// advanced).
fn pre_touch(mem: &mut MemorySystem, how: u8, addr: u64) {
    match how {
        0..=2 => {}
        3 => mem.warm(addr),
        4 => mem.touch_l1(addr),
        _ => {
            mem.warm(addr);
            mem.invalidate(addr);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn warm_ranges_matches_the_per_line_loop(
        raw in prop::collection::vec((0u64..0x2_0000, 0u64..0x3000), 0..8),
        mode in 0u8..3,
        policy in 0u8..48,
        lines in 0u8..6,
        touch in 0u8..6,
        touch_addr in 0u64..0x2_0000,
    ) {
        let cfg = hierarchy(policy & 7, policy >> 3, lines);
        let ranges = layout(mode, &raw);
        let mut fast = MemorySystem::new(cfg);
        let mut slow = MemorySystem::new(cfg);
        pre_touch(&mut fast, touch, touch_addr);
        pre_touch(&mut slow, touch, touch_addr);
        fast.warm_ranges(&ranges);
        warm_loop(&mut slow, &ranges);
        prop_assert_eq!(dump(&fast), dump(&slow), "ranges {:?}", ranges);
        prop_assert_eq!(fast.stats(), slow.stats());
    }
}

#[test]
fn one_pass_on_table1_geometry_matches_the_loop() {
    // The shape `SimBuilder` warms: Table 1 caches, LRU everywhere,
    // disjoint ranges far larger than L1 and L2, so every level wraps.
    let cfg = HierarchyConfig::default();
    let ranges = [
        (0x10_0000, 3 << 20),
        (0x1000_0040, 0x1_0000),
        (0x8000_0000, 0),
    ];
    let mut fast = MemorySystem::new(cfg);
    let mut slow = MemorySystem::new(cfg);
    fast.warm_ranges(&ranges);
    warm_loop(&mut slow, &ranges);
    assert_eq!(dump(&fast), dump(&slow));
    assert_eq!(fast.stats(), slow.stats());
    assert_eq!(fast.stats().0.fills, (3 << 20) / 64 + 0x1_0000 / 64);
}
