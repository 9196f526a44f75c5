//! Property tests for the ISA layer: the assembler never panics on
//! arbitrary input, builder programs always emulate deterministically,
//! and memory behaves like a flat byte array at every width, across
//! page boundaries and across the wrap at `u64::MAX`.

use dgl_isa::asm::assemble;
use dgl_isa::{AluOp, Emulator, ProgramBuilder, Reg, SparseMemory, Width};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const WIDTHS: [Width; 4] = [Width::B1, Width::B2, Width::B4, Width::B8];

/// Addresses where page arithmetic can go wrong: anywhere in the first
/// three pages, the last and first bytes of a page (offsets 4080-4095
/// and 0-3), and the top of the address space, where accesses wrap to 0.
fn edge_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..0x3000,
        (0u64..3, 4080u64..4100).prop_map(|(page, off)| page * 4096 + off),
        (u64::MAX - 15)..=u64::MAX,
    ]
}

/// A little-endian read of `w` bytes from the flat byte model.
fn model_read(model: &BTreeMap<u64, u8>, addr: u64, w: Width) -> u64 {
    (0..w.bytes()).fold(0, |acc, i| {
        let byte = model.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
        acc | (byte as u64) << (8 * i)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn assembler_never_panics(source in "\\PC{0,200}") {
        // Any unicode garbage: must return Ok or Err, never panic.
        let _ = assemble("fuzz", &source);
    }

    #[test]
    fn assembler_never_panics_on_plausible_lines(
        lines in prop::collection::vec(
            prop_oneof![
                Just("nop".to_owned()),
                Just("halt".to_owned()),
                (0u8..40, any::<i32>()).prop_map(|(r, v)| format!("imm r{r}, {v}")),
                (0u8..40, 0u8..40, 0u8..40).prop_map(|(a, b, c)| format!("add r{a}, r{b}, r{c}")),
                (0u8..40, 0u8..40, any::<i32>()).prop_map(|(a, b, o)| format!("load r{a}, [r{b} + {o}]")),
                (0u8..40, 0u8..40).prop_map(|(a, b)| format!("beq r{a}, r{b}, somewhere")),
                Just("somewhere:".to_owned()),
                Just("  # a comment".to_owned()),
            ],
            0..30,
        )
    ) {
        let source = lines.join("\n");
        let _ = assemble("fuzz", &source);
    }

    #[test]
    fn memory_behaves_like_flat_bytes(
        writes in prop::collection::vec((edge_addr(), any::<u64>(), 0usize..4), 1..60),
        probes in prop::collection::vec(edge_addr(), 16),
    ) {
        let mut mem = SparseMemory::new();
        let mut model = BTreeMap::new();
        for &(addr, value, w) in &writes {
            let w = WIDTHS[w];
            mem.write(addr, value, w);
            for i in 0..w.bytes() {
                model.insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
            }
        }
        // Every width, at and around each write and at random probes.
        let near_writes = writes
            .iter()
            .flat_map(|&(addr, ..)| (0..16).map(move |d| addr.wrapping_sub(7).wrapping_add(d)));
        for addr in near_writes.chain(probes) {
            for w in WIDTHS {
                prop_assert_eq!(
                    mem.read(addr, w),
                    model_read(&model, addr, w),
                    "{:?} read at {:#x}",
                    w,
                    addr
                );
            }
        }
        // Writes map exactly the pages they touched.
        let pages: BTreeSet<u64> = model.keys().map(|a| a >> 12).collect();
        prop_assert_eq!(mem.mapped_pages(), pages.len());
    }

    #[test]
    fn writes_to_a_clone_never_reach_the_original(
        base in prop::collection::vec((edge_addr(), any::<u64>()), 0..20),
        writes in prop::collection::vec((edge_addr(), any::<u64>(), 0usize..4), 1..40),
        fill_at in edge_addr(),
    ) {
        let build = || {
            let mut m = SparseMemory::new();
            for &(addr, value) in &base {
                m.write_u64(addr, value);
            }
            m
        };
        let original = build();
        let mut copy = original.clone();
        for &(addr, value, w) in &writes {
            copy.write(addr, value, WIDTHS[w]);
        }
        copy.fill_words(fill_at, 600, |i| i as u64 | 1);
        prop_assert!(original == build(), "a write to the clone changed the original");
    }

    #[test]
    fn fill_words_equals_sequential_write_u64(
        prefill in prop::collection::vec((edge_addr(), any::<u64>()), 0..8),
        addr in edge_addr(),
        count in 0usize..1100,
        seed in any::<u64>(),
    ) {
        let word = |i: usize| seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let build = || {
            let mut m = SparseMemory::new();
            for &(a, v) in &prefill {
                m.write_u64(a, v);
            }
            m
        };
        let (mut filled, mut expected) = (build(), build());
        let mut calls = Vec::new();
        filled.fill_words(addr, count, |i| {
            calls.push(i);
            word(i)
        });
        for i in 0..count {
            expected.write_u64(addr.wrapping_add(8 * i as u64), word(i));
        }
        prop_assert_eq!(calls, (0..count).collect::<Vec<_>>());
        prop_assert!(filled == expected, "fill_words differs from write_u64 at {:#x}", addr);
    }

    #[test]
    fn emulator_is_deterministic(
        seeds in prop::collection::vec(any::<i64>(), 4),
        n in 1i64..40,
    ) {
        let mut b = ProgramBuilder::new("det");
        for (i, &s) in seeds.iter().enumerate() {
            b.imm(Reg::new(i as u8 + 1), s);
        }
        b.imm(Reg::new(6), n)
            .label("top")
            .alu(AluOp::Mul, Reg::new(1), Reg::new(1), Reg::new(2))
            .alu(AluOp::Xor, Reg::new(2), Reg::new(2), Reg::new(3))
            .subi(Reg::new(6), Reg::new(6), 1)
            .bne(Reg::new(6), Reg::ZERO, "top")
            .halt();
        let p = b.build().unwrap();
        let mut e1 = Emulator::new(&p, SparseMemory::new());
        let mut e2 = Emulator::new(&p, SparseMemory::new());
        e1.run(100_000).unwrap();
        e2.run(100_000).unwrap();
        prop_assert_eq!(e1.regs(), e2.regs());
    }
}
