//! Seeded random program generation.
//!
//! Programs are built from weighted blocks, each targeting a pipeline
//! mechanism with a track record of divergence bugs in real
//! simulators: store→load forwarding (full and partial overlap),
//! unaligned and line-crossing accesses, data-dependent branches,
//! short trained loops, call/ret chains deeper than the
//! return-address stack (with the link register spilled through
//! memory), indirect jumps, and ALU edge values (`i64::MIN`, shift
//! amounts ≥ the word width, division overflow).
//!
//! A fraction of programs additionally carry a randomized
//! Spectre-v1-shaped *gadget*: a bounds-checked array read trained to
//! mispredict, whose out-of-bounds index aliases onto a planted
//! secret, followed by a secret-dependent transmitter load. The
//! gadget's parameters (training length, probe stride, filler ops in
//! the speculation window) vary per seed, but its memory image is a
//! fixed function of the secret alone — so a saved `.dasm` program
//! replays byte-for-byte with [`fuzz_memory`], no seed required.
//!
//! Register discipline: random blocks use `r1..=r15` as a junk pool
//! and `r16..=r19` as block-local scratch that is re-materialized
//! before every use; the gadget owns `r20..=r29`; `r31` is the link
//! register. The two never read each other's registers, so the only
//! secret-dependent value a program ever holds architecturally is the
//! warm-up load into `r29`, which nothing reads.

use dgl_isa::{AluOp, Cond, Op, Program, Reg, SparseMemory, Src, Width};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Scratch data region random blocks read and write (32 KiB used).
pub const DATA: i64 = 0x0100_0000;
/// Spill slots for link-register saves in call chains.
pub const STACK: i64 = 0x0100_8000;
/// Gadget: in-bounds array (8 elements), as in `SpectreV1Lab`.
pub const G_A1: i64 = 0x0010_0000;
/// Gadget: probe (transmitter) region.
pub const G_PROBE: i64 = 0x0020_0000;
/// Gadget: the planted secret qword.
pub const G_SECRET: i64 = 0x0030_0000;
/// Gadget: scattered pointer chase supplying the late bounds operand.
pub const G_CHAIN: i64 = 0x0040_0000;

/// First secret planted by [`fuzz_memory`] pairs.
pub const SECRET_A: u8 = 0x53;
/// Second secret: differs from [`SECRET_A`] in high and low bits.
pub const SECRET_B: u8 = 0xa6;

/// Longest pointer chase any generated gadget can walk.
const MAX_CHAIN_NODES: u64 = 40;

/// Call targets below this are real indices; at or above, they are
/// `FUNC_PLACEHOLDER + k` references to generated function `k`,
/// patched to real indices once the main instruction stream is laid
/// out.
const FUNC_PLACEHOLDER: usize = 1 << 20;

/// A generated program plus the metadata the oracles need.
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// The program, validated by [`Program::new`].
    pub program: Program,
    /// Whether a two-secret gadget was woven in (enables the
    /// noninterference oracle for this case).
    pub has_gadget: bool,
}

impl GenProgram {
    /// The raw instruction stream.
    pub fn ops(&self) -> Vec<Op> {
        self.program.insts().iter().map(|i| i.op).collect()
    }
}

/// The memory image every fuzzed program runs against: a deterministic
/// function of the planted secret only — never of the generator seed —
/// so corpus entries replay without the seed that found them.
///
/// The [`SECRET_A`] and [`SECRET_B`] images are built once per process
/// and handed out as clones: pages are shared and copied on write, so
/// a run that stores into its image leaves the next caller's intact.
pub fn fuzz_memory(secret: u8) -> SparseMemory {
    static IMAGES: [OnceLock<SparseMemory>; 2] = [OnceLock::new(), OnceLock::new()];
    let image = match secret {
        SECRET_A => &IMAGES[0],
        SECRET_B => &IMAGES[1],
        _ => return build_memory(secret),
    };
    image.get_or_init(|| build_memory(secret)).clone()
}

/// Builds [`fuzz_memory`]'s image for `secret` from scratch.
fn build_memory(secret: u8) -> SparseMemory {
    assert_ne!(secret, 0, "secret 0 aliases the gadget's training line");
    let mut m = SparseMemory::new();
    // Scratch data: a fixed LCG pattern, independent of everything.
    let mut v = 0x1234_5678_9abc_def0u64;
    m.fill_words(DATA as u64, 4096, |_| {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v
    });
    // Gadget regions, mirroring `dgl_sim::security::SpectreV1Lab`.
    for i in 0..8u64 {
        m.write_u64(G_A1 as u64 + 8 * i, 0);
    }
    m.write_u64(G_SECRET as u64, secret as u64);
    let mut node = G_CHAIN as u64;
    let mut state = 0xdead_beefu64;
    for _ in 0..MAX_CHAIN_NODES {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let next = G_CHAIN as u64 + (state % 4096) * 0x1000;
        m.write_u64(node, next);
        m.write_u64(node + 8, 8); // bounds value: 8 in-bounds elements
        node = next;
    }
    m
}

struct Gen {
    rng: SmallRng,
    ops: Vec<Op>,
    /// Bodies of generated functions; `Call` sites reference them as
    /// `FUNC_PLACEHOLDER + index` until layout. Function bodies are
    /// branch-free (calls and `Ret` only), so they relocate freely.
    funcs: Vec<Vec<Op>>,
}

fn r(i: u8) -> Reg {
    Reg::new(i)
}

impl Gen {
    /// A random junk-pool register (`r1..=r15`).
    fn gp(&mut self) -> Reg {
        r(self.rng.gen_range(1u8..=15))
    }

    /// An interesting immediate: edge values with high probability.
    fn imm_value(&mut self) -> i64 {
        match self.rng.gen_range(0u32..10) {
            0 => 0,
            1 => 1,
            2 => -1,
            3 => i64::MAX,
            4 => i64::MIN,
            5 => self.rng.gen_range(62i64..=66), // shift-amount edges
            6 => 1 << 31,
            7 => -(1 << 31),
            _ => self.rng.gen_range(-1000i64..=1000),
        }
    }

    fn alu_op(&mut self) -> AluOp {
        const OPS: [AluOp; 13] = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::Shr,
            AluOp::Sar,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Rem,
            AluOp::Slt,
            AluOp::Sltu,
        ];
        OPS[self.rng.gen_range(0usize..OPS.len())]
    }

    fn width(&mut self) -> Width {
        match self.rng.gen_range(0u32..4) {
            0 => Width::B1,
            1 => Width::B2,
            2 => Width::B4,
            _ => Width::B8,
        }
    }

    fn cond(&mut self) -> Cond {
        const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];
        CONDS[self.rng.gen_range(0usize..CONDS.len())]
    }

    /// One random ALU instruction over the junk pool.
    fn alu(&mut self) -> Op {
        let op = self.alu_op();
        let dst = self.gp();
        let a = self.gp();
        let b = if self.rng.gen_bool(0.5) {
            Src::Reg(self.gp())
        } else {
            let v = self.imm_value();
            Src::Imm(v.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
        };
        Op::Alu { op, dst, a, b }
    }

    /// Seed the junk pool so early blocks have varied operands.
    fn prologue(&mut self) {
        for i in 1..=15u8 {
            let value = self.imm_value();
            self.ops.push(Op::Imm { dst: r(i), value });
        }
    }

    /// 2..=8 ALU instructions, edge immediates included.
    fn block_alu(&mut self) {
        for _ in 0..self.rng.gen_range(2usize..=8) {
            let op = if self.rng.gen_bool(0.15) {
                Op::Imm {
                    dst: self.gp(),
                    value: self.imm_value(),
                }
            } else {
                self.alu()
            };
            self.ops.push(op);
        }
    }

    /// Loads and stores in the scratch region: random widths and
    /// alignments (line-crossing included), with a bias toward
    /// store→load pairs at full or partial overlap.
    fn block_mem(&mut self) {
        let base = r(16);
        let off0 = self.rng.gen_range(0i64..0x7000) & !7;
        self.ops.push(Op::Imm {
            dst: base,
            value: DATA + off0,
        });
        for _ in 0..self.rng.gen_range(2usize..=6) {
            let offset = self.rng.gen_range(-64i32..64);
            if self.rng.gen_bool(0.45) {
                // Store, then (usually) a load overlapping it.
                let sw = self.width();
                let src = self.gp();
                self.ops.push(Op::Store {
                    width: sw,
                    src,
                    base,
                    offset,
                });
                if self.rng.gen_bool(0.7) {
                    let lw = self.width();
                    let dst = self.gp();
                    let skew = self.rng.gen_range(0i32..sw.bytes() as i32);
                    self.ops.push(Op::Load {
                        width: lw,
                        dst,
                        base,
                        offset: offset + skew,
                    });
                }
            } else {
                let width = self.width();
                let dst = self.gp();
                self.ops.push(Op::Load {
                    width,
                    dst,
                    base,
                    offset,
                });
            }
        }
    }

    /// A data-dependent forward branch over 1..=4 junk instructions.
    fn block_skip(&mut self) {
        let cond = self.cond();
        let a = self.gp();
        let b = self.gp();
        let body: Vec<Op> = (0..self.rng.gen_range(1usize..=4))
            .map(|_| self.alu())
            .collect();
        let target = self.ops.len() + 1 + body.len();
        self.ops.push(Op::Branch { cond, a, b, target });
        self.ops.extend(body);
    }

    /// A short counted loop (`2..=6` trips) with a small body.
    fn block_loop(&mut self) {
        let ctr = r(18);
        let trips = self.rng.gen_range(2i64..=6);
        self.ops.push(Op::Imm {
            dst: ctr,
            value: trips,
        });
        let top = self.ops.len();
        for _ in 0..self.rng.gen_range(1usize..=4) {
            let op = if self.rng.gen_bool(0.3) {
                let base = r(16);
                self.ops.push(Op::Imm {
                    dst: base,
                    value: DATA + (self.rng.gen_range(0i64..0x7000) & !7),
                });
                let width = self.width();
                let dst = self.gp();
                Op::Load {
                    width,
                    dst,
                    base,
                    offset: self.rng.gen_range(-32i32..32),
                }
            } else {
                self.alu()
            };
            self.ops.push(op);
        }
        self.ops.push(Op::Alu {
            op: AluOp::Sub,
            dst: ctr,
            a: ctr,
            b: Src::Imm(1),
        });
        self.ops.push(Op::Branch {
            cond: Cond::Ne,
            a: ctr,
            b: Reg::ZERO,
            target: top,
        });
    }

    /// An indirect jump through a register to a known forward index,
    /// optionally skipping junk instructions.
    fn block_jr(&mut self) {
        let jreg = r(17);
        let skip = self.rng.gen_range(0usize..=2);
        let target = self.ops.len() + 2 + skip;
        self.ops.push(Op::Imm {
            dst: jreg,
            value: target as i64,
        });
        self.ops.push(Op::JumpReg { base: jreg });
        for _ in 0..skip {
            let op = self.alu();
            self.ops.push(op);
        }
    }

    /// A call chain of depth up to 20 — past the 16-entry
    /// return-address stack — where every non-leaf frame spills and
    /// reloads the link register through memory (store→load
    /// forwarding of return addresses).
    fn block_calls(&mut self) {
        let depth = self.rng.gen_range(3usize..=20);
        let first = self.funcs.len();
        for i in 0..depth {
            let mut body = Vec::new();
            let leaf = i == depth - 1;
            if !leaf {
                let slot = r(16);
                body.push(Op::Imm {
                    dst: slot,
                    value: STACK + 16 * i as i64,
                });
                body.push(Op::Store {
                    width: Width::B8,
                    src: Reg::LINK,
                    base: slot,
                    offset: 0,
                });
                body.push(Op::Call {
                    target: FUNC_PLACEHOLDER + first + i + 1,
                });
                // Re-materialize the slot: the callee clobbered r16.
                body.push(Op::Imm {
                    dst: slot,
                    value: STACK + 16 * i as i64,
                });
                body.push(Op::Load {
                    width: Width::B8,
                    dst: Reg::LINK,
                    base: slot,
                    offset: 0,
                });
            } else {
                for _ in 0..self.rng.gen_range(1usize..=3) {
                    let op = self.alu();
                    body.push(op);
                }
            }
            body.push(Op::Ret);
            self.funcs.push(body);
        }
        self.ops.push(Op::Call {
            target: FUNC_PLACEHOLDER + first,
        });
    }

    /// The randomized Spectre-v1-shaped gadget. Parameters that vary:
    /// training length, probe stride, and filler work inside the
    /// speculation window. The out-of-bounds index is selected by the
    /// loop counter (`x = last_iteration ? oob : 0`), so — unlike the
    /// hand-written lab — the memory image needs no per-program `xs`
    /// table and stays a pure function of the secret.
    fn block_gadget(&mut self) {
        let train = self.rng.gen_range(8i64..=14);
        let total = train + 1;
        let shift = self.rng.gen_range(9i32..=10); // probe stride 512 or 1024
        let oob = (G_SECRET - G_A1) / 8;
        let (a1, cur, probe, ctr, size, x, t, oobr, sel, warm) = (
            r(20),
            r(21),
            r(22),
            r(23),
            r(24),
            r(25),
            r(26),
            r(27),
            r(28),
            r(29),
        );
        let o = &mut self.ops;
        o.push(Op::Imm {
            dst: a1,
            value: G_A1,
        });
        o.push(Op::Imm {
            dst: cur,
            value: G_CHAIN,
        });
        o.push(Op::Imm {
            dst: probe,
            value: G_PROBE,
        });
        o.push(Op::Imm {
            dst: ctr,
            value: total,
        });
        o.push(Op::Imm {
            dst: oobr,
            value: oob,
        });
        o.push(Op::Imm {
            dst: warm,
            value: G_SECRET,
        });
        // Victim's own architectural use: warms the secret line so the
        // transient read hits L1 inside the window.
        o.push(Op::Load {
            width: Width::B8,
            dst: warm,
            base: warm,
            offset: 0,
        });
        let top = o.len();
        o.push(Op::Load {
            width: Width::B8,
            dst: cur,
            base: cur,
            offset: 0,
        }); // chase: always cold
        o.push(Op::Load {
            width: Width::B8,
            dst: size,
            base: cur,
            offset: 8,
        }); // bounds operand, arrives late
        o.push(Op::Alu {
            op: AluOp::Slt,
            dst: sel,
            a: ctr,
            b: Src::Imm(2),
        }); // 1 on the final trip
        o.push(Op::Alu {
            op: AluOp::Mul,
            dst: x,
            a: sel,
            b: Src::Reg(oobr),
        }); // x = final ? oob : 0
        for _ in 0..self.rng.gen_range(0usize..=2) {
            // Filler inside the window; `t` is overwritten below.
            let op = self.alu_op();
            self.ops.push(Op::Alu {
                op,
                dst: t,
                a: x,
                b: Src::Imm(self.rng.gen_range(1i32..=7)),
            });
        }
        let o = &mut self.ops;
        let skip_at = o.len() + 7;
        o.push(Op::Branch {
            cond: Cond::Ge,
            a: x,
            b: size,
            target: skip_at,
        }); // bounds check: trained not-taken
        o.push(Op::Alu {
            op: AluOp::Shl,
            dst: t,
            a: x,
            b: Src::Imm(3),
        });
        o.push(Op::Alu {
            op: AluOp::Add,
            dst: t,
            a: t,
            b: Src::Reg(a1),
        });
        o.push(Op::Load {
            width: Width::B8,
            dst: t,
            base: t,
            offset: 0,
        }); // v = a1[x] — the secret when oob
        o.push(Op::Alu {
            op: AluOp::Shl,
            dst: t,
            a: t,
            b: Src::Imm(shift),
        });
        o.push(Op::Alu {
            op: AluOp::Add,
            dst: t,
            a: t,
            b: Src::Reg(probe),
        });
        o.push(Op::Load {
            width: Width::B8,
            dst: Reg::ZERO,
            base: t,
            offset: 0,
        }); // transmitter
        debug_assert_eq!(o.len(), skip_at);
        o.push(Op::Alu {
            op: AluOp::Sub,
            dst: ctr,
            a: ctr,
            b: Src::Imm(1),
        });
        o.push(Op::Branch {
            cond: Cond::Ne,
            a: ctr,
            b: Reg::ZERO,
            target: top,
        });
    }

    /// Lay out main stream + functions, patching placeholder call
    /// targets to real indices.
    fn finish(mut self) -> Vec<Op> {
        self.ops.push(Op::Halt);
        let mut starts = Vec::with_capacity(self.funcs.len());
        let mut at = self.ops.len();
        for f in &self.funcs {
            starts.push(at);
            at += f.len();
        }
        let mut all = self.ops;
        for f in &self.funcs {
            all.extend_from_slice(f);
        }
        for op in &mut all {
            if let Op::Call { target } = op {
                if *target >= FUNC_PLACEHOLDER {
                    *target = starts[*target - FUNC_PLACEHOLDER];
                }
            }
        }
        all
    }
}

/// Generates one program from a seed. The same seed always yields the
/// same program; distinct seeds are decorrelated by the generator's
/// SplitMix64 stream.
pub fn generate(seed: u64) -> GenProgram {
    let mut g = Gen {
        rng: SmallRng::seed_from_u64(seed),
        ops: Vec::new(),
        funcs: Vec::new(),
    };
    g.prologue();
    let has_gadget = g.rng.gen_bool(0.35);
    let blocks = g.rng.gen_range(4usize..=10);
    let gadget_at = g.rng.gen_range(0usize..blocks);
    let mut did_calls = false;
    for b in 0..blocks {
        if has_gadget && b == gadget_at {
            g.block_gadget();
            continue;
        }
        match g.rng.gen_range(0u32..12) {
            0..=2 => g.block_alu(),
            3..=5 => g.block_mem(),
            6..=7 => g.block_skip(),
            8..=9 => g.block_loop(),
            10 => g.block_jr(),
            _ => {
                if did_calls {
                    g.block_mem();
                } else {
                    g.block_calls();
                    did_calls = true;
                }
            }
        }
    }
    let ops = g.finish();
    let program = Program::new(&format!("fuzz_{seed:016x}"), ops)
        .expect("generator emits only valid programs");
    GenProgram {
        program,
        has_gadget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgl_isa::Emulator;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.program.insts(), b.program.insts());
            assert_eq!(a.has_gadget, b.has_gadget);
        }
    }

    #[test]
    fn every_generated_program_halts_in_the_emulator() {
        let mut gadgets = 0;
        for seed in 0..300u64 {
            let g = generate(seed);
            gadgets += g.has_gadget as u32;
            let mut emu = Emulator::new(&g.program, fuzz_memory(SECRET_A));
            let mut steps = 0u64;
            loop {
                match emu.step() {
                    Ok(true) => steps += 1,
                    Ok(false) => break,
                    Err(e) => panic!("seed {seed}: golden fault: {e}"),
                }
                assert!(steps < 1_000_000, "seed {seed}: runaway program");
            }
        }
        assert!(gadgets > 50, "gadget mix collapsed: {gadgets}/300");
    }

    #[test]
    fn memory_image_is_seed_free_and_secret_keyed() {
        let a = fuzz_memory(SECRET_A);
        let b = fuzz_memory(SECRET_A);
        assert_eq!(a.read_u64(G_SECRET as u64), b.read_u64(G_SECRET as u64));
        assert_eq!(a.read_u64(DATA as u64), b.read_u64(DATA as u64));
        let c = fuzz_memory(SECRET_B);
        assert_ne!(a.read_u64(G_SECRET as u64), c.read_u64(G_SECRET as u64));
        // Everything except the secret matches.
        assert_eq!(a.read_u64(DATA as u64 + 8), c.read_u64(DATA as u64 + 8));
        assert_eq!(a.read_u64(G_CHAIN as u64), c.read_u64(G_CHAIN as u64));
    }

    #[test]
    fn shared_images_equal_fresh_builds_and_stay_unchanged_by_stores() {
        let words = |mem: &SparseMemory| {
            let mut words = Vec::new();
            mem.dump_state(&mut words);
            words
        };
        for secret in [SECRET_A, SECRET_B] {
            let fresh = words(&build_memory(secret));
            let mut first = fuzz_memory(secret);
            assert_eq!(words(&first), fresh);
            first.write_u64(G_SECRET as u64, 0);
            first.write_u64(DATA as u64, 0x0bad);
            first.write_u64(0x7000_0000, 1); // a page the image lacks
            assert_eq!(words(&fuzz_memory(secret)), fresh);
        }
    }

    /// Pins both images byte for byte: FNV-1a-64 over the little-endian
    /// bytes of each image's `dump_state` word stream.
    #[test]
    fn memory_images_are_pinned() {
        let hash = |mem: SparseMemory| {
            let mut words = Vec::new();
            mem.dump_state(&mut words);
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            dgl_isa::hash::fnv1a64(&bytes)
        };
        assert_eq!(hash(fuzz_memory(SECRET_A)), 0x8dc6_8ad4_0e50_a69c);
        assert_eq!(hash(fuzz_memory(SECRET_B)), 0xc6bf_0b36_b28f_b451);
    }
}
