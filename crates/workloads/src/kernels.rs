//! Parameterized kernel generators.
//!
//! Each generator returns a `(Program, SparseMemory)` pair. Register
//! conventions: `r1..r9` kernel state, `r10+` scratch. All kernels halt.

use dgl_isa::{Program, ProgramBuilder, Reg, SparseMemory};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// Base address of the first data region; regions are spaced far apart.
pub const REGION_A: i64 = 0x0100_0000;
/// Second data region.
pub const REGION_B: i64 = 0x0800_0000;
/// Third data region.
pub const REGION_C: i64 = 0x1000_0000;

/// Pure streaming: `c[i] = f(a[i])` over `iters` elements with the given
/// byte stride. Every line is touched once (cold misses all the way to
/// DRAM) and addresses are perfectly stride-predictable. This is the
/// `libquantum`-like shape: the standout case for address prediction
/// under secure schemes.
///
/// `branch_mask` adds a rarely-taken branch on the loaded value (taken
/// when `value & mask == 0`). Such a branch is well *predicted* but
/// cannot *resolve* until the load returns, so it keeps younger
/// instructions under a control shadow for the full miss latency —
/// which is exactly what the secure schemes charge for.
pub fn streaming(
    name: &str,
    iters: i64,
    stride: i32,
    compute_ops: usize,
    branch_mask: Option<i32>,
    pad: usize,
) -> (Program, SparseMemory) {
    let mut b = ProgramBuilder::new(name);
    b.imm(r(1), REGION_A)
        .imm(r(2), REGION_B)
        .imm(r(3), iters)
        .imm(r(4), 0)
        .imm(r(9), 0x1111)
        .label("top")
        .load(r(5), r(1), 0);
    if let Some(mask) = branch_mask {
        b.andi(r(7), r(5), mask)
            .bne(r(7), Reg::ZERO, "common")
            .addi(r(4), r(4), 13) // rare path
            .label("common");
    }
    for _ in 0..compute_ops {
        b.add(r(4), r(4), r(5));
        b.shri(r(5), r(5), 1);
    }
    for i in 0..pad {
        b.addi(r(9), r(9), 0x31)
            .xor(r(9), r(9), r(4))
            .shli(r(9), r(9), (i % 2) as i32 + 1);
    }
    b.store(r(4), r(2), 0)
        .addi(r(1), r(1), stride)
        .addi(r(2), r(2), stride)
        .subi(r(3), r(3), 1)
        .bne(r(3), Reg::ZERO, "top")
        .halt();
    let mut mem = SparseMemory::new();
    let mut rng = SmallRng::seed_from_u64(0x11);
    for i in 0..iters {
        mem.write_u64(
            (REGION_A + i * stride as i64) as u64,
            rng.gen::<u32>() as u64 | 1,
        );
    }
    (b.build().expect("streaming kernel"), mem)
}

/// Indirect streaming: `v = b[a[i]]; if ((v & mask) == 0) rare;
/// acc += v`. The index array holds sequential indices, so the
/// *dependent* load is stride-predictable — the bread-and-butter case
/// for doppelganger loads under NDA-P/STT. `table_words` controls which
/// level the dependent load hits.
///
/// `branch_mask` adds the load-fed branch that keeps shadows alive for
/// the duration of the miss: table values have bit 0 set, so a mask
/// with bit 0 makes the branch never-taken (perfectly predicted, yet
/// unresolvable until the data arrives).
/// `unroll` dependent-load pairs execute per loop iteration, but only
/// the first carries the shadow-casting branch — the knob controlling
/// how much of the instruction stream sits under long shadows. `pad`
/// appends independent ALU work, as real compression/compilation
/// kernels interleave arithmetic with their table lookups.
pub fn indirect_stream(
    name: &str,
    iters: i64,
    table_words: u64,
    branch_mask: Option<i32>,
    unroll: usize,
    pad: usize,
    seed: u64,
) -> (Program, SparseMemory) {
    indirect_stream_wrapped(
        name,
        iters,
        table_words,
        branch_mask,
        unroll,
        pad,
        None,
        seed,
    )
}

/// [`indirect_stream`] with an optionally *wrapping* index array:
/// `index_wrap` bytes of indices are reused cyclically, so with a small
/// wrap the whole working set (indices + table) stays L1-resident —
/// the `hmmer`-like shape where even Delay-on-Miss loses little.
#[allow(clippy::too_many_arguments)] // a kernel generator is all knobs
pub fn indirect_stream_wrapped(
    name: &str,
    iters: i64,
    table_words: u64,
    branch_mask: Option<i32>,
    unroll: usize,
    pad: usize,
    index_wrap: Option<u64>,
    seed: u64,
) -> (Program, SparseMemory) {
    assert!(unroll >= 1, "unroll factor must be at least 1");
    let mut b = ProgramBuilder::new(name);
    b.imm(r(1), REGION_A) // index array
        .imm(r(2), REGION_B) // table
        .imm(r(3), iters)
        .imm(r(4), 0)
        .imm(r(9), 0x7373);
    if let Some(w) = index_wrap {
        b.imm(r(11), REGION_A + w as i64); // wrap limit
    }
    b.label("top");
    for u in 0..unroll {
        b.load(r(5), r(1), 8 * u as i32) // idx
            .shli(r(6), r(5), 3)
            .add(r(6), r(6), r(2))
            .load(r(7), r(6), 0); // dependent load
        if u == 0 {
            if let Some(mask) = branch_mask {
                b.andi(r(8), r(7), mask)
                    .bne(r(8), Reg::ZERO, "skip")
                    .addi(r(4), r(4), 7) // rare path
                    .label("skip");
            }
        }
        b.add(r(4), r(4), r(7));
    }
    for i in 0..pad {
        b.addi(r(9), r(9), 0x1d)
            .xor(r(9), r(9), r(4))
            .shri(r(9), r(9), (i % 2) as i32 + 1);
    }
    b.addi(r(1), r(1), 8 * unroll as i32);
    if index_wrap.is_some() {
        b.blt(r(1), r(11), "nowrap")
            .imm(r(1), REGION_A)
            .label("nowrap");
    }
    b.subi(r(3), r(3), 1).bne(r(3), Reg::ZERO, "top").halt();
    let mut mem = SparseMemory::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let index_words = index_wrap.map_or(iters * unroll as i64, |w| (w / 8) as i64);
    // Sequential walk through the table, wrapping at its size.
    mem.fill_words(REGION_A as u64, index_words as usize, |i| {
        i as u64 % table_words
    });
    mem.fill_words(REGION_B as u64, table_words as usize, |_| {
        rng.gen::<u64>() | 1
    });
    (b.build().expect("indirect kernel"), mem)
}

/// Byte offset between a node and its payload: payloads live in a cold
/// mirror region so that pointer structure (hot, warmable) and payload
/// data (cold, DRAM) behave like mcf's arcs vs. node data.
pub const CHASE_PAYLOAD_OFFSET: i64 = 0x1000_0000;

/// Per-lane spacing of chase regions (16 MiB: room for an L3-sized
/// pointer graph per lane while staying clear of [`REGION_B`]).
pub const CHASE_LANE_STRIDE: i64 = 0x0100_0000;

/// Start address of chase lane `l`'s node region.
pub fn chase_lane_region(l: u8) -> i64 {
    REGION_A + (l as i64) * CHASE_LANE_STRIDE
}

/// Multi-lane pointer chase: `lanes` independent shuffled linked lists
/// walked in lockstep — the classic `mcf`-like antagonist. Baseline
/// hardware overlaps the lanes' misses (MLP); each hop's payload feeds
/// a never-taken but data-dependent branch, so under the secure schemes
/// the younger lanes' loads sit under shadows for a full miss latency
/// and the MLP collapses. Pointer addresses are unpredictable; a small
/// strided bookkeeping load per iteration supplies the ~10% coverage
/// the paper reports for mcf. `pad` appends independent ALU work per
/// iteration (mcf does real arithmetic between hops), which dilutes the
/// per-hop penalty.
///
/// # Panics
///
/// Panics unless `1 <= lanes <= 4`, or if the lane footprint exceeds
/// the lane region.
pub fn pointer_chase(
    name: &str,
    iters: i64,
    nodes: u64,
    node_stride: u64,
    lanes: u8,
    pad: usize,
    seed: u64,
) -> (Program, SparseMemory) {
    assert!((1..=4).contains(&lanes), "1..=4 chase lanes supported");
    assert!(
        (nodes / lanes as u64) * node_stride <= CHASE_LANE_STRIDE as u64,
        "lane footprint exceeds the lane region"
    );
    let mut b = ProgramBuilder::new(name);
    // Lane cursors r1..=r4; counter r5; accumulator r6; scratch r7;
    // strided bookkeeping cursor r8; pad chain r9.
    for l in 0..lanes {
        b.imm(r(1 + l), chase_lane_region(l));
    }
    b.imm(r(5), iters)
        .imm(r(6), 0)
        .imm(r(8), REGION_B)
        .imm(r(9), 0x5a5a)
        .label("top");
    for l in 0..lanes {
        let skip = format!("skip{l}");
        // Payload from the cold mirror region: misses to DRAM while the
        // (warmable) pointer load hits — the latency split that makes
        // NDA/STT pay for locking the pointer until the payload branch
        // resolves.
        b.load(r(7), r(1 + l), CHASE_PAYLOAD_OFFSET as i32) // payload
            .load(r(1 + l), r(1 + l), 0) // next
            .andi(r(7), r(7), 1)
            .bne(r(7), Reg::ZERO, &skip) // never taken (payloads odd)
            .addi(r(6), r(6), 3)
            .label(&skip);
    }
    // Strided bookkeeping load (predictable: the paper's mcf coverage).
    b.load(r(7), r(8), 0)
        .add(r(6), r(6), r(7))
        .addi(r(8), r(8), 8);
    for i in 0..pad {
        b.addi(r(9), r(9), 0x11)
            .xor(r(9), r(9), r(6))
            .shli(r(9), r(9), (i % 2) as i32 + 1);
    }
    b.subi(r(5), r(5), 1).bne(r(5), Reg::ZERO, "top").halt();
    let mut mem = SparseMemory::new();
    let per_lane = (nodes / lanes as u64).max(8);
    for l in 0..lanes {
        let mut rng = SmallRng::seed_from_u64(seed ^ (0x9e37 * (l as u64 + 1)));
        // Random cyclic permutation over this lane's slots.
        let mut order: Vec<u64> = (1..per_lane).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let base = chase_lane_region(l) as u64;
        let slot_addr = |s: u64| base + s * node_stride;
        let mut cur = 0u64;
        for &next in &order {
            mem.write_u64(slot_addr(cur), slot_addr(next));
            mem.write_u64(
                slot_addr(cur) + CHASE_PAYLOAD_OFFSET as u64,
                (rng.gen::<u32>() as u64) | 1,
            );
            cur = next;
        }
        mem.write_u64(slot_addr(cur), slot_addr(0)); // close the cycle
        mem.write_u64(
            slot_addr(cur) + CHASE_PAYLOAD_OFFSET as u64,
            (rng.gen::<u32>() as u64) | 1,
        );
    }
    (b.build().expect("chase kernel"), mem)
}

/// Stride-run probing: the access stream follows a constant stride for
/// a short run, then jumps somewhere else and starts a new run. The
/// stride predictor gains confidence inside a run and mispredicts at
/// every break — the `xalancbmk`-like low-accuracy shape that floods
/// the L1 with useless doppelganger traffic.
pub fn stride_runs(
    name: &str,
    iters: i64,
    run_len: u64,
    region_words: u64,
    seed: u64,
) -> (Program, SparseMemory) {
    // The run structure is encoded in a precomputed address-offset
    // array: ao[i] = byte offset of access i. The *offsets themselves*
    // are loaded sequentially (predictable), while the probe load's
    // address follows the runs (predictable within a run only).
    let mut b = ProgramBuilder::new(name);
    b.imm(r(1), REGION_A) // offset array
        .imm(r(2), REGION_B) // probed table
        .imm(r(3), iters)
        .imm(r(4), 0)
        .label("top")
        .load(r(5), r(1), 0) // offset (sequential, predictable)
        .add(r(6), r(2), r(5))
        .load(r(7), r(6), 0) // probe (stride runs, breaks often)
        .add(r(4), r(4), r(7))
        .addi(r(1), r(1), 8)
        .subi(r(3), r(3), 1)
        .bne(r(3), Reg::ZERO, "top")
        .halt();
    let mut mem = SparseMemory::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pos = 0u64;
    let mut left = run_len;
    mem.fill_words(REGION_A as u64, iters as usize, |_| {
        if left == 0 {
            pos = rng.gen_range(0..region_words);
            left = run_len;
        }
        let offset = (pos % region_words) * 8;
        pos += 8; // stride of 64 bytes within the table
        left -= 1;
        offset
    });
    mem.fill_words(REGION_B as u64, region_words as usize, |_| {
        rng.gen::<u32>() as u64
    });
    (b.build().expect("stride-run kernel"), mem)
}

/// Compute-bound kernel: long ALU chains, a small L1-resident table,
/// and a semi-predictable branch. The `exchange2`/`sjeng`-like shape:
/// secure schemes cost little, address prediction gains little.
pub fn compute(
    name: &str,
    iters: i64,
    alu_chain: usize,
    table_words: u64,
    seed: u64,
) -> (Program, SparseMemory) {
    let mut b = ProgramBuilder::new(name);
    b.imm(r(1), REGION_A)
        .imm(r(2), iters)
        .imm(r(3), 0x12345)
        .imm(r(4), 0)
        .imm(r(9), (table_words * 8 - 8) as i64)
        .add(r(10), r(1), Reg::ZERO) // strided scan cursor
        .label("top");
    for i in 0..alu_chain {
        b.addi(r(3), r(3), 0x1f)
            .xor(r(3), r(3), r(2))
            .shli(r(5), r(3), (i % 3) as i32 + 1)
            .add(r(4), r(4), r(5));
    }
    // One L1-resident load with a data-dependent (unpredictable)
    // address, and one strided table scan whose stride breaks at each
    // wrap — the partially-predictable mix behind exchange2's ~80%
    // accuracy in Figure 7.
    b.andi(r(6), r(4), 0x78)
        .add(r(6), r(6), r(1))
        .load(r(7), r(6), 0)
        .add(r(4), r(4), r(7))
        .load(r(7), r(10), 0)
        .add(r(4), r(4), r(7))
        .addi(r(10), r(10), 8)
        .andi(r(6), r(10), (table_words as i32 * 8) - 1)
        .add(r(10), r(6), r(1))
        .andi(r(8), r(4), 7)
        .beq(r(8), Reg::ZERO, "skip")
        .addi(r(4), r(4), 3)
        .label("skip")
        .subi(r(2), r(2), 1)
        .bne(r(2), Reg::ZERO, "top")
        .halt();
    let mut mem = SparseMemory::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    mem.fill_words(REGION_A as u64, table_words as usize, |_| {
        rng.gen::<u16>() as u64
    });
    (b.build().expect("compute kernel"), mem)
}

/// Multi-stream stencil: `out[i] = g0[i] + g1[i] + g2[i]` with a
/// working set sized to a chosen footprint. With an L2-resident grid
/// every access misses L1 but hits L2 — the `GemsFDTD`-like shape where
/// DoM suffers uniquely (it cannot touch L2 speculatively) and
/// doppelgangers restore its MLP.
pub fn stencil(
    name: &str,
    iters: i64,
    grid_words: u64,
    pad: usize,
    seed: u64,
) -> (Program, SparseMemory) {
    let g0 = REGION_A;
    let g1 = REGION_B;
    let out = REGION_C;
    let mut b = ProgramBuilder::new(name);
    b.imm(r(1), g0)
        .imm(r(2), g1)
        .imm(r(3), out)
        .imm(r(4), iters)
        .imm(r(9), (grid_words * 8) as i64)
        .imm(r(8), 0) // byte cursor, wraps at grid size
        .label("top")
        .add(r(5), r(1), r(8))
        .load(r(6), r(5), 0)
        // Load-fed never-taken branch: shadows last until the grid
        // value arrives (values are odd).
        .andi(r(10), r(6), 1)
        .bne(r(10), Reg::ZERO, "cont") // always taken (values odd)
        .addi(r(6), r(6), 1) // rare path
        .label("cont")
        .add(r(5), r(2), r(8))
        .load(r(7), r(5), 0)
        .add(r(6), r(6), r(7))
        .add(r(5), r(1), r(8))
        .load(r(7), r(5), 64) // neighbour line
        .add(r(6), r(6), r(7))
        .add(r(5), r(3), r(8))
        .store(r(6), r(5), 0);
    for i in 0..pad {
        b.addi(r(11), r(11), 0x2b)
            .xor(r(11), r(11), r(6))
            .shri(r(11), r(11), (i % 2) as i32 + 1);
    }
    b.addi(r(8), r(8), 64)
        .blt(r(8), r(9), "nowrap")
        .imm(r(8), 0)
        .label("nowrap")
        .subi(r(4), r(4), 1)
        .bne(r(4), Reg::ZERO, "top")
        .halt();
    let mut mem = SparseMemory::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    // The draws alternate between the two grids.
    let cells: Vec<(u64, u64)> = (0..grid_words + 16)
        .map(|_| {
            let v0 = (rng.gen::<u16>() as u64) | 1;
            (v0, rng.gen::<u16>() as u64)
        })
        .collect();
    mem.fill_words(g0 as u64, cells.len(), |w| cells[w].0);
    mem.fill_words(g1 as u64, cells.len(), |w| cells[w].1);
    (b.build().expect("stencil kernel"), mem)
}

/// Tree walk: repeated root-to-leaf descents of a pointer tree laid out
/// *linearly by level*, with the direction chosen by the node payload.
/// Dependent loads with partially regular addresses and data-dependent
/// branches — the `astar`/`deepsjeng`-like shape (decent coverage,
/// small gain: the branch is the bottleneck).
pub fn tree_walk(name: &str, iters: i64, depth: u32, seed: u64) -> (Program, SparseMemory) {
    // Node: [left_ptr, right_ptr, payload] = 24 bytes, padded to 32.
    let mut b = ProgramBuilder::new(name);
    b.imm(r(2), iters)
        .imm(r(3), 0)
        .imm(r(9), depth as i64)
        .imm(r(6), REGION_C) // "open list" base (L1-resident, wraps)
        .imm(r(10), 0) // open-list offset
        .label("outer")
        .imm(r(1), REGION_A) // root
        .imm(r(8), 0) // level counter
        .label("descend")
        .load(r(4), r(1), 16) // payload
        .add(r(3), r(3), r(4))
        // Strided bookkeeping load (the regular fraction of astar's
        // loads: open-list scans) — gives the partial coverage the
        // paper reports while the tree loads stay unpredictable.
        .add(r(11), r(6), r(10))
        .load(r(7), r(11), 0)
        .add(r(3), r(3), r(7))
        .addi(r(10), r(10), 8)
        .andi(r(10), r(10), 0x3fff) // wrap at 16 KiB
        .andi(r(5), r(4), 1)
        .beq(r(5), Reg::ZERO, "left")
        .load(r(1), r(1), 8) // right
        .jmp("next")
        .label("left")
        .load(r(1), r(1), 0) // left
        .label("next")
        .addi(r(8), r(8), 1)
        .blt(r(8), r(9), "descend")
        .subi(r(2), r(2), 1)
        .bne(r(2), Reg::ZERO, "outer")
        .halt();
    let mut mem = SparseMemory::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    // Complete binary tree, heap layout: node k at REGION_A + k*32.
    let nodes = (1u64 << (depth + 1)) - 1;
    for k in 0..nodes {
        let addr = REGION_A as u64 + k * 32;
        let l = 2 * k + 1;
        let rgt = 2 * k + 2;
        let wrap = |c: u64| REGION_A as u64 + (c % nodes) * 32;
        mem.write_u64(addr, wrap(l));
        mem.write_u64(addr + 8, wrap(rgt));
        mem.write_u64(addr + 16, rng.gen::<u16>() as u64);
    }
    (b.build().expect("tree kernel"), mem)
}

/// Chase-plus-churn: a pointer chase interleaved with bursty stores to
/// a second region — the `omnetpp`-like shape where doppelganger
/// traffic pollutes the L1 and *costs* a little performance.
pub fn chase_with_churn(
    name: &str,
    iters: i64,
    nodes: u64,
    churn_words: u64,
    seed: u64,
) -> (Program, SparseMemory) {
    let (_, mut mem) = pointer_chase("tmp", 1, nodes, 0x140, 1, 0, seed);
    let mut b = ProgramBuilder::new(name);
    b.imm(r(1), REGION_A)
        .imm(r(2), iters)
        .imm(r(3), 0)
        .imm(r(6), REGION_C)
        .imm(r(9), (churn_words * 8) as i64)
        .imm(r(8), 0)
        .label("top")
        .load(r(4), r(1), CHASE_PAYLOAD_OFFSET as i32)
        .load(r(1), r(1), 0)
        // Payload-dependent branch: keeps shadows alive across the miss.
        .andi(r(7), r(4), 1)
        .bne(r(7), Reg::ZERO, "nostep") // never taken (payloads odd)
        .addi(r(3), r(3), 1)
        .label("nostep")
        // Churny store+load pair walking a second region.
        .add(r(5), r(6), r(8))
        .store(r(4), r(5), 0)
        .load(r(7), r(5), 0)
        .add(r(3), r(3), r(7))
        .addi(r(8), r(8), 72) // deliberately line-crossing stride
        .blt(r(8), r(9), "nowrap")
        .imm(r(8), 0)
        .label("nowrap")
        .subi(r(2), r(2), 1)
        .bne(r(2), Reg::ZERO, "top")
        .halt();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0ffee);
    mem.fill_words(REGION_C as u64, churn_words as usize, |_| {
        rng.gen::<u16>() as u64
    });
    (b.build().expect("churn kernel"), mem)
}

/// Interpreter dispatch: a bytecode loop that loads an opcode, jumps
/// through a **memory jump table** (`jr`), and runs a short handler
/// that `call`s a shared helper — the `perlbench`-like shape. The
/// dispatch `jr` has one PC but many targets, so the BTB mispredicts on
/// opcode changes; under the secure schemes the opcode load gates the
/// indirect's resolution, serializing dispatch.
pub fn interpreter(
    name: &str,
    iters: i64,
    opcodes: u64,
    table_words: u64,
    seed: u64,
) -> (Program, SparseMemory) {
    assert!((1..=8).contains(&opcodes));
    assert!(table_words.is_power_of_two());
    let mut b = ProgramBuilder::new(name);
    b.imm(r(1), REGION_A) // bytecode
        .imm(r(2), iters)
        .imm(r(3), 0) // acc
        .imm(r(6), REGION_B) // data table
        .imm(r(7), REGION_C) // jump table
        .imm(r(9), 0) // data cursor
        .label("top")
        .load(r(4), r(1), 0) // opcode
        .shli(r(5), r(4), 3)
        .add(r(5), r(5), r(7))
        .load(r(5), r(5), 0) // handler index from the jump table
        .jr(r(5));
    let mut handler_idx = Vec::new();
    for k in 0..opcodes {
        handler_idx.push(b.here());
        b.call("work").addi(r(3), r(3), k as i32 + 1).jmp("cont");
    }
    b.label("work")
        .add(r(11), r(6), r(9))
        .load(r(10), r(11), 0)
        .add(r(3), r(3), r(10))
        .addi(r(9), r(9), 8)
        .andi(r(9), r(9), (table_words as i32 * 8) - 1)
        .ret()
        .label("cont")
        .addi(r(1), r(1), 8)
        .subi(r(2), r(2), 1)
        .bne(r(2), Reg::ZERO, "top")
        .halt();
    let mut mem = SparseMemory::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    // Bytecode: short repeating phrases with occasional surprises, like
    // real interpreter traces.
    let mut phrase = Vec::new();
    mem.fill_words(REGION_A as u64, iters as usize, |i| {
        if phrase.is_empty() {
            let len = rng.gen_range(3..9);
            phrase = (0..len).map(|_| rng.gen_range(0..opcodes)).collect();
        }
        let op = phrase[i % phrase.len()];
        if rng.gen_range(0..100) < 2 {
            phrase.clear(); // new phrase soon
        }
        op
    });
    mem.fill_words(REGION_C as u64, handler_idx.len(), |k| {
        handler_idx[k] as u64
    });
    mem.fill_words(REGION_B as u64, table_words as usize, |_| {
        rng.gen::<u16>() as u64
    });
    (b.build().expect("interpreter kernel"), mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgl_isa::Emulator;

    fn runs_to_halt(p: &Program, mem: &SparseMemory) -> u64 {
        let mut emu = Emulator::new(p, mem.clone());
        let res = emu
            .run(50_000_000)
            .expect("kernel must be architecturally valid");
        assert!(res.halted, "kernel must halt");
        res.instructions
    }

    #[test]
    fn streaming_halts_and_scales() {
        let (p, mem) = streaming("s", 100, 8, 2, Some(1), 2);
        let insts = runs_to_halt(&p, &mem);
        assert!(insts > 700, "insts = {insts}");
        let (p2, mem2) = streaming("s", 200, 8, 2, Some(1), 2);
        assert!(runs_to_halt(&p2, &mem2) > insts);
    }

    #[test]
    fn indirect_stream_halts() {
        let (p, mem) = indirect_stream("i", 200, 64, Some(1), 2, 2, 1);
        runs_to_halt(&p, &mem);
    }

    #[test]
    fn pointer_chase_visits_whole_cycle() {
        let (p, mem) = pointer_chase("c", 300, 64, 0x140, 1, 2, 7);
        let mut emu = Emulator::new(&p, mem.clone());
        emu.run(50_000_000).unwrap();
        // The chase must not get stuck in a short cycle: count distinct
        // next-pointers reachable from the head.
        let mut seen = std::collections::HashSet::new();
        let mut cur = REGION_A as u64;
        for _ in 0..64 {
            if !seen.insert(cur) {
                break;
            }
            cur = mem.read_u64(cur);
        }
        assert_eq!(seen.len(), 64, "permutation must be one full cycle");
    }

    #[test]
    fn stride_runs_halts() {
        let (p, mem) = stride_runs("x", 300, 6, 4096, 3);
        runs_to_halt(&p, &mem);
    }

    #[test]
    fn compute_halts() {
        let (p, mem) = compute("e", 100, 6, 16, 9);
        runs_to_halt(&p, &mem);
    }

    #[test]
    fn stencil_halts() {
        let (p, mem) = stencil("g", 200, 2048, 2, 5);
        runs_to_halt(&p, &mem);
    }

    #[test]
    fn tree_walk_halts() {
        let (p, mem) = tree_walk("t", 50, 8, 2);
        runs_to_halt(&p, &mem);
    }

    #[test]
    fn chase_with_churn_halts() {
        let (p, mem) = chase_with_churn("o", 200, 64, 1024, 4);
        runs_to_halt(&p, &mem);
    }

    #[test]
    fn interpreter_halts_and_dispatches() {
        let (p, mem) = interpreter("i", 200, 4, 1024, 3);
        let insts = runs_to_halt(&p, &mem);
        assert!(insts > 2000, "insts = {insts}");
    }

    #[test]
    fn kernels_are_deterministic() {
        let (p1, m1) = indirect_stream("i", 50, 64, Some(1), 2, 2, 42);
        let (p2, m2) = indirect_stream("i", 50, 64, Some(1), 2, 2, 42);
        assert_eq!(p1, p2);
        assert_eq!(m1, m2);
        let (_, m3) = indirect_stream("i", 50, 64, Some(1), 2, 2, 43);
        assert_ne!(m1, m3, "different seeds, different images");
    }
}
