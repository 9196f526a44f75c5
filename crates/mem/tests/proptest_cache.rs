//! Property tests for the cache model against reference
//! implementations, and liveness properties of the memory system.

use dgl_mem::{Cache, CacheConfig, HierarchyConfig, MemRequest, MemorySystem, Replacement};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A reference set-associative LRU cache: per-set recency list.
#[derive(Debug, Default, Clone)]
struct RefCache {
    sets: Vec<VecDeque<u64>>, // front = MRU
    ways: usize,
    line: u64,
}

impl RefCache {
    fn new(sets: usize, ways: usize, line: u64) -> Self {
        Self {
            sets: vec![VecDeque::new(); sets],
            ways,
            line,
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.line) as usize) % self.sets.len()
    }

    fn tag(&self, addr: u64) -> u64 {
        addr & !(self.line - 1)
    }

    fn lookup(&mut self, addr: u64, update: bool) -> bool {
        let s = self.set_of(addr);
        let t = self.tag(addr);
        if let Some(pos) = self.sets[s].iter().position(|&x| x == t) {
            if update {
                let v = self.sets[s].remove(pos).unwrap();
                self.sets[s].push_front(v);
            }
            true
        } else {
            false
        }
    }

    fn fill(&mut self, addr: u64) {
        let s = self.set_of(addr);
        let t = self.tag(addr);
        if let Some(pos) = self.sets[s].iter().position(|&x| x == t) {
            let v = self.sets[s].remove(pos).unwrap();
            self.sets[s].push_front(v);
            return;
        }
        if self.sets[s].len() == self.ways {
            self.sets[s].pop_back();
        }
        self.sets[s].push_front(t);
    }

    fn touch(&mut self, addr: u64) {
        self.lookup(addr, true);
    }

    fn invalidate(&mut self, addr: u64) {
        let s = self.set_of(addr);
        let t = self.tag(addr);
        self.sets[s].retain(|&x| x != t);
    }
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Lookup(u64, bool),
    Fill(u64),
    Touch(u64),
    Invalidate(u64),
    Contains(u64),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    // A small address space so sets collide constantly.
    cache_op_in(0..2048)
}

fn cache_op_in(addr: std::ops::Range<u64>) -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (addr.clone(), any::<bool>()).prop_map(|(a, u)| CacheOp::Lookup(a, u)),
        addr.clone().prop_map(CacheOp::Fill),
        addr.clone().prop_map(CacheOp::Touch),
        addr.clone().prop_map(CacheOp::Invalidate),
        addr.prop_map(CacheOp::Contains),
    ]
}

/// One resident line of [`VecCache`].
#[derive(Debug, Clone, Copy)]
struct VecLine {
    tag: u64,
    lru: u64,
    inserted: u64,
}

/// The cache as one `Vec` per set: the plain layout `Cache`'s
/// copy-on-write chunks must reproduce word for word, including tick
/// and RNG stepping, way order, and `dump_state`'s format.
#[derive(Debug, Clone)]
struct VecCache {
    cfg: CacheConfig,
    sets: Vec<Vec<VecLine>>,
    tick: u64,
    rng: u64,
    // accesses, hits, misses, fills, invalidations
    stats: [u64; 5],
}

impl VecCache {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            cfg,
            sets: vec![Vec::new(); cfg.sets()],
            tick: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            stats: [0; 5],
        }
    }

    fn tag(&self, addr: u64) -> u64 {
        addr & self.cfg.line_mask()
    }

    fn set(&self, addr: u64) -> usize {
        ((self.tag(addr) / self.cfg.line_bytes as u64) as usize) % self.sets.len()
    }

    fn lookup(&mut self, addr: u64, update: bool) -> bool {
        self.tick += 1;
        self.stats[0] += 1;
        let (tag, tick, s) = (self.tag(addr), self.tick, self.set(addr));
        match self.sets[s].iter_mut().find(|l| l.tag == tag) {
            Some(line) => {
                if update {
                    line.lru = tick;
                }
                self.stats[1] += 1;
                true
            }
            None => {
                self.stats[2] += 1;
                false
            }
        }
    }

    fn contains(&self, addr: u64) -> bool {
        let tag = self.tag(addr);
        self.sets[self.set(addr)].iter().any(|l| l.tag == tag)
    }

    fn fill(&mut self, addr: u64) -> Option<u64> {
        self.tick += 1;
        self.stats[3] += 1;
        let (tag, tick, s) = (self.tag(addr), self.tick, self.set(addr));
        let fresh = VecLine {
            tag,
            lru: tick,
            inserted: tick,
        };
        let set = &mut self.sets[s];
        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.lru = tick;
            return None;
        }
        if set.len() < self.cfg.ways {
            set.push(fresh);
            return None;
        }
        let victim = match self.cfg.replacement {
            Replacement::Lru => (0..set.len()).min_by_key(|&i| set[i].lru).unwrap(),
            Replacement::Fifo => (0..set.len()).min_by_key(|&i| set[i].inserted).unwrap(),
            Replacement::Random => {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                (self.rng as usize) % set.len()
            }
        };
        Some(std::mem::replace(&mut set[victim], fresh).tag)
    }

    fn touch(&mut self, addr: u64) {
        self.tick += 1;
        let (tag, tick, s) = (self.tag(addr), self.tick, self.set(addr));
        if let Some(line) = self.sets[s].iter_mut().find(|l| l.tag == tag) {
            line.lru = tick;
        }
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        let (tag, s) = (self.tag(addr), self.set(addr));
        let before = self.sets[s].len();
        self.sets[s].retain(|l| l.tag != tag);
        let removed = self.sets[s].len() != before;
        self.stats[4] += removed as u64;
        removed
    }

    fn dump(&self) -> Vec<u64> {
        let mut out = vec![self.tick, self.rng];
        out.extend(self.stats);
        out.push(self.sets.len() as u64);
        for set in &self.sets {
            out.push(set.len() as u64);
            for l in set {
                out.extend([l.tag, l.lru, l.inserted]);
            }
        }
        out
    }
}

fn dump(c: &Cache) -> Vec<u64> {
    let mut out = Vec::new();
    c.dump_state(&mut out);
    out
}

#[derive(Debug, Clone, Copy)]
enum PoolOp {
    /// Apply a cache op to pool member `target % len`.
    On(usize, CacheOp),
    /// Append a clone of pool member `source % len` to the pool.
    Clone(usize),
    /// Freeze pool member `target % len`, sharing its written chunks
    /// with the clones taken after it.
    Freeze(usize),
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    // One op in eight clones and one in eight freezes, so members
    // diverge between clones and chunks pass through every state.
    (0usize..8, 0u8..8, cache_op_in(0..8192)).prop_map(|(t, kind, op)| match kind {
        0 => PoolOp::Clone(t),
        1 => PoolOp::Freeze(t),
        _ => PoolOp::On(t, op),
    })
}

/// Runs `ops` over a pool of caches that starts with one fresh cache of
/// geometry `cfg` and grows by cloning (freezing members now and then,
/// so chunks go vacant, owned, shared and owned again), checking after
/// every op that each member's `dump_state` equals its own
/// [`VecCache`] reference — so a write to one member never shows
/// through in another — and that the touched member round-trips
/// through `restore_state`.
fn check_pool(cfg: CacheConfig, ops: &[PoolOp]) -> Result<(), TestCaseError> {
    let mut pool = vec![(Cache::new(cfg), VecCache::new(cfg))];
    for (step, &op) in ops.iter().enumerate() {
        let target = match op {
            PoolOp::Clone(src) => {
                if pool.len() < 6 {
                    let pair = pool[src % pool.len()].clone();
                    pool.push(pair);
                }
                pool.len() - 1
            }
            PoolOp::Freeze(t) => {
                let t = t % pool.len();
                pool[t].0.freeze();
                t
            }
            PoolOp::On(t, op) => {
                let t = t % pool.len();
                let (dut, reference) = &mut pool[t];
                match op {
                    CacheOp::Lookup(a, u) => {
                        prop_assert_eq!(dut.lookup(a, u), reference.lookup(a, u), "step {}", step)
                    }
                    CacheOp::Fill(a) => {
                        prop_assert_eq!(dut.fill(a), reference.fill(a), "step {}", step)
                    }
                    CacheOp::Touch(a) => {
                        dut.touch(a);
                        reference.touch(a);
                    }
                    CacheOp::Invalidate(a) => {
                        prop_assert_eq!(dut.invalidate(a), reference.invalidate(a), "step {}", step)
                    }
                    CacheOp::Contains(a) => {
                        prop_assert_eq!(dut.contains(a), reference.contains(a), "step {}", step)
                    }
                }
                t
            }
        };
        for (i, (dut, reference)) in pool.iter().enumerate() {
            prop_assert_eq!(
                dump(dut),
                reference.dump(),
                "member {} after step {} ({:?})",
                i,
                step,
                op
            );
        }
        let words = dump(&pool[target].0);
        let mut restored = Cache::new(cfg);
        let mut slice = words.as_slice();
        prop_assert!(
            restored.restore_state(&mut slice).is_some(),
            "restore at step {}",
            step
        );
        prop_assert!(slice.is_empty(), "restore consumes the whole dump");
        prop_assert_eq!(dump(&restored), words, "round trip at step {}", step);
    }
    Ok(())
}

fn replacement(i: u8) -> Replacement {
    [Replacement::Lru, Replacement::Fifo, Replacement::Random][i as usize % 3]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn cache_matches_reference_lru(ops in prop::collection::vec(cache_op(), 1..300)) {
        let cfg = CacheConfig {
            size_bytes: 4 * 2 * 64, // 4 sets? no: sets = size/(ways*line) = 4*2*64/(2*64) = 4
            ways: 2,
            line_bytes: 64,
            replacement: Default::default(),
            latency: 1,
        };
        let mut dut = Cache::new(cfg);
        let mut reference = RefCache::new(cfg.sets(), cfg.ways, 64);
        for op in ops {
            match op {
                CacheOp::Lookup(a, u) => {
                    prop_assert_eq!(dut.lookup(a, u), reference.lookup(a, u), "lookup {:#x}", a);
                }
                CacheOp::Fill(a) => {
                    dut.fill(a);
                    reference.fill(a);
                }
                CacheOp::Touch(a) => {
                    dut.touch(a);
                    reference.touch(a);
                }
                CacheOp::Invalidate(a) => {
                    dut.invalidate(a);
                    reference.invalidate(a);
                }
                CacheOp::Contains(a) => {
                    prop_assert_eq!(dut.contains(a), reference.lookup(a, false), "contains {:#x}", a);
                }
            }
        }
    }

    #[test]
    fn chunked_cache_matches_vec_model_across_clones(
        ops in prop::collection::vec(pool_op(), 1..300),
        policy in 0u8..3,
    ) {
        // 64 sets × 2 ways: four 16-set chunks, 8 KiB of addresses so
        // every set sees evictions.
        check_pool(
            CacheConfig {
                size_bytes: 64 * 2 * 64,
                ways: 2,
                line_bytes: 64,
                replacement: replacement(policy),
                latency: 1,
            },
            &ops,
        )?;
    }

    #[test]
    fn chunked_cache_with_fewer_sets_than_a_chunk(
        ops in prop::collection::vec(pool_op(), 1..300),
        policy in 0u8..3,
    ) {
        // 2 sets × 4 ways: one partial chunk.
        check_pool(
            CacheConfig {
                size_bytes: 2 * 4 * 64,
                ways: 4,
                line_bytes: 64,
                replacement: replacement(policy),
                latency: 1,
            },
            &ops,
        )?;
    }

    #[test]
    fn every_accepted_request_gets_exactly_one_response(
        addrs in prop::collection::vec(0u64..0x10_0000, 1..64),
        l1_only in prop::collection::vec(any::<bool>(), 64),
    ) {
        let mut mem = MemorySystem::new(HierarchyConfig::tiny());
        let mut expected = Vec::new();
        let mut now = 0u64;
        for (i, &addr) in addrs.iter().enumerate() {
            let req = MemRequest {
                addr,
                kind: dgl_mem::AccessKind::Load,
                l1_only: l1_only[i % l1_only.len()],
                update_replacement: true,
            };
            if let Some(id) = mem.request(req, now, None) {
                expected.push(id);
            }
            now += 1;
        }
        let (mut got, mut ready) = (Vec::new(), Vec::new());
        for c in now..now + 10_000 {
            mem.advance_into(c, None, &mut ready);
            got.extend(ready.iter().map(|r| r.id));
        }
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(expected, got, "responses must match accepted requests 1:1");
        prop_assert_eq!(mem.in_flight(), 0, "all MSHRs drained");
    }

    #[test]
    fn fills_make_lines_resident(addrs in prop::collection::vec(0u64..0x4000, 1..20)) {
        let mut mem = MemorySystem::new(HierarchyConfig::tiny());
        let mut ready = Vec::new();
        let mut now = 0;
        for &a in &addrs {
            if mem.request(MemRequest::load(a), now, None).is_none() {
                // MSHR full: drain first.
                for c in now..now + 200 {
                    mem.advance_into(c, None, &mut ready);
                }
                now += 200;
                mem.request(MemRequest::load(a), now, None).expect("drained");
            }
            now += 1;
        }
        for c in now..now + 10_000 {
            mem.advance_into(c, None, &mut ready);
        }
        // L3 is big enough (64 KiB tiny config covers 0x4000 twice over)
        // that every touched line must be resident there.
        for &a in &addrs {
            prop_assert!(
                mem.contains(dgl_mem::Level::L3, a),
                "{a:#x} missing from L3"
            );
        }
    }
}
