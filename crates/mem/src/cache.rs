//! A single set-associative, tag-only cache level with LRU replacement.

use crate::config::{CacheConfig, Replacement};
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    lru: u64,
    inserted: u64,
}

impl Line {
    /// Filler for slots past a set's resident lines; never read.
    const VACANT: Line = Line {
        tag: 0,
        lru: 0,
        inserted: 0,
    };
}

/// Sets per [`Chunk`]. Larger chunks make a frozen clone cheaper but
/// copy more on the first write after one and keep more memory live
/// per stored snapshot; 16 is the measured middle (64 pushed `dgl
/// serve`'s peak RSS toward its budget, 4 gave back much of the clone
/// saving). A Table 1 hierarchy is 1 284 chunks of at most 6 KiB.
const CHUNK_SETS: usize = 16;

/// `CHUNK_SETS` consecutive sets (all of them when the cache has
/// fewer): set `s` owns the `ways` line slots starting at `s * ways`,
/// of which the first `len[s]` are resident, in way order. The unit of
/// sharing between clones of a [`Cache`].
#[derive(Debug, Clone)]
struct Chunk {
    len: [u32; CHUNK_SETS],
    lines: Box<[Line]>,
}

impl Chunk {
    /// A chunk of `set_count.min(CHUNK_SETS)` empty sets.
    fn empty(ways: usize, set_count: usize) -> Self {
        Self {
            len: [0; CHUNK_SETS],
            lines: vec![Line::VACANT; ways * set_count.min(CHUNK_SETS)].into_boxed_slice(),
        }
    }

    /// The resident lines of set `s`, in way order.
    fn set(&self, s: usize, ways: usize) -> &[Line] {
        &self.lines[s * ways..s * ways + self.len[s] as usize]
    }

    /// Index of the resident line tagged `tag` in set `s`, if any.
    fn find(&self, s: usize, ways: usize, tag: u64) -> Option<usize> {
        self.set(s, ways).iter().position(|l| l.tag == tag)
    }
}

/// How a [`Cache`] holds one chunk of its sets.
#[derive(Debug, Clone)]
enum Slot {
    /// Never written: every set reads as empty and nothing is
    /// allocated.
    Vacant,
    /// Written in place by this cache alone, with no refcount traffic.
    /// A clone copies it. Boxed, so a slot stays two words wide: a
    /// Table 1 hierarchy has 1 284 of them, and stored snapshots keep
    /// many hierarchies alive.
    Owned(Box<Chunk>),
    /// Frozen by [`Cache::freeze`] and possibly shared with clones;
    /// the first write copies it back into [`Slot::Owned`].
    Shared(Arc<Chunk>),
}

impl Slot {
    /// The chunk for reading; `None` when vacant.
    fn get(&self) -> Option<&Chunk> {
        match self {
            Slot::Vacant => None,
            Slot::Owned(chunk) => Some(chunk),
            Slot::Shared(chunk) => Some(chunk),
        }
    }

    /// The chunk for writing, made owned first: allocated empty when
    /// vacant, copied when shared (moved out when no clone holds it).
    fn owned(&mut self, ways: usize, set_count: usize) -> &mut Chunk {
        if !matches!(self, Slot::Owned(_)) {
            *self = Slot::Owned(Box::new(match std::mem::replace(self, Slot::Vacant) {
                Slot::Shared(chunk) => Arc::unwrap_or_clone(chunk),
                _ => Chunk::empty(ways, set_count),
            }));
        }
        match self {
            Slot::Owned(chunk) => chunk,
            _ => unreachable!("slot made owned above"),
        }
    }
}

/// Per-level access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups performed (hits + misses).
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines installed.
    pub fills: u64,
    /// Lines removed by external invalidation.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1] (0 when the level was never accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Publishes the counters (plus the derived hit-rate gauge) into
    /// `reg` under `cache.<level>.*` names, e.g. `cache.l1.misses`.
    /// One-way copy taken after a run; never read back by the
    /// simulator.
    pub fn publish(&self, reg: &mut dgl_stats::MetricsRegistry, level: &str) {
        reg.counter(&format!("cache.{level}.accesses"), self.accesses);
        reg.counter(&format!("cache.{level}.hits"), self.hits);
        reg.counter(&format!("cache.{level}.misses"), self.misses);
        reg.counter(&format!("cache.{level}.fills"), self.fills);
        reg.counter(&format!("cache.{level}.invalidations"), self.invalidations);
        reg.gauge(&format!("cache.{level}.hit_rate"), self.hit_rate());
    }
}

/// A tag-only set-associative cache with true-LRU replacement.
///
/// Data is never stored: correctness comes from the functional memory
/// image, and this structure only answers *presence* and *timing*
/// questions. Replacement updates are decoupled from lookups (see
/// [`Cache::lookup`]'s `update_lru`) to support Delay-on-Miss's delayed
/// replacement update.
///
/// Sets are stored in chunks of 16, each vacant, owned or shared. A
/// fresh cache allocates nothing; the first write to a chunk (a fill,
/// a touch or invalidate that finds its line, a promoting hit) makes
/// it owned, and owned chunks are written in place.
/// [`freeze`](Self::freeze) moves every owned chunk behind [`Arc`], the way
/// [`SparseMemory`](dgl_isa::SparseMemory) shares pages: a clone of a
/// frozen cache bumps one refcount per chunk, and the first write to a
/// shared chunk copies just that chunk. Reads —
/// [`contains`](Self::contains), a miss, a hit without `update_lru` —
/// never copy. A clone of an unfrozen cache copies its owned chunks.
///
/// # Examples
///
/// ```
/// use dgl_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig {
///     size_bytes: 1024,
///     ways: 2,
///     line_bytes: 64,
///     replacement: Default::default(),
///     latency: 5,
/// });
/// assert!(!c.lookup(0x40, true));
/// c.fill(0x40);
/// assert!(c.lookup(0x40, true));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    chunks: Vec<Slot>,
    /// Indices of the slots that are not [`Slot::Vacant`], so
    /// [`reset`](Self::reset) visits only those.
    live: Vec<u32>,
    /// Set count − 1 (the set count is a power of two).
    set_mask: usize,
    /// log2 of the line size.
    line_shift: u32,
    tick: u64,
    stats: CacheStats,
    /// Deterministic xorshift state for [`Replacement::Random`].
    rng: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics when `line_bytes` or the resulting set count is not a
    /// power of two: the line mask and set index are computed by bit
    /// selection, so such geometries would silently mis-index.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "cache line_bytes must be a power of two, got {}",
            cfg.line_bytes
        );
        let set_count = cfg.sets();
        assert!(
            set_count.is_power_of_two(),
            "cache set count must be a power of two, got {set_count} \
             ({} B / ({} ways × {} B lines))",
            cfg.size_bytes,
            cfg.ways,
            cfg.line_bytes
        );
        // Every slot starts vacant, so `live` starts empty; the other
        // values here only fill the struct, and `reset` sets them.
        let mut cache = Self {
            cfg,
            chunks: vec![Slot::Vacant; set_count.div_ceil(CHUNK_SETS)],
            live: Vec::new(),
            set_mask: set_count - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
            rng: 0,
        };
        cache.reset();
        cache
    }

    /// Empties the cache and zeroes its statistics and replacement
    /// clock, the state [`new`](Self::new) builds. Owned chunks are
    /// kept and emptied in place (their set lengths zeroed), so a
    /// reused cache does not allocate them again; shared chunks are
    /// released. The cost follows the chunks in use, not the cache
    /// size.
    pub fn reset(&mut self) {
        // Every field is named, so a new one cannot be left out.
        let Self {
            cfg: _,
            chunks,
            live,
            set_mask: _,
            line_shift: _,
            tick,
            stats,
            rng,
        } = self;
        live.retain(|&c| {
            let slot = &mut chunks[c as usize];
            match slot {
                Slot::Owned(chunk) => chunk.len = [0; CHUNK_SETS],
                _ => *slot = Slot::Vacant,
            }
            matches!(slot, Slot::Owned(_))
        });
        *tick = 0;
        *stats = CacheStats::default();
        *rng = 0x9e37_79b9_7f4a_7c15;
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    fn set_count(&self) -> usize {
        self.set_mask + 1
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & self.cfg.line_mask()
    }

    /// `(chunk, set within the chunk)` holding `addr`'s line.
    fn locate(&self, addr: u64) -> (usize, usize) {
        let set = (addr >> self.line_shift) as usize & self.set_mask;
        (set / CHUNK_SETS, set % CHUNK_SETS)
    }

    /// Index of the resident line tagged `tag` in set `s` of chunk
    /// `c`, if any.
    fn find(&self, c: usize, s: usize, tag: u64) -> Option<usize> {
        self.chunks[c].get()?.find(s, self.cfg.ways, tag)
    }

    /// The chunk at `c` for writing (see [`Slot::owned`]).
    fn chunk_mut(&mut self, c: usize) -> &mut Chunk {
        if matches!(self.chunks[c], Slot::Vacant) {
            self.live.push(c as u32);
        }
        let (ways, set_count) = (self.cfg.ways, self.set_count());
        self.chunks[c].owned(ways, set_count)
    }

    /// Moves every owned chunk behind an [`Arc`], so that clones taken
    /// from here on share it until one of them writes to it. Call
    /// before snapshotting a cache that will be cloned; contents,
    /// replacement state and statistics are unchanged.
    pub fn freeze(&mut self) {
        for slot in &mut self.chunks {
            *slot = match std::mem::replace(slot, Slot::Vacant) {
                Slot::Owned(chunk) => Slot::Shared(Arc::new(*chunk)),
                other => other,
            };
        }
    }

    /// Looks up `addr`, counting the access. When `update_lru` is false
    /// a hit does not promote the line (delayed replacement update); call
    /// [`touch`](Self::touch) later to apply it retroactively.
    pub fn lookup(&mut self, addr: u64, update_lru: bool) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let tag = self.line_addr(addr);
        let tick = self.tick;
        let ways = self.cfg.ways;
        let (c, s) = self.locate(addr);
        match self.find(c, s, tag) {
            Some(way) => {
                if update_lru {
                    self.chunk_mut(c).lines[s * ways + way].lru = tick;
                }
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Whether the line holding `addr` is present, without counting an
    /// access or disturbing replacement state (test/attacker probe).
    pub fn contains(&self, addr: u64) -> bool {
        let (c, s) = self.locate(addr);
        self.find(c, s, self.line_addr(addr)).is_some()
    }

    /// Installs the line holding `addr`, evicting LRU if the set is
    /// full. Returns the evicted line address, if any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let tag = self.line_addr(addr);
        self.tick += 1;
        self.stats.fills += 1;
        let (tick, ways, replacement) = (self.tick, self.cfg.ways, self.cfg.replacement);
        let mut rng = self.rng;
        let (c, s) = self.locate(addr);
        let chunk = self.chunk_mut(c);
        let len = chunk.len[s] as usize;
        let set = &mut chunk.lines[s * ways..(s + 1) * ways];
        if let Some(line) = set[..len].iter_mut().find(|l| l.tag == tag) {
            line.lru = tick;
            return None;
        }
        let fresh = Line {
            tag,
            lru: tick,
            inserted: tick,
        };
        if len < ways {
            set[len] = fresh;
            chunk.len[s] += 1;
            return None;
        }
        let victim_idx = match replacement {
            Replacement::Lru => set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("non-empty set"),
            Replacement::Fifo => set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.inserted)
                .map(|(i, _)| i)
                .expect("non-empty set"),
            Replacement::Random => {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng as usize) % set.len()
            }
        };
        let victim = &mut set[victim_idx];
        let evicted = victim.tag;
        *victim = fresh;
        self.rng = rng;
        Some(evicted)
    }

    /// Whether [`fill_fresh`](Self::fill_fresh) may stand in for a run
    /// of [`fill`](Self::fill) calls: no set holds a line, and the
    /// policy evicts a full set's oldest fill when no hit intervenes
    /// (LRU or FIFO, not Random).
    pub(crate) fn can_fill_fresh(&self) -> bool {
        self.cfg.replacement != Replacement::Random
            && self
                .chunks
                .iter()
                .all(|slot| slot.get().is_none_or(|chunk| chunk.len == [0; CHUNK_SETS]))
    }

    /// Fills the lines of `spans` in order — span `(first, n)` is the
    /// `n` consecutive lines from line address `first`, at this cache's
    /// line size, and no line appears twice — leaving exactly the state
    /// one [`fill`](Self::fill) per line leaves when
    /// [`can_fill_fresh`](Self::can_fill_fresh) holds. No fill then
    /// finds its line, so a set's `k`-th fill takes way `k % ways`
    /// (once the set is full, the way of its oldest line) with `lru`
    /// and `inserted` set to the fill's tick, and only a set's last
    /// `ways` fills survive. Consecutive lines land in consecutive
    /// sets, so each set's fills follow from arithmetic: the cache is
    /// written set by set, once, with no search and no victim scan.
    pub(crate) fn fill_fresh(&mut self, spans: &[(u64, u64)]) {
        let (ways, set_count) = (self.cfg.ways, self.set_count());
        let (line_shift, set_mask) = (self.line_shift, self.set_mask);
        let set_shift = set_count.trailing_zeros();
        let line = self.cfg.line_bytes as u64;
        // Index of each span's first fill among all fills.
        let mut base = Vec::with_capacity(spans.len());
        let mut n = 0u64;
        for &(_, len) in spans {
            base.push(n);
            n += len;
        }
        let tick0 = self.tick;
        for set in 0..set_count {
            // A span's fills into `set`: the offset of the first within
            // the span, then every `set_count`-th line, `count` of them.
            let in_set = |&(first, len): &(u64, u64)| {
                let offset = (set as u64).wrapping_sub(first >> line_shift) & set_mask as u64;
                let count = if offset < len {
                    ((len - 1 - offset) >> set_shift) + 1
                } else {
                    0
                };
                (offset, count)
            };
            let total: u64 = spans.iter().map(|span| in_set(span).1).sum();
            if total == 0 {
                continue;
            }
            let kept = total.min(ways as u64) as usize;
            let (c, s) = (set / CHUNK_SETS, set % CHUNK_SETS);
            let chunk = self.chunk_mut(c);
            chunk.len[s] = kept as u32;
            // Walk the set's last `kept` fills backward from its last,
            // fill `total - 1`, stepping the way down as `k % ways` does.
            let mut way = if total <= ways as u64 {
                kept - 1
            } else {
                ((total - 1) % ways as u64) as usize
            };
            let set_lines = &mut chunk.lines[s * ways..(s + 1) * ways];
            let mut left = kept;
            'spans: for (span, &b) in spans.iter().zip(&base).rev() {
                let (offset, count) = in_set(span);
                for q in (0..count).rev() {
                    if left == 0 {
                        break 'spans;
                    }
                    let i = offset + (q << set_shift);
                    let tick = tick0 + b + i + 1;
                    set_lines[way] = Line {
                        tag: span.0 + i * line,
                        lru: tick,
                        inserted: tick,
                    };
                    way = if way == 0 { ways - 1 } else { way - 1 };
                    left -= 1;
                }
            }
        }
        self.stats.fills += n;
        self.tick += n;
    }

    /// Retroactively applies a replacement update for `addr` (DoM's
    /// delayed replacement update). No-op if the line has since been
    /// evicted. Does not count as an access.
    pub fn touch(&mut self, addr: u64) {
        self.tick += 1;
        let tag = self.line_addr(addr);
        let tick = self.tick;
        let ways = self.cfg.ways;
        let (c, s) = self.locate(addr);
        if let Some(way) = self.find(c, s, tag) {
            self.chunk_mut(c).lines[s * ways + way].lru = tick;
        }
    }

    /// Removes the line holding `addr`. Returns whether it was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let tag = self.line_addr(addr);
        let ways = self.cfg.ways;
        let (c, s) = self.locate(addr);
        if self.find(c, s, tag).is_none() {
            return false;
        }
        // Compact the survivors in way order, as `Vec::retain` would.
        let chunk = self.chunk_mut(c);
        let set = &mut chunk.lines[s * ways..(s + 1) * ways];
        let mut kept = 0;
        for way in 0..chunk.len[s] as usize {
            if set[way].tag != tag {
                set[kept] = set[way];
                kept += 1;
            }
        }
        chunk.len[s] = kept as u32;
        self.stats.invalidations += 1;
        true
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the access counters while keeping contents and
    /// replacement state. Sampled simulation calls this at the
    /// warmup/measurement boundary so measured statistics cover only
    /// the measurement slice of a warmed cache.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Every set's resident lines, in set order then way order.
    fn sets(&self) -> impl Iterator<Item = &[Line]> + '_ {
        let ways = self.cfg.ways;
        let per_chunk = self.set_count().min(CHUNK_SETS);
        self.chunks.iter().flat_map(move |slot| {
            (0..per_chunk).map(move |s| slot.get().map_or(&[][..], |chunk| chunk.set(s, ways)))
        })
    }

    /// Appends a canonical flat-word dump of the full cache state
    /// (tick, rng, stats, then every set's resident lines in way order)
    /// to `out`. Restoring with [`restore_state`](Self::restore_state)
    /// into a cache of the same geometry reproduces the replacement
    /// state exactly, so subsequent accesses evict identically.
    pub fn dump_state(&self, out: &mut Vec<u64>) {
        out.push(self.tick);
        out.push(self.rng);
        out.push(self.stats.accesses);
        out.push(self.stats.hits);
        out.push(self.stats.misses);
        out.push(self.stats.fills);
        out.push(self.stats.invalidations);
        out.push(self.set_count() as u64);
        for set in self.sets() {
            out.push(set.len() as u64);
            for line in set {
                out.push(line.tag);
                out.push(line.lru);
                out.push(line.inserted);
            }
        }
    }

    /// Restores state dumped by [`dump_state`](Self::dump_state) into
    /// this cache, consuming exactly the words the dump produced.
    /// Returns `None` when the stream is truncated, the set count does
    /// not match this cache's geometry, or a set holds more lines than
    /// the configured associativity — a corrupted serialized checkpoint
    /// must surface as a clean miss, not a panic. Every restored chunk
    /// is shared, as after [`freeze`](Self::freeze), so clones of the
    /// restored cache copy nothing.
    pub fn restore_state(&mut self, words: &mut &[u64]) -> Option<()> {
        if words.len() < 8 {
            return None;
        }
        let (head, rest) = words.split_at(8);
        *words = rest;
        let [tick, rng, accesses, hits, misses, fills, invalidations, n_sets] =
            <[u64; 8]>::try_from(head).expect("8-word header");
        let set_count = self.set_count();
        if n_sets as usize != set_count {
            return None;
        }
        let ways = self.cfg.ways;
        let mut chunks = Vec::with_capacity(self.chunks.len());
        for _ in 0..self.chunks.len() {
            let mut chunk = Chunk::empty(ways, set_count);
            for s in 0..set_count.min(CHUNK_SETS) {
                let (&len, rest) = words.split_first()?;
                *words = rest;
                if len as usize > ways || words.len() < 3 * len as usize {
                    return None;
                }
                let (lines, rest) = words.split_at(3 * len as usize);
                *words = rest;
                for (slot, w) in chunk.lines[s * ways..]
                    .iter_mut()
                    .zip(lines.chunks_exact(3))
                {
                    *slot = Line {
                        tag: w[0],
                        lru: w[1],
                        inserted: w[2],
                    };
                }
                chunk.len[s] = len as u32;
            }
            chunks.push(Slot::Shared(Arc::new(chunk)));
        }
        self.tick = tick;
        self.rng = rng;
        self.stats = CacheStats {
            accesses,
            hits,
            misses,
            fills,
            invalidations,
        };
        self.live = (0..chunks.len() as u32).collect();
        self.chunks = chunks;
        Some(())
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.sets().map(<[Line]>::len).sum()
    }

    /// All resident line addresses, in unspecified order (test probe).
    pub fn resident_lines(&self) -> Vec<u64> {
        self.sets().flatten().map(|l| l.tag).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 2 * 64 * 2, // 2 sets, 2 ways
            ways: 2,
            line_bytes: 64,
            replacement: Default::default(),
            latency: 5,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.lookup(0x100, true));
        c.fill(0x100);
        assert!(c.lookup(0x100, true));
        assert!(c.lookup(0x13f, true), "same 64-byte line");
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set 0 holds lines 0x000, 0x080 (stride = sets*line = 128).
        c.fill(0x000);
        c.fill(0x080);
        c.lookup(0x000, true); // promote 0x000
        let evicted = c.fill(0x100); // set 0 again: evicts 0x080
        assert_eq!(evicted, Some(0x080));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080));
    }

    #[test]
    fn delayed_replacement_update() {
        let mut c = small();
        c.fill(0x000);
        c.fill(0x080);
        // Speculative hit without LRU update: 0x000 stays LRU.
        c.lookup(0x000, false);
        assert_eq!(c.fill(0x100), Some(0x000));
        // Now with a retroactive touch the line would have been saved.
        let mut c = small();
        c.fill(0x000);
        c.fill(0x080);
        c.lookup(0x000, false);
        c.touch(0x000); // retroactive update once the access is safe
        assert_eq!(c.fill(0x100), Some(0x080));
    }

    #[test]
    fn touch_after_eviction_is_noop() {
        let mut c = small();
        c.fill(0x000);
        c.invalidate(0x000);
        c.touch(0x000);
        assert!(!c.contains(0x000));
    }

    #[test]
    fn contains_does_not_count() {
        let mut c = small();
        c.fill(0x40);
        assert!(c.contains(0x40));
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn invalidate_reports_presence() {
        let mut c = small();
        c.fill(0x40);
        assert!(c.invalidate(0x40));
        assert!(!c.invalidate(0x40));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn refill_promotes_instead_of_duplicating() {
        let mut c = small();
        c.fill(0x40);
        c.fill(0x40);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn resident_lines_lists_tags() {
        let mut c = small();
        c.fill(0x40);
        c.fill(0x80);
        let mut lines = c.resident_lines();
        lines.sort_unstable();
        assert_eq!(lines, vec![0x40, 0x80]);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 2 * 64 * 2,
            ways: 2,
            line_bytes: 64,
            replacement: Replacement::Fifo,
            latency: 5,
        });
        c.fill(0x000);
        c.fill(0x080);
        c.lookup(0x000, true); // recency must NOT save 0x000 under FIFO
        assert_eq!(c.fill(0x100), Some(0x000));
    }

    #[test]
    fn random_replacement_is_deterministic_and_valid() {
        let mk = || {
            Cache::new(CacheConfig {
                size_bytes: 2 * 64 * 2,
                ways: 2,
                line_bytes: 64,
                replacement: Replacement::Random,
                latency: 5,
            })
        };
        let mut a = mk();
        let mut b = mk();
        let mut evictions = Vec::new();
        for i in 0..16u64 {
            let ea = a.fill(i * 128); // all map to set 0
            let eb = b.fill(i * 128);
            assert_eq!(ea, eb, "same seed, same decisions");
            if let Some(e) = ea {
                evictions.push(e);
            }
            assert!(a.occupancy() <= 2 * 2);
        }
        assert!(!evictions.is_empty());
    }

    #[test]
    #[should_panic(expected = "line_bytes must be a power of two")]
    fn non_pow2_line_size_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 2 * 48 * 2,
            ways: 2,
            line_bytes: 48,
            replacement: Default::default(),
            latency: 5,
        });
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_pow2_set_count_rejected() {
        // 3 sets of 2 ways × 64 B: the modulo index would "work" but a
        // hardware bit-selected index cannot, so the shape is rejected.
        let _ = Cache::new(CacheConfig {
            size_bytes: 3 * 64 * 2,
            ways: 2,
            line_bytes: 64,
            replacement: Default::default(),
            latency: 5,
        });
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.fill(0x40);
        c.lookup(0x40, true);
        c.lookup(0x80, true);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.contains(0x40), "contents survive a stats reset");
    }

    #[test]
    fn dump_restore_round_trips_replacement_state() {
        let mut a = small();
        a.fill(0x000);
        a.fill(0x080);
        a.lookup(0x000, true);
        let mut words = Vec::new();
        a.dump_state(&mut words);
        let mut b = small();
        let mut slice = words.as_slice();
        b.restore_state(&mut slice).expect("geometry matches");
        assert!(slice.is_empty(), "restore consumes exactly the dump");
        assert_eq!(b.stats(), a.stats());
        // Identical replacement state: both evict the same victim.
        assert_eq!(a.fill(0x100), b.fill(0x100));
    }

    #[test]
    fn restore_rejects_truncation_and_geometry_mismatch() {
        let mut a = small();
        a.fill(0x000);
        let mut words = Vec::new();
        a.dump_state(&mut words);
        let mut truncated = &words[..words.len() - 1];
        assert!(small().restore_state(&mut truncated).is_none());
        let mut other = Cache::new(CacheConfig {
            size_bytes: 4 * 64 * 2, // 4 sets instead of 2
            ways: 2,
            line_bytes: 64,
            replacement: Default::default(),
            latency: 5,
        });
        let mut slice = words.as_slice();
        assert!(other.restore_state(&mut slice).is_none());
    }

    #[test]
    fn fresh_cache_allocates_no_chunk() {
        let c = Cache::new(crate::config::HierarchyConfig::default().l3);
        assert_eq!(c.chunks.len(), 16_384 / CHUNK_SETS);
        assert!(c.chunks.iter().all(|slot| matches!(slot, Slot::Vacant)));
    }

    #[test]
    fn frozen_clones_share_chunks_until_a_write() {
        let mut a = Cache::new(crate::config::HierarchyConfig::default().l2);
        // One line in every set: every chunk is written.
        for i in 0..4096u64 {
            a.fill(i * 64);
        }
        assert!(a.chunks.iter().all(|slot| matches!(slot, Slot::Owned(_))));
        a.freeze();
        let b = a.clone();
        let shared = |a: &Cache, b: &Cache| {
            a.chunks
                .iter()
                .zip(&b.chunks)
                .filter(|(x, y)| matches!((x, y), (Slot::Shared(x), Slot::Shared(y)) if Arc::ptr_eq(x, y)))
                .count()
        };
        assert_eq!(shared(&a, &b), a.chunks.len());
        // Reads, misses and no-op writes leave every chunk shared.
        let absent = 1 << 30;
        assert!(a.contains(0x40));
        assert!(a.lookup(0x40, false));
        assert!(!a.lookup(absent, true));
        a.touch(absent);
        assert!(!a.invalidate(absent));
        assert_eq!(shared(&a, &b), a.chunks.len());
        // A promoting hit copies exactly the chunk it lands in.
        assert!(a.lookup(0x40, true));
        assert_eq!(shared(&a, &b), a.chunks.len() - 1);
        assert!(matches!(a.chunks[0], Slot::Owned(_)));
        // The clone never sees the original's writes.
        a.invalidate(0x80);
        assert!(!a.contains(0x80));
        assert!(b.contains(0x80));
    }

    #[test]
    fn reset_empties_owned_chunks_in_place_and_releases_shared_ones() {
        let cfg = crate::config::HierarchyConfig::default().l2;
        let dump = |c: &Cache| {
            let mut words = Vec::new();
            c.dump_state(&mut words);
            words
        };
        // `live` lists exactly the slots that are not vacant.
        let check_live = |c: &Cache| {
            let mut live = c.live.clone();
            live.sort_unstable();
            let in_use: Vec<u32> = (0..c.chunks.len() as u32)
                .filter(|&i| !matches!(c.chunks[i as usize], Slot::Vacant))
                .collect();
            assert_eq!(live, in_use);
        };
        let fresh = dump(&Cache::new(cfg));
        let mut a = Cache::new(cfg);
        for i in 0..64u64 {
            a.fill(i * 64 * 17);
        }
        a.freeze();
        a.fill(0x40); // copies chunk 0 back into an owned one
        check_live(&a);
        let kept = match &a.chunks[0] {
            Slot::Owned(chunk) => &**chunk as *const Chunk,
            _ => unreachable!("chunk 0 was just written"),
        };
        a.reset();
        check_live(&a);
        assert_eq!(dump(&a), fresh);
        assert!(matches!(&a.chunks[0], Slot::Owned(chunk) if std::ptr::eq(&**chunk, kept)));
        assert_eq!(a.live, [0], "shared chunks are released");
        // A restored cache is wholly shared; a reset releases it all.
        let mut b = Cache::new(cfg);
        b.restore_state(&mut dump(&a).as_slice()).unwrap();
        check_live(&b);
        b.fill(0x40);
        b.reset();
        check_live(&b);
        assert_eq!(dump(&b), fresh);
    }

    #[test]
    fn table1_l1_geometry_roundtrip() {
        let cfg = crate::config::HierarchyConfig::default().l1;
        let c = Cache::new(cfg);
        assert_eq!(c.set_count(), 64);
        assert_eq!(c.config().ways, 12);
    }
}
