//! Sparse, byte-addressable data memory.

use crate::inst::Width;
use std::collections::HashMap;
use std::sync::Arc;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE - 1) as u64;

/// Sparse little-endian data memory backed by 4 KiB pages.
///
/// Unmapped bytes read as zero, and pages are allocated on first write.
/// Every access succeeds — the simulated machine has no MMU faults, which
/// keeps wrong-path (transient) execution total: a transient load to an
/// arbitrary address simply returns data, exactly the behaviour Spectre
/// gadgets rely on.
///
/// An access that fits in one page costs one page lookup; one that
/// straddles two pages, or wraps past `u64::MAX`, goes byte by byte.
///
/// Pages are reference-counted and copied on write, so [`Clone`] is
/// O(mapped pages) refcount bumps rather than a deep copy. Sampled
/// simulation leans on this: every architectural checkpoint and every
/// window's seeded core share the same physical pages until one of them
/// stores.
///
/// # Examples
///
/// ```
/// use dgl_isa::SparseMemory;
///
/// let mut mem = SparseMemory::new();
/// mem.write_u64(0x1000, 42);
/// assert_eq!(mem.read_u64(0x1000), 42);
/// assert_eq!(mem.read_u64(0xdead_beef), 0); // unmapped reads as zero
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseMemory {
    pages: HashMap<u64, Arc<[u8; PAGE_SIZE]>>,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mapped 4 KiB pages.
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr & OFFSET_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, mapping the page if needed. A page shared with
    /// a clone (checkpoint) is copied first, so writes never alias.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads `width` bytes little-endian, zero-extended to u64.
    pub fn read(&self, addr: u64, width: Width) -> u64 {
        let n = width.bytes() as usize;
        let off = (addr & OFFSET_MASK) as usize;
        if off + n <= PAGE_SIZE {
            // One page holds the whole access (and so it cannot wrap).
            let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) else {
                return 0;
            };
            let mut bytes = [0u8; 8];
            bytes[..n].copy_from_slice(&page[off..off + n]);
            return u64::from_le_bytes(bytes);
        }
        let mut out = 0u64;
        for i in 0..n as u64 {
            out |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        out
    }

    /// Writes the low `width` bytes of `value` little-endian.
    pub fn write(&mut self, addr: u64, value: u64, width: Width) {
        let n = width.bytes() as usize;
        let off = (addr & OFFSET_MASK) as usize;
        if off + n <= PAGE_SIZE {
            self.page_mut(addr)[off..off + n].copy_from_slice(&value.to_le_bytes()[..n]);
            return;
        }
        for i in 0..n as u64 {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// The page holding `addr`, mapped if absent and unshared from any
    /// clone: one lookup and at most one copy.
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Arc::new([0u8; PAGE_SIZE]));
        Arc::make_mut(page)
    }

    /// Reads an 8-byte little-endian word.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, Width::B8)
    }

    /// Writes an 8-byte little-endian word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, value, Width::B8)
    }

    /// Writes `count` u64 words at an 8-byte stride from `addr`, word
    /// `i` being `f(i)`; `f` is called in index order. The result equals
    /// `write_u64(addr + 8 * i, f(i))` for each `i` in turn, but each
    /// page is looked up (and unshared) once per run of whole words.
    pub fn fill_words(&mut self, addr: u64, count: usize, mut f: impl FnMut(usize) -> u64) {
        let mut i = 0;
        while i < count {
            let at = addr.wrapping_add(8 * i as u64);
            let off = (at & OFFSET_MASK) as usize;
            let run = ((PAGE_SIZE - off) / 8).min(count - i);
            if run == 0 {
                // A word straddling two pages.
                self.write_u64(at, f(i));
                i += 1;
                continue;
            }
            let page = self.page_mut(at);
            for chunk in page[off..off + 8 * run].chunks_exact_mut(8) {
                chunk.copy_from_slice(&f(i).to_le_bytes());
                i += 1;
            }
        }
    }

    /// Writes a slice of u64 words starting at `addr` (8-byte stride).
    pub fn write_words(&mut self, addr: u64, words: &[u64]) {
        self.fill_words(addr, words.len(), |i| words[i]);
    }

    /// Reads `count` u64 words starting at `addr`.
    pub fn read_words(&self, addr: u64, count: usize) -> Vec<u64> {
        (0..count)
            .map(|i| self.read_u64(addr.wrapping_add(8 * i as u64)))
            .collect()
    }

    /// Appends a canonical flat-word dump of the memory image to `out`:
    /// the mapped page count, then each page (sorted by page index) as
    /// its index followed by `PAGE_SIZE`/8 little-endian data words.
    ///
    /// The layout is the serialization hand-off for checkpoint stores:
    /// [`restore_state`](Self::restore_state) of a dump reproduces an
    /// image equal (`==`) to the original, and the word stream is
    /// deterministic (pages sorted), so a fingerprint over it
    /// identifies the image exactly.
    pub fn dump_state(&self, out: &mut Vec<u64>) {
        let mut indices: Vec<u64> = self.pages.keys().copied().collect();
        indices.sort_unstable();
        out.push(indices.len() as u64);
        for idx in indices {
            out.push(idx);
            let page = &self.pages[&idx];
            for chunk in page.chunks_exact(8) {
                out.push(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
            }
        }
    }

    /// Rebuilds a memory image from a [`dump_state`](Self::dump_state)
    /// word stream, consuming exactly the words the dump produced.
    /// Returns `None` (leaving `words` in an unspecified position) when
    /// the stream is truncated or malformed — corrupted serialized
    /// checkpoints must surface as a clean miss, not a panic.
    pub fn restore_state(words: &mut &[u64]) -> Option<SparseMemory> {
        const PAGE_WORDS: usize = PAGE_SIZE / 8;
        let (&n_pages, rest) = words.split_first()?;
        *words = rest;
        let mut mem = SparseMemory::new();
        for _ in 0..n_pages {
            let (&idx, rest) = words.split_first()?;
            if rest.len() < PAGE_WORDS {
                return None;
            }
            let mut page = [0u8; PAGE_SIZE];
            for (i, &w) in rest[..PAGE_WORDS].iter().enumerate() {
                page[8 * i..8 * (i + 1)].copy_from_slice(&w.to_le_bytes());
            }
            *words = &rest[PAGE_WORDS..];
            if mem.pages.insert(idx, Arc::new(page)).is_some() {
                return None; // duplicate page index: malformed stream
            }
        }
        Some(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero() {
        let mem = SparseMemory::new();
        assert_eq!(mem.read_u8(123), 0);
        assert_eq!(mem.read_u64(0xffff_ffff_ffff_fff0), 0);
        assert_eq!(mem.mapped_pages(), 0);
    }

    #[test]
    fn round_trip_all_widths() {
        let mut mem = SparseMemory::new();
        let addr = 0x2000;
        for (w, mask) in [
            (Width::B1, 0xffu64),
            (Width::B2, 0xffff),
            (Width::B4, 0xffff_ffff),
            (Width::B8, u64::MAX),
        ] {
            mem.write(addr, 0x1122_3344_5566_7788, w);
            assert_eq!(mem.read(addr, w), 0x1122_3344_5566_7788 & mask);
            mem.write(addr, 0, Width::B8);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = SparseMemory::new();
        mem.write_u64(0, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u8(0), 0x08);
        assert_eq!(mem.read_u8(7), 0x01);
    }

    #[test]
    fn crosses_page_boundary() {
        let mut mem = SparseMemory::new();
        let addr = (PAGE_SIZE as u64) - 4;
        mem.write_u64(addr, 0xdead_beef_cafe_f00d);
        assert_eq!(mem.read_u64(addr), 0xdead_beef_cafe_f00d);
        assert_eq!(mem.mapped_pages(), 2);
    }

    #[test]
    fn words_helpers() {
        let mut mem = SparseMemory::new();
        mem.write_words(0x100, &[1, 2, 3]);
        assert_eq!(mem.read_words(0x100, 3), vec![1, 2, 3]);
        assert_eq!(mem.read_u64(0x108), 2);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut a = SparseMemory::new();
        a.write_u64(0x1000, 1);
        let mut b = a.clone();
        b.write_u64(0x1000, 2); // shared page must be copied, not aliased
        b.write_u64(0x9000, 3); // fresh page must not appear in the original
        assert_eq!(a.read_u64(0x1000), 1);
        assert_eq!(b.read_u64(0x1000), 2);
        assert_eq!(a.read_u64(0x9000), 0);
        assert_eq!(a.mapped_pages(), 1);
        assert_eq!(b.mapped_pages(), 2);
    }

    #[test]
    fn wrapping_address_arithmetic() {
        let mut mem = SparseMemory::new();
        mem.write(u64::MAX, 0xABCD, Width::B2); // wraps to address 0
        assert_eq!(mem.read_u8(u64::MAX), 0xCD);
        assert_eq!(mem.read_u8(0), 0xAB);
    }
}
