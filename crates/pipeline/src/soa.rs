//! Struct-of-arrays ring buffers for the hot pipeline queues.
//!
//! The reorder buffer, load/store queues, and fetch queue are scanned
//! every cycle by the stage loops, but each scan touches only a couple
//! of fields per entry (`state`, `in_iq`, `seq`, ...). Storing entries
//! as an array of structs drags every cold field through the cache on
//! each scan; the crate-internal `soa_ring!` macro instead lays each
//! field out in
//! its own contiguous array over a shared power-of-two ring.
//!
//! Slots are *generation-indexed*: every time a physical slot is
//! vacated (commit `drop_front`, squash `truncate`, redirect `clear`)
//! its generation counter is bumped, so a stale [`SlotHandle`] taken
//! before a squash can never silently alias a recycled slot. Removal
//! returns nothing: callers read the fields they use in place first.
//! The `soa_slots` property test drives random push/drop/truncate
//! sequences against this invariant.
//!
//! Logical index `0` is always the oldest live entry; `len - 1` the
//! youngest. Physical placement (`(head + i) & mask`) is an internal
//! detail that only [`SlotHandle`] observes.

/// Generation-stamped reference to a physical ring slot.
///
/// A handle taken via `handle(i)` resolves back to a logical index only
/// while the entry it named is still live; once the slot is vacated
/// (and possibly reused by a younger entry) the generation no longer
/// matches and `resolve` returns `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotHandle {
    /// Physical slot index.
    pub slot: usize,
    /// Generation of the slot when the handle was taken.
    pub gen: u32,
}

/// Generates a struct-of-arrays ring buffer over an entry descriptor.
///
/// Every field of the entry struct must be listed (the macro
/// materializes entries field-by-field), each with a getter name and a
/// mutable-getter name. All field types must be `Copy`.
macro_rules! soa_ring {
    (
        $(#[$smeta:meta])*
        pub struct $name:ident from $entry:ident {
            $( $field:ident / $field_mut:ident : $ty:ty, )+
        }
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Clone)]
        pub struct $name {
            mask: usize,
            head: usize,
            len: usize,
            gen: Box<[u32]>,
            $( $field: Box<[$ty]>, )+
        }

        impl $name {
            /// Creates an empty ring with room for at least `capacity`
            /// entries (rounded up to a power of two); `filler` seeds
            /// the unoccupied slots. Callers enforce structural limits
            /// against their configured logical capacity, not the
            /// physical slot count.
            pub fn with_capacity(capacity: usize, filler: $entry) -> Self {
                let cap = capacity.max(1).next_power_of_two();
                // Values here only fill the struct: `reset` sets the
                // state.
                let mut ring = Self {
                    mask: cap - 1,
                    head: 0,
                    len: 0,
                    gen: vec![0u32; cap].into_boxed_slice(),
                    $( $field: vec![filler.$field; cap].into_boxed_slice(), )+
                };
                ring.reset();
                ring
            }

            /// Empties the ring and zeroes every slot generation, the
            /// state [`with_capacity`](Self::with_capacity) builds. The
            /// fields of vacant slots are left as they are: every
            /// accessor takes a live logical index and `push` writes
            /// every field, so they are never read.
            pub fn reset(&mut self) {
                // Every field is named, so a new one cannot be left
                // out.
                let Self {
                    mask: _,
                    head,
                    len,
                    gen,
                    $( $field: _, )+
                } = self;
                *head = 0;
                *len = 0;
                gen.fill(0);
            }

            /// Number of live entries.
            #[inline]
            pub fn len(&self) -> usize {
                self.len
            }

            /// Whether the ring holds no live entries.
            #[inline]
            pub fn is_empty(&self) -> bool {
                self.len == 0
            }

            /// Physical slot count (power of two).
            pub fn slots(&self) -> usize {
                self.mask + 1
            }

            /// Physical slot of logical index 0: the oldest entry, or
            /// where the next push lands when the ring is empty.
            #[inline]
            pub fn head_slot(&self) -> usize {
                self.head
            }

            /// Maps logical index `i` (0 = oldest) to a physical slot.
            #[inline]
            fn phys(&self, i: usize) -> usize {
                debug_assert!(i < self.len, "index {i} out of bounds ({})", self.len);
                (self.head + i) & self.mask
            }

            /// Appends `e` at the tail (youngest position).
            ///
            /// # Panics
            /// Panics when every physical slot is occupied.
            #[inline]
            pub fn push(&mut self, e: $entry) {
                assert!(self.len <= self.mask, "soa ring overflow");
                let p = (self.head + self.len) & self.mask;
                $( self.$field[p] = e.$field; )+
                self.len += 1;
            }

            /// Materializes logical index `i` as an owned entry.
            pub fn get(&self, i: usize) -> $entry {
                let p = self.phys(i);
                $entry { $( $field: self.$field[p], )+ }
            }

            /// Drops the oldest entry, bumping its slot generation.
            /// Callers read the fields they need first.
            ///
            /// # Panics
            /// Debug-panics when the ring is empty.
            #[inline]
            pub fn drop_front(&mut self) {
                debug_assert!(self.len > 0, "drop_front on an empty ring");
                let p = self.head;
                self.gen[p] = self.gen[p].wrapping_add(1);
                self.head = (self.head + 1) & self.mask;
                self.len -= 1;
            }

            /// Drops every entry from logical index `len` on (the
            /// youngest ones), bumping each vacated slot's generation.
            /// A no-op when `len` is not below the live count.
            pub fn truncate(&mut self, len: usize) {
                for i in len..self.len {
                    let p = (self.head + i) & self.mask;
                    self.gen[p] = self.gen[p].wrapping_add(1);
                }
                self.len = self.len.min(len);
            }

            /// Drops every live entry, invalidating all their slots.
            pub fn clear(&mut self) {
                self.truncate(0);
            }

            /// A generation-stamped handle to logical index `i`.
            #[inline]
            pub fn handle(&self, i: usize) -> $crate::soa::SlotHandle {
                let p = self.phys(i);
                $crate::soa::SlotHandle {
                    slot: p,
                    gen: self.gen[p],
                }
            }

            /// Resolves a handle back to a logical index, or `None` if
            /// the slot was vacated (and possibly recycled) since the
            /// handle was taken.
            #[inline]
            pub fn resolve(&self, h: $crate::soa::SlotHandle) -> Option<usize> {
                if h.slot > self.mask || self.gen[h.slot] != h.gen {
                    return None;
                }
                let logical = h.slot.wrapping_sub(self.head) & self.mask;
                (logical < self.len).then_some(logical)
            }

            $(
                #[doc = concat!(
                    "Field `", stringify!($field), "` of logical index `i`."
                )]
                #[inline]
                pub fn $field(&self, i: usize) -> $ty {
                    self.$field[self.phys(i)]
                }

                #[doc = concat!(
                    "Mutable access to field `", stringify!($field),
                    "` of logical index `i`."
                )]
                #[inline]
                pub fn $field_mut(&mut self, i: usize) -> &mut $ty {
                    let p = self.phys(i);
                    &mut self.$field[p]
                }
            )+
        }
    };
}
pub(crate) use soa_ring;

/// Adds binary-search `index_of` and `count_through` to a [`soa_ring!`] type whose
/// entries carry an ascending `seq` field (dispatch order).
macro_rules! soa_index_of {
    ($name:ident) => {
        impl $name {
            /// Locates the entry with sequence number `seq` by binary
            /// search (entries are pushed in ascending `seq` order).
            pub fn index_of(&self, seq: $crate::shadow::Seq) -> Option<usize> {
                let mut lo = 0usize;
                let mut hi = self.len;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let s = self.seq[(self.head + mid) & self.mask];
                    match s.cmp(&seq) {
                        std::cmp::Ordering::Less => lo = mid + 1,
                        std::cmp::Ordering::Greater => hi = mid,
                        std::cmp::Ordering::Equal => return Some(mid),
                    }
                }
                None
            }

            /// The number of leading entries with sequence number at
            /// most `seq` (binary search).
            pub fn count_through(&self, seq: $crate::shadow::Seq) -> usize {
                let (mut lo, mut hi) = (0usize, self.len);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if self.seq[(self.head + mid) & self.mask] <= seq {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
        }
    };
}
pub(crate) use soa_index_of;
