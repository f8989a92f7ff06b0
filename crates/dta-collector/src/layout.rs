//! Shared memory geometry.
//!
//! Indexing is "performed statelessly without collaboration through global
//! hash functions" (§4): the translator computes a slot address from the key
//! alone, and the collector recomputes the same address at query time. These
//! layout types are that shared arithmetic; both sides must use identical
//! parameters (they are exchanged via CM at connection setup).

use dta_core::TelemetryKey;
use dta_hash::HashFamily;
use dta_rdma::packet::IMAGE_BYTES;

/// Geometry of a Key-Write region: `slots` slots of `4 + value_bytes` each
/// (32-bit checksum concatenated with the value, §5.2: "a concatenated 4B
/// checksum for Key-Write").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KwLayout {
    /// Base virtual address of the region.
    pub base_va: u64,
    /// Number of key-value slots (`Buf_len` in Algorithm 1).
    pub slots: u64,
    /// Telemetry value width in bytes (4 for INT postcards, 20 for 5-hop
    /// paths).
    pub value_bytes: u32,
}

impl KwLayout {
    /// Checksum width in bytes.
    pub const CSUM_BYTES: u32 = 4;

    /// The widest value a store takes: a slot is at most one
    /// [`IMAGE_BYTES`] cache line, so a query reads it onto the stack.
    pub const MAX_VALUE_BYTES: u32 = IMAGE_BYTES as u32 - Self::CSUM_BYTES;

    /// Slot stride in bytes.
    pub fn slot_bytes(&self) -> u32 {
        Self::CSUM_BYTES + self.value_bytes
    }

    /// Total region length in bytes.
    pub fn region_len(&self) -> u64 {
        self.slots * self.slot_bytes() as u64
    }

    /// Layout sized to `bytes` of storage at `base_va`.
    pub fn with_capacity(base_va: u64, bytes: u64, value_bytes: u32) -> Self {
        let slot = (Self::CSUM_BYTES + value_bytes) as u64;
        KwLayout { base_va, slots: bytes / slot, value_bytes }
    }

    /// Slot index for redundancy copy `n` of `key` (`h0(n, K) mod Buf_len`).
    fn slot_index(&self, family: &HashFamily, n: usize, key: &TelemetryKey) -> u64 {
        family.slot(n, key.as_bytes(), self.slots)
    }

    /// Virtual address of redundancy copy `n` of `key`.
    pub fn slot_va(&self, family: &HashFamily, n: usize, key: &TelemetryKey) -> u64 {
        self.base_va + self.slot_index(family, n, key) * self.slot_bytes() as u64
    }

    /// Virtual address from a precomputed raw digest `h_n(key)` (the
    /// translator's cached-digest hot path; must agree with
    /// [`KwLayout::slot_va`]).
    #[inline]
    pub fn slot_va_from_digest(&self, digest: u32) -> u64 {
        self.base_va + dta_hash::slot_of(digest, self.slots) * self.slot_bytes() as u64
    }
}

/// Geometry of a Postcarding region (Figure 5): `chunks` chunks of `B` hop
/// slots, each slot 4 bytes, chunk stride padded to a power of two
/// ("the chunk sizes are therefore padded from 5∗4B = 20B to 32B", §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostcardLayout {
    /// Base virtual address.
    pub base_va: u64,
    /// Number of chunks (`C = M / B`).
    pub chunks: u64,
    /// Hop bound `B` (5 for fat-tree data centers).
    pub hops: u8,
    /// Checksum/value width in bits (`b` in the analysis; ≤ 32).
    pub slot_bits: u32,
}

impl PostcardLayout {
    /// Bytes per hop slot (fixed 32-bit payloads as on the Tofino
    /// prototype).
    pub const SLOT_BYTES: u32 = 4;

    /// The hop bound a store takes: a chunk's hop slots fill at most one
    /// [`IMAGE_BYTES`] cache line, so a query decodes it on the stack.
    pub const MAX_HOPS: u8 = (IMAGE_BYTES / Self::SLOT_BYTES as usize) as u8;

    /// Chunk stride in bytes: `B * 4` padded up to the next power of two
    /// (bitshift-based address multiplication on the ASIC).
    pub fn chunk_stride(&self) -> u64 {
        let raw = self.hops as u64 * Self::SLOT_BYTES as u64;
        raw.next_power_of_two()
    }

    /// Total region length in bytes.
    pub fn region_len(&self) -> u64 {
        self.chunks * self.chunk_stride()
    }

    /// Layout sized to `bytes` at `base_va`.
    pub fn with_capacity(base_va: u64, bytes: u64, hops: u8, slot_bits: u32) -> Self {
        let stride = (hops as u64 * Self::SLOT_BYTES as u64).next_power_of_two();
        PostcardLayout { base_va, chunks: bytes / stride, hops, slot_bits }
    }

    /// Chunk index for redundancy copy `n` of flow `key` (`h_j(x)`).
    fn chunk_index(&self, family: &HashFamily, n: usize, key: &TelemetryKey) -> u64 {
        family.slot(n, key.as_bytes(), self.chunks)
    }

    /// Virtual address of hop slot `hop` in redundancy copy `n` of `key`
    /// (`B·h_j(x) + i` scaled to bytes).
    pub fn slot_va(&self, family: &HashFamily, n: usize, key: &TelemetryKey, hop: u8) -> u64 {
        debug_assert!(hop < self.hops);
        self.base_va
            + self.chunk_index(family, n, key) * self.chunk_stride()
            + hop as u64 * Self::SLOT_BYTES as u64
    }

    /// Virtual address of the start of chunk `n` for `key` (batched whole-
    /// chunk writes).
    pub fn chunk_va(&self, family: &HashFamily, n: usize, key: &TelemetryKey) -> u64 {
        self.base_va + self.chunk_index(family, n, key) * self.chunk_stride()
    }

    /// Chunk start address from a precomputed raw digest `h_n(key)` (must
    /// agree with [`PostcardLayout::chunk_va`]).
    #[inline]
    pub fn chunk_va_from_digest(&self, digest: u32) -> u64 {
        self.base_va + dta_hash::slot_of(digest, self.chunks) * self.chunk_stride()
    }
}

/// Geometry of an Append region: `lists` ring buffers of `entries_per_list`
/// entries of `entry_bytes` each, laid out list-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendLayout {
    /// Base virtual address.
    pub base_va: u64,
    /// Number of lists (the prototype tracks up to 131K).
    pub lists: u32,
    /// Ring capacity per list, in entries. Must be a multiple of the batch
    /// size so batches never straddle the wrap point.
    pub entries_per_list: u64,
    /// Entry width in bytes (4 for the paper's queue-depth events).
    pub entry_bytes: u32,
}

impl AppendLayout {
    /// Bytes per list.
    pub fn list_bytes(&self) -> u64 {
        self.entries_per_list * self.entry_bytes as u64
    }

    /// Total region length.
    pub fn region_len(&self) -> u64 {
        self.lists as u64 * self.list_bytes()
    }

    /// Virtual address of `entry` in `list`.
    pub fn entry_va(&self, list: u32, entry: u64) -> u64 {
        debug_assert!(list < self.lists);
        debug_assert!(entry < self.entries_per_list);
        self.base_va + list as u64 * self.list_bytes() + entry * self.entry_bytes as u64
    }
}

/// Geometry of a Key-Increment region: a flat array of 8-byte counters
/// addressed through `N` hash functions (count-min semantics over a single
/// array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmsLayout {
    /// Base virtual address.
    pub base_va: u64,
    /// Number of 8-byte counters.
    pub slots: u64,
}

impl CmsLayout {
    /// Counter width (RoCE FETCH_ADD operates on 64 bits).
    pub const SLOT_BYTES: u32 = 8;

    /// Total region length.
    pub fn region_len(&self) -> u64 {
        self.slots * Self::SLOT_BYTES as u64
    }

    /// Virtual address of copy `n` of `key`'s counter.
    pub fn slot_va(&self, family: &HashFamily, n: usize, key: &TelemetryKey) -> u64 {
        self.base_va + family.slot(n, key.as_bytes(), self.slots) * Self::SLOT_BYTES as u64
    }

    /// Counter address from a precomputed raw digest `h_n(key)` (must agree
    /// with [`CmsLayout::slot_va`]).
    #[inline]
    pub fn slot_va_from_digest(&self, digest: u32) -> u64 {
        self.base_va + dta_hash::slot_of(digest, self.slots) * Self::SLOT_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fam() -> HashFamily {
        HashFamily::new(4)
    }

    #[test]
    fn kw_slot_addresses_in_bounds() {
        let l = KwLayout { base_va: 0x1000, slots: 100, value_bytes: 4 };
        let f = fam();
        for i in 0..50u64 {
            let k = TelemetryKey::from_u64(i);
            for n in 0..4 {
                let va = l.slot_va(&f, n, &k);
                assert!(va >= l.base_va);
                assert!(va + l.slot_bytes() as u64 <= l.base_va + l.region_len());
                assert_eq!((va - l.base_va) % l.slot_bytes() as u64, 0);
            }
        }
    }

    #[test]
    fn kw_with_capacity_4gib() {
        // The paper's 4GiB store with 4B values: 8B slots, 512Mi slots.
        let l = KwLayout::with_capacity(0, 4 << 30, 4);
        assert_eq!(l.slots, (4u64 << 30) / 8);
    }

    #[test]
    fn postcard_stride_padded_to_power_of_two() {
        let l = PostcardLayout { base_va: 0, chunks: 10, hops: 5, slot_bits: 32 };
        assert_eq!(l.chunk_stride(), 32); // 20B -> 32B as in §5.2
        let l3 = PostcardLayout { base_va: 0, chunks: 10, hops: 3, slot_bits: 32 };
        assert_eq!(l3.chunk_stride(), 16);
    }

    #[test]
    fn postcard_hops_are_consecutive() {
        let l = PostcardLayout { base_va: 0, chunks: 64, hops: 5, slot_bits: 32 };
        let f = fam();
        let k = TelemetryKey::from_u64(9);
        let base = l.slot_va(&f, 0, &k, 0);
        for hop in 1..5u8 {
            assert_eq!(l.slot_va(&f, 0, &k, hop), base + 4 * hop as u64);
        }
        assert_eq!(l.chunk_va(&f, 0, &k), base);
    }

    #[test]
    fn append_entries_contiguous_per_list() {
        let l = AppendLayout { base_va: 0x100, lists: 4, entries_per_list: 16, entry_bytes: 4 };
        assert_eq!(l.entry_va(0, 0), 0x100);
        assert_eq!(l.entry_va(0, 1), 0x104);
        assert_eq!(l.entry_va(1, 0), 0x100 + 64);
        assert_eq!(l.region_len(), 4 * 64);
    }

    #[test]
    fn cms_addresses_aligned_for_atomics() {
        let l = CmsLayout { base_va: 0, slots: 1024 };
        let f = fam();
        for i in 0..100u64 {
            let k = TelemetryKey::from_u64(i);
            for n in 0..4 {
                assert_eq!(l.slot_va(&f, n, &k) % 8, 0);
            }
        }
    }

    #[test]
    fn digest_addressing_matches_family_addressing() {
        // The translator's cached-digest fast path and the collector's
        // family-based query path must compute identical addresses.
        let f = fam();
        let kw = KwLayout { base_va: 0x1000, slots: 999, value_bytes: 4 };
        let pc = PostcardLayout { base_va: 0x2000, chunks: 77, hops: 5, slot_bits: 32 };
        let cms = CmsLayout { base_va: 0x3000, slots: 1234 };
        for i in 0..200u64 {
            let k = TelemetryKey::from_u64(i);
            for n in 0..4 {
                let digest = f.hash(n, k.as_bytes());
                assert_eq!(kw.slot_va_from_digest(digest), kw.slot_va(&f, n, &k));
                assert_eq!(pc.chunk_va_from_digest(digest), pc.chunk_va(&f, n, &k));
                assert_eq!(cms.slot_va_from_digest(digest), cms.slot_va(&f, n, &k));
            }
        }
    }

    #[test]
    fn translator_and_collector_agree_on_addresses() {
        // The whole point of the layout module: two independently
        // constructed hash families compute identical addresses.
        let l = KwLayout { base_va: 0, slots: 4096, value_bytes: 4 };
        let writer = HashFamily::new(2);
        let reader = HashFamily::new(2);
        let k = TelemetryKey::from_u64(1234);
        for n in 0..2 {
            assert_eq!(l.slot_va(&writer, n, &k), l.slot_va(&reader, n, &k));
        }
    }
}
