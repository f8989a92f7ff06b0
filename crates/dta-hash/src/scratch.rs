//! Per-key digest scratch cache.
//!
//! A Key-Write or Key-Increment report at redundancy `N` needs the key's
//! 32-bit checksum plus `N` slot-index digests — `1 + N` CRC passes over
//! the same 16 bytes. Real report streams have heavy key locality (the
//! same flows keep reporting), so the translator keeps a small 2-way
//! set-associative scratch of recently hashed keys: a hit replaces all
//! `1 + N` CRC passes with one 16-byte compare.
//!
//! The scratch is deliberately small (default 16K entries ≈ 1MB) — it
//! models the translator ASIC's SRAM, not a DRAM cache — and stores the
//! *raw* digests, so one entry serves any slot-table size and any
//! redundancy up to the digests it has computed.

use dta_core::pool::{Recycler, Zeroable};

use crate::crc::Crc32;
use crate::family::HashFamily;
use crate::polynomials::{CHECKSUM_PARAMS, MAX_REDUNDANCY};

/// Fixed key width (the DTA wire key).
const KEY_BYTES: usize = 16;

/// Digests of one key: checksum plus the first `computed` slot hashes.
#[derive(Debug, Clone, Copy)]
pub struct KeyDigests {
    /// `checksum32` of the key (query-validation checksum).
    pub checksum: u32,
    /// Raw slot-index digests `h_0(key) .. h_{computed-1}(key)` — *not*
    /// reduced modulo any table size.
    pub slots: [u32; MAX_REDUNDANCY],
    /// How many slot digests are valid.
    pub computed: u8,
}

#[derive(Clone, Copy)]
struct Entry {
    key: [u8; KEY_BYTES],
    digests: KeyDigests,
    valid: bool,
}

/// The empty entry every slot starts as — deliberately the all-zero bit
/// pattern (`valid: false`), which is what lets [`KeyScratch::new`] take
/// its table from a [`Recycler`].
const EMPTY: Entry = Entry {
    key: [0; KEY_BYTES],
    digests: KeyDigests { checksum: 0, slots: [0; MAX_REDUNDANCY], computed: 0 },
    valid: false,
};

// SAFETY: `Entry` is integers, integer arrays and a `bool`, and its
// all-zero bit pattern is `EMPTY`.
unsafe impl Zeroable for Entry {}

/// Scratch tables, recycled across translator constructions (a default
/// table is ~1MB, and every scenario run builds one per translator).
static ENTRIES: Recycler<Entry> = Recycler::new(32);
/// The scratch tables' per-set MRU bytes.
static MRU: Recycler<u8> = Recycler::new(32);

/// Hit/miss counters for the scratch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Lookups that found all requested digests cached.
    pub hits: u64,
    /// Lookups that had to run the CRC engine.
    pub misses: u64,
}

/// A 2-way set-associative cache of per-key digests with its own CRC
/// engines.
///
/// Two ways per set with a one-bit LRU make the hit rate robust against
/// pairs of active keys hashing to the same set — the failure mode that
/// hollows out a direct-mapped scratch under real flow working sets.
///
/// Owns a [`HashFamily`] and checksum engine so a lookup is self-contained;
/// the family is shared semantics-wise with the collector (both sides build
/// the same [`HashFamily`], see `dta-collector::layout`).
pub struct KeyScratch {
    family: HashFamily,
    csum: Crc32,
    entries: Box<[Entry]>,
    /// MRU way per set (bit-per-set would do; a byte keeps the code plain).
    mru: Box<[u8]>,
    set_mask: usize,
    /// Journal of entry indexes ever installed, so drop can recycle the
    /// table after zeroing only what was written (the table is ~1MB; a
    /// full wipe per translator construction is real time at fleet scale).
    /// It stops one entry past [`KeyScratch::journal_cap`], which marks it
    /// overflowed: drop then wipes the whole table.
    touched: Vec<u32>,
    /// Hit/miss counters.
    pub stats: ScratchStats,
}

impl KeyScratch {
    /// Scratch with `entries` slots (rounded up to a power of two, min 32,
    /// organized as 2-way sets) over a family of `family_n` hash functions.
    pub fn new(entries: usize, family_n: usize) -> Self {
        let n = entries.next_power_of_two().max(32);
        let sets = n / 2;
        KeyScratch {
            family: HashFamily::new(family_n),
            csum: Crc32::new(CHECKSUM_PARAMS),
            entries: ENTRIES.take_zeroed(n),
            mru: MRU.take_zeroed(sets),
            set_mask: sets - 1,
            touched: Vec::new(),
            stats: ScratchStats::default(),
        }
    }

    /// Journal bound: past this, zero-on-drop degrades to a full wipe.
    fn journal_cap(&self) -> usize {
        (self.entries.len() / 8).max(64)
    }

    /// The hash family backing the slot digests.
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// Number of cache slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache has zero slots (never true).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn set_of(key: &[u8; KEY_BYTES], mask: usize) -> usize {
        // Full-avalanche mix (murmur3 fmix64) of the key bytes. A single
        // multiply is NOT enough here: high input bits never diffuse into
        // the low output bits, which collapses structured key populations
        // (e.g. sequential ids) onto a handful of sets and zeroes the hit
        // rate.
        let a = u64::from_le_bytes(key[0..8].try_into().unwrap());
        let b = u64::from_le_bytes(key[8..16].try_into().unwrap());
        let mut h = a ^ b.rotate_left(29);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^= h >> 33;
        h as usize & mask
    }

    /// Digests of `key` with at least `n` slot hashes computed, from cache
    /// when possible.
    ///
    /// # Panics
    /// Panics if `n` exceeds the family width.
    #[inline]
    pub fn digests(&mut self, key: &[u8; KEY_BYTES], n: usize) -> KeyDigests {
        assert!(n <= self.family.len(), "redundancy {n} exceeds family width");
        let set = Self::set_of(key, self.set_mask);
        let base = set * 2;
        // Probe both ways.
        for way in 0..2usize {
            let e = &mut self.entries[base + way];
            if e.valid && e.key == *key {
                if (e.digests.computed as usize) < n {
                    // Key cached but at lower redundancy: extend in place.
                    for i in (e.digests.computed as usize)..n {
                        e.digests.slots[i] = self.family.hash(i, key);
                    }
                    e.digests.computed = n as u8;
                    self.stats.misses += 1;
                } else {
                    self.stats.hits += 1;
                }
                self.mru[set] = way as u8;
                return self.entries[base + way].digests;
            }
        }
        // Miss: compute and install over the LRU way.
        self.stats.misses += 1;
        let mut d = KeyDigests {
            checksum: self.csum.compute(key),
            slots: [0; MAX_REDUNDANCY],
            computed: n as u8,
        };
        for i in 0..n {
            d.slots[i] = self.family.hash(i, key);
        }
        let victim = 1 - self.mru[set] as usize;
        if !self.entries[base + victim].valid && self.touched.len() <= self.journal_cap() {
            // First install in this slot: journal it for zero-on-drop.
            self.touched.push((base + victim) as u32);
        }
        self.entries[base + victim] = Entry { key: *key, digests: d, valid: true };
        self.mru[set] = victim as u8;
        d
    }

    /// Hint the cache lines of `key`'s set, for a batch caller that will
    /// ask for its [`KeyScratch::digests`] a few reports from now. Not a
    /// lookup: `stats`, the LRU choice and the table are untouched, so a
    /// hinted stream hits, misses and evicts exactly as an unhinted one.
    #[inline]
    pub fn prefetch(&self, key: &[u8; KEY_BYTES]) {
        let base = Self::set_of(key, self.set_mask) * 2;
        let ways = &self.entries[base..base + 2];
        crate::prefetch_read(&ways[0]);
        crate::prefetch_read(&ways[1]);
        // A miss probes both ways and rewrites one whole, and the pair can
        // straddle three lines; an entry is shorter than a line, so the
        // pair's last byte completes the cover.
        const { assert!(std::mem::size_of::<Entry>() <= 64) };
        crate::prefetch_read(ways.as_ptr_range().end.cast::<u8>().wrapping_sub(1));
    }

    /// Checksum of `key` (cached along the same path).
    pub fn checksum32(&mut self, key: &[u8; KEY_BYTES]) -> u32 {
        self.digests(key, 0).checksum
    }
}

impl Drop for KeyScratch {
    fn drop(&mut self) {
        if self.touched.len() > self.journal_cap() {
            self.entries.fill(EMPTY);
        } else {
            for &idx in &self.touched {
                self.entries[idx as usize] = EMPTY;
            }
        }
        self.mru.fill(0);
        ENTRIES.give(std::mem::take(&mut self.entries));
        MRU.give(std::mem::take(&mut self.mru));
    }
}

impl std::fmt::Debug for KeyScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyScratch")
            .field("entries", &self.entries.len())
            .field("family", &self.family.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{checksum32, Checksummer};

    fn key(v: u64) -> [u8; KEY_BYTES] {
        let mut k = [0u8; KEY_BYTES];
        k[..8].copy_from_slice(&v.to_be_bytes());
        k
    }

    #[test]
    fn digests_match_direct_computation() {
        let mut s = KeyScratch::new(64, 4);
        let fam = HashFamily::new(4);
        let cs = Checksummer::new();
        for v in 0..200u64 {
            let k = key(v);
            let d = s.digests(&k, 4);
            assert_eq!(d.checksum, cs.checksum32(&k));
            assert_eq!(d.checksum, checksum32(&k));
            for i in 0..4 {
                assert_eq!(d.slots[i], fam.hash(i, &k), "slot digest {i} for key {v}");
            }
        }
    }

    #[test]
    fn repeated_key_hits() {
        let mut s = KeyScratch::new(64, 2);
        let k = key(42);
        s.digests(&k, 2);
        assert_eq!(s.stats, ScratchStats { hits: 0, misses: 1 });
        for _ in 0..10 {
            s.digests(&k, 2);
        }
        assert_eq!(s.stats, ScratchStats { hits: 10, misses: 1 });
    }

    #[test]
    fn two_way_sets_survive_a_conflicting_pair() {
        // Two keys in the same set must coexist (the direct-mapped failure
        // mode); alternate between them and expect hits after the first
        // pass regardless of which set they land in.
        let mut s = KeyScratch::new(32, 2);
        let (a, b) = (key(1), key(2));
        s.digests(&a, 2);
        s.digests(&b, 2);
        let misses_after_warm = s.stats.misses;
        for _ in 0..20 {
            s.digests(&a, 2);
            s.digests(&b, 2);
        }
        assert_eq!(s.stats.misses, misses_after_warm, "alternating pair should always hit");
        assert_eq!(s.stats.hits, 40);
    }

    #[test]
    fn redundancy_extension_recomputes_consistently() {
        let mut s = KeyScratch::new(64, 8);
        let fam = HashFamily::new(8);
        let k = key(7);
        let d2 = s.digests(&k, 2);
        assert_eq!(d2.computed, 2);
        let d8 = s.digests(&k, 8);
        assert_eq!(d8.computed, 8);
        for i in 0..8 {
            assert_eq!(d8.slots[i], fam.hash(i, &k));
        }
        // And the extension preserved the first two digests.
        assert_eq!(d8.slots[0], d2.slots[0]);
        assert_eq!(d8.slots[1], d2.slots[1]);
    }

    #[test]
    fn colliding_slots_evict_and_stay_correct() {
        // Tiny cache: plenty of evictions; correctness must not depend on
        // hit rate.
        let mut s = KeyScratch::new(16, 2);
        let fam = HashFamily::new(2);
        for round in 0..3 {
            for v in 0..500u64 {
                let k = key(v);
                let d = s.digests(&k, 2);
                assert_eq!(d.slots[0], fam.hash(0, &k), "round {round} key {v}");
                assert_eq!(d.slots[1], fam.hash(1, &k), "round {round} key {v}");
            }
        }
        assert!(s.stats.misses > 0);
    }

    #[test]
    fn prefetch_is_not_a_lookup() {
        // A 16-set table under a 100-key cycle evicts constantly, so an LRU
        // bit or counter moved by a hint would change a later victim.
        let (mut plain, mut hinted) = (KeyScratch::new(32, 2), KeyScratch::new(32, 2));
        for round in 0..4u64 {
            for v in 0..100u64 {
                // A hot few between the steps of a wide cycle.
                let k = key(if v % 3 == 0 { v % 6 } else { v * 7 % 100 });
                hinted.prefetch(&k); // present, or absent until this lookup
                hinted.prefetch(&key(v + 1)); // another key of the cycle
                hinted.prefetch(&key(1_000_000 + round * 100 + v)); // never seen
                let (a, b) = (plain.digests(&k, 2), hinted.digests(&k, 2));
                assert_eq!((a.checksum, a.slots, a.computed), (b.checksum, b.slots, b.computed));
                assert_eq!(plain.stats, hinted.stats, "round {round} key {v}");
                assert_eq!(plain.mru, hinted.mru, "round {round} key {v}");
            }
        }
        assert!(plain.stats.hits > 0 && plain.stats.misses > 100, "{:?}", plain.stats);
        let resident =
            |s: &KeyScratch| -> Vec<_> { s.entries.iter().map(|e| (e.valid, e.key)).collect() };
        assert_eq!(resident(&plain), resident(&hinted), "a hint changed an eviction");
    }

    #[test]
    fn dropped_tables_come_back_empty() {
        // Two sizes no other test builds, so the next scratch of each size
        // takes back the very table the dropped one held: 100 keys into
        // 2048 entries stay within the journal (cap 256), 1000 keys into
        // 1024 entries overflow it (cap 128) and take the full wipe.
        for (entries, keys, overflows) in [(2048usize, 100u64, false), (1024, 1000, true)] {
            let mut s = KeyScratch::new(entries, 2);
            for v in 0..keys {
                s.digests(&key(v), 2);
            }
            assert_eq!(s.touched.len() > s.journal_cap(), overflows, "{entries} entries");
            assert!(s.mru.iter().any(|&way| way != 0));
            let (table, mru) = (s.entries.as_ptr(), s.mru.as_ptr());
            drop(s);
            let recycled = KeyScratch::new(entries, 2);
            assert_eq!((recycled.entries.as_ptr(), recycled.mru.as_ptr()), (table, mru));
            for (i, e) in recycled.entries.iter().enumerate() {
                let d = &e.digests;
                assert!(
                    !e.valid && e.key == [0; KEY_BYTES] && d.checksum == 0,
                    "{entries} entries: entry {i} came back written"
                );
                assert_eq!((d.slots, d.computed), ([0; MAX_REDUNDANCY], 0));
            }
            assert!(recycled.mru.iter().all(|&way| way == 0));
        }
    }

    #[test]
    #[should_panic]
    fn over_family_redundancy_panics() {
        let mut s = KeyScratch::new(16, 2);
        s.digests(&key(1), 3);
    }
}
