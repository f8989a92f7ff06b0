//! The Postcarding aggregation cache.
//!
//! "Postcarding uses an SRAM-based hash table with 32K slots storing
//! fixed-size 32-bit payloads. ... Emissions are triggered either by a
//! collision or when a row counter reaches the path length." (§5.2)
//!
//! Each row caches the encoded per-hop words of one in-flight flow. When the
//! row completes (all `path_len` postcards seen) — or another flow collides
//! into the row — the row is emitted as a single chunk write. Early
//! (collision-forced) emissions produce partial paths; Figure 14 counts them
//! as failures.

use dta_core::pool::{Recycler, Zeroable};
use dta_core::TelemetryKey;
use dta_hash::{Crc32, CrcParams};

/// Maximum hop bound supported by a cache row.
const MAX_HOPS: usize = PostcardCache::MAX_HOPS as usize;

/// One cached row: the flow id tag, its per-hop encoded words, and progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    key: TelemetryKey,
    words: [u32; MAX_HOPS],
    /// Bitmask of hops present.
    present: u8,
    /// Path length once known (0 = unknown).
    path_len: u8,
}

impl Default for Row {
    fn default() -> Self {
        Row { key: TelemetryKey([0; 16]), words: [0; MAX_HOPS], present: 0, path_len: 0 }
    }
}

// SAFETY: `Row` is integers and integer arrays, for which every bit
// pattern is valid, and its default is the all-zero one (zero key, zero
// words, nothing present).
unsafe impl Zeroable for Row {}

/// Row storage, recycled across caches: a scenario run builds translator
/// caches measured in MBs.
static ROWS: Recycler<Row> = Recycler::new(32);
/// The caches' occupancy bitmaps.
static OCCUPIED: Recycler<u64> = Recycler::new(32);

impl Row {
    fn emission(&self, complete: bool) -> CacheEmission {
        CacheEmission { key: self.key, words: self.words, present: self.present, complete }
    }
}

/// An emitted aggregate: the flow key plus the hops collected so far.
/// Fixed-size and `Copy`, so emitting a row allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEmission {
    /// Flow the chunk belongs to.
    pub key: TelemetryKey,
    /// Encoded word per hop; zero where the hop's `present` bit is clear.
    pub words: [u32; MAX_HOPS],
    /// Bit `h` is set when hop `h` was seen (the translator fills the
    /// others with blank codewords before the RDMA write).
    pub present: u8,
    /// Whether the aggregate was complete (reached its path length) or was
    /// evicted early by a collision.
    pub complete: bool,
}

impl CacheEmission {
    /// The word cached for `hop`, `None` when that hop was never seen.
    pub fn word(&self, hop: u8) -> Option<u32> {
        let word = self.words.get(hop as usize)?;
        (self.present & (1 << hop) != 0).then_some(*word)
    }
}

/// Statistics for Figure 14.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Postcards inserted.
    pub postcards: u64,
    /// Complete aggregates emitted.
    pub complete_emissions: u64,
    /// Early (collision) emissions.
    pub early_emissions: u64,
    /// Postcards refused for a hop or path length beyond the hop bound
    /// (well-formed on the wire, impossible for this cache's rows).
    pub rejected: u64,
}

/// The SRAM postcard cache.
#[derive(Debug)]
pub struct PostcardCache {
    rows: Box<[Row]>,
    /// Occupancy bitmap: bit `idx % 64` of word `idx / 64` is set while row
    /// `idx` holds an in-flight flow. A row is non-zero exactly while its
    /// bit is set (`insert` and `flush` keep that), so drop re-zeroes the
    /// storage by walking the set bits.
    occupied: Box<[u64]>,
    /// Number of set bits in `occupied`, so the timer path can return
    /// without looking at the bitmap when nothing is staged.
    live: usize,
    index: Crc32,
    hops: u8,
    /// Counters.
    pub stats: CacheStats,
}

impl PostcardCache {
    /// Maximum hop bound a cache row holds.
    pub const MAX_HOPS: u8 = 8;

    /// Cache with `slots` rows for paths of up to `hops` hops.
    ///
    /// # Panics
    /// Panics when `hops > MAX_HOPS` or `slots == 0`.
    pub fn new(slots: usize, hops: u8) -> Self {
        assert!(slots > 0, "cache must have at least one row");
        assert!((hops as usize) <= MAX_HOPS, "hop bound {hops} exceeds {MAX_HOPS}");
        PostcardCache {
            rows: ROWS.take_zeroed(slots),
            occupied: OCCUPIED.take_zeroed(slots.div_ceil(64)),
            live: 0,
            index: Crc32::new(CrcParams::IEEE),
            hops,
            stats: CacheStats::default(),
        }
    }

    /// Number of rows.
    pub fn slots(&self) -> usize {
        self.rows.len()
    }

    /// Hop bound `B`.
    pub fn hops(&self) -> u8 {
        self.hops
    }

    /// Row of `key`: the index hash reduced modulo the row count — a mask
    /// when that is a power of two (the prototype's 32K), the same value
    /// without the 64-bit division.
    fn row_index(&self, key: &TelemetryKey) -> usize {
        let hash = self.index.compute(key.as_bytes()) as usize;
        let slots = self.rows.len();
        if slots.is_power_of_two() {
            hash & (slots - 1)
        } else {
            hash % slots
        }
    }

    /// Insert one postcard's encoded `word`. Returns what the insertion
    /// emitted: first the previous occupant of the row, evicted early when
    /// this flow collided into it, then this flow's own row when the
    /// postcard completed it (a one-hop path can do both at once).
    ///
    /// `path_len = 0` means the egress did not provide the length; the row
    /// then completes only when all `B` hops are present. A postcard whose
    /// `hop` or `path_len` lies beyond the hop bound cannot belong to any
    /// row: it is counted in [`CacheStats::rejected`] and touches nothing.
    pub fn insert(
        &mut self,
        key: &TelemetryKey,
        hop: u8,
        path_len: u8,
        word: u32,
    ) -> [Option<CacheEmission>; 2] {
        if hop >= self.hops || path_len > self.hops {
            self.stats.rejected += 1;
            return [None, None];
        }
        self.stats.postcards += 1;
        let idx = self.row_index(key);
        let bit = 1u64 << (idx % 64);
        let was_occupied = self.occupied[idx / 64] & bit != 0;
        let row = &mut self.rows[idx];
        let collided = was_occupied && row.key != *key;
        let evicted = collided.then(|| row.emission(false));
        if collided || !was_occupied {
            *row = Row { key: *key, ..Row::default() };
        }
        row.words[hop as usize] = word;
        row.present |= 1 << hop;
        if path_len > 0 {
            row.path_len = path_len;
        }
        // Complete when every hop below `needed` has arrived
        // (`needed <= hops <= 8` was checked on the way in).
        let needed = if row.path_len > 0 { row.path_len } else { self.hops };
        let full_mask = ((1u16 << needed) - 1) as u8;
        let completed = (row.present & full_mask == full_mask).then(|| {
            let emission = row.emission(true);
            *row = Row::default();
            emission
        });

        self.stats.early_emissions += u64::from(evicted.is_some());
        self.stats.complete_emissions += u64::from(completed.is_some());
        // An eviction hands the row from one flow to the next: it stays
        // occupied. Otherwise the bit follows the row.
        match (was_occupied, completed.is_some()) {
            (false, false) => {
                self.occupied[idx / 64] |= bit;
                self.live += 1;
            }
            (true, true) => {
                self.occupied[idx / 64] &= !bit;
                self.live -= 1;
            }
            (false, true) | (true, false) => {}
        }
        [evicted, completed]
    }

    /// Flush every occupied row (shutdown / timer path), in ascending row
    /// order. All flushed rows count as early emissions. An empty cache
    /// costs one comparison; otherwise the walk is O(slots/64 + occupied).
    pub fn flush(&mut self) -> Vec<CacheEmission> {
        let mut out = Vec::with_capacity(self.live);
        self.take_occupied(|row| out.push(row.emission(false)));
        self.stats.early_emissions += out.len() as u64;
        out
    }

    /// Take every occupied row in ascending row order, leaving it zero and
    /// its bit clear. An empty cache costs one comparison.
    fn take_occupied(&mut self, mut each: impl FnMut(Row)) {
        if self.live == 0 {
            return;
        }
        for w in 0..self.occupied.len() {
            let mut bits = std::mem::take(&mut self.occupied[w]);
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                each(std::mem::take(&mut self.rows[idx]));
            }
        }
        self.live = 0;
    }
}

impl Drop for PostcardCache {
    fn drop(&mut self) {
        // Every row outside the occupancy bitmap is zero already.
        self.take_occupied(|_| {});
        ROWS.give(std::mem::take(&mut self.rows));
        OCCUPIED.give(std::mem::take(&mut self.occupied));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> TelemetryKey {
        TelemetryKey::from_u64(i)
    }

    /// What an insert emitted, eviction first.
    fn emitted(out: [Option<CacheEmission>; 2]) -> Vec<CacheEmission> {
        out.into_iter().flatten().collect()
    }

    /// The first five hops of an emission, `None` where never seen.
    fn words(e: &CacheEmission) -> Vec<Option<u32>> {
        (0..5).map(|hop| e.word(hop)).collect()
    }

    #[test]
    fn five_postcards_complete_a_row() {
        let mut c = PostcardCache::new(1024, 5);
        let k = key(1);
        for hop in 0..4 {
            assert_eq!(c.insert(&k, hop, 5, 100 + hop as u32), [None, None]);
        }
        let em = emitted(c.insert(&k, 4, 5, 104));
        assert_eq!(em.len(), 1);
        assert!(em[0].complete);
        assert_eq!(
            words(&em[0]),
            vec![Some(100), Some(101), Some(102), Some(103), Some(104)]
        );
        assert_eq!(c.stats.complete_emissions, 1);
    }

    #[test]
    fn short_path_completes_at_declared_length() {
        let mut c = PostcardCache::new(64, 5);
        let k = key(2);
        assert_eq!(c.insert(&k, 0, 3, 7), [None, None]);
        assert_eq!(c.insert(&k, 1, 3, 8), [None, None]);
        let em = emitted(c.insert(&k, 2, 3, 9));
        assert_eq!(em.len(), 1);
        assert!(em[0].complete);
        assert_eq!(words(&em[0]), vec![Some(7), Some(8), Some(9), None, None]);
        assert_eq!(em[0].present, 0b111);
    }

    #[test]
    fn out_of_order_postcards_still_complete() {
        let mut c = PostcardCache::new(64, 5);
        let k = key(3);
        for hop in [4u8, 0, 3, 1] {
            assert_eq!(c.insert(&k, hop, 5, hop as u32), [None, None]);
        }
        let em = emitted(c.insert(&k, 2, 5, 2));
        assert_eq!(em.len(), 1);
        assert!(em[0].complete);
    }

    #[test]
    fn collision_forces_early_emission() {
        // Single-row cache: every distinct flow collides.
        let mut c = PostcardCache::new(1, 5);
        let a = key(10);
        let b = key(20);
        assert_eq!(c.insert(&a, 0, 5, 1), [None, None]);
        assert_eq!(c.insert(&a, 1, 5, 2), [None, None]);
        let em = emitted(c.insert(&b, 0, 5, 9));
        assert_eq!(em.len(), 1);
        assert!(!em[0].complete);
        assert_eq!(em[0].key, a);
        assert_eq!(words(&em[0]), vec![Some(1), Some(2), None, None, None]);
        assert_eq!(c.stats.early_emissions, 1);
    }

    #[test]
    fn one_insert_can_evict_and_complete() {
        // A one-hop path colliding into an occupied row: the occupant goes
        // out early and the newcomer's row completes, in that order, and
        // the row is free afterwards.
        let mut c = PostcardCache::new(1, 5);
        let (a, b) = (key(10), key(20));
        assert_eq!(c.insert(&a, 0, 5, 1), [None, None]);
        let [evicted, completed] = c.insert(&b, 0, 1, 9);
        let (evicted, completed) = (evicted.unwrap(), completed.unwrap());
        assert_eq!((evicted.key, evicted.complete, evicted.present), (a, false, 0b1));
        assert_eq!((completed.key, completed.complete, completed.present), (b, true, 0b1));
        assert_eq!(completed.words[0], 9);
        assert_eq!((c.stats.early_emissions, c.stats.complete_emissions), (1, 1));
        assert_eq!(c.live, 0);
        assert!(c.flush().is_empty());
    }

    #[test]
    fn non_power_of_two_row_counts_index_by_modulo() {
        // 70 rows take the `%` reduction, 64 the mask: both must agree with
        // the definition `crc32(key) mod slots` that `dta-sim`'s traffic
        // filter mirrors.
        let crc = Crc32::new(CrcParams::IEEE);
        for slots in [70usize, 64, 1, 3] {
            let c = PostcardCache::new(slots, 5);
            for i in 0..500 {
                let k = key(i);
                assert_eq!(c.row_index(&k), crc.compute(k.as_bytes()) as usize % slots);
            }
        }
    }

    #[test]
    fn hop_or_path_length_beyond_the_bound_is_rejected_untouched() {
        let mut c = PostcardCache::new(64, 5);
        let k = key(6);
        assert_eq!(c.insert(&k, 0, 5, 1), [None, None]);
        let before = c.rows[c.row_index(&k)];
        for (hop, path_len) in [(6u8, 7u8), (5, 0), (0, 200), (0, 6), (255, 255)] {
            assert_eq!(c.insert(&k, hop, path_len, 77), [None, None]);
        }
        assert_eq!(c.stats.rejected, 5);
        assert_eq!(c.stats.postcards, 1);
        assert_eq!(c.rows[c.row_index(&k)], before);
        assert_eq!(c.live, 1);
    }

    #[test]
    fn flush_evicts_partial_rows() {
        let mut c = PostcardCache::new(1024, 5);
        c.insert(&key(1), 0, 5, 1);
        c.insert(&key(2), 0, 5, 2);
        let flushed = c.flush();
        assert_eq!(flushed.len(), 2);
        assert!(flushed.iter().all(|e| !e.complete));
        // A second flush is a no-op.
        assert!(c.flush().is_empty());
    }

    #[test]
    fn duplicate_hop_overwrites_word() {
        let mut c = PostcardCache::new(64, 5);
        let k = key(4);
        c.insert(&k, 0, 5, 1);
        c.insert(&k, 0, 5, 2); // retransmitted postcard with new value
        for hop in 1..4 {
            c.insert(&k, hop, 5, 0);
        }
        let em = emitted(c.insert(&k, 4, 5, 0));
        assert_eq!(em[0].word(0), Some(2));
    }

    #[test]
    fn unknown_path_len_waits_for_all_b_hops() {
        let mut c = PostcardCache::new(64, 5);
        let k = key(5);
        for hop in 0..4 {
            assert_eq!(c.insert(&k, hop, 0, hop as u32), [None, None]);
        }
        let em = emitted(c.insert(&k, 4, 0, 4));
        assert_eq!(em.len(), 1);
        assert!(em[0].complete);
    }

    /// The pre-bitmap cache kept as the reference model: one flag per row,
    /// and a flush that scans every row in index order.
    struct NaiveCache {
        rows: Vec<Row>,
        occupied: Vec<bool>,
        index: Crc32,
        hops: u8,
        stats: CacheStats,
    }

    impl NaiveCache {
        fn new(slots: usize, hops: u8) -> Self {
            NaiveCache {
                rows: vec![Row::default(); slots],
                occupied: vec![false; slots],
                index: Crc32::new(CrcParams::IEEE),
                hops,
                stats: CacheStats::default(),
            }
        }

        fn insert(
            &mut self,
            key: &TelemetryKey,
            hop: u8,
            path_len: u8,
            word: u32,
        ) -> [Option<CacheEmission>; 2] {
            let mut out = [None, None];
            if hop >= self.hops || path_len > self.hops {
                self.stats.rejected += 1;
                return out;
            }
            self.stats.postcards += 1;
            let idx = (self.index.compute(key.as_bytes()) as usize) % self.rows.len();
            if self.occupied[idx] && self.rows[idx].key != *key {
                self.stats.early_emissions += 1;
                out[0] = Some(self.rows[idx].emission(false));
                self.occupied[idx] = false;
            }
            if !self.occupied[idx] {
                self.rows[idx] = Row { key: *key, ..Row::default() };
                self.occupied[idx] = true;
            }
            let row = &mut self.rows[idx];
            row.words[hop as usize] = word;
            row.present |= 1 << hop;
            if path_len > 0 {
                row.path_len = path_len;
            }
            let needed = if row.path_len > 0 { row.path_len } else { self.hops };
            let full_mask = (1u16 << needed) - 1;
            if row.present as u16 & full_mask == full_mask {
                self.stats.complete_emissions += 1;
                out[1] = Some(self.rows[idx].emission(true));
                self.occupied[idx] = false;
                self.rows[idx] = Row::default();
            }
            out
        }

        fn flush(&mut self) -> Vec<CacheEmission> {
            let mut out = Vec::new();
            for idx in 0..self.rows.len() {
                if self.occupied[idx] {
                    self.stats.early_emissions += 1;
                    out.push(self.rows[idx].emission(false));
                    self.occupied[idx] = false;
                    self.rows[idx] = Row::default();
                }
            }
            out
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Seeded insert/flush interleavings against [`NaiveCache`]: same
        /// emissions in the same order, same counters, and the live count
        /// tracks the bitmap after every step. 70 rows are two bitmap
        /// words, the second partial; 150 cold flows over them force row
        /// collisions, 8 hot flows complete rows, `path_len` 0 exercises
        /// the unknown-length completion rule, `path_len` 1 an eviction and
        /// a completion in one insert, and hops 5–6 / `path_len` 6 the
        /// rejection of postcards beyond the hop bound.
        #[test]
        fn bitmap_cache_matches_flag_per_row_model(
            ops in proptest::collection::vec(
                (0u8..24, 0u8..6, 0u64..150, 0u8..7, 0usize..5, any::<u32>()),
                1..400,
            ),
        ) {
            const SLOTS: usize = 70;
            let mut cache = PostcardCache::new(SLOTS, 5);
            let mut model = NaiveCache::new(SLOTS, 5);
            for &(kind, cold, flow, hop, len_idx, word) in &ops {
                let flow = if cold == 0 { flow } else { flow % 8 };
                if kind == 0 {
                    prop_assert_eq!(cache.flush(), model.flush());
                } else {
                    let path_len = [0u8, 1, 3, 5, 6][len_idx];
                    prop_assert_eq!(
                        cache.insert(&key(flow), hop, path_len, word),
                        model.insert(&key(flow), hop, path_len, word)
                    );
                }
                prop_assert_eq!(cache.stats, model.stats);
                let popcount: u32 = cache.occupied.iter().map(|w| w.count_ones()).sum();
                prop_assert_eq!(cache.live, popcount as usize);
                prop_assert_eq!(cache.live, model.occupied.iter().filter(|o| **o).count());
            }
            // Dropped with rows still staged; the storage the next cache of
            // this size takes from the `ROWS` recycler must come back empty.
            drop(cache);
            let mut recycled = PostcardCache::new(SLOTS, 5);
            prop_assert_eq!(recycled.live, 0);
            prop_assert!(recycled.occupied.iter().all(|w| *w == 0));
            prop_assert!((0..SLOTS).all(|i| recycled.rows[i] == Row::default()));
            prop_assert!(recycled.flush().is_empty());
        }
    }
}
