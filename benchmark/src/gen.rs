//! The benchmark's own seeded input generator, and the naive oracle.
//!
//! The same seed gives the same reports, byte for byte (see the pinned
//! fingerprints in `tests/pinned_streams.rs`); the programs under test
//! receive only the generated reports. While generating, every stream
//! fills an [`Oracle`] — plain `BTreeMap`s of what a key was last given —
//! that the audit later compares `QueryEngine` answers against.
//!
//! Key pools are drawn *slot-disjoint*: no two keys of a pool share a
//! store slot, CMS counter or postcard-cache row. The stores are lossy by
//! design (a colliding later key overwrites an earlier one), so without
//! this a correct system would still "lose" a seed-dependent percent of
//! keys and no workload could demand zero failures.

use std::collections::BTreeMap;

use dta_collector::layout::{KwLayout, PostcardLayout};
use dta_collector::ServiceConfig;
use dta_core::{DtaReport, TelemetryKey};
use dta_hash::{slot_of, Crc32, CrcParams, HashFamily, KeyScratch};
use dta_translator::TranslatorConfig;

/// SplitMix64: tiny, seedable, and good enough to draw workloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, domain-separated by `stream` so two pools of
    /// one workload never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A set of small integers as a bitmap.
#[derive(Debug)]
struct BitSet(Vec<u64>);

impl BitSet {
    fn new(n: u64) -> Self {
        BitSet(vec![0; (n as usize).div_ceil(64)])
    }
    fn has(&self, i: u64) -> bool {
        self.0[(i / 64) as usize] >> (i % 64) & 1 == 1
    }
    fn set(&mut self, i: u64) {
        self.0[(i / 64) as usize] |= 1 << (i % 64);
    }
}

/// One store's addressing: `redundancy` hash functions over `slots` slots.
#[derive(Debug)]
struct SlotSpace {
    family: HashFamily,
    redundancy: usize,
    slots: u64,
    used: BitSet,
}

/// Draws keys none of which share a slot in any of the stores they are
/// kept apart in, or (when asked) a postcard-cache row — the same
/// addressing the translator and the stores use.
#[derive(Debug)]
pub struct DisjointKeys {
    rng: Rng,
    spaces: Vec<SlotSpace>,
    row_crc: Crc32,
    rows: u64,
    used_rows: BitSet,
}

impl DisjointKeys {
    /// Pool with no constraint yet.
    pub fn new(rng: Rng) -> Self {
        DisjointKeys {
            rng,
            spaces: Vec::new(),
            row_crc: Crc32::new(CrcParams::IEEE),
            rows: 0,
            used_rows: BitSet::new(0),
        }
    }

    /// Keep keys apart in a store of `slots` slots addressed by the first
    /// `redundancy` hash functions.
    pub fn apart_in(mut self, redundancy: usize, slots: u64) -> Self {
        let redundancy = redundancy.max(1);
        self.spaces.push(SlotSpace {
            family: HashFamily::new(redundancy),
            redundancy,
            slots,
            used: BitSet::new(slots),
        });
        self
    }

    /// Also keep keys apart in a postcard cache of `rows` rows (the cache
    /// indexes rows by the IEEE CRC32 of the key).
    pub fn with_cache_rows(mut self, rows: usize) -> Self {
        self.rows = rows as u64;
        self.used_rows = BitSet::new(self.rows);
        self
    }

    /// The next key that collides with none drawn before.
    ///
    /// # Panics
    /// Panics when the stores are too full to find one: a workload that
    /// does not fit its stores is a bug in the workload.
    pub fn next_key(&mut self) -> TelemetryKey {
        const MAX_R: usize = dta_hash::polynomials::MAX_REDUNDANCY;
        'candidate: for _ in 0..1_000_000 {
            let key = TelemetryKey::from_u64(self.rng.next_u64());
            let mut claimed: Vec<[u64; MAX_R]> = Vec::with_capacity(self.spaces.len());
            for space in &self.spaces {
                let mut slots = [u64::MAX; MAX_R];
                for i in 0..space.redundancy {
                    let s = slot_of(space.family.hash(i, key.as_bytes()), space.slots);
                    if space.used.has(s) || slots[..i].contains(&s) {
                        continue 'candidate;
                    }
                    slots[i] = s;
                }
                claimed.push(slots);
            }
            if self.rows > 0 {
                let row = self.row_crc.compute(key.as_bytes()) as u64 % self.rows;
                if self.used_rows.has(row) {
                    continue;
                }
                self.used_rows.set(row);
            }
            for (space, slots) in self.spaces.iter_mut().zip(claimed) {
                for s in &slots[..space.redundancy] {
                    space.used.set(*s);
                }
            }
            return key;
        }
        panic!("slot-disjoint key pool exhausted: shrink the pool or grow the store");
    }

    /// `n` keys.
    pub fn take(&mut self, n: usize) -> Vec<TelemetryKey> {
        (0..n).map(|_| self.next_key()).collect()
    }

    /// `n` keys that a translator key scratch of `scratch_entries` entries
    /// holds all at once: a pass over them in any fixed order hits every
    /// time. The scratch is 2-way set-associative, so of `n` random keys a
    /// share sits in sets of three or more and evicts itself for ever;
    /// those are redrawn until a full pass over the pool misses nothing.
    /// Residency is observed through the scratch's own hit counter, not
    /// recomputed from its private set index.
    pub fn take_resident(&mut self, n: usize, scratch_entries: usize) -> Vec<TelemetryKey> {
        let mut keys = self.take(n);
        loop {
            let mut scratch = KeyScratch::new(scratch_entries, 1);
            for k in &keys {
                scratch.digests(k.as_bytes(), 0);
            }
            let mut evicted = 0usize;
            for k in keys.iter_mut() {
                let hits = scratch.stats.hits;
                scratch.digests(k.as_bytes(), 0);
                if scratch.stats.hits == hits {
                    *k = self.next_key();
                    evicted += 1;
                }
            }
            if evicted == 0 {
                return keys;
            }
        }
    }
}

/// Key-Write / Key-Increment redundancy of every generated report (the
/// paper's headline `N = 2`).
pub const REDUNDANCY: u8 = 2;

/// What the generated reports should have left in collector memory.
#[derive(Debug, Default, Clone)]
pub struct Oracle {
    /// Key-Write: the value every report of the key carries.
    pub kw: BTreeMap<TelemetryKey, Vec<u8>>,
    /// Key-Increment: summed delta of **one pass** over the stream.
    pub inc: BTreeMap<TelemetryKey, u64>,
    /// Postcarding: the flow's per-hop values.
    pub postcard: BTreeMap<TelemetryKey, Vec<u32>>,
    /// Append: per list, the entries of **one pass** in arrival order.
    pub append: Vec<Vec<Vec<u8>>>,
}

/// A 4-byte value that is a pure function of the key and never blank, so
/// "last written" does not depend on how many passes ran.
fn value_of(key: &TelemetryKey) -> Vec<u8> {
    let k = key.as_bytes();
    vec![0xA5, k[8] ^ k[5], k[7] ^ k[4], k[6] ^ k[3]]
}

fn kw_report(seq: u32, key: TelemetryKey, oracle: &mut Oracle) -> DtaReport {
    let value = value_of(&key);
    oracle.kw.insert(key, value.clone());
    DtaReport::key_write(seq, key, REDUNDANCY, value)
}

fn inc_report(seq: u32, key: TelemetryKey, rng: &mut Rng, oracle: &mut Oracle) -> DtaReport {
    let delta = 1 + rng.below(100);
    *oracle.inc.entry(key).or_default() += delta;
    DtaReport::key_increment(seq, key, REDUNDANCY, delta)
}

fn append_report(seq: u32, list: u32, rng: &mut Rng, oracle: &mut Oracle) -> DtaReport {
    let r = rng.next_u64();
    let entry = vec![0xA5, r as u8, (r >> 8) as u8, (r >> 16) as u8];
    if oracle.append.len() <= list as usize {
        oracle.append.resize(list as usize + 1, Vec::new());
    }
    oracle.append[list as usize].push(entry.clone());
    DtaReport::append(seq, list, entry)
}

fn flow_reports(
    seq: &mut u32,
    key: TelemetryKey,
    hops: u8,
    values: u32,
    rng: &mut Rng,
    oracle: &mut Oracle,
    out: &mut Vec<DtaReport>,
) {
    let path: Vec<u32> = (0..hops).map(|_| rng.below(values as u64) as u32).collect();
    for (hop, v) in path.iter().enumerate() {
        out.push(DtaReport::postcard(*seq, key, hop as u8, hops, *v));
        *seq += 1;
    }
    oracle.postcard.insert(key, path);
}

fn kw_slots(svc: &ServiceConfig) -> u64 {
    KwLayout::with_capacity(0, svc.kw_bytes, svc.kw_value_bytes).slots
}

fn pc_chunks(svc: &ServiceConfig) -> u64 {
    PostcardLayout::with_capacity(0, svc.postcard_bytes, svc.postcard_hops, svc.postcard_bits)
        .chunks
}

/// Active keys of the cache-resident workloads: 4K active flows is rack
/// scale, and fits the 16K-entry key scratch and L2.
pub const HOT_KEYS: usize = 4096;

/// Append lists the generated streams use (the default service has 16).
pub const APPEND_LISTS: u32 = 16;

/// The four single-primitive streams of `ingest-hot` (and, for the first
/// and third, `ingest-sharded`), one pass each, all over the **same**
/// [`HOT_KEYS`] active keys: a flow is written, counted and path-traced
/// under one key, and the translator's scratch holds every one of them.
#[derive(Debug)]
pub struct HotStreams {
    /// Key-Write N=2, 4 B values, one report per key.
    pub kw: Vec<DtaReport>,
    /// Append, 4 B entries, [`APPEND_LISTS`] lists in shuffled order, each
    /// getting a whole number of B=16 batches per pass.
    pub append: Vec<DtaReport>,
    /// Key-Increment N=2, one report per key.
    pub inc: Vec<DtaReport>,
    /// Postcarding, 5 contiguous hops per flow.
    pub postcard: Vec<DtaReport>,
    /// What one pass writes.
    pub oracle: Oracle,
}

/// Generate the hot streams for `seed` against the given sizing.
pub fn hot_streams(seed: u64, svc: &ServiceConfig, tr: &TranslatorConfig) -> HotStreams {
    hot_streams_of(seed, svc, tr, true)
}

/// The Key-Write and Key-Increment streams of [`hot_streams`], report for
/// report, with the other two (and their share of the oracle) left empty.
/// For `ingest-sharded`, which runs only these: the 20 480 postcards it would
/// throw away are 2 MB of a 12 MB process, and whether the allocator put
/// them where the last set-up's had been or on fresh pages moved that
/// workload's `peak_rss_mb` by 1.7 MB in a run out of ten.
pub fn hot_keyed_streams(seed: u64, svc: &ServiceConfig, tr: &TranslatorConfig) -> HotStreams {
    hot_streams_of(seed, svc, tr, false)
}

fn hot_streams_of(
    seed: u64,
    svc: &ServiceConfig,
    tr: &TranslatorConfig,
    unkeyed: bool,
) -> HotStreams {
    let mut oracle = Oracle::default();
    let keys = DisjointKeys::new(Rng::new(seed, 1))
        .apart_in(REDUNDANCY as usize, kw_slots(svc))
        .apart_in(REDUNDANCY as usize, svc.cms_slots)
        .apart_in(tr.postcard_redundancy, pc_chunks(svc))
        .with_cache_rows(tr.postcard_cache_slots)
        .take_resident(HOT_KEYS, tr.key_scratch_entries);
    let shuffled = |stream: u64| {
        let mut k = keys.clone();
        Rng::new(seed, stream).shuffle(&mut k);
        k
    };

    let kw = (0u32..)
        .zip(shuffled(2))
        .map(|(seq, k)| kw_report(seq, k, &mut oracle))
        .collect();

    let mut rng = Rng::new(seed, 3);
    let appends = if unkeyed { HOT_KEYS as u32 } else { 0 };
    let mut lists: Vec<u32> = (0..appends).map(|i| i % APPEND_LISTS).collect();
    rng.shuffle(&mut lists);
    let append = (0x1000_0000u32..)
        .zip(lists)
        .map(|(seq, l)| append_report(seq, l, &mut rng, &mut oracle))
        .collect();

    let mut rng = Rng::new(seed, 4);
    let inc = (0x2000_0000u32..)
        .zip(shuffled(5))
        .map(|(seq, k)| inc_report(seq, k, &mut rng, &mut oracle))
        .collect();

    let mut rng = Rng::new(seed, 6);
    let flows = if unkeyed { shuffled(7) } else { Vec::new() };
    let mut postcard = Vec::with_capacity(flows.len() * tr.postcard_hops as usize);
    let mut seq = 0x3000_0000u32;
    for key in flows {
        flow_reports(
            &mut seq,
            key,
            tr.postcard_hops,
            tr.postcard_values,
            &mut rng,
            &mut oracle,
            &mut postcard,
        );
    }
    HotStreams {
        kw,
        append,
        inc,
        postcard,
        oracle,
    }
}

/// `ingest-wide` sizing: a 64 MiB Key-Write store and 4 M CMS counters
/// (32 MiB), the two primitives whose cost is hashing and a random region
/// write; the other stores are off.
pub fn wide_service() -> ServiceConfig {
    ServiceConfig {
        kw_bytes: 64 << 20,
        cms_slots: 4 << 20,
        postcard_bytes: 0,
        append_lists: 0,
        ..ServiceConfig::default()
    }
}

/// Distinct keys per primitive in `ingest-wide` (1 M in total).
pub const WIDE_KEYS: usize = 512 * 1024;

/// Reports in one pass of the `ingest-wide` stream.
pub const WIDE_REPORTS: usize = 1 << 20;

/// `ingest-wide`: Key-Write and Key-Increment 50/50, every report's key
/// drawn uniformly (with replacement) from its primitive's
/// [`WIDE_KEYS`]-key pool, so the 16K-entry scratch almost always misses.
/// `oracle.inc` is left empty: which windows of the stream ran how often
/// is only known after the run (see [`wide_inc_expected`]).
pub fn wide_stream(seed: u64, svc: &ServiceConfig) -> (Vec<DtaReport>, Oracle) {
    let mut oracle = Oracle::default();
    let kw_keys = DisjointKeys::new(Rng::new(seed, 1))
        .apart_in(REDUNDANCY as usize, kw_slots(svc))
        .take(WIDE_KEYS);
    let inc_keys = DisjointKeys::new(Rng::new(seed, 2))
        .apart_in(REDUNDANCY as usize, svc.cms_slots)
        .take(WIDE_KEYS);
    let mut rng = Rng::new(seed, 3);
    let stream = (0..WIDE_REPORTS as u32)
        .map(|seq| {
            let r = rng.next_u64();
            let idx = (r >> 1) as usize % WIDE_KEYS;
            if r & 1 == 0 {
                kw_report(seq, kw_keys[idx], &mut oracle)
            } else {
                DtaReport::key_increment(seq, inc_keys[idx], REDUNDANCY, 1 + rng.below(100))
            }
        })
        .collect();
    (stream, oracle)
}

/// Expected Key-Increment totals when window `w` of `chunk` reports ran
/// `runs[w]` times.
pub fn wide_inc_expected(
    stream: &[DtaReport],
    chunk: usize,
    runs: &[u64],
) -> BTreeMap<TelemetryKey, u64> {
    let mut expected = BTreeMap::new();
    for (i, r) in stream.iter().enumerate() {
        if let dta_core::PrimitiveHeader::KeyIncrement(h) = &r.primitive {
            *expected.entry(h.key).or_default() += h.delta * runs[i / chunk];
        }
    }
    expected
}

/// Ops of one pass of the `serve-mixed` write stream, by primitive: the
/// scenario harness's default 40/25/20/15 blend, sized so a pass is 8192
/// reports (a Postcarding op is a 5-report flow).
pub const MIXED_OPS: [usize; 4] = [2048, 1280, 1024, 768];

/// Append lists `serve-mixed` uses: 1280 appends over 10 lists is 128 per
/// list and pass, which is whole B=16 batches and divides the 4096-entry
/// ring (so ring contents are the same after every pass).
pub const MIXED_LISTS: u32 = 10;

/// `serve-mixed`: the four primitives interleaved in one shuffled stream.
pub fn mixed_stream(
    seed: u64,
    svc: &ServiceConfig,
    tr: &TranslatorConfig,
) -> (Vec<DtaReport>, Oracle) {
    let mut oracle = Oracle::default();
    let [n_kw, n_append, n_inc, n_pc] = MIXED_OPS;
    let mut kw_keys = DisjointKeys::new(Rng::new(seed, 1))
        .apart_in(REDUNDANCY as usize, kw_slots(svc))
        .take(n_kw);
    let mut inc_keys = DisjointKeys::new(Rng::new(seed, 2))
        .apart_in(REDUNDANCY as usize, svc.cms_slots)
        .take(n_inc);
    let mut flows = DisjointKeys::new(Rng::new(seed, 3))
        .apart_in(tr.postcard_redundancy, pc_chunks(svc))
        .with_cache_rows(tr.postcard_cache_slots);
    let mut lists: Vec<u32> = (0..n_append as u32).map(|i| i % MIXED_LISTS).collect();

    let mut rng = Rng::new(seed, 4);
    let mut ops: Vec<u8> = [0u8, 1, 2, 3]
        .into_iter()
        .zip(MIXED_OPS)
        .flat_map(|(p, n)| std::iter::repeat_n(p, n))
        .collect();
    rng.shuffle(&mut ops);
    rng.shuffle(&mut lists);

    let mut stream = Vec::with_capacity(n_kw + n_append + n_inc + n_pc * tr.postcard_hops as usize);
    let mut seq = 0u32;
    for op in ops {
        match op {
            0 => stream.push(kw_report(
                seq,
                kw_keys.pop().expect("sized above"),
                &mut oracle,
            )),
            1 => stream.push(append_report(
                seq,
                lists.pop().expect("sized above"),
                &mut rng,
                &mut oracle,
            )),
            2 => stream.push(inc_report(
                seq,
                inc_keys.pop().expect("sized above"),
                &mut rng,
                &mut oracle,
            )),
            _ => {
                flow_reports(
                    &mut seq,
                    flows.next_key(),
                    tr.postcard_hops,
                    tr.postcard_values,
                    &mut rng,
                    &mut oracle,
                    &mut stream,
                );
                continue;
            }
        }
        seq += 1;
    }
    (stream, oracle)
}

/// FNV-1a over the wire encoding of every report, in order: the identity
/// of a generated workload.
pub fn fingerprint<'a>(reports: impl IntoIterator<Item = &'a DtaReport>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in reports {
        for b in r.encode().expect("generated reports encode").iter() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let (svc, tr) = (ServiceConfig::default(), TranslatorConfig::default());
        let a = mixed_stream(7, &svc, &tr).0;
        let b = mixed_stream(7, &svc, &tr).0;
        let c = mixed_stream(8, &svc, &tr).0;
        assert_eq!(a, b);
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_eq!(a.len(), 8192);
    }

    #[test]
    fn disjoint_keys_share_no_slot() {
        let mut pool = DisjointKeys::new(Rng::new(1, 1)).apart_in(2, 1 << 12);
        let family = HashFamily::new(2);
        let mut seen = std::collections::BTreeSet::new();
        for key in pool.take(1024) {
            for i in 0..2 {
                assert!(seen.insert(slot_of(family.hash(i, key.as_bytes()), 1 << 12)));
            }
        }
    }

    #[test]
    fn hot_append_gives_every_list_whole_batches() {
        let s = hot_streams(1, &ServiceConfig::default(), &TranslatorConfig::default());
        assert_eq!(s.oracle.append.len(), APPEND_LISTS as usize);
        assert!(s
            .oracle
            .append
            .iter()
            .all(|l| l.len() == HOT_KEYS / APPEND_LISTS as usize));
        assert_eq!(s.postcard.len(), HOT_KEYS * 5);
        assert_eq!(s.oracle.kw.len(), HOT_KEYS);
    }

    #[test]
    fn hot_keyed_streams_are_the_keyed_half_of_the_hot_streams() {
        let (svc, tr) = (ServiceConfig::default(), TranslatorConfig::default());
        let (all, keyed) = (hot_streams(1, &svc, &tr), hot_keyed_streams(1, &svc, &tr));
        assert_eq!(fingerprint(&keyed.kw), fingerprint(&all.kw));
        assert_eq!(fingerprint(&keyed.inc), fingerprint(&all.inc));
        assert_eq!(keyed.oracle.kw, all.oracle.kw);
        assert_eq!(keyed.oracle.inc, all.oracle.inc);
        assert!(keyed.append.is_empty() && keyed.postcard.is_empty());
        assert!(keyed.oracle.append.is_empty() && keyed.oracle.postcard.is_empty());
    }

    #[test]
    fn wide_inc_expectation_scales_with_window_runs() {
        let key = TelemetryKey::from_u64(1);
        let stream = vec![
            DtaReport::key_increment(0, key, 2, 5),
            DtaReport::key_write(1, key, 2, vec![1]),
            DtaReport::key_increment(2, key, 2, 7),
        ];
        let e = wide_inc_expected(&stream, 2, &[3, 1]);
        assert_eq!(e[&key], 5 * 3 + 7);
    }
}
