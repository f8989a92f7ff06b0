//! The Postcarding store (§4, Figure 5, Appendix A.6).
//!
//! Postcards for flow `x` are written into a consecutive chunk of `B` hop
//! slots at `B·h(x) + i`. Each slot stores `checksum(x, i) ⊕ g(v)` where `g`
//! hashes the value set `V` into `b`-bit strings — no per-slot key checksum
//! is needed, and querying a full path costs one random memory access.

use dta_core::TelemetryKey;
use dta_hash::{checksum_b_from, checksum_state, Crc32, CrcParams, HashFamily};
use dta_rdma::mr::MemoryRegion;
use dta_rdma::packet::IMAGE_BYTES;

use crate::engine::SlotSource;
use crate::layout::PostcardLayout;

/// The value encoder `g : V ∪ {⊔} -> b bits` plus its pre-populated decode
/// table ("a pre-populated lookup table that stores all key-value pairs
/// {(g(v), v) | v ∈ V ∪ {⊔}}", §4).
#[derive(Debug, Clone)]
pub struct ValueCodec {
    bits: u32,
    engine: Crc32,
    /// Shared: the tables are a pure function of the value universe and
    /// `bits`, and [`ValueCodec::switch_ids`] memoizes them process-wide
    /// (populating thousands of entries per collector/translator
    /// construction cost real microseconds per scenario run).
    tables: std::sync::Arc<CodecTables>,
}

/// Both directions of `g`, computed once per universe.
#[derive(Debug)]
struct CodecTables {
    /// `(g(v), v)` for the first value of the universe with each code other
    /// than `g(⊔)`, open-addressed: a code probes linearly from the slot its
    /// own low bits name (CRC outputs need no hasher). A power-of-two
    /// number of slots, at most 7/8 full; empty slots hold `(blank, 0)`,
    /// the one code no entry has.
    decode: Box<[(u32, u32)]>,
    /// `g(v)` at index `v` for the dense universe `0..n` of
    /// [`ValueCodec::switch_ids`] (empty for any other), so encoding a
    /// switch id is a load, not a CRC pass.
    encode: Vec<u32>,
    /// `g(⊔)`.
    blank: u32,
}

/// Byte tag distinguishing the blank value ⊔ from real values under `g`.
const BLANK_TAG: &[u8] = b"\xFFDTA-BLANK";

/// Process-wide table cache for [`ValueCodec::switch_ids`].
#[allow(clippy::type_complexity)] // keyed-cache entry, local to this fn
fn switch_id_cache() -> &'static std::sync::Mutex<Vec<((u32, u32), std::sync::Arc<CodecTables>)>> {
    static CACHE: std::sync::OnceLock<
        std::sync::Mutex<Vec<((u32, u32), std::sync::Arc<CodecTables>)>>,
    > = std::sync::OnceLock::new();
    CACHE.get_or_init(|| std::sync::Mutex::new(Vec::new()))
}

impl ValueCodec {
    /// Codec over the value universe `values` (e.g., all switch IDs) with
    /// `b`-bit slots.
    pub fn new(values: impl IntoIterator<Item = u32>, bits: u32) -> Self {
        Self::build(values, 0, bits)
    }

    /// Codec over `values` with `g` tabulated for `0..dense`.
    fn build(values: impl IntoIterator<Item = u32>, dense: u32, bits: u32) -> Self {
        assert!((1..=32).contains(&bits));
        let engine = Crc32::new(CrcParams::CASTAGNOLI);
        let g = |v: Option<u32>| mask_to(bits, crc_encode(&engine, v));
        let blank = g(None);
        // First writer wins on g-collisions, ⊔ before every value; with b=32
        // and |V| <= 2^18 the collision probability is ~2^-14 per pair and
        // the analysis accounts for it as a wrong-output term. The sort is
        // stable, so the first writer of a code stays first.
        let mut entries: Vec<(u32, u32)> = values.into_iter().map(|v| (g(Some(v)), v)).collect();
        entries.sort_by_key(|&(code, _)| code);
        entries.dedup_by_key(|&mut (code, _)| code);
        entries.retain(|&(code, _)| code != blank);
        let slots = (entries.len() * 8 / 7 + 1).next_power_of_two();
        let mut decode = vec![(blank, 0); slots].into_boxed_slice();
        for (code, v) in entries {
            let mut i = code as usize & (slots - 1);
            while decode[i].0 != blank {
                i = (i + 1) & (slots - 1);
            }
            decode[i] = (code, v);
        }
        let encode = (0..dense).map(|v| g(Some(v))).collect();
        let tables = std::sync::Arc::new(CodecTables { decode, encode, blank });
        ValueCodec { bits, engine, tables }
    }

    /// Codec for a contiguous id space `0..n` (data-center switch IDs).
    /// The tables are memoized per `(n, bits)` process-wide.
    pub fn switch_ids(n: u32, bits: u32) -> Self {
        let mut cache = switch_id_cache().lock().expect("codec cache poisoned");
        if let Some((_, tables)) = cache.iter().find(|((cn, cb), _)| (*cn, *cb) == (n, bits)) {
            return ValueCodec {
                bits,
                engine: Crc32::new(CrcParams::CASTAGNOLI),
                tables: std::sync::Arc::clone(tables),
            };
        }
        let codec = Self::build(0..n, n, bits);
        cache.push(((n, bits), std::sync::Arc::clone(&codec.tables)));
        codec
    }

    /// Slot width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// `g(v)`, masked to `b` bits. `None` encodes the blank value ⊔. A
    /// load for ⊔ and for the tabulated universe, a CRC pass outside it.
    #[inline]
    pub fn encode(&self, v: Option<u32>) -> u32 {
        let Some(v) = v else { return self.tables.blank };
        match self.tables.encode.get(v as usize) {
            Some(&g) => g,
            None => self.mask(crc_encode(&self.engine, Some(v))),
        }
    }

    /// Reverse lookup: `Some(v)` for the `v` with `g(v) == code` (`None`
    /// for ⊔), or `None` when `code` is no codeword.
    #[inline]
    pub fn decode(&self, code: u32) -> Option<Option<u32>> {
        let CodecTables { decode, blank, .. } = &*self.tables;
        if code == *blank {
            return Some(None);
        }
        let mask = decode.len() - 1;
        let mut i = code as usize & mask;
        loop {
            match decode[i] {
                (c, v) if c == code => return Some(Some(v)),
                (c, _) if c == *blank => return None,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Mask a word to the codec's `b` bits.
    pub fn mask(&self, v: u32) -> u32 {
        mask_to(self.bits, v)
    }
}

/// `g` before masking: the definition the encode table memoizes.
fn crc_encode(engine: &Crc32, v: Option<u32>) -> u32 {
    match v {
        Some(v) => engine.compute(&v.to_be_bytes()),
        None => engine.compute(BLANK_TAG),
    }
}

fn mask_to(bits: u32, v: u32) -> u32 {
    if bits == 32 {
        v
    } else {
        v & ((1u32 << bits) - 1)
    }
}

/// `checksum(x, ·)` for one key, masked to `bits`: the 16 key bytes are
/// walked once and each call extends that state by its hop byte, so a
/// chunk's `B` slot checksums cost one key walk, not `B`.
///
/// A free function because writer (translator) and reader (collector)
/// compute it independently; both must agree bit-for-bit.
pub fn hop_checksums(key: &TelemetryKey, bits: u32) -> impl Fn(u8) -> u32 {
    let state = checksum_state(key.as_bytes());
    move |hop| checksum_b_from(state, &[hop], bits)
}

/// Per-hop slot checksum `checksum(x, i)`, masked to `bits`.
pub fn hop_checksum(key: &TelemetryKey, hop: u8, bits: u32) -> u32 {
    hop_checksums(key, bits)(hop)
}

/// Result of a Postcarding query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PostcardQueryOutcome {
    /// The decoded per-hop values `v_{x,0} .. v_{x,l-1}` (path length `l`).
    Found(Vec<u32>),
    /// No redundancy chunk held valid information.
    NotFound,
    /// Valid chunks disagreed.
    Ambiguous,
}

impl PostcardQueryOutcome {
    /// Whether a path was produced.
    pub fn is_found(&self) -> bool {
        matches!(self, PostcardQueryOutcome::Found(_))
    }
}

/// The collector-side Postcarding store.
#[derive(Debug)]
pub struct PostcardStore {
    layout: PostcardLayout,
    region: MemoryRegion,
    family: HashFamily,
    codec: ValueCodec,
}

impl PostcardStore {
    /// Store over `region`, with redundancy up to `max_redundancy`.
    pub fn new(
        layout: PostcardLayout,
        region: MemoryRegion,
        codec: ValueCodec,
        max_redundancy: usize,
    ) -> Self {
        assert!(region.len() as u64 >= layout.region_len());
        assert_eq!(layout.slot_bits, codec.bits(), "layout/codec bit width mismatch");
        assert!(
            layout.hops <= PostcardLayout::MAX_HOPS,
            "Postcarding hop bound {} exceeds {}: a chunk must fit one {IMAGE_BYTES}-byte line",
            layout.hops,
            PostcardLayout::MAX_HOPS
        );
        PostcardStore { layout, region, family: HashFamily::new(max_redundancy), codec }
    }

    /// Geometry.
    pub fn layout(&self) -> &PostcardLayout {
        &self.layout
    }

    /// The backing region (for NIC registration).
    pub fn region(&self) -> &MemoryRegion {
        &self.region
    }

    /// Value codec (shared with the translator).
    pub fn codec(&self) -> &ValueCodec {
        &self.codec
    }

    /// Per-hop slot checksum `checksum(x, i)`, `b` bits.
    pub fn hop_checksum(&self, key: &TelemetryKey, hop: u8) -> u32 {
        hop_checksum(key, hop, self.layout.slot_bits)
    }

    /// Encode the slot word for `(key, hop, value)`:
    /// `checksum(x,i) ⊕ g(v)`.
    fn slot_word(&self, key: &TelemetryKey, hop: u8, value: Option<u32>) -> u32 {
        self.hop_checksum(key, hop) ^ self.codec.encode(value)
    }

    /// Build the full chunk image for a path (missing hops become blank ⊔ so
    /// "each flow always writes all B hops' values", §4). The image is
    /// padded to the chunk stride.
    fn chunk_image(&self, key: &TelemetryKey, path: &[u32]) -> Vec<u8> {
        assert!(path.len() <= self.layout.hops as usize, "path longer than B");
        let mut img = Vec::with_capacity(self.layout.chunk_stride() as usize);
        for hop in 0..self.layout.hops {
            let v = path.get(hop as usize).copied();
            img.extend_from_slice(&self.slot_word(key, hop, v).to_be_bytes());
        }
        img.resize(self.layout.chunk_stride() as usize, 0);
        img
    }

    /// Direct aggregated insertion (the write the translator issues once all
    /// postcards for `key` are cached): one chunk write per redundancy copy.
    pub fn insert_direct(&self, key: &TelemetryKey, path: &[u32], redundancy: usize) {
        let img = self.chunk_image(key, path);
        for n in 0..redundancy.min(self.family.len()) {
            let va = self.layout.chunk_va(&self.family, n, key);
            self.region.write(va, &img).expect("chunk within region");
        }
    }

    /// Chunk reads a `redundancy`-deep query performs (clamped to the hash
    /// family).
    pub fn slot_probes(&self, redundancy: usize) -> u32 {
        redundancy.min(self.family.len()) as u32
    }

    /// Decode redundancy copy `n` of `key`'s chunk against the key's hop
    /// checksums (one per hop). Returns the path length, the path written
    /// to the front of `path`, when the chunk holds valid information for
    /// this key.
    fn decode_chunk<S: SlotSource + ?Sized>(
        &self,
        src: &S,
        key: &TelemetryKey,
        n: usize,
        checksums: &[u32],
        path: &mut [u32; MAX_HOPS],
    ) -> Option<usize> {
        let va = self.layout.chunk_va(&self.family, n, key);
        let mut raw = [0u8; IMAGE_BYTES];
        let raw = &mut raw[..checksums.len() * PostcardLayout::SLOT_BYTES as usize];
        assert!(src.read_slot(va, raw), "chunk within source");
        let mut len = 0;
        let mut blank_seen = false;
        for (word, checksum) in raw.as_chunks::<4>().0.iter().zip(checksums) {
            let word = self.codec.mask(u32::from_be_bytes(*word));
            match self.codec.decode(word ^ checksum) {
                // Value after a blank: not a valid prefix encoding.
                Some(Some(_)) if blank_seen => return None,
                Some(Some(v)) => {
                    path[len] = v;
                    len += 1;
                }
                Some(None) => blank_seen = true,
                None => return None, // not a valid codeword for this key
            }
        }
        Some(len)
    }

    /// Query the path for `key` (§4's decoding rule): output a path only if
    /// at least one chunk decodes and all decoding chunks agree.
    pub fn query(&self, key: &TelemetryKey, redundancy: usize) -> PostcardQueryOutcome {
        self.query_from(&self.region, key, redundancy)
    }

    /// [`PostcardStore::query`] reading chunks from `src` instead of the
    /// live region — the same decode over a snapshot image. The key is
    /// walked once for all `B` hop checksums, chunks decode on the stack,
    /// and only a `Found` path is copied out.
    pub fn query_from<S: SlotSource + ?Sized>(
        &self,
        src: &S,
        key: &TelemetryKey,
        redundancy: usize,
    ) -> PostcardQueryOutcome {
        let hops = usize::from(self.layout.hops);
        let mut checksums = [0u32; MAX_HOPS];
        let checksum = hop_checksums(key, self.layout.slot_bits);
        for (hop, c) in (0..).zip(&mut checksums[..hops]) {
            *c = checksum(hop);
        }
        let mut chunk = [0u32; MAX_HOPS];
        let mut winner: Option<([u32; MAX_HOPS], usize)> = None;
        for i in 0..redundancy.min(self.family.len()) {
            if let Some(len) = self.decode_chunk(src, key, i, &checksums[..hops], &mut chunk) {
                match &winner {
                    Some((path, n)) if path[..*n] != chunk[..len] => {
                        return PostcardQueryOutcome::Ambiguous
                    }
                    _ => winner = Some((chunk, len)),
                }
            }
        }
        match winner {
            Some((path, len)) => PostcardQueryOutcome::Found(path[..len].to_vec()),
            None => PostcardQueryOutcome::NotFound,
        }
    }
}

/// The widest chunk a query decodes, in hops.
const MAX_HOPS: usize = PostcardLayout::MAX_HOPS as usize;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SnapshotView;
    use dta_rdma::mr::MrAccess;
    use std::collections::{BTreeMap, HashMap};

    fn store(chunks: u64, bits: u32) -> PostcardStore {
        let layout = PostcardLayout { base_va: 0, chunks, hops: 5, slot_bits: bits };
        let region =
            MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
        let codec = ValueCodec::switch_ids(1 << 10, bits);
        PostcardStore::new(layout, region, codec, 4)
    }

    #[test]
    fn full_path_roundtrip() {
        let s = store(1024, 32);
        let k = TelemetryKey::from_u64(1);
        let path = vec![10, 20, 30, 40, 50];
        s.insert_direct(&k, &path, 2);
        assert_eq!(s.query(&k, 2), PostcardQueryOutcome::Found(path));
    }

    #[test]
    fn short_path_roundtrip() {
        // A 3-hop path in a B=5 store: hops 3,4 are blank.
        let s = store(1024, 32);
        let k = TelemetryKey::from_u64(2);
        let path = vec![7, 8, 9];
        s.insert_direct(&k, &path, 2);
        assert_eq!(s.query(&k, 2), PostcardQueryOutcome::Found(path));
    }

    #[test]
    fn empty_store_not_found() {
        let s = store(256, 32);
        assert_eq!(s.query(&TelemetryKey::from_u64(3), 2), PostcardQueryOutcome::NotFound);
    }

    #[test]
    fn zero_length_path_roundtrip() {
        let s = store(256, 32);
        let k = TelemetryKey::from_u64(4);
        s.insert_direct(&k, &[], 1);
        assert_eq!(s.query(&k, 1), PostcardQueryOutcome::Found(vec![]));
    }

    #[test]
    fn overwritten_chunk_rarely_validates() {
        // Fill a tiny store with other flows; the victim's chunks are
        // overwritten and must (almost surely) decode to NotFound rather
        // than a wrong path.
        let s = store(16, 32);
        let victim = TelemetryKey::from_u64(0);
        s.insert_direct(&victim, &[1, 2, 3, 4, 5], 2);
        for i in 1..200u64 {
            s.insert_direct(&TelemetryKey::from_u64(i), &[9, 9, 9, 9, 9], 2);
        }
        match s.query(&victim, 2) {
            PostcardQueryOutcome::Found(p) => {
                assert_ne!(p, vec![1, 2, 3, 4, 5], "evicted path resurrected");
            }
            PostcardQueryOutcome::NotFound | PostcardQueryOutcome::Ambiguous => {}
        }
    }

    #[test]
    fn narrow_slots_still_roundtrip() {
        // b = 16-bit slots: higher collision chance, same correctness for a
        // clean store.
        let s = store(1024, 16);
        let k = TelemetryKey::from_u64(5);
        let path = vec![100, 200];
        s.insert_direct(&k, &path, 1);
        assert_eq!(s.query(&k, 1), PostcardQueryOutcome::Found(path));
    }

    #[test]
    fn redundant_chunks_agree() {
        let s = store(4096, 32);
        let k = TelemetryKey::from_u64(6);
        let path = vec![1, 2, 3, 4, 5];
        s.insert_direct(&k, &path, 4);
        // All four chunks decode to the same path.
        for n in 1..=4 {
            assert_eq!(s.query(&k, n), PostcardQueryOutcome::Found(path.clone()));
        }
    }

    #[test]
    fn codec_blank_distinct_from_values() {
        let codec = ValueCodec::switch_ids(1 << 12, 32);
        let blank = codec.encode(None);
        for v in 0..(1u32 << 12) {
            assert_ne!(codec.encode(Some(v)), blank, "value {v} aliases blank");
        }
    }

    #[test]
    fn codec_table_encode_equals_crc_encode() {
        for bits in [32, 16] {
            let n = 1 << 12;
            let codec = ValueCodec::switch_ids(n, bits);
            let by_crc = |v| codec.mask(crc_encode(&codec.engine, v));
            for v in 0..n {
                assert_eq!(codec.encode(Some(v)), by_crc(Some(v)), "value {v}, {bits} bits");
            }
            assert_eq!(codec.encode(None), by_crc(None));
            // Outside the tabulated universe the CRC pass answers.
            for v in [n, n + 1, u32::MAX] {
                assert_eq!(codec.encode(Some(v)), by_crc(Some(v)));
            }
            // An arbitrary universe tabulates nothing and encodes the same.
            let sparse = ValueCodec::new([3, 900, 70_000], bits);
            assert_eq!(sparse.encode(Some(3)), codec.encode(Some(3)));
            assert_eq!(sparse.encode(None), codec.encode(None));
        }
    }

    #[test]
    fn hop_checksums_walk_the_key_once_to_the_same_words() {
        let k = TelemetryKey::from_u64(0xDEAD_BEEF);
        let mut buf = [0u8; 17];
        buf[..16].copy_from_slice(k.as_bytes());
        for bits in [32, 12] {
            let checksum = hop_checksums(&k, bits);
            for hop in [0u8, 1, 4, 7, 255] {
                buf[16] = hop;
                assert_eq!(checksum(hop), dta_hash::checksum_b(&buf, bits));
                assert_eq!(hop_checksum(&k, hop, bits), checksum(hop));
            }
        }
    }

    #[test]
    fn codec_decode_inverts_encode() {
        let codec = ValueCodec::switch_ids(4096, 32);
        for v in [0u32, 1, 17, 4095] {
            assert_eq!(codec.decode(codec.encode(Some(v))), Some(Some(v)));
        }
        assert_eq!(codec.decode(codec.encode(None)), Some(None));
    }

    #[test]
    fn value_after_blank_invalidates_chunk() {
        // Hand-craft a chunk with pattern [v, blank, v, blank, blank]: the
        // prefix rule must reject it.
        let s = store(64, 32);
        let k = TelemetryKey::from_u64(7);
        let mut img = Vec::new();
        for (hop, v) in [(0u8, Some(1u32)), (1, None), (2, Some(2)), (3, None), (4, None)] {
            img.extend_from_slice(&s.slot_word(&k, hop, v).to_be_bytes());
        }
        img.resize(s.layout().chunk_stride() as usize, 0);
        let fam = HashFamily::new(4);
        let va = s.layout().chunk_va(&fam, 0, &k);
        s.region().write(va, &img).unwrap();
        assert_eq!(s.query(&k, 1), PostcardQueryOutcome::NotFound);
    }

    #[test]
    #[should_panic(expected = "hop bound 17 exceeds 16")]
    fn a_chunk_wider_than_one_line_is_refused() {
        let layout = PostcardLayout { base_va: 0, chunks: 4, hops: 17, slot_bits: 32 };
        let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
        PostcardStore::new(layout, region, ValueCodec::switch_ids(16, 32), 1);
    }

    /// The decode map as it was before the open-addressed table, kept as
    /// the naive reference: ⊔ first, then first writer wins.
    fn naive_decode_map(codec: &ValueCodec, universe: u32) -> HashMap<u32, Option<u32>> {
        let mut decode = HashMap::new();
        decode.insert(codec.encode(None), None);
        for v in 0..universe {
            decode.entry(codec.encode(Some(v))).or_insert(Some(v));
        }
        decode
    }

    /// The chunk decode as it ran before it ran on the stack: a `Vec` per
    /// chunk, the key re-walked per chunk, a map lookup per hop.
    fn naive_query<S: SlotSource + ?Sized>(
        s: &PostcardStore,
        decode: &HashMap<u32, Option<u32>>,
        src: &S,
        key: &TelemetryKey,
        redundancy: usize,
    ) -> PostcardQueryOutcome {
        let decode_chunk = |n| {
            let va = s.layout.chunk_va(&s.family, n, key);
            let mut raw = vec![0u8; (s.layout.hops as usize) * PostcardLayout::SLOT_BYTES as usize];
            assert!(src.read_slot(va, &mut raw), "chunk within source");
            let mut values = Vec::with_capacity(s.layout.hops as usize);
            let mut blank_seen = false;
            let checksum = hop_checksums(key, s.layout.slot_bits);
            for hop in 0..s.layout.hops {
                let off = hop as usize * 4;
                let word = s.codec.mask(u32::from_be_bytes(raw[off..off + 4].try_into().unwrap()));
                match decode.get(&(word ^ checksum(hop))) {
                    Some(Some(v)) => {
                        if blank_seen {
                            return None;
                        }
                        values.push(*v);
                    }
                    Some(None) => blank_seen = true,
                    None => return None,
                }
            }
            Some(values)
        };
        let mut winner: Option<Vec<u32>> = None;
        for i in 0..redundancy.min(s.family.len()) {
            if let Some(path) = decode_chunk(i) {
                match &winner {
                    Some(w) if *w != path => return PostcardQueryOutcome::Ambiguous,
                    _ => winner = Some(path),
                }
            }
        }
        match winner {
            Some(path) => PostcardQueryOutcome::Found(path),
            None => PostcardQueryOutcome::NotFound,
        }
    }

    /// The open-addressed table against a first-writer-wins `BTreeMap` with
    /// ⊔ inserted first, over every 8-bit code, where 4096 values collide
    /// on 256 codes and some value's code is g(⊔); at 16 and 32 bits over
    /// every value's code and codes next to them. The table is no larger
    /// than the `HashMap` it replaced.
    #[test]
    fn decode_table_is_first_writer_wins_with_blank_first() {
        let universe = 4096;
        for bits in [8, 16, 32] {
            let codec = ValueCodec::switch_ids(universe, bits);
            let blank = codec.encode(None);
            let mut reference = BTreeMap::from([(blank, None)]);
            for v in 0..universe {
                reference.entry(codec.encode(Some(v))).or_insert(Some(v));
            }
            let probes: Vec<u32> = if bits == 8 {
                assert!(
                    (0..universe).any(|v| codec.encode(Some(v)) == blank),
                    "some value's 8-bit code must equal g(⊔)"
                );
                (0..256).collect()
            } else {
                let codes = (0..universe).map(|v| codec.encode(Some(v)));
                codes.flat_map(|c| [c, c ^ 1]).collect()
            };
            for code in probes {
                let want = reference.get(&code).copied();
                assert_eq!(codec.decode(code), want, "code {code:#x}, {bits} bits");
            }
            let map = naive_decode_map(&codec, universe);
            let table_bytes = std::mem::size_of_val(&*codec.tables.decode);
            let map_bytes = map.capacity() * std::mem::size_of::<(u32, Option<u32>)>();
            assert!(table_bytes <= map_bytes, "{bits} bits: {table_bytes} B > map's {map_bytes} B");
        }
    }

    proptest::proptest! {
        /// The stack decode against the naive one, both reading the live
        /// region and a snapshot of it, at 8, 16 and 32-bit slots and 1 to
        /// 16 hops. Each of the key's chunks holds one of two shared paths
        /// (so chunks agree or disagree), a fresh path, a valid prefix with
        /// a value after a blank, arbitrary words, or nothing written.
        #[test]
        fn stack_decode_equals_the_naive_decode(
            bits in 0usize..3,
            hops in 1u8..=PostcardLayout::MAX_HOPS,
            universe in 1u32..300,
            n in 1usize..=8,
            key in proptest::prelude::any::<u64>(),
            chunks in proptest::collection::vec(
                (
                    0u8..6,
                    0usize..=16,
                    proptest::collection::vec(proptest::prelude::any::<u32>(), 16..=16),
                ),
                8..=8,
            ),
            redundancy in 1usize..=9,
        ) {
            let bits = [8, 16, 32][bits];
            let layout = PostcardLayout { base_va: 0x4000, chunks: 8, hops, slot_bits: bits };
            let region =
                MemoryRegion::new(layout.base_va, layout.region_len() as usize, 1, MrAccess::WRITE);
            let s = PostcardStore::new(layout, region, ValueCodec::switch_ids(universe, bits), n);
            let key = TelemetryKey::from_u64(key);
            let checksum = hop_checksums(&key, bits);
            let hops = usize::from(hops);
            // A path over the universe: `len` values, then ⊔.
            let path = |len: usize, seeds: &[u32]| -> Vec<Option<u32>> {
                (0..hops).map(|h| (h < len).then(|| seeds[h] % universe)).collect()
            };
            let shared = [path(hops, &chunks[0].2), path(hops / 2, &chunks[1].2)];
            for (i, (kind, len, seeds)) in chunks.iter().take(n).enumerate() {
                let values = match kind {
                    0 | 1 => shared[usize::from(*kind)].clone(),
                    2 => path(*len, seeds),
                    3 => {
                        // ⊔ at hop `b`, then a value.
                        let b = len % hops;
                        let mut p = path(b, seeds);
                        if let Some(after) = p.get_mut(b + 1) {
                            *after = Some(seeds[b + 1] % universe);
                        }
                        p
                    }
                    4 => Vec::new(),
                    _ => continue,
                };
                let words: Vec<u32> = if values.is_empty() {
                    seeds[..hops].to_vec() // arbitrary words
                } else {
                    (0..).zip(&values).map(|(h, v)| checksum(h) ^ s.codec.encode(*v)).collect()
                };
                let image: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
                s.region().write(layout.chunk_va(&s.family, i, &key), &image).unwrap();
            }
            let snap = s.region().snapshot();
            let view = SnapshotView { base_va: layout.base_va, bytes: snap.as_bytes() };
            let decode = naive_decode_map(&s.codec, universe);
            let naive = naive_query(&s, &decode, s.region(), &key, redundancy);
            proptest::prop_assert_eq!(&naive_query(&s, &decode, &view, &key, redundancy), &naive);
            proptest::prop_assert_eq!(&s.query(&key, redundancy), &naive, "live");
            proptest::prop_assert_eq!(&s.query_from(&view, &key, redundancy), &naive, "snapshot");
        }
    }
}
