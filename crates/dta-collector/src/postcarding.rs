//! The Postcarding store (§4, Figure 5, Appendix A.6).
//!
//! Postcards for flow `x` are written into a consecutive chunk of `B` hop
//! slots at `B·h(x) + i`. Each slot stores `checksum(x, i) ⊕ g(v)` where `g`
//! hashes the value set `V` into `b`-bit strings — no per-slot key checksum
//! is needed, and querying a full path costs one random memory access.

use std::collections::HashMap;

use dta_core::TelemetryKey;
use dta_hash::{checksum_b_from, checksum_state, Crc32, CrcParams, HashFamily};
use dta_rdma::mr::MemoryRegion;

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
    decode: HashMap<u32, Option<u32>>,
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
        let mut decode = HashMap::new();
        decode.insert(blank, None);
        for v in values {
            // First writer wins on g-collisions; with b=32 and |V| <= 2^18
            // the collision probability is ~2^-14 per pair and the analysis
            // accounts for it as a wrong-output term.
            decode.entry(g(Some(v))).or_insert(Some(v));
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

    /// Reverse lookup: the `v` with `g(v) == code`, if any.
    pub fn decode(&self, code: u32) -> Option<&Option<u32>> {
        self.tables.decode.get(&code)
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

    /// Attempt to decode redundancy copy `n` of `key`'s chunk. Returns the
    /// path when the chunk holds valid information for this key.
    fn decode_chunk(&self, src: &dyn SlotSource, key: &TelemetryKey, n: usize) -> Option<Vec<u32>> {
        let va = self.layout.chunk_va(&self.family, n, key);
        let mut raw = vec![0u8; (self.layout.hops as usize) * PostcardLayout::SLOT_BYTES as usize];
        assert!(src.read_slot(va, &mut raw), "chunk within source");
        let mut values = Vec::with_capacity(self.layout.hops as usize);
        let mut blank_seen = false;
        let checksum = hop_checksums(key, self.layout.slot_bits);
        for hop in 0..self.layout.hops {
            let off = hop as usize * 4;
            let word =
                self.codec.mask(u32::from_be_bytes(raw[off..off + 4].try_into().unwrap()));
            let g = word ^ checksum(hop);
            match self.codec.decode(g) {
                Some(Some(v)) => {
                    if blank_seen {
                        // Value after a blank: not a valid prefix encoding.
                        return None;
                    }
                    values.push(*v);
                }
                Some(None) => blank_seen = true,
                None => return None, // not a valid codeword for this key
            }
        }
        Some(values)
    }

    /// Query the path for `key` (§4's decoding rule): output a path only if
    /// at least one chunk decodes and all decoding chunks agree.
    pub fn query(&self, key: &TelemetryKey, redundancy: usize) -> PostcardQueryOutcome {
        self.query_from(&self.region, key, redundancy)
    }

    /// [`PostcardStore::query`] reading chunks from `src` instead of the
    /// live region — the same decode over a snapshot image.
    pub fn query_from(
        &self,
        src: &dyn SlotSource,
        key: &TelemetryKey,
        redundancy: usize,
    ) -> PostcardQueryOutcome {
        let n = redundancy.min(self.family.len());
        let mut winner: Option<Vec<u32>> = None;
        for i in 0..n {
            if let Some(path) = self.decode_chunk(src, key, i) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_rdma::mr::MrAccess;

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
            assert_eq!(codec.decode(codec.encode(Some(v))), Some(&Some(v)));
        }
        assert_eq!(codec.decode(codec.encode(None)), Some(&None));
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
}
