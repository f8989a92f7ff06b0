//! The Key-Write store (Algorithms 1 & 2, Appendix A.5).
//!
//! A shared hash table for all telemetry-generating switches, written only
//! with RDMA WRITEs. Each key is stored as `N` identical `(checksum, value)`
//! entries at `N` hash-derived locations; queries validate the 32-bit key
//! checksum and take a plurality vote among matching slots.

use dta_core::TelemetryKey;
use dta_hash::polynomials::MAX_REDUNDANCY;
use dta_hash::{Checksummer, HashFamily};
use dta_rdma::mr::MemoryRegion;
use dta_rdma::packet::IMAGE_BYTES;

use crate::engine::SlotSource;
use crate::layout::KwLayout;

/// How a query resolves multiple checksum-matching candidates
/// (Appendix A.5 discusses the tradeoffs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPolicy {
    /// Return the first checksum-matching slot's value.
    FirstMatch,
    /// Return the most frequent candidate value; ambiguous when two distinct
    /// values tie ("plurality vote", the paper's suggested default).
    Plurality,
    /// Return a value only if it appears at least `T` times (per-query
    /// consensus threshold, `T` in Algorithm 2).
    Consensus(u8),
}

/// Result of a Key-Write query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// A single winning value.
    Found(Vec<u8>),
    /// No slot carried the key's checksum (aged out / never written): the
    /// "empty return" case.
    NotFound,
    /// Matching slots disagreed and no winner satisfied the policy.
    Ambiguous,
}

impl QueryOutcome {
    /// Whether a value was produced.
    pub fn is_found(&self) -> bool {
        matches!(self, QueryOutcome::Found(_))
    }
}

/// The collector-side Key-Write store.
///
/// The same structure is the target of translator RDMA WRITEs (via the
/// region registered on the NIC) and the source for operator queries.
#[derive(Debug)]
pub struct KeyWriteStore {
    layout: KwLayout,
    region: MemoryRegion,
    family: HashFamily,
    csum: Checksummer,
}

impl KeyWriteStore {
    /// Store over `region` with the given geometry, supporting redundancy up
    /// to `max_redundancy`.
    pub fn new(layout: KwLayout, region: MemoryRegion, max_redundancy: usize) -> Self {
        assert!(
            region.len() as u64 >= layout.region_len(),
            "region smaller than layout"
        );
        assert!(
            layout.value_bytes <= KwLayout::MAX_VALUE_BYTES,
            "Key-Write value width {} B exceeds {} B: a slot must fit one {IMAGE_BYTES}-byte line",
            layout.value_bytes,
            KwLayout::MAX_VALUE_BYTES
        );
        KeyWriteStore {
            layout,
            region,
            family: HashFamily::new(max_redundancy),
            csum: Checksummer::new(),
        }
    }

    /// The store's geometry.
    pub fn layout(&self) -> &KwLayout {
        &self.layout
    }

    /// The backing region (for NIC registration).
    pub fn region(&self) -> &MemoryRegion {
        &self.region
    }

    /// Serialize one slot image: `checksum || value` (zero-padded /
    /// truncated to the layout's value width).
    fn slot_image(&self, key: &TelemetryKey, value: &[u8]) -> Vec<u8> {
        let w = self.layout.value_bytes as usize;
        let mut img = Vec::with_capacity(4 + w);
        img.extend_from_slice(&self.csum.checksum32(key.as_bytes()).to_be_bytes());
        let n = value.len().min(w);
        img.extend_from_slice(&value[..n]);
        img.resize(4 + w, 0);
        img
    }

    /// Direct insertion path used by simulation-scale experiments: performs
    /// the same `N` slot writes the translator would issue via RDMA.
    pub fn insert_direct(&self, key: &TelemetryKey, value: &[u8], redundancy: usize) {
        let img = self.slot_image(key, value);
        for n in 0..redundancy.min(self.family.len()) {
            let va = self.layout.slot_va(&self.family, n, key);
            self.region.write(va, &img).expect("slot within region");
        }
    }

    /// Slot reads a `redundancy`-deep query performs (clamped to the hash
    /// family): the deterministic probe count query cost models use.
    pub fn slot_probes(&self, redundancy: usize) -> u32 {
        redundancy.min(self.family.len()) as u32
    }

    /// Query `key`, reading all `redundancy` candidate slots (Algorithm 2).
    pub fn query(&self, key: &TelemetryKey, redundancy: usize, policy: QueryPolicy) -> QueryOutcome {
        self.query_inner(&self.region, key, redundancy, policy)
    }

    /// [`KeyWriteStore::query`] reading slot bytes from `src` instead of
    /// the live region — the same vote logic over a snapshot image.
    pub fn query_from<S: SlotSource + ?Sized>(
        &self,
        src: &S,
        key: &TelemetryKey,
        redundancy: usize,
        policy: QueryPolicy,
    ) -> QueryOutcome {
        self.query_inner(src, key, redundancy, policy)
    }

    /// Algorithm 2 in place: the `n` slot images are read into one stack
    /// array, packed so that the checksum-matching ones come first, and the
    /// vote compares their values where they lie. Only a `Found` value is
    /// copied out.
    fn query_inner<S: SlotSource + ?Sized>(
        &self,
        src: &S,
        key: &TelemetryKey,
        redundancy: usize,
        policy: QueryPolicy,
    ) -> QueryOutcome {
        let want = self.csum.checksum32(key.as_bytes()).to_be_bytes();
        let width = self.layout.slot_bytes() as usize;
        let mut images = [[0u8; IMAGE_BYTES]; MAX_REDUNDANCY];
        let mut matching = 0;
        for i in 0..redundancy.min(self.family.len()) {
            // A slot whose checksum does not match is overwritten by the next.
            let image = &mut images[matching][..width];
            let va = self.layout.slot_va(&self.family, i, key);
            assert!(src.read_slot(va, image), "slot within source");
            if image[..4] == want {
                matching += 1;
            }
        }
        if matching == 0 {
            return QueryOutcome::NotFound;
        }
        let mut values: [&[u8]; MAX_REDUNDANCY] = [&[]; MAX_REDUNDANCY];
        for (value, image) in values.iter_mut().zip(&images[..matching]) {
            *value = &image[4..width];
        }
        match vote(&values[..matching], policy) {
            Some(winner) => QueryOutcome::Found(values[winner].to_vec()),
            None => QueryOutcome::Ambiguous,
        }
    }
}

/// The index in `values` (the checksum-matching slot values, in slot
/// order; not empty) of the value `policy` picks, or `None` when the
/// policy finds them ambiguous. Apart from `FirstMatch` the outcome counts
/// a multiset, so it does not depend on slot order.
fn vote(values: &[&[u8]], policy: QueryPolicy) -> Option<usize> {
    // Each distinct value once, at its first occurrence, with its count.
    let distinct = (0..values.len())
        .filter(|&i| !values[..i].contains(&values[i]))
        .map(|i| (i, values.iter().filter(|v| **v == values[i]).count()));
    match policy {
        QueryPolicy::FirstMatch => Some(0),
        QueryPolicy::Plurality => {
            let mut best: Option<(usize, usize)> = None;
            let mut tied = false;
            for (i, count) in distinct {
                match best {
                    Some((_, top)) if count < top => {}
                    Some((_, top)) if count == top => tied = true,
                    _ => (best, tied) = (Some((i, count)), false),
                }
            }
            best.filter(|_| !tied).map(|(i, _)| i)
        }
        QueryPolicy::Consensus(t) => {
            let mut agreed = distinct.filter(|&(_, count)| count >= usize::from(t));
            match (agreed.next(), agreed.next()) {
                (Some((i, _)), None) => Some(i),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SnapshotView;
    use dta_rdma::mr::MrAccess;

    fn store(slots: u64, value_bytes: u32) -> KeyWriteStore {
        let layout = KwLayout { base_va: 0x10_0000, slots, value_bytes };
        let region = MemoryRegion::new(
            layout.base_va,
            layout.region_len() as usize,
            1,
            MrAccess::WRITE,
        );
        KeyWriteStore::new(layout, region, 8)
    }

    #[test]
    fn insert_then_query_roundtrip() {
        let s = store(1024, 4);
        let k = TelemetryKey::from_u64(42);
        s.insert_direct(&k, &[1, 2, 3, 4], 2);
        assert_eq!(
            s.query(&k, 2, QueryPolicy::Plurality),
            QueryOutcome::Found(vec![1, 2, 3, 4])
        );
    }

    #[test]
    fn unwritten_key_not_found() {
        let s = store(1024, 4);
        assert_eq!(
            s.query(&TelemetryKey::from_u64(7), 2, QueryPolicy::Plurality),
            QueryOutcome::NotFound
        );
    }

    #[test]
    fn twenty_byte_values_roundtrip() {
        // 5-hop path tracing: 5 x 4B switch IDs.
        let s = store(1024, 20);
        let k = TelemetryKey::from_u64(5);
        let path: Vec<u8> = (0..20).collect();
        s.insert_direct(&k, &path, 2);
        assert_eq!(s.query(&k, 2, QueryPolicy::Plurality), QueryOutcome::Found(path));
    }

    #[test]
    fn short_value_zero_padded() {
        let s = store(64, 8);
        let k = TelemetryKey::from_u64(1);
        s.insert_direct(&k, &[0xAA], 1);
        assert_eq!(
            s.query(&k, 1, QueryPolicy::FirstMatch),
            QueryOutcome::Found(vec![0xAA, 0, 0, 0, 0, 0, 0, 0])
        );
    }

    #[test]
    fn overwrite_with_higher_redundancy_survives_partial_eviction() {
        let s = store(4096, 4);
        let k = TelemetryKey::from_u64(1);
        s.insert_direct(&k, &[9; 4], 4);
        // Overwrite lots of other keys with redundancy 1: some of k's slots
        // may be hit, but plurality still recovers it with high probability.
        for i in 100..600u64 {
            s.insert_direct(&TelemetryKey::from_u64(i), &[0; 4], 1);
        }
        match s.query(&k, 4, QueryPolicy::Plurality) {
            QueryOutcome::Found(v) => assert_eq!(v, vec![9; 4]),
            QueryOutcome::NotFound => {
                // Possible but requires all 4 slots overwritten: with load
                // factor 500/4096 the chance is ~(1-e^{-0.5})^4 ≈ 2.4%; if
                // this fires persistently something is wrong.
                panic!("all four redundant slots evicted — statistically implausible");
            }
            QueryOutcome::Ambiguous => panic!("ambiguous"),
        }
    }

    #[test]
    fn consensus_two_requires_two_copies() {
        let s = store(1 << 16, 4);
        let k = TelemetryKey::from_u64(77);
        s.insert_direct(&k, &[5; 4], 1); // only one copy
        assert_eq!(s.query(&k, 1, QueryPolicy::Consensus(2)), QueryOutcome::Ambiguous);
        s.insert_direct(&k, &[5; 4], 2);
        assert_eq!(
            s.query(&k, 2, QueryPolicy::Consensus(2)),
            QueryOutcome::Found(vec![5; 4])
        );
    }

    #[test]
    fn newer_write_wins() {
        let s = store(1024, 4);
        let k = TelemetryKey::from_u64(3);
        s.insert_direct(&k, &[1; 4], 2);
        s.insert_direct(&k, &[2; 4], 2);
        assert_eq!(s.query(&k, 2, QueryPolicy::Plurality), QueryOutcome::Found(vec![2; 4]));
    }

    #[test]
    fn aged_out_key_becomes_not_found() {
        // Tiny store: 8 slots. Write one key, then flood with 100 others.
        let s = store(8, 4);
        let k = TelemetryKey::from_u64(0);
        s.insert_direct(&k, &[7; 4], 2);
        for i in 1..100u64 {
            s.insert_direct(&TelemetryKey::from_u64(i), &[0; 4], 2);
        }
        // k's slots are certainly overwritten; outcome must not be k's value
        // unless a checksum collision occurred (2^-32 per slot).
        if let QueryOutcome::Found(v) = s.query(&k, 2, QueryPolicy::Plurality) {
            assert_ne!(v, vec![7; 4], "ghost value survived a full overwrite");
        }
    }

    /// The vote as it ran before it ran in place, kept as the naive
    /// reference: every matching value is copied into a `Vec` and counted
    /// in a `Vec` of candidates.
    fn naive_query<S: SlotSource + ?Sized>(
        s: &KeyWriteStore,
        src: &S,
        key: &TelemetryKey,
        redundancy: usize,
        policy: QueryPolicy,
    ) -> QueryOutcome {
        let want = s.csum.checksum32(key.as_bytes());
        let w = s.layout.value_bytes as usize;
        let n = redundancy.min(s.family.len());
        let mut candidates: Vec<(Vec<u8>, u8)> = Vec::with_capacity(n);
        let mut slot = vec![0u8; 4 + w];
        for i in 0..n {
            let va = s.layout.slot_va(&s.family, i, key);
            assert!(src.read_slot(va, &mut slot), "slot within source");
            let got = u32::from_be_bytes(slot[0..4].try_into().unwrap());
            if got == want {
                let value = slot[4..].to_vec();
                match candidates.iter_mut().find(|(v, _)| *v == value) {
                    Some((_, count)) => *count += 1,
                    None => candidates.push((value, 1)),
                }
            }
        }

        if candidates.is_empty() {
            return QueryOutcome::NotFound;
        }
        match policy {
            QueryPolicy::FirstMatch => QueryOutcome::Found(candidates.swap_remove(0).0),
            QueryPolicy::Plurality => {
                candidates.sort_by_key(|c| std::cmp::Reverse(c.1));
                if candidates.len() > 1 && candidates[0].1 == candidates[1].1 {
                    QueryOutcome::Ambiguous
                } else {
                    QueryOutcome::Found(candidates.swap_remove(0).0)
                }
            }
            QueryPolicy::Consensus(t) => {
                candidates.retain(|(_, c)| *c >= t);
                match candidates.len() {
                    0 => QueryOutcome::Ambiguous,
                    1 => QueryOutcome::Found(candidates.swap_remove(0).0),
                    _ => QueryOutcome::Ambiguous,
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "value width 61 B exceeds 60 B")]
    fn a_slot_wider_than_one_line_is_refused() {
        store(16, KwLayout::MAX_VALUE_BYTES + 1);
    }

    proptest::proptest! {
        /// The in-place vote against the naive one, both reading the live
        /// region and a snapshot of it. Each of the key's `n` slots holds
        /// a matching checksum and one of three values that differ only in
        /// their last byte (so duplicates and ties are common), or a wrong
        /// checksum; slots may coincide in the 16-slot table. Every policy
        /// is asked, `Consensus(0..=n + 1)` included, at a redundancy that
        /// may exceed the family.
        #[test]
        fn in_place_vote_equals_the_naive_vote(
            n in 1usize..=MAX_REDUNDANCY,
            width in 1u32..=KwLayout::MAX_VALUE_BYTES,
            key in proptest::prelude::any::<u64>(),
            images in proptest::collection::vec(
                (0u8..4, 0u8..3, proptest::prelude::any::<u32>()),
                MAX_REDUNDANCY..=MAX_REDUNDANCY,
            ),
            redundancy in 1usize..=MAX_REDUNDANCY + 1,
        ) {
            let layout = KwLayout { base_va: 0x2000, slots: 16, value_bytes: width };
            let region =
                MemoryRegion::new(layout.base_va, layout.region_len() as usize, 1, MrAccess::WRITE);
            let s = KeyWriteStore::new(layout, region, n);
            let key = TelemetryKey::from_u64(key);
            let want = s.csum.checksum32(key.as_bytes());
            for (i, &(kind, pick, noise)) in images.iter().take(n).enumerate() {
                let checksum = if kind == 0 { want ^ (noise | 1) } else { want };
                let mut image = checksum.to_be_bytes().to_vec();
                image.resize(4 + width as usize, 0xA0);
                *image.last_mut().unwrap() = pick;
                s.region().write(layout.slot_va(&s.family, i, &key), &image).unwrap();
            }
            let snap = s.region().snapshot();
            let view = SnapshotView { base_va: layout.base_va, bytes: snap.as_bytes() };
            let consensus = (0..=n as u8 + 1).map(QueryPolicy::Consensus);
            let policies = [QueryPolicy::FirstMatch, QueryPolicy::Plurality];
            for policy in policies.into_iter().chain(consensus) {
                let naive = naive_query(&s, s.region(), &key, redundancy, policy);
                let naive_snapshot = naive_query(&s, &view, &key, redundancy, policy);
                proptest::prop_assert_eq!(&naive_snapshot, &naive);
                let live = s.query(&key, redundancy, policy);
                proptest::prop_assert_eq!(&live, &naive, "{:?} live", policy);
                proptest::prop_assert_eq!(
                    &s.query_from(&view, &key, redundancy, policy),
                    &naive,
                    "{:?} snapshot",
                    policy
                );
            }
        }
    }
}

#[cfg(test)]
mod redundancy_default_tests {
    use super::*;
    use crate::layout::KwLayout;
    use dta_core::TelemetryKey;
    use dta_rdma::mr::{MemoryRegion, MrAccess};

    /// §4: "As the level of redundancy used at report-time may not be known
    /// while querying, the collector can assume by default a maximum (e.g.,
    /// 4) redundancy level. If the data was reported using fewer slots,
    /// unused slots would appear as overwritten entries (collision)."
    #[test]
    fn querying_with_max_redundancy_finds_lower_redundancy_writes() {
        let layout = KwLayout { base_va: 0, slots: 1 << 14, value_bytes: 4 };
        let region =
            MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
        let store = KeyWriteStore::new(layout, region, 4);
        // Writers used N = 1, 2, 3 — the querier always asks with N = 4.
        for (i, n) in [(1u64, 1usize), (2, 2), (3, 3)] {
            let k = TelemetryKey::from_u64(i);
            store.insert_direct(&k, &[i as u8; 4], n);
            assert_eq!(
                store.query(&k, 4, QueryPolicy::Plurality),
                QueryOutcome::Found(vec![i as u8; 4]),
                "N={n} write must be queryable at default N=4"
            );
        }
    }
}
