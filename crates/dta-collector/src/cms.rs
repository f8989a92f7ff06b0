//! The Key-Increment store (Algorithms 5 & 6).
//!
//! "Our KI memory acts as a Count-Min Sketch and we increment N values using
//! the RDMA Fetch-and-Add primitive. On a query, KI returns the minimum
//! value from these N locations. Hash collisions may lead to an overestimate
//! of the value, with error guarantees matching those of Count-Min Sketches.
//! The counters' memory may be reset periodically." (§4)

use dta_core::TelemetryKey;
use dta_hash::HashFamily;
use dta_rdma::mr::MemoryRegion;

use crate::engine::SlotSource;
use crate::layout::CmsLayout;

/// The collector-side Key-Increment (count-min) store.
#[derive(Debug)]
pub struct KeyIncrementStore {
    layout: CmsLayout,
    region: MemoryRegion,
    family: HashFamily,
}

impl KeyIncrementStore {
    /// Store over `region` with redundancy up to `max_redundancy`.
    pub fn new(layout: CmsLayout, region: MemoryRegion, max_redundancy: usize) -> Self {
        assert!(region.len() as u64 >= layout.region_len());
        KeyIncrementStore { layout, region, family: HashFamily::new(max_redundancy) }
    }

    /// Geometry.
    pub fn layout(&self) -> &CmsLayout {
        &self.layout
    }

    /// The backing region (for NIC registration — must be atomic-capable).
    pub fn region(&self) -> &MemoryRegion {
        &self.region
    }

    /// Direct increment path (the N FETCH_ADDs the translator would issue).
    pub fn increment_direct(&self, key: &TelemetryKey, delta: u64, redundancy: usize) {
        for n in 0..redundancy.min(self.family.len()) {
            let va = self.layout.slot_va(&self.family, n, key);
            self.region.fetch_add(va, delta).expect("slot within region");
        }
    }

    /// Counter reads a `redundancy`-deep query performs (clamped to the
    /// hash family).
    pub fn slot_probes(&self, redundancy: usize) -> u32 {
        redundancy.min(self.family.len()) as u32
    }

    /// Query: minimum over the `redundancy` counters (Algorithm 6). Always
    /// an over-estimate of the true sum for this key (count-min property).
    pub fn query(&self, key: &TelemetryKey, redundancy: usize) -> u64 {
        self.query_from(&self.region, key, redundancy)
    }

    /// [`KeyIncrementStore::query`] reading counters from `src` instead of
    /// the live region — the same min over a snapshot image.
    pub fn query_from<S: SlotSource + ?Sized>(
        &self,
        src: &S,
        key: &TelemetryKey,
        redundancy: usize,
    ) -> u64 {
        (0..redundancy.min(self.family.len()))
            .map(|n| {
                let va = self.layout.slot_va(&self.family, n, key);
                let mut raw = [0u8; 8];
                assert!(src.read_slot(va, &mut raw), "slot within source");
                u64::from_be_bytes(raw)
            })
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_rdma::mr::MrAccess;

    fn store(slots: u64) -> KeyIncrementStore {
        let layout = CmsLayout { base_va: 0, slots };
        let region =
            MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::ATOMIC);
        KeyIncrementStore::new(layout, region, 4)
    }

    #[test]
    fn increments_accumulate() {
        let s = store(1024);
        let k = TelemetryKey::src_ip(0x0A000001);
        s.increment_direct(&k, 5, 2);
        s.increment_direct(&k, 7, 2);
        assert_eq!(s.query(&k, 2), 12);
    }

    #[test]
    fn unseen_key_is_zero_or_overestimate() {
        let s = store(1 << 16);
        let k = TelemetryKey::src_ip(1);
        assert_eq!(s.query(&k, 2), 0);
    }

    #[test]
    fn count_min_never_underestimates() {
        let s = store(64); // tiny: force collisions
        let mut truth = std::collections::BTreeMap::new();
        for i in 0..200u64 {
            let k = TelemetryKey::from_u64(i % 50);
            s.increment_direct(&k, 1, 2);
            *truth.entry(i % 50).or_insert(0u64) += 1;
        }
        for (id, count) in truth {
            let est = s.query(&TelemetryKey::from_u64(id), 2);
            assert!(est >= count, "key {id}: est {est} < true {count}");
        }
    }

    #[test]
    fn more_hashes_tighten_estimates() {
        // With heavy collisions, min over 4 slots <= min over 1 slot.
        let s = store(32);
        for i in 0..100u64 {
            s.increment_direct(&TelemetryKey::from_u64(i), 1, 4);
        }
        let k = TelemetryKey::from_u64(0);
        assert!(s.query(&k, 4) <= s.query(&k, 1));
    }
}
