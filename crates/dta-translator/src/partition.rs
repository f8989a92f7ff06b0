//! Report partitioning: multi-collector spread and shard dispatch.
//!
//! "It is beneficial to enable collection at multiple servers for
//! scalability or resiliency. DTA can be deployed alongside multiple
//! collectors and permit easy partitioning of reports based on the IP and
//! DTA headers." (§7)
//!
//! The partitioner inspects exactly the fields a Tofino parser would have in
//! headers — the primitive opcode and its key / list id — and picks a
//! target deterministically, so every report for the same key always lands
//! on the same collector *and*, inside the sharded translator, on the same
//! worker shard (the requirement for both queryability and per-key write
//! ordering).
//!
//! Routing is derived from the key's `checksum32` — the *same* digest the
//! translator's [`KeyScratch`] computes for slot validation — mixed to full
//! avalanche before reduction. Deriving both from one digest means the hot
//! dispatch path never hashes key bytes twice: [`Partitioner::route_cached`]
//! pulls the checksum out of a scratch (one 16-byte compare for a resident
//! key) and [`Partitioner::route_checksum`] reduces it, so a repeat-key
//! report costs zero CRC passes to route.

use dta_core::{DtaReport, PrimitiveHeader};
use dta_hash::scratch::KeyScratch;
use dta_hash::Checksummer;

/// Deterministic report-to-target partitioner over `targets` collectors or
/// shards.
///
/// The two routing levels — across collectors (§7) and across a
/// collector's translator shards — consume the *same* key digest, so they
/// must be domain-separated or the composition degenerates: the reports
/// reaching collector `c` are exactly those in one contiguous band of the
/// mixed digest, and an identical reduction over `S` shards would map that
/// whole band onto ~`S/C` shards, idling the rest. [`Partitioner::new`]
/// (collector level) and [`Partitioner::for_shards`] (shard level)
/// therefore mix under different salts.
#[derive(Debug)]
pub struct Partitioner {
    targets: u32,
    salt: u32,
    csum: Checksummer,
}

/// Domain-separation salt for shard-level dispatch (any constant distinct
/// from the collector level's 0 works; the mix's avalanche does the rest).
const SHARD_SALT: u32 = 0x5AB5_EED1;

/// Full-avalanche 32-bit mix (murmur3 fmix32). The checksum's low bits are
/// also stored verbatim in Key-Write slots; mixing decorrelates the shard
/// index from anything slot contents or slot addressing derive from it.
#[inline]
fn mix32(mut h: u32) -> u32 {
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^= h >> 16;
    h
}

/// Collector-level reduction of an already-computed key `checksum32` over
/// `targets`, identical to `Partitioner::new(targets).route_checksum(c)`
/// but without constructing a partitioner — the failover routing table
/// re-reduces checksums over survivor subsets of varying size, and must
/// stay bit-compatible with the primary collector-level routing.
#[inline]
pub fn collector_route(checksum: u32, targets: u32) -> u32 {
    debug_assert!(targets > 0, "need at least one routing target");
    ((mix32(checksum) as u64 * targets as u64) >> 32) as u32
}

/// Collector-level Append-list reduction, the list analogue of
/// [`collector_route`] (bit-compatible with
/// `Partitioner::new(targets).route_list(id)`).
#[inline]
pub fn collector_route_list(list_id: u32, targets: u32) -> u32 {
    debug_assert!(targets > 0, "need at least one routing target");
    ((mix32(list_id ^ 0xA99D_0C95) as u64 * targets as u64) >> 32) as u32
}

impl Partitioner {
    /// Collector-level partitioner over `targets` collectors.
    ///
    /// # Panics
    /// Panics if `targets` is zero.
    pub fn new(targets: u32) -> Self {
        assert!(targets > 0, "need at least one partition target");
        Partitioner { targets, salt: 0, csum: Checksummer::new() }
    }

    /// Shard-level partitioner over `targets` worker shards —
    /// domain-separated from [`Partitioner::new`] so stacking the two
    /// levels (collector spread, then shard dispatch) still loads every
    /// shard.
    ///
    /// # Panics
    /// Panics if `targets` is zero.
    pub fn for_shards(targets: u32) -> Self {
        assert!(targets > 0, "need at least one partition target");
        Partitioner { targets, salt: SHARD_SALT, csum: Checksummer::new() }
    }

    /// Number of targets (collectors or shards).
    pub fn targets(&self) -> u32 {
        self.targets
    }

    /// Target index for an already-computed key `checksum32` — the re-hash-
    /// free entry point shard dispatch uses with a scratch-cached checksum.
    #[inline]
    pub(crate) fn route_checksum(&self, checksum: u32) -> u32 {
        // Multiply-shift reduction (no division) over the mixed digest.
        ((mix32(checksum ^ self.salt) as u64 * self.targets as u64) >> 32) as u32
    }

    /// Target index for an Append list.
    #[inline]
    fn route_list(&self, list_id: u32) -> u32 {
        ((mix32(list_id ^ 0xA99D_0C95 ^ self.salt) as u64 * self.targets as u64) >> 32) as u32
    }

    /// Target index for a report, computing the key checksum from scratch
    /// (one CRC pass). Dispatch loops should prefer
    /// [`Partitioner::route_cached`].
    pub fn route(&self, report: &DtaReport) -> u32 {
        match &report.primitive {
            PrimitiveHeader::KeyWrite(h) => {
                self.route_checksum(self.csum.checksum32(h.key.as_bytes()))
            }
            PrimitiveHeader::KeyIncrement(h) => {
                self.route_checksum(self.csum.checksum32(h.key.as_bytes()))
            }
            PrimitiveHeader::Postcarding(h) => {
                self.route_checksum(self.csum.checksum32(h.key.as_bytes()))
            }
            PrimitiveHeader::Append(h) => self.route_list(h.list_id),
        }
    }

    /// Target index for a report, reusing `scratch`'s cached checksum for
    /// keyed primitives: a key that routed recently costs one 16-byte
    /// compare instead of a CRC pass over the key bytes. The scratch is the
    /// caller's (the ingest thread owns one, independent of the per-shard
    /// scratches), so dispatch never contends with translation.
    pub fn route_cached(&self, scratch: &mut KeyScratch, report: &DtaReport) -> u32 {
        let key = match &report.primitive {
            PrimitiveHeader::KeyWrite(h) => &h.key,
            PrimitiveHeader::KeyIncrement(h) => &h.key,
            PrimitiveHeader::Postcarding(h) => &h.key,
            PrimitiveHeader::Append(h) => return self.route_list(h.list_id),
        };
        self.route_checksum(scratch.digests(key.as_bytes(), 0).checksum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_core::TelemetryKey;

    #[test]
    fn same_key_same_collector() {
        let p = Partitioner::new(4);
        let k = TelemetryKey::from_u64(1);
        let a = DtaReport::key_write(0, k, 2, vec![1; 4]);
        let b = DtaReport::key_write(99, k, 1, vec![2; 4]);
        assert_eq!(p.route(&a), p.route(&b), "same key must co-locate");
    }

    #[test]
    fn postcards_colocate_with_their_flow() {
        let p = Partitioner::new(8);
        let k = TelemetryKey::from_u64(42);
        let first = p.route(&DtaReport::postcard(0, k, 0, 5, 1));
        for hop in 1..5 {
            assert_eq!(p.route(&DtaReport::postcard(0, k, hop, 5, 1)), first);
        }
    }

    #[test]
    fn appends_partition_by_list() {
        let p = Partitioner::new(4);
        let a = p.route(&DtaReport::append(0, 7, vec![0; 4]));
        let b = p.route(&DtaReport::append(1, 7, vec![1; 4]));
        assert_eq!(a, b);
    }

    #[test]
    fn load_spreads_across_collectors() {
        let p = Partitioner::new(4);
        let mut counts = [0u32; 4];
        for i in 0..4000u64 {
            let r = DtaReport::key_write(0, TelemetryKey::from_u64(i), 1, vec![0; 4]);
            counts[p.route(&r) as usize] += 1;
        }
        for c in counts {
            assert!((800..=1200).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn append_lists_spread_across_collectors() {
        let p = Partitioner::new(4);
        let mut counts = [0u32; 4];
        for list in 0..4000u32 {
            counts[p.route_list(list) as usize] += 1;
        }
        for c in counts {
            assert!((800..=1200).contains(&c), "imbalanced lists: {counts:?}");
        }
    }

    #[test]
    fn shard_routing_spreads_within_one_collector_band() {
        // Stacked deployment: collector-level spread, then shard dispatch
        // inside one collector. Without domain separation every key that
        // reaches collector 0 would land on shard 0; with it, all shards
        // stay loaded.
        let collectors = Partitioner::new(4);
        let shards = Partitioner::for_shards(4);
        let mut shard_counts = [0u32; 4];
        let mut list_counts = [0u32; 4];
        let mut kept = 0;
        for i in 0..16_000u64 {
            let r = DtaReport::key_write(0, TelemetryKey::from_u64(i), 1, vec![0; 4]);
            if collectors.route(&r) == 0 {
                shard_counts[shards.route(&r) as usize] += 1;
                kept += 1;
            }
        }
        for list in 0..4000u32 {
            if collectors.route_list(list) == 0 {
                list_counts[shards.route_list(list) as usize] += 1;
            }
        }
        assert!(kept > 3000, "collector band unexpectedly small: {kept}");
        for (s, c) in shard_counts.iter().enumerate() {
            assert!(
                *c * 4 > kept / 2,
                "shard {s} starved inside collector 0's band: {shard_counts:?}"
            );
        }
        for (s, c) in list_counts.iter().enumerate() {
            assert!(*c > 100, "list shard {s} starved: {list_counts:?}");
        }
    }

    #[test]
    fn collector_route_helpers_match_partitioner_reductions() {
        // The failover routing table reduces checksums through the free
        // functions (no `Partitioner` in hand); they must stay
        // bit-compatible with the collector-level partitioner at every
        // fleet size, or a failed-over translator would disagree with a
        // fresh one about key ownership.
        for targets in [1u32, 2, 3, 5, 8] {
            let p = Partitioner::new(targets);
            for csum in (0..100_000u32).step_by(97) {
                assert_eq!(collector_route(csum, targets), p.route_checksum(csum));
            }
            for list in 0..512u32 {
                assert_eq!(collector_route_list(list, targets), p.route_list(list));
            }
        }
    }

    #[test]
    fn collector_repartition_leaves_shard_routing_untouched() {
        // Failover re-partitions the collector level: `targets` shrinks
        // from N to the survivor count while the shard level stays at its
        // configured width. The two levels are domain-separated (salt 0 vs
        // `SHARD_SALT`), so changing targets at one level must not move a
        // single key at the other — and within any one shard, collector
        // routing must keep spreading over every collector (no cross-level
        // correlation) at every fleet size.
        const SHARDS: usize = 4;
        let shards = Partitioner::for_shards(SHARDS as u32);
        let mut scratch = KeyScratch::new(1024, 1);
        let reports: Vec<DtaReport> = (0..4096u64)
            .map(|i| DtaReport::key_write(0, TelemetryKey::from_u64(i), 1, vec![0; 4]))
            .collect();
        let baseline: Vec<u32> =
            reports.iter().map(|r| shards.route_cached(&mut scratch, r)).collect();

        for targets in [4u32, 3, 2] {
            let collectors = Partitioner::new(targets);
            let rerouted: Vec<u32> =
                reports.iter().map(|r| shards.route_cached(&mut scratch, r)).collect();
            assert_eq!(baseline, rerouted, "shard routes moved at fleet size {targets}");

            let mut cells = vec![[0u32; SHARDS]; targets as usize];
            for (r, &shard) in reports.iter().zip(&baseline) {
                cells[collectors.route(r) as usize][shard as usize] += 1;
            }
            let expect = 4096 / (targets * SHARDS as u32);
            for (c, row) in cells.iter().enumerate() {
                for (s, &n) in row.iter().enumerate() {
                    assert!(
                        n * 2 > expect,
                        "collector {c} x shard {s} starved at fleet size \
                         {targets}: {n} of ~{expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_level_routing_never_collapses_for_adversarial_key_sets() {
        // Regression for the shard/collector domain-separation gap. Two
        // adversarial constructions, each of which defeats a *naive*
        // two-level scheme (same reduction at both levels, or modulo over
        // the raw checksum):
        //
        // 1. For every collector c, the exact key set routed to c — under a
        //    shared reduction these all land on ~1 shard.
        // 2. Keys filtered so `checksum32 % shards` is one constant — under
        //    an unmixed/unsalted modulo reduction these collapse by
        //    construction.
        //
        // In both cases the salted + mixed shard level must keep every
        // shard loaded.
        const COLLECTORS: u32 = 4;
        const SHARDS: u32 = 4;
        let collectors = Partitioner::new(COLLECTORS);
        let shards = Partitioner::for_shards(SHARDS);
        let csum = dta_hash::Checksummer::new();

        for collector in 0..COLLECTORS {
            let mut counts = [0u32; SHARDS as usize];
            let mut kept = 0u32;
            for i in 0..32_000u64 {
                let r = DtaReport::key_write(0, TelemetryKey::from_u64(i), 1, vec![0; 4]);
                if collectors.route(&r) == collector {
                    counts[shards.route(&r) as usize] += 1;
                    kept += 1;
                }
            }
            for (s, c) in counts.iter().enumerate() {
                assert!(
                    *c * SHARDS * 2 > kept,
                    "collector {collector}'s band starves shard {s}: {counts:?} of {kept}"
                );
            }
        }

        for residue in 0..SHARDS {
            let mut counts = [0u32; SHARDS as usize];
            let mut kept = 0u32;
            let mut i = 0u64;
            while kept < 4_000 {
                let k = TelemetryKey::from_u64(i);
                i += 1;
                if csum.checksum32(k.as_bytes()) % SHARDS != residue {
                    continue;
                }
                kept += 1;
                counts[shards.route_checksum(csum.checksum32(k.as_bytes())) as usize] += 1;
            }
            for (s, c) in counts.iter().enumerate() {
                assert!(
                    *c * SHARDS * 2 > kept,
                    "checksum-residue-{residue} keys starve shard {s}: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn single_collector_always_zero() {
        let p = Partitioner::new(1);
        let r = DtaReport::append(0, 123, vec![0; 4]);
        assert_eq!(p.route(&r), 0);
    }

    #[test]
    fn cached_route_matches_uncached_without_rehashing() {
        // The scratch-cached route must agree with the direct one for every
        // primitive, and repeated keys must not re-run the CRC engine — the
        // property that makes shard dispatch hash key bytes at most once
        // per *new* key, not once per report.
        let p = Partitioner::new(8);
        let mut scratch = KeyScratch::new(4096, 1);
        let reports: Vec<DtaReport> = (0..64u64)
            .flat_map(|i| {
                let k = TelemetryKey::from_u64(i);
                [
                    DtaReport::key_write(0, k, 2, vec![1; 4]),
                    DtaReport::key_increment(0, k, 2, 1),
                    DtaReport::postcard(0, k, 0, 5, 9),
                    DtaReport::append(0, i as u32 % 16, vec![0; 4]),
                ]
            })
            .collect();
        for r in &reports {
            assert_eq!(p.route_cached(&mut scratch, r), p.route(r));
        }
        let after_first_pass = scratch.stats;
        assert_eq!(after_first_pass.misses, 64, "one CRC pass per distinct key");
        // Second pass over the same stream: all keyed routes hit the cache.
        for r in &reports {
            p.route_cached(&mut scratch, r);
        }
        assert_eq!(scratch.stats.misses, after_first_pass.misses);
        assert_eq!(scratch.stats.hits, after_first_pass.hits + 3 * 64);
    }

    #[test]
    fn route_checksum_agrees_with_translator_checksum() {
        // The routing digest IS the translator/collector checksum32 — the
        // contract that lets dispatch reuse the KeyScratch value.
        let p = Partitioner::new(16);
        let k = TelemetryKey::from_u64(77);
        let direct = p.route(&DtaReport::key_write(0, k, 1, vec![0; 4]));
        let from_csum = p.route_checksum(dta_hash::checksum32(k.as_bytes()));
        assert_eq!(direct, from_csum);
    }
}
