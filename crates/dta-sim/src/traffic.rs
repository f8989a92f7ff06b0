//! Deterministic workload synthesis for scenario runs.
//!
//! Everything here draws from one seeded RNG stream, so a
//! [`crate::ScenarioSpec`] maps to exactly one workload: per-reporter
//! report schedules plus the ledger (which keys, lists, and flows were
//! used, and how much was sent where) the post-run query phase audits
//! against.

use dta_collector::layout::{KwLayout, PostcardLayout};
use bytes::Bytes;
use dta_core::{DtaFlags, DtaReport, PrimitiveHeader, TelemetryKey};
use dta_hash::family::slot_of;
use dta_hash::polynomials::MAX_REDUNDANCY;
use dta_hash::{Crc32, CrcParams, HashFamily};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::ScenarioSpec;

/// Report packets framed, by primitive (a Postcarding *op* contributes
/// `path_len` packets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrimitiveCounts {
    /// Key-Write reports.
    pub key_write: u64,
    /// Append reports.
    pub append: u64,
    /// Key-Increment reports.
    pub key_increment: u64,
    /// Postcarding reports (hops, not flows).
    pub postcard: u64,
}

impl PrimitiveCounts {
    /// Total report packets.
    pub fn total(&self) -> u64 {
        self.key_write + self.append + self.key_increment + self.postcard
    }
}

/// A synthesized workload: the schedules plus the audit ledger.
#[derive(Debug, Clone)]
pub struct Workload {
    /// One report schedule per reporter, in fleet order.
    pub streams: Vec<Vec<DtaReport>>,
    /// Distinct Key-Write keys actually written (pool order).
    pub kw_used: Vec<TelemetryKey>,
    /// Key-Increment keys actually incremented (pool order).
    pub inc_used: Vec<TelemetryKey>,
    /// Postcard flow keys emitted (one full path each, emission order).
    pub pc_flows: Vec<TelemetryKey>,
    /// Append entries emitted per list id.
    pub append_per_list: Vec<u64>,
    /// Sum of all Key-Increment deltas emitted.
    pub inc_total: u64,
    /// Report packets framed, by primitive.
    pub counts: PrimitiveCounts,
}

/// A deterministic, optionally collision-filtered pool of keys at a fixed
/// id base. With filtering on, no two keys returned share any of their
/// `family` store slots (over `slots`) nor a postcard-cache row (over
/// `cache_rows`, when nonzero) — the precondition for byte-comparing
/// single-threaded and sharded runs. Used slots and rows are bitmaps, so a
/// candidate costs its hashes and a few bit tests, never an allocation.
struct KeyPool {
    next_id: u64,
    family: HashFamily,
    redundancy: usize,
    slots: u64,
    cache_rows: usize,
    crc: Crc32,
    /// Bit `s` is set once a returned key holds store slot `s` (empty
    /// without the filter).
    used_slots: Vec<u64>,
    /// Bit `r` is set once a returned key holds cache row `r`.
    used_rows: Vec<u64>,
    filter: bool,
}

fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn ones(bits: &[u64]) -> u32 {
    bits.iter().map(|w| w.count_ones()).sum()
}

impl KeyPool {
    fn new(base: u64, redundancy: usize, slots: u64, cache_rows: usize, filter: bool) -> Self {
        // `slot_of` maps into `0..slots` (to 0 for an empty table).
        let bitmap = |n: usize| if filter { vec![0u64; n / 64 + 1] } else { Vec::new() };
        KeyPool {
            next_id: base,
            family: HashFamily::new(redundancy.max(1)),
            redundancy: redundancy.max(1),
            slots,
            cache_rows,
            crc: Crc32::new(CrcParams::IEEE),
            used_slots: bitmap(slots as usize),
            used_rows: bitmap(cache_rows),
            filter,
        }
    }

    fn next(&mut self) -> TelemetryKey {
        // When the filter is on, candidate keys are rejected until one
        // avoids every used slot/row; near pool exhaustion that rejection
        // rate approaches 1, and past exhaustion it *is* 1 — fail loudly
        // instead of spinning forever. Even a store 99% full needs ~100
        // candidates per key in expectation, far under this bound.
        let limit = 64 * (self.slots + self.cache_rows as u64) + 4096;
        let mut rejected = 0u64;
        loop {
            assert!(
                rejected < limit,
                "slot-disjoint key pool exhausted after {} candidates \
                 ({} slots / {} cache rows already used): shrink the key \
                 pools or grow the store",
                rejected,
                ones(&self.used_slots),
                ones(&self.used_rows),
            );
            rejected += 1;
            let k = TelemetryKey::from_u64(self.next_id);
            self.next_id += 1;
            if !self.filter {
                return k;
            }
            let mut key_slots = [0usize; MAX_REDUNDANCY];
            let key_slots = &mut key_slots[..self.redundancy];
            for (i, s) in key_slots.iter_mut().enumerate() {
                *s = slot_of(self.family.hash(i, k.as_bytes()), self.slots) as usize;
            }
            // A key's own slots may coincide; only other keys' slots
            // reject it.
            if key_slots.iter().any(|&s| bit(&self.used_slots, s)) {
                continue;
            }
            // The postcard cache indexes rows by IEEE CRC32 of the key —
            // mirror dta-translator's PostcardCache::row_index so filtered
            // flows never evict each other.
            let row = (self.cache_rows > 0)
                .then(|| self.crc.compute(k.as_bytes()) as usize % self.cache_rows);
            if let Some(row) = row {
                if bit(&self.used_rows, row) {
                    continue;
                }
                set_bit(&mut self.used_rows, row);
            }
            for &s in key_slots.iter() {
                set_bit(&mut self.used_slots, s);
            }
            return k;
        }
    }

    /// Pre-draw a pool of `n` keys.
    fn take(&mut self, n: usize) -> Vec<TelemetryKey> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// Append a non-zero payload of `width` bytes carrying `counter`
/// (little-endian after a fixed sentinel byte, so even entry 0 is
/// distinguishable from never-written store memory) to `arena`.
fn put_payload(arena: &mut Vec<u8>, counter: u64, width: usize) {
    arena.push(0xA5);
    arena.extend((0..width.max(1) - 1).map(|i| (counter >> (8 * (i % 8))) as u8));
}

/// Synthesize the workload for `spec`. Pure function of the spec (seeded
/// RNG only).
pub fn generate(spec: &ScenarioSpec) -> Workload {
    let mix = &spec.traffic;
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5CE0_A810_57EA_D511);

    let kw_layout = KwLayout::with_capacity(0, spec.service.kw_bytes, spec.service.kw_value_bytes);
    let pc_layout = PostcardLayout::with_capacity(
        0,
        spec.service.postcard_bytes,
        spec.service.postcard_hops,
        spec.service.postcard_bits,
    );
    let filter = mix.slot_disjoint_keys;
    let mut kw_pool = KeyPool::new(0, mix.kw_redundancy as usize, kw_layout.slots, 0, filter);
    let kw_keys = kw_pool.take(mix.kw_keys.max(1));
    // Flow keys must also be row-disjoint in the translator's postcard
    // cache (see KeyPool); chunk count comes from the collector layout.
    let mut pc_pool = KeyPool::new(
        1 << 40,
        spec.translator.postcard_redundancy,
        pc_layout.chunks,
        if filter { spec.translator.postcard_cache_slots } else { 0 },
        filter,
    );
    // Increments commute, so their pool needs no filtering for ordinary
    // runs — but collector-failover scenarios byte-merge surviving
    // collector regions, which requires CMS counters to be key-private
    // (see `TrafficMix::inc_slot_disjoint`). The CMS geometry is flat:
    // `slot_of(h_i(key), cms_slots)`, mirrored here exactly.
    let mut inc_pool = KeyPool::new(
        0xC0FF_EE00_0000,
        mix.inc_redundancy as usize,
        spec.service.cms_slots.max(1),
        0,
        mix.inc_slot_disjoint,
    );
    let inc_keys = inc_pool.take(mix.inc_keys.max(1));

    let path_len = spec.translator.postcard_hops;
    let weights = [mix.key_write, mix.append, mix.key_increment, mix.postcarding];
    let total_weight: u64 = mix.total_weight();
    // Congestion loop: reporters ask for a NACK when the translator's rate
    // limiter drops their report (§5.2). The flag bit changes nothing else.
    let flags = DtaFlags {
        immediate: false,
        nack_on_drop: spec.congestion.nack_on_drop,
    };

    // Every Key-Write value and Append entry lands in one arena, in
    // generation order; each report's payload becomes its slice of it
    // once the arena is complete (one allocation per workload, not two per
    // report).
    let kw_width = (spec.service.kw_value_bytes as usize).max(1);
    let append_width = (spec.service.append_entry_bytes as usize).max(1);
    let ops = spec.reporters as usize * spec.ops_per_reporter as usize;
    let mut arena = Vec::with_capacity(ops * kw_width.max(append_width));

    let mut streams = Vec::with_capacity(spec.reporters as usize);
    let mut kw_hit = vec![false; kw_keys.len()];
    let mut inc_hit = vec![false; inc_keys.len()];
    let mut pc_flows = Vec::new();
    let mut append_per_list = vec![0u64; mix.append_lists.max(1) as usize];
    let mut inc_total = 0u64;
    let mut counts = PrimitiveCounts::default();
    let mut seq = 0u32;
    let mut value_counter = 0u64;
    let mut kw_cursor = 0usize; // round-robin draw for kw_write_once

    for _reporter in 0..spec.reporters {
        let mut stream = Vec::with_capacity(spec.ops_per_reporter as usize);
        for _op in 0..spec.ops_per_reporter {
            let mut roll = rng.gen_range(0..total_weight);
            let mut primitive = 0;
            for (i, w) in weights.iter().enumerate() {
                if roll < *w as u64 {
                    primitive = i;
                    break;
                }
                roll -= *w as u64;
            }
            match primitive {
                0 => {
                    let idx = if mix.kw_write_once {
                        // Each key written at most once (spec validation
                        // guarantees the pool outlasts the op count), so
                        // delivery reordering cannot change final memory.
                        kw_cursor += 1;
                        kw_cursor - 1
                    } else {
                        rng.gen_range(0..kw_keys.len())
                    };
                    kw_hit[idx] = true;
                    value_counter += 1;
                    put_payload(&mut arena, value_counter, kw_width);
                    stream.push(
                        DtaReport::key_write(seq, kw_keys[idx], mix.kw_redundancy, Bytes::new())
                            .with_flags(flags),
                    );
                    seq += 1;
                    counts.key_write += 1;
                }
                1 => {
                    let list = rng.gen_range(0..mix.append_lists);
                    append_per_list[list as usize] += 1;
                    value_counter += 1;
                    put_payload(&mut arena, value_counter, append_width);
                    stream.push(DtaReport::append(seq, list, Bytes::new()).with_flags(flags));
                    seq += 1;
                    counts.append += 1;
                }
                2 => {
                    let idx = rng.gen_range(0..inc_keys.len());
                    inc_hit[idx] = true;
                    let delta = rng.gen_range(1..=100u64);
                    inc_total += delta;
                    stream.push(
                        DtaReport::key_increment(seq, inc_keys[idx], mix.inc_redundancy, delta)
                            .with_flags(flags),
                    );
                    seq += 1;
                    counts.key_increment += 1;
                }
                _ => {
                    // One op = one full flow, emitted contiguously by this
                    // reporter.
                    let key = pc_pool.next();
                    pc_flows.push(key);
                    for hop in 0..path_len {
                        let value = rng.gen_range(0..spec.translator.postcard_values);
                        stream.push(
                            DtaReport::postcard(seq, key, hop, path_len, value).with_flags(flags),
                        );
                        seq += 1;
                        counts.postcard += 1;
                    }
                }
            }
        }
        streams.push(stream);
    }
    let arena = Bytes::from(arena);
    let mut at = 0;
    for report in streams.iter_mut().flatten() {
        let width = match report.primitive {
            PrimitiveHeader::KeyWrite(_) => kw_width,
            PrimitiveHeader::Append(_) => append_width,
            PrimitiveHeader::KeyIncrement(_) | PrimitiveHeader::Postcarding(_) => continue,
        };
        report.payload = arena.slice(at..at + width);
        at += width;
    }
    debug_assert_eq!(at, arena.len());

    let kw_used = kw_keys
        .iter()
        .zip(&kw_hit)
        .filter_map(|(k, hit)| hit.then_some(*k))
        .collect();
    let inc_used = inc_keys
        .iter()
        .zip(&inc_hit)
        .filter_map(|(k, hit)| hit.then_some(*k))
        .collect();
    Workload { streams, kw_used, inc_used, pc_flows, append_per_list, inc_total, counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TrafficMix;
    use std::collections::HashSet;

    #[test]
    fn generation_is_deterministic() {
        let spec = ScenarioSpec::default();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.inc_total, b.inc_total);
        let other = generate(&ScenarioSpec { seed: spec.seed + 1, ..spec });
        assert_ne!(a.streams, other.streams, "seed must matter");
    }

    #[test]
    fn counts_match_streams() {
        let spec = ScenarioSpec::default();
        let w = generate(&spec);
        assert_eq!(w.streams.len(), spec.reporters as usize);
        let framed: u64 = w.streams.iter().map(|s| s.len() as u64).sum();
        assert_eq!(framed, w.counts.total());
        assert_eq!(
            w.append_per_list.iter().sum::<u64>(),
            w.counts.append,
        );
        assert_eq!(
            w.counts.postcard,
            w.pc_flows.len() as u64 * spec.translator.postcard_hops as u64
        );
        assert!(w.counts.key_write > 0 && w.counts.key_increment > 0);
        assert!(!w.kw_used.is_empty() && !w.inc_used.is_empty());
    }

    #[test]
    fn disjoint_pools_share_no_slots_or_rows() {
        let spec = ScenarioSpec {
            traffic: TrafficMix { slot_disjoint_keys: true, ..TrafficMix::default() },
            ..ScenarioSpec::default()
        };
        let w = generate(&spec);
        // Key-Write: no two used keys may share any redundancy slot.
        let layout =
            KwLayout::with_capacity(0, spec.service.kw_bytes, spec.service.kw_value_bytes);
        let family = HashFamily::new(spec.traffic.kw_redundancy as usize);
        let mut seen = HashSet::new();
        for k in &w.kw_used {
            for i in 0..spec.traffic.kw_redundancy as usize {
                assert!(
                    seen.insert(slot_of(family.hash(i, k.as_bytes()), layout.slots)),
                    "kw slot collision in filtered pool"
                );
            }
        }
        // Postcards: chunks and cache rows pairwise distinct.
        let pc_layout = PostcardLayout::with_capacity(
            0,
            spec.service.postcard_bytes,
            spec.service.postcard_hops,
            spec.service.postcard_bits,
        );
        let pc_family = HashFamily::new(spec.translator.postcard_redundancy);
        let crc = Crc32::new(CrcParams::IEEE);
        let mut chunks = HashSet::new();
        let mut rows = HashSet::new();
        for k in &w.pc_flows {
            assert!(chunks.insert(slot_of(pc_family.hash(0, k.as_bytes()), pc_layout.chunks)));
            assert!(rows
                .insert(crc.compute(k.as_bytes()) as usize % spec.translator.postcard_cache_slots));
        }
    }

    #[test]
    fn inc_slot_disjoint_pool_shares_no_cms_slots() {
        // The failover merge precondition: with `inc_slot_disjoint`, no
        // two used increment keys may share any CMS counter slot (using
        // exactly the collector's flat slot addressing).
        let spec = ScenarioSpec {
            traffic: TrafficMix {
                slot_disjoint_keys: true,
                inc_slot_disjoint: true,
                ..TrafficMix::default()
            },
            ..ScenarioSpec::default()
        };
        let w = generate(&spec);
        let family = HashFamily::new(spec.traffic.inc_redundancy as usize);
        let mut seen = HashSet::new();
        for k in &w.inc_used {
            for i in 0..spec.traffic.inc_redundancy as usize {
                assert!(
                    seen.insert(slot_of(family.hash(i, k.as_bytes()), spec.service.cms_slots)),
                    "cms slot collision in filtered pool"
                );
            }
        }
        // The default (unfiltered) pool draws the same keys it always
        // has: the filter flag must not perturb existing workloads.
        let unfiltered = generate(&ScenarioSpec {
            traffic: TrafficMix { slot_disjoint_keys: true, ..TrafficMix::default() },
            ..ScenarioSpec::default()
        });
        assert_eq!(unfiltered.inc_used, w.inc_used, "filter changed a collision-free draw");
    }

    /// The set-based filter the pool's bitmaps replaced: a candidate is
    /// rejected by a slot another key holds or a row another flow holds.
    fn reference_draw(
        base: u64,
        redundancy: usize,
        slots: u64,
        cache_rows: usize,
        n: usize,
    ) -> Vec<TelemetryKey> {
        let family = HashFamily::new(redundancy);
        let crc = Crc32::new(CrcParams::IEEE);
        let (mut used_slots, mut used_rows) = (HashSet::new(), HashSet::new());
        let mut out = Vec::new();
        for id in base.. {
            if out.len() == n {
                break;
            }
            let k = TelemetryKey::from_u64(id);
            let key_slots: Vec<u64> = (0..redundancy)
                .map(|i| slot_of(family.hash(i, k.as_bytes()), slots))
                .collect();
            if key_slots.iter().any(|s| used_slots.contains(s)) {
                continue;
            }
            if cache_rows > 0
                && !used_rows.insert(crc.compute(k.as_bytes()) as usize % cache_rows)
            {
                continue;
            }
            used_slots.extend(key_slots);
            out.push(k);
        }
        out
    }

    #[test]
    fn bitmap_pool_draws_the_set_filters_keys() {
        // Crowded slots and rows, so that rejections (by a slot, or by a
        // row after the slots passed) change which keys come next.
        let cases = [
            (8, 64, 0, 4),
            (1, 128, 24, 20),
            (2, 96, 24, 16),
            (1, 77, 0, 60),
            (8, 4096, 0, 100),
            (1, 1 << 17, 300, 200),
        ];
        for (redundancy, slots, cache_rows, n) in cases {
            let drawn = KeyPool::new(1 << 40, redundancy, slots, cache_rows, true).take(n);
            assert_eq!(drawn, reference_draw(1 << 40, redundancy, slots, cache_rows, n));
        }
        // The first case holds a key whose own slots coincide: accepted,
        // as by the set filter.
        let family = HashFamily::new(8);
        let drawn = KeyPool::new(1 << 40, 8, 64, 0, true).take(4);
        assert!(drawn.iter().any(|k| {
            let own: HashSet<u64> =
                (0..8).map(|i| slot_of(family.hash(i, k.as_bytes()), 64)).collect();
            own.len() < 8
        }));
    }

    #[test]
    #[should_panic(expected = "slot-disjoint key pool exhausted")]
    fn infeasible_disjoint_pool_fails_loudly() {
        // 512 KW slots cannot host 512 keys x 2 disjoint redundancy slots:
        // generation must panic with a diagnostic, not hang.
        let mut spec = ScenarioSpec {
            traffic: TrafficMix {
                kw_keys: 512,
                slot_disjoint_keys: true,
                ..TrafficMix::default()
            },
            ..ScenarioSpec::default()
        };
        spec.service.kw_bytes = 4096;
        let _ = generate(&spec);
    }

    #[test]
    fn payloads_are_nonzero() {
        let payload = |counter, width| {
            let mut v = Vec::new();
            put_payload(&mut v, counter, width);
            v
        };
        assert_eq!(payload(0, 4)[0], 0xA5);
        assert_eq!(payload(0, 0), vec![0xA5], "a zero width still carries the sentinel");
        assert_eq!(payload(0x0102_0304, 5), vec![0xA5, 0x04, 0x03, 0x02, 0x01]);
        assert_ne!(payload(7, 4), payload(8, 4));
    }

    #[test]
    fn payloads_are_slices_of_one_arena() {
        let w = generate(&ScenarioSpec::default());
        let payloads: Vec<&Bytes> = w
            .streams
            .iter()
            .flatten()
            .filter(|r| !r.payload.is_empty())
            .map(|r| &r.payload)
            .collect();
        assert_eq!(payloads.len() as u64, w.counts.key_write + w.counts.append);
        // Consecutive slices of one buffer, in stream order.
        for pair in payloads.windows(2) {
            assert_eq!(pair[0].as_ptr() as usize + pair[0].len(), pair[1].as_ptr() as usize);
        }
    }
}
