//! Sharded-vs-single-threaded equivalence.
//!
//! For a randomized report stream, the [`ShardedTranslator`] at N ∈ {1,2,4}
//! shards and the single-threaded [`Translator`] must leave **byte-identical
//! collector memory** after flush. This is the correctness contract of the
//! sharding design: key-partitioned dispatch preserves per-key (and
//! per-list) order, Key-Increment commutes, and nothing else about
//! interleaving may be observable in the stores.
//!
//! Sharding intentionally does NOT preserve order *across* keys, so the
//! generated stream avoids the one case where cross-key order is
//! observable: distinct keys whose redundancy slots collide in the same
//! store (last-writer-wins races that even real deployments consider
//! unresolved hash collisions). Key pools are pre-filtered to be
//! slot-disjoint; everything else — op mix, interleaving, values, repeats —
//! is driven by the property inputs.

use dta_collector::layout::{KwLayout, PostcardLayout};
use dta_collector::service::{
    CollectorService, ServiceConfig, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta_core::{DtaReport, TelemetryKey};
use dta_hash::family::slot_of;
use dta_hash::HashFamily;
use dta_rdma::cm::CmRequester;
use dta_translator::{ShardedConfig, ShardedTranslator, Translator, TranslatorConfig};
use proptest::prelude::*;

const KW_REDUNDANCY: usize = 2;
const POSTCARD_VALUES: u32 = 1 << 12;
const APPEND_BATCH: usize = 4;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        kw_bytes: 1 << 16,
        postcard_bytes: 1 << 16,
        append_lists: 8,
        append_entries: 512,
        cms_slots: 1 << 12,
        ..ServiceConfig::default()
    }
}

fn translator_config() -> TranslatorConfig {
    TranslatorConfig {
        append_batch: APPEND_BATCH,
        postcard_values: POSTCARD_VALUES,
        ..TranslatorConfig::default()
    }
}

/// Keys whose Key-Write redundancy slots are pairwise disjoint (and
/// disjoint from each other's), so final slot bytes depend only on per-key
/// order — the thing sharding guarantees.
fn kw_key_pool(n: usize) -> Vec<TelemetryKey> {
    let cfg = service_config();
    let layout = KwLayout::with_capacity(0, cfg.kw_bytes, cfg.kw_value_bytes);
    let family = HashFamily::new(KW_REDUNDANCY);
    let mut used = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut id = 0u64;
    while out.len() < n {
        let k = TelemetryKey::from_u64(id);
        id += 1;
        let slots: Vec<u64> = (0..KW_REDUNDANCY)
            .map(|i| slot_of(family.hash(i, k.as_bytes()), layout.slots))
            .collect();
        if slots.iter().any(|s| used.contains(s)) {
            continue;
        }
        used.extend(slots);
        out.push(k);
    }
    out
}

/// Postcard flow keys with pairwise-disjoint chunk slots (redundancy 1).
fn postcard_key_pool(n: usize) -> Vec<TelemetryKey> {
    let cfg = service_config();
    let layout =
        PostcardLayout::with_capacity(0, cfg.postcard_bytes, cfg.postcard_hops, cfg.postcard_bits);
    let family = HashFamily::new(1);
    let mut used = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut id = 1u64 << 32; // distinct id space from the KW pool
    while out.len() < n {
        let k = TelemetryKey::from_u64(id);
        id += 1;
        let chunk = slot_of(family.hash(0, k.as_bytes()), layout.chunks);
        if used.insert(chunk) {
            out.push(k);
        }
    }
    out
}

/// Decode one raw 64-bit property input into reports. Postcard flows expand
/// to their full 5-hop path, delivered contiguously (a partial or
/// interleaved flow would make translator-cache eviction order observable,
/// which sharding does not and need not preserve).
fn decode_op(raw: u64, kw: &[TelemetryKey], pc: &[TelemetryKey], out: &mut Vec<DtaReport>) {
    let x = ((raw >> 2) & 0xFFFF) as usize;
    let v = (raw >> 18) as u32;
    match raw & 3 {
        0 => out.push(DtaReport::key_write(
            0,
            kw[x % kw.len()],
            KW_REDUNDANCY as u8,
            v.to_be_bytes().to_vec(),
        )),
        1 => out.push(DtaReport::key_increment(
            0,
            TelemetryKey::from_u64(0xC0FF_EE00_0000 + (x as u64 % 32)),
            2,
            (v as u64 % 256) + 1,
        )),
        2 => {
            let key = pc[x % pc.len()];
            for hop in 0..5u8 {
                out.push(DtaReport::postcard(0, key, hop, 5, (v + hop as u32) % POSTCARD_VALUES));
            }
        }
        _ => out.push(DtaReport::append(0, x as u32 % 8, v.to_be_bytes().to_vec())),
    }
}

/// Every region's bytes, rkey-keyed, after the run.
fn snapshot(svc: &CollectorService) -> Vec<(u32, Vec<u8>)> {
    let mut regions: Vec<(u32, Vec<u8>)> = svc
        .nic
        .memory
        .regions()
        .map(|r| (r.rkey, r.peek(r.base_va, r.len()).unwrap()))
        .collect();
    regions.sort_by_key(|(rkey, _)| *rkey);
    regions
}

fn run_single(reports: &[DtaReport]) -> Vec<(u32, Vec<u8>)> {
    let mut svc = CollectorService::new(service_config());
    let mut tr = Translator::new(translator_config());
    for (service, qpn) in [
        (SERVICE_KW, 1u32),
        (SERVICE_POSTCARD, 2),
        (SERVICE_APPEND, 3),
        (SERVICE_CMS, 4),
    ] {
        let req = CmRequester::new(qpn, 0);
        let reply = svc.handle_cm(&req.request(service));
        let (qp, params) = req.complete(&reply).unwrap();
        tr.connect(service, qp, params);
    }
    for r in reports {
        for pkt in tr.process(0, r).packets {
            svc.nic_ingress(&pkt);
        }
    }
    for pkt in tr.flush(0).packets {
        svc.nic_ingress(&pkt);
    }
    snapshot(&svc)
}

fn run_sharded(shards: usize, reports: &[DtaReport]) -> Vec<(u32, Vec<u8>)> {
    let mut svc = CollectorService::new(service_config());
    let mut st = ShardedTranslator::connect(
        ShardedConfig { shards, translator: translator_config() },
        &mut svc,
    );
    st.ingest_batch(0, reports.iter().cloned());
    st.wait_idle();
    let report = st.flush_and_join();
    assert_eq!(report.translator.reports_in, reports.len() as u64);
    snapshot(&svc)
}

proptest! {
    #[test]
    fn sharded_memory_equals_single_threaded(
        raw in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        let kw = kw_key_pool(48);
        let pc = postcard_key_pool(24);
        let mut reports = Vec::new();
        for r in &raw {
            decode_op(*r, &kw, &pc, &mut reports);
        }
        let reference = run_single(&reports);
        for shards in [1usize, 2, 4] {
            let got = run_sharded(shards, &reports);
            prop_assert_eq!(
                reference.len(),
                got.len(),
                "region count differs at {} shards", shards
            );
            for ((rkey_a, bytes_a), (rkey_b, bytes_b)) in reference.iter().zip(&got) {
                prop_assert_eq!(rkey_a, rkey_b);
                prop_assert!(
                    bytes_a == bytes_b,
                    "collector memory diverged at {} shards (rkey {:#x}): first diff at byte {:?}",
                    shards,
                    rkey_a,
                    bytes_a.iter().zip(bytes_b.iter()).position(|(a, b)| a != b)
                );
            }
        }
    }
}
