//! Integration tests for the §7 extensions: multi-collector partitioning,
//! PFC lossless transport, push notifications, over-MTU Append batches, and
//! trajectory sampling.

use dta::collector::service::{CollectorService, ServiceConfig, SERVICE_KW};
use dta::collector::QueryPolicy;
use dta::core::{DtaReport, TelemetryKey};
use dta::net::{Link, LinkConfig, SimTime};
use dta::rdma::cm::CmRequester;
use dta::telemetry::trajectory::TrajectorySampling;
use dta::telemetry::traces::{TraceConfig, TraceGenerator};
use dta::translator::{Partitioner, Translator, TranslatorConfig};

/// Connect a translator to one collector's KW service.
fn kw_pair() -> (CollectorService, Translator) {
    let mut c = CollectorService::new(ServiceConfig::default());
    let mut t = Translator::new(TranslatorConfig::default());
    let req = CmRequester::new(0x61, 0);
    let reply = c.handle_cm(&req.request(SERVICE_KW));
    let (qp, params) = req.complete(&reply).unwrap();
    t.connect_key_write(qp, params);
    (c, t)
}

#[test]
fn multi_collector_partitioning_shards_and_colocates() {
    // Two collectors, each with its own translator path; the partitioner
    // routes each report by key hash (§7: "Supporting Multiple Collectors").
    let mut shards: Vec<(CollectorService, Translator)> = (0..2).map(|_| kw_pair()).collect();
    let partitioner = Partitioner::new(2);

    let n = 400u64;
    for i in 0..n {
        let report = DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 2, vec![i as u8; 4]);
        let shard = partitioner.route(&report) as usize;
        let (c, t) = &mut shards[shard];
        for pkt in t.process(0, &report).packets {
            c.nic_ingress(&pkt);
        }
    }
    // Every key must be queryable on exactly the shard the partitioner
    // names — and absent from the other.
    for i in 0..n {
        let key = TelemetryKey::from_u64(i);
        let report = DtaReport::key_write(0, key, 2, vec![0; 4]);
        let home = partitioner.route(&report) as usize;
        let other = 1 - home;
        let home_store = shards[home].0.keywrite.as_ref().unwrap();
        assert!(
            home_store.query(&key, 2, QueryPolicy::Plurality).is_found(),
            "key {i} missing from its home shard"
        );
        let other_store = shards[other].0.keywrite.as_ref().unwrap();
        assert!(
            !other_store.query(&key, 2, QueryPolicy::Plurality).is_found(),
            "key {i} leaked to the wrong shard"
        );
    }
    // Both shards got meaningful load.
    let i0 = shards[0].0.memory_instructions();
    let i1 = shards[1].0.memory_instructions();
    assert!(i0 > 100 && i1 > 100, "imbalanced shards: {i0} vs {i1}");
}

#[test]
fn pfc_lossless_link_absorbs_burst_without_drops() {
    // §7 "Flow Control in DTA": with PFC, a burst that would overflow a
    // lossy queue is paused instead of dropped.
    let mut lossy = Link::new(LinkConfig {
        queue_bytes: 16 * 1024,
        ..LinkConfig::dc_100g()
    });
    let mut lossless = Link::new(LinkConfig {
        queue_bytes: 16 * 1024,
        ..LinkConfig::dc_100g_lossless()
    });
    let mut lossy_drops = 0;
    let mut lossless_drops = 0;
    for _ in 0..2000 {
        if matches!(
            lossy.enqueue(SimTime::ZERO, 1500),
            dta::net::link::EnqueueOutcome::Dropped
        ) {
            lossy_drops += 1;
        }
        if matches!(
            lossless.enqueue(SimTime::ZERO, 1500),
            dta::net::link::EnqueueOutcome::Dropped
        ) {
            lossless_drops += 1;
        }
    }
    assert!(lossy_drops > 0, "lossy link must tail-drop the burst");
    assert_eq!(lossless_drops, 0, "PFC link must never drop");
    assert!(lossless.is_paused(), "PFC must be asserting pause");
    assert!(lossless.stats.pauses > 0);
}

#[test]
fn trajectory_sampling_reconstructs_labels_via_postcarding() {
    use dta::collector::service::SERVICE_POSTCARD;
    use dta::collector::PostcardQueryOutcome;

    let mut c = CollectorService::new(ServiceConfig {
        postcard_values: 1 << 12,
        ..ServiceConfig::default()
    });
    let mut t = Translator::new(TranslatorConfig::default());
    let req = CmRequester::new(0x63, 0);
    let reply = c.handle_cm(&req.request(SERVICE_POSTCARD));
    let (qp, params) = req.complete(&reply).unwrap();
    t.connect_postcarding(qp, params);

    let mut ts = TrajectorySampling::new(0.02, 5, 1 << 12);
    let mut gen = TraceGenerator::new(TraceConfig::default());
    let mut sampled_keys = Vec::new();
    for _ in 0..20_000 {
        let pkt = gen.next_packet();
        let reports = ts.on_packet(&pkt);
        if !reports.is_empty() {
            if let dta::core::PrimitiveHeader::Postcarding(h) = reports[0].primitive {
                if sampled_keys.len() < 20 && !sampled_keys.iter().any(|(k, _)| *k == h.key) {
                    sampled_keys.push((h.key, ts.label(&pkt)));
                }
            }
        }
        for r in reports {
            for pkt in t.process(0, &r).packets {
                c.nic_ingress(&pkt);
            }
        }
    }
    assert!(ts.sampled > 50, "sampler too quiet: {}", ts.sampled);
    // Each sampled packet's label is recoverable from every hop.
    let store = c.postcarding.as_ref().unwrap();
    let mut verified = 0;
    for (key, label) in &sampled_keys {
        if let PostcardQueryOutcome::Found(path) = store.query(key, 1) {
            assert!(path.iter().all(|v| v == label), "label mismatch on a hop");
            verified += 1;
        }
    }
    assert!(verified >= sampled_keys.len() / 2, "too few trajectories retrievable");
}

#[test]
fn push_notifications_deliver_immediates_in_order() {
    let (mut c, mut t) = kw_pair();
    for i in 0..5u32 {
        let r = DtaReport::key_write(i, TelemetryKey::from_u64(i as u64), 1, vec![0; 4])
            .with_flags(dta::core::DtaFlags { immediate: true, nack_on_drop: false });
        for pkt in t.process(0, &r).packets {
            c.nic_ingress(&pkt);
        }
    }
    let imms: Vec<u32> = std::iter::from_fn(|| c.nic.poll_completion())
        .map(|wc| wc.imm.expect("immediate set"))
        .collect();
    assert_eq!(imms, vec![0, 1, 2, 3, 4]);
}

#[test]
fn over_mtu_append_batches_segment_and_reassemble() {
    use dta::collector::service::SERVICE_APPEND;
    // 64 entries of 64B = 4KiB batches, far over the 1KiB MTU.
    let mut c = CollectorService::new(ServiceConfig {
        append_lists: 2,
        append_entries: 1 << 12,
        append_entry_bytes: 64,
        ..ServiceConfig::default()
    });
    let mut t = Translator::new(TranslatorConfig {
        append_batch: 64,
        ..TranslatorConfig::default()
    });
    let req = CmRequester::new(0x64, 0);
    let reply = c.handle_cm(&req.request(SERVICE_APPEND));
    let (qp, params) = req.complete(&reply).unwrap();
    t.connect_append(qp, params);

    let mut packets_out = 0;
    for i in 0..64u32 {
        let mut entry = vec![0u8; 64];
        entry[..4].copy_from_slice(&i.to_be_bytes());
        let out = t.process(0, &DtaReport::append(i, 0, entry));
        for pkt in &out.packets {
            assert!(matches!(
                c.nic_ingress(pkt),
                dta::rdma::nic::RxOutcome::Executed(_)
            ));
        }
        packets_out += out.packets.len();
    }
    // One 4KiB batch at MTU 1024 = 4 segments.
    assert_eq!(packets_out, 4, "expected a segmented 4-packet write");

    // A partial batch the timer flushes is the same zero-padded 4KiB row,
    // so it must leave as the same 4 segments, not one over-MTU WRITE-Only.
    for i in 64..74u32 {
        let mut entry = vec![0u8; 64];
        entry[..4].copy_from_slice(&i.to_be_bytes());
        assert!(t.process(0, &DtaReport::append(i, 0, entry)).packets.is_empty());
    }
    let flushed = t.flush(0).packets;
    assert_eq!(flushed.len(), 4, "flushed partial batch must be segmented");
    for pkt in &flushed {
        assert!(pkt.payload.len() <= 1024, "segment over the MTU");
        assert!(matches!(
            c.nic_ingress(pkt),
            dta::rdma::nic::RxOutcome::Executed(_)
        ));
    }

    let reader = c.append.as_mut().unwrap();
    for i in 0..74u32 {
        let entry = reader.poll(0);
        assert_eq!(&entry[..4], &i.to_be_bytes(), "entry {i} corrupted");
    }
}
