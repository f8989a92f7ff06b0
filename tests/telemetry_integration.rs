//! Table 2 coverage: every monitoring-system integration drives its mapped
//! primitive end to end (generator → translator → collector → query).

use dta::collector::service::{
    CollectorService, ServiceConfig, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta::collector::{PostcardQueryOutcome, QueryOutcome, QueryPolicy};
use dta::core::{DtaOpcode, DtaReport, TelemetryKey};
use dta::rdma::cm::CmRequester;
use dta::telemetry::int::{synthetic_path, IntCongestionEvents, IntPathTracing, IntPostcards};
use dta::telemetry::marple::{
    MarpleFlowletSizes, MarpleHostCounters, MarpleLossyFlows, MarpleTcpTimeouts,
};
use dta::telemetry::netseer::NetSeer;
use dta::telemetry::traces::{TraceConfig, TraceGenerator};
use dta::telemetry::TABLE2_INTEGRATIONS;
use dta::translator::{Translator, TranslatorConfig};

/// Fully-connected pair for integration runs.
fn pair() -> (CollectorService, Translator) {
    let mut collector = CollectorService::new(ServiceConfig {
        append_entry_bytes: 20, // large enough for every Table 2 event
        ..ServiceConfig::default()
    });
    let mut translator = Translator::new(TranslatorConfig {
        append_batch: 4,
        ..TranslatorConfig::default()
    });
    for (service, qpn) in [
        (SERVICE_KW, 0x51),
        (SERVICE_POSTCARD, 0x52),
        (SERVICE_APPEND, 0x53),
        (SERVICE_CMS, 0x54),
    ] {
        let req = CmRequester::new(qpn, 0);
        let reply = collector.handle_cm(&req.request(service));
        let (qp, params) = req.complete(&reply).unwrap();
        translator.connect(service, qp, params);
    }
    (collector, translator)
}

fn run(c: &mut CollectorService, t: &mut Translator, r: &DtaReport) {
    for pkt in t.process(0, r).packets {
        assert!(
            matches!(c.nic_ingress(&pkt), dta::rdma::nic::RxOutcome::Executed(_)),
            "collector rejected a translated packet"
        );
    }
}

#[test]
fn int_md_path_tracing_via_key_write() {
    let (mut c, mut t) = pair();
    let mut gen = TraceGenerator::new(TraceConfig::default());
    let mut int = IntPathTracing::new(5, 1 << 12, 2);
    let pkt = gen.next_packet();
    let report = int.on_packet(&pkt);
    assert_eq!(report.header.opcode, DtaOpcode::KeyWrite);
    run(&mut c, &mut t, &report);
    // The paper's KW store is sized for 4B values by default; for 20B paths
    // the harness uses a 20B store — here we verify the first 4 bytes land.
    let kw = c.keywrite.as_ref().unwrap();
    let got = kw.query(&TelemetryKey::flow(&pkt.flow), 2, QueryPolicy::Plurality);
    let truth = synthetic_path(&pkt.flow, 5, 1 << 12);
    match got {
        QueryOutcome::Found(v) => {
            assert_eq!(&v[..4], &truth[0].to_be_bytes(), "first hop mismatch");
        }
        other => panic!("path not stored: {other:?}"),
    }
}

#[test]
fn int_xd_postcards_via_postcarding() {
    let (mut c, mut t) = pair();
    let mut gen = TraceGenerator::new(TraceConfig::default());
    let mut int = IntPostcards::new(1.0, 5, 1 << 12, 5);
    let pkt = gen.next_packet();
    for report in int.on_packet(&pkt) {
        assert_eq!(report.header.opcode, DtaOpcode::Postcarding);
        run(&mut c, &mut t, &report);
    }
    let store = c.postcarding.as_ref().unwrap();
    assert_eq!(
        store.query(&TelemetryKey::flow(&pkt.flow), 1),
        PostcardQueryOutcome::Found(synthetic_path(&pkt.flow, 5, 1 << 12))
    );
}

#[test]
fn int_congestion_events_via_append() {
    let (mut c, mut t) = pair();
    let mut gen = TraceGenerator::new(TraceConfig::default());
    let mut events = IntCongestionEvents::new(5_000, 2, 3);
    let mut emitted = 0;
    for _ in 0..5_000 {
        if let Some(r) = events.on_packet(&gen.next_packet()) {
            assert_eq!(r.header.opcode, DtaOpcode::Append);
            run(&mut c, &mut t, &r);
            emitted += 1;
        }
    }
    assert!(emitted > 0);
    // Entries are pollable after flushing partial batches.
    for pkt in t.flush(0).packets {
        c.nic_ingress(&pkt);
    }
    let reader = c.append.as_mut().unwrap();
    let first = reader.poll(2);
    let depth = u32::from_be_bytes(first[..4].try_into().unwrap());
    assert!(depth > 5_000);
}

#[test]
fn marple_flowlets_and_lossy_flows_via_append() {
    let (mut c, mut t) = pair();
    let mut gen = TraceGenerator::new(TraceConfig::default());
    let mut flowlets = MarpleFlowletSizes::new(500_000, 8, 4);
    let mut lossy = MarpleLossyFlows::new(0.01, 0, 0.05, 64, 5);
    let mut n = 0;
    for _ in 0..100_000 {
        let pkt = gen.next_packet();
        for r in [flowlets.on_packet(&pkt), lossy.on_packet(&pkt)].into_iter().flatten() {
            assert_eq!(r.header.opcode, DtaOpcode::Append);
            run(&mut c, &mut t, &r);
            n += 1;
        }
    }
    assert!(n > 50, "only {n} Marple append reports");
}

#[test]
fn marple_timeouts_via_key_write_match_ground_truth() {
    let (mut c, mut t) = pair();
    let mut gen = TraceGenerator::new(TraceConfig { flows: 64, ..TraceConfig::default() });
    let mut timeouts = MarpleTcpTimeouts::new(0.01, 2, 6);
    let mut flows = Vec::new();
    for _ in 0..50_000 {
        let pkt = gen.next_packet();
        if let Some(r) = timeouts.on_packet(&pkt) {
            run(&mut c, &mut t, &r);
            if !flows.contains(&pkt.flow) {
                flows.push(pkt.flow);
            }
        }
    }
    let kw = c.keywrite.as_ref().unwrap();
    let mut verified = 0;
    for flow in flows.iter().take(20) {
        if let QueryOutcome::Found(v) = kw.query(&TelemetryKey::flow(flow), 2, QueryPolicy::Plurality) {
            let count = u32::from_be_bytes(v[..4].try_into().unwrap());
            assert_eq!(count, timeouts.true_count(flow), "stale count for {flow}");
            verified += 1;
        }
    }
    assert!(verified > 10, "too few verifiable flows: {verified}");
}

#[test]
fn marple_host_counters_via_key_increment() {
    let (mut c, mut t) = pair();
    let mut gen = TraceGenerator::new(TraceConfig { hosts: 64, ..TraceConfig::default() });
    let mut hosts = MarpleHostCounters::new(16, 2);
    let n = 20_000u64;
    let mut host_truth = std::collections::BTreeMap::new();
    for _ in 0..n {
        let pkt = gen.next_packet();
        *host_truth.entry(pkt.flow.src_ip).or_insert(0u64) += 1;
        if let Some(r) = hosts.on_packet(&pkt) {
            assert_eq!(r.header.opcode, DtaOpcode::KeyIncrement);
            run(&mut c, &mut t, &r);
        }
    }
    for r in hosts.flush().iter() {
        run(&mut c, &mut t, r);
    }
    // Count-min: estimates are upper bounds of the truth; sum-preservation
    // was asserted by eviction totals. Verify per-host lower bound.
    let ki = c.key_increment.as_ref().unwrap();
    for (ip, truth) in host_truth {
        let est = ki.query(&TelemetryKey::src_ip(ip), 2);
        assert!(est >= truth, "host {ip:#x}: est {est} < truth {truth}");
    }
}

#[test]
fn netseer_loss_events_via_append() {
    let (mut c, mut t) = pair();
    let mut gen = TraceGenerator::new(TraceConfig::default());
    let mut netseer = NetSeer::new(0.01, 4, 1, 1);
    let mut appended = 0u64;
    for _ in 0..20_000 {
        if let Some(r) = netseer.on_packet(&gen.next_packet()) {
            assert_eq!(r.header.opcode, DtaOpcode::Append);
            run(&mut c, &mut t, &r);
            appended += 1;
        }
    }
    assert!(appended > 100, "NetSeer silent: {appended} loss events");
}

#[test]
fn table2_inventory_is_complete() {
    // 15 integrations across 4 primitives, as in the paper's Table 2.
    assert_eq!(TABLE2_INTEGRATIONS.len(), 15);
    for primitive in ["Key-Write", "Postcarding", "Append", "Key-Increment"] {
        assert!(
            TABLE2_INTEGRATIONS.iter().any(|(_, _, p)| *p == primitive),
            "no integration for {primitive}"
        );
    }
}
