//! Quickstart: one reporter, one translator, one collector — all four DTA
//! primitives end to end.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use dta::collector::service::{
    CollectorService, ServiceConfig, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta::collector::{PostcardQueryOutcome, QueryOutcome, QueryPolicy};
use dta::core::{DtaReport, FlowTuple, TelemetryKey};
use dta::rdma::cm::CmRequester;
use dta::translator::{Translator, TranslatorConfig};

fn main() {
    // 1. Bring up a collector hosting all four primitive stores; it
    //    publishes one CM service per primitive (§5.3).
    let mut collector = CollectorService::new(ServiceConfig::default());

    // 2. The translator (the collector's ToR switch) connects to each
    //    service, learning rkeys, base addresses, and slot geometry.
    let mut translator = Translator::new(TranslatorConfig {
        append_batch: 4,
        ..TranslatorConfig::default()
    });
    for (service, qpn) in [
        (SERVICE_KW, 0x11),
        (SERVICE_POSTCARD, 0x12),
        (SERVICE_APPEND, 0x13),
        (SERVICE_CMS, 0x14),
    ] {
        let req = CmRequester::new(qpn, 0);
        let reply = collector.handle_cm(&req.request(service));
        let (qp, params) = req.complete(&reply).expect("service published");
        translator.connect(service, qp, params);
    }

    // Helper: run a report through translation + the collector NIC.
    let run = |tr: &mut Translator, col: &mut CollectorService, r: DtaReport| {
        for pkt in tr.process(0, &r).packets {
            col.nic_ingress(&pkt);
        }
    };

    let flow = FlowTuple::tcp(0x0A00_0001, 443, 0x0A00_0002, 8080);
    let key = TelemetryKey::flow(&flow);

    // 3. Key-Write: store a per-flow value with redundancy 2.
    run(&mut translator, &mut collector, DtaReport::key_write(0, key, 2, vec![0xDE, 0xAD, 0xBE, 0xEF]));
    let kw = collector.keywrite.as_ref().unwrap();
    match kw.query(&key, 2, QueryPolicy::Plurality) {
        QueryOutcome::Found(v) => println!("Key-Write     : flow {flow} -> {v:02x?}"),
        other => println!("Key-Write     : {other:?}"),
    }

    // 4. Postcarding: five per-hop INT postcards aggregate at the
    //    translator into a single RDMA write.
    for (hop, switch_id) in [11u32, 22, 33, 44, 55].iter().enumerate() {
        run(
            &mut translator,
            &mut collector,
            DtaReport::postcard(0, key, hop as u8, 5, *switch_id),
        );
    }
    let pc = collector.postcarding.as_ref().unwrap();
    match pc.query(&key, 1) {
        PostcardQueryOutcome::Found(path) => println!("Postcarding   : flow path = {path:?}"),
        other => println!("Postcarding   : {other:?}"),
    }

    // 5. Append: loss events batch into list 3 (batch size 4).
    for i in 0..8u32 {
        run(&mut translator, &mut collector, DtaReport::append(i, 3, (1000 + i).to_be_bytes().to_vec()));
    }
    let reader = collector.append.as_mut().unwrap();
    let events: Vec<u32> = (0..8)
        .map(|_| u32::from_be_bytes(reader.poll(3).try_into().unwrap()))
        .collect();
    println!("Append        : list 3 events = {events:?}");

    // 6. Key-Increment: counters aggregate by addition (count-min).
    for _ in 0..5 {
        run(&mut translator, &mut collector, DtaReport::key_increment(0, key, 2, 10));
    }
    let ki = collector.key_increment.as_ref().unwrap();
    println!("Key-Increment : counter = {}", ki.query(&key, 2));

    println!(
        "\nmemory instructions at collector: {} (CPU was never involved)",
        collector.memory_instructions()
    );
    let stats = translator.stats;
    println!(
        "translator    : {} reports in -> {} RDMA messages out",
        stats.reports_in, stats.rdma_out
    );
}
