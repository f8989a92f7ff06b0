//! Marple queries over DTA (the Figure 7b workloads).
//!
//! Three Marple queries run on a simulated switch against a synthetic DC
//! trace; their reports flow through the translator into the collector:
//!
//! * Lossy Flows  -> Append lists bucketed by loss-rate range
//! * TCP Timeouts -> Key-Write keyed by flow
//! * Flowlet Sizes-> Append lists bucketed by flowlet size
//!
//! ```sh
//! cargo run --example marple_queries
//! ```

use dta::collector::service::{CollectorService, ServiceConfig, SERVICE_APPEND, SERVICE_KW};
use dta::collector::{QueryOutcome, QueryPolicy};
use dta::core::TelemetryKey;
use dta::rdma::cm::CmRequester;
use dta::telemetry::marple::{MarpleFlowletSizes, MarpleLossyFlows, MarpleTcpTimeouts};
use dta::telemetry::traces::{TraceConfig, TraceGenerator};
use dta::translator::{Translator, TranslatorConfig};

/// Lossy-flow lists start here (one per loss-rate range).
const LOSSY_BASE_LIST: u32 = 0;
/// Flowlet-size lists start here (one per log2 size bucket).
const FLOWLET_BASE_LIST: u32 = 8;

fn main() {
    let mut collector = CollectorService::new(ServiceConfig {
        append_lists: 16,
        append_entries: 1 << 16,
        append_entry_bytes: 20, // 13B flow id + counter, padded
        ..ServiceConfig::default()
    });
    let mut translator = Translator::new(TranslatorConfig {
        append_batch: 8,
        ..TranslatorConfig::default()
    });
    for service in [SERVICE_KW, SERVICE_APPEND] {
        let req = CmRequester::new(0x30 + service as u32, 0);
        let reply = collector.handle_cm(&req.request(service));
        let (qp, params) = req.complete(&reply).expect("published");
        translator.connect(service, qp, params);
    }

    // The three Marple queries on the switch.
    let mut lossy = MarpleLossyFlows::new(0.01, LOSSY_BASE_LIST, 0.03, 64, 1);
    let mut timeouts = MarpleTcpTimeouts::new(0.002, 2, 2);
    let mut flowlets = MarpleFlowletSizes::new(500_000, FLOWLET_BASE_LIST, 6);

    let mut trace = TraceGenerator::new(TraceConfig::default());
    let mut sample_flow = None;
    for _ in 0..300_000 {
        let pkt = trace.next_packet();
        let reports = [
            lossy.on_packet(&pkt),
            timeouts.on_packet(&pkt),
            flowlets.on_packet(&pkt),
        ];
        for report in reports.into_iter().flatten() {
            for roce in translator.process(pkt.ts_ns, &report).packets {
                collector.nic_ingress(&roce);
            }
        }
        if timeouts.true_count(&pkt.flow) >= 2 {
            sample_flow.get_or_insert(pkt.flow);
        }
    }
    // Push out partial batches so recent reports are pollable.
    for roce in translator.flush(u64::MAX).packets {
        collector.nic_ingress(&roce);
    }

    println!("flowlet reports  : {}", flowlets.emitted);
    println!("translator stats : {} reports -> {} RDMA messages", translator.stats.reports_in, translator.stats.rdma_out);

    // Operator query 1: recent lossy flows in the worst loss-rate range.
    let reader = collector.append.as_mut().expect("append enabled");
    let recent: Vec<Vec<u8>> = reader.poll_n(LOSSY_BASE_LIST + 2, 3);
    println!("3 worst-range lossy-flow records (13B flow ids): {:?}",
        recent.iter().map(|e| &e[..13]).collect::<Vec<_>>());

    // Operator query 2: timeouts for a flow that actually timed out.
    if let Some(flow) = sample_flow {
        let kw = collector.keywrite.as_ref().unwrap();
        match kw.query(&TelemetryKey::flow(&flow), 2, QueryPolicy::Plurality) {
            QueryOutcome::Found(v) => {
                let count = u32::from_be_bytes(v[..4].try_into().unwrap());
                println!(
                    "flow {flow}: {count} TCP timeouts reported (ground truth {})",
                    timeouts.true_count(&flow)
                );
            }
            other => println!("flow {flow}: {other:?}"),
        }
    }

    // Operator query 3: flowlet-size histogram from the bucketed lists.
    let reader = collector.append.as_mut().unwrap();
    let hist: Vec<u64> = (0..6).map(|b| reader.tail(FLOWLET_BASE_LIST + b)).collect();
    println!("flowlet log2-size bucket tails (polled so far): {hist:?}");
}
