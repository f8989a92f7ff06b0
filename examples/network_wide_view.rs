//! Full-network simulation: a fat-tree fabric where every edge switch
//! reports INT path-tracing data through the event-driven network to a
//! translator intercepting at the collector's ToR — packets, links, loss,
//! RoCE ACKs and all (Figure 1's architecture end to end).
//!
//! ```sh
//! cargo run --example network_wide_view
//! ```

use dta::collector::service::{CollectorService, ServiceConfig};
use dta::collector::{CollectorNode, QueryOutcome, QueryPolicy};
use dta::core::TelemetryKey;
use dta::net::{FatTree, FaultConfig, FaultInjector, LinkConfig, Network, SimTime};
use dta::reporter::reporter::Reporter;
use dta::reporter::ReporterConfig;
use dta::telemetry::int::IntPathTracing;
use dta::telemetry::traces::{TraceConfig, TraceGenerator};
use dta::translator::{FleetConfig, FleetNode, LinkKind, TranslatorConfig};

fn main() {
    // A k=4 fat tree: 20 switches, 16 hosts. The collector is host (0,0,0);
    // its edge switch (pod 0, edge 0) runs the translator.
    let ft = FatTree::new(4);
    let collector_host = ft.host(0, 0, 0);
    let translator_switch = ft.edge(0, 0);
    println!(
        "fat-tree k=4: {} switches, {} hosts; collector at {collector_host}, translator at {translator_switch}",
        ft.num_switches(),
        ft.num_hosts()
    );

    let routing = ft.topology.shortest_path_routing();
    let mut net = Network::new(routing);
    for (a, b) in ft.topology.edges() {
        net.add_duplex_link(a, b, LinkConfig::dc_100g());
    }
    // 0.5% loss on one core uplink: DTA must tolerate it.
    net.add_faults(
        ft.agg(0, 0),
        ft.core(0),
        FaultInjector::new(FaultConfig::lossy(0.005), 99),
    );

    // Collector service + CM handshakes with the translator (out of band,
    // as the switch-CPU control plane does in §5.2): the ToR node connects
    // to every service its one collector offers.
    let mut service = CollectorService::new(ServiceConfig {
        kw_bytes: 32 << 20,
        kw_value_bytes: 20,
        ..ServiceConfig::default()
    });
    let collector_ip = 0x0A00_0900;
    let translator_ip = 0x0A00_0001;
    let (translator, _admin) = FleetNode::connect(
        // One collector: the failover knobs are never consulted.
        &FleetConfig {
            translator: TranslatorConfig::default(),
            timeout_ns: 40_000,
            min_unacked: 24,
            ledger_capacity: 1,
            rebalance: None,
        },
        LinkKind::Roce { my_id: translator_switch, my_ip: translator_ip },
        &mut [(collector_host, collector_ip, &mut service)],
    );
    net.add_interceptor(translator_switch, Box::new(translator));
    net.add_node(
        collector_host,
        Box::new(CollectorNode::new(service, collector_host, collector_ip)),
    );

    // Every *other* edge switch is an INT sink reporting 5-hop paths for
    // flows it terminates.
    let mut trace = TraceGenerator::new(TraceConfig { flows: 512, ..TraceConfig::default() });
    let mut int = IntPathTracing::new(5, 1 << 12, 2);
    let mut queried_keys = Vec::new();
    let mut report_count = 0u64;
    for pod in 0..4u32 {
        for e in 0..2u32 {
            let sw = ft.edge(pod, e);
            if sw == translator_switch {
                continue;
            }
            let mut reporter = Reporter::new(ReporterConfig {
                my_id: sw,
                my_ip: 0x0A01_0000 + sw.0,
                collector_id: collector_host,
                collector_ip,
                src_port: 5000 + sw.0 as u16,
            });
            // Each sink reports 200 flows' paths.
            for _ in 0..200 {
                let pkt = trace.next_packet();
                let report = int.on_packet(&pkt);
                if queried_keys.len() < 10 {
                    queried_keys.push((pkt.flow, TelemetryKey::flow(&pkt.flow)));
                }
                let frame = reporter.frame(&report);
                net.send_from(sw, frame);
                report_count += 1;
            }
        }
    }

    net.run_until(SimTime::from_millis(100));
    println!(
        "sent {report_count} reports; network stats: {} delivered, {} intercepted, {} forwarded, {} dropped",
        net.stats.delivered, net.stats.intercepted, net.stats.forwarded, net.stats.dropped
    );

    // Take the collector node back out and run operator queries against its
    // Key-Write store.
    let node: Box<dyn std::any::Any> =
        net.remove_node(collector_host).expect("collector registered");
    let collector = node.downcast::<CollectorNode>().expect("collector node type");
    println!(
        "collector NIC: {} ops executed, {} NAKs",
        collector.stats.executed, collector.stats.naks
    );
    let store = collector.service.keywrite.as_ref().expect("kw enabled");
    let mut found = 0;
    for (flow, key) in &queried_keys {
        match store.query(key, 2, QueryPolicy::Plurality) {
            QueryOutcome::Found(v) => {
                found += 1;
                let hops: Vec<u32> = v
                    .chunks(4)
                    .map(|c| u32::from_be_bytes(c.try_into().unwrap()))
                    .collect();
                let truth = dta::telemetry::int::synthetic_path(flow, 5, 1 << 12);
                println!(
                    "flow {flow}: path {hops:?} {}",
                    if hops == truth { "(matches fabric routing)" } else { "(STALE)" }
                );
            }
            other => println!("flow {flow}: {other:?}"),
        }
    }
    println!("{found}/{} flow paths retrieved across the simulated fabric", queried_keys.len());
}
