//! End-to-end integration: reporters → simulated fabric → translator
//! (intercepting ToR) → RoCE → collector NIC → queryable stores.

use dta::collector::service::{CollectorService, ServiceConfig};
use dta::collector::{CollectorNode, QueryOutcome, QueryPolicy};
use dta::core::{DtaReport, TelemetryKey};
use dta::net::{FatTree, FaultConfig, FaultInjector, LinkConfig, Network, NodeId, Routing, SimTime};
use dta::reporter::reporter::Reporter;
use dta::reporter::ReporterConfig;
use dta::translator::{
    FleetConfig, FleetNode, FleetRunReport, LinkKind, RateLimiterConfig, TranslatorConfig,
};

const COLLECTOR_IP: u32 = 0x0A00_0900;
const TRANSLATOR_IP: u32 = 0x0A00_0001;

/// The ToR translator at node `tor`, fronting the one collector `service`
/// at node `collector` over RoCE, connected to every service it offers.
fn tor_node(
    tr: TranslatorConfig,
    tor: NodeId,
    collector: NodeId,
    service: &mut CollectorService,
) -> FleetNode {
    // One collector: the failover knobs are never consulted.
    let config = FleetConfig {
        translator: tr,
        timeout_ns: 40_000,
        min_unacked: 24,
        ledger_capacity: 1,
        rebalance: None,
    };
    let kind = LinkKind::Roce { my_id: tor, my_ip: TRANSLATOR_IP };
    FleetNode::connect(&config, kind, &mut [(collector, COLLECTOR_IP, service)]).0
}

/// Minimal line topology: reporter(0) -- translator(1) -- collector(2).
fn line_setup(svc: ServiceConfig, tr: TranslatorConfig) -> (Network, Reporter) {
    let mut topo = dta::net::Topology::new(3);
    topo.connect(NodeId(0), NodeId(1));
    topo.connect(NodeId(1), NodeId(2));
    let mut net = Network::new(topo.shortest_path_routing());
    net.add_duplex_link(NodeId(0), NodeId(1), LinkConfig::dc_100g());
    net.add_duplex_link(NodeId(1), NodeId(2), LinkConfig::dc_100g());

    let mut service = CollectorService::new(svc);
    net.add_interceptor(NodeId(1), Box::new(tor_node(tr, NodeId(1), NodeId(2), &mut service)));
    net.add_node(NodeId(2), Box::new(CollectorNode::new(service, NodeId(2), COLLECTOR_IP)));
    let reporter = Reporter::new(ReporterConfig {
        my_id: NodeId(0),
        my_ip: 0x0A00_0002,
        collector_id: NodeId(2),
        collector_ip: COLLECTOR_IP,
        src_port: 4000,
    });
    (net, reporter)
}

fn take_collector(net: &mut Network) -> Box<CollectorNode> {
    let node: Box<dyn std::any::Any> = net.remove_node(NodeId(2)).expect("collector");
    node.downcast::<CollectorNode>().expect("collector type")
}

/// Take the translator off the fabric and close out its run counters.
fn take_translator(net: &mut Network) -> FleetRunReport {
    let node: Box<dyn std::any::Any> = net.remove_node(NodeId(1)).expect("translator");
    node.downcast::<FleetNode>().expect("translator type").finish()
}

#[test]
fn key_write_survives_the_network_path() {
    let (mut net, mut reporter) =
        line_setup(ServiceConfig::default(), TranslatorConfig::default());
    for i in 0..100u64 {
        let r = DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 2, vec![i as u8; 4]);
        let pkt = reporter.frame(&r);
        net.send_from(NodeId(0), pkt);
    }
    net.run_to_idle();
    let collector = take_collector(&mut net);
    let store = collector.service.keywrite.as_ref().unwrap();
    let mut found = 0;
    for i in 0..100u64 {
        if let QueryOutcome::Found(v) =
            store.query(&TelemetryKey::from_u64(i), 2, QueryPolicy::Plurality)
        {
            assert_eq!(v, vec![i as u8; 4]);
            found += 1;
        }
    }
    // 100 keys over 128K slots: losing any key is statistically impossible.
    assert_eq!(found, 100);
    // ACKs flowed back to the translator.
    assert_eq!(collector.stats.executed, 200);
}

#[test]
fn append_ordering_preserved_across_network() {
    let (mut net, mut reporter) = line_setup(
        ServiceConfig::default(),
        TranslatorConfig { append_batch: 4, ..TranslatorConfig::default() },
    );
    for i in 0..64u32 {
        let pkt = reporter.frame(&DtaReport::append(i, 5, i.to_be_bytes().to_vec()));
        net.send_from(NodeId(0), pkt);
    }
    net.run_to_idle();
    let mut collector = take_collector(&mut net);
    let reader = collector.service.append.as_mut().unwrap();
    for i in 0..64u32 {
        assert_eq!(reader.poll(5), i.to_be_bytes().to_vec(), "entry {i} out of order");
    }
}

#[test]
fn report_loss_degrades_gracefully() {
    let (mut net, mut reporter) =
        line_setup(ServiceConfig::default(), TranslatorConfig::default());
    // 30% loss between reporter and translator: DTA is best-effort.
    net.add_faults(NodeId(0), NodeId(1), FaultInjector::new(FaultConfig::lossy(0.3), 7));
    let n = 500u64;
    for i in 0..n {
        let r = DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 2, vec![1; 4]);
        net.send_from(NodeId(0), reporter.frame(&r));
    }
    net.run_to_idle();
    let dropped = net.stats.dropped;
    assert!(dropped > 50, "fault injector should drop ~30%: {dropped}");
    let collector = take_collector(&mut net);
    let store = collector.service.keywrite.as_ref().unwrap();
    let found = (0..n)
        .filter(|i| {
            store
                .query(&TelemetryKey::from_u64(*i), 2, QueryPolicy::Plurality)
                .is_found()
        })
        .count() as u64;
    // Every delivered report must be queryable; every lost one must not.
    assert_eq!(found + dropped, n, "found {found} + dropped {dropped} != {n}");
}

#[test]
fn duplicated_key_write_reports_are_idempotent_at_the_collector() {
    // Duplicate delivery on the report hop: the translator translates the
    // same Key-Write twice, producing two RDMA writes of the same image to
    // the same slots — last-writer-wins makes the duplicate a no-op. This
    // is the RoCE-retransmit-shaped fault the primitives must absorb.
    let (mut net, mut reporter) =
        line_setup(ServiceConfig::default(), TranslatorConfig::default());
    net.add_faults(
        NodeId(0),
        NodeId(1),
        FaultInjector::new(
            FaultConfig { duplicate_chance: 1.0, ..FaultConfig::none() },
            21,
        ),
    );
    let n = 50u64;
    for i in 0..n {
        let r = DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 2, vec![i as u8; 4]);
        net.send_from(NodeId(0), reporter.frame(&r));
    }
    net.run_to_idle();
    let translator = take_translator(&mut net);
    assert_eq!(translator.translator.reports_in, 2 * n, "every report seen twice");
    let collector = take_collector(&mut net);
    // 2 writes per copy, 2 copies per report — and every key still reads
    // back exactly its own value.
    assert_eq!(collector.stats.executed, 4 * n);
    let store = collector.service.keywrite.as_ref().unwrap();
    for i in 0..n {
        assert_eq!(
            store.query(&TelemetryKey::from_u64(i), 2, QueryPolicy::Plurality),
            QueryOutcome::Found(vec![i as u8; 4]),
            "key {i} corrupted by duplicate delivery"
        );
    }
}

#[test]
fn duplicated_roce_packets_are_dropped_by_psn_discipline() {
    // Duplicate delivery on the RDMA hop: the copy arrives with an
    // already-consumed PSN and the collector NIC silently drops it —
    // memory is written exactly once per report.
    let (mut net, mut reporter) =
        line_setup(ServiceConfig::default(), TranslatorConfig::default());
    net.add_faults(
        NodeId(1),
        NodeId(2),
        FaultInjector::new(
            FaultConfig { duplicate_chance: 1.0, ..FaultConfig::none() },
            22,
        ),
    );
    let n = 50u64;
    for i in 0..n {
        let r = DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 2, vec![7; 4]);
        net.send_from(NodeId(0), reporter.frame(&r));
        net.run_to_idle();
    }
    let collector = take_collector(&mut net);
    assert_eq!(collector.stats.executed, 2 * n, "each write executes once");
    assert_eq!(collector.stats.dropped, 2 * n, "each duplicate PSN-drops");
    let store = collector.service.keywrite.as_ref().unwrap();
    for i in 0..n {
        assert_eq!(
            store.query(&TelemetryKey::from_u64(i), 2, QueryPolicy::Plurality),
            QueryOutcome::Found(vec![7; 4]),
            "key {i}"
        );
    }
}

#[test]
fn corrupted_roce_packets_are_rejected_by_icrc() {
    let (mut net, mut reporter) =
        line_setup(ServiceConfig::default(), TranslatorConfig::default());
    // Corruption on the translator->collector RDMA hop.
    net.add_faults(
        NodeId(1),
        NodeId(2),
        FaultInjector::new(
            FaultConfig { corrupt_chance: 0.5, ..FaultConfig::none() },
            3,
        ),
    );
    // Send sequentially so NAK-driven resynchronization can keep the PSN
    // stream alive between reports (steady-state traffic, not one burst).
    for i in 0..200u64 {
        let r = DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 1, vec![2; 4]);
        net.send_from(NodeId(0), reporter.frame(&r));
        net.run_to_idle();
    }
    let collector = take_collector(&mut net);
    // A corrupted packet is dropped (ICRC / IPv4 checksum), and the packet
    // after it is NAKed; with 50% corruption roughly a third execute. What
    // must never happen is silent mis-execution of corrupt bytes.
    let executed = collector.stats.executed;
    assert!(executed > 30 && executed < 180, "executed {executed}");
    assert!(collector.stats.dropped > 0, "corrupted packets must be dropped");
}

#[test]
fn nak_resynchronizes_translator_after_rdma_loss() {
    let (mut net, mut reporter) =
        line_setup(ServiceConfig::default(), TranslatorConfig::default());
    // Loss on the RDMA hop creates PSN gaps at the collector. Reports flow
    // one at a time so NAKs can resynchronize between them.
    net.add_faults(NodeId(1), NodeId(2), FaultInjector::new(FaultConfig::lossy(0.2), 11));
    for i in 0..300u64 {
        let r = DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 1, vec![3; 4]);
        net.send_from(NodeId(0), reporter.frame(&r));
        net.run_to_idle();
    }
    let translator = take_translator(&mut net);
    let collector = take_collector(&mut net);
    assert!(collector.stats.naks > 0, "PSN gaps must trigger NAKs");
    assert!(translator.translator.resyncs > 0, "translator must resync after NAKs");
    // Post-resync traffic keeps executing: most packets landed.
    assert!(collector.stats.executed > 150);
}

#[test]
fn rate_limited_translator_nacks_reporters() {
    let (mut net, mut reporter) = line_setup(
        ServiceConfig::default(),
        TranslatorConfig {
            rate_limit: Some(RateLimiterConfig { msgs_per_sec: 1.0, burst: 10 }),
            ..TranslatorConfig::default()
        },
    );
    for i in 0..50u64 {
        let r = DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 1, vec![4; 4])
            .with_flags(dta::core::DtaFlags { immediate: false, nack_on_drop: true });
        net.send_from(NodeId(0), reporter.frame(&r));
    }
    net.run_to_idle();
    let translator = take_translator(&mut net);
    assert_eq!(translator.translator.rate_limited, 40);
    assert_eq!(translator.translator.nacks_sent, 40);
    // NACKs travelled back to the reporter node (delivered to node 0).
    assert!(net.stats.delivered >= 40);
}

#[test]
fn fat_tree_reporters_from_every_pod_reach_the_collector() {
    let ft = FatTree::new(4);
    let collector_host = ft.host(0, 0, 0);
    let tor = ft.edge(0, 0);
    let mut net = Network::new(ft.topology.shortest_path_routing());
    for (a, b) in ft.topology.edges() {
        net.add_duplex_link(a, b, LinkConfig::dc_100g());
    }
    let mut service = CollectorService::new(ServiceConfig::default());
    let translator = tor_node(TranslatorConfig::default(), tor, collector_host, &mut service);
    net.add_interceptor(tor, Box::new(translator));
    net.add_node(collector_host, Box::new(CollectorNode::new(service, collector_host, COLLECTOR_IP)));

    let mut key_id = 0u64;
    for pod in 0..4 {
        for e in 0..2 {
            let sw = ft.edge(pod, e);
            if sw == tor {
                continue;
            }
            let mut rep = Reporter::new(ReporterConfig {
                my_id: sw,
                my_ip: 0x0A02_0000 + sw.0,
                collector_id: collector_host,
                collector_ip: COLLECTOR_IP,
                src_port: 6000,
            });
            for _ in 0..10 {
                let r = DtaReport::key_write(0, TelemetryKey::from_u64(key_id), 2, vec![9; 4]);
                net.send_from(sw, rep.frame(&r));
                key_id += 1;
            }
        }
    }
    net.run_until(SimTime::from_millis(10));
    let node: Box<dyn std::any::Any> = net.remove_node(collector_host).unwrap();
    let collector = node.downcast::<CollectorNode>().unwrap();
    let store = collector.service.keywrite.as_ref().unwrap();
    for i in 0..key_id {
        assert!(
            store.query(&TelemetryKey::from_u64(i), 2, QueryPolicy::Plurality).is_found(),
            "key {i} from a remote pod missing"
        );
    }
}

#[test]
fn full_mesh_routing_works_for_harness_setups() {
    // Sanity for Routing::full_mesh used by micro-harnesses.
    let r = Routing::full_mesh(3);
    assert_eq!(r.next_hop(NodeId(0), NodeId(2)), Some(NodeId(2)));
}
