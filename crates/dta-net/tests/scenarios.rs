//! Network-level scenario tests: congestion, PFC, reordering, ticks, and
//! fat-tree-scale runs.

use bytes::Bytes;
use dta_net::link::EnqueueOutcome;
use dta_net::node::SinkNode;
use dta_net::{
    Emission, FatTree, FaultConfig, FaultInjector, Link, LinkConfig, NetNode, Network, NodeId,
    Packet, QueueDiscipline, SimTime, Topology,
};

/// A node that emits one packet per tick toward a fixed destination.
struct TickSource {
    me: NodeId,
    dst: NodeId,
    size: usize,
    sent: u64,
}

impl NetNode for TickSource {
    fn receive(&mut self, _now: SimTime, _packet: Packet, _out: &mut Vec<Emission>) {}
    fn tick(&mut self, _now: SimTime, out: &mut Vec<Emission>) -> bool {
        self.sent += 1;
        out.push(Emission::now(Packet::new(
            self.me,
            self.dst,
            Bytes::from(vec![0u8; self.size]),
        )));
        true
    }
}

#[test]
fn tick_driven_source_delivers_periodically() {
    let mut topo = Topology::new(2);
    topo.connect(NodeId(0), NodeId(1));
    let mut net = Network::new(topo.shortest_path_routing());
    net.add_duplex_link(NodeId(0), NodeId(1), LinkConfig::dc_100g());
    net.add_node(NodeId(0), Box::new(TickSource { me: NodeId(0), dst: NodeId(1), size: 100, sent: 0 }));
    net.add_node(NodeId(1), Box::<SinkNode>::default());
    net.add_tick(NodeId(0), 1_000); // 1 packet/us
    net.run_until(SimTime::from_nanos(100_000));
    assert!(net.stats.delivered >= 95, "delivered {}", net.stats.delivered);
}

#[test]
fn congested_link_drops_excess_and_paces_survivors() {
    // Two sources blast a shared 100G egress whose queue is tiny.
    let mut topo = Topology::new(4);
    topo.connect(NodeId(0), NodeId(2));
    topo.connect(NodeId(1), NodeId(2));
    topo.connect(NodeId(2), NodeId(3));
    let mut net = Network::new(topo.shortest_path_routing());
    net.add_duplex_link(NodeId(0), NodeId(2), LinkConfig::dc_100g());
    net.add_duplex_link(NodeId(1), NodeId(2), LinkConfig::dc_100g());
    net.add_link(
        NodeId(2),
        NodeId(3),
        LinkConfig { queue_bytes: 8 * 1500, ..LinkConfig::dc_100g() },
    );
    net.add_node(NodeId(3), Box::<SinkNode>::default());
    for i in 0..500 {
        let src = NodeId(i % 2);
        net.send_from(src, Packet::new(src, NodeId(3), Bytes::from(vec![0u8; 1500])));
    }
    net.run_to_idle();
    assert!(net.stats.dropped > 0, "bottleneck must drop");
    assert!(net.stats.delivered > 0, "some packets must survive");
    assert_eq!(net.stats.delivered + net.stats.dropped, 500);
}

#[test]
fn reordering_faults_deliver_everything_eventually() {
    let mut topo = Topology::new(2);
    topo.connect(NodeId(0), NodeId(1));
    let mut net = Network::new(topo.shortest_path_routing());
    net.add_duplex_link(NodeId(0), NodeId(1), LinkConfig::dc_100g());
    net.add_node(NodeId(1), Box::<SinkNode>::default());
    net.add_faults(
        NodeId(0),
        NodeId(1),
        FaultInjector::new(FaultConfig { reorder_chance: 0.3, ..FaultConfig::none() }, 5),
    );
    for _ in 0..200 {
        net.send_from(NodeId(0), Packet::new(NodeId(0), NodeId(1), Bytes::from(vec![1u8; 200])));
    }
    net.run_to_idle();
    assert_eq!(net.stats.delivered, 200, "reordering must not lose packets");
}

#[test]
fn pfc_pause_prevents_loss_where_lossy_drops() {
    let burst: usize = 600;
    let mut lossy = Link::new(LinkConfig {
        queue_bytes: 64 * 1024,
        ..LinkConfig::dc_100g()
    });
    let mut pfc = Link::new(LinkConfig {
        queue_bytes: 64 * 1024,
        discipline: QueueDiscipline::Lossless { xoff_bytes: 48 * 1024, xon_bytes: 16 * 1024 },
        ..LinkConfig::dc_100g()
    });
    let (mut lossy_ok, mut pfc_ok) = (0, 0);
    for _ in 0..burst {
        if matches!(lossy.enqueue(SimTime::ZERO, 1500), EnqueueOutcome::Delivered(_)) {
            lossy_ok += 1;
        }
        if matches!(pfc.enqueue(SimTime::ZERO, 1500), EnqueueOutcome::Delivered(_)) {
            pfc_ok += 1;
        }
    }
    assert!(lossy_ok < burst);
    assert_eq!(pfc_ok, burst);
    // After the queue drains, pause deasserts.
    assert!(pfc.is_paused());
    pfc.enqueue(SimTime::from_millis(10), 64);
    assert!(!pfc.is_paused());
}

#[test]
fn fat_tree_all_hosts_reach_all_hosts_k6() {
    let ft = FatTree::new(6);
    let routing = ft.topology.shortest_path_routing();
    let hosts: Vec<NodeId> = (0..ft.num_hosts())
        .map(|i| {
            let half = 3;
            let pod = i / (half * half);
            let rem = i % (half * half);
            ft.host(pod, rem / half, rem % half)
        })
        .collect();
    for (i, &a) in hosts.iter().enumerate() {
        for &b in hosts.iter().skip(i + 1) {
            let hops = routing.hops(a, b).expect("reachable");
            assert!((2..=6).contains(&hops), "host path length {hops}");
        }
    }
}

#[test]
fn fat_tree_traffic_survives_multi_hop_congestion() {
    let ft = FatTree::new(4);
    let mut net = Network::new(ft.topology.shortest_path_routing());
    for (a, b) in ft.topology.edges() {
        net.add_duplex_link(a, b, LinkConfig::dc_100g());
    }
    let dst = ft.host(3, 1, 1);
    net.add_node(dst, Box::<SinkNode>::default());
    // Every other host sends 10 packets to one victim host.
    let mut sent = 0;
    for pod in 0..4 {
        for e in 0..2 {
            for h in 0..2 {
                let src = ft.host(pod, e, h);
                if src == dst {
                    continue;
                }
                for _ in 0..10 {
                    net.send_from(src, Packet::new(src, dst, Bytes::from(vec![0u8; 700])));
                    sent += 1;
                }
            }
        }
    }
    net.run_to_idle();
    assert_eq!(net.stats.delivered, sent, "ample buffers: no loss expected");
    assert!(net.stats.forwarded > sent, "multi-hop forwarding happened");
}
