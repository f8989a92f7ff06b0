//! The simulation engine: nodes + links + routing + event loop.
//!
//! State is **dense and index-addressed**: nodes live in a `NodeId`-indexed
//! arena, links and their fault injectors in a flat arena addressed by a
//! fused `(from, dst) -> link` route table resolved once at build time. A
//! packet hop therefore costs two array indexes — no tuple-key hashing —
//! and the event queue is the timing wheel of [`crate::time`]. See
//! DESIGN.md ("Engine data layout").

use crate::faults::{FaultInjector, Verdict};
use crate::link::{EnqueueOutcome, Link, LinkConfig};
use crate::node::{Emission, NetNode, NodeId};
use crate::packet::Packet;
use crate::time::{EventQueue, SimTime};
use crate::topology::Routing;

/// Engine-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Packets delivered to their destination node.
    pub delivered: u64,
    /// Hop-by-hop forwarding decisions taken.
    pub forwarded: u64,
    /// Packets lost to link queues, fault injection, unroutable
    /// destinations, or arrival at a removed node.
    pub dropped: u64,
    /// Packets handed to intercepting nodes (e.g., the DTA translator).
    pub intercepted: u64,
}

enum Event {
    /// A packet's last bit arrived at `at_node`.
    Arrive { at_node: NodeId, packet: Packet },
    /// Deliver a tick to a node and reschedule.
    Tick { node: NodeId, period_ns: u64 },
}

struct NodeSlot {
    node: Box<dyn NetNode>,
    intercepting: bool,
}

/// One entry of the node arena.
enum NodeState {
    /// Never registered: packets transit (or sink as delivered if final) —
    /// a destination without behaviour.
    Vacant,
    /// A live node.
    Occupied(NodeSlot),
    /// Taken back out via [`Network::remove_node`]: packets arriving here
    /// sink and count as dropped, and its ticks stop rescheduling.
    Removed,
}

/// Unroutable / no-link sentinel in the fused route table.
const NO_ROUTE: u32 = u32::MAX;

/// An event-driven network of nodes joined by links.
///
/// Routing is hop-by-hop: a packet emitted with destination `d` follows the
/// routing table through intermediate nodes. A node registered as
/// *intercepting* receives every packet that transits it — this is how the
/// DTA translator (the collector's ToR) grabs DTA reports addressed to the
/// collector IP and substitutes RDMA traffic (§3 of the paper).
pub struct Network {
    /// Node arena, indexed by `NodeId`.
    nodes: Vec<NodeState>,
    /// Link arena, in installation order.
    links: Vec<Link>,
    /// Parallel to `links`: the node each link delivers to.
    link_to: Vec<u32>,
    /// Parallel to `links`: the link's fault injector, if any.
    faults: Vec<Option<FaultInjector>>,
    /// Per-node egress ports: `(to, link index)`, sorted by `to`. Build-time
    /// and stats lookups only — the hot path uses the fused `route` table.
    egress: Vec<Vec<(u32, u32)>>,
    routing: Routing,
    /// Fused next-hop table: `route[from * n + dst]` is the egress link
    /// index toward `dst`, or [`NO_ROUTE`]. Rebuilt lazily after topology
    /// edits.
    route: Vec<u32>,
    route_ready: bool,
    events: EventQueue<Event>,
    now: SimTime,
    /// Recycled emission buffer handed to node callbacks (never reentered:
    /// emission scheduling only pushes events, it cannot dispatch).
    scratch: Vec<Emission>,
    /// Engine counters.
    pub stats: NetworkStats,
}

impl Network {
    /// Empty network with the given routing table.
    pub fn new(routing: Routing) -> Self {
        let n = routing.len() as usize;
        let mut nodes = Vec::with_capacity(n);
        nodes.resize_with(n, || NodeState::Vacant);
        Network {
            nodes,
            links: Vec::new(),
            link_to: Vec::new(),
            faults: Vec::new(),
            egress: vec![Vec::new(); n],
            routing,
            route: Vec::new(),
            route_ready: false,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            scratch: Vec::new(),
            stats: NetworkStats::default(),
        }
    }

    /// Grow the arenas to cover `id` (ids past the routing table are legal
    /// for nodes; they are simply unroutable as destinations).
    fn ensure_node(&mut self, id: NodeId) {
        let need = id.0 as usize + 1;
        if self.nodes.len() < need {
            self.nodes.resize_with(need, || NodeState::Vacant);
            self.egress.resize(need, Vec::new());
        }
    }

    /// Register a node.
    pub fn add_node(&mut self, id: NodeId, node: Box<dyn NetNode>) {
        self.ensure_node(id);
        self.nodes[id.0 as usize] = NodeState::Occupied(NodeSlot { node, intercepting: false });
    }

    /// Register an intercepting node (receives transiting packets).
    pub fn add_interceptor(&mut self, id: NodeId, node: Box<dyn NetNode>) {
        self.ensure_node(id);
        self.nodes[id.0 as usize] = NodeState::Occupied(NodeSlot { node, intercepting: true });
    }

    /// Take a node back out of the network (e.g., to downcast and inspect
    /// its state after a run). Packets arriving for it afterwards sink and
    /// count in [`NetworkStats::dropped`] — its links and fault injectors
    /// stay installed but deliver into a hole, not to a ghost.
    pub fn remove_node(&mut self, id: NodeId) -> Option<Box<dyn NetNode>> {
        let state = self.nodes.get_mut(id.0 as usize)?;
        match std::mem::replace(state, NodeState::Removed) {
            NodeState::Occupied(s) => Some(s.node),
            NodeState::Removed => None,
            NodeState::Vacant => {
                // Nothing was ever here; keep vacant-slot semantics.
                *state = NodeState::Vacant;
                None
            }
        }
    }

    /// Borrow a live node in place (e.g., to downcast and quiesce it
    /// mid-run without disturbing its links or pending ticks).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut dyn NetNode> {
        match self.nodes.get_mut(id.0 as usize)? {
            NodeState::Occupied(s) => Some(s.node.as_mut()),
            _ => None,
        }
    }

    /// Index into the link arena of the `from -> to` port, if installed.
    fn port(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let ports = self.egress.get(from.0 as usize)?;
        ports
            .binary_search_by_key(&to.0, |&(t, _)| t)
            .ok()
            .map(|i| ports[i].1 as usize)
    }

    /// Install a unidirectional link. Reinstalling an existing direction
    /// replaces the link (and clears any fault injector on it).
    pub fn add_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) {
        self.ensure_node(from);
        self.ensure_node(to);
        if let Some(idx) = self.port(from, to) {
            self.links[idx] = Link::new(config);
            self.faults[idx] = None;
            return;
        }
        let idx = self.links.len() as u32;
        self.links.push(Link::new(config));
        self.link_to.push(to.0);
        self.faults.push(None);
        let ports = &mut self.egress[from.0 as usize];
        let at = ports.partition_point(|&(t, _)| t < to.0);
        ports.insert(at, (to.0, idx));
        self.route_ready = false;
    }

    /// Install a bidirectional link (two independent directions).
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        self.add_link(a, b, config);
        self.add_link(b, a, config);
    }

    /// Attach a fault injector to the `from -> to` direction.
    ///
    /// # Panics
    /// Panics if no `from -> to` link is installed — an injector models the
    /// wire of a specific link.
    pub fn add_faults(&mut self, from: NodeId, to: NodeId, injector: FaultInjector) {
        let idx = self
            .port(from, to)
            .unwrap_or_else(|| panic!("no link {from} -> {to} to attach faults to"));
        self.faults[idx] = Some(injector);
    }

    /// Schedule a periodic tick for `node`.
    pub fn add_tick(&mut self, node: NodeId, period_ns: u64) {
        self.events.push(self.now + period_ns, Event::Tick { node, period_ns });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sum of every attached injector's counters (order-independent, so the
    /// scenario harness can report them bit-reproducibly).
    pub fn fault_totals(&self) -> crate::faults::FaultTotals {
        let mut total = crate::faults::FaultTotals::default();
        for inj in self.faults.iter().flatten() {
            total.merge(&inj.totals());
        }
        total
    }

    /// Sum of every link's counters.
    pub fn link_totals(&self) -> crate::link::LinkStats {
        let mut total = crate::link::LinkStats::default();
        for link in &self.links {
            total.merge(&link.stats);
        }
        total
    }

    /// Resolve the routing table against the installed ports into the
    /// fused per-node `(dst -> link)` table the hot path indexes.
    fn build_route(&mut self) {
        let n = self.routing.len() as usize;
        self.route.clear();
        self.route.resize(n * n, NO_ROUTE);
        for from in 0..n as u32 {
            for dst in 0..n as u32 {
                if let Some(next) = self.routing.next_hop(NodeId(from), NodeId(dst)) {
                    if let Some(idx) = self.port(NodeId(from), next) {
                        self.route[from as usize * n + dst as usize] = idx as u32;
                    }
                }
            }
        }
        self.route_ready = true;
    }

    /// Inject a packet from `origin` at the current time.
    pub fn send_from(&mut self, origin: NodeId, packet: Packet) {
        let idx = self.events.insert(Event::Arrive { at_node: origin, packet });
        self.transmit(origin, idx);
    }

    /// Process events until the queue is empty or `deadline` passes.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let processed = self.run(deadline);
        self.now = self.now.max(deadline);
        processed
    }

    /// Run to quiescence (no pending events).
    pub fn run_to_idle(&mut self) -> u64 {
        self.run(SimTime(u64::MAX))
    }

    /// The one event loop: serve every event due by `deadline`, each from
    /// the queue slot it was popped from.
    fn run(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some((t, idx)) = self.events.pop_slot_until(deadline) {
            self.now = t;
            self.dispatch(idx);
            processed += 1;
        }
        processed
    }

    /// Serve the event in the held queue slot `idx`. A packet that only
    /// transits its node re-queues in place as its arrival at the next hop;
    /// only deliveries, interceptions and losses take the event out.
    fn dispatch(&mut self, idx: u32) {
        let (at_node, is_final) = match *self.events.slot_mut(idx) {
            Event::Arrive { at_node, ref packet } => (at_node, packet.dst == at_node),
            Event::Tick { node, period_ns } => return self.tick(idx, node, period_ns),
        };
        match self.nodes.get(at_node.0 as usize) {
            Some(NodeState::Removed) => {
                // Links and injectors outlive their node; anything they
                // deliver here is loss, not a delivery to a ghost.
                self.events.take(idx);
                self.stats.dropped += 1;
            }
            Some(NodeState::Occupied(slot)) if is_final || slot.intercepting => {
                self.receive(at_node, idx, is_final);
            }
            // Vacant: final packets sink as delivered.
            Some(NodeState::Vacant) | None if is_final => self.receive(at_node, idx, is_final),
            _ => {
                self.stats.forwarded += 1;
                self.transmit(at_node, idx);
            }
        }
    }

    /// Tick `node` from the held slot `idx`, which re-queues in place one
    /// period on unless the series ends.
    fn tick(&mut self, idx: u32, node: NodeId, period_ns: u64) {
        let mut out = std::mem::take(&mut self.scratch);
        let keep = match self.nodes.get_mut(node.0 as usize) {
            Some(NodeState::Occupied(slot)) => slot.node.tick(self.now, &mut out),
            Some(NodeState::Removed) => false, // stop rescheduling
            _ => true,
        };
        for e in out.drain(..) {
            self.schedule_emission(node, e);
        }
        self.scratch = out;
        if keep {
            self.events.reschedule(idx, self.now + period_ns);
        } else {
            self.events.take(idx);
        }
    }

    /// Hand the packet in the held slot `idx` to `at_node`: delivered when
    /// `is_final`, intercepted otherwise. A node without behaviour sinks it.
    fn receive(&mut self, at_node: NodeId, idx: u32, is_final: bool) {
        let Event::Arrive { packet, .. } = self.events.take(idx) else {
            unreachable!("receive is only called on an arrival");
        };
        if is_final {
            self.stats.delivered += 1;
        } else {
            self.stats.intercepted += 1;
        }
        let mut out = std::mem::take(&mut self.scratch);
        if let Some(NodeState::Occupied(slot)) = self.nodes.get_mut(at_node.0 as usize) {
            slot.node.receive(self.now, packet, &mut out);
        }
        for e in out.drain(..) {
            self.schedule_emission(at_node, e);
        }
        self.scratch = out;
    }

    fn schedule_emission(&mut self, from: NodeId, emission: Emission) {
        if emission.delay_ns == 0 {
            self.send_from(from, emission.packet);
        } else {
            // Model node-internal delay by re-arriving at self later; use a
            // direct event so no link is consumed. Packets delayed inside a
            // node resume the normal path after.
            let mut packet = emission.packet;
            packet.priority |= INTERNAL_MARK;
            self.events.push(self.now + emission.delay_ns, Event::Arrive { at_node: from, packet });
        }
    }

    /// Put the packet in the held arrival slot `idx` on the egress link of
    /// `from` toward its next hop: route, fault, enqueue. The slot
    /// re-queues as the packet's arrival at the next hop, or is freed when
    /// the packet is lost. New emissions and transits both come here.
    fn transmit(&mut self, from: NodeId, idx: u32) {
        if !self.route_ready {
            self.build_route();
        }
        let Event::Arrive { at_node, packet } = self.events.slot_mut(idx) else {
            unreachable!("transmit is only called on an arrival");
        };
        packet.priority &= !INTERNAL_MARK;
        let n = self.routing.len() as usize;
        let (f, d) = (from.0 as usize, packet.dst.0 as usize);
        let li = if f < n && d < n { self.route[f * n + d] } else { NO_ROUTE };
        if li == NO_ROUTE {
            self.events.take(idx);
            self.stats.dropped += 1;
            return;
        }
        let li = li as usize;
        *at_node = NodeId(self.link_to[li]);
        // Fault injection first (models the wire), then queueing.
        let verdict = match &mut self.faults[li] {
            Some(inj) => inj.apply(packet),
            None => Verdict::Deliver,
        };
        let link = &mut self.links[li];
        let wire_len = packet.wire_len();
        let mut extra = 0;
        match verdict {
            Verdict::Deliver => {}
            Verdict::Duplicate => {
                // Two back-to-back serializations of the same frame; the
                // copy goes first, consumes link capacity like any packet
                // and is not re-faulted.
                let copy = Event::Arrive { at_node: *at_node, packet: packet.clone() };
                match link.enqueue(self.now, wire_len) {
                    EnqueueOutcome::Delivered(t) => self.events.push(t, copy),
                    EnqueueOutcome::Dropped => self.stats.dropped += 1,
                }
            }
            Verdict::Reorder => {
                // Penalize with one extra MTU serialization worth of
                // delay so a later packet can overtake it.
                extra = SimTime::tx_time(1500, link.config().bandwidth_bps) * 2;
            }
            Verdict::Drop => {
                self.events.take(idx);
                self.stats.dropped += 1;
                return;
            }
        }
        match link.enqueue(self.now, wire_len) {
            EnqueueOutcome::Delivered(t) => self.events.reschedule(idx, t + extra),
            EnqueueOutcome::Dropped => {
                self.events.take(idx);
                self.stats.dropped += 1;
            }
        }
    }
}

/// Marker priority bit used to tag node-internal re-deliveries so that an
/// intercepting node does not re-intercept its own delayed output.
const INTERNAL_MARK: u8 = 0x80;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SinkNode;
    use crate::topology::Topology;
    use bytes::Bytes;

    /// Three nodes in a line: 0 -- 1 -- 2.
    fn line3() -> Network {
        let mut topo = Topology::new(3);
        topo.connect(NodeId(0), NodeId(1));
        topo.connect(NodeId(1), NodeId(2));
        let routing = topo.shortest_path_routing();
        let mut net = Network::new(routing);
        for (a, b) in [(0, 1), (1, 2)] {
            net.add_duplex_link(NodeId(a), NodeId(b), LinkConfig::dc_100g());
        }
        net
    }

    #[test]
    fn packet_traverses_two_hops() {
        let mut net = line3();
        net.add_node(NodeId(2), Box::<SinkNode>::default());
        net.send_from(NodeId(0), Packet::new(NodeId(0), NodeId(2), Bytes::from(vec![0u8; 100])));
        net.run_to_idle();
        assert_eq!(net.stats.delivered, 1);
        assert_eq!(net.stats.forwarded, 1);
    }

    #[test]
    fn interceptor_grabs_transiting_packet() {
        let mut net = line3();
        net.add_interceptor(NodeId(1), Box::<SinkNode>::default());
        net.add_node(NodeId(2), Box::<SinkNode>::default());
        net.send_from(NodeId(0), Packet::new(NodeId(0), NodeId(2), Bytes::from(vec![0u8; 100])));
        net.run_to_idle();
        // The interceptor swallowed the packet: nothing reached node 2.
        assert_eq!(net.stats.intercepted, 1);
        assert_eq!(net.stats.delivered, 0);
    }

    #[test]
    fn loss_is_counted() {
        let mut net = line3();
        net.add_node(NodeId(2), Box::<SinkNode>::default());
        net.add_faults(NodeId(0), NodeId(1), FaultInjector::new(crate::FaultConfig::lossy(1.0), 1));
        net.send_from(NodeId(0), Packet::new(NodeId(0), NodeId(2), Bytes::from(vec![0u8; 100])));
        net.run_to_idle();
        assert_eq!(net.stats.dropped, 1);
        assert_eq!(net.stats.delivered, 0);
    }

    #[test]
    fn duplication_delivers_twice_and_is_counted() {
        let mut net = line3();
        net.add_node(NodeId(2), Box::<SinkNode>::default());
        let cfg = crate::FaultConfig { duplicate_chance: 1.0, ..crate::FaultConfig::none() };
        net.add_faults(NodeId(0), NodeId(1), FaultInjector::new(cfg, 9));
        for _ in 0..10 {
            net.send_from(
                NodeId(0),
                Packet::new(NodeId(0), NodeId(2), Bytes::from(vec![0u8; 100])),
            );
        }
        net.run_to_idle();
        assert_eq!(net.stats.delivered, 20, "every packet must arrive twice");
        assert_eq!(net.fault_totals().duplicated, 10);
        // Both copies consumed link capacity on both hops.
        assert_eq!(net.link_totals().transmitted, 40);
    }

    /// Records `(arrival ns, first payload byte)` of every packet it
    /// receives.
    #[derive(Default)]
    struct Recorder(Vec<(u64, u8)>);

    impl NetNode for Recorder {
        fn receive(&mut self, now: SimTime, packet: Packet, _out: &mut Vec<Emission>) {
            self.0.push((now.as_nanos(), packet.payload[0]));
        }
    }

    fn recorded(net: &mut Network, id: NodeId) -> Vec<(u64, u8)> {
        let node: Box<dyn std::any::Any> = net.remove_node(id).expect("a recorder");
        node.downcast::<Recorder>().expect("a recorder").0
    }

    #[test]
    fn transit_faults_requeue_in_place() {
        // Faults sit on the two links out of the transit node 1, so every
        // verdict lands on a packet served from the slot it arrived in.
        let mut net = line3();
        net.add_node(NodeId(0), Box::<Recorder>::default());
        net.add_node(NodeId(2), Box::<Recorder>::default());
        // 1 -> 2 duplicates every packet and drops those over 100 B.
        let dup = crate::FaultConfig {
            duplicate_chance: 1.0,
            size_limit: Some(100),
            ..crate::FaultConfig::none()
        };
        net.add_faults(NodeId(1), NodeId(2), FaultInjector::new(dup, 5));
        // 1 -> 0 reorders the first of two packets (this seed's draws).
        let reorder = crate::FaultConfig { reorder_chance: 0.5, ..crate::FaultConfig::none() };
        net.add_faults(NodeId(1), NodeId(0), FaultInjector::new(reorder, 3));
        let pkt = |src: u32, dst: u32, tag: u8, len: usize| {
            Packet::new(NodeId(src), NodeId(dst), Bytes::from(vec![tag; len]))
        };
        // 64 B serializes in 6 ns at 100 Gb/s, 200 B in 16 ns; every link
        // adds 1000 ns. a, b and c reach node 1 at 1006, 1022 and 1028 ns;
        // d and e at 1006 and 1012 ns.
        net.send_from(NodeId(0), pkt(0, 2, b'a', 64));
        net.send_from(NodeId(0), pkt(0, 2, b'b', 200));
        net.send_from(NodeId(0), pkt(0, 2, b'c', 64));
        net.send_from(NodeId(2), pkt(2, 0, b'd', 64));
        net.send_from(NodeId(2), pkt(2, 0, b'e', 64));
        net.run_to_idle();
        assert!(net.events.is_empty());

        // Each duplicate's copy takes the first serialization slot, the
        // original the next; b is dropped by the size limit.
        assert_eq!(
            recorded(&mut net, NodeId(2)),
            vec![(2012, b'a'), (2018, b'a'), (2034, b'c'), (2040, b'c')]
        );
        // d is held back two MTU serializations (240 ns) and e overtakes it.
        assert_eq!(recorded(&mut net, NodeId(0)), vec![(2018, b'e'), (2252, b'd')]);
        assert_eq!(
            net.stats,
            NetworkStats { delivered: 6, forwarded: 5, dropped: 1, intercepted: 0 }
        );
        assert_eq!(
            net.fault_totals(),
            crate::FaultTotals { dropped: 1, corrupted: 0, reordered: 1, duplicated: 2 }
        );
        // 0->1 carries a, b, c; 1->2 both copies of a and c; 2->1 and
        // 1->0 carry d and e.
        assert_eq!(
            net.link_totals(),
            crate::LinkStats {
                enqueued: 11,
                dropped: 0,
                transmitted: 11,
                bytes_tx: 64 + 200 + 64 + 4 * 64 + 2 * 64 + 2 * 64,
                pauses: 0,
            }
        );
    }

    #[test]
    fn unroutable_packet_dropped() {
        let mut net = line3();
        net.send_from(NodeId(0), Packet::new(NodeId(0), NodeId(99), Bytes::new()));
        net.run_to_idle();
        assert_eq!(net.stats.dropped, 1);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut net = line3();
        net.add_node(NodeId(2), Box::<SinkNode>::default());
        net.send_from(NodeId(0), Packet::new(NodeId(0), NodeId(2), Bytes::from(vec![0u8; 1500])));
        // Deadline before the first hop's 1120ns arrival: nothing processed.
        let n = net.run_until(SimTime::from_nanos(100));
        assert_eq!(n, 0);
        net.run_to_idle();
        assert_eq!(net.stats.delivered, 1);
    }

    #[test]
    fn removed_node_sinks_arrivals_as_drops() {
        // Regression (PR 4): remove_node used to leave the node's links and
        // fault injectors delivering to a ghost — a packet addressed to a
        // removed node even counted as `delivered`. It must sink as a drop.
        let mut net = line3();
        net.add_node(NodeId(2), Box::<SinkNode>::default());
        let taken = net.remove_node(NodeId(2));
        assert!(taken.is_some());
        net.send_from(NodeId(0), Packet::new(NodeId(0), NodeId(2), Bytes::from(vec![0u8; 100])));
        net.run_to_idle();
        assert_eq!(net.stats.delivered, 0, "removed node must not count deliveries");
        assert_eq!(net.stats.dropped, 1);
        assert_eq!(net.stats.forwarded, 1, "hop before the hole still forwards");
    }

    #[test]
    fn removed_transit_node_sinks_instead_of_forwarding() {
        let mut net = line3();
        net.add_node(NodeId(1), Box::<SinkNode>::default());
        net.add_node(NodeId(2), Box::<SinkNode>::default());
        // A fault injector on the far side of the removed node must never
        // fire again: the packet dies at the hole.
        net.add_faults(NodeId(1), NodeId(2), FaultInjector::new(crate::FaultConfig::lossy(1.0), 7));
        net.remove_node(NodeId(1));
        net.send_from(NodeId(0), Packet::new(NodeId(0), NodeId(2), Bytes::from(vec![0u8; 100])));
        net.run_to_idle();
        assert_eq!(net.stats.dropped, 1);
        assert_eq!(net.stats.delivered, 0);
        assert_eq!(net.fault_totals().dropped, 0);
    }

    #[test]
    fn remove_node_twice_and_vacant_is_none() {
        let mut net = line3();
        net.add_node(NodeId(2), Box::<SinkNode>::default());
        assert!(net.remove_node(NodeId(2)).is_some());
        assert!(net.remove_node(NodeId(2)).is_none());
        assert!(net.remove_node(NodeId(0)).is_none(), "vacant slot yields nothing");
        // A vacant slot keeps sink-as-delivered semantics after the no-op.
        net.send_from(NodeId(1), Packet::new(NodeId(1), NodeId(0), Bytes::from(vec![0u8; 10])));
        net.run_to_idle();
        assert_eq!(net.stats.delivered, 1);
    }

    #[test]
    fn removed_node_ticks_stop_rescheduling() {
        let mut net = line3();
        net.add_node(NodeId(0), Box::<SinkNode>::default());
        net.add_tick(NodeId(0), 50);
        net.remove_node(NodeId(0));
        // With the node gone the pending tick fires once into the hole and
        // does not reschedule — run_to_idle terminates.
        let processed = net.run_to_idle();
        assert_eq!(processed, 1);
    }

    #[test]
    fn reinstalling_a_link_replaces_it_and_clears_faults() {
        let mut net = line3();
        net.add_node(NodeId(1), Box::<SinkNode>::default());
        net.add_faults(NodeId(0), NodeId(1), FaultInjector::new(crate::FaultConfig::lossy(1.0), 3));
        net.add_link(NodeId(0), NodeId(1), LinkConfig::dc_100g());
        net.send_from(NodeId(0), Packet::new(NodeId(0), NodeId(1), Bytes::from(vec![0u8; 64])));
        net.run_to_idle();
        assert_eq!(net.stats.delivered, 1, "reinstalled link must be fault-free");
        assert_eq!(net.fault_totals().dropped, 0);
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn faults_on_missing_link_panic() {
        let mut net = line3();
        net.add_faults(NodeId(0), NodeId(2), FaultInjector::new(crate::FaultConfig::lossy(0.5), 1));
    }
}
