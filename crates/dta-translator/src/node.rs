//! The translator as a simulated network node.
//!
//! Deployed as an *interceptor* on the collector's ToR: every packet
//! transiting the switch is inspected; DTA reports (UDP port 40080) are
//! translated into RoCEv2 packets toward the collector, RoCE responses
//! (UDP port 4791) feed queue-pair resynchronization, and everything else is
//! forwarded untouched ("basic user-traffic forwarding", §5.2).

use bytes::Bytes;
use dta_collector::service::CollectorService;
use dta_core::framing::UdpPacket;
use dta_core::{DtaReport, DTA_UDP_PORT};
use dta_net::{Emission, NetNode, NodeId, Packet, SimTime};
use dta_rdma::packet::{RocePacket, ROCE_UDP_PORT};

use crate::shard::{NackRecord, ReportOrigin, ShardedConfig, ShardedRunReport, ShardedTranslator};
use crate::translator::Translator;

// The NACK wire format lives in `dta-core` (both the translator and the
// reporter speak it); re-exported here for source compatibility.
pub use dta_core::nack::{decode_nack, encode_nack, DTA_NACK_PORT, NACK_MAGIC};

/// Per-node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslatorNodeStats {
    /// DTA reports decoded.
    pub dta_in: u64,
    /// Malformed packets dropped.
    pub malformed: u64,
    /// Non-DTA packets forwarded.
    pub forwarded: u64,
    /// RoCE responses consumed.
    pub roce_responses: u64,
}

/// What a ToR interceptor must act on in one transiting packet.
#[derive(Debug)]
pub(crate) enum Ingress {
    /// A DTA report and its return address.
    Report(DtaReport, ReportOrigin),
    /// A RoCE datagram (UDP payload) sent by node `from`.
    Roce { from: NodeId, payload: Bytes },
}

/// The ingress preamble every translator node shares: undecodable packets
/// count as malformed, DTA reports (UDP port 40080) are decoded and
/// counted, RoCE (UDP port 4791) is handed back raw, and anything else is
/// user traffic, forwarded toward its destination untouched.
pub(crate) fn ingress(
    packet: Packet,
    stats: &mut TranslatorNodeStats,
    out: &mut Vec<Emission>,
) -> Option<Ingress> {
    let Ok(udp) = UdpPacket::decode(packet.payload.clone()) else {
        stats.malformed += 1;
        return None;
    };
    match udp.udp.dst_port {
        DTA_UDP_PORT => {
            let Ok(report) = DtaReport::decode(udp.payload) else {
                stats.malformed += 1;
                return None;
            };
            stats.dta_in += 1;
            let origin =
                ReportOrigin { node: packet.src.0, ip: udp.ip.src, port: udp.udp.src_port };
            Some(Ingress::Report(report, origin))
        }
        ROCE_UDP_PORT => Some(Ingress::Roce { from: packet.src, payload: udp.payload }),
        _ => {
            stats.forwarded += 1;
            out.push(Emission::now(packet));
            None
        }
    }
}

/// The translator wrapped as a [`NetNode`].
#[derive(Debug)]
pub struct TranslatorNode {
    /// The translation dataplane.
    pub translator: Translator,
    my_id: NodeId,
    my_ip: u32,
    collector_id: NodeId,
    collector_ip: u32,
    /// Recycled translation output (one RoCE packet vector per node, not
    /// per report).
    scratch: crate::translator::TranslatorOutput,
    /// Counters.
    pub stats: TranslatorNodeStats,
}

impl TranslatorNode {
    /// Wrap `translator` at node `my_id`/`my_ip`, fronting the collector at
    /// `collector_id`/`collector_ip`.
    pub fn new(
        translator: Translator,
        my_id: NodeId,
        my_ip: u32,
        collector_id: NodeId,
        collector_ip: u32,
    ) -> Self {
        TranslatorNode {
            translator,
            my_id,
            my_ip,
            collector_id,
            collector_ip,
            scratch: crate::translator::TranslatorOutput::default(),
            stats: TranslatorNodeStats::default(),
        }
    }

    fn roce_to_emission(&self, roce: &RocePacket) -> Emission {
        let wire = roce.encode_framed(self.my_ip, self.collector_ip);
        Emission::now(Packet::rdma(self.my_id, self.collector_id, wire))
    }
}

impl NetNode for TranslatorNode {
    fn receive(&mut self, now: SimTime, packet: Packet, out: &mut Vec<Emission>) {
        match ingress(packet, &mut self.stats, out) {
            Some(Ingress::Report(report, origin)) => {
                let mut translated = std::mem::take(&mut self.scratch);
                self.translator
                    .process_batch(now.as_nanos(), std::slice::from_ref(&report), &mut translated);
                out.extend(translated.packets.iter().map(|p| self.roce_to_emission(p)));
                for &seq in &translated.nacked {
                    let nack = UdpPacket::frame(
                        self.my_ip,
                        DTA_NACK_PORT,
                        origin.ip,
                        origin.port,
                        encode_nack(seq),
                    );
                    let to = NodeId(origin.node);
                    out.push(Emission::now(Packet::new(self.my_id, to, nack.encode())));
                }
                self.scratch = translated;
            }
            Some(Ingress::Roce { payload, .. }) => {
                // A response from the collector (ACK/NAK).
                if let Ok(roce) = RocePacket::decode(payload) {
                    self.stats.roce_responses += 1;
                    self.translator.on_roce_response(&roce);
                } else {
                    self.stats.malformed += 1;
                }
            }
            None => {}
        }
    }

    fn tick(&mut self, now: SimTime, out: &mut Vec<Emission>) -> bool {
        let flushed = self.translator.flush(now.as_nanos());
        out.extend(flushed.packets.iter().map(|p| self.roce_to_emission(p)));
        true // flushes recur for as long as the harness schedules them
    }
}

/// The sharded translator pipeline wrapped as an intercepting [`NetNode`].
///
/// The single-threaded [`TranslatorNode`] converts each report into RoCE
/// packets that traverse the simulated ToR→collector link. The sharded node
/// models the same deployment one level deeper: the translator and the
/// collector NIC share the rack, and the PR 2 pipeline
/// ([`crate::ShardedTranslator`]) carries reports from ingest through
/// per-shard translators and dedicated NIC endpoints *directly into the
/// collector's striped memory* — the RDMA hop is intra-rack and modeled at
/// the memory level, so network faults apply to the report path (where the
/// paper's best-effort claim lives), not to the lossless RoCE hop.
///
/// Differences from the single-threaded node, by design:
///
/// * no RoCE packets are emitted onto the network (shard endpoints execute
///   and consume responses in-process, feeding NAKs straight back to their
///   translator);
/// * reporter NACKs are emitted *asynchronously*: the rate-limit decision
///   happens on a worker thread after the ingest thread has already
///   returned to the engine, so each shard records the dropped seqs (with
///   their return addresses) onto a bounded return ring, and this node's
///   [`NetNode::tick`] — enabled via
///   [`ShardedTranslatorNode::enable_nacks`] — barriers on the queues and
///   emits the NACKs from the engine thread. The barrier makes the set
///   drained at each tick a pure function of the delivered stream, which
///   keeps congested sharded scenarios bit-reproducible;
/// * the pipeline must be shut down explicitly:
///   [`ShardedTranslatorNode::finish`] barriers on the queues, flushes
///   translator-held state, joins the workers, and returns the aggregated
///   [`ShardedRunReport`].
#[derive(Debug)]
pub struct ShardedTranslatorNode {
    sharded: Option<ShardedTranslator>,
    /// NACK source addressing `(node id, IP)`; `None` leaves NACK records
    /// undrained (they surface as `nacks_pending` at `finish`).
    nack_from: Option<(NodeId, u32)>,
    /// Recycled drain buffer for tick-time NACK emission.
    nack_buf: Vec<NackRecord>,
    /// Counters (`roce_responses` stays 0: responses never cross the
    /// simulated network in this deployment).
    pub stats: TranslatorNodeStats,
}

impl ShardedTranslatorNode {
    /// Build the sharded pipeline against `collector` and wrap it as a node.
    ///
    /// Call *before* moving the `CollectorService` into its own node: the
    /// shard NIC endpoints clone the collector's region registry, so writes
    /// issued by shard workers land in exactly the memory the collector's
    /// stores query.
    pub fn connect(config: ShardedConfig, collector: &mut CollectorService) -> Self {
        ShardedTranslatorNode {
            sharded: Some(ShardedTranslator::connect(config, collector)),
            nack_from: None,
            nack_buf: Vec::new(),
            stats: TranslatorNodeStats::default(),
        }
    }

    /// Enable reporter NACK emission from this node's ticks, sourced from
    /// `my_id`/`my_ip`. The deployment must also schedule a periodic tick
    /// on this node (the scenario harness reuses the reporter pacing
    /// period), or records pile up until `finish`.
    pub fn enable_nacks(&mut self, my_id: NodeId, my_ip: u32) {
        self.nack_from = Some((my_id, my_ip));
    }

    /// Number of worker shards (0 after [`ShardedTranslatorNode::finish`]).
    pub fn shards(&self) -> usize {
        self.sharded.as_ref().map_or(0, |s| s.shards())
    }

    /// Drain the queues, flush translator-held state (postcard cache rows,
    /// partial append batches) through the shard NIC endpoints, join the
    /// workers, and return the aggregated counters. Returns `None` if
    /// already finished.
    pub fn finish(&mut self) -> Option<ShardedRunReport> {
        let mut sharded = self.sharded.take()?;
        sharded.wait_idle();
        Some(sharded.flush_and_join())
    }
}

impl NetNode for ShardedTranslatorNode {
    fn receive(&mut self, now: SimTime, packet: Packet, out: &mut Vec<Emission>) {
        let Some(sharded) = self.sharded.as_mut() else {
            return; // finished: sink
        };
        match ingress(packet, &mut self.stats, out) {
            // Routes on the ingest thread, enqueues to the owning shard's
            // SPSC ring (yielding on a full ring), and returns; translation
            // + RDMA execution happen on the worker threads. The return
            // address rides along so a worker-side rate-limit drop can
            // still be NACKed to the reporter.
            Some(Ingress::Report(report, origin)) => {
                sharded.ingest_from(now.as_nanos(), report, origin)
            }
            // Shard endpoints handle their responses in-process; a RoCE
            // packet arriving over the network is a wiring error.
            Some(Ingress::Roce { .. }) => self.stats.malformed += 1,
            None => {}
        }
    }

    /// Drain worker-recorded NACKs and emit them, when enabled.
    ///
    /// Determinism rule: `wait_idle` barriers first, so the records
    /// drained at this tick are exactly the rate-limited `nack_on_drop`
    /// reports delivered before it — shard order, FIFO within a shard —
    /// independent of worker thread scheduling.
    fn tick(&mut self, _now: SimTime, out: &mut Vec<Emission>) -> bool {
        let Some(sharded) = self.sharded.as_mut() else {
            return false; // finished: stop the tick series
        };
        let Some((my_id, my_ip)) = self.nack_from else {
            // Ticks scheduled without `enable_nacks`: there is no return
            // address to emit from, but the rings must still drain or a
            // worker eventually blocks pushing records. The parked records
            // surface as `nacks_pending` at `finish`, as documented.
            sharded.drain_nack_rings();
            return true;
        };
        sharded.wait_idle();
        sharded.take_nacks(&mut self.nack_buf);
        for rec in self.nack_buf.drain(..) {
            let nack = UdpPacket::frame(
                my_ip,
                DTA_NACK_PORT,
                rec.origin.ip,
                rec.origin.port,
                encode_nack(rec.seq),
            );
            out.push(Emission::now(Packet::new(my_id, NodeId(rec.origin.node), nack.encode())));
        }
        true
    }

    /// Barrier the shard queues without shutting the pipeline down: after
    /// this returns, every report delivered so far has been fully executed
    /// into collector memory. The scenario harness calls this before
    /// taking a mid-run snapshot so that what the snapshot holds is a pure
    /// function of the delivered stream, not of worker scheduling.
    fn quiesce(&mut self) {
        if let Some(sharded) = self.sharded.as_mut() {
            sharded.wait_idle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dta_collector::service::ServiceConfig;
    use dta_collector::{CollectorNode, QueryOutcome, QueryPolicy};
    use dta_core::TelemetryKey;
    use dta_net::{LinkConfig, Network, Topology};

    #[test]
    fn nack_roundtrip() {
        assert_eq!(decode_nack(&encode_nack(0xDEAD_BEEF)), Some(0xDEAD_BEEF));
        assert_eq!(decode_nack(b"bogus!!!"), None);
        assert_eq!(decode_nack(b"DNAK"), None); // too short
    }

    /// Reports over the simulated network → sharded ingest → worker shards →
    /// shard NICs → collector memory: the PR 2 pipeline driven from the node
    /// layer.
    #[test]
    fn sharded_node_translates_network_reports_into_collector_memory() {
        let mut topo = Topology::new(3);
        topo.connect(NodeId(0), NodeId(1));
        topo.connect(NodeId(1), NodeId(2));
        let mut net = Network::new(topo.shortest_path_routing());
        net.add_duplex_link(NodeId(0), NodeId(1), LinkConfig::dc_100g());
        net.add_duplex_link(NodeId(1), NodeId(2), LinkConfig::dc_100g());

        let mut svc = CollectorService::new(ServiceConfig::default());
        let node = ShardedTranslatorNode::connect(ShardedConfig::with_shards(2), &mut svc);
        assert_eq!(node.shards(), 2);
        net.add_interceptor(NodeId(1), Box::new(node));
        net.add_node(NodeId(2), Box::new(CollectorNode::new(svc, NodeId(2), 0x0A00_0900)));

        for i in 0..100u64 {
            let report =
                DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 2, vec![i as u8; 4]);
            let udp = UdpPacket::frame(
                0x0A00_0002,
                4000,
                0x0A00_0900,
                DTA_UDP_PORT,
                report.encode().unwrap(),
            );
            net.send_from(NodeId(0), Packet::new(NodeId(0), NodeId(2), udp.encode()));
        }
        net.run_to_idle();

        let tor: Box<dyn std::any::Any> = net.remove_node(NodeId(1)).unwrap();
        let mut tor = tor.downcast::<ShardedTranslatorNode>().unwrap();
        assert_eq!(tor.stats.dta_in, 100);
        let run = tor.finish().expect("first finish");
        assert!(tor.finish().is_none(), "second finish must be a no-op");
        assert_eq!(run.translator.reports_in, 100);
        assert_eq!(run.executed, 200, "N=2 -> 2 RDMA writes per report");
        assert!(run.shards.iter().all(|s| s.translator.reports_in > 0), "both shards loaded");

        let col: Box<dyn std::any::Any> = net.remove_node(NodeId(2)).unwrap();
        let col = col.downcast::<CollectorNode>().unwrap();
        // No RoCE traffic crossed the network: shard endpoints wrote memory
        // directly.
        assert_eq!(col.stats.executed, 0);
        let kw = col.service.keywrite.as_ref().unwrap();
        for i in 0..100u64 {
            assert_eq!(
                kw.query(&TelemetryKey::from_u64(i), 2, QueryPolicy::Plurality),
                QueryOutcome::Found(vec![i as u8; 4]),
                "key {i}"
            );
        }
    }

    #[test]
    fn sharded_node_forwards_user_traffic_and_rejects_garbage() {
        let mut svc = CollectorService::new(ServiceConfig::default());
        let mut node = ShardedTranslatorNode::connect(ShardedConfig::with_shards(1), &mut svc);
        // User traffic (non-DTA UDP port) forwards untouched.
        let user = UdpPacket::frame(1, 1234, 9, 80, Bytes::from_static(b"http"));
        let mut out = Vec::new();
        node.receive(SimTime::ZERO, Packet::new(NodeId(0), NodeId(9), user.encode()), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(node.stats.forwarded, 1);
        // Garbage is malformed, not a crash.
        out.clear();
        node.receive(
            SimTime::ZERO,
            Packet::new(NodeId(0), NodeId(9), Bytes::from_static(b"???")),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(node.stats.malformed, 1);
        node.finish();
    }
}
