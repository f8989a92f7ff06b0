//! The collector as a simulated network node.
//!
//! Terminates RoCEv2 traffic arriving on UDP port 4791: packets feed the
//! collector NIC, and the resulting ACKs/NAKs return toward the sender (the
//! translator), closing the reliability loop of §5.2.

use dta_core::framing::UdpPacket;
use dta_core::ImagePool;
use dta_net::{Emission, NetNode, NodeId, Packet, SimTime};
use dta_rdma::nic::RxOutcome;
use dta_rdma::packet::{RocePacket, FRAME_BYTES, FRAME_POOL_DEPTH, ROCE_UDP_PORT};

use crate::service::CollectorService;

/// Counters for the collector node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorNodeStats {
    /// RoCE packets executed.
    pub executed: u64,
    /// NAKs returned.
    pub naks: u64,
    /// Malformed / non-RoCE packets dropped.
    pub dropped: u64,
}

/// [`CollectorService`] wrapped as a [`NetNode`].
#[derive(Debug)]
pub struct CollectorNode {
    /// The collector service (stores + NIC + CM).
    pub service: CollectorService,
    my_id: NodeId,
    my_ip: u32,
    frames: ImagePool,
    /// Counters.
    pub stats: CollectorNodeStats,
}

impl CollectorNode {
    /// Wrap `service` at node `my_id` / `my_ip`.
    pub fn new(service: CollectorService, my_id: NodeId, my_ip: u32) -> Self {
        CollectorNode {
            service,
            my_id,
            my_ip,
            frames: ImagePool::new(FRAME_BYTES, FRAME_POOL_DEPTH),
            stats: CollectorNodeStats::default(),
        }
    }

    fn respond(&mut self, to_node: NodeId, to_ip: u32, pkt: &RocePacket) -> Emission {
        let wire = pkt.encode_framed(&mut self.frames, self.my_ip, to_ip);
        Emission::now(Packet::rdma(self.my_id, to_node, wire))
    }
}

impl NetNode for CollectorNode {
    /// Both decodes consume the frame they are handed: the node keeps only
    /// the sender's node and address, copied out first.
    fn receive(&mut self, _now: SimTime, packet: Packet, out: &mut Vec<Emission>) {
        let from = packet.src;
        let Ok(udp) = UdpPacket::decode(packet.payload) else {
            self.stats.dropped += 1;
            return;
        };
        if udp.udp.dst_port != ROCE_UDP_PORT {
            self.stats.dropped += 1;
            return;
        }
        let from_ip = udp.ip.src;
        let Ok(roce) = RocePacket::decode(udp.payload) else {
            self.stats.dropped += 1;
            return;
        };
        match self.service.nic_ingress(&roce) {
            RxOutcome::Executed(Some(ack)) => {
                self.stats.executed += 1;
                out.push(self.respond(from, from_ip, &ack));
            }
            RxOutcome::Executed(None) => self.stats.executed += 1,
            RxOutcome::Nak(nak) => {
                self.stats.naks += 1;
                out.push(self.respond(from, from_ip, &nak));
            }
            RxOutcome::DuplicateDropped | RxOutcome::Error(_) => self.stats.dropped += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, SERVICE_KW};
    use bytes::Bytes;
    use dta_rdma::cm::CmRequester;
    use dta_rdma::packet::Reth;

    #[test]
    fn roce_over_udp_executes_and_acks() {
        // Per-packet ACKs so the single write's response is observable.
        let mut svc = CollectorService::new(ServiceConfig {
            nic: dta_rdma::nic::NicConfig::bluefield2().with_ack_coalesce(1),
            ..ServiceConfig::default()
        });
        let req = CmRequester::new(0x60, 0);
        let reply = svc.handle_cm(&req.request(SERVICE_KW));
        let (mut qp, params) = req.complete(&reply).unwrap();
        let mut node = CollectorNode::new(svc, NodeId(9), 0x0A00_0009);

        let psn = qp.next_send_psn();
        let roce = RocePacket::write(
            qp.dest_qpn,
            psn,
            Reth { va: params.base_va, rkey: params.rkey, dma_len: 4 },
            Bytes::from_static(&[1, 2, 3, 4]),
        );
        let udp = UdpPacket::frame(0x0A00_0001, ROCE_UDP_PORT, 0x0A00_0009, ROCE_UDP_PORT, roce.encode());
        let mut out = Vec::new();
        node.receive(SimTime::ZERO, Packet::rdma(NodeId(1), NodeId(9), udp.encode()), &mut out);
        assert_eq!(node.stats.executed, 1);
        assert_eq!(out.len(), 1, "ACK returned");
        // The ACK is addressed back to the sender node.
        assert_eq!(out[0].packet.dst, NodeId(1));
    }

    #[test]
    fn non_roce_traffic_dropped() {
        let svc = CollectorService::new(ServiceConfig::default());
        let mut node = CollectorNode::new(svc, NodeId(9), 9);
        let udp = UdpPacket::frame(1, 1234, 9, 80, Bytes::from_static(b"http"));
        let mut out = Vec::new();
        node.receive(SimTime::ZERO, Packet::new(NodeId(1), NodeId(9), udp.encode()), &mut out);
        assert!(out.is_empty());
        assert_eq!(node.stats.dropped, 1);
    }
}
