//! The translator's face on the simulated network: what the one ToR node,
//! [`crate::FleetNode`], shares across its collector links.
//!
//! Deployed as an *interceptor* on the collector's ToR: every packet
//! transiting the switch is inspected; DTA reports (UDP port 40080) are
//! translated into RDMA toward the collector tier, RoCE responses (UDP port
//! 4791) feed queue-pair resynchronization, and everything else is
//! forwarded untouched ("basic user-traffic forwarding", §5.2). A report
//! the rate limiter dropped is NACKed back to its reporter when it asked
//! for that.

use bytes::Bytes;
use dta_core::framing::UdpPacket;
use dta_core::{DtaReport, DTA_UDP_PORT};
use dta_net::{Emission, NodeId, Packet};
use dta_rdma::packet::ROCE_UDP_PORT;

use crate::shard::ReportOrigin;

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

/// The ingress preamble of the translator node: undecodable packets
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

/// The reporter NACK for the dropped report `seq`, from the translator at
/// `my_id`/`my_ip` back to the report's return address.
pub(crate) fn nack_emission(my_id: NodeId, my_ip: u32, seq: u32, origin: ReportOrigin) -> Emission {
    let nack = UdpPacket::frame(my_ip, DTA_NACK_PORT, origin.ip, origin.port, encode_nack(seq));
    Emission::now(Packet::new(my_id, NodeId(origin.node), nack.encode()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nack_roundtrip() {
        assert_eq!(decode_nack(&encode_nack(0xDEAD_BEEF)), Some(0xDEAD_BEEF));
        assert_eq!(decode_nack(b"bogus!!!"), None);
        assert_eq!(decode_nack(b"DNAK"), None); // too short
    }
}
