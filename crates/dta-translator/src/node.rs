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
///
/// The destination port is peeked first, so a report or a RoCE datagram
/// is decoded by move out of the frame it arrived in; only user traffic,
/// forwarded whole, keeps a second handle on its frame across the decode.
pub(crate) fn ingress(
    packet: Packet,
    stats: &mut TranslatorNodeStats,
    out: &mut Vec<Emission>,
) -> Option<Ingress> {
    let port = UdpPacket::peek_dst_port(&packet.payload);
    if !matches!(port, Some(DTA_UDP_PORT | ROCE_UDP_PORT)) {
        if UdpPacket::decode(packet.payload.clone()).is_err() {
            stats.malformed += 1;
        } else {
            stats.forwarded += 1;
            out.push(Emission::now(packet));
        }
        return None;
    }
    let from = packet.src;
    let Ok(udp) = UdpPacket::decode(packet.payload) else {
        stats.malformed += 1;
        return None;
    };
    if udp.udp.dst_port == ROCE_UDP_PORT {
        return Some(Ingress::Roce { from, payload: udp.payload });
    }
    let origin = ReportOrigin { node: from.0, ip: udp.ip.src, port: udp.udp.src_port };
    let Ok(report) = DtaReport::decode(udp.payload) else {
        stats.malformed += 1;
        return None;
    };
    stats.dta_in += 1;
    Some(Ingress::Report(report, origin))
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
    use dta_core::TelemetryKey;

    /// Each class of frame lands in its one counter, whether the port is
    /// peeked from a clean frame or from a damaged one; only user traffic
    /// is forwarded, whole.
    #[test]
    fn ingress_counts_each_frame_once() {
        let report = DtaReport::key_write(3, TelemetryKey::from_u64(1), 1, vec![1, 2, 3, 4]);
        let frame = |port, payload| UdpPacket::frame(7, 5555, 9, port, payload).encode();
        let dta = frame(DTA_UDP_PORT, report.encode().unwrap());
        let roce = frame(ROCE_UDP_PORT, Bytes::from_static(b"pdu"));
        let user = frame(80, Bytes::from_static(b"http"));
        let bad_checksum = |f: &Bytes| {
            let mut b = f.to_vec();
            b[dta_core::framing::EthHeader::LEN + 12] ^= 1;
            Bytes::from(b)
        };
        let mut bad_report = dta.to_vec();
        bad_report[dta_core::framing::UDP_FRAME_OVERHEAD] = 9; // DTA version
        let counts = |dta_in, forwarded, malformed| TranslatorNodeStats {
            dta_in,
            forwarded,
            malformed,
            ..Default::default()
        };
        let cases = [
            (dta.clone(), counts(1, 0, 0)),
            (roce.clone(), counts(0, 0, 0)),
            (user.clone(), counts(0, 1, 0)),
            (bad_checksum(&dta), counts(0, 0, 1)),
            (bad_checksum(&roce), counts(0, 0, 1)),
            (bad_checksum(&user), counts(0, 0, 1)),
            (Bytes::from(bad_report), counts(0, 0, 1)),
            (user.slice(..30), counts(0, 0, 1)),
            (dta.slice(..dta.len() - 1), counts(0, 0, 1)),
        ];
        for (i, (wire, want)) in cases.into_iter().enumerate() {
            let mut stats = TranslatorNodeStats::default();
            let mut out = Vec::new();
            let packet = Packet::new(NodeId(4), NodeId(5), wire.clone());
            let got = ingress(packet, &mut stats, &mut out);
            assert_eq!(stats, want, "case {i}");
            match got {
                Some(Ingress::Report(r, origin)) => {
                    assert_eq!(r, report, "case {i}");
                    assert_eq!((origin.node, origin.ip, origin.port), (4, 7, 5555), "case {i}");
                }
                Some(Ingress::Roce { from, payload }) => {
                    assert_eq!((from, &payload[..]), (NodeId(4), &b"pdu"[..]), "case {i}");
                }
                None => {}
            }
            let forwarded: Vec<_> = out.iter().map(|e| &e.packet.payload).collect();
            let want_out = if want.forwarded == 1 { vec![&wire] } else { vec![] };
            assert_eq!(forwarded, want_out, "case {i}");
        }
    }

    #[test]
    fn nack_roundtrip() {
        assert_eq!(decode_nack(&encode_nack(0xDEAD_BEEF)), Some(0xDEAD_BEEF));
        assert_eq!(decode_nack(b"bogus!!!"), None);
        assert_eq!(decode_nack(b"DNAK"), None); // too short
    }
}
