//! Ethernet / IPv4 / UDP framing.
//!
//! Reporters encapsulate DTA reports in ordinary UDP datagrams (Figure 4);
//! the translator substitutes the DTA headers with RoCEv2 headers while
//! keeping Ethernet/IP framing. These header types are shared by the
//! network simulator, the reporter, and the RDMA layer, and use real wire
//! sizes so that byte-accurate line-rate accounting is possible.

use bytes::{Buf, BufMut, Bytes};

use crate::pool::build_exact;
use crate::report::ReportError;

/// Ethernet II header (no VLAN), 14 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthHeader {
    /// Destination MAC.
    pub dst: [u8; 6],
    /// Source MAC.
    pub src: [u8; 6],
    /// EtherType (0x0800 = IPv4).
    pub ethertype: u16,
}

impl EthHeader {
    /// Encoded size.
    pub const LEN: usize = 14;
    /// EtherType for IPv4.
    const ETHERTYPE_IPV4: u16 = 0x0800;

    /// IPv4 frame between two MACs.
    fn ipv4(src: [u8; 6], dst: [u8; 6]) -> Self {
        EthHeader { dst, src, ethertype: Self::ETHERTYPE_IPV4 }
    }

    /// Serialize.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.dst);
        buf.put_slice(&self.src);
        buf.put_u16(self.ethertype);
    }

    /// Deserialize.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, ReportError> {
        if buf.remaining() < Self::LEN {
            return Err(ReportError::Truncated { need: Self::LEN, have: buf.remaining() });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        buf.copy_to_slice(&mut dst);
        buf.copy_to_slice(&mut src);
        let ethertype = buf.get_u16();
        Ok(EthHeader { dst, src, ethertype })
    }
}

/// IPv4 header without options, 20 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// DSCP/ECN byte (DTA reports may use a dedicated traffic class).
    pub tos: u8,
    /// Total length: header + payload.
    pub total_len: u16,
    /// Identification (used by the network fault injector for tracing).
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol (17 = UDP).
    pub proto: u8,
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
}

impl Ipv4Header {
    /// Encoded size (IHL = 5).
    pub const LEN: usize = 20;
    /// Protocol number for UDP.
    const PROTO_UDP: u8 = 17;
    /// First header byte: version 4, IHL 5.
    const VERSION_IHL: u8 = 0x45;
    /// Flags and fragment offset: DF, no fragmentation.
    const FLAGS_DF: u16 = 0x4000;

    /// UDP packet between two addresses carrying `payload_len` bytes of UDP
    /// (header included).
    pub fn udp(src: u32, dst: u32, udp_len: usize) -> Self {
        Ipv4Header {
            tos: 0,
            total_len: (Self::LEN + udp_len) as u16,
            ident: 0,
            ttl: 64,
            proto: Self::PROTO_UDP,
            src,
            dst,
        }
    }

    /// RFC 1071 header checksum: the one's-complement sum of the encoded
    /// header's ten 16-bit words, taken straight from the fields (the
    /// checksum word itself counts as zero). It runs once per encoded and
    /// decoded frame, so nothing is serialized for it.
    pub fn checksum(&self) -> u16 {
        let words = [
            u32::from(Self::VERSION_IHL) << 8 | u32::from(self.tos),
            u32::from(self.total_len),
            u32::from(self.ident),
            u32::from(Self::FLAGS_DF),
            u32::from(self.ttl) << 8 | u32::from(self.proto),
            self.src >> 16,
            self.src & 0xFFFF,
            self.dst >> 16,
            self.dst & 0xFFFF,
        ];
        let mut sum: u32 = words.iter().sum();
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// The encoded header with `csum` in the checksum field.
    fn wire_bytes(&self, csum: u16) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        b[0] = Self::VERSION_IHL;
        b[1] = self.tos;
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.ident.to_be_bytes());
        b[6..8].copy_from_slice(&Self::FLAGS_DF.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.proto;
        b[10..12].copy_from_slice(&csum.to_be_bytes());
        b[12..16].copy_from_slice(&self.src.to_be_bytes());
        b[16..20].copy_from_slice(&self.dst.to_be_bytes());
        b
    }

    /// Serialize with a valid checksum.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.wire_bytes(self.checksum()));
    }

    /// Deserialize, verifying version/IHL and the header checksum.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, ReportError> {
        if buf.remaining() < Self::LEN {
            return Err(ReportError::Truncated { need: Self::LEN, have: buf.remaining() });
        }
        // One read of the whole header; the fields come out of the copy.
        let mut b = [0u8; Self::LEN];
        buf.copy_to_slice(&mut b);
        if b[0] != Self::VERSION_IHL {
            return Err(ReportError::BadVersion(b[0]));
        }
        let be16 = |i: usize| u16::from_be_bytes([b[i], b[i + 1]]);
        let be32 = |i: usize| u32::from_be_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let (tos, total_len, ident, ttl, proto) = (b[1], be16(2), be16(4), b[8], b[9]);
        let (wire_csum, src, dst) = (be16(10), be32(12), be32(16));
        let hdr = Ipv4Header { tos, total_len, ident, ttl, proto, src, dst };
        if wire_csum != hdr.checksum() {
            return Err(ReportError::BadChecksum);
        }
        Ok(hdr)
    }
}

/// UDP header, 8 bytes. The checksum is optional in IPv4 and DTA reporters
/// skip it ("freeing them from ... associated checksums", §3), so we carry 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length: header + payload.
    pub len: u16,
}

impl UdpHeader {
    /// Encoded size.
    pub const LEN: usize = 8;

    /// Header for a datagram with `payload_len` payload bytes.
    pub fn new(src_port: u16, dst_port: u16, payload_len: usize) -> Self {
        UdpHeader { src_port, dst_port, len: (Self::LEN + payload_len) as u16 }
    }

    /// Serialize.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(self.len);
        buf.put_u16(0); // checksum elided
    }

    /// Deserialize.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, ReportError> {
        if buf.remaining() < Self::LEN {
            return Err(ReportError::Truncated { need: Self::LEN, have: buf.remaining() });
        }
        let src_port = buf.get_u16();
        let dst_port = buf.get_u16();
        let len = buf.get_u16();
        let _csum = buf.get_u16();
        Ok(UdpHeader { src_port, dst_port, len })
    }
}

/// Total per-packet framing overhead for a UDP datagram: Eth + IPv4 + UDP.
pub const UDP_FRAME_OVERHEAD: usize = EthHeader::LEN + Ipv4Header::LEN + UdpHeader::LEN;

/// A fully framed UDP packet (the unit the simulated network carries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpPacket {
    /// L2 header.
    pub eth: EthHeader,
    /// L3 header.
    pub ip: Ipv4Header,
    /// L4 header.
    pub udp: UdpHeader,
    /// UDP payload.
    pub payload: Bytes,
}

impl UdpPacket {
    /// Frame `payload` from `src_ip:src_port` to `dst_ip:dst_port` with
    /// placeholder MACs (the simulator routes on IP).
    pub fn frame(src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16, payload: Bytes) -> Self {
        let (eth, ip, udp) = Self::headers(src_ip, src_port, dst_ip, dst_port, payload.len());
        UdpPacket { eth, ip, udp, payload }
    }

    /// The headers [`UdpPacket::frame`] puts in front of `payload_len` bytes.
    fn headers(
        src_ip: u32,
        src_port: u16,
        dst_ip: u32,
        dst_port: u16,
        payload_len: usize,
    ) -> (EthHeader, Ipv4Header, UdpHeader) {
        let udp = UdpHeader::new(src_port, dst_port, payload_len);
        let ip = Ipv4Header::udp(src_ip, dst_ip, udp.len as usize);
        (EthHeader::ipv4([0x02, 0, 0, 0, 0, 1], [0x02, 0, 0, 0, 0, 2]), ip, udp)
    }

    /// Append the Eth/IPv4/UDP headers of a framed datagram whose
    /// `payload_len` payload bytes the caller writes into `buf` next: the
    /// same leading [`UDP_FRAME_OVERHEAD`] bytes as
    /// `UdpPacket::frame(.., payload).encode()`, without materializing the
    /// payload first.
    pub fn put_headers<B: BufMut>(
        buf: &mut B,
        src_ip: u32,
        src_port: u16,
        dst_ip: u32,
        dst_port: u16,
        payload_len: usize,
    ) {
        let (eth, ip, udp) = Self::headers(src_ip, src_port, dst_ip, dst_port, payload_len);
        eth.encode(buf);
        ip.encode(buf);
        udp.encode(buf);
    }

    /// Wire size in bytes.
    pub fn wire_len(&self) -> usize {
        UDP_FRAME_OVERHEAD + self.payload.len()
    }

    /// Serialize the whole packet.
    pub fn encode(&self) -> Bytes {
        build_exact(self.wire_len(), |mut buf| {
            self.eth.encode(&mut buf);
            self.ip.encode(&mut buf);
            self.udp.encode(&mut buf);
            buf.put_slice(&self.payload);
        })
    }

    /// The UDP destination port of the encoded frame `frame`, read in
    /// place without decoding or checking anything (`None` when the frame
    /// is too short to carry one): what a node that forwards some frames
    /// whole and decodes the rest looks at first.
    pub fn peek_dst_port(frame: &[u8]) -> Option<u16> {
        const AT: usize = EthHeader::LEN + Ipv4Header::LEN + 2;
        let port = frame.get(AT..)?.first_chunk::<2>()?;
        Some(u16::from_be_bytes(*port))
    }

    /// Deserialize a whole packet. The headers parse from one slice view
    /// of `buf`; the payload is `buf` itself, narrowed once to the
    /// datagram (zero-copy, and no second handle).
    pub fn decode(mut buf: Bytes) -> Result<Self, ReportError> {
        let mut view: &[u8] = &buf;
        let eth = EthHeader::decode(&mut view)?;
        let ip = Ipv4Header::decode(&mut view)?;
        let udp = UdpHeader::decode(&mut view)?;
        let payload_len = (udp.len as usize).saturating_sub(UdpHeader::LEN);
        if view.len() < payload_len {
            return Err(ReportError::Truncated { need: payload_len, have: view.len() });
        }
        buf.advance(UDP_FRAME_OVERHEAD);
        buf.truncate(payload_len);
        Ok(UdpPacket { eth, ip, udp, payload: buf })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn udp_packet_roundtrip() {
        let p = UdpPacket::frame(0x0A000001, 5555, 0x0A000002, 40080, Bytes::from_static(b"dta"));
        let wire = p.encode();
        assert_eq!(wire.len(), p.wire_len());
        assert_eq!(UdpPacket::decode(wire).unwrap(), p);
    }

    #[test]
    fn ipv4_checksum_validates() {
        let ip = Ipv4Header::udp(1, 2, 100);
        let mut buf = BytesMut::new();
        ip.encode(&mut buf);
        assert!(Ipv4Header::decode(&mut buf.freeze()).is_ok());
    }

    #[test]
    fn ipv4_checksum_matches_known_header() {
        // 4500 0073 0000 4000 4011 b861 c0a8 0001 c0a8 00c7
        let ip = Ipv4Header {
            tos: 0,
            total_len: 0x73,
            ident: 0,
            ttl: 0x40,
            proto: Ipv4Header::PROTO_UDP,
            src: 0xC0A8_0001,
            dst: 0xC0A8_00C7,
        };
        assert_eq!(ip.checksum(), 0xB861);
        let mut buf = BytesMut::new();
        ip.encode(&mut buf);
        assert_eq!(&buf[8..12], &[0x40, 0x11, 0xB8, 0x61]);
    }

    /// The checksum taken from the fields is RFC 1071 over the encoded
    /// header's words, for headers with every field varied (a seeded walk).
    #[test]
    fn field_checksum_equals_the_sum_over_encoded_words() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ip = Ipv4Header {
                tos: x as u8,
                total_len: (x >> 8) as u16,
                ident: (x >> 24) as u16,
                ttl: (x >> 40) as u8,
                proto: (x >> 48) as u8,
                src: (x >> 13) as u32,
                dst: (x >> 29) as u32,
            };
            let b = ip.wire_bytes(0);
            let mut sum: u32 =
                b.chunks_exact(2).map(|w| u32::from(u16::from_be_bytes([w[0], w[1]]))).sum();
            while sum >> 16 != 0 {
                sum = (sum & 0xFFFF) + (sum >> 16);
            }
            assert_eq!(ip.checksum(), !(sum as u16), "{ip:?}");
        }
    }

    #[test]
    fn peek_dst_port_reads_the_encoded_port() {
        let frame = UdpPacket::frame(1, 5555, 2, 40080, Bytes::from_static(b"dta")).encode();
        assert_eq!(UdpPacket::peek_dst_port(&frame), Some(40080));
        assert_eq!(UdpPacket::peek_dst_port(&frame[..UDP_FRAME_OVERHEAD - 4]), Some(40080));
        assert_eq!(UdpPacket::peek_dst_port(&frame[..UDP_FRAME_OVERHEAD - 5]), None);
    }

    /// Any one flipped byte of a field the decoder checks reads as a
    /// checksum failure — not as a version error — except the version byte
    /// itself. (The fragment word, bytes 6–7, is fixed on encode and never
    /// read back, so the check does not cover it.)
    #[test]
    fn flipped_header_byte_is_a_checksum_failure() {
        let mut clean = BytesMut::new();
        Ipv4Header::udp(0x0A00_0001, 0x0A00_0900, 60).encode(&mut clean);
        for i in (0..Ipv4Header::LEN).filter(|i| !(6..8).contains(i)) {
            let mut buf = clean.clone();
            buf[i] ^= 0xFF;
            let want = match i {
                0 => ReportError::BadVersion(0x45 ^ 0xFF),
                _ => ReportError::BadChecksum,
            };
            assert_eq!(Ipv4Header::decode(&mut buf.freeze()), Err(want), "byte {i}");
        }
        let mut frame = UdpPacket::frame(1, 2, 3, 4, Bytes::from_static(b"dta")).encode().to_vec();
        frame[EthHeader::LEN + 12] ^= 0x01; // source address
        assert_eq!(UdpPacket::decode(Bytes::from(frame)), Err(ReportError::BadChecksum));
        assert_eq!(
            ReportError::BadChecksum.to_string(),
            "checksum mismatch: frame corrupted in flight"
        );
    }

    #[test]
    fn frame_overhead_is_42_bytes() {
        assert_eq!(UDP_FRAME_OVERHEAD, 42);
    }

    #[test]
    fn truncated_payload_detected() {
        let p = UdpPacket::frame(1, 2, 3, 4, Bytes::from(vec![0u8; 20]));
        let wire = p.encode();
        let short = wire.slice(0..wire.len() - 5);
        assert!(UdpPacket::decode(short).is_err());
    }
}
