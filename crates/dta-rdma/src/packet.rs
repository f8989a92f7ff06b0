//! RoCEv2 wire format.
//!
//! A RoCEv2 packet is `Eth | IPv4 | UDP(dport=4791) | BTH | [ext headers] |
//! payload | ICRC`. We implement the headers DTA needs: BTH (always), RETH
//! (RDMA WRITE), AtomicETH (FETCH_ADD), ImmDt (immediate data), and a
//! CRC32-based ICRC over the payload (the real ICRC masks some fields; the
//! simulation checks integrity end-to-end which is the property that
//! matters).

use bytes::{Buf, BufMut, Bytes};
use dta_core::framing::{UdpPacket, UDP_FRAME_OVERHEAD};
use dta_core::pool::build_exact;
use dta_core::report::ReportError;
use dta_core::ImagePool;
use dta_hash_icrc::icrc32;

/// UDP destination port registered for RoCEv2.
pub const ROCE_UDP_PORT: u16 = 4791;

/// Length of the ICRC trailer.
const ICRC_LEN: usize = 4;

/// The widest WRITE payload a pooled frame holds, and the width of the
/// translator's image pool: a Key-Write slot, a Postcarding chunk, an
/// Append batch of `16 × 4 B`. One cache line, and the bound on the slot
/// and chunk images a collector query reads onto its stack.
pub const IMAGE_BYTES: usize = 64;

/// Buffer width of a pooled RoCE frame: Eth/IPv4/UDP, BTH, RETH, immediate
/// data, a full image and the ICRC. Every ACK, NAK, FETCH_ADD and READ
/// request fits too; a wider frame (a full-MTU segment, a migration READ
/// response) is one exact-size allocation.
pub const FRAME_BYTES: usize =
    UDP_FRAME_OVERHEAD + Bth::LEN + Reth::LEN + ImmDt::LEN + IMAGE_BYTES + ICRC_LEN;

/// Depth of a RoCE framer's pool (the translator's link, a collector
/// node): its ring grows only to the frames it has in flight at once, up
/// to this many.
pub const FRAME_POOL_DEPTH: usize = 1024;

/// IB transport opcodes (Reliable Connection class) used by DTA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// RDMA WRITE First (starts a multi-packet write; carries the RETH).
    WriteFirst = 0x06,
    /// RDMA WRITE Middle.
    WriteMiddle = 0x07,
    /// RDMA WRITE Last.
    WriteLast = 0x08,
    /// SEND Only.
    SendOnly = 0x04,
    /// SEND Only with Immediate.
    SendOnlyImm = 0x05,
    /// RDMA WRITE Only.
    WriteOnly = 0x0A,
    /// RDMA WRITE Only with Immediate.
    WriteOnlyImm = 0x0B,
    /// RDMA READ Request (carries a RETH naming the bytes to return).
    ReadRequest = 0x0C,
    /// RDMA READ Response Only (single-packet response carrying the bytes).
    ReadResponseOnly = 0x10,
    /// ACK.
    Ack = 0x11,
    /// Atomic ACK.
    AtomicAck = 0x12,
    /// FETCH & ADD.
    FetchAdd = 0x14,
}

impl Opcode {
    /// Decode an opcode byte.
    pub fn from_u8(v: u8) -> Result<Self, ReportError> {
        Ok(match v {
            0x06 => Opcode::WriteFirst,
            0x07 => Opcode::WriteMiddle,
            0x08 => Opcode::WriteLast,
            0x04 => Opcode::SendOnly,
            0x05 => Opcode::SendOnlyImm,
            0x0A => Opcode::WriteOnly,
            0x0B => Opcode::WriteOnlyImm,
            0x0C => Opcode::ReadRequest,
            0x10 => Opcode::ReadResponseOnly,
            0x11 => Opcode::Ack,
            0x12 => Opcode::AtomicAck,
            0x14 => Opcode::FetchAdd,
            other => return Err(ReportError::UnknownOpcode(other)),
        })
    }

    /// Whether this opcode carries a RETH.
    fn has_reth(self) -> bool {
        matches!(
            self,
            Opcode::WriteOnly | Opcode::WriteOnlyImm | Opcode::WriteFirst | Opcode::ReadRequest
        )
    }

    /// Whether this opcode carries an AtomicETH.
    fn has_atomic_eth(self) -> bool {
        matches!(self, Opcode::FetchAdd)
    }

    /// Whether this opcode carries immediate data.
    fn has_imm(self) -> bool {
        matches!(self, Opcode::SendOnlyImm | Opcode::WriteOnlyImm)
    }

    /// Whether the responder must generate an acknowledgement. READ
    /// requests are excluded because the READ response itself carries the
    /// acknowledgement; READ responses are requester-bound and never acked.
    pub fn needs_ack(self) -> bool {
        !matches!(
            self,
            Opcode::Ack | Opcode::AtomicAck | Opcode::ReadRequest | Opcode::ReadResponseOnly
        )
    }
}

/// Base Transport Header — 12 bytes, present in every IB packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bth {
    /// Operation code.
    pub opcode: Opcode,
    /// Solicited event flag (raises an interrupt at the receiver; DTA's
    /// `immediate` flag maps here).
    pub solicited: bool,
    /// Partition key (default partition 0xFFFF).
    pub pkey: u16,
    /// Destination queue pair number (24 bits).
    pub dest_qp: u32,
    /// Whether an ACK is requested for this packet.
    pub ack_req: bool,
    /// Packet sequence number (24 bits).
    pub psn: u32,
}

impl Bth {
    /// Encoded size.
    pub const LEN: usize = 12;

    /// Serialize.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(self.opcode as u8);
        // se(1) | migreq(1) | padcnt(2) | tver(4): only SE used here.
        buf.put_u8(if self.solicited { 0x80 } else { 0x00 });
        buf.put_u16(self.pkey);
        buf.put_u32(self.dest_qp & 0x00FF_FFFF); // rsvd byte + 24-bit QPN
        let ar = if self.ack_req { 0x8000_0000u32 } else { 0 };
        buf.put_u32(ar | (self.psn & 0x00FF_FFFF));
    }

    /// Deserialize.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, ReportError> {
        if buf.remaining() < Self::LEN {
            return Err(ReportError::Truncated { need: Self::LEN, have: buf.remaining() });
        }
        let opcode = Opcode::from_u8(buf.get_u8())?;
        let flags = buf.get_u8();
        let pkey = buf.get_u16();
        let dest_qp = buf.get_u32() & 0x00FF_FFFF;
        let last = buf.get_u32();
        Ok(Bth {
            opcode,
            solicited: flags & 0x80 != 0,
            pkey,
            dest_qp,
            ack_req: last & 0x8000_0000 != 0,
            psn: last & 0x00FF_FFFF,
        })
    }
}

/// RDMA Extended Transport Header — 16 bytes, carried by WRITE packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reth {
    /// Remote virtual address.
    pub va: u64,
    /// Remote key of the target memory region.
    pub rkey: u32,
    /// DMA length in bytes.
    pub dma_len: u32,
}

impl Reth {
    /// Encoded size.
    pub const LEN: usize = 16;

    /// Serialize.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64(self.va);
        buf.put_u32(self.rkey);
        buf.put_u32(self.dma_len);
    }

    /// Deserialize.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, ReportError> {
        if buf.remaining() < Self::LEN {
            return Err(ReportError::Truncated { need: Self::LEN, have: buf.remaining() });
        }
        Ok(Reth { va: buf.get_u64(), rkey: buf.get_u32(), dma_len: buf.get_u32() })
    }
}

/// Atomic Extended Transport Header — 28 bytes, carried by FETCH_ADD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicEth {
    /// Remote virtual address (must be 8-byte aligned).
    pub va: u64,
    /// Remote key.
    pub rkey: u32,
    /// Swap (unused by FETCH_ADD) or add data.
    pub swap_add: u64,
    /// Compare data (unused by FETCH_ADD).
    pub compare: u64,
}

impl AtomicEth {
    /// Encoded size.
    pub const LEN: usize = 28;

    /// Serialize.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64(self.va);
        buf.put_u32(self.rkey);
        buf.put_u64(self.swap_add);
        buf.put_u64(self.compare);
    }

    /// Deserialize.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, ReportError> {
        if buf.remaining() < Self::LEN {
            return Err(ReportError::Truncated { need: Self::LEN, have: buf.remaining() });
        }
        Ok(AtomicEth {
            va: buf.get_u64(),
            rkey: buf.get_u32(),
            swap_add: buf.get_u64(),
            compare: buf.get_u64(),
        })
    }
}

/// Immediate data header — 4 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImmDt(pub u32);

impl ImmDt {
    /// Encoded size.
    pub const LEN: usize = 4;
}

/// A complete RoCEv2 transport PDU (everything inside the UDP payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RocePacket {
    /// Base transport header.
    pub bth: Bth,
    /// RETH when the opcode requires one.
    pub reth: Option<Reth>,
    /// AtomicETH when the opcode requires one.
    pub atomic: Option<AtomicEth>,
    /// Immediate data when the opcode carries it.
    pub imm: Option<ImmDt>,
    /// Payload (the written bytes for WRITE, message for SEND, empty for
    /// FETCH_ADD requests).
    pub payload: Bytes,
}

// Packets move by value into every translator output vector and NIC burst:
// a field or a `Bytes` that grows widens every one of them, so the width is
// pinned.
const _: () = assert!(std::mem::size_of::<RocePacket>() == 128);

impl RocePacket {
    /// A WRITE Only packet.
    pub fn write(dest_qp: u32, psn: u32, reth: Reth, payload: Bytes) -> Self {
        RocePacket {
            bth: Bth {
                opcode: Opcode::WriteOnly,
                solicited: false,
                pkey: 0xFFFF,
                dest_qp,
                ack_req: true,
                psn,
            },
            reth: Some(reth),
            atomic: None,
            imm: None,
            payload,
        }
    }

    /// A WRITE Only with Immediate packet (consumes a receive WQE and raises
    /// a completion at the responder — DTA's push-notification path).
    pub fn write_imm(dest_qp: u32, psn: u32, reth: Reth, imm: u32, payload: Bytes) -> Self {
        RocePacket {
            bth: Bth {
                opcode: Opcode::WriteOnlyImm,
                solicited: true,
                pkey: 0xFFFF,
                dest_qp,
                ack_req: true,
                psn,
            },
            reth: Some(reth),
            atomic: None,
            imm: Some(ImmDt(imm)),
            payload,
        }
    }

    /// A FETCH_ADD packet.
    pub fn fetch_add(dest_qp: u32, psn: u32, va: u64, rkey: u32, add: u64) -> Self {
        RocePacket {
            bth: Bth {
                opcode: Opcode::FetchAdd,
                solicited: false,
                pkey: 0xFFFF,
                dest_qp,
                ack_req: true,
                psn,
            },
            reth: None,
            atomic: Some(AtomicEth { va, rkey, swap_add: add, compare: 0 }),
            imm: None,
            payload: Bytes::new(),
        }
    }

    /// A READ Request for the bytes named by `reth` (the rebalance drain
    /// path: the translator reads a source collector's region slice before
    /// replaying it to the new owner).
    pub fn read_request(dest_qp: u32, psn: u32, reth: Reth) -> Self {
        RocePacket {
            bth: Bth {
                opcode: Opcode::ReadRequest,
                solicited: false,
                pkey: 0xFFFF,
                dest_qp,
                ack_req: true,
                psn,
            },
            reth: Some(reth),
            atomic: None,
            imm: None,
            payload: Bytes::new(),
        }
    }

    /// A single-packet READ Response carrying the requested bytes. Echoes
    /// the request PSN so the requester can match it to its outstanding
    /// READ (and treat it as a cumulative ACK up to that PSN).
    pub fn read_response(dest_qp: u32, psn: u32, payload: Bytes) -> Self {
        RocePacket {
            bth: Bth {
                opcode: Opcode::ReadResponseOnly,
                solicited: false,
                pkey: 0xFFFF,
                dest_qp,
                ack_req: false,
                psn,
            },
            reth: None,
            atomic: None,
            imm: None,
            payload,
        }
    }

    /// A SEND Only packet (used by CM metadata advertisement).
    pub fn send(dest_qp: u32, psn: u32, payload: Bytes) -> Self {
        RocePacket {
            bth: Bth {
                opcode: Opcode::SendOnly,
                solicited: false,
                pkey: 0xFFFF,
                dest_qp,
                ack_req: true,
                psn,
            },
            reth: None,
            atomic: None,
            imm: None,
            payload,
        }
    }

    /// A NAK reporting the `expected` PSN (simulation convention: a NAK is
    /// an ACK-opcode packet with the solicited bit set, standing in for the
    /// AETH syndrome field).
    pub fn nak(dest_qp: u32, expected: u32) -> Self {
        let mut p = Self::ack(dest_qp, expected);
        p.bth.solicited = true;
        p
    }

    /// Whether this packet is a NAK (see [`RocePacket::nak`]).
    pub fn is_nak(&self) -> bool {
        self.bth.opcode == Opcode::Ack && self.bth.solicited
    }

    /// An ACK for `psn`.
    pub fn ack(dest_qp: u32, psn: u32) -> Self {
        RocePacket {
            bth: Bth {
                opcode: Opcode::Ack,
                solicited: false,
                pkey: 0xFFFF,
                dest_qp,
                ack_req: false,
                psn,
            },
            reth: None,
            atomic: None,
            imm: None,
            payload: Bytes::new(),
        }
    }

    /// Transport PDU size (headers + payload + ICRC), i.e. the UDP payload
    /// length.
    fn pdu_len(&self) -> usize {
        let mut n = Bth::LEN;
        if self.reth.is_some() {
            n += Reth::LEN;
        }
        if self.atomic.is_some() {
            n += AtomicEth::LEN;
        }
        if self.imm.is_some() {
            n += ImmDt::LEN;
        }
        n + self.payload.len() + ICRC_LEN
    }

    /// Full wire size including Eth/IP/UDP framing.
    pub fn wire_len(&self) -> usize {
        UDP_FRAME_OVERHEAD + self.pdu_len()
    }

    /// Serialize including trailing ICRC, into one exact-size buffer.
    pub fn encode(&self) -> Bytes {
        build_exact(self.pdu_len(), |buf| self.write_pdu(buf))
    }

    /// Serialize the whole Ethernet frame — Eth/IPv4/UDP headers between
    /// `src_ip` and `dst_ip` on the RoCEv2 port, then the transport PDU —
    /// in one pass into a buffer from `pool`: the bytes of
    /// `UdpPacket::frame(src_ip, ROCE_UDP_PORT, dst_ip, ROCE_UDP_PORT, self.encode()).encode()`
    /// with neither intermediate buffer. Frames that fit [`FRAME_BYTES`]
    /// recycle once the receiver drops them.
    pub fn encode_framed(&self, pool: &mut ImagePool, src_ip: u32, dst_ip: u32) -> Bytes {
        let pdu_len = self.pdu_len();
        pool.build(UDP_FRAME_OVERHEAD + pdu_len, |buf| {
            let (mut headers, pdu) = buf.split_at_mut(UDP_FRAME_OVERHEAD);
            let port = ROCE_UDP_PORT;
            UdpPacket::put_headers(&mut headers, src_ip, port, dst_ip, port, pdu_len);
            self.write_pdu(pdu);
        })
    }

    /// Write the transport PDU — headers, payload, and the ICRC over
    /// exactly those bytes — into `buf`, which is [`RocePacket::pdu_len`]
    /// bytes long: the one RoCE serializer.
    fn write_pdu(&self, buf: &mut [u8]) {
        debug_assert_eq!(self.reth.is_some(), self.bth.opcode.has_reth());
        debug_assert_eq!(self.atomic.is_some(), self.bth.opcode.has_atomic_eth());
        debug_assert_eq!(self.imm.is_some(), self.bth.opcode.has_imm());
        let (body, icrc) = buf.split_at_mut(buf.len() - ICRC_LEN);
        let mut w = &mut body[..];
        self.bth.encode(&mut w);
        if let Some(r) = &self.reth {
            r.encode(&mut w);
        }
        if let Some(a) = &self.atomic {
            a.encode(&mut w);
        }
        if let Some(ImmDt(v)) = self.imm {
            w.put_u32(v);
        }
        w.put_slice(&self.payload);
        debug_assert!(w.is_empty(), "pdu_len disagrees with the writer");
        icrc.copy_from_slice(&icrc32(body).to_be_bytes());
    }

    /// Deserialize and verify the ICRC. The headers parse from one slice
    /// view of `buf`; the payload is `buf` itself, narrowed once to the
    /// bytes between the headers and the ICRC (zero-copy, and no second
    /// handle).
    pub fn decode(mut buf: Bytes) -> Result<Self, ReportError> {
        if buf.len() < Bth::LEN + ICRC_LEN {
            return Err(ReportError::Truncated { need: Bth::LEN + ICRC_LEN, have: buf.len() });
        }
        let body_len = buf.len() - ICRC_LEN;
        let (mut view, icrc) = buf.split_at(body_len);
        if icrc32(view) != u32::from_be_bytes(icrc.try_into().expect("ICRC_LEN bytes")) {
            return Err(ReportError::BadChecksum);
        }
        let bth = Bth::decode(&mut view)?;
        let reth = if bth.opcode.has_reth() { Some(Reth::decode(&mut view)?) } else { None };
        let atomic = if bth.opcode.has_atomic_eth() {
            Some(AtomicEth::decode(&mut view)?)
        } else {
            None
        };
        let imm = if bth.opcode.has_imm() {
            if view.remaining() < ImmDt::LEN {
                return Err(ReportError::Truncated { need: ImmDt::LEN, have: view.remaining() });
            }
            Some(ImmDt(view.get_u32()))
        } else {
            None
        };
        let payload_len = view.len();
        buf.truncate(body_len);
        buf.advance(body_len - payload_len);
        Ok(RocePacket { bth, reth, atomic, imm, payload: buf })
    }
}

/// Minimal ICRC implementation (CRC32/IEEE over the transport PDU). The real
/// ICRC masks mutable fields; the simulation's PDUs are immutable in flight
/// so a plain CRC provides the same integrity property.
mod dta_hash_icrc {
    use dta_hash::{Crc32, CrcParams};
    use std::sync::OnceLock;

    /// CRC32 (IEEE, reflected) over `data`, via the shared slice-by-8
    /// engine — this runs once per encoded/decoded packet, so it must not
    /// be the bit-serial walk.
    pub(super) fn icrc32(data: &[u8]) -> u32 {
        static ENGINE: OnceLock<Crc32> = OnceLock::new();
        ENGINE.get_or_init(|| Crc32::new(CrcParams::IEEE)).compute(data)
    }

    #[cfg(test)]
    mod tests {
        /// The engine-backed ICRC must equal the original bit-serial
        /// definition (wire-format stability).
        #[test]
        fn matches_bit_serial_reference() {
            fn reference(data: &[u8]) -> u32 {
                let mut crc = 0xFFFF_FFFFu32;
                for &b in data {
                    crc ^= b as u32;
                    for _ in 0..8 {
                        let mask = (crc & 1).wrapping_neg();
                        crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                    }
                }
                !crc
            }
            for len in [0usize, 1, 7, 8, 13, 64, 300] {
                let data: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
                assert_eq!(super::icrc32(&data), reference(&data), "len {len}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{segment_write, MTU_1024};
    use proptest::prelude::*;

    #[test]
    fn write_roundtrip() {
        let p = RocePacket::write(
            0x1234,
            77,
            Reth { va: 0xDEAD_BEEF_0000, rkey: 42, dma_len: 8 },
            Bytes::from_static(&[1, 2, 3, 4, 5, 6, 7, 8]),
        );
        let wire = p.encode();
        assert_eq!(wire.len(), p.pdu_len());
        assert_eq!(RocePacket::decode(wire).unwrap(), p);
    }

    #[test]
    fn fetch_add_roundtrip() {
        let p = RocePacket::fetch_add(9, 1, 0x1000, 7, 100);
        assert_eq!(RocePacket::decode(p.encode()).unwrap(), p);
    }

    #[test]
    fn send_roundtrip() {
        let p = RocePacket::send(3, 0, Bytes::from_static(b"metadata"));
        assert_eq!(RocePacket::decode(p.encode()).unwrap(), p);
    }

    #[test]
    fn write_imm_roundtrip_preserves_solicited() {
        let p = RocePacket::write_imm(
            1,
            2,
            Reth { va: 0, rkey: 1, dma_len: 4 },
            0xCAFE,
            Bytes::from_static(&[0; 4]),
        );
        let got = RocePacket::decode(p.encode()).unwrap();
        assert!(got.bth.solicited);
        assert_eq!(got.imm, Some(ImmDt(0xCAFE)));
    }

    /// One flipped byte anywhere under the ICRC — headers, payload, or
    /// the trailer itself — reads as a checksum failure, not as a version
    /// error.
    #[test]
    fn flipped_byte_fails_icrc_as_bad_checksum() {
        let p = RocePacket::write(
            1,
            1,
            Reth { va: 0, rkey: 1, dma_len: 4 },
            Bytes::from_static(&[9; 4]),
        );
        let wire = p.encode();
        for i in 0..wire.len() {
            let mut corrupt = wire.to_vec();
            corrupt[i] ^= 0xFF;
            let got = RocePacket::decode(Bytes::from(corrupt));
            assert_eq!(got, Err(ReportError::BadChecksum), "byte {i}");
        }
    }

    #[test]
    fn psn_is_24_bits() {
        let p = RocePacket::ack(1, 0x01FF_FFFF);
        let got = RocePacket::decode(p.encode()).unwrap();
        assert_eq!(got.bth.psn, 0x00FF_FFFF);
    }

    #[test]
    fn write_wire_overhead_matches_model() {
        // 4B payload WRITE: 42 (Eth/IP/UDP) + 12 (BTH) + 16 (RETH) + 4 + 4
        // (ICRC) = 78 bytes. This constant feeds the NIC line-rate model.
        let p = RocePacket::write(
            1,
            0,
            Reth { va: 0, rkey: 0, dma_len: 4 },
            Bytes::from_static(&[0; 4]),
        );
        assert_eq!(p.wire_len(), 78);
    }

    proptest! {
        /// Everything the translator and collector nodes put on the wire —
        /// a slot write, a write with immediate, an over-MTU write as
        /// FIRST/MIDDLE/LAST segments, fetch-add, the migration read
        /// request and its response, ACK and NAK — framed into a pooled
        /// buffer is the bytes of `UdpPacket::frame(.., encode()).encode()`,
        /// fresh or recycled, and decodes back (ICRC verified) through both
        /// layers.
        #[test]
        fn pooled_frame_equals_two_step_framing_and_roundtrips(
            src_ip in any::<u32>(),
            dst_ip in any::<u32>(),
            dest_qp in 0u32..=0xFF_FFFF,
            psn in 0u32..=0xFF_FF00,
            va in any::<u64>(),
            rkey in any::<u32>(),
            add in any::<u64>(),
            imm in any::<u32>(),
            image in prop::collection::vec(any::<u8>(), 1..=IMAGE_BYTES),
            bulk in prop::collection::vec(any::<u8>(), 2 * MTU_1024 + 1..=3 * MTU_1024),
        ) {
            let reth = Reth { va, rkey, dma_len: image.len() as u32 };
            let image = Bytes::from(image);
            let mut qp = crate::qp::QueuePair::new(0x100);
            qp.to_rtr(dest_qp, 0);
            qp.to_rts(psn);
            let mut packets = vec![
                RocePacket::write(dest_qp, psn, reth, image.clone()),
                RocePacket::write_imm(dest_qp, psn, reth, imm, image.clone()),
                RocePacket::fetch_add(dest_qp, psn, va, rkey, add),
                RocePacket::read_request(dest_qp, psn, reth),
                RocePacket::read_response(dest_qp, psn, image),
                RocePacket::ack(dest_qp, psn),
                RocePacket::nak(dest_qp, psn),
            ];
            packets.extend(segment_write(&mut qp, rkey, va, Bytes::from(bulk), MTU_1024));
            let opcodes: Vec<Opcode> = packets.iter().map(|p| p.bth.opcode).collect();
            for op in [Opcode::WriteFirst, Opcode::WriteMiddle, Opcode::WriteLast] {
                prop_assert!(opcodes.contains(&op), "no {:?} segment", op);
            }
            let mut pool = ImagePool::new(FRAME_BYTES, 4);
            for p in &packets {
                let port = ROCE_UDP_PORT;
                let two_step = UdpPacket::frame(src_ip, port, dst_ip, port, p.encode()).encode();
                // Twice: into a fresh buffer, then (the first one dropped)
                // into the recycled one.
                for _ in 0..2 {
                    let framed = p.encode_framed(&mut pool, src_ip, dst_ip);
                    prop_assert_eq!(&framed, &two_step, "{:?}", p.bth.opcode);
                    prop_assert_eq!(framed.len(), p.wire_len());
                    let udp = UdpPacket::decode(framed).unwrap();
                    prop_assert_eq!((udp.ip.src, udp.ip.dst), (src_ip, dst_ip));
                    prop_assert_eq!((udp.udp.src_port, udp.udp.dst_port), (port, port));
                    prop_assert_eq!(&RocePacket::decode(udp.payload).unwrap(), p);
                }
            }
            prop_assert!(pool.recycled > 0 && pool.allocated == 1, "frames that fit must recycle");
        }
    }

    #[test]
    fn ack_needs_no_ack() {
        assert!(!Opcode::Ack.needs_ack());
        assert!(Opcode::WriteOnly.needs_ack());
        assert!(Opcode::FetchAdd.needs_ack());
    }

    #[test]
    fn read_request_roundtrip() {
        let p = RocePacket::read_request(
            0x77,
            19,
            Reth { va: 0x1_0000_0040, rkey: 0x10, dma_len: 8 },
        );
        assert!(p.bth.opcode.has_reth());
        assert!(!p.bth.opcode.needs_ack(), "the READ response is the ack");
        assert_eq!(RocePacket::decode(p.encode()).unwrap(), p);
    }

    #[test]
    fn read_response_roundtrip_carries_payload() {
        let p = RocePacket::read_response(0x78, 19, Bytes::from_static(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert!(!p.bth.opcode.needs_ack());
        let got = RocePacket::decode(p.encode()).unwrap();
        assert_eq!(got, p);
        assert_eq!(&got.payload[..], &[1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
