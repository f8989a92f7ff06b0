//! The fixed DTA header.
//!
//! Every DTA report starts (after UDP) with this 8-byte header:
//!
//! ```text
//!  0        1        2        3        4..8
//! +--------+--------+--------+--------+----------------+
//! | version| opcode | flags  | rsvd   | sequence (u32) |
//! +--------+--------+--------+--------+----------------+
//! ```
//!
//! The sequence number is per-reporter and lets the translator detect
//! in-transit report loss when a flow-control mechanism is enabled (§7,
//! "Flow Control in DTA"). It is informational: the primitives tolerate loss
//! by design.

use bytes::{Buf, BufMut};

use crate::report::ReportError;

/// Protocol version implemented by this crate.
pub const DTA_VERSION: u8 = 1;

/// Well-known UDP destination port for DTA reports.
///
/// Any unassigned port works; the translator's parser keys on it. 40080 is
/// what the open-source artifact uses for its experiments.
pub const DTA_UDP_PORT: u16 = 40080;

/// The collection primitive requested by a report (§4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DtaOpcode {
    /// Key-Write: probabilistic key-value storage with N-redundancy.
    KeyWrite = 1,
    /// Append: insertion into a named global list.
    Append = 2,
    /// Key-Increment: addition-based aggregation (Count-Min semantics).
    KeyIncrement = 3,
    /// Postcarding: per-flow aggregation of per-hop INT postcards.
    Postcarding = 4,
}

impl DtaOpcode {
    /// Decode an opcode byte.
    pub fn from_u8(v: u8) -> Result<Self, ReportError> {
        match v {
            1 => Ok(DtaOpcode::KeyWrite),
            2 => Ok(DtaOpcode::Append),
            3 => Ok(DtaOpcode::KeyIncrement),
            4 => Ok(DtaOpcode::Postcarding),
            other => Err(ReportError::UnknownOpcode(other)),
        }
    }
}

/// DTA header flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DtaFlags {
    /// Report should raise an RDMA-immediate interrupt at the collector
    /// ("Push notifications", §7).
    pub immediate: bool,
    /// Reporter requests a NACK if the translator's rate limiter drops this
    /// report during collector NIC congestion (§5.2).
    pub nack_on_drop: bool,
}

impl DtaFlags {
    const IMMEDIATE: u8 = 0b0000_0001;
    const NACK_ON_DROP: u8 = 0b0000_0010;

    /// Pack into the wire byte.
    fn to_byte(self) -> u8 {
        let mut b = 0;
        if self.immediate {
            b |= Self::IMMEDIATE;
        }
        if self.nack_on_drop {
            b |= Self::NACK_ON_DROP;
        }
        b
    }

    /// Unpack from the wire byte; unknown bits are ignored for forward
    /// compatibility.
    fn from_byte(b: u8) -> Self {
        DtaFlags {
            immediate: b & Self::IMMEDIATE != 0,
            nack_on_drop: b & Self::NACK_ON_DROP != 0,
        }
    }
}

/// The fixed 8-byte DTA header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtaHeader {
    /// Protocol version (must equal [`DTA_VERSION`]).
    pub version: u8,
    /// Requested primitive.
    pub opcode: DtaOpcode,
    /// Flag bits.
    pub flags: DtaFlags,
    /// Per-reporter report sequence number.
    pub seq: u32,
}

impl DtaHeader {
    /// Encoded size.
    pub const LEN: usize = 8;

    /// New header with default flags.
    pub fn new(opcode: DtaOpcode, seq: u32) -> Self {
        DtaHeader { version: DTA_VERSION, opcode, flags: DtaFlags::default(), seq }
    }

    /// Serialize into `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(self.version);
        buf.put_u8(self.opcode as u8);
        buf.put_u8(self.flags.to_byte());
        buf.put_u8(0); // reserved
        buf.put_u32(self.seq);
    }

    /// Deserialize from `buf`.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, ReportError> {
        if buf.remaining() < Self::LEN {
            return Err(ReportError::Truncated { need: Self::LEN, have: buf.remaining() });
        }
        let version = buf.get_u8();
        if version != DTA_VERSION {
            return Err(ReportError::BadVersion(version));
        }
        let opcode = DtaOpcode::from_u8(buf.get_u8())?;
        let flags = DtaFlags::from_byte(buf.get_u8());
        let _rsvd = buf.get_u8();
        let seq = buf.get_u32();
        Ok(DtaHeader { version, opcode, flags, seq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn header_roundtrip() {
        let mut h = DtaHeader::new(DtaOpcode::Postcarding, 0xDEAD_BEEF);
        h.flags.immediate = true;
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), DtaHeader::LEN);
        let got = DtaHeader::decode(&mut buf.freeze()).unwrap();
        assert_eq!(got, h);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = BytesMut::new();
        DtaHeader::new(DtaOpcode::Append, 1).encode(&mut buf);
        buf[0] = 99;
        assert!(matches!(
            DtaHeader::decode(&mut buf.freeze()),
            Err(ReportError::BadVersion(99))
        ));
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut buf = BytesMut::new();
        DtaHeader::new(DtaOpcode::Append, 1).encode(&mut buf);
        buf[1] = 0;
        assert!(matches!(
            DtaHeader::decode(&mut buf.freeze()),
            Err(ReportError::UnknownOpcode(0))
        ));
    }

    #[test]
    fn truncated_rejected() {
        let mut buf = BytesMut::new();
        DtaHeader::new(DtaOpcode::KeyWrite, 1).encode(&mut buf);
        let mut short = buf.freeze().slice(0..4);
        assert!(matches!(
            DtaHeader::decode(&mut short),
            Err(ReportError::Truncated { .. })
        ));
    }

    #[test]
    fn flags_roundtrip_all_combinations() {
        for imm in [false, true] {
            for nack in [false, true] {
                let f = DtaFlags { immediate: imm, nack_on_drop: nack };
                assert_eq!(DtaFlags::from_byte(f.to_byte()), f);
            }
        }
    }

    #[test]
    fn unknown_flag_bits_ignored() {
        let f = DtaFlags::from_byte(0b1111_1100);
        assert!(!f.immediate);
        assert!(!f.nack_on_drop);
    }
}
