//! Primitive sub-headers (Figure 4: "Primitive Sub-header").
//!
//! Each of the four DTA primitives carries its parameters in a sub-header
//! immediately following the fixed [`crate::DtaHeader`]. The telemetry
//! payload follows the sub-header.

use bytes::{Buf, BufMut};

use crate::header::DtaOpcode;
use crate::key::TelemetryKey;
use crate::report::ReportError;

/// Key-Write sub-header: `KeyWrite(key, data)` with per-report redundancy.
///
/// "DTA also lets switches specify the importance of per-key telemetry data
/// by including the level of redundancy, or the number of copies to store, as
/// a field in the KW header." (§4)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyWriteHeader {
    /// Storage key.
    pub key: TelemetryKey,
    /// Number of redundant copies `N` (1..=8).
    pub redundancy: u8,
}

impl KeyWriteHeader {
    /// Encoded size.
    pub const LEN: usize = TelemetryKey::LEN + 1;

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(self.key.as_bytes());
        buf.put_u8(self.redundancy);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, ReportError> {
        if buf.remaining() < Self::LEN {
            return Err(ReportError::Truncated { need: Self::LEN, have: buf.remaining() });
        }
        let mut key = [0u8; 16];
        buf.copy_to_slice(&mut key);
        let redundancy = buf.get_u8();
        if redundancy == 0 || redundancy > crate::MAX_REDUNDANCY {
            return Err(ReportError::BadRedundancy(redundancy));
        }
        Ok(KeyWriteHeader { key: TelemetryKey(key), redundancy })
    }
}

/// Key-Increment sub-header: `KeyIncrement(key, counter)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyIncrementHeader {
    /// Counter key.
    pub key: TelemetryKey,
    /// Number of sketch rows to increment `N` (1..=8).
    pub redundancy: u8,
    /// The amount to add.
    pub delta: u64,
}

impl KeyIncrementHeader {
    /// Encoded size.
    pub const LEN: usize = TelemetryKey::LEN + 1 + 8;

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(self.key.as_bytes());
        buf.put_u8(self.redundancy);
        buf.put_u64(self.delta);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, ReportError> {
        if buf.remaining() < Self::LEN {
            return Err(ReportError::Truncated { need: Self::LEN, have: buf.remaining() });
        }
        let mut key = [0u8; 16];
        buf.copy_to_slice(&mut key);
        let redundancy = buf.get_u8();
        if redundancy == 0 || redundancy > crate::MAX_REDUNDANCY {
            return Err(ReportError::BadRedundancy(redundancy));
        }
        let delta = buf.get_u64();
        Ok(KeyIncrementHeader { key: TelemetryKey(key), redundancy, delta })
    }
}

/// Append sub-header: `Append(listID, data)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendHeader {
    /// Target list. The prototype translator "supports tracking up to 131K
    /// simultaneous lists" (§5.2).
    pub list_id: u32,
}

impl AppendHeader {
    /// Encoded size.
    pub const LEN: usize = 4;

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(self.list_id);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, ReportError> {
        if buf.remaining() < Self::LEN {
            return Err(ReportError::Truncated { need: Self::LEN, have: buf.remaining() });
        }
        Ok(AppendHeader { list_id: buf.get_u32() })
    }
}

/// Postcarding sub-header: `Postcarding(key, hop, data)`.
///
/// The egress switch includes the packet's path length so the translator can
/// trigger the aggregate write before the postcard counter reaches the
/// topology bound `B` (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostcardingHeader {
    /// Flow / packet identifier the postcards aggregate under.
    pub key: TelemetryKey,
    /// Hop index of this postcard (0-based, `< path_len`).
    pub hop: u8,
    /// Total path length of the packet, when known by the reporter
    /// (0 = unknown, translator waits for `B` postcards).
    pub path_len: u8,
    /// The 4-byte INT value for this hop (switch ID, queue depth, ...). The
    /// INT standard hardcodes 32-bit values \[21\].
    pub value: u32,
}

impl PostcardingHeader {
    /// Encoded size.
    pub const LEN: usize = TelemetryKey::LEN + 1 + 1 + 4;

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(self.key.as_bytes());
        buf.put_u8(self.hop);
        buf.put_u8(self.path_len);
        buf.put_u32(self.value);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, ReportError> {
        if buf.remaining() < Self::LEN {
            return Err(ReportError::Truncated { need: Self::LEN, have: buf.remaining() });
        }
        let mut key = [0u8; 16];
        buf.copy_to_slice(&mut key);
        let hop = buf.get_u8();
        let path_len = buf.get_u8();
        let value = buf.get_u32();
        if path_len != 0 && hop >= path_len {
            return Err(ReportError::BadHop { hop, path_len });
        }
        Ok(PostcardingHeader { key: TelemetryKey(key), hop, path_len, value })
    }
}

/// A decoded primitive sub-header of any kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimitiveHeader {
    /// Key-Write parameters.
    KeyWrite(KeyWriteHeader),
    /// Append parameters.
    Append(AppendHeader),
    /// Key-Increment parameters.
    KeyIncrement(KeyIncrementHeader),
    /// Postcarding parameters.
    Postcarding(PostcardingHeader),
}

impl PrimitiveHeader {
    /// The widest sub-header (Key-Increment's).
    pub const MAX_LEN: usize = KeyIncrementHeader::LEN;

    /// The opcode matching this sub-header.
    pub fn opcode(&self) -> DtaOpcode {
        match self {
            PrimitiveHeader::KeyWrite(_) => DtaOpcode::KeyWrite,
            PrimitiveHeader::Append(_) => DtaOpcode::Append,
            PrimitiveHeader::KeyIncrement(_) => DtaOpcode::KeyIncrement,
            PrimitiveHeader::Postcarding(_) => DtaOpcode::Postcarding,
        }
    }

    /// Encoded size of this sub-header.
    pub fn encoded_len(&self) -> usize {
        match self {
            PrimitiveHeader::KeyWrite(_) => KeyWriteHeader::LEN,
            PrimitiveHeader::Append(_) => AppendHeader::LEN,
            PrimitiveHeader::KeyIncrement(_) => KeyIncrementHeader::LEN,
            PrimitiveHeader::Postcarding(_) => PostcardingHeader::LEN,
        }
    }

    /// Serialize into `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            PrimitiveHeader::KeyWrite(h) => h.encode(buf),
            PrimitiveHeader::Append(h) => h.encode(buf),
            PrimitiveHeader::KeyIncrement(h) => h.encode(buf),
            PrimitiveHeader::Postcarding(h) => h.encode(buf),
        }
    }

    /// Deserialize the sub-header for `opcode` from `buf`.
    pub fn decode<B: Buf>(opcode: DtaOpcode, buf: &mut B) -> Result<Self, ReportError> {
        Ok(match opcode {
            DtaOpcode::KeyWrite => PrimitiveHeader::KeyWrite(KeyWriteHeader::decode(buf)?),
            DtaOpcode::Append => PrimitiveHeader::Append(AppendHeader::decode(buf)?),
            DtaOpcode::KeyIncrement => {
                PrimitiveHeader::KeyIncrement(KeyIncrementHeader::decode(buf)?)
            }
            DtaOpcode::Postcarding => {
                PrimitiveHeader::Postcarding(PostcardingHeader::decode(buf)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip(h: PrimitiveHeader) {
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), h.encoded_len());
        let got = PrimitiveHeader::decode(h.opcode(), &mut buf.freeze()).unwrap();
        assert_eq!(got, h);
    }

    #[test]
    fn max_len_is_the_widest_sub_header() {
        let lens = [
            KeyWriteHeader::LEN,
            AppendHeader::LEN,
            KeyIncrementHeader::LEN,
            PostcardingHeader::LEN,
        ];
        assert_eq!(PrimitiveHeader::MAX_LEN, lens.into_iter().max().unwrap());
    }

    #[test]
    fn keywrite_roundtrip() {
        roundtrip(PrimitiveHeader::KeyWrite(KeyWriteHeader {
            key: TelemetryKey::from_u64(42),
            redundancy: 2,
        }));
    }

    #[test]
    fn append_roundtrip() {
        roundtrip(PrimitiveHeader::Append(AppendHeader { list_id: 131_000 }));
    }

    #[test]
    fn keyincrement_roundtrip() {
        roundtrip(PrimitiveHeader::KeyIncrement(KeyIncrementHeader {
            key: TelemetryKey::src_ip(0x0A000001),
            redundancy: 4,
            delta: 1 << 40,
        }));
    }

    #[test]
    fn postcarding_roundtrip() {
        roundtrip(PrimitiveHeader::Postcarding(PostcardingHeader {
            key: TelemetryKey::from_u64(7),
            hop: 3,
            path_len: 5,
            value: 0xABCD_EF01,
        }));
    }

    #[test]
    fn zero_redundancy_rejected() {
        let mut buf = BytesMut::new();
        PrimitiveHeader::KeyWrite(KeyWriteHeader {
            key: TelemetryKey::from_u64(1),
            redundancy: 1,
        })
        .encode(&mut buf);
        buf[16] = 0;
        assert!(matches!(
            PrimitiveHeader::decode(DtaOpcode::KeyWrite, &mut buf.freeze()),
            Err(ReportError::BadRedundancy(0))
        ));
    }

    #[test]
    fn excess_redundancy_rejected() {
        let mut buf = BytesMut::new();
        PrimitiveHeader::KeyWrite(KeyWriteHeader {
            key: TelemetryKey::from_u64(1),
            redundancy: 1,
        })
        .encode(&mut buf);
        buf[16] = 9;
        assert!(matches!(
            PrimitiveHeader::decode(DtaOpcode::KeyWrite, &mut buf.freeze()),
            Err(ReportError::BadRedundancy(9))
        ));
    }

    #[test]
    fn hop_beyond_path_rejected() {
        let mut buf = BytesMut::new();
        PrimitiveHeader::Postcarding(PostcardingHeader {
            key: TelemetryKey::from_u64(1),
            hop: 0,
            path_len: 5,
            value: 0,
        })
        .encode(&mut buf);
        buf[16] = 5; // hop = path_len
        assert!(matches!(
            PrimitiveHeader::decode(DtaOpcode::Postcarding, &mut buf.freeze()),
            Err(ReportError::BadHop { hop: 5, path_len: 5 })
        ));
    }

    #[test]
    fn unknown_path_len_accepts_any_hop() {
        let mut buf = BytesMut::new();
        PrimitiveHeader::Postcarding(PostcardingHeader {
            key: TelemetryKey::from_u64(1),
            hop: 9,
            path_len: 0,
            value: 0,
        })
        .encode(&mut buf);
        assert!(PrimitiveHeader::decode(DtaOpcode::Postcarding, &mut buf.freeze()).is_ok());
    }
}
