//! Complete DTA reports: header + sub-header + telemetry payload.

use bytes::{Buf, BufMut, Bytes};

use crate::header::{DtaFlags, DtaHeader, DtaOpcode};
use crate::key::TelemetryKey;
use crate::primitive::{
    AppendHeader, KeyIncrementHeader, KeyWriteHeader, PostcardingHeader, PrimitiveHeader,
};
use crate::pool::build_exact;
use crate::MAX_TELEMETRY_PAYLOAD;

/// Errors arising while decoding DTA messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// Buffer shorter than a fixed-size field requires.
    Truncated {
        /// Bytes needed.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// Unsupported protocol version byte.
    BadVersion(u8),
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// Redundancy outside `1..=MAX_REDUNDANCY`.
    BadRedundancy(u8),
    /// Postcard hop index not below the declared path length.
    BadHop {
        /// Offending hop index.
        hop: u8,
        /// Declared path length.
        path_len: u8,
    },
    /// Telemetry payload exceeds [`MAX_TELEMETRY_PAYLOAD`].
    PayloadTooLarge(usize),
    /// A header checksum (IPv4) or the RoCE ICRC does not match the bytes
    /// it covers: the frame was corrupted in flight.
    BadChecksum,
}

impl core::fmt::Display for ReportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReportError::Truncated { need, have } => {
                write!(f, "truncated DTA message: need {need} bytes, have {have}")
            }
            ReportError::BadVersion(v) => write!(f, "unsupported DTA version {v}"),
            ReportError::UnknownOpcode(o) => write!(f, "unknown DTA opcode {o}"),
            ReportError::BadRedundancy(n) => write!(f, "redundancy {n} out of range"),
            ReportError::BadHop { hop, path_len } => {
                write!(f, "hop {hop} not below path length {path_len}")
            }
            ReportError::PayloadTooLarge(n) => {
                write!(f, "telemetry payload of {n} bytes exceeds {MAX_TELEMETRY_PAYLOAD}")
            }
            ReportError::BadChecksum => write!(f, "checksum mismatch: frame corrupted in flight"),
        }
    }
}

impl std::error::Error for ReportError {}

/// A full DTA report as carried in a UDP payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DtaReport {
    /// Fixed header.
    pub header: DtaHeader,
    /// Primitive parameters.
    pub primitive: PrimitiveHeader,
    /// Telemetry payload (the monitoring system's own bytes). Postcarding
    /// carries its value inside the sub-header, so its payload is empty.
    pub payload: Bytes,
}

// Reports move by value through workload vectors and shard rings: a field
// or a `Bytes` that grows widens every one of them, so the width is pinned.
const _: () = assert!(std::mem::size_of::<DtaReport>() == 88);

impl DtaReport {
    /// Build a Key-Write report.
    pub fn key_write(seq: u32, key: TelemetryKey, redundancy: u8, data: impl Into<Bytes>) -> Self {
        DtaReport {
            header: DtaHeader::new(DtaOpcode::KeyWrite, seq),
            primitive: PrimitiveHeader::KeyWrite(KeyWriteHeader { key, redundancy }),
            payload: data.into(),
        }
    }

    /// Build an Append report.
    pub fn append(seq: u32, list_id: u32, data: impl Into<Bytes>) -> Self {
        DtaReport {
            header: DtaHeader::new(DtaOpcode::Append, seq),
            primitive: PrimitiveHeader::Append(AppendHeader { list_id }),
            payload: data.into(),
        }
    }

    /// Build a Key-Increment report.
    pub fn key_increment(seq: u32, key: TelemetryKey, redundancy: u8, delta: u64) -> Self {
        DtaReport {
            header: DtaHeader::new(DtaOpcode::KeyIncrement, seq),
            primitive: PrimitiveHeader::KeyIncrement(KeyIncrementHeader {
                key,
                redundancy,
                delta,
            }),
            payload: Bytes::new(),
        }
    }

    /// Build a Postcarding report.
    pub fn postcard(seq: u32, key: TelemetryKey, hop: u8, path_len: u8, value: u32) -> Self {
        DtaReport {
            header: DtaHeader::new(DtaOpcode::Postcarding, seq),
            primitive: PrimitiveHeader::Postcarding(PostcardingHeader {
                key,
                hop,
                path_len,
                value,
            }),
            payload: Bytes::new(),
        }
    }

    /// Set flag bits (builder style).
    pub fn with_flags(mut self, flags: DtaFlags) -> Self {
        self.header.flags = flags;
        self
    }

    /// The widest encoding of any report: the fixed header, the widest
    /// sub-header and a full telemetry payload.
    pub const MAX_LEN: usize = DtaHeader::LEN + PrimitiveHeader::MAX_LEN + MAX_TELEMETRY_PAYLOAD;

    /// Encoded size in bytes (the DTA-over-UDP payload length), or
    /// [`ReportError::PayloadTooLarge`] for a report no encoder accepts.
    pub fn encoded_len(&self) -> Result<usize, ReportError> {
        if self.payload.len() > MAX_TELEMETRY_PAYLOAD {
            return Err(ReportError::PayloadTooLarge(self.payload.len()));
        }
        Ok(DtaHeader::LEN + self.primitive.encoded_len() + self.payload.len())
    }

    /// Write the encoding — header, sub-header, payload — to `buf`: the one
    /// report writer, behind [`DtaReport::encode`] and the reporter's
    /// single-pass framing. The caller has checked [`DtaReport::encoded_len`].
    pub fn put<B: BufMut>(&self, buf: &mut B) {
        debug_assert_eq!(self.header.opcode, self.primitive.opcode());
        self.header.encode(buf);
        self.primitive.encode(buf);
        buf.put_slice(&self.payload);
    }

    /// Serialize to a fresh buffer.
    pub fn encode(&self) -> Result<Bytes, ReportError> {
        let len = self.encoded_len()?;
        Ok(build_exact(len, |mut buf| self.put(&mut buf)))
    }

    /// Deserialize a report from a UDP payload. The headers parse from one
    /// slice view of `buf`; the payload is what is left of `buf` itself
    /// (zero-copy, and no second handle).
    pub fn decode(mut buf: Bytes) -> Result<Self, ReportError> {
        let mut view: &[u8] = &buf;
        let header = DtaHeader::decode(&mut view)?;
        let primitive = PrimitiveHeader::decode(header.opcode, &mut view)?;
        let payload_len = view.len();
        if payload_len > MAX_TELEMETRY_PAYLOAD {
            return Err(ReportError::PayloadTooLarge(payload_len));
        }
        buf.advance(buf.len() - payload_len);
        Ok(DtaReport { header, primitive, payload: buf })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywrite_report_roundtrip() {
        let r = DtaReport::key_write(9, TelemetryKey::from_u64(5), 2, vec![1, 2, 3, 4]);
        let wire = r.encode().unwrap();
        assert_eq!(DtaReport::decode(wire).unwrap(), r);
    }

    #[test]
    fn append_report_roundtrip() {
        let r = DtaReport::append(0, 77, vec![0xAA; 18]); // NetSeer-sized event
        let wire = r.encode().unwrap();
        assert_eq!(DtaReport::decode(wire).unwrap(), r);
    }

    #[test]
    fn keyincrement_report_roundtrip() {
        let r = DtaReport::key_increment(1, TelemetryKey::src_ip(1), 3, 12345);
        let wire = r.encode().unwrap();
        assert_eq!(DtaReport::decode(wire).unwrap(), r);
    }

    #[test]
    fn postcard_report_roundtrip() {
        let r = DtaReport::postcard(2, TelemetryKey::from_u64(8), 1, 5, 0x1234);
        let wire = r.encode().unwrap();
        assert_eq!(DtaReport::decode(wire).unwrap(), r);
    }

    #[test]
    fn oversized_payload_rejected_on_encode() {
        let r = DtaReport::append(0, 1, vec![0u8; MAX_TELEMETRY_PAYLOAD + 1]);
        assert!(matches!(r.encode(), Err(ReportError::PayloadTooLarge(_))));
    }

    #[test]
    fn wire_size_matches_figure4_layout() {
        // 4B INT postcard via Key-Write: 8 (hdr) + 17 (KW sub) + 4 = 29 B of
        // DTA payload — the lightweight encapsulation the paper relies on.
        let r = DtaReport::key_write(0, TelemetryKey::from_u64(1), 1, vec![0u8; 4]);
        assert_eq!(r.encoded_len(), Ok(29));
        assert_eq!(r.encode().unwrap().len(), 29);
    }

    #[test]
    fn immediate_flag_survives_roundtrip() {
        let r = DtaReport::append(3, 1, vec![1]).with_flags(DtaFlags {
            immediate: true,
            nack_on_drop: true,
        });
        let got = DtaReport::decode(r.encode().unwrap()).unwrap();
        assert!(got.header.flags.immediate);
        assert!(got.header.flags.nack_on_drop);
    }
}
