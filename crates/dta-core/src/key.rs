//! Telemetry keys.
//!
//! Key-Write, Key-Increment and Postcarding all address collector memory by a
//! key from an arbitrary domain (flow 5-tuple, source IP, a packet ID, ...).
//! On the wire a key is a fixed 16-byte field — large enough for every key
//! type in the paper's Table 2 — that the translator hashes verbatim.

use crate::flow::FlowTuple;

/// A 16-byte telemetry key.
///
/// Keys shorter than 16 bytes are zero-padded on the right; the padding is
/// part of the hashed bytes, so two different-length keys with equal prefixes
/// remain distinct only if their content differs (all constructors here embed
/// a type tag to guarantee that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TelemetryKey(pub [u8; 16]);

/// Type tags embedded in byte 0 of structured keys, so that e.g. a flow key
/// can never alias a source-IP key.
mod tag {
    pub(super) const FLOW: u8 = 1;
    pub(super) const SRC_IP: u8 = 2;
    pub(super) const RAW: u8 = 5;
    pub(super) const U64: u8 = 6;
}

impl TelemetryKey {
    /// Length of every key on the wire.
    pub const LEN: usize = 16;

    /// Key for a flow 5-tuple (INT path tracing, PINT, Marple flowlets...).
    pub fn flow(f: &FlowTuple) -> Self {
        let mut k = [0u8; 16];
        k[0] = tag::FLOW;
        k[1..14].copy_from_slice(&f.encode());
        TelemetryKey(k)
    }

    /// Key for a source IP (Marple host counters).
    pub fn src_ip(ip: u32) -> Self {
        let mut k = [0u8; 16];
        k[0] = tag::SRC_IP;
        k[1..5].copy_from_slice(&ip.to_be_bytes());
        TelemetryKey(k)
    }

    /// Key from an arbitrary u64 identifier (packet IDs, test keys).
    pub fn from_u64(v: u64) -> Self {
        let mut k = [0u8; 16];
        k[0] = tag::U64;
        k[1..9].copy_from_slice(&v.to_be_bytes());
        TelemetryKey(k)
    }

    /// Key from raw bytes (`len <= 15`; byte 0 is the RAW tag).
    ///
    /// # Panics
    /// Panics if `bytes.len() > 15`.
    pub fn raw(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 15, "raw key too long: {}", bytes.len());
        let mut k = [0u8; 16];
        k[0] = tag::RAW;
        k[1..1 + bytes.len()].copy_from_slice(bytes);
        TelemetryKey(k)
    }

    /// The bytes the translator hashes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl AsRef<[u8]> for TelemetryKey {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<&FlowTuple> for TelemetryKey {
    fn from(f: &FlowTuple) -> Self {
        TelemetryKey::flow(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_never_alias_across_types() {
        let f = FlowTuple::tcp(7, 7, 7, 7);
        let keys = [
            TelemetryKey::flow(&f),
            TelemetryKey::src_ip(7),
            TelemetryKey::from_u64(7),
            TelemetryKey::raw(&[7]),
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "key types {i} and {j} alias");
            }
        }
    }

    #[test]
    fn flow_key_roundtrips_flow_identity() {
        let a = FlowTuple::tcp(1, 2, 3, 4);
        let b = FlowTuple::tcp(1, 2, 3, 5);
        assert_ne!(TelemetryKey::flow(&a), TelemetryKey::flow(&b));
        assert_eq!(TelemetryKey::flow(&a), TelemetryKey::from(&a));
    }

    #[test]
    #[should_panic]
    fn oversized_raw_key_rejected() {
        let _ = TelemetryKey::raw(&[0u8; 16]);
    }
}
