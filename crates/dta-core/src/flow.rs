//! Flow 5-tuples — the most common telemetry key in Table 2 of the paper.

/// An IPv4 flow 5-tuple `(src, dst, sport, dport, proto)`.
///
/// Most systems in the paper's Table 2 key their telemetry on the flow
/// 5-tuple (INT path tracing, Marple, PINT, ...). The canonical 13-byte wire
/// encoding produced by [`FlowTuple::encode`] is what gets hashed by the
/// translator, so it must be stable across components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub proto: u8,
}

impl FlowTuple {
    /// Length of the canonical encoding.
    const ENCODED_LEN: usize = 13;

    /// TCP flow constructor.
    pub fn tcp(src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) -> Self {
        FlowTuple { src_ip, dst_ip, src_port, dst_port, proto: 6 }
    }

    /// UDP flow constructor.
    pub fn udp(src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) -> Self {
        FlowTuple { src_ip, dst_ip, src_port, dst_port, proto: 17 }
    }

    /// Canonical big-endian wire encoding.
    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        out[0..4].copy_from_slice(&self.src_ip.to_be_bytes());
        out[4..8].copy_from_slice(&self.dst_ip.to_be_bytes());
        out[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        out[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        out[12] = self.proto;
        out
    }

    /// Decode a canonical encoding.
    pub fn decode(buf: &[u8; Self::ENCODED_LEN]) -> Self {
        FlowTuple {
            src_ip: u32::from_be_bytes(buf[0..4].try_into().unwrap()),
            dst_ip: u32::from_be_bytes(buf[4..8].try_into().unwrap()),
            src_port: u16::from_be_bytes(buf[8..10].try_into().unwrap()),
            dst_port: u16::from_be_bytes(buf[10..12].try_into().unwrap()),
            proto: buf[12],
        }
    }
}

impl core::fmt::Display for FlowTuple {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.src_ip.to_be_bytes();
        let d = self.dst_ip.to_be_bytes();
        write!(
            f,
            "{}.{}.{}.{}:{}->{}.{}.{}.{}:{}/{}",
            s[0], s[1], s[2], s[3], self.src_port, d[0], d[1], d[2], d[3], self.dst_port, self.proto
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let f = FlowTuple::tcp(0x0A00_0001, 443, 0x0A00_0002, 8080);
        assert_eq!(FlowTuple::decode(&f.encode()), f);
    }

    #[test]
    fn display_is_human_readable() {
        let f = FlowTuple::tcp(0x0A000001, 443, 0x0A000002, 80);
        assert_eq!(f.to_string(), "10.0.0.1:443->10.0.0.2:80/6");
    }

    #[test]
    fn distinct_flows_have_distinct_encodings() {
        let a = FlowTuple::tcp(1, 1, 2, 2);
        let b = FlowTuple::tcp(1, 1, 2, 3);
        assert_ne!(a.encode(), b.encode());
    }
}
