//! In-band Network Telemetry (INT).
//!
//! Three INT working modes appear in the paper:
//! * **XD/MX postcards** — every sampled packet makes each hop export a 4 B
//!   postcard; DTA collects them with the Postcarding primitive keyed on
//!   `(flow, hop)`.
//! * **MD path tracing** — metadata accumulates in the packet; the sink
//!   exports the full path (5×4 B switch IDs) with a Key-Write keyed on the
//!   flow 5-tuple.
//! * **Congestion events** — sinks append 4 B queue-depth reports to a
//!   global event list.

use dta_core::{DtaReport, FlowTuple, TelemetryKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::traces::TracePacket;

/// Derive a deterministic `hops`-long switch-ID path for a flow, within a
/// universe of `values` switch IDs. Stands in for the fabric's real routing:
/// what matters to DTA is that a flow always reports the same path.
pub fn synthetic_path(flow: &FlowTuple, hops: u8, values: u32) -> Vec<u32> {
    assert!(values >= 1);
    let enc = flow.encode();
    (0..hops)
        .map(|h| {
            let mut acc = 0xCBF2_9CE4_8422_2325u64; // FNV offset basis
            for &b in enc.iter() {
                acc = (acc ^ b as u64).wrapping_mul(0x1000_0000_01B3);
            }
            ((acc.rotate_left(h as u32 * 8 + 1) >> 7) % values as u64) as u32
        })
        .collect()
}

/// INT-XD/MX: per-hop postcards for sampled packets.
pub struct IntPostcards {
    /// Sampling probability (Table 1 uses 0.5%).
    pub sampling: f64,
    /// Hop bound `B`.
    pub hops: u8,
    /// Switch-ID universe |V|.
    pub values: u32,
    rng: StdRng,
    seq: u32,
    /// Postcards emitted.
    pub emitted: u64,
}

impl IntPostcards {
    /// Postcard generator with the given sampling rate.
    pub fn new(sampling: f64, hops: u8, values: u32, seed: u64) -> Self {
        IntPostcards {
            sampling,
            hops,
            values,
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
            emitted: 0,
        }
    }

    /// Reports for one trace packet: either none (not sampled) or one
    /// postcard per hop.
    pub fn on_packet(&mut self, pkt: &TracePacket) -> Vec<DtaReport> {
        if self.sampling < 1.0 && !self.rng.gen_bool(self.sampling) {
            return Vec::new();
        }
        let key = TelemetryKey::flow(&pkt.flow);
        let path = synthetic_path(&pkt.flow, self.hops, self.values);
        path.iter()
            .enumerate()
            .map(|(hop, v)| {
                self.seq = self.seq.wrapping_add(1);
                self.emitted += 1;
                DtaReport::postcard(self.seq, key, hop as u8, self.hops, *v)
            })
            .collect()
    }
}

/// INT-MD: sink-exported full-path reports via Key-Write.
pub struct IntPathTracing {
    /// Hop bound `B`.
    pub hops: u8,
    /// Switch-ID universe |V|.
    pub values: u32,
    /// Redundancy `N` requested per report.
    pub redundancy: u8,
    seq: u32,
}

impl IntPathTracing {
    /// Path-tracing generator.
    pub fn new(hops: u8, values: u32, redundancy: u8) -> Self {
        IntPathTracing { hops, values, redundancy, seq: 0 }
    }

    /// The sink reports once per packet (the paper's 20 B Key-Write
    /// workload).
    pub fn on_packet(&mut self, pkt: &TracePacket) -> DtaReport {
        let path = synthetic_path(&pkt.flow, self.hops, self.values);
        let mut payload = Vec::with_capacity(4 * self.hops as usize);
        for v in &path {
            payload.extend_from_slice(&v.to_be_bytes());
        }
        self.seq = self.seq.wrapping_add(1);
        DtaReport::key_write(self.seq, TelemetryKey::flow(&pkt.flow), self.redundancy, payload)
    }
}

/// INT congestion events: queue-depth reports appended to a global list.
pub struct IntCongestionEvents {
    /// Queue-depth threshold triggering an event.
    pub threshold: u32,
    /// Target list.
    pub list_id: u32,
    rng: StdRng,
    seq: u32,
}

impl IntCongestionEvents {
    /// Event generator with a synthetic queue model.
    pub fn new(threshold: u32, list_id: u32, seed: u64) -> Self {
        IntCongestionEvents { threshold, list_id, rng: StdRng::seed_from_u64(seed), seq: 0 }
    }

    /// Possibly emit an event for one packet: queue depth is sampled from a
    /// bursty synthetic distribution.
    pub fn on_packet(&mut self, _pkt: &TracePacket) -> Option<DtaReport> {
        // Bursty occupancy: usually shallow, occasionally deep.
        let depth: u32 = if self.rng.gen_bool(0.02) {
            self.rng.gen_range(10_000..100_000)
        } else {
            self.rng.gen_range(0..1_000)
        };
        (depth > self.threshold).then(|| {
            self.seq = self.seq.wrapping_add(1);
            DtaReport::append(self.seq, self.list_id, depth.to_be_bytes().to_vec())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::{TraceConfig, TraceGenerator};

    fn pkt() -> TracePacket {
        TracePacket {
            ts_ns: 0,
            flow: FlowTuple::tcp(1, 2, 3, 4),
            size: 100,
            last_of_flow: false,
        }
    }

    #[test]
    fn synthetic_path_is_stable_and_bounded() {
        let f = FlowTuple::tcp(9, 9, 9, 9);
        let a = synthetic_path(&f, 5, 1 << 18);
        let b = synthetic_path(&f, 5, 1 << 18);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|v| *v < (1 << 18)));
    }

    #[test]
    fn different_flows_get_different_paths() {
        let a = synthetic_path(&FlowTuple::tcp(1, 1, 1, 1), 5, 1 << 18);
        let b = synthetic_path(&FlowTuple::tcp(2, 2, 2, 2), 5, 1 << 18);
        assert_ne!(a, b);
    }

    #[test]
    fn sampled_packet_emits_one_postcard_per_hop() {
        let mut int = IntPostcards::new(1.0, 5, 1 << 12, 1);
        let reports = int.on_packet(&pkt());
        assert_eq!(reports.len(), 5);
        assert_eq!(int.emitted, 5);
    }

    #[test]
    fn sampling_rate_is_respected() {
        let mut gen = TraceGenerator::new(TraceConfig::default());
        let mut int = IntPostcards::new(0.005, 5, 1 << 12, 2);
        let n = 100_000;
        for _ in 0..n {
            int.on_packet(&gen.next_packet());
        }
        let rate = int.emitted as f64 / (n as f64 * 5.0);
        assert!((rate - 0.005).abs() < 0.002, "sampling rate {rate}");
    }

    #[test]
    fn path_tracing_payload_is_20_bytes() {
        let mut md = IntPathTracing::new(5, 1 << 18, 2);
        let r = md.on_packet(&pkt());
        assert_eq!(r.payload.len(), 20);
    }

    #[test]
    fn congestion_events_respect_threshold() {
        let mut ce = IntCongestionEvents::new(5_000, 1, 3);
        let mut gen = TraceGenerator::new(TraceConfig::default());
        let mut events = 0;
        for _ in 0..10_000 {
            if let Some(r) = ce.on_packet(&gen.next_packet()) {
                let depth = u32::from_be_bytes(r.payload[..4].try_into().unwrap());
                assert!(depth > 5_000);
                events += 1;
            }
        }
        assert!(events > 50, "too few events: {events}");
        assert!(events < 1_000, "too many events: {events}");
    }
}
