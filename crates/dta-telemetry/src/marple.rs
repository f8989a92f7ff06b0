//! Marple queries (Figure 7b's three workloads + host counters).
//!
//! Marple compiles performance queries to switch programs whose results
//! stream to a backing store. The paper integrates three queries with DTA:
//!
//! * **Lossy Flows** — "reports high loss rates together with their
//!   corresponding flow 5-tuples, and DTA uses the Append primitive to
//!   store the data chronologically in several lists ... with packet loss
//!   rates in one of several ranges".
//! * **TCP Timeouts** — "reports the number of TCP timeouts per-flow ...
//!   DTA uses the Key-Write primitive".
//! * **Flowlet Sizes** — "reports flow 5-tuples together with the number of
//!   packets in their most recent flowlets, and DTA appends the flow
//!   identifiers to one of the available lists".
//!
//! Host counters map to Key-Increment (Table 2).

use std::collections::{BTreeMap, HashMap};

use dta_core::{DtaReport, FlowTuple, TelemetryKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::traces::TracePacket;

/// Marple "Flowlet Sizes": a flowlet ends when a flow pauses longer than the
/// gap threshold; the report is the 5-tuple plus the flowlet's packet count.
pub struct MarpleFlowletSizes {
    /// Inter-packet gap that splits flowlets, in nanoseconds (500 µs in the
    /// Marple paper).
    pub gap_ns: u64,
    /// Base list id; reports land in `base_list + (count bucket)`.
    pub base_list: u32,
    /// Number of size-bucket lists.
    pub buckets: u32,
    state: HashMap<FlowTuple, (u64, u32)>,
    seq: u32,
    /// Flowlet reports emitted.
    pub emitted: u64,
}

impl MarpleFlowletSizes {
    /// Flowlet tracker.
    pub fn new(gap_ns: u64, base_list: u32, buckets: u32) -> Self {
        assert!(buckets >= 1);
        MarpleFlowletSizes {
            gap_ns,
            base_list,
            buckets,
            state: HashMap::new(),
            seq: 0,
            emitted: 0,
        }
    }

    fn bucket(&self, count: u32) -> u32 {
        // Log2 size buckets: 1, 2-3, 4-7, ...
        (32 - count.leading_zeros()).min(self.buckets) .saturating_sub(1)
    }

    /// Feed one packet; emits a report when the previous flowlet of this
    /// flow closed.
    pub fn on_packet(&mut self, pkt: &TracePacket) -> Option<DtaReport> {
        let entry = self.state.entry(pkt.flow).or_insert((pkt.ts_ns, 0));
        let (last_ts, count) = *entry;
        if count > 0 && pkt.ts_ns.saturating_sub(last_ts) > self.gap_ns {
            // Flowlet closed: report it, start a new one.
            *entry = (pkt.ts_ns, 1);
            self.seq = self.seq.wrapping_add(1);
            self.emitted += 1;
            let mut payload = pkt.flow.encode().to_vec(); // 13 B (Table 1)
            payload.extend_from_slice(&count.to_be_bytes());
            let list = self.base_list + self.bucket(count);
            Some(DtaReport::append(self.seq, list, payload))
        } else {
            *entry = (pkt.ts_ns, count + 1);
            None
        }
    }
}

/// Marple "TCP Timeouts": per-flow timeout counters exported via Key-Write
/// so operators can query any flow's count.
pub struct MarpleTcpTimeouts {
    /// Probability a packet represents a timeout episode (synthetic stand-in
    /// for RTO detection).
    pub timeout_prob: f64,
    /// Redundancy requested per report.
    pub redundancy: u8,
    counts: HashMap<FlowTuple, u32>,
    rng: StdRng,
    seq: u32,
}

impl MarpleTcpTimeouts {
    /// Timeout tracker.
    pub fn new(timeout_prob: f64, redundancy: u8, seed: u64) -> Self {
        MarpleTcpTimeouts {
            timeout_prob,
            redundancy,
            counts: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
        }
    }

    /// Feed one packet; on a timeout episode the flow's updated count is
    /// (re-)written under its key.
    pub fn on_packet(&mut self, pkt: &TracePacket) -> Option<DtaReport> {
        if !self.rng.gen_bool(self.timeout_prob) {
            return None;
        }
        let count = self.counts.entry(pkt.flow).or_insert(0);
        *count += 1;
        self.seq = self.seq.wrapping_add(1);
        Some(DtaReport::key_write(
            self.seq,
            TelemetryKey::flow(&pkt.flow),
            self.redundancy,
            count.to_be_bytes().to_vec(),
        ))
    }

    /// The true timeout count for a flow (test oracle).
    pub fn true_count(&self, flow: &FlowTuple) -> u32 {
        self.counts.get(flow).copied().unwrap_or(0)
    }
}

/// Marple "Lossy Flows": flows whose loss rate exceeds a threshold are
/// appended to a list chosen by loss-rate range.
pub struct MarpleLossyFlows {
    /// Report when a flow's observed loss rate exceeds this.
    pub threshold: f64,
    /// Base list id; list = base + range index (e.g., <1%, 1-5%, >5%).
    pub base_list: u32,
    /// Synthetic per-packet loss probability.
    pub loss_prob: f64,
    windows: HashMap<FlowTuple, (u32, u32)>,
    /// Packets per evaluation window.
    pub window: u32,
    rng: StdRng,
    seq: u32,
}

impl MarpleLossyFlows {
    /// Lossy-flow detector.
    pub fn new(threshold: f64, base_list: u32, loss_prob: f64, window: u32, seed: u64) -> Self {
        assert!(window > 0);
        MarpleLossyFlows {
            threshold,
            base_list,
            loss_prob,
            windows: HashMap::new(),
            window,
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
        }
    }

    fn range_index(&self, rate: f64) -> u32 {
        if rate < 0.01 {
            0
        } else if rate < 0.05 {
            1
        } else {
            2
        }
    }

    /// Feed one packet; a report fires when a window closes lossy.
    pub fn on_packet(&mut self, pkt: &TracePacket) -> Option<DtaReport> {
        let lost = self.rng.gen_bool(self.loss_prob);
        let (pkts, losses) = self.windows.entry(pkt.flow).or_insert((0, 0));
        *pkts += 1;
        if lost {
            *losses += 1;
        }
        if *pkts < self.window {
            return None;
        }
        let rate = *losses as f64 / *pkts as f64;
        self.windows.remove(&pkt.flow);
        if rate <= self.threshold {
            return None;
        }
        self.seq = self.seq.wrapping_add(1);
        let payload = pkt.flow.encode().to_vec(); // 13 B flow id
        Some(DtaReport::append(self.seq, self.base_list + self.range_index(rate), payload))
    }
}

/// Marple host counters via addition-based aggregation (Key-Increment):
/// switches evict partial per-source counters which the collector sums.
pub struct MarpleHostCounters {
    /// Eviction cache size (counters evict when the cache is full).
    pub cache_slots: usize,
    /// Redundancy requested per report.
    pub redundancy: u8,
    cache: BTreeMap<u32, u64>,
    seq: u32,
}

impl MarpleHostCounters {
    /// Host-counter tracker.
    pub fn new(cache_slots: usize, redundancy: u8) -> Self {
        assert!(cache_slots > 0);
        MarpleHostCounters { cache_slots, redundancy, cache: BTreeMap::new(), seq: 0 }
    }

    /// Feed one packet; an eviction (cache full, new source) exports the
    /// evicted counter as a Key-Increment delta.
    pub fn on_packet(&mut self, pkt: &TracePacket) -> Option<DtaReport> {
        let src = pkt.flow.src_ip;
        if let Some(c) = self.cache.get_mut(&src) {
            *c += 1;
            return None;
        }
        let evict = if self.cache.len() >= self.cache_slots {
            // Evict an arbitrary victim (hardware evicts by index collision):
            // the lowest address, so the report stream is a function of the
            // trace alone.
            self.cache.pop_first()
        } else {
            None
        };
        self.cache.insert(src, 1);
        evict.map(|(ip, count)| {
            self.seq = self.seq.wrapping_add(1);
            DtaReport::key_increment(self.seq, TelemetryKey::src_ip(ip), self.redundancy, count)
        })
    }

    /// Flush all cached counters (end of run).
    pub fn flush(&mut self) -> Vec<DtaReport> {
        std::mem::take(&mut self.cache)
            .into_iter()
            .map(|(ip, count)| {
                self.seq = self.seq.wrapping_add(1);
                DtaReport::key_increment(
                    self.seq,
                    TelemetryKey::src_ip(ip),
                    self.redundancy,
                    count,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::{TraceConfig, TraceGenerator};

    #[test]
    fn flowlets_split_on_gap() {
        let mut m = MarpleFlowletSizes::new(1000, 0, 8);
        let f = FlowTuple::tcp(1, 1, 2, 2);
        let mk = |ts| TracePacket { ts_ns: ts, flow: f, size: 64, last_of_flow: false };
        assert!(m.on_packet(&mk(0)).is_none());
        assert!(m.on_packet(&mk(100)).is_none());
        assert!(m.on_packet(&mk(200)).is_none());
        // Gap > 1000ns closes the 3-packet flowlet.
        let r = m.on_packet(&mk(5000)).expect("flowlet report");
        assert_eq!(&r.payload[13..17], &3u32.to_be_bytes());
        assert_eq!(m.emitted, 1);
    }

    #[test]
    fn flowlet_rate_on_dc_trace_is_plausible() {
        let mut gen = TraceGenerator::new(TraceConfig::default());
        let mut m = MarpleFlowletSizes::new(500_000, 0, 8);
        let n = 100_000;
        for _ in 0..n {
            m.on_packet(&gen.next_packet());
        }
        // With thousands of flows sharing the aggregate, most flows pause
        // longer than 500us between packets; a meaningful fraction of
        // packets should close flowlets.
        assert!(m.emitted > 100, "only {} flowlets in {n} packets", m.emitted);
    }

    #[test]
    fn timeouts_accumulate_per_flow() {
        let mut m = MarpleTcpTimeouts::new(1.0, 2, 1);
        let f = FlowTuple::tcp(1, 1, 2, 2);
        let p = TracePacket { ts_ns: 0, flow: f, size: 64, last_of_flow: false };
        for want in 1..=5u32 {
            let r = m.on_packet(&p).expect("always times out at prob 1");
            assert_eq!(r.payload, want.to_be_bytes().to_vec());
        }
        assert_eq!(m.true_count(&f), 5);
    }

    #[test]
    fn lossy_flows_only_report_above_threshold() {
        // loss_prob 0 -> never reports.
        let mut quiet = MarpleLossyFlows::new(0.01, 0, 0.0, 10, 1);
        // loss_prob 0.5 -> every window reports.
        let mut noisy = MarpleLossyFlows::new(0.01, 0, 0.5, 10, 1);
        let f = FlowTuple::tcp(1, 1, 2, 2);
        let p = TracePacket { ts_ns: 0, flow: f, size: 64, last_of_flow: false };
        let mut quiet_reports = 0;
        let mut noisy_reports = 0;
        for _ in 0..1000 {
            quiet_reports += quiet.on_packet(&p).is_some() as u32;
            noisy_reports += noisy.on_packet(&p).is_some() as u32;
        }
        assert_eq!(quiet_reports, 0);
        assert!(noisy_reports >= 90, "noisy flow under-reported: {noisy_reports}");
    }

    #[test]
    fn lossy_flow_lists_bucket_by_rate() {
        let m = MarpleLossyFlows::new(0.0, 10, 0.0, 1, 1);
        assert_eq!(m.range_index(0.005), 0);
        assert_eq!(m.range_index(0.02), 1);
        assert_eq!(m.range_index(0.5), 2);
    }

    #[test]
    fn host_counter_evictions_preserve_totals() {
        let mut m = MarpleHostCounters::new(4, 2);
        let mut gen = TraceGenerator::new(TraceConfig {
            hosts: 32,
            ..TraceConfig::default()
        });
        let mut reported: u64 = 0;
        let n = 5000;
        for _ in 0..n {
            if let Some(r) = m.on_packet(&gen.next_packet()) {
                if let dta_core::PrimitiveHeader::KeyIncrement(h) = r.primitive {
                    reported += h.delta;
                }
            }
        }
        for r in m.flush() {
            if let dta_core::PrimitiveHeader::KeyIncrement(h) = r.primitive {
                reported += h.delta;
            }
        }
        assert_eq!(reported, n, "evicted + flushed counters must sum to packets");
    }
}
