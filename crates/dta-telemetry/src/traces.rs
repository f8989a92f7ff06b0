//! Synthetic data-center traffic.
//!
//! The paper's Figure 7b experiment replays "real data center traffic \[7\]"
//! (Benson et al., IMC 2010). Those traces are not redistributable, so we
//! synthesize traffic with their published macro-characteristics: most flows
//! are mice of a few packets while a small fraction of elephants carry most
//! bytes (log-normal-ish flow sizes with a heavy tail), flow popularity is
//! Zipf-distributed across server pairs, and packet interarrivals are
//! bursty. What matters to DTA is the per-flow report volume distribution,
//! which these properties determine.

use dta_core::FlowTuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One trace packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePacket {
    /// Timestamp in nanoseconds.
    pub ts_ns: u64,
    /// The packet's flow.
    pub flow: FlowTuple,
    /// Wire size in bytes.
    pub size: u16,
    /// Whether this packet ends its flow (FIN) — used by sink-based
    /// reporters like INT-MD.
    pub last_of_flow: bool,
}

/// Trace generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Number of distinct hosts.
    pub hosts: u32,
    /// Number of concurrent flows to cycle through.
    pub flows: u32,
    /// Zipf skew for flow popularity (~1.0 in DC measurements).
    pub zipf_s: f64,
    /// Pareto shape for flow sizes (1.2 gives the published mice/elephant
    /// split); scale is fixed at 2 packets minimum.
    pub pareto_alpha: f64,
    /// Mean packet interarrival in nanoseconds (aggregate).
    pub mean_gap_ns: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            hosts: 1024,
            flows: 4096,
            zipf_s: 1.0,
            pareto_alpha: 1.2,
            mean_gap_ns: 100,
            seed: 0xD7A,
        }
    }
}

/// Deterministic synthetic trace generator.
pub struct TraceGenerator {
    config: TraceConfig,
    rng: StdRng,
    /// Active flows with remaining packet budgets.
    flows: Vec<(FlowTuple, u32)>,
    /// Zipf sampling CDF over flow slots.
    cdf: Vec<f64>,
    now_ns: u64,
    next_port: u16,
}

impl TraceGenerator {
    /// Build a generator; precomputes the Zipf CDF over flow slots.
    pub fn new(config: TraceConfig) -> Self {
        assert!(config.hosts >= 2 && config.flows >= 1);
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Zipf CDF over `flows` ranks.
        let weights: Vec<f64> =
            (1..=config.flows).map(|r| 1.0 / (r as f64).powf(config.zipf_s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut gen = TraceGenerator {
            config,
            flows: Vec::with_capacity(config.flows as usize),
            cdf,
            now_ns: 0,
            next_port: 1024,
            rng: StdRng::seed_from_u64(config.seed ^ 0xFEED),
        };
        for _ in 0..config.flows {
            let f = gen.fresh_flow();
            gen.flows.push(f);
        }
        let _ = &mut rng;
        gen
    }

    fn fresh_flow(&mut self) -> (FlowTuple, u32) {
        let src = self.rng.gen_range(0..self.config.hosts);
        let mut dst = self.rng.gen_range(0..self.config.hosts);
        if dst == src {
            dst = (dst + 1) % self.config.hosts;
        }
        self.next_port = self.next_port.wrapping_add(1).max(1024);
        let flow = FlowTuple::tcp(
            0x0A00_0000 + src,
            self.next_port,
            0x0A00_0000 + dst,
            if self.rng.gen_bool(0.7) { 80 } else { 443 },
        );
        // Pareto-distributed flow size in packets (heavy tail).
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        let size = (2.0 / u.powf(1.0 / self.config.pareto_alpha)).min(1e7) as u32;
        (flow, size.max(1))
    }

    /// Sample the next packet.
    pub fn next_packet(&mut self) -> TracePacket {
        // Zipf-pick a flow slot via binary search on the CDF.
        let u: f64 = self.rng.gen();
        let slot = self.cdf.partition_point(|&c| c < u).min(self.flows.len() - 1);
        let (flow, remaining) = self.flows[slot];
        let last = remaining <= 1;
        if last {
            self.flows[slot] = self.fresh_flow();
        } else {
            self.flows[slot].1 = remaining - 1;
        }
        // Bursty interarrivals: exponential via inverse CDF.
        let u: f64 = self.rng.gen_range(1e-12..1.0);
        let gap = (-u.ln() * self.config.mean_gap_ns as f64) as u64;
        self.now_ns += gap.max(1);
        // Bimodal packet sizes: ACK-sized or MTU-sized.
        let size = if self.rng.gen_bool(0.45) { 64 } else { 1500 };
        TracePacket { ts_ns: self.now_ns, flow, size, last_of_flow: last }
    }

    /// Sample `n` packets.
    pub fn take(&mut self, n: usize) -> Vec<TracePacket> {
        (0..n).map(|_| self.next_packet()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn timestamps_are_monotonic() {
        let mut g = TraceGenerator::new(TraceConfig::default());
        let pkts = g.take(5000);
        for w in pkts.windows(2) {
            assert!(w[1].ts_ns > w[0].ts_ns);
        }
    }

    #[test]
    fn flow_popularity_is_skewed() {
        let mut g = TraceGenerator::new(TraceConfig::default());
        let pkts = g.take(50_000);
        let mut counts: BTreeMap<FlowTuple, u64> = BTreeMap::new();
        for p in &pkts {
            *counts.entry(p.flow).or_default() += 1;
        }
        let mut v: Vec<u64> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        // Top 10% of flows should carry several times their uniform share
        // (flow recycling dilutes raw Zipf skew; uniform would be 10%).
        let top = v.len() / 10;
        let top_sum: u64 = v[..top.max(1)].iter().sum();
        let total: u64 = v.iter().sum();
        assert!(
            top_sum * 10 > total * 3,
            "top decile carries {top_sum}/{total} — not heavy-tailed"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = TraceGenerator::new(TraceConfig::default());
        let mut b = TraceGenerator::new(TraceConfig::default());
        assert_eq!(a.take(1000), b.take(1000));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TraceGenerator::new(TraceConfig::default());
        let mut b = TraceGenerator::new(TraceConfig { seed: 99, ..TraceConfig::default() });
        assert_ne!(a.take(100), b.take(100));
    }

    #[test]
    fn flows_terminate_and_recycle() {
        let mut g = TraceGenerator::new(TraceConfig {
            flows: 8,
            pareto_alpha: 3.0, // mostly tiny flows
            ..TraceConfig::default()
        });
        let pkts = g.take(10_000);
        let fins = pkts.iter().filter(|p| p.last_of_flow).count();
        assert!(fins > 100, "only {fins} flow terminations in 10k packets");
    }
}
