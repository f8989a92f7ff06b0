//! Fault injection.
//!
//! DTA's primitives are explicitly best-effort: "the primitives themselves
//! would still work even in case of severe in-transit loss of reports" (§4).
//! To test that claim we inject the classic quartet of faults — random
//! drops, byte corruption, reordering, and duplication — on simulated
//! links, following the fault-injection interface of smoltcp's examples
//! (`--drop-chance`, `--corrupt-chance`, ...). Duplication models RoCE-style
//! retransmission and L2 flooding artifacts: the same frame arrives twice,
//! and both the translator's report path and the collector NIC's PSN
//! discipline must tolerate it.

use bytes::{Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::packet::Packet;

/// Fault probabilities. All chances are in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability of silently dropping a packet.
    pub drop_chance: f64,
    /// Probability of flipping one random byte of the payload.
    pub corrupt_chance: f64,
    /// Probability of delaying a packet behind its successor (pairwise
    /// reorder).
    pub reorder_chance: f64,
    /// Probability of delivering a packet twice (duplicate delivery; the
    /// copy is not re-faulted).
    pub duplicate_chance: f64,
    /// Drop packets larger than this size, if set (MTU-style limit).
    pub size_limit: Option<usize>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            reorder_chance: 0.0,
            duplicate_chance: 0.0,
            size_limit: None,
        }
    }
}

impl FaultConfig {
    /// No faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Uniform loss with probability `p`.
    pub fn lossy(p: f64) -> Self {
        FaultConfig { drop_chance: p, ..Self::default() }
    }

    /// The non-FIFO lossy-channel model the scenario harness's
    /// fault-equivalence tests run under: loss + reorder + duplication
    /// (corruption is left off — a flipped bit inside a DTA report yields a
    /// *different valid report*, which is a workload change, not a channel
    /// fault).
    pub fn unreliable(drop: f64, reorder: f64, duplicate: f64) -> Self {
        FaultConfig {
            drop_chance: drop,
            reorder_chance: reorder,
            duplicate_chance: duplicate,
            ..Self::default()
        }
    }

    /// Whether every fault is disabled (injectors for such configs can be
    /// skipped entirely, consuming no RNG).
    pub fn is_none(&self) -> bool {
        self.drop_chance == 0.0
            && self.corrupt_chance == 0.0
            && self.reorder_chance == 0.0
            && self.duplicate_chance == 0.0
            && self.size_limit.is_none()
    }
}

/// What the injector decided for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver the (possibly corrupted) packet.
    Deliver,
    /// Deliver, but swapped behind the next packet.
    Reorder,
    /// Deliver the packet twice, back to back (the duplicate is a verbatim
    /// copy and is not itself re-faulted).
    Duplicate,
    /// Silently dropped.
    Drop,
}

/// SplitMix64: advance `state` and return its next output. It derives the
/// seed of every injector from one scenario seed, so adjacent links never
/// share an RNG stream; `splitmix64(&mut (x))` on a temporary is the
/// stateless mix of `x`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Aggregated fault counters (one injector, or a whole network's worth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Packets silently dropped.
    pub dropped: u64,
    /// Packets with a flipped payload bit.
    pub corrupted: u64,
    /// Packets delayed behind their successor.
    pub reordered: u64,
    /// Packets delivered twice.
    pub duplicated: u64,
}

impl FaultTotals {
    /// Accumulate another set of counters into this one.
    pub fn merge(&mut self, other: &FaultTotals) {
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.reordered += other.reordered;
        self.duplicated += other.duplicated;
    }
}

/// Deterministic (seeded) fault injector.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: StdRng,
    /// Counters for test assertions and experiment reports.
    pub dropped: u64,
    /// Packets corrupted.
    pub corrupted: u64,
    /// Packets reordered.
    pub reordered: u64,
    /// Packets duplicated.
    pub duplicated: u64,
}

impl FaultInjector {
    /// Injector with the given config and RNG seed.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        FaultInjector {
            config,
            rng: StdRng::seed_from_u64(seed),
            dropped: 0,
            corrupted: 0,
            reordered: 0,
            duplicated: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// This injector's counters as a [`FaultTotals`].
    pub fn totals(&self) -> FaultTotals {
        FaultTotals {
            dropped: self.dropped,
            corrupted: self.corrupted,
            reordered: self.reordered,
            duplicated: self.duplicated,
        }
    }

    /// Draw one packet's fate from its lengths alone, in the fixed order
    /// size, drop, corrupt, duplicate, reorder. Corruption does not change
    /// the fate: it comes back as the `(byte, bit)` of the payload to flip.
    pub fn verdict(
        &mut self,
        wire_len: usize,
        payload_len: usize,
    ) -> (Verdict, Option<(usize, u8)>) {
        if self.config.size_limit.is_some_and(|limit| wire_len > limit)
            || (self.config.drop_chance > 0.0 && self.rng.gen_bool(self.config.drop_chance))
        {
            self.dropped += 1;
            return (Verdict::Drop, None);
        }
        let mut flip = None;
        if self.config.corrupt_chance > 0.0
            && payload_len > 0
            && self.rng.gen_bool(self.config.corrupt_chance)
        {
            flip = Some((self.rng.gen_range(0..payload_len), self.rng.gen_range(0u8..8)));
            self.corrupted += 1;
        }
        if self.config.duplicate_chance > 0.0 && self.rng.gen_bool(self.config.duplicate_chance) {
            self.duplicated += 1;
            return (Verdict::Duplicate, flip);
        }
        if self.config.reorder_chance > 0.0 && self.rng.gen_bool(self.config.reorder_chance) {
            self.reordered += 1;
            return (Verdict::Reorder, flip);
        }
        (Verdict::Deliver, flip)
    }

    /// Apply faults to one packet: corrupt it in place and return its fate.
    pub fn apply(&mut self, packet: &mut Packet) -> Verdict {
        let (verdict, flip) = self.verdict(packet.wire_len(), packet.payload.len());
        if let Some((idx, bit)) = flip {
            let mut buf = BytesMut::from(&packet.payload[..]);
            buf[idx] ^= 1u8 << bit;
            packet.payload = Bytes::from(buf);
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn pkt(n: usize) -> Packet {
        Packet::new(NodeId(0), NodeId(1), Bytes::from(vec![0xAB; n]))
    }

    #[test]
    fn no_faults_passes_everything() {
        let mut inj = FaultInjector::new(FaultConfig::none(), 1);
        for _ in 0..1000 {
            assert_eq!(inj.apply(&mut pkt(64)), Verdict::Deliver);
        }
        assert_eq!(inj.totals(), FaultTotals::default());
    }

    #[test]
    fn duplicate_rate_is_statistically_close() {
        let cfg = FaultConfig { duplicate_chance: 0.25, ..FaultConfig::none() };
        let mut inj = FaultInjector::new(cfg, 13);
        let n = 20_000;
        let mut dup = 0u64;
        for _ in 0..n {
            match inj.apply(&mut pkt(64)) {
                Verdict::Duplicate => dup += 1,
                Verdict::Deliver => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(dup, inj.duplicated);
        let rate = dup as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed duplicate rate {rate}");
    }

    #[test]
    fn duplicate_wins_over_reorder_and_never_both() {
        // Both enabled: a packet is duplicated or reordered, never both —
        // the duplicate copy must not be re-faulted.
        let cfg = FaultConfig {
            duplicate_chance: 0.5,
            reorder_chance: 0.5,
            ..FaultConfig::none()
        };
        let mut inj = FaultInjector::new(cfg, 17);
        for _ in 0..2_000 {
            assert_ne!(inj.apply(&mut pkt(32)), Verdict::Drop, "nothing configured to drop");
        }
        assert!(inj.duplicated > 0 && inj.reordered > 0);
        assert_eq!(inj.dropped, 0);
    }

    #[test]
    fn unreliable_preset_and_is_none() {
        assert!(FaultConfig::none().is_none());
        let cfg = FaultConfig::unreliable(0.1, 0.2, 0.3);
        assert!(!cfg.is_none());
        assert_eq!(cfg.drop_chance, 0.1);
        assert_eq!(cfg.reorder_chance, 0.2);
        assert_eq!(cfg.duplicate_chance, 0.3);
        assert_eq!(cfg.corrupt_chance, 0.0);
        assert!(!FaultConfig { size_limit: Some(64), ..FaultConfig::none() }.is_none());
    }

    #[test]
    fn totals_merge_sums_counters() {
        let mut a = FaultTotals { dropped: 1, corrupted: 2, reordered: 3, duplicated: 4 };
        a.merge(&FaultTotals { dropped: 10, corrupted: 20, reordered: 30, duplicated: 40 });
        assert_eq!(a, FaultTotals { dropped: 11, corrupted: 22, reordered: 33, duplicated: 44 });
    }

    #[test]
    fn drop_rate_is_statistically_close() {
        let mut inj = FaultInjector::new(FaultConfig::lossy(0.2), 42);
        let n = 20_000;
        for _ in 0..n {
            inj.apply(&mut pkt(64));
        }
        let rate = inj.dropped as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let cfg = FaultConfig { corrupt_chance: 1.0, ..FaultConfig::none() };
        let mut inj = FaultInjector::new(cfg, 7);
        let original = pkt(32);
        let mut p = original.clone();
        assert_eq!(inj.apply(&mut p), Verdict::Deliver);
        let diff: u32 =
            p.payload.iter().zip(original.payload.iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn size_limit_drops_jumbo() {
        let cfg = FaultConfig { size_limit: Some(1500), ..FaultConfig::none() };
        let mut inj = FaultInjector::new(cfg, 3);
        assert_eq!(inj.apply(&mut pkt(1501)), Verdict::Drop);
        assert_eq!(inj.apply(&mut pkt(1500)), Verdict::Deliver);
    }

    #[test]
    fn seeded_injectors_are_deterministic() {
        let cfg = FaultConfig { drop_chance: 0.15, corrupt_chance: 0.15, ..FaultConfig::none() };
        let mut a = FaultInjector::new(cfg, 99);
        let mut b = FaultInjector::new(cfg, 99);
        for _ in 0..500 {
            let (mut pa, mut pb) = (pkt(100), pkt(100));
            assert_eq!(a.apply(&mut pa), b.apply(&mut pb));
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn empty_payload_never_corrupted() {
        let cfg = FaultConfig { corrupt_chance: 1.0, ..FaultConfig::none() };
        let mut inj = FaultInjector::new(cfg, 5);
        assert_eq!(inj.apply(&mut pkt(0)), Verdict::Deliver);
        assert_eq!(inj.corrupted, 0);
    }
}
