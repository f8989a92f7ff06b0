//! Point-to-point links with bandwidth, latency, and queues.
//!
//! A link models: a FIFO egress queue of bounded byte occupancy, a serializer
//! draining it at the configured bandwidth, and a fixed propagation latency.
//! Two queue disciplines are provided:
//!
//! * [`QueueDiscipline::Lossy`] — tail-drop when the queue is full (plain
//!   UDP-style DTA transport).
//! * [`QueueDiscipline::Lossless`] — PFC-style: instead of dropping, the
//!   link records pause state; the engine stops dequeuing upstream until
//!   occupancy falls below the resume threshold. This is the "Priority Flow
//!   Control (PFC)" option of §4/§7.

use crate::time::{SimTime, GBPS_100};

/// Drop/backpressure behaviour of a link queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Tail-drop past the byte capacity.
    Lossy,
    /// PFC: never drop; assert pause above the XOFF threshold, release below
    /// the XON threshold.
    Lossless {
        /// Pause above this occupancy (bytes).
        xoff_bytes: usize,
        /// Resume below this occupancy (bytes).
        xon_bytes: usize,
    },
}

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Propagation latency in nanoseconds.
    pub latency_ns: u64,
    /// Queue capacity in bytes.
    pub queue_bytes: usize,
    /// Queue discipline.
    pub discipline: QueueDiscipline,
}

impl Default for LinkConfig {
    fn default() -> Self {
        // 100G link, 1us propagation, 512KiB buffer — a reasonable ToR port.
        LinkConfig {
            bandwidth_bps: GBPS_100,
            latency_ns: 1_000,
            queue_bytes: 512 * 1024,
            discipline: QueueDiscipline::Lossy,
        }
    }
}

impl LinkConfig {
    /// The paper's testbed link: 100G, short DC cable.
    pub fn dc_100g() -> Self {
        Self::default()
    }

    /// A lossless 100G link carrying the RDMA priority class.
    pub fn dc_100g_lossless() -> Self {
        LinkConfig {
            discipline: QueueDiscipline::Lossless {
                xoff_bytes: 384 * 1024,
                xon_bytes: 128 * 1024,
            },
            ..Self::default()
        }
    }
}

/// Statistics accumulated by a link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets dropped by tail-drop.
    pub dropped: u64,
    /// Packets fully serialized onto the wire.
    pub transmitted: u64,
    /// Total bytes transmitted.
    pub bytes_tx: u64,
    /// Number of pause assertions (lossless mode).
    pub pauses: u64,
}

impl LinkStats {
    /// Accumulate another link's counters into this one — the single place
    /// that must grow when a counter is added, so fabric-wide aggregates
    /// never silently omit a field.
    pub fn merge(&mut self, other: &LinkStats) {
        self.enqueued += other.enqueued;
        self.dropped += other.dropped;
        self.transmitted += other.transmitted;
        self.bytes_tx += other.bytes_tx;
        self.pauses += other.pauses;
    }
}

/// The dynamic state of a link's egress.
#[derive(Debug)]
pub struct Link {
    config: LinkConfig,
    /// Byte occupancy of the queue (packets not yet fully serialized).
    occupancy: usize,
    /// Earliest time the serializer is free.
    free_at: SimTime,
    /// Whether PFC pause is currently asserted.
    paused: bool,
    /// Counters.
    pub stats: LinkStats,
}

/// Result of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Packet accepted; it is fully delivered at the returned time.
    Delivered(SimTime),
    /// Packet tail-dropped.
    Dropped,
}

impl Link {
    /// New idle link.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            config,
            occupancy: 0,
            free_at: SimTime::ZERO,
            paused: false,
            stats: LinkStats::default(),
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Whether PFC pause is asserted.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Offer a packet of `bytes` at time `now`. Returns when the last bit
    /// arrives at the far end, or `Dropped`.
    pub fn enqueue(&mut self, now: SimTime, bytes: usize) -> EnqueueOutcome {
        self.drain(now);
        match self.config.discipline {
            QueueDiscipline::Lossy => {
                if self.occupancy + bytes > self.config.queue_bytes {
                    self.stats.dropped += 1;
                    return EnqueueOutcome::Dropped;
                }
            }
            QueueDiscipline::Lossless { xoff_bytes, .. } => {
                if !self.paused && self.occupancy + bytes > xoff_bytes {
                    self.paused = true;
                    self.stats.pauses += 1;
                }
            }
        }
        self.occupancy += bytes;
        self.stats.enqueued += 1;

        let start = self.free_at.max(now);
        let tx = SimTime::tx_time(bytes, self.config.bandwidth_bps);
        self.free_at = start + tx;
        self.stats.transmitted += 1;
        self.stats.bytes_tx += bytes as u64;
        let arrival = self.free_at + self.config.latency_ns;
        EnqueueOutcome::Delivered(arrival)
    }

    /// Release queue bytes that have been serialized by `now` and update
    /// pause state. Called lazily on each enqueue.
    fn drain(&mut self, now: SimTime) {
        if now >= self.free_at {
            // Serializer idle: everything queued has left.
            self.occupancy = 0;
        } else {
            // Approximate: bytes still to serialize. The product fits a
            // `u64` unless the backlog is long and the link fast (about
            // 0.18 s at 100 Gb/s); only then is it taken in `u128`.
            let remaining_ns = self.free_at - now;
            let bps = self.config.bandwidth_bps;
            let remaining_bytes = match remaining_ns.checked_mul(bps) {
                Some(bits_ns) => (bits_ns / 8 / 1_000_000_000) as usize,
                None => (remaining_ns as u128 * bps as u128 / 8 / 1_000_000_000) as usize,
            };
            self.occupancy = self.occupancy.min(remaining_bytes);
        }
        if let QueueDiscipline::Lossless { xon_bytes, .. } = self.config.discipline {
            if self.paused && self.occupancy < xon_bytes {
                self.paused = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_packet_delivery_time() {
        let mut l = Link::new(LinkConfig::dc_100g());
        // 1500B: 120ns serialize + 1000ns propagation.
        match l.enqueue(SimTime::ZERO, 1500) {
            EnqueueOutcome::Delivered(t) => assert_eq!(t.as_nanos(), 1120),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_serialize_sequentially() {
        let mut l = Link::new(LinkConfig::dc_100g());
        let t1 = match l.enqueue(SimTime::ZERO, 1500) {
            EnqueueOutcome::Delivered(t) => t,
            _ => unreachable!(),
        };
        let t2 = match l.enqueue(SimTime::ZERO, 1500) {
            EnqueueOutcome::Delivered(t) => t,
            _ => unreachable!(),
        };
        assert_eq!(t2 - t1, 120); // one extra serialization time
    }

    #[test]
    fn lossy_link_tail_drops() {
        let mut cfg = LinkConfig::dc_100g();
        cfg.queue_bytes = 3000;
        let mut l = Link::new(cfg);
        assert!(matches!(l.enqueue(SimTime::ZERO, 1500), EnqueueOutcome::Delivered(_)));
        assert!(matches!(l.enqueue(SimTime::ZERO, 1500), EnqueueOutcome::Delivered(_)));
        assert!(matches!(l.enqueue(SimTime::ZERO, 1500), EnqueueOutcome::Dropped));
        assert_eq!(l.stats.dropped, 1);
    }

    #[test]
    fn lossless_link_pauses_instead_of_dropping() {
        let mut cfg = LinkConfig::dc_100g_lossless();
        cfg.queue_bytes = 3000;
        let mut l = Link::new(cfg);
        let mut delivered = 0;
        for _ in 0..600 {
            if matches!(l.enqueue(SimTime::ZERO, 1500), EnqueueOutcome::Delivered(_)) {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 600, "lossless link must not drop");
        assert!(l.is_paused());
        assert!(l.stats.pauses >= 1);
    }

    #[test]
    fn pause_releases_after_drain() {
        let mut l = Link::new(LinkConfig::dc_100g_lossless());
        for _ in 0..400 {
            l.enqueue(SimTime::ZERO, 1500);
        }
        assert!(l.is_paused());
        // Long after everything drained, the next enqueue releases pause.
        l.enqueue(SimTime::from_millis(100), 1500);
        assert!(!l.is_paused());
    }

    #[test]
    fn backlogs_past_a_u64_product_drain_exactly() {
        // Two 1.5 GB frames at 400 Gb/s queue 60 ms of backlog: ns x bps
        // (2.4e19) overflows a u64, and exactly 3 GB must still be queued.
        let cap = 3_000_000_000 + 1500;
        let mut l = Link::new(LinkConfig {
            bandwidth_bps: crate::time::GBPS_400,
            queue_bytes: cap,
            ..LinkConfig::dc_100g()
        });
        for bytes in [1_500_000_000, 1_500_000_000, 1500] {
            assert!(matches!(l.enqueue(SimTime::ZERO, bytes), EnqueueOutcome::Delivered(_)));
        }
        assert_eq!(l.occupancy, cap);
        assert_eq!(l.enqueue(SimTime::ZERO, 1), EnqueueOutcome::Dropped);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut cfg = LinkConfig::dc_100g();
        cfg.queue_bytes = 3000;
        let mut l = Link::new(cfg);
        l.enqueue(SimTime::ZERO, 1500);
        l.enqueue(SimTime::ZERO, 1500);
        // After both serialized (240ns), new packets fit again.
        assert!(matches!(
            l.enqueue(SimTime::from_nanos(250), 1500),
            EnqueueOutcome::Delivered(_)
        ));
    }
}
