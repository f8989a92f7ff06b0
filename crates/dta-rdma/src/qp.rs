//! Reliable-connection queue pairs.
//!
//! RoCE RC transport requires every packet arriving at a QP to carry the
//! *expected* packet sequence number. This is the property that makes
//! "several switches sharing the same queue pair" impractical — "RDMA
//! imposes the assumption that every packet received at the collector has a
//! strictly sequential ID, which is impractical for a distributed network of
//! switches" (§3). Centralizing RDMA generation in the translator gives a
//! single PSN domain per collector QP; the translator keeps "SRAM storage
//! for the queue pair packet sequence numbers" (§5.2).

/// QP lifecycle states (subset of the IB state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Created, not yet connected.
    Init,
    /// Ready to receive.
    Rtr,
    /// Ready to send (fully connected).
    Rts,
    /// Error: a fatal sequence/protection violation occurred.
    Error,
}

/// QP-level receive errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpError {
    /// Packet PSN is ahead of expected: a gap means loss; responder NAKs.
    OutOfOrder {
        /// Expected PSN.
        expected: u32,
        /// Received PSN.
        got: u32,
    },
    /// Packet PSN already consumed (duplicate); silently dropped.
    Duplicate(u32),
    /// QP not in a receiving state.
    BadState(QpState),
}

const PSN_MASK: u32 = 0x00FF_FFFF;
/// Half the PSN space; distinguishes "old duplicate" from "future" PSNs.
const PSN_HALF: u32 = 0x0080_0000;

/// One side of a reliable connection.
#[derive(Debug, Clone)]
pub struct QueuePair {
    /// Local QP number.
    pub qpn: u32,
    /// Remote QP number (valid from RTR).
    pub dest_qpn: u32,
    /// State.
    pub state: QpState,
    /// Next PSN to use when sending.
    send_psn: u32,
    /// Next PSN expected when receiving.
    expect_psn: u32,
    /// Count of NAKs generated.
    pub naks: u64,
    /// Count of duplicates dropped.
    pub duplicates: u64,
    /// Count of packets accepted in order.
    pub accepted: u64,
    /// ACK-eligible packets received since this QP last emitted an ACK
    /// (responder-side ACK coalescing state — per-QP, as on real HCAs).
    unacked: u32,
    /// Expected PSN of the last NAK judged news.
    rewound_to: u32,
    /// Repeats of that NAK still owed by packets that were already in
    /// flight when it arrived (see [`QueuePair::stale_nak`]).
    stale_naks: u32,
}

impl QueuePair {
    /// Create a QP in the INIT state.
    pub fn new(qpn: u32) -> Self {
        QueuePair {
            qpn,
            dest_qpn: 0,
            state: QpState::Init,
            send_psn: 0,
            expect_psn: 0,
            naks: 0,
            duplicates: 0,
            accepted: 0,
            unacked: 0,
            rewound_to: 0,
            stale_naks: 0,
        }
    }

    /// Record one ACK-eligible packet and decide whether an ACK is due
    /// now: every `coalesce`-th eligible packet, or immediately for
    /// solicited packets (which also flush the pending count).
    pub fn ack_due(&mut self, coalesce: u32, solicited: bool) -> bool {
        self.unacked += 1;
        if solicited || self.unacked >= coalesce.max(1) {
            self.unacked = 0;
            true
        } else {
            false
        }
    }

    /// Transition INIT -> RTR with the remote QPN and its starting PSN.
    pub fn to_rtr(&mut self, dest_qpn: u32, remote_start_psn: u32) {
        assert_eq!(self.state, QpState::Init, "RTR requires INIT");
        self.dest_qpn = dest_qpn;
        self.expect_psn = remote_start_psn & PSN_MASK;
        self.state = QpState::Rtr;
    }

    /// Transition RTR -> RTS with our starting PSN.
    pub fn to_rts(&mut self, local_start_psn: u32) {
        assert_eq!(self.state, QpState::Rtr, "RTS requires RTR");
        self.send_psn = local_start_psn & PSN_MASK;
        self.state = QpState::Rts;
    }

    /// Allocate the PSN for the next outgoing packet.
    pub fn next_send_psn(&mut self) -> u32 {
        let psn = self.send_psn;
        self.send_psn = (self.send_psn + 1) & PSN_MASK;
        psn
    }

    /// Validate an inbound packet's PSN. On success the expected PSN
    /// advances.
    pub fn receive(&mut self, psn: u32) -> Result<(), QpError> {
        if !matches!(self.state, QpState::Rtr | QpState::Rts) {
            return Err(QpError::BadState(self.state));
        }
        let psn = psn & PSN_MASK;
        if psn == self.expect_psn {
            self.expect_psn = (self.expect_psn + 1) & PSN_MASK;
            self.accepted += 1;
            return Ok(());
        }
        // Window arithmetic in the 24-bit circular space.
        let delta = psn.wrapping_sub(self.expect_psn) & PSN_MASK;
        if delta < PSN_HALF {
            self.naks += 1;
            Err(QpError::OutOfOrder { expected: self.expect_psn, got: psn })
        } else {
            self.duplicates += 1;
            Err(QpError::Duplicate(psn))
        }
    }

    /// Whether a NAK naming expected PSN `psn` is a stale repeat. Never
    /// moves the send PSN: the caller acts on a NAK this calls news.
    ///
    /// A responder NAKs *every* out-of-sequence arrival, so going back from
    /// send PSN `S` to `E` is followed by one more NAK for `E` per packet
    /// past `E` that was already in flight — `S − E − 2` of them, the first
    /// having caused the go-back. Those repeats are stale: acting on one
    /// would go back mid-recovery and re-send PSNs the responder has since
    /// consumed. They are counted off here; any other NAK is news and
    /// predicts its own repeats. Fewer repeats than predicted may arrive
    /// (they can be lost too), and the leftover count then swallows that
    /// many genuine NAKs for `E` — it delays the next go-back, never
    /// prevents it, so the rule converges from any counter value.
    pub fn stale_nak(&mut self, psn: u32) -> bool {
        let psn = psn & PSN_MASK;
        if psn == self.rewound_to && self.stale_naks > 0 {
            self.stale_naks -= 1;
            return true;
        }
        let in_flight = self.send_psn.wrapping_sub(psn) & PSN_MASK;
        self.stale_naks = if in_flight < PSN_HALF { in_flight.saturating_sub(2) } else { 0 };
        self.rewound_to = psn;
        false
    }

    /// Resynchronize the send side to `psn`, the expected PSN a NAK
    /// reported, unless the NAK is stale ([`QueuePair::stale_nak`]); say
    /// whether the send PSN was rewound. DTA is best-effort: the lost
    /// operations are not replayed here, but the PSN stream realigns so
    /// the connection keeps flowing.
    pub fn resync_send(&mut self, psn: u32) -> bool {
        if self.stale_nak(psn) {
            return false;
        }
        self.send_psn = psn & PSN_MASK;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connected_pair() -> (QueuePair, QueuePair) {
        let mut a = QueuePair::new(1);
        let mut b = QueuePair::new(2);
        a.to_rtr(2, 100);
        a.to_rts(50);
        b.to_rtr(1, 50);
        b.to_rts(100);
        (a, b)
    }

    #[test]
    fn in_order_stream_accepted() {
        let (mut a, mut b) = connected_pair();
        for _ in 0..100 {
            let psn = a.next_send_psn();
            b.receive(psn).unwrap();
        }
        assert_eq!(b.accepted, 100);
        assert_eq!(b.naks + b.duplicates, 0);
    }

    #[test]
    fn gap_generates_nak() {
        let (mut a, mut b) = connected_pair();
        let _lost = a.next_send_psn();
        let next = a.next_send_psn();
        assert!(matches!(
            b.receive(next),
            Err(QpError::OutOfOrder { expected: 50, got: 51 })
        ));
        assert_eq!(b.naks, 1);
    }

    #[test]
    fn duplicate_detected() {
        let (mut a, mut b) = connected_pair();
        let psn = a.next_send_psn();
        b.receive(psn).unwrap();
        assert!(matches!(b.receive(psn), Err(QpError::Duplicate(50))));
        assert_eq!(b.duplicates, 1);
    }

    #[test]
    fn rewind_swallows_only_the_repeats_it_predicts() {
        // S = 60, E = 50: PSNs 51..=59 were in flight, the first of their
        // nine NAKs rewinds, the other S - E - 2 = 8 are stale.
        let (mut a, _) = connected_pair();
        for _ in 0..10 {
            a.next_send_psn();
        }
        assert!(a.resync_send(50));
        assert_eq!(a.next_send_psn(), 50);
        for repeat in 0..8 {
            assert!(!a.resync_send(50), "repeat {repeat} is predicted, not a new loss");
        }
        assert_eq!(a.next_send_psn(), 51, "stale NAKs must not move the send PSN");
        // The ninth is one more than the rewind predicted: 50 was lost again.
        assert!(a.resync_send(50));
        assert_eq!(a.next_send_psn(), 50);

        // `stale_nak` alone judges the same NAKs the same way, and leaves
        // the send PSN where it was.
        let (mut b, _) = connected_pair();
        for _ in 0..10 {
            b.next_send_psn();
        }
        let judged: Vec<bool> = (0..10).map(|_| b.stale_nak(50)).collect();
        assert_eq!(judged, [[false].as_slice(), &[true; 8], &[false]].concat());
        assert_eq!(b.next_send_psn(), 60);
    }

    #[test]
    fn nak_for_another_psn_always_rewinds() {
        let (mut a, _) = connected_pair();
        for _ in 0..10 {
            a.next_send_psn();
        }
        assert!(a.resync_send(50));
        // Credit for 50 is outstanding, but the responder now expects 53.
        for _ in 0..5 {
            a.next_send_psn();
        }
        assert!(a.resync_send(53));
        assert_eq!(a.next_send_psn(), 53);
        // A NAK naming a PSN ahead of the send PSN predicts no repeats.
        assert!(a.resync_send(70));
        assert!(a.resync_send(70));
    }

    #[test]
    fn arbitrary_leftover_credit_delays_a_resync_but_cannot_prevent_it() {
        // Start from a corrupt state: credit for 1000 repeats of a NAK
        // that will never repeat that often.
        let (mut a, _) = connected_pair();
        a.rewound_to = 50;
        a.stale_naks = 1000;
        for _ in 0..3 {
            a.next_send_psn();
        }
        let naks_until_resync = (1..).find(|_| a.resync_send(50)).unwrap();
        assert_eq!(naks_until_resync, 1001);
        assert_eq!(a.next_send_psn(), 50);
        // That rewind (S = 53) predicted one repeat. Once it is counted
        // off, the same PSN lost again still resyncs — where a grow-only
        // "first NAK per PSN wins" history wedged the QP for good.
        assert!(!a.resync_send(50));
        a.next_send_psn();
        assert!(a.resync_send(50));
    }

    #[test]
    fn psn_wraps_at_24_bits() {
        let mut a = QueuePair::new(1);
        a.to_rtr(2, 0);
        a.to_rts(PSN_MASK); // last PSN in the space
        assert_eq!(a.next_send_psn(), PSN_MASK);
        assert_eq!(a.next_send_psn(), 0);
    }

    #[test]
    fn receive_in_init_rejected() {
        let mut q = QueuePair::new(1);
        assert!(matches!(q.receive(0), Err(QpError::BadState(QpState::Init))));
    }

    #[test]
    #[should_panic]
    fn rts_requires_rtr() {
        let mut q = QueuePair::new(1);
        q.to_rts(0);
    }

    #[test]
    fn wraparound_duplicate_classified_correctly() {
        let mut b = QueuePair::new(2);
        b.to_rtr(1, 5);
        // PSN 4 is "one behind": a duplicate, not a future gap.
        assert!(matches!(b.receive(4), Err(QpError::Duplicate(4))));
    }
}
