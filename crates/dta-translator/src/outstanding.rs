//! One bounded window of outstanding requests over RC queue pairs.
//!
//! Failover replay and rebalance migration both post work over reliable
//! connections and both need to know, per request, what the responder has
//! acknowledged. [`Outstanding`] is that record for both: a FIFO of
//! `(qpn, psn, acked, due_ns, item)` with a capacity, counted eviction and
//! one closure identity, `recorded == evicted + retired + resident`. The
//! cumulative-ACK, NAK-suffix and go-back-N scans are written once, here.
//! The callers differ only in which method retires an entry:
//!
//! * the fleet node's replay ledger (one window per collector) retires by
//!   capacity eviction, by a failover taking the whole window, or by a NAK
//!   taking the un-acked suffix — never by an ACK, because a spurious
//!   failover must replay acknowledged writes too;
//! * the rebalance driver's op window retires an op when it completes
//!   (READ data, or a cumulative ACK for a WRITE or FETCH_ADD), and a NAK
//!   only makes the suffix due again.
//!
//! PSNs are 24 bits and wrap; every order comparison goes through
//! [`psn_reaches`].

use std::collections::VecDeque;

const PSN_MASK: u32 = 0x00FF_FFFF;
const PSN_HALF: u32 = 0x0080_0000;

/// Whether `psn` is at or after `from` in the circular 24-bit PSN space
/// (that is, less than half the space ahead of it).
fn psn_reaches(psn: u32, from: u32) -> bool {
    psn.wrapping_sub(from) & PSN_MASK < PSN_HALF
}

/// One outstanding request.
#[derive(Debug)]
pub(crate) struct Entry<T> {
    /// Requester QPN the request rode on (responses name it).
    pub qpn: u32,
    /// PSN of the request's last packet: a cumulative ACK reaching it acks
    /// the entry.
    pub psn: u32,
    /// Whether a cumulative ACK has covered the entry.
    pub acked: bool,
    /// Next (re)send time; 0 is due at once (never sent, or sent back).
    pub due_ns: u64,
    pub item: T,
}

/// The window (see the module docs).
#[derive(Debug)]
pub(crate) struct Outstanding<T> {
    entries: VecDeque<Entry<T>>,
    capacity: usize,
    /// Entries ever recorded.
    pub recorded: u64,
    /// Entries evicted by capacity.
    pub evicted: u64,
    /// Entries taken out by the caller (replayed or completed).
    pub retired: u64,
}

impl<T> Outstanding<T> {
    /// A window of at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity window holds nothing");
        Outstanding { entries: VecDeque::new(), capacity, recorded: 0, evicted: 0, retired: 0 }
    }

    /// Append an entry, due at once, evicting the oldest if the window is
    /// full.
    pub fn record(&mut self, qpn: u32, psn: u32, acked: bool, item: T) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(Entry { qpn, psn, acked, due_ns: 0, item });
        self.recorded += 1;
    }

    /// Apply a cumulative ACK: every entry on `qpn` up to `psn` is acked.
    pub fn ack(&mut self, qpn: u32, psn: u32) {
        for e in self.entries.iter_mut().filter(|e| e.qpn == qpn && psn_reaches(psn, e.psn)) {
            e.acked = true;
        }
    }

    /// Go-back-N after a NAK naming `expected`: every un-acked entry on
    /// `qpn` from `expected` on is due at once.
    pub fn rewind(&mut self, qpn: u32, expected: u32) {
        for e in self.entries.iter_mut().filter(|e| unacked_from(e, qpn, expected)) {
            e.due_ns = 0;
        }
    }

    /// Retire the un-acked suffix a NAK naming `expected` proves
    /// unexecuted on `qpn`, in FIFO order.
    pub fn take_unacked_from(&mut self, qpn: u32, expected: u32, into: &mut Vec<Entry<T>>) {
        self.take(|e| unacked_from(e, qpn, expected), into);
    }

    /// Retire the entry `(qpn, psn)`, if resident.
    pub fn take_psn(&mut self, qpn: u32, psn: u32) -> Option<Entry<T>> {
        let i = self.entries.iter().position(|e| e.qpn == qpn && e.psn == psn)?;
        self.retired += 1;
        self.entries.remove(i)
    }

    /// Retire every entry `pick` selects, in FIFO order.
    pub fn take(&mut self, mut pick: impl FnMut(&Entry<T>) -> bool, into: &mut Vec<Entry<T>>) {
        let mut i = 0;
        while i < self.entries.len() {
            if pick(&self.entries[i]) {
                into.extend(self.entries.remove(i));
                self.retired += 1;
            } else {
                i += 1;
            }
        }
    }

    /// Resident entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Entry<T>> {
        self.entries.iter()
    }

    /// Resident entries, oldest first, for due-time updates.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Entry<T>> {
        self.entries.iter_mut()
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The accounting identity: every recorded entry was evicted, retired,
    /// or is still resident.
    pub fn closes(&self) -> bool {
        self.recorded == self.evicted + self.retired + self.len() as u64
    }
}

/// Whether `e` is un-acked on `qpn` at or after `expected`.
fn unacked_from<T>(e: &Entry<T>, qpn: u32, expected: u32) -> bool {
    e.qpn == qpn && !e.acked && psn_reaches(e.psn, expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Take everything, FIFO.
    fn drain(w: &mut Outstanding<u32>) -> Vec<Entry<u32>> {
        let mut out = Vec::new();
        w.take(|_| true, &mut out);
        out
    }

    fn psns(entries: &[Entry<u32>]) -> Vec<u32> {
        entries.iter().map(|e| e.psn).collect()
    }

    #[test]
    fn ledger_cumulative_ack_covers_prefix_only() {
        let (mut ledger, mut other) = (Outstanding::new(16), Outstanding::new(16));
        for psn in 0..6u32 {
            ledger.record(7, psn, false, psn);
        }
        other.record(7, 100, false, 100); // other collector, same qpn: untouched
        ledger.ack(7, 3);
        let window = drain(&mut ledger);
        let acked: Vec<bool> = window.iter().map(|e| e.acked).collect();
        assert_eq!(acked, [true, true, true, true, false, false]);
        assert!(!drain(&mut other)[0].acked);
        assert_eq!(ledger.len(), 0);
        assert_eq!(ledger.recorded + other.recorded, 7);
        assert_eq!(ledger.evicted, 0);
    }

    #[test]
    fn ledger_evicts_per_collector_fifo() {
        let (mut ledger, mut other) = (Outstanding::new(3), Outstanding::new(3));
        for psn in 0..5u32 {
            ledger.record(1, psn, false, psn);
        }
        other.record(1, 9, false, 9); // other window unaffected by evictions
        assert_eq!(ledger.evicted + other.evicted, 2);
        assert_eq!(ledger.len() + other.len(), 4);
        let window = drain(&mut ledger);
        assert_eq!(psns(&window), [2, 3, 4], "oldest entries evicted first");
        // Accounting identity: recorded == evicted + drained + resident.
        assert_eq!(ledger.recorded, ledger.evicted + window.len() as u64 + ledger.len() as u64);
    }

    #[test]
    fn ledger_nak_drains_unacked_suffix_on_one_qp() {
        let mut ledger = Outstanding::new(16);
        for psn in 0..8u32 {
            ledger.record(5, psn, false, psn);
        }
        ledger.record(6, 2, false, 2); // other QP: untouched by the NAK
        ledger.ack(5, 3);
        // NAK with expected PSN 4: acked prefix 0..=3 stays, suffix 4..=7
        // drains for replay.
        let mut suffix = Vec::new();
        ledger.take_unacked_from(5, 4, &mut suffix);
        assert_eq!(psns(&suffix), [4, 5, 6, 7]);
        assert_eq!(ledger.len(), 5);
    }

    /// Entries straddling the 24-bit wrap: `0xFF_FFFE, 0xFF_FFFF, 0, 1`.
    fn across_the_wrap() -> Outstanding<u32> {
        let mut w = Outstanding::new(8);
        for psn in [0xFF_FFFE, 0xFF_FFFF, 0, 1] {
            w.record(3, psn, false, psn);
        }
        w
    }

    #[test]
    fn psn_order_is_modular_across_the_wrap() {
        let mut w = across_the_wrap();
        w.ack(3, 1);
        assert!(drain(&mut w).iter().all(|e| e.acked), "ack(1) covers the pre-wrap entries");

        let mut w = across_the_wrap();
        let mut suffix = Vec::new();
        w.take_unacked_from(3, 0xFF_FFFF, &mut suffix);
        assert_eq!(psns(&suffix), [0xFF_FFFF, 0, 1]);
        assert_eq!(psns(&drain(&mut w)), [0xFF_FFFE]);

        let mut w = across_the_wrap();
        for e in w.iter_mut() {
            e.due_ns = 50;
        }
        w.rewind(3, 0);
        let due: Vec<u64> = w.iter_mut().map(|e| e.due_ns).collect();
        assert_eq!(due, [50, 50, 0, 0]);
    }

    #[test]
    fn outstanding_closes_over_evict_retire_and_resident() {
        let mut w = Outstanding::new(4);
        assert!(w.closes());
        for psn in 0..10u32 {
            w.record(1, psn, false, psn);
        }
        assert_eq!((w.recorded, w.evicted, w.len()), (10, 6, 4));
        assert!(w.closes());
        let mut taken = Vec::new();
        w.take(|e| e.psn % 2 == 0, &mut taken);
        assert_eq!(psns(&taken), [6, 8]);
        assert_eq!(w.retired, 2);
        assert!(w.closes());
        w.retired += 1; // a retirement the window never made
        assert!(!w.closes());
    }
}
