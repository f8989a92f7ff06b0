//! Simulated time and the event queue.
//!
//! The queue is the engine's hottest structure: every packet hop and node
//! tick passes through it once. [`EventQueue`] is a 4-level
//! hierarchical timing wheel (64 slots per level, 1ns granularity at level
//! 0) with a binary-heap fallback for events beyond the ~16.8ms wheel
//! horizon. Push and pop are O(1) amortized against the old all-heap
//! queue's O(log n), and — critically for reproducibility — the pop order
//! is **bit-identical** to a binary heap ordered by `(time, seq)`: ties at
//! one timestamp break by a monotone insertion sequence number, so
//! simulations replay exactly. [`HeapEventQueue`] preserves the original
//! heap implementation as the ordering oracle the property tests compare
//! against.
//!
//! Beside `push`/`pop`, a slot API lets an event stay where it is stored:
//! [`EventQueue::pop_slot_until`] unqueues a due event and leaves it in the
//! slab, [`EventQueue::slot_mut`] rewrites it, and
//! [`EventQueue::reschedule`] queues the same slot again (the engine's
//! transit hops and ticks) — the order of a pop followed by a push.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// 100 Gb/s in bits per second — the paper's link speed.
pub const GBPS_100: u64 = 100_000_000_000;
/// 25 Gb/s, a common server access speed.
pub const GBPS_25: u64 = 25_000_000_000;
/// 400 Gb/s, for "future NICs will have better speeds" experiments.
pub const GBPS_400: u64 = 400_000_000_000;

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Serialization delay of `bytes` on a link of `bits_per_sec`, in ns
    /// (rounded up: a partial nanosecond still occupies the wire).
    pub fn tx_time(bytes: usize, bits_per_sec: u64) -> u64 {
        let bits = bytes as u64 * 8;
        bits.saturating_mul(1_000_000_000).div_ceil(bits_per_sec)
    }
}

impl core::ops::Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, ns: u64) -> SimTime {
        SimTime(self.0 + ns)
    }
}

impl core::ops::Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0 - rhs.0
    }
}

/// Wrapper that exempts the payload from ordering (heap entries compare on
/// `(time, seq)` alone).
#[derive(Debug)]
struct EventSlot<E>(E);

impl<E> PartialEq for EventSlot<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventSlot<E> {}
impl<E> PartialOrd for EventSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventSlot<E> {
    fn cmp(&self, _: &Self) -> core::cmp::Ordering {
        core::cmp::Ordering::Equal
    }
}

/// The original all-heap event queue, kept verbatim as the ordering oracle
/// for [`EventQueue`]'s equivalence tests: events with equal timestamps pop
/// in insertion order (FIFO tie-break via a monotone sequence number).
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventSlot<E>)>>,
    seq: u64,
}

impl<E> HeapEventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        HeapEventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedule `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.heap.push(Reverse((at, self.seq, EventSlot(event))));
        self.seq += 1;
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse((t, _, EventSlot(e)))| (t, e))
    }

    /// Remove and return the earliest event if it is due by `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let Reverse((t, _, _)) = self.heap.peek()?;
        if *t > deadline {
            return None;
        }
        self.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Bits per wheel level: 64 slots, so each level's occupancy is one `u64`
/// bitmap and "next occupied slot" is a mask + `trailing_zeros`.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `l` slots are `64^l` ns wide.
const LEVELS: usize = 4;
/// Events scheduled at least this far past the wheel cursor overflow to
/// the heap (`64^4` ns ≈ 16.8 ms — far beyond any link or pacing delay).
const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// A wheel, far-heap or batch entry: `(time, seq, slab index)`. 24 bytes
/// whatever `E` is, so cascades, heap sifts and batch copies move keys,
/// and each event is written once into the slab and read once out of it.
type Key = (u64, u64, u32);

const _: () = assert!(std::mem::size_of::<Key>() == 24);

struct Level {
    /// Bit `s` set iff `slots[s]` is non-empty.
    occupied: u64,
    slots: Box<[Vec<Key>; SLOTS]>,
}

impl Level {
    fn new() -> Self {
        Level { occupied: 0, slots: Box::new(std::array::from_fn(|_| Vec::new())) }
    }
}

/// Bits of `x` at positions `>= lo` (empty mask when `lo >= 64`).
#[inline]
fn bits_from(x: u64, lo: u32) -> u64 {
    if lo >= 64 {
        0
    } else {
        x & (u64::MAX << lo)
    }
}

/// A time-ordered event queue: hierarchical timing wheel + far-future heap.
///
/// Pop order is exactly ascending `(time, seq)` where `seq` is the
/// insertion sequence number — the same order [`HeapEventQueue`] produces —
/// so events with equal timestamps pop FIFO and simulations are
/// deterministic. Events pushed at or before the last popped time are
/// delivered immediately-next in `(time, seq)` order, again matching the
/// heap.
///
/// Every buffer keeps its capacity: slot vectors, the batch being served,
/// the far heap, the slab and its free list only grow, so a queue that
/// has run a schedule once runs it again without allocating.
pub struct EventQueue<E> {
    levels: [Level; LEVELS],
    far: BinaryHeap<Reverse<Key>>,
    /// Wheel cursor: never exceeds the position of any pending event, and
    /// all wheel entries were placed at a delta `< HORIZON` from it.
    cur: u64,
    /// The level-0 slot currently being served, sorted by **descending**
    /// `(time, seq)` so `pop` is a `Vec::pop` from the back.
    draining: Vec<Key>,
    /// The pending and held events, at their keys' slab indices; a taken
    /// event leaves `None`, and its index on `free` for the next insert.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            levels: std::array::from_fn(|_| Level::new()),
            far: BinaryHeap::new(),
            cur: 0,
            draining: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedule `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let idx = self.insert(event);
        self.reschedule(idx, at);
    }

    /// Store `event` in the slab without scheduling it and return its
    /// index, held as a popped slot is: the caller `reschedule`s or `take`s
    /// it.
    pub fn insert(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = Some(event);
                idx
            }
            None => {
                let idx = u32::try_from(self.slab.len()).expect("under 2^32 pending events");
                self.slab.push(Some(event));
                idx
            }
        }
    }

    /// Schedule the held slot `idx` at `at` under a fresh insertion
    /// sequence number: exactly the order a `take` followed by a `push` of
    /// the same event gives, without moving the event.
    pub fn reschedule(&mut self, idx: u32, at: SimTime) {
        debug_assert!(self.slab[idx as usize].is_some(), "reschedule of a free slot");
        let (t, seq) = (at.0, self.seq);
        self.seq += 1;
        // An event due no later than the tail of the batch being served
        // must pop from inside that batch to preserve (time, seq) order.
        if let Some(&(lt, lseq, _)) = self.draining.first() {
            if (t, seq) < (lt, lseq) {
                let i = self.draining.partition_point(|&(et, eseq, _)| (et, eseq) > (t, seq));
                self.draining.insert(i, (t, seq, idx));
                return;
            }
        }
        self.place(t, seq, idx);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime(u64::MAX))
    }

    /// Remove and return the earliest event if it is due by `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let (t, idx) = self.pop_slot_until(deadline)?;
        Some((t, self.take(idx)))
    }

    /// Unqueue the earliest event if it is due by `deadline` and return its
    /// time and slab index, leaving the event in the slab: the slot is held
    /// until the caller `reschedule`s or `take`s it, and reads or rewrites
    /// it through `slot_mut` meanwhile. A held slot counts in `len`.
    pub fn pop_slot_until(&mut self, deadline: SimTime) -> Option<(SimTime, u32)> {
        if !self.prepare() {
            return None;
        }
        let &(t, _, idx) = self.draining.last().expect("prepare guaranteed an entry");
        if t > deadline.0 {
            return None;
        }
        self.draining.pop();
        Some((SimTime(t), idx))
    }

    /// The event in the held slot `idx`.
    pub fn slot_mut(&mut self, idx: u32) -> &mut E {
        self.slab[idx as usize].as_mut().expect("a held slot names a stored event")
    }

    /// Move the event out of the held slot `idx` and free the slot.
    pub fn take(&mut self, idx: u32) -> E {
        let event = self.slab[idx as usize].take().expect("a held slot names a stored event");
        self.free.push(idx);
        event
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Route one key to its wheel slot (or the far heap) by its delta
    /// from the cursor. Keys due at or before the cursor are filed under
    /// the cursor's own slot; the sort in `prepare` restores exact order.
    fn place(&mut self, t: u64, seq: u64, idx: u32) {
        let t_eff = t.max(self.cur);
        let delta = t_eff - self.cur;
        if delta >= HORIZON {
            self.far.push(Reverse((t, seq, idx)));
            return;
        }
        let lvl = ((64 - (delta | 1).leading_zeros() - 1) / SLOT_BITS) as usize;
        let slot = ((t_eff >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[lvl].slots[slot].push((t, seq, idx));
        self.levels[lvl].occupied |= 1 << slot;
    }

    /// The earliest pending wheel position: `(position, level, slot)`.
    /// Level-0 positions are exact event times; higher-level positions are
    /// the start of the slot's window (a lower bound on its events), so a
    /// higher level winning a tie must cascade before level 0 serves.
    fn wheel_candidate(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for lvl in 0..LEVELS {
            let occ = self.levels[lvl].occupied;
            if occ == 0 {
                continue;
            }
            let width = 1u64 << (SLOT_BITS * lvl as u32);
            let span = width << SLOT_BITS;
            let base = self.cur & !(span - 1);
            let idx = ((self.cur >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as u32;
            // The cursor's own slot is still "current window" only while
            // the cursor sits exactly on its boundary; past that, any set
            // bit at or below `idx` is a wrap into the next window.
            let lo = if lvl == 0 || self.cur & (width - 1) == 0 { idx } else { idx + 1 };
            let ahead = bits_from(occ, lo);
            let (pos, slot) = if ahead != 0 {
                let s = ahead.trailing_zeros();
                (base + s as u64 * width, s as usize)
            } else {
                let s = occ.trailing_zeros();
                (base + span + s as u64 * width, s as usize)
            };
            // Ties prefer the higher level: its window must cascade down
            // before the lower level's slot at the same position serves.
            if best.is_none_or(|(bp, _, _)| pos <= bp) {
                best = Some((pos, lvl, slot));
            }
        }
        best
    }

    /// Ensure `draining` holds the next batch. Returns false iff empty.
    fn prepare(&mut self) -> bool {
        if !self.draining.is_empty() {
            return true;
        }
        loop {
            let wheel = self.wheel_candidate();
            let far_t = self.far.peek().map(|Reverse((t, _, _))| *t);
            match (wheel, far_t) {
                (None, None) => return false,
                // Far events due at or before the wheel frontier merge into
                // the wheel first so equal-time entries interleave by seq.
                (w, Some(ft)) if w.is_none_or(|(pos, _, _)| ft <= pos) => {
                    self.cur = self.cur.max(ft);
                    while let Some(&Reverse((t, seq, idx))) = self.far.peek() {
                        if t >= self.cur + HORIZON {
                            break;
                        }
                        self.far.pop();
                        self.place(t, seq, idx);
                    }
                }
                (Some((pos, 0, slot)), _) => {
                    self.cur = pos;
                    // Serve from the back: copy the (almost always already
                    // seq-ordered) slot in reverse, then repair the rare
                    // out-of-order batch (clamped past-time pushes). Both
                    // vectors keep their capacity.
                    let l0 = &mut self.levels[0];
                    self.draining.extend(l0.slots[slot].drain(..).rev());
                    l0.occupied &= !(1 << slot);
                    if self
                        .draining
                        .windows(2)
                        .any(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))
                    {
                        self.draining.sort_unstable_by_key(|e| Reverse((e.0, e.1)));
                    }
                    return true;
                }
                (Some((pos, lvl, slot)), _) => {
                    // Cascade: redistribute the slot one or more levels
                    // down, relative to the advanced cursor. Keys are
                    // `Copy`, so they are re-placed by index and the slot
                    // keeps its capacity.
                    self.cur = pos;
                    self.levels[lvl].occupied &= !(1 << slot);
                    let n = self.levels[lvl].slots[slot].len();
                    for i in 0..n {
                        let (t, seq, idx) = self.levels[lvl].slots[slot][i];
                        self.place(t, seq, idx);
                    }
                    self.levels[lvl].slots[slot].drain(..n);
                }
                (None, Some(_)) => unreachable!("covered by the far-merge arm's guard"),
            }
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> core::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("cur", &self.cur)
            .field("seq", &self.seq)
            .field("far", &self.far.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tx_time_100g() {
        // 1500B at 100Gbps = 120ns.
        assert_eq!(SimTime::tx_time(1500, GBPS_100), 120);
        // 64B at 100Gbps = 5.12ns -> rounds to 6.
        assert_eq!(SimTime::tx_time(64, GBPS_100), 6);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn time_conversions() {
        assert_eq!(SimTime::from_millis(2), SimTime(2_000_000));
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn pop_until_leaves_later_events() {
        let mut q = EventQueue::new();
        q.push(SimTime(7), "a");
        q.push(SimTime(9), "b");
        assert_eq!(q.pop_until(SimTime(6)), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_until(SimTime(8)), Some((SimTime(7), "a")));
        assert_eq!(q.pop_until(SimTime(8)), None);
        // A push below the prepared batch still pops first.
        q.push(SimTime(8), "c");
        assert_eq!(q.pop_until(SimTime(9)), Some((SimTime(8), "c")));
        assert_eq!(q.pop_until(SimTime(9)), Some((SimTime(9), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime(HORIZON * 3 + 17), "far");
        q.push(SimTime(2), "near");
        assert_eq!(q.pop(), Some((SimTime(2), "near")));
        assert_eq!(q.pop(), Some((SimTime(HORIZON * 3 + 17), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_heap_merges_with_late_near_pushes() {
        // A heap-resident event overtaken by the cursor must still pop in
        // global (time, seq) order against newer wheel events at the same
        // and later times.
        let mut q = EventQueue::new();
        q.push(SimTime(HORIZON + 5), "old-far"); // seq 0, lands in far heap
        q.push(SimTime(1), "near"); // seq 1
        assert_eq!(q.pop(), Some((SimTime(1), "near")));
        // Cursor is now at 1; these land in the wheel around the far event.
        q.push(SimTime(HORIZON + 5), "new-same-time"); // seq 2
        q.push(SimTime(HORIZON + 4), "new-earlier"); // seq 3
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["new-earlier", "old-far", "new-same-time"]);
    }

    #[test]
    fn pushes_at_or_before_popped_time_pop_next() {
        let mut q = EventQueue::new();
        q.push(SimTime(100), "a");
        q.push(SimTime(100), "b");
        q.push(SimTime(200), "c");
        assert_eq!(q.pop(), Some((SimTime(100), "a")));
        // Time-travel pushes (at/below the served time) pop before later
        // events, in (time, seq) order — exactly like the heap.
        q.push(SimTime(40), "timetravel");
        q.push(SimTime(100), "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime(40), "timetravel"),
                (SimTime(100), "b"),
                (SimTime(100), "d"),
                (SimTime(200), "c"),
            ]
        );
    }

    /// Drive the wheel and the heap oracle through an identical randomized
    /// push/pop schedule and demand bit-identical output streams.
    fn equivalence_trial(seed: u64, ops: usize, spread: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut now = 0u64;
        for i in 0..ops {
            if rng.gen_bool(0.6) || wheel.is_empty() {
                // Mostly-forward schedule with occasional same-time bursts
                // and rare far-future outliers.
                let at = if rng.gen_bool(0.05) {
                    now + rng.gen_range(0..spread * 1000)
                } else if rng.gen_bool(0.3) {
                    now
                } else {
                    now + rng.gen_range(0..spread)
                };
                wheel.push(SimTime(at), i);
                heap.push(SimTime(at), i);
            } else {
                let deadline = SimTime(now + rng.gen_range(0..2 * spread));
                let w = wheel.pop_until(deadline);
                assert_eq!(w, heap.pop_until(deadline), "pop diverged (seed {seed})");
                now = w.map(|(t, _)| t.0).unwrap_or(now);
            }
            assert_eq!(wheel.len(), heap.len());
        }
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w, h, "drain diverged (seed {seed})");
            if w.is_none() {
                break;
            }
        }
    }

    #[test]
    fn wheel_matches_heap_oracle_on_random_schedules() {
        for seed in 0..50 {
            equivalence_trial(seed, 4_000, 1 + (seed % 7) * 1000);
        }
        // Deltas straddling every level boundary and the horizon.
        for seed in 50..60 {
            equivalence_trial(seed, 2_000, HORIZON / 8);
        }
    }
}
