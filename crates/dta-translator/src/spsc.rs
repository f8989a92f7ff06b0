//! Bounded single-producer / single-consumer report queues.
//!
//! The sharded translator places one of these between its ingest thread and
//! each worker shard. The design is the classic lock-free ring: a
//! power-of-two slot array indexed by free-running `head` (consumer) and
//! `tail` (producer) counters. Each side keeps a *cached* copy of the
//! other's counter, so the steady state *reads* the opposing counter's
//! cache line once per fill/drain cycle, not per item (the publishing
//! store of one's own counter is still per push/pop-batch, as in any SPSC
//! ring).
//!
//! Backpressure is explicit: [`Producer::push`] fails (returning the item)
//! when the ring is full, and the caller decides whether to spin, yield, or
//! drop — the sharded ingest loop yields, which bounds translator memory at
//! `shards × capacity` reports no matter how far a shard falls behind.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pad-to-cache-line wrapper: keeps the producer and consumer counters on
/// separate lines so the two threads don't false-share.
#[repr(align(64))]
struct CacheLine<T>(T);

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will read (free-running).
    head: CacheLine<AtomicUsize>,
    /// Next slot the producer will write (free-running).
    tail: CacheLine<AtomicUsize>,
}

// SAFETY: slots are handed off by the head/tail protocol — a slot is
// written only by the producer while `tail - capacity <= slot < head`
// readers can't see it, and read only by the consumer after the producer's
// Release store of `tail` makes the write visible.
unsafe impl<T: Send> Sync for Ring<T> {}
// SAFETY: the ring owns its slots and `T: Send`, so the queued items may be
// moved (and dropped) on whichever thread ends up holding the ring.
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Both handles are gone; drop whatever items were still queued.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for at in head..tail {
            // SAFETY: `&mut self` in Drop means no producer/consumer is
            // live, and every slot in `head..tail` was initialized by a
            // producer `write` whose tail publication happened-before the
            // last handle dropped.
            unsafe { (*self.buf[at & self.mask].get()).assume_init_drop() };
        }
    }
}

/// The producing half (ingest thread side).
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Local copy of `tail` (only this side advances it).
    tail: usize,
    /// Cached view of the consumer's `head`; refreshed only when the ring
    /// looks full.
    cached_head: usize,
}

/// The consuming half (shard worker side).
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Local copy of `head` (only this side advances it).
    head: usize,
    /// Cached view of the producer's `tail`; refreshed only when the ring
    /// looks empty.
    cached_tail: usize,
}

// Manual impls: queued items may be mid-handoff, so only the counters are
// printable — and going through `derive` would demand `T: Debug` anyway.
impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer")
            .field("capacity", &(self.ring.mask + 1))
            .field("tail", &self.tail)
            .field("cached_head", &self.cached_head)
            .finish()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("capacity", &(self.ring.mask + 1))
            .field("head", &self.head)
            .field("cached_tail", &self.cached_tail)
            .finish()
    }
}

/// A bounded SPSC channel of at least `capacity` slots (rounded up to a
/// power of two, minimum 2).
pub fn channel<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.next_power_of_two().max(2);
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> =
        (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let ring = Arc::new(Ring {
        buf,
        mask: cap - 1,
        head: CacheLine(AtomicUsize::new(0)),
        tail: CacheLine(AtomicUsize::new(0)),
    });
    (
        Producer { ring: ring.clone(), tail: 0, cached_head: 0 },
        Consumer { ring, head: 0, cached_tail: 0 },
    )
}

impl<T> Producer<T> {
    /// Ring capacity in items.
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }

    /// Enqueue `item`, or hand it back if the ring is full.
    #[inline]
    pub fn push(&mut self, item: T) -> Result<(), T> {
        let cap = self.ring.mask + 1;
        if self.tail - self.cached_head == cap {
            self.cached_head = self.ring.head.0.load(Ordering::Acquire);
            if self.tail - self.cached_head == cap {
                return Err(item);
            }
        }
        // SAFETY: `self.tail - head < cap` was just established, so this
        // slot is outside the consumer's visible `head..tail` window — the
        // single producer has exclusive access until the Release store of
        // `tail` below publishes it.
        unsafe {
            (*self.ring.buf[self.tail & self.ring.mask].get()).write(item);
        }
        self.tail += 1;
        self.ring.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }
}

impl<T> Consumer<T> {
    /// Dequeue one item, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.head == self.cached_tail {
            self.cached_tail = self.ring.tail.0.load(Ordering::Acquire);
            if self.head == self.cached_tail {
                return None;
            }
        }
        // SAFETY: `head < cached_tail` and `cached_tail` came from an
        // Acquire load of the producer's Release-published `tail`, so the
        // slot's `write` happened-before this read; the single consumer
        // owns the slot until it advances `head`.
        let item =
            unsafe { (*self.ring.buf[self.head & self.ring.mask].get()).assume_init_read() };
        self.head += 1;
        self.ring.head.0.store(self.head, Ordering::Release);
        Some(item)
    }

    /// Drain up to `max` items into `out`, publishing the consumed range
    /// once — the shard worker's batch entry point. Returns the number
    /// drained.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if self.head == self.cached_tail {
            self.cached_tail = self.ring.tail.0.load(Ordering::Acquire);
        }
        let avail = (self.cached_tail - self.head).min(max);
        for _ in 0..avail {
            // SAFETY: as in `pop` — every slot below the Acquire-loaded
            // `cached_tail` was initialized by the producer before its
            // Release store of `tail`, and only this consumer reads it.
            let item = unsafe {
                (*self.ring.buf[self.head & self.ring.mask].get()).assume_init_read()
            };
            out.push(item);
            self.head += 1;
        }
        if avail > 0 {
            self.ring.head.0.store(self.head, Ordering::Release);
        }
        avail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity_bound() {
        let (mut tx, mut rx) = channel::<u32>(4);
        assert_eq!(tx.capacity(), 4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "fifth push must report full");
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
        // Space reclaimed after pops.
        tx.push(7).unwrap();
        assert_eq!(rx.pop(), Some(7));
    }

    #[test]
    fn pop_batch_drains_in_order() {
        let (mut tx, mut rx) = channel::<u32>(16);
        for i in 0..10 {
            tx.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 4), 4);
        assert_eq!(out, [0, 1, 2, 3]);
        assert_eq!(rx.pop_batch(&mut out, 100), 6);
        assert_eq!(out[4..], [4, 5, 6, 7, 8, 9]);
        assert_eq!(rx.pop_batch(&mut out, 100), 0);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (tx, _rx) = channel::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = channel::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn cross_thread_stream_is_lossless_and_ordered() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = channel::<u64>(256);
        let consumer = std::thread::spawn(move || {
            let mut expected = 0u64;
            let mut batch = Vec::with_capacity(64);
            while expected < N {
                batch.clear();
                if rx.pop_batch(&mut batch, 64) == 0 {
                    std::thread::yield_now();
                    continue;
                }
                for v in &batch {
                    assert_eq!(*v, expected, "reordered or lost item");
                    expected += 1;
                }
            }
            expected
        });
        let mut v = 0u64;
        while v < N {
            match tx.push(v) {
                Ok(()) => v += 1,
                Err(_) => std::thread::yield_now(),
            }
        }
        assert_eq!(consumer.join().unwrap(), N);
    }

    #[test]
    fn slow_consumer_backpressures_without_loss_and_bounded_memory() {
        // A deliberately slow consumer against a tiny ring: the producer
        // must hit explicit backpressure (failed pushes), the ring must
        // never hold more than its capacity (bounded memory — the invariant
        // the sharded ingest loop's `shards × queue_depth` bound rests on),
        // and once the consumer drains, every item must have arrived intact
        // and in order.
        const N: u64 = 50_000;
        const CAP: usize = 8;
        let (mut tx, mut rx) = channel::<u64>(CAP);
        assert_eq!(tx.capacity(), CAP);
        let consumer = std::thread::spawn(move || {
            let mut expected = 0u64;
            let mut batch = Vec::with_capacity(4);
            let mut max_seen = 0usize;
            while expected < N {
                // Slow drain: tiny batches with a yield between them.
                batch.clear();
                let n = rx.pop_batch(&mut batch, 3);
                max_seen = max_seen.max(n);
                for v in &batch {
                    assert_eq!(*v, expected, "lost or reordered under backpressure");
                    expected += 1;
                }
                std::thread::yield_now();
            }
            (expected, max_seen)
        });
        let mut backpressure = 0u64;
        let mut v = 0u64;
        while v < N {
            match tx.push(v) {
                Ok(()) => v += 1,
                Err(returned) => {
                    // The ring hands the item back instead of dropping it.
                    assert_eq!(returned, v);
                    backpressure += 1;
                    std::thread::yield_now();
                }
            }
        }
        let (drained, max_batch) = consumer.join().unwrap();
        assert_eq!(drained, N, "items lost once drained");
        assert!(backpressure > 0, "a slow consumer must exert backpressure");
        assert!(max_batch <= CAP, "ring exceeded its capacity bound");
    }

    #[test]
    fn queued_items_drop_exactly_once() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut tx, mut rx) = channel::<D>(8);
        for _ in 0..5 {
            tx.push(D).unwrap();
        }
        drop(rx.pop()); // one dropped by the consumer
        drop(tx);
        drop(rx); // four dropped with the ring
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }
}
