//! A warm [`EventQueue`] runs a schedule it has already run without
//! allocating: slot vectors keep their capacity through cascades and
//! serves, and events live in a slab whose freed indices are reused, so
//! the wheel's memory is sized by the most events ever in flight, not by
//! the events ever pushed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dta_net::{EventQueue, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: reading it from inside the
    // allocator can neither allocate nor run after the thread's teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) this thread has made.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One step of a schedule, in time relative to the round's start.
#[derive(Clone, Copy)]
enum Op {
    /// Push at `now + delta`.
    PushAhead(u64),
    /// Push at `base + t`, which may lie behind `now`.
    PushAt(u64),
    /// Pop once if an event is due by `now + delta`.
    PopUntil(u64),
}

/// Rounds start this far apart: a multiple of the wheel's 2^24 ns span, so
/// every round files its events in the same slots and levels as the last,
/// and wider than a round's own schedule.
const ROUND_NS: u64 = 1 << 28;

/// Run `ops` from `base`, then drain. Returns the events popped.
fn run_round(q: &mut EventQueue<usize>, ops: &[Op], base: u64) -> usize {
    // Start every round with the cursor on `base`.
    q.push(SimTime(base), usize::MAX);
    assert_eq!(q.pop(), Some((SimTime(base), usize::MAX)));
    let mut now = base;
    let mut popped = 0;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::PushAhead(d) => q.push(SimTime(now + d), i),
            Op::PushAt(t) => q.push(SimTime(base + t), i),
            Op::PopUntil(d) => {
                if let Some((t, _)) = q.pop_until(SimTime(now + d)) {
                    now = t.0;
                    popped += 1;
                }
            }
        }
    }
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

#[test]
fn warm_event_queue_reruns_a_schedule_without_allocating() {
    // Same-time bursts, every wheel level, the far heap past the 2^24 ns
    // horizon, pushes behind the served time, and deadlines both short of
    // and past the next event.
    let mut rng = StdRng::seed_from_u64(7);
    let ops: Vec<Op> = (0..20_000)
        .map(|_| match rng.gen_range(0..10) {
            0 => Op::PushAhead(0),
            1..=3 => Op::PushAhead(rng.gen_range(1..5_000)),
            4 => Op::PushAhead(rng.gen_range(5_000..(1 << 25))),
            5 => Op::PushAt(rng.gen_range(0..(1 << 22))),
            _ => Op::PopUntil(rng.gen_range(0..20_000)),
        })
        .collect();
    let mut q = EventQueue::new();
    let cold = run_round(&mut q, &ops, 0);
    for round in 1..4 {
        let before = allocations();
        let popped = run_round(&mut q, &ops, round * ROUND_NS);
        let allocs = allocations() - before;
        assert_eq!(popped, cold, "round {round} ran a different schedule");
        assert_eq!(allocs, 0, "round {round} of a schedule the queue has run allocated");
    }
}
