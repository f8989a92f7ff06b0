//! A warm [`Recycler`] costs the allocator nothing: once a table of a
//! length has been given back, taking it and giving it back again make no
//! heap call, however many times a run repeats the pair (the serve-mixed
//! benchmark workload drops four region snapshots per query cycle).
//!
//! The counting allocator needs a test binary of its own, and counts per
//! thread, so whatever the test harness does on its other threads is not
//! charged to the recycler.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dta_core::pool::Recycler;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: reading it from inside the
    // allocator can neither allocate nor run after the thread's teardown.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = CALLS.try_with(|n| n.set(n.get() + 1));
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
        count();
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls (allocations and frees) this thread has made.
fn calls() -> u64 {
    CALLS.with(Cell::get)
}

static TABLES: Recycler<u64> = Recycler::new(4);

#[test]
fn warm_take_and_give_allocate_nothing() {
    // Warm-up: two tables of one length and one of another, all given back.
    let tables = [TABLES.take_zeroed(512), TABLES.take_zeroed(512), TABLES.take_zeroed(64)];
    for table in tables {
        TABLES.give(table);
    }
    let before = calls();
    for round in 0..100usize {
        let (mut a, mut b) = (TABLES.take_zeroed(512), TABLES.take_zeroed(64));
        assert!(a.iter().chain(b.iter()).all(|w| *w == 0), "round {round} took a dirty table");
        a[round] = 1;
        b[round % 64] = 1;
        a[round] = 0;
        b[round % 64] = 0;
        TABLES.give(b);
        TABLES.give(a);
    }
    assert_eq!(calls() - before, 0, "a warm take/give pair called the allocator");
}
