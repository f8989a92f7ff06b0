//! The read path's allocation budget (DESIGN.md, "Query serving"): a warm
//! `QueryEngine::execute` allocates the owned result `QueryResult` returns
//! and nothing else. That is exactly one block for a `Found` Key-Write
//! value, a `Found` Postcarding path and an Append entry, and none for a
//! `NotFound` or `Ambiguous` answer or a Key-Increment estimate, through
//! both the live engine and the snapshot engine.
//!
//! The counting allocator needs a test binary of its own, and counts per
//! thread, so whatever the test harness does on its other threads is not
//! charged to the query.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dta_collector::{
    CollectorService, PostcardQueryOutcome, QueryEngine, QueryOutcome, QueryPolicy, QueryRequest,
    QueryResult, ServiceConfig, SnapshotQueryEngine, SnapshotView,
};
use dta_core::TelemetryKey;
use dta_rdma::mr::MemoryRegion;

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

const N: usize = 2;

fn kw(key: u64) -> QueryRequest {
    QueryRequest::KeyWrite {
        key: TelemetryKey::from_u64(key),
        redundancy: N,
        policy: QueryPolicy::Plurality,
    }
}

fn postcard(key: u64) -> QueryRequest {
    QueryRequest::Postcard { key: TelemetryKey::from_u64(key), redundancy: N }
}

/// A collector whose stores answer every kind of outcome: key 1 is found,
/// key 2 never written, and key 3 holds two disagreeing copies.
fn collector() -> CollectorService {
    let svc = CollectorService::new(ServiceConfig::default());
    let (k1, k3) = (TelemetryKey::from_u64(1), TelemetryKey::from_u64(3));
    let store = svc.keywrite.as_ref().expect("Key-Write enabled by default");
    store.insert_direct(&k1, &[1, 2, 3, 4], N);
    store.insert_direct(&k3, &[5; 4], N);
    store.insert_direct(&k3, &[6; 4], 1);
    let store = svc.postcarding.as_ref().expect("Postcarding enabled by default");
    store.insert_direct(&k1, &[10, 20, 30], N);
    store.insert_direct(&k3, &[7, 8], N);
    store.insert_direct(&k3, &[9], 1);
    let reader = svc.append.as_ref().expect("Append enabled by default");
    let va = reader.layout().entry_va(0, 0);
    reader.region().write(va, &[0xAB; 4]).expect("entry within region");
    let store = svc.key_increment.as_ref().expect("Key-Increment enabled by default");
    store.increment_direct(&k1, 5, N);
    svc
}

/// Which outcome a budget is for, so a setup that stopped producing it
/// fails loudly.
type Outcome = fn(&QueryResult) -> bool;

/// The requests and how many blocks each may allocate.
fn budget() -> Vec<(QueryRequest, u64, Outcome)> {
    vec![
        (kw(1), 1, |r| matches!(r, QueryResult::KeyWrite(QueryOutcome::Found(_)))),
        (kw(2), 0, |r| *r == QueryResult::KeyWrite(QueryOutcome::NotFound)),
        (kw(3), 0, |r| *r == QueryResult::KeyWrite(QueryOutcome::Ambiguous)),
        (postcard(1), 1, |r| {
            matches!(r, QueryResult::Postcard(PostcardQueryOutcome::Found(_)))
        }),
        (postcard(2), 0, |r| *r == QueryResult::Postcard(PostcardQueryOutcome::NotFound)),
        (postcard(3), 0, |r| *r == QueryResult::Postcard(PostcardQueryOutcome::Ambiguous)),
        (QueryRequest::AppendPoll { list: 0 }, 1, |r| matches!(r, QueryResult::Append(_))),
        (
            QueryRequest::Increment { key: TelemetryKey::from_u64(1), redundancy: N },
            0,
            |r| *r == QueryResult::Increment(5),
        ),
        (
            QueryRequest::Increment { key: TelemetryKey::from_u64(2), redundancy: N },
            0,
            |r| *r == QueryResult::Increment(0),
        ),
    ]
}

/// Run every request once to warm the engine, then again under the count.
fn check(engine: &mut impl QueryEngine, which: &str) {
    let budget = budget();
    for (req, _, _) in &budget {
        engine.execute(req);
    }
    for (req, blocks, outcome) in &budget {
        let before = allocations();
        let resp = engine.execute(req);
        let made = allocations() - before;
        assert!(outcome(&resp.result), "{which} {req:?}: unexpected {:?}", resp.result);
        assert_eq!(made, *blocks, "{which} {req:?} -> {:?} allocated {made} blocks", resp.result);
    }
}

#[test]
fn warm_live_queries_allocate_only_their_result() {
    let mut svc = collector();
    check(&mut svc.engine(), "live");
}

#[test]
fn warm_snapshot_queries_allocate_only_their_result() {
    let mut svc = collector();
    let images: Vec<_> = [
        svc.keywrite.as_ref().map(|s| s.region()),
        svc.postcarding.as_ref().map(|s| s.region()),
        svc.append.as_ref().map(|r| r.region()),
        svc.key_increment.as_ref().map(|s| s.region()),
    ]
    .into_iter()
    .map(|r| r.expect("all four stores enabled by default"))
    .map(|r: &MemoryRegion| (r.base_va, r.snapshot()))
    .collect();
    let view = |i: usize| SnapshotView { base_va: images[i].0, bytes: images[i].1.as_bytes() };
    let mut engine = SnapshotQueryEngine {
        keywrite: svc.keywrite.as_ref().map(|s| (s, view(0))),
        postcarding: svc.postcarding.as_ref().map(|s| (s, view(1))),
        append: svc.append.as_mut().map(|r| (r, view(2))),
        key_increment: svc.key_increment.as_ref().map(|s| (s, view(3))),
    };
    check(&mut engine, "snapshot");
}
