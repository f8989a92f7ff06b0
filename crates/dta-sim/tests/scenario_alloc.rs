//! DESIGN.md hot-path rule 2 on the fabric path: what a whole
//! `run_scenario` allocates per report it frames, pinned.
//!
//! A run has a fixed cost (fabric, collector regions, translator, pools
//! growing to what they have in flight) and a per-report cost. Running the
//! same single-RoCE K=4 deployment at `N` and `2N` ops per reporter and
//! differencing cancels the first:
//! `(allocs(2N) − allocs(N)) / (reports(2N) − reports(N))` is the marginal
//! allocation count per report. The counting allocator counts per thread
//! (the single-threaded translator runs on the test's own thread), so the
//! harness's other threads are not charged to the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dta_sim::{run_scenario, ScenarioSpec, TranslatorMode};

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

/// `(allocations, reports framed)` of one run of `spec`.
fn measure(spec: &ScenarioSpec) -> (u64, u64) {
    let before = allocations();
    let out = run_scenario(spec);
    let allocs = allocations() - before;
    assert_eq!(out.report.reports_unsent, 0, "the run must drain");
    (allocs, out.report.sent.total())
}

/// Marginal allocations per framed report on `scenarios/smoke.toml`'s
/// deployment (single RoCE translator, K=4, 8 reporters): 8.7 before frames
/// were pooled and written once, 2.08 before the event wheel kept its slot
/// capacity and the key pools became bitmaps, 1.14 before queries voted and
/// decoded in place, 0.59 (240 over 408 reports) before ACKs and NAKs left
/// the collector NIC unboxed, 0.57 (234 over 408) now. What still allocates
/// is the post-run query audit's one owned result per answer: a `Found`
/// Key-Write value or Postcarding path, an Append entry. `benchmark/src/
/// audit.rs` builds and matches those `Vec` types, so they stay. The rest
/// (0.20 without the audit) is buffers doubling as the run grows, not a
/// per-report cost.
const MARGINAL_ALLOCS_PER_REPORT: f64 = 0.58;

#[test]
fn scenario_marginal_allocations_per_report_are_pinned() {
    let n = 32;
    let spec = |ops_per_reporter| ScenarioSpec {
        ops_per_reporter,
        ..ScenarioSpec::preset("smoke", TranslatorMode::SingleThreaded)
    };
    // Warm the process (lazily built tables, the CRC engine) first.
    measure(&spec(n));
    let (allocs_n, reports_n) = measure(&spec(n));
    let (allocs_2n, reports_2n) = measure(&spec(2 * n));
    assert!(reports_2n > reports_n);
    let marginal = (allocs_2n - allocs_n) as f64 / (reports_2n - reports_n) as f64;
    println!(
        "allocs {allocs_n} / {reports_n} reports at N={n}, {allocs_2n} / {reports_2n} at 2N: \
         {marginal:.2} marginal allocations per report"
    );
    assert!(
        marginal <= MARGINAL_ALLOCS_PER_REPORT,
        "{marginal:.2} marginal allocations per report, pinned at {MARGINAL_ALLOCS_PER_REPORT}"
    );
}
