//! DESIGN.md hot-path rule 2, checked: once warm, `Translator::process_batch`
//! allocates nothing for any of the four primitives, and a Key-Write slot
//! image small enough to ride inline never reaches the image pool.
//!
//! The counting allocator needs a test binary of its own, and counts per
//! thread, so whatever the test harness does on its other threads is not
//! charged to the translator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dta_collector::service::{
    CollectorService, ServiceConfig, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta_core::{DtaReport, TelemetryKey};
use dta_rdma::cm::CmRequester;
use dta_translator::{Translator, TranslatorConfig, TranslatorOutput};

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

#[test]
fn warm_process_batch_allocates_nothing_for_any_primitive() {
    let mut svc = CollectorService::new(ServiceConfig::default());
    let mut tr = Translator::new(TranslatorConfig::default());
    for (service, qpn) in [
        (SERVICE_KW, 1),
        (SERVICE_POSTCARD, 2),
        (SERVICE_APPEND, 3),
        (SERVICE_CMS, 4),
    ] {
        let req = CmRequester::new(qpn, 0);
        let reply = svc.handle_cm(&req.request(service));
        let (qp, params) = req.complete(&reply).expect("service enabled by default");
        tr.connect(service, qp, params);
    }

    // The paper's headline shapes over a hot key set: Key-Write N=2 with
    // 4 B values, Append B=16 over every list, Key-Increment N=2, 5-hop
    // postcards (64 flows, hop-major so rows fill side by side).
    let key = |i: u32| TelemetryKey::from_u64(u64::from(i));
    let streams: [(&str, Vec<DtaReport>); 4] = [
        (
            "key-write",
            (0..256)
                .map(|i| DtaReport::key_write(i, key(i), 2, vec![i as u8; 4]))
                .collect(),
        ),
        (
            "append",
            (0..256)
                .map(|i| DtaReport::append(i, i % 16, vec![i as u8; 4]))
                .collect(),
        ),
        (
            "key-increment",
            (0..256)
                .map(|i| DtaReport::key_increment(i, key(i), 2, 1))
                .collect(),
        ),
        (
            "postcarding",
            (0..320)
                .map(|i| DtaReport::postcard(i, key(i % 64), (i / 64) as u8, 5, i % 4096))
                .collect(),
        ),
    ];

    let mut out = TranslatorOutput::default();
    let mut warm_fresh = 0;
    for pass in 0..4 {
        for (name, reports) in &streams {
            let before = allocations();
            tr.process_batch(0, reports, &mut out);
            let emitted = out.packets.len();
            // Dropping the packets is what hands their images back to the pool.
            out.clear();
            let allocated = allocations() - before;
            assert!(emitted > 0, "{name}: the stream must reach the emit path");
            // Pass 0 warms up: the output vector and the image pool's ring
            // grow to their working size.
            assert!(
                pass == 0 || allocated == 0,
                "{name}: {allocated} allocations in warm pass {pass} over {} reports",
                reports.len()
            );
        }
        if pass == 0 {
            warm_fresh = tr.image_pool_stats().1;
        }
    }
    let (recycled, fresh) = tr.image_pool_stats();
    assert!(
        recycled > 0 && fresh == warm_fresh,
        "warm images must come from the pool \
         ({recycled} recycled, {fresh} fresh, {warm_fresh} at warm-up)"
    );
}

#[test]
fn inline_key_write_allocates_nothing_and_never_builds_from_the_pool() {
    // A 4 B value makes an 8 B slot image, carried inline: each of the N
    // replicas copies it, so neither the allocator nor the image pool sees
    // a Key-Write report at any redundancy once the output vector is warm.
    let mut svc = CollectorService::new(ServiceConfig::default());
    let mut tr = Translator::new(TranslatorConfig::default());
    let req = CmRequester::new(1, 0);
    let reply = svc.handle_cm(&req.request(SERVICE_KW));
    let (qp, params) = req.complete(&reply).expect("service enabled by default");
    tr.connect(SERVICE_KW, qp, params);

    let mut out = TranslatorOutput::default();
    for n in [2u8, 4, 8] {
        let reports: Vec<DtaReport> = (0..256u32)
            .map(|i| {
                DtaReport::key_write(i, TelemetryKey::from_u64(u64::from(i)), n, vec![i as u8; 4])
            })
            .collect();
        // Warm the output vector to this redundancy's packet count.
        tr.process_batch(0, &reports, &mut out);
        out.clear();
        let before = allocations();
        tr.process_batch(0, &reports, &mut out);
        let emitted = out.packets.len();
        out.clear();
        let allocated = allocations() - before;
        assert_eq!(emitted, 256 * usize::from(n));
        assert_eq!(allocated, 0, "N={n}: {allocated} allocations over 256 reports");
    }
    assert_eq!(tr.image_pool_stats(), (0, 0), "an inline slot image reached the pool");
}
