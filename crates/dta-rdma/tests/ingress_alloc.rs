//! A warm RX burst costs the allocator nothing, responses included: with
//! an ACK due for every packet and a NAK for a skipped PSN, the ACKs and
//! the NAK travel by value into the caller's `responses`, so once that
//! vector has capacity a burst of WRITEs and FETCH_ADDs makes no heap
//! call.
//!
//! The counting allocator needs a test binary of its own, and counts per
//! thread, so whatever the test harness does on its other threads is not
//! charged to the NIC.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use dta_rdma::mr::{MemoryRegion, MrAccess};
use dta_rdma::nic::{NicConfig, RdmaNic};
use dta_rdma::packet::{Opcode, Reth, RocePacket};
use dta_rdma::qp::QueuePair;

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

const BASE: u64 = 0x10_0000;
const RKEY: u32 = 0xAB;
const QPN: u32 = 5;
const REQUESTER: u32 = 1;
/// In-sequence packets per burst; one more follows with a skipped PSN.
const IN_ORDER: u32 = 8;

/// One burst from `psn`: WRITEs with a FETCH_ADD among them, then a packet
/// one PSN past the next expected one, which the NIC NAKs.
fn burst(psn: u32) -> Vec<RocePacket> {
    let mut pkts: Vec<RocePacket> = (psn..psn + IN_ORDER)
        .map(|p| {
            let va = BASE + 64 * u64::from(p % 32);
            if p % 4 == 3 {
                RocePacket::fetch_add(QPN, p, va, RKEY, 1)
            } else {
                let reth = Reth { va, rkey: RKEY, dma_len: 4 };
                RocePacket::write(QPN, p, reth, Bytes::from_static(&[1, 2, 3, 4]))
            }
        })
        .collect();
    let reth = Reth { va: BASE, rkey: RKEY, dma_len: 4 };
    pkts.push(RocePacket::write(QPN, psn + IN_ORDER + 1, reth, Bytes::from_static(&[9; 4])));
    pkts
}

#[test]
fn warm_burst_with_acks_and_a_nak_allocates_nothing() {
    let mut nic = RdmaNic::new(NicConfig::bluefield2().with_ack_coalesce(1));
    nic.memory.register(MemoryRegion::new(BASE, 4096, RKEY, MrAccess::ATOMIC));
    let mut qp = QueuePair::new(QPN);
    qp.to_rtr(REQUESTER, 0);
    qp.to_rts(0);
    nic.add_qp(qp);

    // The skipped packet is NAKed and not executed, so each burst starts
    // at the PSN the previous one left expected.
    let bursts: Vec<Vec<RocePacket>> = (0..20).map(|i| burst(i * IN_ORDER)).collect();
    let mut responses = Vec::with_capacity(bursts[0].len());
    // Warm-up: the first burst touches whatever the NIC builds lazily.
    assert_eq!(nic.ingress_burst(&bursts[0], &mut responses), u64::from(IN_ORDER));
    responses.clear();

    let before = calls();
    for (i, pkts) in bursts.iter().enumerate().skip(1) {
        let executed = nic.ingress_burst(pkts, &mut responses);
        assert_eq!(executed, u64::from(IN_ORDER), "burst {i}");
        let acks = responses.iter().filter(|r| r.bth.opcode == Opcode::Ack && !r.is_nak());
        assert_eq!(acks.count(), IN_ORDER as usize, "burst {i}: one ACK per packet");
        let nak = responses.last().expect("a response");
        assert!(nak.is_nak() && nak.bth.psn == (i as u32 + 1) * IN_ORDER, "burst {i}: {nak:?}");
        responses.clear();
    }
    assert_eq!(calls() - before, 0, "a warm burst allocated");
    assert_eq!(nic.stats.naks, bursts.len() as u64);
}
