//! Transport-level property tests: PSN discipline, codec roundtrips, and
//! requester/responder stream behaviour under loss and duplication.

use bytes::Bytes;
use dta_rdma::mr::{MemoryRegion, MrAccess};
use dta_rdma::nic::{NicConfig, RdmaNic, RxOutcome};
use dta_rdma::packet::{Reth, RocePacket};
use dta_rdma::qp::QueuePair;
use dta_rdma::verbs::RdmaOp;
use proptest::prelude::*;

fn connected_nic() -> (RdmaNic, QueuePair) {
    let mut nic = RdmaNic::new(NicConfig::bluefield2());
    nic.memory.register(MemoryRegion::new(0, 1 << 16, 0xCC, MrAccess::ATOMIC));
    let mut responder = QueuePair::new(0x200);
    responder.to_rtr(0x100, 0);
    responder.to_rts(0);
    nic.add_qp(responder);
    let mut requester = QueuePair::new(0x100);
    requester.to_rtr(0x200, 0);
    requester.to_rts(0);
    (nic, requester)
}

proptest! {
    /// Any subset of a PSN stream delivered in order executes a prefix-
    /// consistent set: once a gap appears, everything after is NAKed until
    /// resync.
    #[test]
    fn psn_stream_with_losses_never_executes_out_of_order(
        deliver in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let (mut nic, mut requester) = connected_nic();
        let mut resynced = true;
        let mut executed = 0u64;
        for (i, keep) in deliver.iter().enumerate() {
            let op = RdmaOp::Write {
                rkey: 0xCC,
                va: (i as u64 % 1024) * 8,
                data: Bytes::from(vec![i as u8; 8]),
            };
            let pkt = op.into_packet(&mut requester);
            if !keep {
                resynced = false; // dropped in flight
                continue;
            }
            match nic.ingress(&pkt) {
                RxOutcome::Executed(_) => {
                    prop_assert!(resynced, "executed across an unrepaired gap");
                    executed += 1;
                }
                RxOutcome::Nak(nak) => {
                    // Requester resynchronizes to the responder's expected
                    // PSN, unless it counts this NAK as a stale repeat (then
                    // the gap stays open until a later NAK rewinds).
                    resynced = requester.resync_send(nak.bth.psn);
                }
                other => prop_assert!(false, "unexpected outcome {:?}", other),
            }
        }
        prop_assert_eq!(nic.stats.executed, executed);
    }

    /// Replaying any delivered packet is always detected as a duplicate.
    #[test]
    fn duplicates_always_detected(count in 1usize..50, replay_at in any::<prop::sample::Index>()) {
        let (mut nic, mut requester) = connected_nic();
        let mut packets = Vec::new();
        for i in 0..count {
            let op = RdmaOp::Write { rkey: 0xCC, va: 0, data: Bytes::from(vec![i as u8; 4]) };
            let pkt = op.into_packet(&mut requester);
            prop_assert!(matches!(nic.ingress(&pkt), RxOutcome::Executed(_)));
            packets.push(pkt);
        }
        let replay = &packets[replay_at.index(packets.len())];
        prop_assert!(matches!(nic.ingress(replay), RxOutcome::DuplicateDropped));
    }

    /// FETCH_ADD streams accumulate exactly, regardless of addend pattern.
    #[test]
    fn fetch_add_stream_sums_exactly(
        addends in proptest::collection::vec(0u64..1_000_000, 1..64),
    ) {
        let (mut nic, mut requester) = connected_nic();
        for a in &addends {
            let pkt = RdmaOp::FetchAdd { rkey: 0xCC, va: 64, add: *a }.into_packet(&mut requester);
            prop_assert!(matches!(nic.ingress(&pkt), RxOutcome::Executed(_)));
        }
        let mem = nic.memory.lookup(0xCC).unwrap();
        let got = u64::from_be_bytes(mem.peek(64, 8).unwrap().try_into().unwrap());
        prop_assert_eq!(got, addends.iter().sum::<u64>());
    }

    /// Writes within bounds always land byte-exact; any write touching
    /// beyond the region is rejected without side effects.
    #[test]
    fn bounds_are_exact(va in 0u64..(1 << 16) + 64, len in 1usize..64) {
        let (mut nic, mut requester) = connected_nic();
        let data = vec![0xEE; len];
        let pkt = RocePacket::write(
            0x200,
            requester.next_send_psn(),
            Reth { va, rkey: 0xCC, dma_len: len as u32 },
            Bytes::from(data.clone()),
        );
        let in_bounds = va + len as u64 <= (1 << 16);
        match nic.ingress(&pkt) {
            RxOutcome::Executed(_) => {
                prop_assert!(in_bounds);
                let mem = nic.memory.lookup(0xCC).unwrap();
                prop_assert_eq!(mem.peek(va, len).unwrap(), data);
            }
            RxOutcome::Error(_) => prop_assert!(!in_bounds),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }
}
