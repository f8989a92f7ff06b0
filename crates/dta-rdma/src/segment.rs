//! MTU segmentation for RDMA WRITEs.
//!
//! RoCE RC segments messages larger than the path MTU into WRITE FIRST /
//! MIDDLE / LAST packets; only the FIRST carries the RETH, and the
//! responder advances a per-QP cursor. DTA's per-report writes are tiny,
//! but large Append batches (e.g., 64 × 64 B) exceed a 1024 B MTU and take
//! this path.

use bytes::Bytes;

use crate::packet::{Bth, Opcode, Reth, RocePacket};
use crate::qp::QueuePair;

/// 1024-byte path MTU (the common RoCE default).
pub const MTU_1024: usize = 1024;

/// Segment a WRITE of `payload` to `(rkey, va)` into MTU-sized packets on
/// `qp`. Returns a single WRITE-Only when the payload fits in one MTU.
///
/// # Panics
/// Panics if `mtu` is zero or the payload is empty.
pub fn segment_write(
    qp: &mut QueuePair,
    rkey: u32,
    va: u64,
    payload: Bytes,
    mtu: usize,
) -> Vec<RocePacket> {
    assert!(mtu > 0, "MTU must be positive");
    assert!(!payload.is_empty(), "empty writes are not segmented");
    let dest_qp = qp.dest_qpn;
    let total = payload.len();
    if total <= mtu {
        let psn = qp.next_send_psn();
        return vec![RocePacket::write(
            dest_qp,
            psn,
            Reth { va, rkey, dma_len: total as u32 },
            payload,
        )];
    }
    let mut out = Vec::with_capacity(total.div_ceil(mtu));
    let mut off = 0usize;
    while off < total {
        let end = (off + mtu).min(total);
        let chunk = payload.slice(off..end);
        let opcode = if off == 0 {
            Opcode::WriteFirst
        } else if end == total {
            Opcode::WriteLast
        } else {
            Opcode::WriteMiddle
        };
        let psn = qp.next_send_psn();
        out.push(RocePacket {
            bth: Bth {
                opcode,
                solicited: false,
                pkey: 0xFFFF,
                dest_qp,
                ack_req: end == total,
                psn,
            },
            reth: (off == 0).then_some(Reth { va, rkey, dma_len: total as u32 }),
            atomic: None,
            imm: None,
            payload: chunk,
        });
        off = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::{MemoryRegion, MrAccess};
    use crate::nic::{NicConfig, NicError, RdmaNic, RxOutcome};

    fn setup() -> (RdmaNic, QueuePair) {
        let mut nic = RdmaNic::new(NicConfig::bluefield2());
        nic.memory.register(MemoryRegion::new(0, 1 << 16, 0xDD, MrAccess::WRITE));
        let mut responder = QueuePair::new(2);
        responder.to_rtr(1, 0);
        responder.to_rts(0);
        nic.add_qp(responder);
        let mut requester = QueuePair::new(1);
        requester.to_rtr(2, 0);
        requester.to_rts(0);
        (nic, requester)
    }

    #[test]
    fn small_write_is_single_packet() {
        let (_, mut qp) = setup();
        let pkts = segment_write(&mut qp, 0xDD, 0, Bytes::from(vec![1u8; 100]), MTU_1024);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].bth.opcode, Opcode::WriteOnly);
    }

    #[test]
    fn large_write_segments_and_reassembles() {
        let (mut nic, mut qp) = setup();
        let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        let pkts = segment_write(&mut qp, 0xDD, 0x100, Bytes::from(data.clone()), MTU_1024);
        assert_eq!(pkts.len(), 4);
        assert_eq!(pkts[0].bth.opcode, Opcode::WriteFirst);
        assert_eq!(pkts[1].bth.opcode, Opcode::WriteMiddle);
        assert_eq!(pkts[2].bth.opcode, Opcode::WriteMiddle);
        assert_eq!(pkts[3].bth.opcode, Opcode::WriteLast);
        assert!(pkts[0].reth.is_some());
        assert!(pkts[1].reth.is_none());
        for p in &pkts {
            assert!(matches!(nic.ingress(p), RxOutcome::Executed(_)));
        }
        let mem = nic.memory.lookup(0xDD).unwrap();
        assert_eq!(mem.peek(0x100, 4096).unwrap(), data);
    }

    #[test]
    fn uneven_tail_segment_handled() {
        let (mut nic, mut qp) = setup();
        let data = vec![7u8; 2500];
        let pkts = segment_write(&mut qp, 0xDD, 0, Bytes::from(data.clone()), MTU_1024);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[2].payload.len(), 452);
        for p in &pkts {
            assert!(matches!(nic.ingress(p), RxOutcome::Executed(_)));
        }
        assert_eq!(nic.memory.lookup(0xDD).unwrap().peek(0, 2500).unwrap(), data);
    }

    #[test]
    fn lost_middle_segment_naks_the_rest() {
        let (mut nic, mut qp) = setup();
        let pkts = segment_write(&mut qp, 0xDD, 0, Bytes::from(vec![1u8; 3000]), MTU_1024);
        assert!(matches!(nic.ingress(&pkts[0]), RxOutcome::Executed(_)));
        // Drop pkts[1]; pkts[2] has a PSN gap and must be NAKed, leaving the
        // write incomplete rather than corrupt.
        assert!(matches!(nic.ingress(&pkts[2]), RxOutcome::Nak(_)));
    }

    #[test]
    fn continuation_without_first_is_malformed() {
        let (mut nic, mut qp) = setup();
        let pkts = segment_write(&mut qp, 0xDD, 0, Bytes::from(vec![1u8; 3000]), MTU_1024);
        // Deliver only the middle: PSN 0 is expected but opcode is a
        // continuation with no in-progress state.
        let mut middle = pkts[1].clone();
        middle.bth.psn = 0;
        assert!(matches!(
            nic.ingress(&middle),
            RxOutcome::Error(NicError::Malformed)
        ));
    }

    #[test]
    fn interleaved_qps_keep_separate_cursors() {
        let mut nic = RdmaNic::new(NicConfig::bluefield2());
        nic.memory.register(MemoryRegion::new(0, 1 << 16, 0xDD, MrAccess::WRITE));
        for qpn in [10u32, 20] {
            let mut r = QueuePair::new(qpn);
            r.to_rtr(qpn + 100, 0);
            r.to_rts(0);
            nic.add_qp(r);
        }
        let mut qa = QueuePair::new(110);
        qa.to_rtr(10, 0);
        qa.to_rts(0);
        let mut qb = QueuePair::new(120);
        qb.to_rtr(20, 0);
        qb.to_rts(0);
        let a = segment_write(&mut qa, 0xDD, 0, Bytes::from(vec![0xAA; 2048]), MTU_1024);
        let b = segment_write(&mut qb, 0xDD, 0x800, Bytes::from(vec![0xBB; 2048]), MTU_1024);
        // Interleave the two QPs' segments.
        for p in [&a[0], &b[0], &a[1], &b[1]] {
            assert!(matches!(nic.ingress(p), RxOutcome::Executed(_)));
        }
        let mem = nic.memory.lookup(0xDD).unwrap();
        assert_eq!(mem.peek(0, 2048).unwrap(), vec![0xAA; 2048]);
        assert_eq!(mem.peek(0x800, 2048).unwrap(), vec![0xBB; 2048]);
    }

    #[test]
    fn overrun_beyond_reth_length_rejected() {
        let (mut nic, mut qp) = setup();
        let pkts = segment_write(&mut qp, 0xDD, 0, Bytes::from(vec![1u8; 2048]), MTU_1024);
        assert!(matches!(nic.ingress(&pkts[0]), RxOutcome::Executed(_)));
        // Tamper: grow the last segment beyond the announced dma_len.
        let mut last = pkts[1].clone();
        last.payload = Bytes::from(vec![9u8; 1500]);
        assert!(matches!(
            nic.ingress(&last),
            RxOutcome::Error(NicError::Malformed)
        ));
    }
}
