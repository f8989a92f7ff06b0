//! The responder is total under lying fields.
//!
//! Every packet here survives the wire codec — it decodes, its ICRC holds —
//! but its fields lie: addresses outside every region or a few bytes around
//! a region's end, DMA lengths that have nothing to do with the payload,
//! rkeys of other services, PSNs skipped and repeated, continuations with
//! no FIRST. A collector NIC faces the network, so whatever arrives must
//! end as a counted outcome: no panic, and no byte written outside the
//! in-range span a packet addressed.

use bytes::Bytes;
use dta_collector::service::{
    CollectorService, ServiceConfig, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta_rdma::cm::{CmRequester, ConnectionParams};
use dta_rdma::nic::RxOutcome;
use dta_rdma::packet::{AtomicEth, Bth, ImmDt, Opcode, Reth, RocePacket};

const PACKETS: usize = 200_000;
const PSN_MASK: u32 = 0x00FF_FFFF;

const OPCODES: [Opcode; 12] = [
    Opcode::WriteFirst,
    Opcode::WriteMiddle,
    Opcode::WriteLast,
    Opcode::SendOnly,
    Opcode::SendOnlyImm,
    Opcode::WriteOnly,
    Opcode::WriteOnlyImm,
    Opcode::ReadRequest,
    Opcode::ReadResponseOnly,
    Opcode::Ack,
    Opcode::AtomicAck,
    Opcode::FetchAdd,
];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What the test knows of one region: its advertised geometry, which bytes
/// some packet addressed in range, and the open segmented write of the QP
/// connected to it (rkey, next va, bytes left) as RETH semantics define it.
struct Target {
    params: ConnectionParams,
    addressed: Vec<bool>,
    cursor: Option<(u32, u64, u32)>,
}

/// Mark `[va, va + len)` of the region `rkey` names, when it names one and
/// the span lies inside it.
fn address(targets: &mut [Target], rkey: u32, va: u64, len: u64) {
    let Some(t) = targets.iter_mut().find(|t| t.params.rkey == rkey) else { return };
    let base = t.params.base_va;
    let in_range =
        va >= base && va.checked_add(len).is_some_and(|end| end <= base + t.params.region_len);
    if in_range {
        let off = (va - base) as usize;
        t.addressed[off..off + len as usize].fill(true);
    }
}

#[test]
fn lying_packets_end_as_counted_outcomes_and_write_only_where_they_point() {
    let mut svc = CollectorService::new(ServiceConfig::default());
    let mut targets: Vec<Target> = [SERVICE_KW, SERVICE_POSTCARD, SERVICE_APPEND, SERVICE_CMS]
        .into_iter()
        .enumerate()
        .map(|(i, service)| {
            let req = CmRequester::new(0x100 + i as u32, 0);
            let reply = svc.handle_cm(&req.request(service));
            let (_, params) = req.complete(&reply).expect("default services accept");
            Target { params, addressed: vec![false; params.region_len as usize], cursor: None }
        })
        .collect();

    let mut rng = SplitMix64(0xD7A_11E5);
    let (mut executed, mut naks, mut dups, mut errors) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..PACKETS {
        let qp = rng.below(targets.len() as u64) as usize;
        let qpn = targets[qp].params.qpn;
        let opcode = OPCODES[rng.below(OPCODES.len() as u64) as usize];
        let payload: Vec<u8> = (0..rng.below(96)).map(|_| rng.next() as u8 | 0x80).collect();

        // The region the address is drawn around: mostly the QP's own, else
        // another service's; the rkey may name either or nothing.
        let around = if rng.below(4) == 0 { rng.below(4) as usize } else { qp };
        let rkey = match rng.below(8) {
            0 => rng.next() as u32,
            1 => targets[rng.below(4) as usize].params.rkey,
            _ => targets[around].params.rkey,
        };
        let (base, len) = (targets[around].params.base_va, targets[around].params.region_len);
        let va = match rng.below(8) {
            0 => rng.next(),
            1 | 2 => base + len - 16 + rng.below(33),
            3 => u64::MAX - rng.below(64),
            // Eight-byte granules, so FETCH_ADDs land too.
            _ => base + rng.below(len / 8) * 8,
        };
        let dma_len = match rng.below(6) {
            0 => rng.next() as u32,
            1 => 0,
            2 => u32::MAX,
            3 => rng.below(128) as u32,
            _ => payload.len() as u32,
        };
        // Every in-order arrival, and only one, advances the expected PSN.
        let expected = svc.nic.qp(qpn).expect("connected").accepted as u32 & PSN_MASK;
        let psn = match rng.below(10) {
            0 => expected.wrapping_add(1 + rng.below(5) as u32) & PSN_MASK,
            1 => expected.wrapping_sub(1 + rng.below(5) as u32) & PSN_MASK,
            _ => expected,
        };

        let built = RocePacket {
            bth: Bth {
                opcode,
                solicited: rng.below(2) == 0,
                pkey: 0xFFFF,
                dest_qp: qpn,
                ack_req: rng.below(2) == 0,
                psn,
            },
            reth: matches!(
                opcode,
                Opcode::WriteFirst | Opcode::WriteOnly | Opcode::WriteOnlyImm | Opcode::ReadRequest
            )
            .then_some(Reth { va, rkey, dma_len }),
            atomic: (opcode == Opcode::FetchAdd)
                .then_some(AtomicEth { va, rkey, swap_add: rng.next() | 1, compare: 0 }),
            imm: matches!(opcode, Opcode::SendOnlyImm | Opcode::WriteOnlyImm)
                .then_some(ImmDt(rng.next() as u32)),
            payload: Bytes::from(payload),
        };
        let pkt = RocePacket::decode(built.encode()).expect("structurally valid");
        let outcome = svc.nic_ingress(&pkt);

        let n = pkt.payload.len() as u64;
        if psn == expected {
            match opcode {
                Opcode::WriteOnly | Opcode::WriteOnlyImm => address(&mut targets, rkey, va, n),
                Opcode::WriteFirst if n <= u64::from(dma_len) => {
                    address(&mut targets, rkey, va, n);
                    if matches!(outcome, RxOutcome::Executed(_)) {
                        targets[qp].cursor = Some((rkey, va + n, dma_len - n as u32));
                    }
                }
                Opcode::WriteFirst => targets[qp].cursor = None,
                Opcode::WriteMiddle | Opcode::WriteLast => {
                    if let Some((rkey, at, left)) = targets[qp].cursor.take() {
                        if n <= u64::from(left) {
                            address(&mut targets, rkey, at, n);
                            let left = left - n as u32;
                            if opcode == Opcode::WriteMiddle && left > 0 {
                                targets[qp].cursor = Some((rkey, at + n, left));
                            }
                        }
                    }
                }
                Opcode::FetchAdd => address(&mut targets, rkey, va, 8),
                _ => {}
            }
        }
        match outcome {
            RxOutcome::Executed(_) => executed += 1,
            RxOutcome::Nak(_) => naks += 1,
            RxOutcome::DuplicateDropped => dups += 1,
            RxOutcome::Error(_) => errors += 1,
        }
        assert_eq!(psn == expected, matches!(outcome, RxOutcome::Executed(_) | RxOutcome::Error(_)));
    }

    // Every class of outcome was exercised, in bulk.
    for (what, count) in [("executed", executed), ("naks", naks), ("dups", dups), ("errors", errors)]
    {
        assert!(count > PACKETS as u64 / 50, "{what}: only {count} of {PACKETS}");
    }
    for t in &targets {
        let region = svc.nic.memory.lookup(t.params.rkey).expect("registered");
        let image = region.snapshot();
        assert!(image.iter().any(|b| *b != 0), "service {}: nothing landed", t.params.service);
        let stray = image.iter().zip(&t.addressed).position(|(byte, addressed)| *byte != 0 && !addressed);
        assert_eq!(stray, None, "service {}: byte written outside every addressed span", t.params.service);
    }
}
