//! The three frame decoders are total, and accept and reject exactly what
//! they always did.
//!
//! One framed DTA report of each primitive and one RoCE frame of each verb
//! the wire carries (WRITE, WRITE_IMM, FETCH_ADD, READ, ACK, NAK) are cut
//! at every length and have every single byte replaced with a seeded value.
//! Each variant goes through `UdpPacket::decode`, then `DtaReport::decode`
//! or `RocePacket::decode`; the transport PDUs are also cut and mutated on
//! their own, with the RoCE ICRC re-sealed so that the header parsers
//! behind it see the damage instead of the checksum. Nothing may panic,
//! and the `Debug` form of every outcome — value or error — is folded into
//! one FNV-1a digest pinned from the decoders as they were before they
//! read their headers from one slice: a decoder rewrite that accepts one
//! more frame, rejects one fewer, or reports a different error moves it.

use bytes::Bytes;
use dta_core::framing::UdpPacket;
use dta_core::{DtaReport, TelemetryKey, DTA_UDP_PORT};
use dta_hash::{Crc32, CrcParams};
use dta_rdma::packet::{Reth, RocePacket, ROCE_UDP_PORT};

const SEED: u64 = 0x5EED_F4A3_E0DE_0001;
const SRC_IP: u32 = 0x0A00_0001;
const DST_IP: u32 = 0x0A00_0009;

/// The outcomes of the seeded run, folded in order. Re-pin only with a
/// deliberate change to what the decoders accept or how they report it.
const DIGEST: u64 = 0x27ed_cbf4_688d_6c92;
/// How many outcomes the digest folds.
const OUTCOMES: u64 = 2691;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a over every outcome's `Debug` form, one line each.
struct Digest {
    hash: u64,
    outcomes: u64,
}

impl Digest {
    fn fold(&mut self, outcome: &dyn std::fmt::Debug) {
        for b in format!("{outcome:?}\n").bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.outcomes += 1;
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Dta,
    Roce,
}

/// The inner decoder of `kind` over a UDP payload.
fn decode_pdu(kind: Kind, pdu: Bytes, digest: &mut Digest) {
    match kind {
        Kind::Dta => digest.fold(&DtaReport::decode(pdu)),
        Kind::Roce => digest.fold(&RocePacket::decode(pdu)),
    }
}

/// Both layers over one frame, as a receiving node runs them.
fn decode_frame(kind: Kind, frame: Bytes, digest: &mut Digest) {
    match UdpPacket::decode(frame) {
        Ok(udp) => {
            digest.fold(&(udp.eth, udp.ip, udp.udp));
            decode_pdu(kind, udp.payload, digest);
        }
        Err(e) => digest.fold(&e),
    }
}

/// `body` followed by its ICRC: what the RoCE decoder accepts past the
/// checksum whatever the body says.
fn sealed(crc: &Crc32, body: &[u8]) -> Bytes {
    let mut pdu = body.to_vec();
    pdu.extend_from_slice(&crc.compute(body).to_be_bytes());
    Bytes::from(pdu)
}

fn inputs() -> Vec<(Kind, Bytes)> {
    let key = TelemetryKey::from_u64(0x0123_4567_89AB_CDEF);
    let reports = [
        DtaReport::key_write(7, key, 2, vec![0xA5; 4]),
        DtaReport::append(8, 3, vec![0x5A; 18]),
        DtaReport::key_increment(9, key, 3, 0x1122_3344_5566),
        DtaReport::postcard(10, key, 1, 5, 0xDEAD_BEEF),
    ];
    let reth = Reth { va: 0x1_0000_0040, rkey: 0xAB, dma_len: 8 };
    let image = Bytes::from_static(&[1, 2, 3, 4, 5, 6, 7, 8]);
    let verbs = [
        RocePacket::write(0x11, 100, reth, image.clone()),
        RocePacket::write_imm(0x12, 101, reth, 0xCAFE, image),
        RocePacket::fetch_add(0x13, 102, 0x1_0000_0080, 0xAC, 42),
        RocePacket::read_request(0x14, 103, reth),
        RocePacket::ack(0x15, 104),
        RocePacket::nak(0x16, 105),
    ];
    let frame = |src_port, dst_port, pdu| {
        UdpPacket::frame(SRC_IP, src_port, DST_IP, dst_port, pdu).encode()
    };
    let dta = reports.iter().map(|r| {
        (Kind::Dta, frame(5555, DTA_UDP_PORT, r.encode().expect("report within payload bound")))
    });
    let roce = verbs.iter().map(|p| (Kind::Roce, frame(ROCE_UDP_PORT, ROCE_UDP_PORT, p.encode())));
    dta.chain(roce).collect()
}

#[test]
fn cut_and_mutated_frames_decode_to_the_pinned_outcomes() {
    let crc = Crc32::new(CrcParams::IEEE);
    let mut rng = SplitMix64(SEED);
    let mut digest = Digest { hash: 0xCBF2_9CE4_8422_2325, outcomes: 0 };
    for (kind, frame) in inputs() {
        // The clean frame decodes through both layers.
        let udp = UdpPacket::decode(frame.clone()).expect("clean frame");
        match kind {
            Kind::Dta => assert!(DtaReport::decode(udp.payload.clone()).is_ok()),
            Kind::Roce => assert!(RocePacket::decode(udp.payload.clone()).is_ok()),
        }
        let pdu = udp.payload;
        for len in 0..=frame.len() {
            decode_frame(kind, frame.slice(..len), &mut digest);
        }
        for i in 0..frame.len() {
            let mut bytes = frame.to_vec();
            bytes[i] = rng.next() as u8;
            decode_frame(kind, Bytes::from(bytes), &mut digest);
        }
        for len in 0..=pdu.len() {
            decode_pdu(kind, pdu.slice(..len), &mut digest);
        }
        if let Kind::Roce = kind {
            // Past a re-sealed ICRC, every cut and every byte of the body
            // reaches the header parsers.
            let body = &pdu[..pdu.len() - 4];
            for len in 0..=body.len() {
                decode_pdu(kind, sealed(&crc, &body[..len]), &mut digest);
            }
            for i in 0..body.len() {
                let mut bytes = body.to_vec();
                bytes[i] = rng.next() as u8;
                decode_pdu(kind, sealed(&crc, &bytes), &mut digest);
            }
        }
    }
    assert_eq!(
        (digest.hash, digest.outcomes),
        (DIGEST, OUTCOMES),
        "decoder outcomes moved: digest {:#018x} over {} outcomes",
        digest.hash,
        digest.outcomes
    );
}
