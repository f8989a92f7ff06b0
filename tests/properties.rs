//! Property-based tests over the core invariants (proptest).

use bytes::Bytes;
use dta::collector::layout::{AppendLayout, CmsLayout, KwLayout, PostcardLayout};
use dta::collector::append::DirectAppender;
use dta::collector::{
    AppendReader, KeyIncrementStore, KeyWriteStore, PostcardQueryOutcome, PostcardStore,
    QueryOutcome, QueryPolicy, ValueCodec,
};
use dta::core::framing::UdpPacket;
use dta::core::{DtaReport, FlowTuple, TelemetryKey};
use dta::rdma::mr::{MemoryRegion, MrAccess};
use dta::rdma::packet::{Reth, RocePacket};
use proptest::prelude::*;

fn arb_flow() -> impl Strategy<Value = FlowTuple> {
    (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), any::<u8>()).prop_map(
        |(s, d, sp, dp, proto)| FlowTuple {
            src_ip: s,
            dst_ip: d,
            src_port: sp,
            dst_port: dp,
            proto,
        },
    )
}

fn arb_key() -> impl Strategy<Value = TelemetryKey> {
    prop_oneof![
        any::<u64>().prop_map(TelemetryKey::from_u64),
        arb_flow().prop_map(|f| TelemetryKey::flow(&f)),
        any::<u32>().prop_map(TelemetryKey::src_ip),
    ]
}

proptest! {
    #[test]
    fn flow_tuple_roundtrips(f in arb_flow()) {
        prop_assert_eq!(FlowTuple::decode(&f.encode()), f);
    }

    #[test]
    fn dta_report_wire_roundtrips(
        key in arb_key(),
        redundancy in 1u8..=8,
        seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..=64),
    ) {
        let r = DtaReport::key_write(seq, key, redundancy, payload);
        let wire = r.encode().unwrap();
        prop_assert_eq!(DtaReport::decode(wire).unwrap(), r);
    }

    #[test]
    fn append_report_roundtrips(
        list in any::<u32>(),
        seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..=64),
    ) {
        let r = DtaReport::append(seq, list, payload);
        prop_assert_eq!(DtaReport::decode(r.encode().unwrap()).unwrap(), r);
    }

    #[test]
    fn roce_write_roundtrips(
        va in any::<u64>(),
        rkey in any::<u32>(),
        dest_qp in 0u32..=0xFF_FFFF,
        psn in 0u32..=0xFF_FFFF,
        payload in proptest::collection::vec(any::<u8>(), 0..=256),
    ) {
        let p = RocePacket::write(
            dest_qp,
            psn,
            Reth { va, rkey, dma_len: payload.len() as u32 },
            Bytes::from(payload),
        );
        prop_assert_eq!(RocePacket::decode(p.encode()).unwrap(), p);
    }

    #[test]
    fn udp_framing_roundtrips(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..=512),
    ) {
        let p = UdpPacket::frame(src, sport, dst, dport, Bytes::from(payload));
        prop_assert_eq!(UdpPacket::decode(p.encode()).unwrap(), p);
    }

    /// Serialize -> parse -> re-serialize is bit-exact, ICRC trailer
    /// included, and the parse is zero-copy: the decoded payload borrows
    /// the wire buffer rather than copying out of it.
    #[test]
    fn roce_serialize_parse_roundtrips_bit_exactly(
        va in any::<u64>(),
        rkey in any::<u32>(),
        dest_qp in 0u32..=0xFF_FFFF,
        psn in 0u32..=0xFF_FFFF,
        imm in any::<u32>(),
        solicited_imm in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 1..=256),
    ) {
        let reth = Reth { va, rkey, dma_len: payload.len() as u32 };
        let p = if solicited_imm {
            RocePacket::write_imm(dest_qp, psn, reth, imm, Bytes::from(payload))
        } else {
            RocePacket::write(dest_qp, psn, reth, Bytes::from(payload))
        };
        let wire = p.encode();
        let parsed = RocePacket::decode(wire.clone()).unwrap();
        // Bit-exact re-encode (covers every header field and the ICRC).
        let rewire = parsed.encode();
        prop_assert_eq!(&wire[..], &rewire[..]);
        // Zero-copy parse: the payload view points into the wire buffer.
        let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        prop_assert!(
            wire_range.contains(&(parsed.payload.as_ptr() as usize)),
            "decoded payload was copied out of the wire buffer"
        );
    }

    #[test]
    fn corrupting_any_roce_byte_is_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..=64),
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let p = RocePacket::write(
            1, 2,
            Reth { va: 0x1000, rkey: 7, dma_len: payload.len() as u32 },
            Bytes::from(payload),
        );
        let wire = p.encode();
        let idx = byte_idx.index(wire.len());
        let mut corrupted = wire.to_vec();
        corrupted[idx] ^= 1 << bit;
        // Either the ICRC rejects it, or decode structurally fails; it must
        // never decode into the original packet unchanged.
        if let Ok(decoded) = RocePacket::decode(Bytes::from(corrupted)) { prop_assert_ne!(decoded, p) }
    }

    #[test]
    fn kw_store_reads_back_what_it_wrote(
        keys in proptest::collection::hash_set(any::<u64>(), 1..=40),
        redundancy in 1usize..=4,
    ) {
        let layout = KwLayout { base_va: 0, slots: 1 << 14, value_bytes: 8 };
        let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
        let store = KeyWriteStore::new(layout, region, 4);
        let keys: Vec<u64> = keys.into_iter().collect();
        for &k in &keys {
            store.insert_direct(&TelemetryKey::from_u64(k), &k.to_be_bytes(), redundancy);
        }
        // The store may lose a key whose every slot was overwritten by a
        // later key (that is its probabilistic contract), but it must never
        // return a *wrong* value — the 32-bit checksum guards that.
        let mut found = 0usize;
        for &k in &keys {
            match store.query(&TelemetryKey::from_u64(k), redundancy, QueryPolicy::Plurality) {
                QueryOutcome::Found(v) => {
                    prop_assert_eq!(v, k.to_be_bytes().to_vec(), "wrong value for key {}", k);
                    found += 1;
                }
                QueryOutcome::NotFound | QueryOutcome::Ambiguous => {}
            }
        }
        // At <=0.25% load, losing more than a couple of keys would mean the
        // slot addressing is broken rather than unlucky.
        prop_assert!(keys.len() - found <= 2, "lost {} of {} keys", keys.len() - found, keys.len());
    }

    #[test]
    fn postcard_store_roundtrips_any_path(
        key in any::<u64>(),
        path in proptest::collection::vec(0u32..(1 << 12), 0..=5),
    ) {
        let layout = PostcardLayout { base_va: 0, chunks: 1 << 10, hops: 5, slot_bits: 32 };
        let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
        let store = PostcardStore::new(layout, region, ValueCodec::switch_ids(1 << 12, 32), 2);
        let k = TelemetryKey::from_u64(key);
        store.insert_direct(&k, &path, 2);
        prop_assert_eq!(store.query(&k, 2), PostcardQueryOutcome::Found(path));
    }

    #[test]
    fn append_is_fifo_for_any_entry_sequence(
        entries in proptest::collection::vec(any::<u32>(), 1..=64),
    ) {
        let layout = AppendLayout { base_va: 0, lists: 1, entries_per_list: 128, entry_bytes: 4 };
        let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
        let mut writer = DirectAppender::new(layout, region.clone());
        let mut reader = AppendReader::new(layout, region);
        for e in &entries {
            writer.append(0, &e.to_be_bytes());
        }
        for e in &entries {
            prop_assert_eq!(reader.poll(0), e.to_be_bytes().to_vec());
        }
    }

    #[test]
    fn count_min_never_underestimates(
        increments in proptest::collection::vec((0u64..32, 1u64..100), 1..=100),
    ) {
        let layout = CmsLayout { base_va: 0, slots: 64 };
        let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::ATOMIC);
        let store = KeyIncrementStore::new(layout, region, 2);
        let mut truth = std::collections::BTreeMap::new();
        for (key, delta) in &increments {
            store.increment_direct(&TelemetryKey::from_u64(*key), *delta, 2);
            *truth.entry(*key).or_insert(0u64) += delta;
        }
        for (key, total) in truth {
            prop_assert!(store.query(&TelemetryKey::from_u64(key), 2) >= total);
        }
    }

    #[test]
    fn kw_bounds_monotone_in_alpha(
        n in 1u32..=8,
        a in 0.0f64..2.0,
        b in 0.0f64..2.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let e_lo = dta::analysis::kw_empty_return_bound(n, 32, lo);
        let e_hi = dta::analysis::kw_empty_return_bound(n, 32, hi);
        prop_assert!(e_lo <= e_hi + 1e-12, "empty bound not monotone: {} > {}", e_lo, e_hi);
    }

    #[test]
    fn slot_addresses_always_in_region(
        key in arb_key(),
        slots in 1u64..(1 << 20),
        n in 1usize..=8,
    ) {
        let fam = dta::hash::HashFamily::new(8);
        let layout = KwLayout { base_va: 0x5000, slots, value_bytes: 4 };
        let va = layout.slot_va(&fam, n - 1, &key);
        prop_assert!(va >= layout.base_va);
        prop_assert!(va + 8 <= layout.base_va + layout.region_len());
    }
}
