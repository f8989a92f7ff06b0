//! The collector service: stores + NIC + connection management.
//!
//! "The collector can host several primitives in parallel using unique
//! RDMA_CM ports, and advertise primitive-specific metadata to the
//! translator using RDMA-Send packets." (§5.3)

use dta_rdma::cm::{CmEvent, CmManager, ConnectionParams, ServiceId};
use dta_rdma::mr::{MemoryRegion, MrAccess};
use dta_rdma::nic::{NicConfig, RdmaNic, RxOutcome};
use dta_rdma::packet::RocePacket;

use crate::append::AppendReader;
use crate::cms::KeyIncrementStore;
use crate::engine::StoreQueryEngine;
use crate::keywrite::KeyWriteStore;
use crate::layout::{AppendLayout, CmsLayout, KwLayout, PostcardLayout};
use crate::postcarding::{PostcardStore, ValueCodec};

/// Well-known service ids (one CM port per primitive).
pub const SERVICE_KW: ServiceId = 1;
/// Postcarding service id.
pub const SERVICE_POSTCARD: ServiceId = 2;
/// Append service id.
pub const SERVICE_APPEND: ServiceId = 3;
/// Key-Increment service id.
pub const SERVICE_CMS: ServiceId = 4;

/// Region rkeys, one per primitive.
const RKEY_KW: u32 = 0x10;
const RKEY_POSTCARD: u32 = 0x20;
const RKEY_APPEND: u32 = 0x30;
const RKEY_CMS: u32 = 0x40;

/// Disjoint VA spaces per primitive region.
const VA_KW: u64 = 0x1_0000_0000;
const VA_POSTCARD: u64 = 0x2_0000_0000;
const VA_APPEND: u64 = 0x3_0000_0000;
const VA_CMS: u64 = 0x4_0000_0000;

/// Sizing of a collector instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// NIC model.
    pub nic: NicConfig,
    /// Key-Write store bytes (0 disables), and value width.
    pub kw_bytes: u64,
    /// Key-Write value width in bytes.
    pub kw_value_bytes: u32,
    /// Postcarding store bytes (0 disables).
    pub postcard_bytes: u64,
    /// Postcarding hop bound `B`.
    pub postcard_hops: u8,
    /// Postcarding slot width in bits.
    pub postcard_bits: u32,
    /// Size of the postcard value universe |V| (switch-id space).
    pub postcard_values: u32,
    /// Number of Append lists (0 disables).
    pub append_lists: u32,
    /// Entries per Append list.
    pub append_entries: u64,
    /// Append entry width in bytes.
    pub append_entry_bytes: u32,
    /// Key-Increment counters (0 disables).
    pub cms_slots: u64,
    /// Maximum redundancy the stores should support.
    pub max_redundancy: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        // A small-footprint instance suitable for tests; experiment
        // harnesses override sizes.
        ServiceConfig {
            nic: NicConfig::bluefield2(),
            kw_bytes: 1 << 20,
            kw_value_bytes: 4,
            postcard_bytes: 1 << 20,
            postcard_hops: 5,
            postcard_bits: 32,
            postcard_values: 1 << 12,
            append_lists: 16,
            append_entries: 4096,
            append_entry_bytes: 4,
            cms_slots: 1 << 16,
            max_redundancy: 4,
        }
    }
}

/// A running collector: NIC, registered stores, CM services.
#[derive(Debug)]
pub struct CollectorService {
    /// The RDMA NIC (feed RoCE packets to `nic_ingress`).
    pub nic: RdmaNic,
    cm: CmManager,
    /// Key-Write store, when enabled.
    pub keywrite: Option<KeyWriteStore>,
    /// Postcarding store, when enabled.
    pub postcarding: Option<PostcardStore>,
    /// Append reader, when enabled.
    pub append: Option<AppendReader>,
    /// Key-Increment store, when enabled.
    pub key_increment: Option<KeyIncrementStore>,
}

impl CollectorService {
    /// Build a collector from `config`: allocate regions, register them on
    /// the NIC, publish CM services.
    pub fn new(config: ServiceConfig) -> Self {
        let mut nic = RdmaNic::new(config.nic);
        let mut cm = CmManager::new();
        // One primitive's region: allocated, registered on the NIC, and
        // advertised under its CM service.
        let mut host = |service, rkey, access, base_va, region_len: u64, slots, slot_bytes| {
            let region = MemoryRegion::new(base_va, region_len as usize, rkey, access);
            nic.memory.register(region.clone());
            cm.publish(ConnectionParams {
                service,
                qpn: 0,
                start_psn: 0,
                rkey,
                base_va,
                region_len,
                slots,
                slot_bytes,
            });
            region
        };

        let keywrite = (config.kw_bytes > 0).then(|| {
            let layout = KwLayout::with_capacity(VA_KW, config.kw_bytes, config.kw_value_bytes);
            let region = host(
                SERVICE_KW,
                RKEY_KW,
                MrAccess::WRITE,
                layout.base_va,
                layout.region_len(),
                layout.slots,
                layout.slot_bytes(),
            );
            KeyWriteStore::new(layout, region, config.max_redundancy)
        });

        let postcarding = (config.postcard_bytes > 0).then(|| {
            let layout = PostcardLayout::with_capacity(
                VA_POSTCARD,
                config.postcard_bytes,
                config.postcard_hops,
                config.postcard_bits,
            );
            let region = host(
                SERVICE_POSTCARD,
                RKEY_POSTCARD,
                MrAccess::WRITE,
                layout.base_va,
                layout.region_len(),
                layout.chunks,
                layout.chunk_stride() as u32,
            );
            let codec = ValueCodec::switch_ids(config.postcard_values, config.postcard_bits);
            PostcardStore::new(layout, region, codec, config.max_redundancy)
        });

        let append = (config.append_lists > 0).then(|| {
            let layout = AppendLayout {
                base_va: VA_APPEND,
                lists: config.append_lists,
                entries_per_list: config.append_entries,
                entry_bytes: config.append_entry_bytes,
            };
            let region = host(
                SERVICE_APPEND,
                RKEY_APPEND,
                MrAccess::WRITE,
                layout.base_va,
                layout.region_len(),
                layout.entries_per_list,
                layout.entry_bytes,
            );
            AppendReader::new(layout, region)
        });

        let key_increment = (config.cms_slots > 0).then(|| {
            let layout = CmsLayout { base_va: VA_CMS, slots: config.cms_slots };
            let region = host(
                SERVICE_CMS,
                RKEY_CMS,
                MrAccess::ATOMIC,
                layout.base_va,
                layout.region_len(),
                layout.slots,
                CmsLayout::SLOT_BYTES,
            );
            KeyIncrementStore::new(layout, region, config.max_redundancy)
        });

        CollectorService { nic, cm, keywrite, postcarding, append, key_increment }
    }

    /// Handle a CM request: install the connection's own responder QP on
    /// accept and return the reply for the requester. Connections to one
    /// service do not share sequence state, so control-plane channels
    /// (e.g. a rebalance migration channel reading and zeroing region
    /// slots) connect beside live service traffic the same way.
    pub fn handle_cm(&mut self, event: &CmEvent) -> CmEvent {
        let (reply, qp) = self.cm.handle(event);
        if let Some(qp) = qp {
            self.nic.add_qp(qp);
        }
        reply
    }

    /// A per-shard NIC endpoint: a fresh `RdmaNic` whose registry holds
    /// clones of this collector's region handles. The striped backing
    /// stores are shared — writes through a shard endpoint land in exactly
    /// the memory the stores query — while QP state, segmentation cursors,
    /// and stats are endpoint-private, so shard threads can drive ingress
    /// concurrently with no shared mutable state beyond the stripes.
    pub fn shard_nic(&self) -> RdmaNic {
        RdmaNic::with_registry(self.nic.perf.config(), self.nic.memory.clone())
    }

    /// [`CollectorService::handle_cm`] for a shard connection: the
    /// responder QP is installed into the shard's NIC endpoint instead of
    /// the collector's main NIC.
    pub fn handle_cm_shard(&mut self, event: &CmEvent, shard: &mut RdmaNic) -> CmEvent {
        let (reply, qp) = self.cm.handle(event);
        if let Some(qp) = qp {
            shard.add_qp(qp);
        }
        reply
    }

    /// Feed one inbound RoCE packet to the NIC.
    #[inline]
    pub fn nic_ingress(&mut self, pkt: &RocePacket) -> RxOutcome {
        self.nic.ingress(pkt)
    }

    /// Feed a burst of inbound RoCE packets to the NIC (the hot receive
    /// path), appending due responses to `responses`. Returns the number
    /// executed.
    #[inline]
    pub fn nic_ingress_burst(
        &mut self,
        pkts: &[RocePacket],
        responses: &mut Vec<RocePacket>,
    ) -> u64 {
        self.nic.ingress_burst(pkts, responses)
    }

    /// Memory instructions executed so far across all regions (Figure 8).
    pub fn memory_instructions(&self) -> u64 {
        self.nic.memory.memory_instructions()
    }

    /// The unified live read API over this collector's stores: one
    /// [`StoreQueryEngine`] fronting whichever primitives are enabled
    /// (`&mut self` because Append polls advance the reader tail).
    pub fn engine(&mut self) -> StoreQueryEngine<'_> {
        StoreQueryEngine {
            keywrite: self.keywrite.as_ref(),
            postcarding: self.postcarding.as_ref(),
            append: self.append.as_mut(),
            key_increment: self.key_increment.as_ref(),
        }
    }
}

// Multi-writer safety audit (sharded translator support).
//
// The RDMA write path's only shared mutable state is the lock-striped
// `MemoryRegion` inside each store; everything else a shard NIC endpoint
// touches (QPs, segmentation cursors, counters) is endpoint-private. The
// stores must therefore be `Sync` — queries run concurrently with shard
// writers, exactly like collector CPUs reading DRAM under active DMA — and
// `Send` so harnesses can move them between threads. `AppendReader` is the
// one deliberately single-consumer structure: its tail pointers are
// collector-CPU query state (`&mut self`), matching the paper's
// one-list-per-core rule (§6.5.3); it still must be `Send`. These are
// compile-time facts, asserted here so a refactor that adds un-synchronized
// shared state fails to build instead of racing.
const fn _assert_sync<T: Send + Sync>() {}
const fn _assert_send<T: Send>() {}
const _: () = {
    _assert_sync::<KeyWriteStore>();
    _assert_sync::<PostcardStore>();
    _assert_sync::<KeyIncrementStore>();
    _assert_send::<AppendReader>();
    _assert_send::<RdmaNic>(); // shard endpoints move onto worker threads
};

#[cfg(test)]
mod tests {
    use super::*;
    use dta_rdma::cm::CmRequester;

    #[test]
    fn all_four_services_publish() {
        let mut svc = CollectorService::new(ServiceConfig::default());
        for service in [SERVICE_KW, SERVICE_POSTCARD, SERVICE_APPEND, SERVICE_CMS] {
            let requester = CmRequester::new(0x50 + service as u32, 0);
            let reply = svc.handle_cm(&requester.request(service));
            let (qp, params) = requester.complete(&reply).expect("accept");
            assert_eq!(params.service, service);
            assert!(params.region_len > 0);
            assert_eq!(qp.dest_qpn, params.qpn);
        }
    }

    #[test]
    fn disabled_primitive_rejected() {
        let mut svc = CollectorService::new(ServiceConfig {
            kw_bytes: 0,
            ..ServiceConfig::default()
        });
        assert!(svc.keywrite.is_none());
        let requester = CmRequester::new(1, 0);
        let reply = svc.handle_cm(&requester.request(SERVICE_KW));
        assert!(requester.complete(&reply).is_err());
    }

    #[test]
    fn shard_nics_write_concurrently_into_shared_stores() {
        use bytes::Bytes;
        use dta_rdma::nic::RxOutcome;
        use dta_rdma::packet::{Reth, RocePacket};

        let mut svc = CollectorService::new(ServiceConfig::default());
        // Four shard endpoints, each with a dedicated KW QP.
        let mut shards: Vec<_> = (0..4u32)
            .map(|s| {
                let mut nic = svc.shard_nic();
                let req = CmRequester::new(0x2000 + s, 0);
                let reply = svc.handle_cm_shard(&req.request(SERVICE_KW), &mut nic);
                let (qp, params) = req.complete(&reply).unwrap();
                (nic, qp, params)
            })
            .collect();
        // Distinct responder QPNs per shard.
        let mut qpns: Vec<u32> = shards.iter().map(|(_, qp, _)| qp.dest_qpn).collect();
        qpns.sort_unstable();
        qpns.dedup();
        assert_eq!(qpns.len(), 4);

        // All four shards write disjoint slots in parallel through their
        // own endpoints; the collector's stores see every byte.
        std::thread::scope(|scope| {
            for (s, (nic, qp, params)) in shards.iter_mut().enumerate() {
                scope.spawn(move || {
                    for i in 0..256u64 {
                        let va = params.base_va + (s as u64 * 256 + i) * 8;
                        let psn = qp.next_send_psn();
                        let pkt = RocePacket::write(
                            qp.dest_qpn,
                            psn,
                            Reth { va, rkey: params.rkey, dma_len: 8 },
                            Bytes::from(vec![s as u8 + 1; 8]),
                        );
                        assert!(matches!(nic.ingress(&pkt), RxOutcome::Executed(_)));
                    }
                });
            }
        });
        let kw = svc.keywrite.as_ref().unwrap();
        for s in 0..4u64 {
            for i in 0..256u64 {
                let va = shards[0].2.base_va + (s * 256 + i) * 8;
                assert_eq!(
                    kw.region().peek(va, 8).unwrap(),
                    vec![s as u8 + 1; 8],
                    "shard {s} write {i} lost"
                );
            }
        }
    }

    #[test]
    fn two_requesters_on_one_service_keep_their_own_psn_and_ack_streams() {
        use bytes::Bytes;
        use dta_rdma::packet::{Reth, RocePacket};

        let mut svc = CollectorService::new(ServiceConfig {
            nic: NicConfig::bluefield2().with_ack_coalesce(1),
            ..ServiceConfig::default()
        });
        // Different starting PSNs: a shared responder QP would expect only
        // the second requester's and NAK the first.
        let mut conns: Vec<_> = [(0x70u32, 100u32), (0x71, 5000)]
            .into_iter()
            .map(|(qpn, start_psn)| {
                let requester = CmRequester::new(qpn, start_psn);
                let reply = svc.handle_cm(&requester.request(SERVICE_KW));
                requester.complete(&reply).expect("accept")
            })
            .collect();
        for round in 0..8u64 {
            for (i, (qp, params)) in conns.iter_mut().enumerate() {
                let psn = qp.next_send_psn();
                let va = params.base_va + (round * 2 + i as u64) * 8;
                let pkt = RocePacket::write(
                    qp.dest_qpn,
                    psn,
                    Reth { va, rkey: params.rkey, dma_len: 8 },
                    Bytes::from(vec![i as u8 + 1; 8]),
                );
                match svc.nic_ingress(&pkt) {
                    RxOutcome::Executed(Some(ack)) => {
                        assert_eq!((ack.bth.dest_qp, ack.bth.psn), (qp.qpn, psn), "round {round}");
                    }
                    other => panic!("requester {i} round {round}: {other:?}"),
                }
            }
        }
        assert_eq!((svc.nic.stats.executed, svc.nic.stats.naks), (16, 0));
    }

    #[test]
    fn end_to_end_write_via_nic() {
        use bytes::Bytes;
        use dta_rdma::packet::{Reth, RocePacket};

        let mut svc = CollectorService::new(ServiceConfig::default());
        let requester = CmRequester::new(0x99, 0);
        let reply = svc.handle_cm(&requester.request(SERVICE_KW));
        let (mut qp, params) = requester.complete(&reply).unwrap();

        // Craft a raw WRITE into slot 0 and run it through the NIC.
        let psn = qp.next_send_psn();
        let pkt = RocePacket::write(
            qp.dest_qpn,
            psn,
            Reth { va: params.base_va, rkey: params.rkey, dma_len: 8 },
            Bytes::from_static(&[0xAB; 8]),
        );
        assert!(matches!(svc.nic_ingress(&pkt), RxOutcome::Executed(_)));
        assert_eq!(svc.memory_instructions(), 1);
        let kw = svc.keywrite.as_ref().unwrap();
        assert_eq!(kw.region().peek(params.base_va, 8).unwrap(), vec![0xAB; 8]);
    }
}
