//! Connection management.
//!
//! The translator's control plane "is in charge of setting up the RDMA
//! connection to the collector by crafting RDMA Communication Manager
//! (RDMA_CM) packets" (§5.2), and the collector "can host several primitives
//! in parallel using unique RDMA_CM ports, and advertise primitive-specific
//! metadata to the translator using RDMA-Send packets" (§5.3).
//!
//! We model the handshake at the message level: `ConnectRequest` /
//! `ConnectReply` exchange QPNs, starting PSNs, and the per-primitive memory
//! metadata (rkey, base address, slot geometry).

use crate::qp::QueuePair;

/// Identifier of a collector-hosted service (one per primitive instance).
pub type ServiceId = u16;

/// Memory/service metadata advertised by the collector for one primitive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectionParams {
    /// Service identifier (maps to an RDMA_CM port in the paper).
    pub service: ServiceId,
    /// Responder QP number at the collector.
    pub qpn: u32,
    /// Responder's starting PSN.
    pub start_psn: u32,
    /// rkey of the service's memory region.
    pub rkey: u32,
    /// Base virtual address of the region.
    pub base_va: u64,
    /// Region length in bytes.
    pub region_len: u64,
    /// Number of addressable slots (primitive-specific geometry).
    pub slots: u64,
    /// Bytes per slot.
    pub slot_bytes: u32,
}

/// CM protocol events.
#[derive(Debug, Clone, PartialEq)]
pub enum CmEvent {
    /// Requester (translator) asks to connect to a service, offering its QPN
    /// and starting PSN.
    ConnectRequest {
        /// Target service.
        service: ServiceId,
        /// Requester QP number.
        qpn: u32,
        /// Requester starting PSN.
        start_psn: u32,
    },
    /// Responder (collector) accepts, returning its parameters.
    ConnectReply(ConnectionParams),
    /// Responder rejects (unknown service).
    Reject {
        /// The service that was requested.
        service: ServiceId,
    },
    /// Connection teardown (RDMA_CM `DREQ`/`DREP`): either side declares
    /// the connection identified by `qpn` dead. A requester sends it when
    /// closing gracefully; a translator *observing* one for a collector's
    /// QP treats it as a fail-stop signal (the CM-teardown detection path
    /// of collector failover, complementing the completion timeout).
    Disconnect {
        /// The QP whose connection is torn down.
        qpn: u32,
    },
}

/// Collector-side connection manager.
///
/// Owns the service table and mints one responder QP per connection.
#[derive(Debug, Default)]
pub struct CmManager {
    services: Vec<ConnectionParams>,
    next_qpn: u32,
}

impl CmManager {
    /// Manager with no services, allocating QPNs from 0x100.
    pub fn new() -> Self {
        CmManager { services: Vec::new(), next_qpn: 0x100 }
    }

    /// Publish a service. `params.qpn` is a placeholder: each accepted
    /// connection gets a responder QPN of its own in [`CmManager::handle`].
    pub fn publish(&mut self, params: ConnectionParams) {
        assert!(
            self.services.iter().all(|s| s.service != params.service),
            "service {} already published",
            params.service
        );
        self.services.push(params);
    }

    /// Handle a CM request, returning the reply and (on accept) the
    /// responder QP to install into a collector NIC.
    ///
    /// Every accept mints a fresh responder QPN, so every connection owns
    /// its PSN domain and its ACK stream: two requesters on one service
    /// (shards, a migration channel beside the dataplane) never splice
    /// into each other's sequence numbers — the same reason the paper gives
    /// each translator pipe its own queue pairs.
    pub fn handle(&mut self, event: &CmEvent) -> (CmEvent, Option<QueuePair>) {
        match event {
            CmEvent::ConnectRequest { service, qpn, start_psn } => {
                match self.services.iter().find(|s| s.service == *service) {
                    Some(params) => {
                        let params = ConnectionParams { qpn: self.next_qpn, ..*params };
                        self.next_qpn += 1;
                        let mut qp = QueuePair::new(params.qpn);
                        qp.to_rtr(*qpn, *start_psn);
                        qp.to_rts(params.start_psn);
                        (CmEvent::ConnectReply(params), Some(qp))
                    }
                    None => (CmEvent::Reject { service: *service }, None),
                }
            }
            // A DREQ is acknowledged with a DREP naming the same QP. The
            // manager holds no per-connection state to tear down (QPs live
            // in the NIC); the echo closes the handshake.
            CmEvent::Disconnect { qpn } => (CmEvent::Disconnect { qpn: *qpn }, None),
            _ => (CmEvent::Reject { service: 0 }, None),
        }
    }
}

/// Requester-side helper: build the request and complete the local QP from
/// the reply.
#[derive(Debug)]
pub struct CmRequester {
    /// The requester's QP (INIT until the reply arrives).
    pub qp: QueuePair,
    start_psn: u32,
}

impl CmRequester {
    /// New requester with a local QPN and chosen starting PSN.
    pub fn new(qpn: u32, start_psn: u32) -> Self {
        CmRequester { qp: QueuePair::new(qpn), start_psn }
    }

    /// The request to transmit.
    pub fn request(&self, service: ServiceId) -> CmEvent {
        CmEvent::ConnectRequest { service, qpn: self.qp.qpn, start_psn: self.start_psn }
    }

    /// Consume the reply; on accept the local QP moves to RTS and the
    /// connection parameters are returned.
    pub fn complete(mut self, reply: &CmEvent) -> Result<(QueuePair, ConnectionParams), String> {
        match reply {
            CmEvent::ConnectReply(params) => {
                self.qp.to_rtr(params.qpn, params.start_psn);
                self.qp.to_rts(self.start_psn);
                Ok((self.qp, *params))
            }
            CmEvent::Reject { service } => Err(format!("service {service} rejected")),
            other => Err(format!("unexpected CM event {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::QpState;

    fn kv_params() -> ConnectionParams {
        ConnectionParams {
            service: 1,
            qpn: 0,
            start_psn: 7000,
            rkey: 0xAB,
            base_va: 0x10_0000,
            region_len: 1 << 20,
            slots: 65536,
            slot_bytes: 8,
        }
    }

    #[test]
    fn full_handshake_connects_both_sides() {
        let mut cm = CmManager::new();
        cm.publish(kv_params());
        let requester = CmRequester::new(0x55, 1234);
        let req = requester.request(1);
        let (reply, responder_qp) = cm.handle(&req);
        let mut responder_qp = responder_qp.expect("accepted");
        let (req_qp, params) = requester.complete(&reply).unwrap();

        assert_eq!(req_qp.state, QpState::Rts);
        assert_eq!(responder_qp.state, QpState::Rts);
        // Cross-wired QPNs.
        assert_eq!(req_qp.dest_qpn, params.qpn);
        assert_eq!(responder_qp.dest_qpn, 0x55);
        // PSN domains aligned.
        assert_eq!(responder_qp.receive(1234), Ok(()));
    }

    #[test]
    fn every_handshake_mints_its_own_responder_qpn() {
        // Requesters connecting to the same service or to different ones
        // must land on distinct responder QPs (independent PSN domains),
        // and each reply must advertise the QPN minted for that connection.
        let mut cm = CmManager::new();
        cm.publish(kv_params());
        cm.publish(ConnectionParams { service: 2, ..kv_params() });
        let mut qpns = Vec::new();
        for shard in 0..4u32 {
            let requester = CmRequester::new(0x1000 + shard, 0);
            let (reply, responder) = cm.handle(&requester.request(1 + (shard % 2) as u16));
            let responder = responder.expect("accepted");
            let (req_qp, params) = requester.complete(&reply).unwrap();
            assert_eq!(responder.qpn, params.qpn, "reply advertises minted QPN");
            assert_eq!(req_qp.dest_qpn, responder.qpn);
            assert_eq!(responder.dest_qpn, 0x1000 + shard);
            qpns.push(responder.qpn);
        }
        qpns.sort_unstable();
        qpns.dedup();
        assert_eq!(qpns.len(), 4, "responder QPNs not unique per connection");
    }

    #[test]
    fn disconnect_echoes_drep_for_the_same_qp() {
        let mut cm = CmManager::new();
        cm.publish(kv_params());
        let (reply, qp) = cm.handle(&CmEvent::Disconnect { qpn: 0x100 });
        assert!(qp.is_none(), "a teardown mints no QP");
        assert_eq!(reply, CmEvent::Disconnect { qpn: 0x100 });
        // Connecting again after a disconnect still works: teardown is
        // stateless at the manager.
        let requester = CmRequester::new(0x56, 0);
        let (reply, responder) = cm.handle(&requester.request(1));
        assert!(responder.is_some());
        assert!(requester.complete(&reply).is_ok());
    }

    #[test]
    fn unknown_service_rejected() {
        let mut cm = CmManager::new();
        let requester = CmRequester::new(1, 0);
        let (reply, qp) = cm.handle(&requester.request(9));
        assert!(qp.is_none());
        assert!(requester.complete(&reply).is_err());
    }

    #[test]
    #[should_panic]
    fn duplicate_service_rejected() {
        let mut cm = CmManager::new();
        cm.publish(kv_params());
        cm.publish(kv_params());
    }
}
