//! The collector link: the transport under [`crate::FleetNode`], which
//! owns routing, the replay ledger, and the whole recovery state machine.
//! [`RoceLink`] sends RDMA as RoCE packets over the simulated network, one
//! [`Translator`] endpoint per collector; [`InProcessLink`] executes it
//! in-process, one [`ShardedTranslator`] pipeline per collector. Either way
//! a rebalance's migration requests — built and numbered by the fleet
//! node's driver on QPs the link connected — reach the collector's own
//! responder: over the network, or through an `RdmaNic` endpoint the link
//! accepted them on. DESIGN.md "Failover" tabulates the two column by
//! column.

use bytes::Bytes;
use dta_collector::service::{
    CollectorService, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta_core::{DtaReport, ImagePool};
use dta_net::{Emission, NodeId, Packet};
use dta_rdma::cm::{CmEvent, CmRequester, ConnectionParams};
use dta_rdma::nic::RdmaNic;
use dta_rdma::packet::{RocePacket, FRAME_BYTES, FRAME_POOL_DEPTH};
use dta_rdma::qp::QueuePair;

use crate::failover::FleetConfig;
use crate::node::nack_emission;
use crate::shard::{NackRecord, ReportOrigin, ShardedConfig, ShardedTranslator};
use crate::translator::{Translator, TranslatorOutput, TranslatorStats};

/// Which collector link a fleet node runs over. Both name the translator's
/// own address, `my_id`/`my_ip`, the source of its reporter NACKs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// RDMA as RoCE packets over the simulated network, also sourced from
    /// the translator's address.
    Roce {
        /// The translator's node id.
        my_id: NodeId,
        /// The translator's IP.
        my_ip: u32,
    },
    /// RDMA executed in-process by `shards` worker shards per collector.
    InProcess {
        /// The translator's node id.
        my_id: NodeId,
        /// The translator's IP.
        my_ip: u32,
        /// Worker shards per collector pipeline (≥ 1).
        shards: usize,
    },
}

/// What a RoCE response from the network leaves for the fleet node to do.
#[derive(Debug)]
pub(crate) enum LinkResponse {
    /// Nothing: liveness credit only (unknown sender, a NAK the requester
    /// QP counted as a stale repeat).
    Consumed,
    /// Cumulative ACK on a service QP.
    Ack { collector: u32, qpn: u32, psn: u32 },
    /// A NAK that rewound the QP's send PSN to `expected`: the un-acked
    /// ledger suffix from there must be replayed.
    Nak { collector: u32, qpn: u32, expected: u32 },
    /// A response on a QP the report path does not own: a migration
    /// completion (or NAK) for the rebalance driver.
    Migration(RocePacket),
}

/// A migration connection: `(collector, requester QP, params)`, the QP and
/// params as `CmRequester::complete` returned them.
pub(crate) type MigrationQp = (u32, QueuePair, ConnectionParams);

/// Where a posted report's last RDMA packet went, `(requester QPN, PSN,
/// acked)`: the key of its replay-ledger entry.
pub(crate) type Posted = (u32, u32, bool);

/// Connect collector `c`'s migration QPs through `accept`, its CM: one per
/// store a rebalance moves (KW, CMS), beside the report path's so
/// migration traffic never perturbs report PSNs or the completion-timeout
/// accounting. A disabled service connects nothing. Requester QPNs sit
/// clear of the shard (0x4000+) range: 16 per collector, the report path's
/// at the service id, migration's 8 above.
fn connect_migration(
    c: u32,
    qps: &mut Vec<MigrationQp>,
    mut accept: impl FnMut(&CmEvent) -> CmEvent,
) {
    for service in [SERVICE_KW, SERVICE_CMS] {
        let requester = CmRequester::new(0x7100 + c * 16 + 8 + u32::from(service), 0);
        let reply = accept(&requester.request(service));
        if let Ok((qp, params)) = requester.complete(&reply) {
            qps.push((c, qp, params));
        }
    }
}

/// Per-link run totals, folded into [`crate::FleetRunReport`].
#[derive(Debug, Default)]
pub(crate) struct LinkRun {
    pub translator: TranslatorStats,
    pub per_shard_reports_in: Vec<u64>,
    pub executed: Option<u64>,
}

/// The transport seam under [`crate::FleetNode`]. `alive` arguments are
/// the routing table's fleet-indexed alive bitmap; the defaults are the
/// answers of a link that has nothing to do at that hook.
pub(crate) trait CollectorLink: std::fmt::Debug {
    /// Translate `report` toward collector `c` and stamp it for the replay
    /// ledger. `None` when nothing was sent (so nothing is to be ledgered).
    /// A rate-limit drop that asked for one is NACKed back to `origin` —
    /// here, or at the next [`CollectorLink::flush`].
    fn post_report(
        &mut self,
        c: u32,
        now_ns: u64,
        report: &DtaReport,
        origin: ReportOrigin,
        out: &mut Vec<Emission>,
    ) -> Option<Posted>;

    /// Put one migration request toward collector `c` on the wire. A link
    /// that executes it on the spot appends the responder's answer, if
    /// any, to `responses`.
    fn post_wire(
        &mut self,
        c: u32,
        pkt: &RocePacket,
        out: &mut Vec<Emission>,
        responses: &mut Vec<RocePacket>,
    );

    /// A RoCE datagram from node `from` reached the translator. `None` when
    /// it is malformed for this link — always, for a link that puts no
    /// RoCE on the network.
    fn take_response(
        &mut self,
        _now_ns: u64,
        _from: NodeId,
        _payload: Bytes,
    ) -> Option<LinkResponse> {
        None
    }

    /// Collector `c` was declared dead; returns the connections torn down.
    fn on_fail(&mut self, c: u32) -> u64;

    /// Collector `c` was re-admitted.
    fn on_rejoin(&mut self, _c: u32, _now_ns: u64) {}

    /// Live collectors this link's own detector declares dead at `now_ns`.
    fn timed_out(&self, _now_ns: u64, _alive: &[bool]) -> Vec<u32> {
        Vec::new()
    }

    /// Tick-time flush of translator-held state: batched RDMA toward live
    /// collectors, owed NACKs toward reporters.
    fn flush(&mut self, _now_ns: u64, _alive: &[bool], _out: &mut Vec<Emission>) {}

    /// Barrier: every report posted so far is executed into collector
    /// memory when this returns.
    fn quiesce(&mut self) {}

    /// Shut the link down and return its totals.
    fn finish(self: Box<Self>) -> LinkRun;
}

/// One collector's connection state on the RoCE link.
#[derive(Debug)]
struct Endpoint {
    node: NodeId,
    ip: u32,
    translator: Translator,
    /// `(requester QPN, responder QPN)` per connected service. Outgoing
    /// RDMA names the responder QPN; ACKs come back naming the requester
    /// QPN — this is the bridge between the two for ledger bookkeeping.
    links: Vec<(u32, u32)>,
    /// Completion-timeout anchor: the later of the last RoCE response and
    /// the send that pushed `sends_since_response` across the
    /// `min_unacked` floor. Measuring silence from the *crossing* (not
    /// from connect, nor from an arbitrary earlier send) is what makes the
    /// timeout safe for far collectors: once the floor is crossed, one QP
    /// necessarily holds a full ACK-coalescing window, so a live collector
    /// has a response back within one fabric RTT of the anchor.
    last_progress_ns: u64,
    /// RDMA packets sent since the last response.
    sends_since_response: u64,
}

impl Endpoint {
    fn req_qpn_for(&self, resp_qpn: u32) -> u32 {
        self.links.iter().find(|(_, r)| *r == resp_qpn).map(|(q, _)| *q).unwrap_or(resp_qpn)
    }
}

/// RoCE over the simulated network (see the module docs).
#[derive(Debug)]
pub(crate) struct RoceLink {
    endpoints: Vec<Endpoint>,
    timeout_ns: u64,
    min_unacked: u64,
    my_id: NodeId,
    my_ip: u32,
    scratch: TranslatorOutput,
    /// Every frame the link puts on the wire, report path and migration.
    frames: ImagePool,
}

impl RoceLink {
    /// Connect one endpoint per collector, with a connection to every
    /// service it offers, and — when a rebalance is planned — the
    /// collector's migration QPs onto its NIC, appended to `migration`. The
    /// handshakes run against each service's CM before the services move
    /// into their own network nodes.
    pub(crate) fn connect(
        config: &FleetConfig,
        peers: &mut [(NodeId, u32, &mut CollectorService)],
        my_id: NodeId,
        my_ip: u32,
        migration: &mut Vec<MigrationQp>,
    ) -> Self {
        let mut endpoints = Vec::with_capacity(peers.len());
        for (c, (node, ip, svc)) in peers.iter_mut().enumerate() {
            let c = c as u32;
            let mut translator = Translator::new(config.translator.clone());
            let mut links = Vec::new();
            for service in [SERVICE_KW, SERVICE_POSTCARD, SERVICE_APPEND, SERVICE_CMS] {
                // Requester QPNs: see `connect_migration`.
                let requester = CmRequester::new(0x7100 + c * 16 + u32::from(service), 0);
                let reply = svc.handle_cm(&requester.request(service));
                let Ok((qp, params)) = requester.complete(&reply) else {
                    continue; // service disabled on this collector
                };
                links.push((qp.qpn, params.qpn));
                translator.connect(service, qp, params);
            }
            if config.rebalance.is_some() {
                connect_migration(c, migration, |req| svc.handle_cm(req));
            }
            endpoints.push(Endpoint {
                node: *node,
                ip: *ip,
                translator,
                links,
                last_progress_ns: 0,
                sends_since_response: 0,
            });
        }
        RoceLink {
            endpoints,
            timeout_ns: config.timeout_ns,
            min_unacked: config.min_unacked,
            my_id,
            my_ip,
            scratch: TranslatorOutput::default(),
            frames: ImagePool::new(FRAME_BYTES, FRAME_POOL_DEPTH),
        }
    }

    /// Emit `packets` toward collector `c` and charge them to its
    /// completion-timeout accounting. Sends below the outstanding floor
    /// re-anchor the timeout: the silence clock starts at the floor
    /// crossing.
    fn send(&mut self, c: u32, now_ns: u64, packets: &[RocePacket], out: &mut Vec<Emission>) {
        let ep = &mut self.endpoints[c as usize];
        if ep.sends_since_response < self.min_unacked {
            ep.last_progress_ns = now_ns;
        }
        ep.sends_since_response += packets.len() as u64;
        for p in packets {
            let wire = p.encode_framed(&mut self.frames, self.my_ip, ep.ip);
            out.push(Emission::now(Packet::rdma(self.my_id, ep.node, wire)));
        }
    }
}

impl CollectorLink for RoceLink {
    fn post_report(
        &mut self,
        c: u32,
        now_ns: u64,
        report: &DtaReport,
        origin: ReportOrigin,
        out: &mut Vec<Emission>,
    ) -> Option<Posted> {
        let mut translated = std::mem::take(&mut self.scratch);
        let ep = &mut self.endpoints[c as usize];
        ep.translator.process_batch(now_ns, std::slice::from_ref(report), &mut translated);
        self.send(c, now_ns, &translated.packets, out);
        out.extend(
            translated.nacked.iter().map(|&seq| nack_emission(self.my_id, self.my_ip, seq, origin)),
        );
        let posted = translated.packets.last().map(|last| {
            (self.endpoints[c as usize].req_qpn_for(last.bth.dest_qp), last.bth.psn, false)
        });
        self.scratch = translated;
        posted
    }

    /// Migration traffic is not charged to the completion-timeout
    /// accounting: its QPs are not the ones a dead collector silences.
    fn post_wire(
        &mut self,
        c: u32,
        pkt: &RocePacket,
        out: &mut Vec<Emission>,
        _: &mut Vec<RocePacket>,
    ) {
        let ep = &self.endpoints[c as usize];
        let wire = pkt.encode_framed(&mut self.frames, self.my_ip, ep.ip);
        out.push(Emission::now(Packet::rdma(self.my_id, ep.node, wire)));
    }

    fn take_response(&mut self, now_ns: u64, from: NodeId, payload: Bytes) -> Option<LinkResponse> {
        let roce = RocePacket::decode(payload).ok()?;
        let Some(c) = self.endpoints.iter().position(|ep| ep.node == from) else {
            return Some(LinkResponse::Consumed); // response from an unknown node: drop
        };
        let ep = &mut self.endpoints[c];
        ep.last_progress_ns = now_ns;
        ep.sends_since_response = 0;
        // ACKs and NAKs both name the *requester* QPN.
        let qpn = roce.bth.dest_qp;
        let psn = roce.bth.psn;
        if !ep.links.iter().any(|&(q, _)| q == qpn) {
            return Some(LinkResponse::Migration(roce));
        }
        let collector = c as u32;
        if !roce.is_nak() {
            return Some(LinkResponse::Ack { collector, qpn, psn });
        }
        // The responder NAKs *every* out-of-sequence arrival, so one gap
        // produces a train of identical NAKs; which of them is news is the
        // requester QP's call, and only a real rewind replays.
        if ep.translator.on_roce_response(&roce) {
            Some(LinkResponse::Nak { collector, qpn, expected: psn })
        } else {
            Some(LinkResponse::Consumed)
        }
    }

    /// DREQ each service connection; the DREP may never come (the node is
    /// presumed gone), which is fine — CM teardown is stateless.
    fn on_fail(&mut self, c: u32) -> u64 {
        self.endpoints[c as usize].links.len() as u64
    }

    /// The endpoint QPs are stale by however many PSNs were sunk while the
    /// collector was dead; the first post-rejoin write is NAK'd, which
    /// resynchronizes the QP and replays the NAK'd suffix from the ledger.
    fn on_rejoin(&mut self, c: u32, now_ns: u64) {
        let ep = &mut self.endpoints[c as usize];
        ep.last_progress_ns = now_ns;
        ep.sends_since_response = 0;
    }

    fn timed_out(&self, now_ns: u64, alive: &[bool]) -> Vec<u32> {
        let silent = |ep: &Endpoint| {
            ep.sends_since_response >= self.min_unacked
                && now_ns.saturating_sub(ep.last_progress_ns) >= self.timeout_ns
        };
        (0..self.endpoints.len() as u32)
            .filter(|&c| alive[c as usize] && silent(&self.endpoints[c as usize]))
            .collect()
    }

    /// Postcard cache rows and partial Append batches; nothing for
    /// KW/INC-only traffic — each flush costs what is staged, never the
    /// cache capacity.
    fn flush(&mut self, now_ns: u64, alive: &[bool], out: &mut Vec<Emission>) {
        for c in (0..self.endpoints.len()).filter(|&c| alive[c]) {
            let flushed = self.endpoints[c].translator.flush(now_ns);
            self.send(c as u32, now_ns, &flushed.packets, out);
        }
    }

    fn finish(self: Box<Self>) -> LinkRun {
        let mut run = LinkRun::default();
        for ep in &self.endpoints {
            run.translator.merge(&ep.translator.stats);
        }
        run
    }
}

/// In-process execution (see the module docs): reports route
/// collector-first (the node's table, salt 0), then shard-partition inside
/// the owning pipeline (`SHARD_SALT`) — the two-level domain separation
/// the adversarial routing test pins. Replay contents stay a pure function
/// of the delivered stream because a failover barriers the victim's
/// pipeline before its window is drained. There is no wire: nothing to
/// time out on (the CM teardown, [`crate::FleetEvent::Teardown`], is the
/// detection signal), no RDMA to flush at a tick (postcard rows and partial
/// Append batches go out when the pipelines shut down), a rejoin is purely
/// a routing change, and RoCE arriving over the network is a wiring error.
#[derive(Debug)]
pub(crate) struct InProcessLink {
    pipelines: Vec<ShardedTranslator>,
    /// Reporter-NACK source address, when the translator config carries a
    /// rate limiter: without one no worker ever records a NACK, and a tick
    /// has no reason to barrier the pipelines.
    nack_from: Option<(NodeId, u32)>,
    /// Recycled drain buffer for tick-time NACK emission.
    nack_buf: Vec<NackRecord>,
    /// Per collector, the NIC endpoint its migration QPs were accepted
    /// onto; empty without a rebalance.
    migration_nics: Vec<RdmaNic>,
}

impl InProcessLink {
    /// Build one sharded pipeline per collector and — when a rebalance is
    /// planned — accept the collector's migration QPs onto a NIC endpoint
    /// of its own, appended to `migration`. Call before moving the services
    /// into their own network nodes: NIC endpoints clone each collector's
    /// region registry.
    pub(crate) fn connect(
        config: &FleetConfig,
        shards: usize,
        peers: &mut [(NodeId, u32, &mut CollectorService)],
        my_id: NodeId,
        my_ip: u32,
        migration: &mut Vec<MigrationQp>,
    ) -> Self {
        let sharded = ShardedConfig { shards, translator: config.translator.clone() };
        let mut pipelines = Vec::with_capacity(peers.len());
        let mut migration_nics = Vec::new();
        for (c, (_, _, svc)) in peers.iter_mut().enumerate() {
            pipelines.push(ShardedTranslator::connect(sharded.clone(), svc));
            if config.rebalance.is_some() {
                let mut nic = svc.shard_nic();
                connect_migration(c as u32, migration, |req| svc.handle_cm_shard(req, &mut nic));
                migration_nics.push(nic);
            }
        }
        InProcessLink {
            pipelines,
            nack_from: config.translator.rate_limit.map(|_| (my_id, my_ip)),
            nack_buf: Vec::new(),
            migration_nics,
        }
    }
}

impl CollectorLink for InProcessLink {
    /// Execution is in-process and ordered behind this ingest, so the
    /// entry is born acked.
    fn post_report(
        &mut self,
        c: u32,
        now_ns: u64,
        report: &DtaReport,
        origin: ReportOrigin,
        _out: &mut Vec<Emission>,
    ) -> Option<Posted> {
        self.pipelines[c as usize].ingest_from(now_ns, report.clone(), origin);
        Some((0, 0, true))
    }

    /// Barrier the target pipeline — in-process "RDMA" must observe every
    /// ingested report, like a wire op behind FIFO delivery — then hand the
    /// request to the collector's responder.
    fn post_wire(
        &mut self,
        c: u32,
        pkt: &RocePacket,
        _: &mut Vec<Emission>,
        responses: &mut Vec<RocePacket>,
    ) {
        self.pipelines[c as usize].wait_idle();
        self.migration_nics[c as usize].ingress_burst(std::slice::from_ref(pkt), responses);
    }

    /// Barrier the victim's pipeline so its ledger window is complete
    /// before the node replays it.
    fn on_fail(&mut self, c: u32) -> u64 {
        self.pipelines[c as usize].wait_idle();
        1
    }

    /// Emit the reporter NACKs the workers recorded: a rate-limit decision
    /// happens on a worker thread after the ingest already returned to the
    /// engine, so the drop surfaces here, on the engine thread's next tick.
    ///
    /// Determinism rule: the barrier comes first, so the records drained
    /// at this tick are exactly the rate-limited `nack_on_drop` reports
    /// delivered before it, in seq order — independent of worker thread
    /// scheduling.
    fn flush(&mut self, _now_ns: u64, _alive: &[bool], out: &mut Vec<Emission>) {
        let Some((my_id, my_ip)) = self.nack_from else { return };
        for p in &mut self.pipelines {
            p.wait_idle();
            p.take_nacks(&mut self.nack_buf);
        }
        out.extend(
            self.nack_buf.drain(..).map(|rec| nack_emission(my_id, my_ip, rec.seq, rec.origin)),
        );
    }

    fn quiesce(&mut self) {
        for p in &mut self.pipelines {
            p.wait_idle();
        }
    }

    fn finish(self: Box<Self>) -> LinkRun {
        let mut run = LinkRun::default();
        let mut executed = 0;
        for mut p in self.pipelines {
            p.wait_idle();
            let rep = p.flush_and_join();
            run.translator.merge(&rep.translator);
            run.per_shard_reports_in.extend(rep.shards.iter().map(|s| s.translator.reports_in));
            executed += rep.executed;
        }
        run.executed = Some(executed);
        run
    }
}
