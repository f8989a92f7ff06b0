//! The collector link: the transport under [`crate::FleetNode`], which
//! owns routing, the replay ledger, and the whole recovery state machine.
//! [`RoceLink`] sends RDMA as RoCE packets over the simulated network, one
//! [`Translator`] endpoint per collector; [`InProcessLink`] executes it
//! in-process, one [`ShardedTranslator`] pipeline per collector. DESIGN.md
//! "Failover" tabulates the two column by column.

use bytes::Bytes;
use dta_collector::layout::{CmsLayout, KwLayout};
use dta_collector::service::{
    CollectorService, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta_core::DtaReport;
use dta_net::{Emission, NodeId, Packet};
use dta_rdma::cm::CmRequester;
use dta_rdma::mr::MemoryRegion;
use dta_rdma::packet::{Opcode, Reth, RocePacket};

use crate::failover::{FleetConfig, LedgerEntry};
use crate::node::nack_emission;
use crate::rebalance::{link_of, MigPrimitive, RebalanceDriver, WireEmission, WireKind};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkResponse {
    /// Nothing: liveness credit only (unknown sender, a NAK the requester
    /// QP counted as a stale repeat), or a migration completion already fed
    /// to the driver.
    Consumed,
    /// Cumulative ACK on a service QP.
    Ack { collector: u32, qpn: u32, psn: u32 },
    /// A NAK that rewound the QP's send PSN to `expected_psn`: the un-acked
    /// ledger suffix from there must be replayed.
    Nak { collector: u32, qpn: u32, expected_psn: u32 },
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
        report: DtaReport,
        origin: ReportOrigin,
        out: &mut Vec<Emission>,
    ) -> Option<LedgerEntry>;

    /// Put one migration verb on the wire. A link that executes it on the
    /// spot feeds the completion to `driver` before returning.
    fn post_wire(&mut self, e: &WireEmission, driver: &mut RebalanceDriver, out: &mut Vec<Emission>);

    /// A RoCE datagram from node `from` reached the translator; migration
    /// completions go to `driver`. `None` when it is malformed for this
    /// link — always, for a link that puts no RoCE on the network.
    fn take_response(
        &mut self,
        _now_ns: u64,
        _from: NodeId,
        _payload: Bytes,
        _driver: Option<&mut RebalanceDriver>,
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

/// One zero buffer as long as the longest migration zero-write (a KW slot
/// or a CMS counter), shared by every [`WireKind::WriteZero`] of a run.
fn zero_payload(kw: Option<KwLayout>) -> Bytes {
    let len = kw.map_or(0, |l| l.slot_bytes()).max(CmsLayout::SLOT_BYTES);
    Bytes::from(vec![0u8; len as usize])
}

/// One migration QP's addressing on the RoCE link.
#[derive(Debug, Clone, Copy)]
struct MigLink {
    /// Requester-side QPN (responses and ACKs name it).
    req_qpn: u32,
    /// Responder QPN at the collector.
    dest_qpn: u32,
    /// Remote key of the target region.
    rkey: u32,
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
    /// Dedicated migration QPs (separate from the report-path service QPs
    /// so migration traffic never perturbs report PSNs or the
    /// completion-timeout accounting), indexed by [`link_of`];
    /// `None` when the service is disabled, empty without a rebalance.
    mig_links: Vec<Option<MigLink>>,
    /// Payload every zero-write slices.
    zeros: Bytes,
    timeout_ns: u64,
    min_unacked: u64,
    my_id: NodeId,
    my_ip: u32,
    scratch: TranslatorOutput,
}

impl RoceLink {
    /// Connect one endpoint per collector, with a connection to every
    /// service it offers. The handshake runs against each service's CM
    /// before the services move into their own network nodes.
    pub(crate) fn connect(
        config: &FleetConfig,
        peers: &mut [(NodeId, u32, &mut CollectorService)],
        my_id: NodeId,
        my_ip: u32,
        kw: Option<KwLayout>,
    ) -> Self {
        let mut endpoints = Vec::with_capacity(peers.len());
        let mut mig_links = Vec::new();
        if config.rebalance.is_some() {
            mig_links.resize(peers.len() * 2, None);
        }
        for (c, (node, ip, svc)) in peers.iter_mut().enumerate() {
            let c = c as u32;
            // Requester QPNs sit clear of the shard (0x4000+) range: 16 per
            // collector, report path at the service id, migration 8 above.
            let qpn_base = 0x7100 + c * 16;
            let mut translator = Translator::new(config.translator.clone());
            let mut links = Vec::new();
            for service in [SERVICE_KW, SERVICE_POSTCARD, SERVICE_APPEND, SERVICE_CMS] {
                let requester = CmRequester::new(qpn_base + u32::from(service), 0);
                let reply = svc.handle_cm(&requester.request(service));
                let Ok((qp, params)) = requester.complete(&reply) else {
                    continue; // service disabled on this collector
                };
                links.push((qp.qpn, params.qpn));
                translator.connect(service, qp, params);
            }
            // Migration QPs, connected only when a rebalance is planned:
            // reads + zero-writes ride their own PSN spaces.
            if config.rebalance.is_some() {
                for (service, primitive) in [
                    (SERVICE_KW, MigPrimitive::KeyWrite),
                    (SERVICE_CMS, MigPrimitive::KeyIncrement),
                ] {
                    let requester = CmRequester::new(qpn_base + 8 + u32::from(service), 0);
                    let reply = svc.handle_cm(&requester.request(service));
                    if let Ok((qp, params)) = requester.complete(&reply) {
                        mig_links[link_of(c, primitive) as usize] = Some(MigLink {
                            req_qpn: qp.qpn,
                            dest_qpn: params.qpn,
                            rkey: params.rkey,
                        });
                    }
                }
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
            mig_links,
            zeros: zero_payload(kw),
            timeout_ns: config.timeout_ns,
            min_unacked: config.min_unacked,
            my_id,
            my_ip,
            scratch: TranslatorOutput::default(),
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
            let wire = p.encode_framed(self.my_ip, ep.ip);
            out.push(Emission::now(Packet::rdma(self.my_id, ep.node, wire)));
        }
    }
}

impl CollectorLink for RoceLink {
    fn post_report(
        &mut self,
        c: u32,
        now_ns: u64,
        report: DtaReport,
        origin: ReportOrigin,
        out: &mut Vec<Emission>,
    ) -> Option<LedgerEntry> {
        let mut translated = std::mem::take(&mut self.scratch);
        let ep = &mut self.endpoints[c as usize];
        ep.translator.process_batch(now_ns, std::slice::from_ref(&report), &mut translated);
        self.send(c, now_ns, &translated.packets, out);
        out.extend(
            translated.nacked.iter().map(|&seq| nack_emission(self.my_id, self.my_ip, seq, origin)),
        );
        let entry = translated.packets.last().map(|last| LedgerEntry {
            collector: c,
            qpn: self.endpoints[c as usize].req_qpn_for(last.bth.dest_qp),
            last_psn: last.bth.psn,
            acked: false,
            report,
            origin,
        });
        self.scratch = translated;
        entry
    }

    fn post_wire(&mut self, e: &WireEmission, _: &mut RebalanceDriver, out: &mut Vec<Emission>) {
        let Some(link) = self.mig_links[e.link as usize] else { return };
        let reth = Reth { va: e.va, rkey: link.rkey, dma_len: e.len };
        let mut pkt = match e.kind {
            WireKind::Read => RocePacket::read_request(link.dest_qpn, e.psn, reth),
            WireKind::WriteZero => {
                let zeros = self.zeros.slice(..e.len as usize);
                RocePacket::write(link.dest_qpn, e.psn, reth, zeros)
            }
            WireKind::FetchAdd => {
                RocePacket::fetch_add(link.dest_qpn, e.psn, e.va, link.rkey, e.arg)
            }
        };
        // Solicit an immediate ACK: migration completion must not wait out
        // the service-QP coalescing window.
        pkt.bth.solicited = e.kind != WireKind::Read;
        let ep = &self.endpoints[e.collector() as usize];
        let wire = pkt.encode_framed(self.my_ip, ep.ip);
        out.push(Emission::now(Packet::rdma(self.my_id, ep.node, wire)));
    }

    fn take_response(
        &mut self,
        now_ns: u64,
        from: NodeId,
        payload: Bytes,
        driver: Option<&mut RebalanceDriver>,
    ) -> Option<LinkResponse> {
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
        // Migration-QP traffic has its own completion protocol.
        let mig = self.mig_links.iter().position(|l| matches!(l, Some(l) if l.req_qpn == qpn));
        if let (Some(link), Some(driver)) = (mig.map(|i| i as u32), driver) {
            if roce.bth.opcode == Opcode::ReadResponseOnly {
                driver.on_read_response(link, psn, &roce.payload);
            } else if roce.is_nak() {
                driver.on_nak(link, psn);
            } else {
                driver.on_ack(link, psn);
            }
            return Some(LinkResponse::Consumed);
        }
        let collector = c as u32;
        if !roce.is_nak() {
            return Some(LinkResponse::Ack { collector, qpn, psn });
        }
        // The responder NAKs *every* out-of-sequence arrival, so one gap
        // produces a train of identical NAKs; which of them is news is the
        // requester QP's call, and only a real rewind replays.
        if ep.translator.on_roce_response(&roce) {
            Some(LinkResponse::Nak { collector, qpn, expected_psn: psn })
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
    /// Per-collector `(KW, CMS)` region clones migration verbs execute
    /// against; empty without a rebalance.
    regions: Vec<(Option<MemoryRegion>, Option<MemoryRegion>)>,
    /// Per-link responder expected PSN (indexed by [`link_of`]): the check
    /// mirrors the RoCE responder, so injected duplicates and reorders
    /// exercise the same dup-drop / NAK recovery.
    expected_psn: Vec<u32>,
    /// Payload every zero-write slices.
    zeros: Bytes,
}

impl InProcessLink {
    /// Build one sharded pipeline per collector. Call before moving the
    /// services into their own network nodes: shard NIC endpoints clone
    /// each collector's region registry (as do the migration region
    /// handles when a rebalance is planned).
    pub(crate) fn connect(
        config: &FleetConfig,
        shards: usize,
        peers: &mut [(NodeId, u32, &mut CollectorService)],
        my_id: NodeId,
        my_ip: u32,
        kw: Option<KwLayout>,
    ) -> Self {
        let mut regions = Vec::new();
        if config.rebalance.is_some() {
            regions.extend(peers.iter().map(|(_, _, svc)| {
                (
                    svc.keywrite.as_ref().map(|s| s.region().clone()),
                    svc.key_increment.as_ref().map(|s| s.region().clone()),
                )
            }));
        }
        let sharded =
            ShardedConfig { shards, translator: config.translator.clone() };
        InProcessLink {
            pipelines: peers
                .iter_mut()
                .map(|(_, _, svc)| ShardedTranslator::connect(sharded.clone(), svc))
                .collect(),
            nack_from: config.translator.rate_limit.map(|_| (my_id, my_ip)),
            nack_buf: Vec::new(),
            expected_psn: vec![0; regions.len() * 2],
            regions,
            zeros: zero_payload(kw),
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
        report: DtaReport,
        origin: ReportOrigin,
        _out: &mut Vec<Emission>,
    ) -> Option<LedgerEntry> {
        self.pipelines[c as usize].ingest_from(now_ns, report.clone(), origin);
        Some(LedgerEntry { collector: c, qpn: 0, last_psn: 0, acked: true, report, origin })
    }

    /// Each emission faces the same expected-PSN responder discipline as a
    /// RoCE NIC (dup → silent drop, gap → NAK), then executes against the
    /// region clone.
    fn post_wire(&mut self, e: &WireEmission, driver: &mut RebalanceDriver, _: &mut Vec<Emission>) {
        let expected = self.expected_psn[e.link as usize];
        if e.psn < expected {
            return; // duplicate: the responder PSN-drops it silently
        }
        if e.psn > expected {
            return driver.on_nak(e.link, expected); // gap: NAK names the expected PSN
        }
        let collector = e.collector() as usize;
        let region = match e.primitive() {
            MigPrimitive::KeyWrite => &self.regions[collector].0,
            MigPrimitive::KeyIncrement => &self.regions[collector].1,
        };
        let Some(region) = region else { return };
        // Barrier the target pipeline: in-process "RDMA" must observe
        // every ingested report, like a wire op behind FIFO delivery.
        self.pipelines[collector].wait_idle();
        match e.kind {
            WireKind::Read => {
                let data = region.peek(e.va, e.len as usize).expect("migration read in region");
                driver.on_read_response(e.link, e.psn, &data);
            }
            WireKind::WriteZero => {
                region.write(e.va, &self.zeros[..e.len as usize]).expect("migration zero write");
                driver.on_ack(e.link, e.psn);
            }
            WireKind::FetchAdd => {
                region.fetch_add(e.va, e.arg).expect("migration fetch-add");
                driver.on_ack(e.link, e.psn);
            }
        }
        self.expected_psn[e.link as usize] = e.psn + 1;
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
