//! Collector failover: epoch-stamped routing, fail-stop detection, and
//! replay of un-acked writes.
//!
//! The paper's collector is a scale-out tier (§5.3): the translator spreads
//! keys across N collector nodes with the collector-level [`Partitioner`]
//! (salt 0), orthogonal to the shard-level partitioning inside each
//! translator pipe. This module makes that tier lose a node without losing
//! telemetry:
//!
//! * [`CollectorRoutingTable`] — primary owner is the salt-0 reduction over
//!   all N collectors; when the primary is dead the key digest is re-salted
//!   and re-reduced over the ordered survivor set, so re-routing is pure
//!   (no handoff state) and every translator computes the same owner.
//!   Entries are epoch-stamped: each membership change bumps the table
//!   epoch and stamps the affected entry.
//! * fail-stop detection — two signals, one per collector link
//!   ([`crate::LinkKind`]): over RoCE the link watches RDMA completions per
//!   collector and reports a victim after `min_unacked` sends with no
//!   response for `timeout_ns` (completion timeout); in-process there is
//!   no wire to time out on, so [`FleetNode`] instead consumes an RDMA_CM
//!   teardown ([`crate::cm::CmEvent::Disconnect`]) surfaced through the
//!   [`FleetAdmin`] handle.
//! * the replay ledger — one [`Outstanding`] window per collector of
//!   recently translated Key-Write / Key-Increment reports, keyed by the
//!   requester QPN and PSN of each report's last RDMA packet. On failover
//!   the whole window for the dead collector is replayed through the
//!   survivors; a NAK replays the un-acked suffix it proves unexecuted.
//!   An ACK only marks entries (only capacity evicts them), because a
//!   spurious failover must re-apply even acknowledged writes at the new
//!   owner: queries route by the final table, so the suspected node's
//!   copies stop counting the moment it is marked dead. Write-once
//!   Key-Write and commutative Key-Increment make the replay
//!   order-invariant and (per final-table routing) exactly-once.
//!
//! The convergence claim mirrors the PR 5 congestion loop, in the
//! self-stabilization frame of Dolev et al.: after a fail-stop fault, the
//! surviving fleet's merged memory is byte-identical to a same-seed run
//! that never had the failure.

use std::sync::{Arc, Mutex};

use dta_collector::service::CollectorService;
use dta_core::{DtaReport, PrimitiveHeader, TelemetryKey};
use dta_hash::scratch::KeyScratch;
use dta_net::{Emission, NetNode, NodeId, Packet, SimTime};
use dta_rdma::packet::RocePacket;

use crate::link::{CollectorLink, InProcessLink, LinkKind, LinkResponse, LinkRun, RoceLink};
use crate::node::{ingress, Ingress, TranslatorNodeStats};
use crate::outstanding::{Entry, Outstanding};
use crate::partition::{collector_route, collector_route_list};
use crate::rebalance::{MigPrimitive, RebalanceConfig, RebalanceDriver, RebalanceStats};
use crate::shard::ReportOrigin;
use crate::translator::{TranslatorConfig, TranslatorStats};

/// Salt for the survivor-fallback reduction. The primary reduction fixes
/// `mix32(checksum)` to a narrow band for any one collector's range, so
/// re-reducing the *same* mix over the survivor count would land the whole
/// dead range on one or two survivors; folding a distinct salt into the
/// mix input (the same domain-separation mechanism as `SHARD_SALT`)
/// decorrelates the two reductions and spreads the range evenly.
const FAILOVER_SALT: u32 = 0xFA11_0E55;

/// Epoch-stamped collector membership and key routing.
///
/// Owner resolution is a pure function of `(key digest, alive set)`:
///
/// 1. `primary = collector_route(checksum, n)` — the salt-0 reduction the
///    [`Partitioner`] uses, over the *full* fleet size, so routing is
///    stable across membership churn for keys whose primary is alive;
/// 2. if the primary is dead, the digest is re-salted with
///    [`FAILOVER_SALT`], re-reduced over the number of survivors, and
///    mapped onto the ordered alive list.
///
/// Rule 1 means a rejoin instantly restores primary routing (new writes go
/// home); rule 2 means survivors share a dead node's range evenly without
/// any coordination or handoff table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectorRoutingTable {
    alive: Vec<bool>,
    epoch: u64,
}

impl CollectorRoutingTable {
    /// Table over `n` collectors, all alive, epoch 0.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "a fleet needs at least one collector");
        CollectorRoutingTable { alive: vec![true; n as usize], epoch: 0 }
    }

    /// Fleet size (alive or dead).
    pub fn len(&self) -> u32 {
        self.alive.len() as u32
    }

    /// False — a table always has at least one entry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether collector `c` is currently routed to.
    pub fn is_alive(&self, c: u32) -> bool {
        self.alive[c as usize]
    }

    /// Number of live collectors.
    fn alive_count(&self) -> u32 {
        self.alive.iter().filter(|a| **a).count() as u32
    }

    /// The alive bitmap, fleet-indexed.
    fn alive_slots(&self) -> &[bool] {
        &self.alive
    }

    /// Current table epoch (bumped once per membership change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Mark `c` dead; returns false if it already was (idempotent).
    pub fn mark_dead(&mut self, c: u32) -> bool {
        if !self.alive[c as usize] {
            return false;
        }
        assert!(self.alive_count() > 1, "cannot kill the last live collector");
        self.alive[c as usize] = false;
        self.epoch += 1;
        true
    }

    /// Mark `c` alive again; returns false if it already was.
    pub fn mark_alive(&mut self, c: u32) -> bool {
        if self.alive[c as usize] {
            return false;
        }
        self.alive[c as usize] = true;
        self.epoch += 1;
        true
    }

    /// Bump the epoch without a membership change — the rebalance fence
    /// and release bumps, which change *interpretation* (double-write vs
    /// single-owner) rather than the alive set.
    pub fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// The always-alive-primary owner for a key checksum.
    fn primary_checksum(&self, checksum: u32) -> u32 {
        collector_route(checksum, self.len())
    }

    /// Current owner for a key checksum (primary, or survivor fallback).
    pub fn owner_checksum(&self, checksum: u32) -> u32 {
        let primary = self.primary_checksum(checksum);
        if self.alive[primary as usize] {
            return primary;
        }
        self.nth_alive(collector_route(checksum ^ FAILOVER_SALT, self.alive_count()))
    }

    /// Current owner for an Append list id.
    pub fn owner_list(&self, list_id: u32) -> u32 {
        let primary = collector_route_list(list_id, self.len());
        if self.alive[primary as usize] {
            return primary;
        }
        self.nth_alive(collector_route_list(list_id ^ FAILOVER_SALT, self.alive_count()))
    }

    /// The `k`-th live collector in fleet order.
    fn nth_alive(&self, k: u32) -> u32 {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .nth(k as usize)
            .map(|(i, _)| i as u32)
            .expect("routing with no live collectors")
    }
}

/// Administrative fleet events, delivered to the fleet node between engine
/// steps (pushed by the scenario harness, consumed at the node's next
/// tick — a deterministic boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// RDMA_CM teardown observed for `collector` (the CM-teardown
    /// detection path; the in-process link's only fail-stop signal).
    Teardown {
        /// Fleet index of the torn-down collector.
        collector: u32,
    },
    /// Force a failover for a *live* collector (a false-positive
    /// suspicion): exercises replay idempotence.
    ForceFailover {
        /// Fleet index of the suspected collector.
        collector: u32,
    },
    /// Re-admit a previously failed collector.
    Rejoin {
        /// Fleet index of the rejoining collector.
        collector: u32,
    },
    /// Start the epoch-fenced migration of `collector`'s stranded key
    /// range back from its fallback owners (after a rejoin).
    Rebalance {
        /// Fleet index of the rejoined collector.
        collector: u32,
    },
}

/// Cloneable handle for signalling [`FleetEvent`]s into a running fleet
/// node (the node drains it at each tick).
#[derive(Debug, Clone, Default)]
pub struct FleetAdmin(Arc<Mutex<Vec<FleetEvent>>>);

impl FleetAdmin {
    /// Fresh empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue an event for the next tick.
    pub fn signal(&self, event: FleetEvent) {
        self.0.lock().unwrap().push(event);
    }

    /// Move all pending events into `into` (FIFO).
    fn drain(&self, into: &mut Vec<FleetEvent>) {
        into.append(&mut self.0.lock().unwrap());
    }
}

/// A ledgered report and its return address: replay re-translates it from
/// scratch and re-posts it with the same origin.
type Replay = (DtaReport, ReportOrigin);

/// Failover counters, surfaced in `ScenarioReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverStats {
    /// Collectors failed over (genuine or spurious).
    pub failovers: u64,
    /// Failovers forced on a live collector ([`FleetEvent::ForceFailover`]).
    pub spurious: u64,
    /// Collectors re-admitted.
    pub rejoins: u64,
    /// Failovers detected by RDMA completion timeout.
    pub detected_timeout: u64,
    /// Failovers detected by RDMA_CM teardown.
    pub detected_teardown: u64,
    /// CM `Disconnect` (DREQ) events issued/observed during failovers.
    pub cm_disconnects: u64,
    /// Reports routed to a non-primary owner (the re-routed key range).
    pub rerouted: u64,
    /// Ledger entries replayed by failovers.
    pub replayed: u64,
    /// Replayed entries that had already been acked (spurious-failover
    /// idempotence territory).
    pub replayed_acked: u64,
    /// Ledger entries replayed because a NAK proved them unexecuted
    /// (post-rejoin PSN resynchronization).
    pub nak_replayed: u64,
    /// Entries ever recorded in the ledger.
    pub ledger_recorded: u64,
    /// Entries evicted by ledger capacity (un-replayable had a failover
    /// hit their collector; 0 in a well-provisioned run).
    pub ledger_evicted: u64,
    /// Entries still resident at finish.
    pub ledger_resident: u64,
    /// Final routing-table epoch.
    pub epoch: u64,
    /// Events ignored as no-ops: a repeated `Kill`/`Rejoin` in the same
    /// epoch (a repeat must not double-bump the epoch), a kill of the last
    /// live collector, or a collector index outside the fleet.
    pub duplicate_events: u64,
}

impl FailoverStats {
    /// The ledger accounting identity: every recorded entry is evicted,
    /// replayed (failover or NAK), or still resident.
    pub fn ledger_closes(&self) -> bool {
        self.ledger_recorded
            == self.ledger_evicted + self.replayed + self.nak_replayed + self.ledger_resident
    }
}

/// Fleet-node sizing and detection thresholds.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-endpoint (RoCE) / per-shard (in-process) translator
    /// configuration.
    pub translator: TranslatorConfig,
    /// Completion timeout: a collector with `min_unacked` outstanding
    /// sends and no response for this long is declared dead (RoCE link).
    pub timeout_ns: u64,
    /// Outstanding-send floor for the timeout rule. Must exceed the
    /// worst-case *live* backlog from per-QP ACK coalescing — with the two
    /// service QPs replayable fleet traffic rides (KW + CMS), that bound
    /// is `2 * (ack_coalesce - 1)` — or a quiet-but-live collector gets
    /// declared dead.
    pub min_unacked: u64,
    /// Per-collector replay-window capacity.
    pub ledger_capacity: usize,
    /// Rebalance sizing and the seed of the migration path's fault
    /// injector; `None` disables migration (no migration QPs are even
    /// connected).
    pub rebalance: Option<(RebalanceConfig, u64)>,
}

/// Aggregated results of a fleet run.
#[derive(Debug)]
pub struct FleetRunReport {
    /// Translator counters merged over endpoints / shards.
    pub translator: TranslatorStats,
    /// Reports each shard translated, pipelines in fleet order (empty on
    /// the RoCE link).
    pub per_shard_reports_in: Vec<u64>,
    /// RDMA verbs the link itself executed (`None` on the RoCE link: the
    /// collector NICs execute and count them).
    pub executed: Option<u64>,
    /// Failover counters.
    pub failover: FailoverStats,
    /// Rebalance counters, when a rebalance was configured.
    pub rebalance: Option<RebalanceStats>,
    /// Final routing table (drives the survivor-side audit).
    pub table: CollectorRoutingTable,
}

/// The migration driver plus its recycled pump buffers.
#[derive(Debug)]
struct Migration {
    driver: RebalanceDriver,
    /// `(collector, request)` pairs of one pump.
    request_buf: Vec<(u32, RocePacket)>,
    /// Responses a link produced on the spot.
    response_buf: Vec<RocePacket>,
    replay_buf: Vec<Replay>,
}

/// `(primitive, key, redundancy)` of a migratable report (KW / INC only;
/// the other primitives are not fleet-routed by key).
fn migratable(report: &DtaReport) -> Option<(MigPrimitive, &TelemetryKey, u8)> {
    match &report.primitive {
        PrimitiveHeader::KeyWrite(h) => Some((MigPrimitive::KeyWrite, &h.key, h.redundancy)),
        PrimitiveHeader::KeyIncrement(h) => {
            Some((MigPrimitive::KeyIncrement, &h.key, h.redundancy))
        }
        _ => None,
    }
}

/// The translator as an intercepting [`NetNode`], in front of a collector
/// tier of any size — one collector is a fleet of one.
///
/// Reports route collector-first through the [`CollectorRoutingTable`],
/// are posted toward the owner over the collector link ([`LinkKind`])
/// chosen at connect time, and are ledgered against that owner.
/// Everything the recovery protocol decides — reroute, fence, defer,
/// double-write, replay, epoch bumps, release — is decided here, once; the
/// link only moves bytes and reports what came back.
#[derive(Debug)]
pub struct FleetNode {
    link: Box<dyn CollectorLink>,
    table: CollectorRoutingTable,
    /// The replay ledger: one window per collector.
    ledger: Vec<Outstanding<Replay>>,
    admin: FleetAdmin,
    key_scratch: KeyScratch,
    event_buf: Vec<FleetEvent>,
    replay_buf: Vec<Entry<Replay>>,
    rebalance: Option<Migration>,
    /// Per-node counters.
    pub stats: TranslatorNodeStats,
    /// Failover counters.
    pub failover: FailoverStats,
}

impl FleetNode {
    /// Connect to every collector in `peers` (fleet order) over the link
    /// `kind` names, and return the node plus the admin handle for
    /// signalling fleet events.
    ///
    /// `peers` entries are `(node id, ip, service)`. Call before the
    /// services move into their own network nodes: both links run their CM
    /// handshakes against them, the in-process link clones their region
    /// registries.
    pub fn connect(
        config: &FleetConfig,
        kind: LinkKind,
        peers: &mut [(NodeId, u32, &mut CollectorService)],
    ) -> (Self, FleetAdmin) {
        assert!(!peers.is_empty(), "a fleet needs at least one collector");
        // Fleet collectors share one memory geometry.
        let kw = peers[0].2.keywrite.as_ref().map(|s| *s.layout());
        let cms = peers[0].2.key_increment.as_ref().map(|s| *s.layout());
        let n = peers.len() as u32;
        let admin = FleetAdmin::new();
        let mut migration = Vec::new();
        let link: Box<dyn CollectorLink> = match kind {
            LinkKind::Roce { my_id, my_ip } => {
                Box::new(RoceLink::connect(config, peers, my_id, my_ip, &mut migration))
            }
            LinkKind::InProcess { my_id, my_ip, shards } => Box::new(InProcessLink::connect(
                config,
                shards,
                peers,
                my_id,
                my_ip,
                &mut migration,
            )),
        };
        let node = FleetNode {
            link,
            table: CollectorRoutingTable::new(n),
            // Unused by a fleet of one (see `post`), whose config may
            // leave the capacity zero.
            ledger: (0..n).map(|_| Outstanding::new(config.ledger_capacity.max(1))).collect(),
            admin: admin.clone(),
            // A fleet of one never digests (see `route`): the minimum table,
            // not a pooled ~1 MB one.
            key_scratch: KeyScratch::new(if n > 1 { 16 * 1024 } else { 0 }, 1),
            event_buf: Vec::new(),
            replay_buf: Vec::new(),
            rebalance: config.rebalance.map(|(rb, seed)| Migration {
                driver: RebalanceDriver::new(rb, seed, kw, cms, migration),
                request_buf: Vec::new(),
                response_buf: Vec::new(),
                replay_buf: Vec::new(),
            }),
            stats: TranslatorNodeStats::default(),
            failover: FailoverStats::default(),
        };
        (node, admin)
    }

    /// `(current owner, primary owner, key checksum)` for a report. The
    /// checksum is digested here once and handed to every later step on
    /// the report (fence record, deferral, double-write lookup); Append
    /// routes by list id and has none. A fleet of one has nothing to
    /// decide, so nothing is digested.
    fn route(&mut self, report: &DtaReport) -> (u32, u32, Option<u32>) {
        if self.table.len() == 1 {
            return (0, 0, None);
        }
        let key = match &report.primitive {
            PrimitiveHeader::KeyWrite(h) => &h.key,
            PrimitiveHeader::KeyIncrement(h) => &h.key,
            PrimitiveHeader::Postcarding(h) => &h.key,
            PrimitiveHeader::Append(h) => {
                let primary = collector_route_list(h.list_id, self.table.len());
                return (self.table.owner_list(h.list_id), primary, None);
            }
        };
        let checksum = self.key_scratch.digests(key.as_bytes(), 0).checksum;
        (self.table.owner_checksum(checksum), self.table.primary_checksum(checksum), Some(checksum))
    }

    /// Record a reroute in the migration fence (reroute sites: receive,
    /// fail-time window replay, NAK replay).
    fn record_fence(&mut self, report: &DtaReport, checksum: Option<u32>, fallback_owner: u32) {
        let Some(rb) = self.rebalance.as_mut() else { return };
        let (Some((primitive, key, redundancy)), Some(checksum)) = (migratable(report), checksum)
        else {
            return;
        };
        rb.driver.fence_record(primitive, key, checksum, redundancy, fallback_owner);
    }

    /// Post `report` toward collector `owner` and ledger it against that
    /// owner — unless the fleet is one collector, which has no survivor to
    /// replay to.
    fn post(
        &mut self,
        owner: u32,
        now_ns: u64,
        report: DtaReport,
        origin: ReportOrigin,
        out: &mut Vec<Emission>,
    ) {
        let posted = self.link.post_report(owner, now_ns, &report, origin, out);
        if let Some((qpn, psn, acked)) = posted.filter(|_| self.table.len() > 1) {
            self.ledger[owner as usize].record(qpn, psn, acked, (report, origin));
        }
    }

    /// Re-route entries drained from the ledger (a failed collector's
    /// window, a NAK'd suffix) through the current table, in ledger FIFO
    /// order.
    fn replay(&mut self, now_ns: u64, entries: &mut Vec<Entry<Replay>>, out: &mut Vec<Emission>) {
        for Entry { item: (report, origin), .. } in entries.drain(..) {
            let (owner, primary, checksum) = self.route(&report);
            debug_assert!(self.table.is_alive(owner), "table must not route to a dead collector");
            if owner != primary {
                self.record_fence(&report, checksum, owner);
            }
            self.post(owner, now_ns, report, origin, out);
        }
    }

    /// Fail collector `c`: stamp the table, tear down its connections, and
    /// replay its whole ledger window through the survivors. False (a
    /// counted no-op) when `c` is already dead or is the last survivor.
    fn fail(&mut self, now_ns: u64, c: u32, out: &mut Vec<Emission>) -> bool {
        if !self.table.is_alive(c) || self.table.alive_count() == 1 {
            self.failover.duplicate_events += 1;
            return false;
        }
        self.table.mark_dead(c);
        self.failover.failovers += 1;
        self.failover.epoch = self.table.epoch();
        self.failover.cm_disconnects += self.link.on_fail(c);
        let mut window = std::mem::take(&mut self.replay_buf);
        self.ledger[c as usize].take(|_| true, &mut window);
        self.failover.replayed += window.len() as u64;
        self.failover.replayed_acked += window.iter().filter(|e| e.acked).count() as u64;
        self.replay(now_ns, &mut window, out);
        self.replay_buf = window;
        true
    }

    /// Re-admit collector `c`.
    fn rejoin(&mut self, now_ns: u64, c: u32) {
        if !self.table.mark_alive(c) {
            self.failover.duplicate_events += 1;
            return;
        }
        self.failover.rejoins += 1;
        self.failover.epoch = self.table.epoch();
        if let Some(rb) = self.rebalance.as_mut() {
            rb.driver.on_rejoin(c);
        }
        self.link.on_rejoin(c, now_ns);
    }

    /// Fence the routing table and start draining the stranded range.
    fn start_rebalance(&mut self, c: u32) {
        let Some(rb) = self.rebalance.as_mut() else { return };
        if !self.table.is_alive(c) {
            return; // the victim never rejoined
        }
        let epoch = self.table.bump_epoch();
        self.failover.epoch = epoch;
        rb.driver.start_drain(epoch);
    }

    /// Drive the migration: release check, wire requests (and the answers
    /// a link gave on the spot), and replays.
    fn pump_rebalance(&mut self, now_ns: u64, out: &mut Vec<Emission>) {
        let Some(rb) = self.rebalance.as_mut() else { return };
        if rb.driver.release_ready() {
            let epoch = self.table.bump_epoch();
            self.failover.epoch = epoch;
            rb.driver.mark_released(epoch);
        }
        rb.request_buf.clear();
        rb.driver.pump(now_ns, &mut rb.request_buf);
        for (c, pkt) in &rb.request_buf {
            self.link.post_wire(*c, pkt, out, &mut rb.response_buf);
        }
        for response in rb.response_buf.drain(..) {
            rb.driver.on_response(&response);
        }
        // Drained state and released deferrals re-enter the report path.
        let mut replays = std::mem::take(&mut rb.replay_buf);
        replays.clear();
        rb.driver.take_replays(&mut replays);
        for (report, origin) in replays.drain(..) {
            let (owner, _, _) = self.route(&report);
            self.post(owner, now_ns, report, origin, out);
        }
        if let Some(rb) = self.rebalance.as_mut() {
            rb.replay_buf = replays;
        }
    }

    /// Shut the link down, merge its counters, and close out the ledger
    /// accounting.
    pub fn finish(mut self) -> FleetRunReport {
        let LinkRun { translator, per_shard_reports_in, executed } = self.link.finish();
        for window in &self.ledger {
            debug_assert!(window.closes(), "replay window leaked: {window:?}");
            self.failover.ledger_recorded += window.recorded;
            self.failover.ledger_evicted += window.evicted;
            self.failover.ledger_resident += window.len() as u64;
        }
        FleetRunReport {
            translator,
            per_shard_reports_in,
            executed,
            failover: self.failover,
            rebalance: self.rebalance.as_mut().map(|rb| rb.driver.finish()),
            table: self.table,
        }
    }
}

impl NetNode for FleetNode {
    fn receive(&mut self, now: SimTime, packet: Packet, out: &mut Vec<Emission>) {
        let now_ns = now.as_nanos();
        match ingress(packet, &mut self.stats, out) {
            Some(Ingress::Report(report, origin)) => {
                let (owner, primary, checksum) = self.route(&report);
                if owner != primary {
                    self.failover.rerouted += 1;
                    self.record_fence(&report, checksum, owner);
                } else if let Some(rb) = self.rebalance.as_mut() {
                    // Post-rejoin live traffic for a still-fenced key:
                    // defer INC until its baseline lands, double-write KW
                    // to the fallback owner (first) until its copy is
                    // zeroed.
                    if let (Some((primitive, _, _)), Some(checksum)) = (migratable(&report), checksum) {
                        if rb.driver.try_defer(primitive, checksum, &report, origin) {
                            return; // re-emerges via take_replays
                        }
                        if primitive == MigPrimitive::KeyWrite {
                            if let Some(fallback) = rb.driver.double_write_target(checksum) {
                                self.post(fallback, now_ns, report.clone(), origin, out);
                            }
                        }
                    }
                }
                self.post(owner, now_ns, report, origin, out);
            }
            Some(Ingress::Roce { from, payload }) => {
                let Some(response) = self.link.take_response(now_ns, from, payload) else {
                    self.stats.malformed += 1;
                    return;
                };
                self.stats.roce_responses += 1;
                match response {
                    LinkResponse::Consumed => {}
                    LinkResponse::Ack { collector, qpn, psn } => {
                        self.ledger[collector as usize].ack(qpn, psn)
                    }
                    LinkResponse::Nak { collector, qpn, expected } => {
                        // Sound because the only loss source here is
                        // contiguous (a dead or rejoining node sinks
                        // everything from some PSN on), so the NAK'd suffix
                        // holds no partially executed report.
                        let mut suffix = std::mem::take(&mut self.replay_buf);
                        let window = &mut self.ledger[collector as usize];
                        window.take_unacked_from(qpn, expected, &mut suffix);
                        self.failover.nak_replayed += suffix.len() as u64;
                        self.replay(now_ns, &mut suffix, out);
                        self.replay_buf = suffix;
                    }
                    LinkResponse::Migration(pkt) => {
                        if let Some(rb) = self.rebalance.as_mut() {
                            rb.driver.on_response(&pkt);
                        }
                    }
                }
            }
            None => {}
        }
    }

    /// Tick order: admin events → timeout detection → link flush →
    /// migration pump.
    fn tick(&mut self, now: SimTime, out: &mut Vec<Emission>) -> bool {
        let now_ns = now.as_nanos();
        let fleet = self.table.len();
        let mut events = std::mem::take(&mut self.event_buf);
        self.admin.drain(&mut events);
        for event in events.drain(..) {
            match event {
                // The admin handle is public and takes any index: one past
                // the fleet is ignored like any other event with no effect.
                FleetEvent::Teardown { collector }
                | FleetEvent::ForceFailover { collector }
                | FleetEvent::Rejoin { collector }
                | FleetEvent::Rebalance { collector }
                    if collector >= fleet =>
                {
                    self.failover.duplicate_events += 1;
                }
                FleetEvent::Teardown { collector } => {
                    if self.fail(now_ns, collector, out) {
                        self.failover.detected_teardown += 1;
                    }
                }
                FleetEvent::ForceFailover { collector } => {
                    if self.fail(now_ns, collector, out) {
                        self.failover.spurious += 1;
                    }
                }
                FleetEvent::Rejoin { collector } => self.rejoin(now_ns, collector),
                FleetEvent::Rebalance { collector } => self.start_rebalance(collector),
            }
        }
        self.event_buf = events;
        for c in self.link.timed_out(now_ns, self.table.alive_slots()) {
            // Never armed against the last survivor: not a counted event.
            if self.table.alive_count() > 1 && self.fail(now_ns, c, out) {
                self.failover.detected_timeout += 1;
            }
        }
        self.link.flush(now_ns, self.table.alive_slots(), out);
        self.pump_rebalance(now_ns, out);
        true
    }

    fn quiesce(&mut self) {
        self.link.quiesce();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use bytes::Bytes;
    use dta_collector::service::ServiceConfig;
    use dta_collector::{CollectorNode, QueryOutcome, QueryPolicy};
    use dta_core::framing::UdpPacket;
    use dta_core::{TelemetryKey, DTA_UDP_PORT};
    use dta_net::{LinkConfig, Network, Topology};

    /// A fleet of one over the in-process link, `shards` workers.
    fn in_process_node(shards: usize, svc: &mut CollectorService) -> FleetNode {
        let config = FleetConfig {
            translator: TranslatorConfig::default(),
            timeout_ns: 1,
            min_unacked: 1,
            ledger_capacity: 1,
            rebalance: None,
        };
        let kind = LinkKind::InProcess { my_id: NodeId(1), my_ip: 0x0A00_0001, shards };
        FleetNode::connect(&config, kind, &mut [(NodeId(2), 0x0A00_0900, svc)]).0
    }

    /// Reports over the simulated network → sharded ingest → worker shards →
    /// shard NICs → collector memory: the PR 2 pipeline driven from the node
    /// layer.
    #[test]
    fn in_process_node_translates_network_reports_into_collector_memory() {
        let mut topo = Topology::new(3);
        topo.connect(NodeId(0), NodeId(1));
        topo.connect(NodeId(1), NodeId(2));
        let mut net = Network::new(topo.shortest_path_routing());
        net.add_duplex_link(NodeId(0), NodeId(1), LinkConfig::dc_100g());
        net.add_duplex_link(NodeId(1), NodeId(2), LinkConfig::dc_100g());

        let mut svc = CollectorService::new(ServiceConfig::default());
        net.add_interceptor(NodeId(1), Box::new(in_process_node(2, &mut svc)));
        net.add_node(NodeId(2), Box::new(CollectorNode::new(svc, NodeId(2), 0x0A00_0900)));

        for i in 0..100u64 {
            let report =
                DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 2, vec![i as u8; 4]);
            let udp = UdpPacket::frame(
                0x0A00_0002,
                4000,
                0x0A00_0900,
                DTA_UDP_PORT,
                report.encode().unwrap(),
            );
            net.send_from(NodeId(0), Packet::new(NodeId(0), NodeId(2), udp.encode()));
        }
        net.run_to_idle();

        let tor: Box<dyn std::any::Any> = net.remove_node(NodeId(1)).unwrap();
        let tor = tor.downcast::<FleetNode>().unwrap();
        assert_eq!(tor.stats.dta_in, 100);
        let run = tor.finish();
        assert_eq!(run.translator.reports_in, 100);
        assert_eq!(run.executed, Some(200), "N=2 -> 2 RDMA writes per report");
        assert_eq!(run.per_shard_reports_in.len(), 2);
        assert!(run.per_shard_reports_in.iter().all(|&n| n > 0), "both shards loaded");
        assert_eq!(run.failover, FailoverStats::default(), "a fleet of one keeps no ledger");

        let col: Box<dyn std::any::Any> = net.remove_node(NodeId(2)).unwrap();
        let col = col.downcast::<CollectorNode>().unwrap();
        // No RoCE traffic crossed the network: shard endpoints wrote memory
        // directly.
        assert_eq!(col.stats.executed, 0);
        let kw = col.service.keywrite.as_ref().unwrap();
        for i in 0..100u64 {
            assert_eq!(
                kw.query(&TelemetryKey::from_u64(i), 2, QueryPolicy::Plurality),
                QueryOutcome::Found(vec![i as u8; 4]),
                "key {i}"
            );
        }
    }

    #[test]
    fn in_process_node_forwards_user_traffic_and_rejects_garbage() {
        let mut svc = CollectorService::new(ServiceConfig::default());
        let mut node = in_process_node(1, &mut svc);
        // User traffic (non-DTA UDP port) forwards untouched.
        let user = UdpPacket::frame(1, 1234, 9, 80, Bytes::from_static(b"http"));
        let mut out = Vec::new();
        node.receive(SimTime::ZERO, Packet::new(NodeId(0), NodeId(9), user.encode()), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(node.stats.forwarded, 1);
        // Garbage is malformed, not a crash.
        out.clear();
        node.receive(
            SimTime::ZERO,
            Packet::new(NodeId(0), NodeId(9), Bytes::from_static(b"???")),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(node.stats.malformed, 1);
        node.finish();
    }

    #[test]
    fn routing_table_owner_is_primary_while_alive() {
        let table = CollectorRoutingTable::new(5);
        let part = Partitioner::new(5);
        for csum in 0..10_000u32 {
            assert_eq!(table.owner_checksum(csum), part.route_checksum(csum));
            assert_eq!(table.primary_checksum(csum), part.route_checksum(csum));
        }
        assert_eq!(table.epoch(), 0);
    }

    #[test]
    fn dead_primary_reroutes_to_survivors_only_and_evenly() {
        let mut table = CollectorRoutingTable::new(4);
        assert!(table.mark_dead(2));
        assert!(!table.mark_dead(2), "second kill is a no-op");
        assert_eq!(table.epoch(), 1);

        let mut moved = [0u64; 4];
        for csum in 0..40_000u32 {
            let owner = table.owner_checksum(csum);
            assert!(table.is_alive(owner), "owner {owner} is dead");
            if table.primary_checksum(csum) == 2 {
                moved[owner as usize] += 1;
            } else {
                // Keys with a live primary must not move.
                assert_eq!(owner, table.primary_checksum(csum));
            }
        }
        assert_eq!(moved[2], 0);
        let total: u64 = moved.iter().sum();
        for (c, &m) in moved.iter().enumerate() {
            if c != 2 {
                assert!(
                    m > total / 6,
                    "survivor {c} took {m}/{total} of the dead range (want ~1/3)"
                );
            }
        }
    }

    #[test]
    fn rejoin_restores_primary_routing_and_bumps_epoch() {
        let mut table = CollectorRoutingTable::new(3);
        table.mark_dead(1);
        assert!(table.mark_alive(1));
        assert!(!table.mark_alive(1));
        assert_eq!(table.epoch(), 2);
        let part = Partitioner::new(3);
        for csum in 0..10_000u32 {
            assert_eq!(table.owner_checksum(csum), part.route_checksum(csum));
        }
    }

    #[test]
    #[should_panic(expected = "last live collector")]
    fn killing_the_last_collector_panics() {
        let mut table = CollectorRoutingTable::new(2);
        table.mark_dead(0);
        table.mark_dead(1);
    }

    #[test]
    fn failover_stats_ledger_identity() {
        let stats = FailoverStats {
            ledger_recorded: 10,
            ledger_evicted: 2,
            replayed: 3,
            nak_replayed: 1,
            ledger_resident: 4,
            ..FailoverStats::default()
        };
        assert!(stats.ledger_closes());
        assert!(!FailoverStats { ledger_resident: 3, ..stats }.ledger_closes());
    }

    #[test]
    fn admin_queue_is_fifo_and_shared() {
        let admin = FleetAdmin::new();
        let clone = admin.clone();
        clone.signal(FleetEvent::Teardown { collector: 1 });
        admin.signal(FleetEvent::Rejoin { collector: 1 });
        let mut events = Vec::new();
        admin.drain(&mut events);
        assert_eq!(
            events,
            [FleetEvent::Teardown { collector: 1 }, FleetEvent::Rejoin { collector: 1 }]
        );
        events.clear();
        admin.drain(&mut events);
        assert!(events.is_empty());
    }
}
