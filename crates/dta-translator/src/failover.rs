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
//! * fail-stop detection — two signals, matching the two deployments:
//!   the single-threaded [`FleetTranslatorNode`] watches RDMA completions
//!   per collector and declares death after `min_unacked` sends with no
//!   response for `timeout_ns` (completion timeout); the sharded
//!   [`FleetShardedNode`] executes RDMA in-process and instead consumes an
//!   RDMA_CM teardown ([`crate::cm::CmEvent::Disconnect`]) surfaced through
//!   the [`FleetAdmin`] handle.
//! * [`ReplayLedger`] — a bounded, per-collector FIFO window of recently
//!   translated Key-Write / Key-Increment reports. On failover the whole
//!   window for the dead collector is replayed through the survivors.
//!   Acked entries are *not* retired from the window (only capacity evicts
//!   them), because a spurious failover must re-apply even acknowledged
//!   writes at the new owner: queries route by the final table, so the
//!   suspected node's copies stop counting the moment it is marked dead.
//!   Write-once Key-Write and commutative Key-Increment make the replay
//!   order-invariant and (per final-table routing) exactly-once.
//!
//! The convergence claim mirrors the PR 5 congestion loop, in the
//! self-stabilization frame of Dolev et al.: after a fail-stop fault, the
//! surviving fleet's merged memory is byte-identical to a same-seed run
//! that never had the failure.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use dta_collector::layout::{CmsLayout, KwLayout};
use dta_collector::service::{CollectorService, SERVICE_CMS, SERVICE_KW};
use bytes::Bytes;
use dta_core::framing::UdpPacket;
use dta_core::{DtaReport, PrimitiveHeader, TelemetryKey, DTA_UDP_PORT};
use dta_hash::scratch::KeyScratch;
use dta_net::{Emission, NetNode, NodeId, Packet, SimTime};
use dta_rdma::cm::CmRequester;
use dta_rdma::mr::MemoryRegion;
use dta_rdma::packet::{Opcode, Reth, RocePacket, ROCE_UDP_PORT};

use crate::node::TranslatorNodeStats;
use crate::partition::{collector_route, collector_route_list};
use crate::rebalance::{
    link_of, MigPrimitive, RebalanceConfig, RebalanceDriver, RebalanceStats, WireEmission, WireKind,
};
use crate::shard::{ReportOrigin, ShardedConfig, ShardedRunReport, ShardedTranslator};
use crate::translator::{Translator, TranslatorConfig, TranslatorOutput, TranslatorStats};

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
    entry_epoch: Vec<u64>,
    epoch: u64,
}

impl CollectorRoutingTable {
    /// Table over `n` collectors, all alive, epoch 0.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "a fleet needs at least one collector");
        CollectorRoutingTable {
            alive: vec![true; n as usize],
            entry_epoch: vec![0; n as usize],
            epoch: 0,
        }
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
    pub fn alive_count(&self) -> u32 {
        self.alive.iter().filter(|a| **a).count() as u32
    }

    /// The alive bitmap, fleet-indexed.
    pub fn alive_slots(&self) -> &[bool] {
        &self.alive
    }

    /// Current table epoch (bumped once per membership change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epoch at which collector `c`'s entry last changed (0 = never).
    pub fn entry_epoch(&self, c: u32) -> u64 {
        self.entry_epoch[c as usize]
    }

    /// Mark `c` dead; returns false if it already was (idempotent).
    pub fn mark_dead(&mut self, c: u32) -> bool {
        if !self.alive[c as usize] {
            return false;
        }
        assert!(self.alive_count() > 1, "cannot kill the last live collector");
        self.alive[c as usize] = false;
        self.epoch += 1;
        self.entry_epoch[c as usize] = self.epoch;
        true
    }

    /// Mark `c` alive again; returns false if it already was.
    pub fn mark_alive(&mut self, c: u32) -> bool {
        if self.alive[c as usize] {
            return false;
        }
        self.alive[c as usize] = true;
        self.epoch += 1;
        self.entry_epoch[c as usize] = self.epoch;
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
    pub fn primary_checksum(&self, checksum: u32) -> u32 {
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
    /// detection path; the sharded deployment's only fail-stop signal).
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

/// One ledgered report: everything needed to replay it elsewhere.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Fleet index the report was translated toward.
    pub collector: u32,
    /// Requester-side QPN the resulting RDMA rode on (ACKs name it).
    pub qpn: u32,
    /// PSN of the last RDMA packet of this report; the entry is acked once
    /// the cumulative ACK for its QP reaches this PSN.
    pub last_psn: u32,
    /// Whether the collector acknowledged the report's writes.
    pub acked: bool,
    /// The report itself (replay re-translates it from scratch).
    pub report: DtaReport,
    /// Return address (sharded replay re-ingests with it).
    pub origin: ReportOrigin,
}

/// Bounded per-collector FIFO window of recently translated reports.
///
/// Capacity — not acknowledgement — is the only thing that retires an
/// entry, so a failover can replay acked writes too (required for spurious
/// failovers, see module docs). Accounting closes exactly:
/// `recorded == evicted + drained + resident`, where drains are failover
/// or NAK replays.
#[derive(Debug)]
pub struct ReplayLedger {
    windows: Vec<VecDeque<LedgerEntry>>,
    capacity: usize,
    /// Entries ever recorded (replays re-record at the new owner).
    pub recorded: u64,
    /// Entries evicted by capacity before any failover needed them.
    pub evicted: u64,
}

impl ReplayLedger {
    /// Ledger over `collectors` windows of `capacity` entries each.
    pub fn new(collectors: u32, capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity ledger cannot replay anything");
        ReplayLedger {
            windows: (0..collectors).map(|_| VecDeque::new()).collect(),
            capacity,
            recorded: 0,
            evicted: 0,
        }
    }

    /// Append an entry to its collector's window, evicting the oldest
    /// entry if the window is full.
    pub fn record(&mut self, entry: LedgerEntry) {
        let window = &mut self.windows[entry.collector as usize];
        if window.len() == self.capacity {
            window.pop_front();
            self.evicted += 1;
        }
        window.push_back(entry);
        self.recorded += 1;
    }

    /// Apply a cumulative ACK: every entry on `(collector, qpn)` whose
    /// last PSN is covered by `psn` becomes acked.
    pub fn mark_acked(&mut self, collector: u32, qpn: u32, psn: u32) {
        for e in self.windows[collector as usize].iter_mut() {
            if e.qpn == qpn && !e.acked && e.last_psn <= psn {
                e.acked = true;
            }
        }
    }

    /// Take the whole window of `collector` (failover replay), FIFO order.
    pub fn drain_for(&mut self, collector: u32, into: &mut Vec<LedgerEntry>) {
        into.extend(self.windows[collector as usize].drain(..));
    }

    /// Take the un-acked suffix a NAK proves unexecuted: entries on
    /// `(collector, qpn)` with `last_psn >= expected_psn`. Sound because
    /// the only loss source here is contiguous (a dead/rejoining node
    /// sinks everything from some PSN onward), so a NAK'd suffix contains
    /// no partially executed entries.
    pub fn drain_nak(
        &mut self,
        collector: u32,
        qpn: u32,
        expected_psn: u32,
        into: &mut Vec<LedgerEntry>,
    ) {
        let window = &mut self.windows[collector as usize];
        let mut i = 0;
        while i < window.len() {
            if window[i].qpn == qpn && !window[i].acked && window[i].last_psn >= expected_psn {
                into.push(window.remove(i).unwrap());
            } else {
                i += 1;
            }
        }
    }

    /// Entries currently resident across all windows.
    pub fn resident(&self) -> u64 {
        self.windows.iter().map(|w| w.len() as u64).sum()
    }
}

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
    /// Duplicate `Kill`/`Rejoin`-class events ignored in the same epoch
    /// (idempotence hardening: a repeat must not double-bump the epoch).
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
    /// Per-endpoint translator configuration.
    pub translator: TranslatorConfig,
    /// Completion timeout: a collector with `min_unacked` outstanding
    /// sends and no response for this long is declared dead.
    pub timeout_ns: u64,
    /// Outstanding-send floor for the timeout rule. Must exceed the
    /// worst-case *live* backlog from per-QP ACK coalescing — with the two
    /// service QPs a fleet endpoint opens (KW + CMS), that bound is
    /// `2 * (ack_coalesce - 1)` — or a quiet-but-live collector gets
    /// declared dead.
    pub min_unacked: u64,
    /// Per-collector replay-window capacity.
    pub ledger_capacity: usize,
    /// Rebalance sizing; `None` disables migration (no migration QPs are
    /// even connected).
    pub rebalance: Option<RebalanceConfig>,
}

/// Aggregated results of a single-threaded fleet run.
#[derive(Debug)]
pub struct FleetRunReport {
    /// Merged per-endpoint translator counters.
    pub translator: TranslatorStats,
    /// Failover counters.
    pub failover: FailoverStats,
    /// Rebalance counters, when a rebalance was configured.
    pub rebalance: Option<RebalanceStats>,
    /// Final routing table (drives the survivor-side audit).
    pub table: CollectorRoutingTable,
}

/// Aggregated results of a sharded fleet run.
#[derive(Debug)]
pub struct FleetShardedRunReport {
    /// Per-collector pipeline reports, fleet order.
    pub runs: Vec<ShardedRunReport>,
    /// Failover counters.
    pub failover: FailoverStats,
    /// Rebalance counters, when a rebalance was configured.
    pub rebalance: Option<RebalanceStats>,
    /// Final routing table.
    pub table: CollectorRoutingTable,
}

/// One migration QP's addressing inside the single-threaded fleet node.
#[derive(Debug, Clone, Copy)]
struct MigLink {
    /// Requester-side QPN (responses and ACKs name it).
    req_qpn: u32,
    /// Responder QPN at the collector.
    dest_qpn: u32,
    /// Remote key of the target region.
    rkey: u32,
}

/// Rebalance state of the single-threaded fleet node: the driver plus the
/// dedicated migration QPs (slots 2/3 per collector, separate from the
/// report-path service QPs so migration traffic never perturbs report
/// PSNs or the completion-timeout accounting).
#[derive(Debug)]
struct FleetRebalance {
    driver: RebalanceDriver,
    /// Indexed by [`link_of`]; `None` when the service is disabled.
    links: Vec<Option<MigLink>>,
    /// Payload every zero-write slices (see [`zero_payload`]).
    zeros: Bytes,
    emission_buf: Vec<WireEmission>,
    replay_buf: Vec<(DtaReport, ReportOrigin)>,
}

/// Rebalance state of the sharded fleet node: migration verbs execute
/// in-process against per-collector region clones, behind a per-link
/// expected-PSN check that mirrors the RoCE responder (so injected
/// duplicates and reorders exercise the same dup-drop / NAK recovery).
#[derive(Debug)]
struct ShardedRebalance {
    driver: RebalanceDriver,
    /// Per-collector `(KW, CMS)` region clones.
    regions: Vec<(Option<MemoryRegion>, Option<MemoryRegion>)>,
    /// Per-link responder expected PSN (indexed by [`link_of`]).
    expected_psn: Vec<u32>,
    /// Payload every zero-write slices (see [`zero_payload`]).
    zeros: Bytes,
    emission_buf: Vec<WireEmission>,
    replay_buf: Vec<(DtaReport, ReportOrigin)>,
}

/// One zero buffer as long as the longest migration zero-write (a KW slot
/// or a CMS counter), shared by every [`WireKind::WriteZero`] of a run.
fn zero_payload(kw: Option<KwLayout>) -> Bytes {
    let len = kw.map_or(0, |l| l.slot_bytes()).max(CmsLayout::SLOT_BYTES);
    Bytes::from(vec![0u8; len as usize])
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

/// One collector's connection state inside the single-threaded fleet node.
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
    /// `(requester QPN, expected PSN)` of the last NAK acted on, per QP.
    /// A responder NAKs *every* out-of-sequence arrival, so one loss
    /// yields a train of identical NAKs; only the first may trigger a
    /// resync + ledger replay (the retransmit for the rest is already in
    /// flight, and PSNs never repeat within a run, so an identical
    /// expected PSN always means a stale duplicate).
    naks_handled: Vec<(u32, u32)>,
}

impl Endpoint {
    fn req_qpn_for(&self, resp_qpn: u32) -> u32 {
        self.links
            .iter()
            .find(|(_, r)| *r == resp_qpn)
            .map(|(q, _)| *q)
            .unwrap_or(resp_qpn)
    }
}

/// Requester QPN base for fleet endpoints: `0x7100 + collector*16 + svc`,
/// clear of the single-collector (0x700+) and shard (0x4000+) ranges.
fn fleet_qpn(collector: u32, service_slot: u32) -> u32 {
    0x7100 + collector * 16 + service_slot
}

/// The multi-collector translator as an intercepting [`NetNode`]
/// (single-threaded deployment: RoCE crosses the simulated network).
///
/// One fully connected [`Translator`] per collector; reports route
/// collector-first through the [`CollectorRoutingTable`], then translate
/// on the owner's endpoint. Fail-stop detection is the completion
/// timeout; [`FleetAdmin`] events layer CM teardown, spurious failover,
/// and rejoin on top.
#[derive(Debug)]
pub struct FleetTranslatorNode {
    endpoints: Vec<Endpoint>,
    table: CollectorRoutingTable,
    ledger: ReplayLedger,
    admin: FleetAdmin,
    timeout_ns: u64,
    min_unacked: u64,
    my_id: NodeId,
    my_ip: u32,
    key_scratch: KeyScratch,
    scratch: TranslatorOutput,
    event_buf: Vec<FleetEvent>,
    replay_buf: Vec<LedgerEntry>,
    rebalance: Option<FleetRebalance>,
    /// Per-node counters (shared shape with the single-collector node).
    pub stats: TranslatorNodeStats,
    /// Failover counters.
    pub failover: FailoverStats,
}

impl FleetTranslatorNode {
    /// Connect one endpoint per collector in `peers` (fleet order), each
    /// with KW + CMS service connections, and return the node plus the
    /// admin handle for signalling fleet events.
    ///
    /// `peers` entries are `(node id, ip, service)`; the handshake runs
    /// against each service's CM before the services move into their own
    /// network nodes.
    pub fn connect(
        config: &FleetConfig,
        peers: &mut [(NodeId, u32, &mut CollectorService)],
        my_id: NodeId,
        my_ip: u32,
    ) -> (Self, FleetAdmin) {
        assert!(!peers.is_empty(), "a fleet needs at least one collector");
        let mut endpoints = Vec::with_capacity(peers.len());
        let mut mig_links: Vec<Option<MigLink>> = vec![None; peers.len() * 2];
        let mut mig_layouts: (Option<KwLayout>, Option<CmsLayout>) = (None, None);
        for (c, (node, ip, svc)) in peers.iter_mut().enumerate() {
            let mut translator = Translator::new(config.translator.clone());
            let mut links = Vec::new();
            for (slot, service) in [SERVICE_KW, SERVICE_CMS].into_iter().enumerate() {
                let requester = CmRequester::new(fleet_qpn(c as u32, slot as u32), 0);
                let reply = svc.handle_cm(&requester.request(service));
                let Ok((qp, params)) = requester.complete(&reply) else {
                    continue; // service disabled on this collector
                };
                links.push((qp.qpn, params.qpn));
                match service {
                    SERVICE_KW => translator.connect_key_write(qp, params),
                    _ => translator.connect_key_increment(qp, params),
                }
            }
            // Dedicated migration QPs (slots 2/3), only when a rebalance is
            // planned: reads + zero-writes ride their own PSN spaces.
            if config.rebalance.is_some() {
                for (slot, service) in [(2u32, SERVICE_KW), (3u32, SERVICE_CMS)] {
                    let requester = CmRequester::new(fleet_qpn(c as u32, slot), 0);
                    // A dedicated responder QP per migration link:
                    // re-accepting the service's published QP would splice
                    // this requester into the service connection's PSN
                    // stream (and repoint its ACKs here).
                    let reply = svc.handle_cm_dedicated(&requester.request(service));
                    let Ok((qp, params)) = requester.complete(&reply) else {
                        continue;
                    };
                    let primitive = if service == SERVICE_KW {
                        mig_layouts.0.get_or_insert(KwLayout {
                            base_va: params.base_va,
                            slots: params.slots,
                            value_bytes: params.slot_bytes - KwLayout::CSUM_BYTES,
                        });
                        MigPrimitive::KeyWrite
                    } else {
                        mig_layouts
                            .1
                            .get_or_insert(CmsLayout { base_va: params.base_va, slots: params.slots });
                        MigPrimitive::KeyIncrement
                    };
                    mig_links[link_of(c as u32, primitive) as usize] = Some(MigLink {
                        req_qpn: qp.qpn,
                        dest_qpn: params.qpn,
                        rkey: params.rkey,
                    });
                }
            }
            endpoints.push(Endpoint {
                node: *node,
                ip: *ip,
                translator,
                links,
                last_progress_ns: 0,
                sends_since_response: 0,
                naks_handled: Vec::new(),
            });
        }
        let rebalance = config.rebalance.map(|rb| FleetRebalance {
            driver: RebalanceDriver::new(rb, mig_layouts.0, mig_layouts.1),
            links: mig_links,
            zeros: zero_payload(mig_layouts.0),
            emission_buf: Vec::new(),
            replay_buf: Vec::new(),
        });
        let n = endpoints.len() as u32;
        let admin = FleetAdmin::new();
        let node = FleetTranslatorNode {
            endpoints,
            table: CollectorRoutingTable::new(n),
            ledger: ReplayLedger::new(n, config.ledger_capacity),
            admin: admin.clone(),
            timeout_ns: config.timeout_ns,
            min_unacked: config.min_unacked,
            my_id,
            my_ip,
            key_scratch: KeyScratch::new(16 * 1024, 1),
            scratch: TranslatorOutput::default(),
            event_buf: Vec::new(),
            replay_buf: Vec::new(),
            rebalance,
            stats: TranslatorNodeStats::default(),
            failover: FailoverStats::default(),
        };
        (node, admin)
    }

    /// The routing table (epoch inspection in tests).
    pub fn table(&self) -> &CollectorRoutingTable {
        &self.table
    }

    /// `(current owner, primary owner, key checksum)` for a report. The
    /// checksum is digested here once and handed to every later step on
    /// the report (fence record, deferral, double-write lookup); Append
    /// routes by list id and has none.
    fn route(&mut self, report: &DtaReport) -> (u32, u32, Option<u32>) {
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

    /// Translate `report` on collector `owner`'s endpoint, emit the RoCE
    /// packets, and ledger the report against that owner.
    fn translate_to(
        &mut self,
        owner: u32,
        now_ns: u64,
        report: &DtaReport,
        origin: ReportOrigin,
        out: &mut Vec<Emission>,
    ) {
        let my_id = self.my_id;
        let my_ip = self.my_ip;
        let min_unacked = self.min_unacked;
        let mut translated = std::mem::take(&mut self.scratch);
        let ep = &mut self.endpoints[owner as usize];
        ep.translator.process_batch(now_ns, std::slice::from_ref(report), &mut translated);
        debug_assert!(translated.nacked.is_empty(), "fleet specs carry no rate limiter");
        for p in &translated.packets {
            out.push(Emission::now(Packet::rdma(my_id, ep.node, p.encode_framed(my_ip, ep.ip))));
        }
        // Sends below the outstanding floor re-anchor the completion
        // timeout: the silence clock starts at the floor crossing.
        if ep.sends_since_response < min_unacked {
            ep.last_progress_ns = now_ns;
        }
        ep.sends_since_response += translated.packets.len() as u64;
        if let Some(last) = translated.packets.last() {
            let qpn = ep.req_qpn_for(last.bth.dest_qp);
            self.ledger.record(LedgerEntry {
                collector: owner,
                qpn,
                last_psn: last.bth.psn,
                acked: false,
                report: report.clone(),
                origin,
            });
        }
        self.scratch = translated;
    }

    /// Fail collector `c`: stamp the table, tear down its CM connections,
    /// and replay its whole ledger window through the survivors.
    fn fail(&mut self, now_ns: u64, c: u32, out: &mut Vec<Emission>) {
        if !self.table.mark_dead(c) {
            self.failover.duplicate_events += 1;
            return; // already failed over: idempotent no-op
        }
        self.failover.failovers += 1;
        self.failover.epoch = self.table.epoch();
        // DREQ each service connection; the DREP may never come (the node
        // is presumed gone), which is fine — CM teardown is stateless.
        self.failover.cm_disconnects += self.endpoints[c as usize].links.len() as u64;
        let mut window = std::mem::take(&mut self.replay_buf);
        self.ledger.drain_for(c, &mut window);
        for entry in window.drain(..) {
            self.failover.replayed += 1;
            if entry.acked {
                self.failover.replayed_acked += 1;
            }
            let (owner, primary, checksum) = self.route(&entry.report);
            debug_assert_ne!(owner, c, "table must not route to a dead collector");
            if owner != primary {
                self.record_fence(&entry.report, checksum, owner);
            }
            self.translate_to(owner, now_ns, &entry.report, entry.origin, out);
        }
        self.replay_buf = window;
    }

    /// Re-admit collector `c`. Its endpoint QPs are stale by however many
    /// PSNs were sunk while it was dead; the first post-rejoin write is
    /// NAK'd, which resynchronizes the QP and replays the NAK'd suffix
    /// from the ledger.
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
        let ep = &mut self.endpoints[c as usize];
        ep.last_progress_ns = now_ns;
        ep.sends_since_response = 0;
        // A readmitted node starts a fresh recovery round; its resync
        // NAKs must be handled anew.
        ep.naks_handled.clear();
    }

    /// Fence the routing table and start draining the stranded range.
    fn start_rebalance(&mut self, c: u32) {
        if self.rebalance.is_none() || !self.table.is_alive(c) {
            return; // no plan, or the victim never rejoined
        }
        let epoch = self.table.bump_epoch();
        self.failover.epoch = epoch;
        self.rebalance.as_mut().unwrap().driver.start_drain(epoch);
    }

    /// Migration-link id for a requester QPN, if it names a migration QP.
    fn mig_link_for(&self, req_qpn: u32) -> Option<u32> {
        let rb = self.rebalance.as_ref()?;
        rb.links
            .iter()
            .position(|l| matches!(l, Some(link) if link.req_qpn == req_qpn))
            .map(|i| i as u32)
    }

    /// Drive the migration: release check, wire emissions, and replays.
    fn pump_rebalance(&mut self, now_ns: u64, out: &mut Vec<Emission>) {
        let ready = self.rebalance.as_ref().map(|rb| rb.driver.release_ready()).unwrap_or(false);
        if ready {
            let epoch = self.table.bump_epoch();
            self.failover.epoch = epoch;
            self.rebalance.as_mut().unwrap().driver.mark_released(epoch);
        }
        let Some(rb) = self.rebalance.as_mut() else { return };
        let mut emissions = std::mem::take(&mut rb.emission_buf);
        emissions.clear();
        rb.driver.pump(now_ns, &mut emissions);
        for e in &emissions {
            let Some(link) = rb.links[e.link as usize] else { continue };
            let ep = &self.endpoints[e.collector() as usize];
            let reth = Reth { va: e.va, rkey: link.rkey, dma_len: e.len };
            let pkt = match e.kind {
                WireKind::Read => RocePacket::read_request(link.dest_qpn, e.psn, reth),
                WireKind::WriteZero => {
                    let zeros = rb.zeros.slice(..e.len as usize);
                    let mut p = RocePacket::write(link.dest_qpn, e.psn, reth, zeros);
                    // Solicit an immediate ACK: migration completion must
                    // not wait out the service-QP coalescing window.
                    p.bth.solicited = true;
                    p
                }
                WireKind::FetchAdd => {
                    let mut p =
                        RocePacket::fetch_add(link.dest_qpn, e.psn, e.va, link.rkey, e.arg);
                    p.bth.solicited = true;
                    p
                }
            };
            let wire = pkt.encode_framed(self.my_ip, ep.ip);
            out.push(Emission::now(Packet::rdma(self.my_id, ep.node, wire)));
        }
        rb.emission_buf = emissions;
        // Drained state and released deferrals re-enter the report path.
        let mut replays = std::mem::take(&mut self.rebalance.as_mut().unwrap().replay_buf);
        replays.clear();
        self.rebalance.as_mut().unwrap().driver.take_replays(&mut replays);
        for (report, origin) in replays.drain(..) {
            let (owner, _, _) = self.route(&report);
            self.translate_to(owner, now_ns, &report, origin, out);
        }
        self.rebalance.as_mut().unwrap().replay_buf = replays;
    }

    /// Merge per-endpoint counters and close out the ledger accounting.
    pub fn finish(&mut self) -> FleetRunReport {
        let mut translator = TranslatorStats::default();
        for ep in &self.endpoints {
            translator.merge(&ep.translator.stats);
        }
        self.failover.ledger_recorded = self.ledger.recorded;
        self.failover.ledger_evicted = self.ledger.evicted;
        self.failover.ledger_resident = self.ledger.resident();
        FleetRunReport {
            translator,
            failover: self.failover,
            rebalance: self.rebalance.as_mut().map(|rb| rb.driver.finish()),
            table: self.table.clone(),
        }
    }
}

impl NetNode for FleetTranslatorNode {
    fn receive(&mut self, now: SimTime, packet: Packet, out: &mut Vec<Emission>) {
        let Ok(udp) = UdpPacket::decode(packet.payload.clone()) else {
            self.stats.malformed += 1;
            return;
        };
        match udp.udp.dst_port {
            DTA_UDP_PORT => {
                let Ok(report) = DtaReport::decode(udp.payload.clone()) else {
                    self.stats.malformed += 1;
                    return;
                };
                self.stats.dta_in += 1;
                let origin = ReportOrigin {
                    node: packet.src.0,
                    ip: udp.ip.src,
                    port: udp.udp.src_port,
                };
                let (owner, primary, checksum) = self.route(&report);
                if owner != primary {
                    self.failover.rerouted += 1;
                    self.record_fence(&report, checksum, owner);
                } else if let Some(rb) = self.rebalance.as_mut() {
                    // Post-rejoin live traffic for a still-fenced key:
                    // defer INC until its baseline lands, double-write KW
                    // to the fallback owner until its copy is zeroed.
                    if let (Some((primitive, _, _)), Some(checksum)) = (migratable(&report), checksum) {
                        if rb.driver.try_defer(primitive, checksum, &report, origin) {
                            return; // re-emerges via take_replays
                        }
                        if primitive == MigPrimitive::KeyWrite {
                            if let Some(fallback) = rb.driver.double_write_target(checksum) {
                                self.translate_to(fallback, now.as_nanos(), &report, origin, out);
                            }
                        }
                    }
                }
                self.translate_to(owner, now.as_nanos(), &report, origin, out);
            }
            ROCE_UDP_PORT => {
                let Ok(roce) = RocePacket::decode(udp.payload.clone()) else {
                    self.stats.malformed += 1;
                    return;
                };
                self.stats.roce_responses += 1;
                let Some(c) = self.endpoints.iter().position(|ep| ep.node == packet.src) else {
                    return; // response from an unknown node: drop
                };
                {
                    let ep = &mut self.endpoints[c];
                    ep.last_progress_ns = now.as_nanos();
                    ep.sends_since_response = 0;
                }
                // ACKs and NAKs both name the *requester* QPN.
                let qpn = roce.bth.dest_qp;
                // Migration-QP traffic has its own completion protocol.
                if let Some(link) = self.mig_link_for(qpn) {
                    let rb = self.rebalance.as_mut().unwrap();
                    if roce.bth.opcode == Opcode::ReadResponseOnly {
                        rb.driver.on_read_response(link, roce.bth.psn, &roce.payload);
                    } else if roce.is_nak() {
                        rb.driver.on_nak(link, roce.bth.psn);
                    } else {
                        rb.driver.on_ack(link, roce.bth.psn);
                    }
                    return;
                }
                if roce.is_nak() {
                    // The responder NAKs *every* out-of-sequence arrival, so
                    // one gap produces a train of identical NAKs. Only the
                    // first for a given (qpn, expected-psn) resynchronizes
                    // and replays — a repeat resync would rewind the send
                    // PSN mid-recovery. PSNs never repeat within a run, so
                    // remembering the pair is sufficient.
                    let seen = (qpn, roce.bth.psn);
                    let ep = &mut self.endpoints[c];
                    if ep.naks_handled.contains(&seen) {
                        return; // duplicate: liveness credit only
                    }
                    ep.naks_handled.push(seen);
                    ep.translator.on_roce_response(&roce);
                    let mut suffix = std::mem::take(&mut self.replay_buf);
                    self.ledger.drain_nak(c as u32, qpn, roce.bth.psn, &mut suffix);
                    for entry in suffix.drain(..) {
                        self.failover.nak_replayed += 1;
                        let (owner, primary, checksum) = self.route(&entry.report);
                        if owner != primary {
                            self.record_fence(&entry.report, checksum, owner);
                        }
                        self.translate_to(owner, now.as_nanos(), &entry.report, entry.origin, out);
                    }
                    self.replay_buf = suffix;
                } else {
                    self.ledger.mark_acked(c as u32, qpn, roce.bth.psn);
                }
            }
            _ => {
                self.stats.forwarded += 1;
                out.push(Emission::now(packet));
            }
        }
    }

    fn tick(&mut self, now: SimTime, out: &mut Vec<Emission>) -> bool {
        let now_ns = now.as_nanos();
        // 1. Administrative events (CM teardown, spurious, rejoin).
        let mut events = std::mem::take(&mut self.event_buf);
        self.admin.drain(&mut events);
        for event in events.drain(..) {
            match event {
                FleetEvent::Teardown { collector } => {
                    if self.table.is_alive(collector) {
                        self.failover.detected_teardown += 1;
                    }
                    self.fail(now_ns, collector, out);
                }
                FleetEvent::ForceFailover { collector } => {
                    if self.table.is_alive(collector) {
                        self.failover.spurious += 1;
                    }
                    self.fail(now_ns, collector, out);
                }
                FleetEvent::Rejoin { collector } => self.rejoin(now_ns, collector),
                FleetEvent::Rebalance { collector } => self.start_rebalance(collector),
            }
        }
        self.event_buf = events;
        // 2. Completion-timeout detection.
        let mut victims = Vec::new();
        for (c, ep) in self.endpoints.iter().enumerate() {
            if self.table.is_alive(c as u32)
                && self.table.alive_count() > 1
                && ep.sends_since_response >= self.min_unacked
                && now_ns.saturating_sub(ep.last_progress_ns) >= self.timeout_ns
            {
                victims.push(c as u32);
            }
        }
        for c in victims {
            self.failover.detected_timeout += 1;
            self.fail(now_ns, c, out);
        }
        // 3. Flush live endpoints (batched state; a no-op for KW/INC-only
        // fleet traffic — each flush costs what is staged, never the cache
        // capacity — kept for parity with the single-collector node).
        let my_id = self.my_id;
        let my_ip = self.my_ip;
        let min_unacked = self.min_unacked;
        for (c, ep) in self.endpoints.iter_mut().enumerate() {
            if !self.table.is_alive(c as u32) {
                continue;
            }
            let flushed = ep.translator.flush(now_ns);
            // Same breach-anchor refresh as `translate_to`: the silence
            // clock starts when the outstanding floor is crossed.
            if ep.sends_since_response < min_unacked {
                ep.last_progress_ns = now_ns;
            }
            ep.sends_since_response += flushed.packets.len() as u64;
            for p in &flushed.packets {
                out.push(Emission::now(Packet::rdma(my_id, ep.node, p.encode_framed(my_ip, ep.ip))));
            }
        }
        // 4. Migration progress (release check, wire ops, replays).
        if self.rebalance.is_some() {
            self.pump_rebalance(now_ns, out);
        }
        true
    }
}

/// The multi-collector *sharded* deployment: one [`ShardedTranslator`]
/// pipeline per collector, reports routed collector-first (this node's
/// table, salt 0), then shard-partitioned inside the owning pipeline
/// (`SHARD_SALT`) — the two-level domain separation the adversarial
/// routing test pins.
///
/// RDMA executes in-process (no RoCE on the simulated network), so
/// fail-stop detection cannot ride completion timeouts; the CM-teardown
/// [`FleetEvent::Teardown`] is the detection signal instead. Ledger
/// entries are recorded acked (execution is immediate once ingested), and
/// a failover barriers the victim's pipeline (`wait_idle`) before
/// replaying its window into the survivors, so replay contents are a pure
/// function of the delivered stream.
#[derive(Debug)]
pub struct FleetShardedNode {
    pipelines: Vec<ShardedTranslator>,
    table: CollectorRoutingTable,
    ledger: ReplayLedger,
    admin: FleetAdmin,
    key_scratch: KeyScratch,
    event_buf: Vec<FleetEvent>,
    replay_buf: Vec<LedgerEntry>,
    rebalance: Option<ShardedRebalance>,
    /// Per-node counters (`roce_responses` stays 0 by construction).
    pub stats: TranslatorNodeStats,
    /// Failover counters.
    pub failover: FailoverStats,
}

impl FleetShardedNode {
    /// Build one sharded pipeline per collector in `peers` (fleet order).
    /// Call before moving the services into their own network nodes: shard
    /// NIC endpoints clone each collector's region registry (as do the
    /// migration region handles when `rebalance` is set).
    pub fn connect(
        sharded: &ShardedConfig,
        ledger_capacity: usize,
        rebalance: Option<RebalanceConfig>,
        peers: &mut [(NodeId, u32, &mut CollectorService)],
    ) -> (Self, FleetAdmin) {
        assert!(!peers.is_empty(), "a fleet needs at least one collector");
        let rebalance = rebalance.map(|rb| {
            let regions: Vec<(Option<MemoryRegion>, Option<MemoryRegion>)> = peers
                .iter()
                .map(|(_, _, svc)| {
                    (
                        svc.keywrite.as_ref().map(|s| s.region().clone()),
                        svc.key_increment.as_ref().map(|s| s.region().clone()),
                    )
                })
                .collect();
            let kw = peers[0].2.keywrite.as_ref().map(|s| *s.layout());
            let cms = peers[0].2.key_increment.as_ref().map(|s| *s.layout());
            ShardedRebalance {
                driver: RebalanceDriver::new(rb, kw, cms),
                expected_psn: vec![0; regions.len() * 2],
                zeros: zero_payload(kw),
                regions,
                emission_buf: Vec::new(),
                replay_buf: Vec::new(),
            }
        });
        let pipelines: Vec<ShardedTranslator> = peers
            .iter_mut()
            .map(|(_, _, svc)| ShardedTranslator::connect(sharded.clone(), svc))
            .collect();
        let n = pipelines.len() as u32;
        let admin = FleetAdmin::new();
        let node = FleetShardedNode {
            pipelines,
            table: CollectorRoutingTable::new(n),
            ledger: ReplayLedger::new(n, ledger_capacity),
            admin: admin.clone(),
            key_scratch: KeyScratch::new(16 * 1024, 1),
            event_buf: Vec::new(),
            replay_buf: Vec::new(),
            rebalance,
            stats: TranslatorNodeStats::default(),
            failover: FailoverStats::default(),
        };
        (node, admin)
    }

    /// The routing table (epoch inspection in tests).
    pub fn table(&self) -> &CollectorRoutingTable {
        &self.table
    }

    /// Barrier every live pipeline's shard queues (see
    /// `ShardedTranslatorNode::quiesce`): after this returns, every report
    /// ingested so far has been executed into its collector's memory, so a
    /// mid-run snapshot is a pure function of the delivered stream.
    pub fn quiesce(&mut self) {
        for p in &mut self.pipelines {
            p.wait_idle();
        }
    }

    /// `(current owner, primary owner, key checksum)` for a report. The
    /// checksum is digested here once and handed to every later step on
    /// the report (fence record, deferral, double-write lookup); Append
    /// routes by list id and has none.
    fn route(&mut self, report: &DtaReport) -> (u32, u32, Option<u32>) {
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

    /// Record a reroute in the migration fence (mirrors the single-node
    /// reroute sites; the sharded node has no NAK path).
    fn record_fence(&mut self, report: &DtaReport, checksum: Option<u32>, fallback_owner: u32) {
        let Some(rb) = self.rebalance.as_mut() else { return };
        let (Some((primitive, key, redundancy)), Some(checksum)) = (migratable(report), checksum)
        else {
            return;
        };
        rb.driver.fence_record(primitive, key, checksum, redundancy, fallback_owner);
    }

    /// Ledger and ingest `report` into collector `owner`'s pipeline.
    fn ingest_to(&mut self, owner: u32, now_ns: u64, report: DtaReport, origin: ReportOrigin) {
        self.ledger.record(LedgerEntry {
            collector: owner,
            qpn: 0,
            last_psn: 0,
            acked: true,
            report: report.clone(),
            origin,
        });
        self.pipelines[owner as usize].ingest_from(now_ns, report, origin);
    }

    /// Fail collector `c`: barrier its pipeline, then replay its window
    /// into the surviving pipelines.
    fn fail(&mut self, now_ns: u64, c: u32) {
        if !self.table.mark_dead(c) {
            self.failover.duplicate_events += 1;
            return;
        }
        self.failover.failovers += 1;
        self.failover.epoch = self.table.epoch();
        self.failover.cm_disconnects += 1;
        self.pipelines[c as usize].wait_idle();
        let mut window = std::mem::take(&mut self.replay_buf);
        self.ledger.drain_for(c, &mut window);
        for entry in window.drain(..) {
            self.failover.replayed += 1;
            if entry.acked {
                self.failover.replayed_acked += 1;
            }
            let (owner, primary, checksum) = self.route(&entry.report);
            debug_assert_ne!(owner, c, "table must not route to a dead collector");
            if owner != primary {
                self.record_fence(&entry.report, checksum, owner);
            }
            self.ledger.record(LedgerEntry { collector: owner, acked: true, ..entry.clone() });
            self.pipelines[owner as usize].ingest_from(now_ns, entry.report, entry.origin);
        }
        self.replay_buf = window;
    }

    /// Re-admit collector `c`: its pipeline never stopped, so rejoin is
    /// purely a routing change.
    fn rejoin(&mut self, c: u32) {
        if !self.table.mark_alive(c) {
            self.failover.duplicate_events += 1;
            return;
        }
        self.failover.rejoins += 1;
        self.failover.epoch = self.table.epoch();
        if let Some(rb) = self.rebalance.as_mut() {
            rb.driver.on_rejoin(c);
        }
    }

    /// Fence the routing table and start draining the stranded range.
    fn start_rebalance(&mut self, c: u32) {
        if self.rebalance.is_none() || !self.table.is_alive(c) {
            return; // no plan, or the victim never rejoined
        }
        let epoch = self.table.bump_epoch();
        self.failover.epoch = epoch;
        self.rebalance.as_mut().unwrap().driver.start_drain(epoch);
    }

    /// Drive the migration in-process: each emission faces the same
    /// expected-PSN responder discipline as a RoCE NIC (dup → silent
    /// drop, gap → NAK), then executes against the region clone.
    fn pump_rebalance(&mut self, now_ns: u64) {
        let ready = self.rebalance.as_ref().map(|rb| rb.driver.release_ready()).unwrap_or(false);
        if ready {
            let epoch = self.table.bump_epoch();
            self.failover.epoch = epoch;
            self.rebalance.as_mut().unwrap().driver.mark_released(epoch);
        }
        let Some(rb) = self.rebalance.as_mut() else { return };
        let mut emissions = std::mem::take(&mut rb.emission_buf);
        emissions.clear();
        rb.driver.pump(now_ns, &mut emissions);
        for e in emissions.drain(..) {
            let rb = self.rebalance.as_mut().unwrap();
            let expected = rb.expected_psn[e.link as usize];
            if e.psn < expected {
                continue; // duplicate: the responder PSN-drops it silently
            }
            if e.psn > expected {
                rb.driver.on_nak(e.link, expected);
                continue; // gap: NAK names the expected PSN
            }
            let collector = e.collector() as usize;
            let region = match e.primitive() {
                MigPrimitive::KeyWrite => rb.regions[collector].0.clone(),
                MigPrimitive::KeyIncrement => rb.regions[collector].1.clone(),
            };
            let Some(region) = region else { continue };
            // Barrier the target pipeline: in-process "RDMA" must observe
            // every ingested report, like a wire op behind FIFO delivery.
            self.pipelines[collector].wait_idle();
            let rb = self.rebalance.as_mut().unwrap();
            match e.kind {
                WireKind::Read => {
                    let data = region.peek(e.va, e.len as usize).expect("migration read in region");
                    rb.driver.on_read_response(e.link, e.psn, &data);
                }
                WireKind::WriteZero => {
                    region.write(e.va, &rb.zeros[..e.len as usize]).expect("migration zero write");
                    rb.driver.on_ack(e.link, e.psn);
                }
                WireKind::FetchAdd => {
                    region.fetch_add(e.va, e.arg).expect("migration fetch-add");
                    rb.driver.on_ack(e.link, e.psn);
                }
            }
            rb.expected_psn[e.link as usize] = e.psn + 1;
        }
        self.rebalance.as_mut().unwrap().emission_buf = emissions;
        let mut replays = std::mem::take(&mut self.rebalance.as_mut().unwrap().replay_buf);
        replays.clear();
        self.rebalance.as_mut().unwrap().driver.take_replays(&mut replays);
        for (report, origin) in replays.drain(..) {
            let (owner, _, _) = self.route(&report);
            self.ingest_to(owner, now_ns, report, origin);
        }
        self.rebalance.as_mut().unwrap().replay_buf = replays;
    }

    /// Barrier, flush, and join every pipeline; close the ledger
    /// accounting. `None` once already finished.
    pub fn finish(&mut self) -> Option<FleetShardedRunReport> {
        if self.pipelines.is_empty() {
            return None;
        }
        let runs: Vec<ShardedRunReport> = std::mem::take(&mut self.pipelines)
            .into_iter()
            .map(|mut p| {
                p.wait_idle();
                p.flush_and_join()
            })
            .collect();
        self.failover.ledger_recorded = self.ledger.recorded;
        self.failover.ledger_evicted = self.ledger.evicted;
        self.failover.ledger_resident = self.ledger.resident();
        Some(FleetShardedRunReport {
            runs,
            failover: self.failover,
            rebalance: self.rebalance.as_mut().map(|rb| rb.driver.finish()),
            table: self.table.clone(),
        })
    }
}

impl NetNode for FleetShardedNode {
    fn receive(&mut self, now: SimTime, packet: Packet, out: &mut Vec<Emission>) {
        if self.pipelines.is_empty() {
            return; // finished: sink
        }
        let Ok(udp) = UdpPacket::decode(packet.payload.clone()) else {
            self.stats.malformed += 1;
            return;
        };
        match udp.udp.dst_port {
            DTA_UDP_PORT => {
                let Ok(report) = DtaReport::decode(udp.payload.clone()) else {
                    self.stats.malformed += 1;
                    return;
                };
                self.stats.dta_in += 1;
                let origin = ReportOrigin {
                    node: packet.src.0,
                    ip: udp.ip.src,
                    port: udp.udp.src_port,
                };
                let (owner, primary, checksum) = self.route(&report);
                if owner != primary {
                    self.failover.rerouted += 1;
                    self.record_fence(&report, checksum, owner);
                } else if let Some(rb) = self.rebalance.as_mut() {
                    if let (Some((primitive, _, _)), Some(checksum)) = (migratable(&report), checksum) {
                        if rb.driver.try_defer(primitive, checksum, &report, origin) {
                            return; // re-emerges via take_replays
                        }
                        if primitive == MigPrimitive::KeyWrite {
                            if let Some(fallback) = rb.driver.double_write_target(checksum) {
                                self.ingest_to(fallback, now.as_nanos(), report.clone(), origin);
                            }
                        }
                    }
                }
                // Execution is in-process and ordered behind this ingest;
                // the entry is born acked (see type docs).
                self.ingest_to(owner, now.as_nanos(), report, origin);
            }
            ROCE_UDP_PORT => {
                // Shard endpoints answer RDMA in-process; RoCE over the
                // network is a wiring error here.
                self.stats.malformed += 1;
            }
            _ => {
                self.stats.forwarded += 1;
                out.push(Emission::now(packet));
            }
        }
    }

    fn tick(&mut self, now: SimTime, _out: &mut Vec<Emission>) -> bool {
        if self.pipelines.is_empty() {
            return false;
        }
        let mut events = std::mem::take(&mut self.event_buf);
        self.admin.drain(&mut events);
        for event in events.drain(..) {
            match event {
                FleetEvent::Teardown { collector } => {
                    if self.table.is_alive(collector) {
                        self.failover.detected_teardown += 1;
                    }
                    self.fail(now.as_nanos(), collector);
                }
                FleetEvent::ForceFailover { collector } => {
                    if self.table.is_alive(collector) {
                        self.failover.spurious += 1;
                    }
                    self.fail(now.as_nanos(), collector);
                }
                FleetEvent::Rejoin { collector } => self.rejoin(collector),
                FleetEvent::Rebalance { collector } => self.start_rebalance(collector),
            }
        }
        self.event_buf = events;
        if self.rebalance.is_some() {
            self.pump_rebalance(now.as_nanos());
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use dta_core::TelemetryKey;

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
        assert_eq!(table.entry_epoch(2), 1);
        assert_eq!(table.entry_epoch(0), 0, "unaffected entries keep their stamp");

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
        assert_eq!(table.entry_epoch(1), 2);
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

    fn entry(collector: u32, qpn: u32, psn: u32) -> LedgerEntry {
        LedgerEntry {
            collector,
            qpn,
            last_psn: psn,
            acked: false,
            report: DtaReport::key_write(psn, TelemetryKey::from_u64(psn as u64), 1, vec![1; 4]),
            origin: ReportOrigin::default(),
        }
    }

    #[test]
    fn ledger_cumulative_ack_covers_prefix_only() {
        let mut ledger = ReplayLedger::new(2, 16);
        for psn in 0..6u32 {
            ledger.record(entry(0, 7, psn));
        }
        ledger.record(entry(1, 7, 100)); // other collector, same qpn: untouched
        ledger.mark_acked(0, 7, 3);
        let mut window = Vec::new();
        ledger.drain_for(0, &mut window);
        let acked: Vec<bool> = window.iter().map(|e| e.acked).collect();
        assert_eq!(acked, [true, true, true, true, false, false]);
        let mut other = Vec::new();
        ledger.drain_for(1, &mut other);
        assert!(!other[0].acked);
        assert_eq!(ledger.resident(), 0);
        assert_eq!(ledger.recorded, 7);
        assert_eq!(ledger.evicted, 0);
    }

    #[test]
    fn ledger_evicts_per_collector_fifo() {
        let mut ledger = ReplayLedger::new(2, 3);
        for psn in 0..5u32 {
            ledger.record(entry(0, 1, psn));
        }
        ledger.record(entry(1, 1, 9)); // other window unaffected by evictions
        assert_eq!(ledger.evicted, 2);
        assert_eq!(ledger.resident(), 4);
        let mut window = Vec::new();
        ledger.drain_for(0, &mut window);
        let psns: Vec<u32> = window.iter().map(|e| e.last_psn).collect();
        assert_eq!(psns, [2, 3, 4], "oldest entries evicted first");
        // Accounting identity: recorded == evicted + drained + resident.
        assert_eq!(ledger.recorded, ledger.evicted + window.len() as u64 + ledger.resident());
    }

    #[test]
    fn ledger_nak_drains_unacked_suffix_on_one_qp() {
        let mut ledger = ReplayLedger::new(1, 16);
        for psn in 0..8u32 {
            ledger.record(entry(0, 5, psn));
        }
        ledger.record(entry(0, 6, 2)); // other QP: untouched by the NAK
        ledger.mark_acked(0, 5, 3);
        // NAK with expected PSN 4: acked prefix 0..=3 stays, suffix 4..=7
        // drains for replay.
        let mut suffix = Vec::new();
        ledger.drain_nak(0, 5, 4, &mut suffix);
        let psns: Vec<u32> = suffix.iter().map(|e| e.last_psn).collect();
        assert_eq!(psns, [4, 5, 6, 7]);
        assert_eq!(ledger.resident(), 5);
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
