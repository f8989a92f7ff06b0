//! Live fleet rebalance: epoch-fenced key-range migration after churn.
//!
//! PR 6's failover leaves a rejoined collector with its *routing* restored
//! but its state stranded: everything written during the fault window sits
//! on the survivor that covered for it. This module drives the three-phase
//! handoff that moves it home, concurrently with live report traffic:
//!
//! 1. **fence** — every reroute during the fault window records the key in
//!    a bounded fence (the reroute log doubles as the migration work list,
//!    because the CMS is not invertible: we cannot enumerate rerouted keys
//!    from collector memory after the fact). Live reports for fenced keys
//!    are handled per primitive: write-once Key-Write may be double-written
//!    to the old fallback owner, commutative Key-Increment is *deferred*
//!    between rejoin and baseline capture (see below).
//! 2. **drain** — for each fenced key, read the fallback owner's slot over
//!    the migration QP and replay the content to the restored primary as an
//!    ordinary DTA report through the post-fence routing table; then zero
//!    the fallback owner's slots so its region matches a run that never saw
//!    the failure. Drain flight is bounded by `ledger_capacity`: the entries
//!    in flight are the live ones behind the drain cursor, so the bound is
//!    a count plus a monotone abandon cursor (overflow abandons the oldest,
//!    counted), the way `active` and `evict_cursor` bound the fence. The
//!    closure identity is `scanned == transferred + skipped + resident`.
//! 3. **release** — once every fence entry is terminal and every wire op
//!    acked, routing collapses back to single-owner at a second epoch bump
//!    and the fence retires.
//!
//! # Key-Increment algebra (per slot)
//!
//! Fix one CMS slot `j` of a fenced key. Let `S_pre[j]` be the increments
//! sent to the victim V before the kill, `A[j] ⊆ S_pre[j]` the subset V
//! applied, `B[j]` the fault-window increments rerouted to the fallback
//! owner F, and `C[j]` the post-rejoin increments. The no-failure twin
//! holds `T[j] = S_pre[j] + B[j] + C[j]` at V and `0` at F. On kill, the
//! replay ledger re-applies the *whole* window for V at F (acked entries
//! included), so with a full ledger window F holds `x[j] = S_pre[j] +
//! B[j]`. The driver reads a baseline `v_stale[j] = A[j]` from V at rejoin
//! (the *arm* reads, one per slot), defers live increments for the key
//! until every baseline lands, then transfers `delta[j] = x[j] -
//! v_stale[j]` as a FETCH_ADD to V over the migration QP:
//!
//! ```text
//! V_final[j] = A[j] + C[j] + (x[j] - A[j]) = S_pre[j] + B[j] + C[j] = T[j]
//! ```
//!
//! and zeroing F's slots restores `F = 0 = twin` (all arithmetic u64
//! wrapping). The correction absorbs both the deliberate double-apply of
//! acked window entries and any in-flight packets V never applied — the
//! same full-window assumption PR 6's merged byte-identity already needs.
//!
//! The transfer must be **per slot**, not one delta fanned across the
//! key's redundancy copies through the report path: a report translates to
//! one FETCH_ADD packet per slot, and a kill can land *between* them,
//! applying a report at some of the key's slots and dropping it at the
//! rest. The baselines `A[j]` then differ across `j`, and no single delta
//! corrects them all. FETCH_ADD on the migration QP is exactly-once: PSNs
//! are stable and the responder executes each PSN exactly once, so
//! retransmitted adds never double-apply. Key-Write needs no baseline
//! (write-once, whole value in every slot): drain replays the fallback
//! copy through the report path and zeroes it.
//!
//! # Migration transport
//!
//! Replayed reports ride the normal report path, which PR 6 already made
//! exactly-once. Migration ops ride RoCE RC connections of their own, one
//! per collector store they touch (KW, CMS), CM-issued like the report
//! path's: the driver owns each requester [`QueuePair`], which stamps an
//! op's PSN at creation — a PSN is never reused, so a late response can
//! never complete the wrong op — and judges every NAK by the report path's
//! rule ([`QueuePair::stale_nak`]). The driver builds each [`RocePacket`]
//! itself (READ to arm or drain, FETCH_ADD to transfer, WRITE of zeros to
//! clear), and both collector links hand it to the collector's own
//! responder, `RdmaNic::ingress`: dup-drop, gap NAK and ACK are the NIC's.
//! Every op sits in one [`Outstanding`] window from creation until it
//! completes: READs on a full-length matching-PSN response (the data is
//! needed), WRITEs and FETCH_ADDs on cumulative ACK. Recovery is go-back-N
//! — a NAK the QP calls news, or the retry timer, re-sends the undone ops
//! in original PSN order. Loss, duplication and reordering are injected at
//! emission by a seeded [`FaultInjector`] over the config's
//! [`FaultConfig`], the same injector the simulated links use.

use std::collections::HashMap;

use bytes::Bytes;
use dta_collector::layout::{CmsLayout, KwLayout};
use dta_collector::service::{SERVICE_CMS, SERVICE_KW};
use dta_core::{DtaReport, TelemetryKey};
use dta_hash::polynomials::MAX_REDUNDANCY;
use dta_hash::scratch::KeyScratch;
use dta_net::{FaultConfig, FaultInjector, Verdict};
use dta_rdma::cm::{ConnectionParams, ServiceId};
use dta_rdma::packet::{Opcode, Reth, RocePacket};
use dta_rdma::qp::QueuePair;

use crate::link::MigrationQp;
use crate::outstanding::{Entry, Outstanding};
use crate::shard::ReportOrigin;

/// Sizing and pacing of one rebalance run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Maximum *active* (non-terminal) fence entries; overflow skips the
    /// oldest active entry (counted).
    pub fence_capacity: usize,
    /// Maximum fence entries in drain flight at once; overflow abandons
    /// the oldest in-flight entry (counted), though its already-sent wire
    /// ops still retransmit to completion so the PSN stream never stalls.
    pub ledger_capacity: usize,
    /// New drain reads started per pump (and arm reads, same pacing).
    pub drain_batch: usize,
    /// Retransmit timeout for unacknowledged migration ops.
    pub retry_ns: u64,
    /// Fault injection on migration requests (responses and ACKs ride
    /// un-faulted). Only drop, duplicate and reorder apply: a request is
    /// never corrupted or size-limited.
    pub faults: FaultConfig,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            fence_capacity: 1024,
            ledger_capacity: 256,
            drain_batch: 16,
            retry_ns: 8_000,
            faults: FaultConfig::none(),
        }
    }
}

/// Which collector-side store a fence entry migrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigPrimitive {
    /// Write-once Key-Write slots.
    KeyWrite,
    /// Commutative Key-Increment / CMS counters.
    KeyIncrement,
}

impl MigPrimitive {
    /// The collector service whose region holds the primitive's slots.
    fn service(self) -> ServiceId {
        match self {
            MigPrimitive::KeyWrite => SERVICE_KW,
            MigPrimitive::KeyIncrement => SERVICE_CMS,
        }
    }
}

/// One migration connection: the CM-issued requester QP toward
/// `collector`'s `params.service` region. Its PSN space is the
/// connection's own, so the two per-collector channels never mix.
#[derive(Debug)]
struct Channel {
    collector: u32,
    qp: QueuePair,
    params: ConnectionParams,
}

impl Channel {
    /// The request `op` stands for at `psn`: the verb its purpose implies,
    /// on the channel's slot at `op.va`. Zero-writes slice `zeros`.
    fn request(&self, psn: u32, op: &MigOp, zeros: &Bytes) -> RocePacket {
        let (dest, rkey, len) = (self.qp.dest_qpn, self.params.rkey, self.params.slot_bytes);
        let reth = Reth { va: op.va, rkey, dma_len: len };
        let mut pkt = match op.purpose {
            OpPurpose::Arm | OpPurpose::Drain => RocePacket::read_request(dest, psn, reth),
            OpPurpose::Transfer => RocePacket::fetch_add(dest, psn, op.va, rkey, op.arg),
            OpPurpose::Zero => RocePacket::write(dest, psn, reth, zeros.slice(..len as usize)),
        };
        // Solicit an immediate ACK: migration completion must not wait out
        // the service-QP coalescing window (a READ's response is its ACK).
        pkt.bth.solicited = !op.purpose.reads();
        pkt
    }
}

/// Per-primitive fence entry lifecycle. Entries are tombstoned, never
/// removed, so indices stay stable; `Done`/`Skipped` are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Recorded; waiting for the victim to rejoin (INC) or for drain (KW
    /// enters `Armed` directly — write-once needs no baseline).
    Fenced,
    /// INC baseline read in flight to the rejoined victim.
    AwaitArm,
    /// Baseline captured (INC) or not needed (KW); eligible for drain.
    Armed,
    /// Drain read in flight to the fallback owner.
    Reading,
    /// Replay issued; zero-writes to the fallback owner in flight.
    Zeroing,
    /// Migrated: replay and zeroing complete.
    Done,
    /// Skipped: fence/ledger eviction, empty or foreign slot.
    Skipped,
}

impl EntryState {
    fn terminal(self) -> bool {
        matches!(self, EntryState::Done | EntryState::Skipped)
    }
}

/// Why an entry was skipped (feeds the per-reason counters).
#[derive(Debug, Clone, Copy)]
enum SkipReason {
    /// Fence capacity evicted it before drain.
    FenceEvicted,
    /// The fallback slot was all-zero (nothing ever landed, or a
    /// same-slot key's drain already moved it).
    Empty,
    /// The fallback KW slot holds a different key's checksum.
    Mismatch,
    /// Ledger capacity abandoned it mid-flight.
    Abandoned,
}

#[derive(Debug)]
struct FenceEntry {
    primitive: MigPrimitive,
    key: TelemetryKey,
    checksum: u32,
    /// Raw per-copy slot digests (one per redundancy copy).
    slots: Vec<u32>,
    redundancy: u8,
    /// Fallback owner holding the fault-window state. Per-entry: the dead
    /// range spreads over *all* survivors, not one.
    source: u32,
    state: EntryState,
    /// Deduplicated CMS slot addresses (INC only; two redundancy digests
    /// can land in one slot, which must be corrected once, not twice).
    vas: Vec<u64>,
    /// Per-slot INC baselines read from the victim at arm time
    /// (`v_stale[j]`, parallel to `vas`).
    baseline: Vec<u64>,
    /// Per-slot fallback values from the drain reads (`x[j]`).
    drained: Vec<u64>,
    /// Live INC reports held between rejoin and baseline capture.
    deferred: Vec<(DtaReport, ReportOrigin)>,
}

/// The oldest non-terminal entry at or after `cursor`, which advances past
/// the terminal ones (entries never leave the terminal states, so the scan
/// is amortized O(1)).
fn oldest_live(entries: &[FenceEntry], cursor: &mut usize) -> Option<u32> {
    while let Some(e) = entries.get(*cursor) {
        if !e.state.terminal() {
            return Some(*cursor as u32);
        }
        *cursor += 1;
    }
    None
}

/// What one migration op is for (drives completion dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpPurpose {
    /// INC baseline read from the victim.
    Arm,
    /// Slot read from the fallback owner.
    Drain,
    /// Per-slot INC delta FETCH_ADD to the victim.
    Transfer,
    /// Zero-write to the fallback owner.
    Zero,
}

impl OpPurpose {
    /// Whether the op is a READ, completed by its data rather than by ACK.
    fn reads(self) -> bool {
        matches!(self, OpPurpose::Arm | OpPurpose::Drain)
    }
}

/// One migration op; its window entry carries the channel's requester QPN
/// and the PSN that QP stamped at creation.
#[derive(Debug)]
struct MigOp {
    /// Target slot address.
    va: u64,
    /// FETCH_ADD operand (transfers only).
    arg: u64,
    entry: u32,
    /// Index into the entry's `vas` (per-slot arm/drain bookkeeping).
    slot: u16,
    purpose: OpPurpose,
}

/// Put `op` in the window on `ch`, stamped with the channel QP's next PSN.
/// Borrows only the window and the channel, so callers can walk an entry's
/// slots while queueing its ops.
fn push_op(ops: &mut Outstanding<MigOp>, ch: &mut Channel, op: MigOp) {
    let psn = ch.qp.next_send_psn();
    ops.record(ch.qp.qpn, psn, false, op);
}

/// Counters of one rebalance run. The closure identity
/// `scanned == transferred + skipped + resident` is a genuine cross-check:
/// the three buckets are counted at independent sites (fence recording,
/// entry completion, skip events / finish-time residency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Distinct keys fence-recorded (the migration work list).
    pub scanned: u64,
    /// Entries fully migrated (replayed and zeroed).
    pub transferred: u64,
    /// Entries skipped for any reason (sum of the per-reason counters).
    pub skipped: u64,
    /// Entries still non-terminal at finish.
    pub resident: u64,
    /// Skips: fence capacity evicted the entry before drain.
    pub fence_evicted: u64,
    /// Skips: the fallback slot was all-zero.
    pub skipped_empty: u64,
    /// Skips: the fallback KW slot held a foreign checksum.
    pub skipped_mismatch: u64,
    /// Skips: ledger capacity abandoned the entry mid-flight.
    pub abandoned: u64,
    /// Key-Write entries fenced.
    pub kw_fenced: u64,
    /// Key-Increment entries fenced.
    pub inc_fenced: u64,
    /// INC baselines captured.
    pub armed: u64,
    /// Live INC reports deferred behind an un-armed fence entry.
    pub deferred: u64,
    /// Deferred reports released back into the report path.
    pub deferred_flushed: u64,
    /// Live KW reports double-written to the fallback owner.
    pub double_writes: u64,
    /// KW drain replays handed to the report path.
    pub replays: u64,
    /// Per-slot INC delta FETCH_ADDs issued to the victim.
    pub transfer_adds: u64,
    /// Wire emissions attempted (before fault injection; includes retries).
    pub ops_sent: u64,
    /// Wire ops completed (response or cumulative ACK).
    pub ops_completed: u64,
    /// Timer- or NAK-driven re-sends.
    pub retransmits: u64,
    /// Requests the fault injector dropped.
    pub injected_drops: u64,
    /// Requests the fault injector duplicated.
    pub injected_dups: u64,
    /// Requests the fault injector delayed behind their successor.
    pub injected_reorders: u64,
    /// NAKs that sent a migration channel back (news to its requester QP,
    /// not a predicted repeat).
    pub naks: u64,
    /// Routing epoch at the fence bump (drain start).
    pub fence_epoch: u64,
    /// Routing epoch at release.
    pub release_epoch: u64,
    /// 1 once released.
    pub released: u64,
}

impl RebalanceStats {
    /// The fence closure identity.
    pub fn closes(&self) -> bool {
        self.scanned == self.transferred + self.skipped + self.resident
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Fence recording only (fault window and pre-drain).
    Fencing,
    /// Drain in progress.
    Draining,
    /// Fence retired; routing is single-owner again.
    Released,
}

/// The rebalance state machine. The owning fleet node feeds it reroute
/// events ([`RebalanceDriver::fence_record`]), rejoin, and every RoCE
/// response on a migration QP, and pumps it for `(collector, request)`
/// pairs to put on its collector link; it hands back DTA replays to push
/// through the ordinary (exactly-once) report path.
#[derive(Debug)]
pub struct RebalanceDriver {
    config: RebalanceConfig,
    kw: Option<KwLayout>,
    cms: Option<CmsLayout>,
    /// Own scratch at full family width: the fleet node's routing scratch
    /// is width-1 and cannot derive per-copy slot digests.
    scratch: KeyScratch,
    entries: Vec<FenceEntry>,
    /// `(service, checksum)` → entry id, dedup only (never iterated).
    index: HashMap<(ServiceId, u32), u32>,
    /// Non-terminal entry count (fence capacity bounds this).
    active: usize,
    /// Oldest entry that might still be active (eviction scan cursor).
    evict_cursor: usize,
    /// Non-terminal entries behind `drain_cursor`: the drain flight
    /// (`ledger_capacity` bounds this).
    in_flight: usize,
    /// Oldest entry that might still be in drain flight (abandon scan
    /// cursor).
    abandon_cursor: usize,
    /// Every op from creation to completion, in creation (= per-channel
    /// PSN) order.
    ops: Outstanding<MigOp>,
    /// Recycled buffer of ops one response completed.
    completed: Vec<Entry<MigOp>>,
    channels: Vec<Channel>,
    /// Payload every zero-write slices: as long as the widest slot.
    zeros: Bytes,
    /// Next entry to consider for arming (INC) — monotone cursor.
    arm_cursor: usize,
    /// Next entry to consider for drain — monotone cursor.
    drain_cursor: usize,
    rejoined: bool,
    victim: u32,
    phase: Phase,
    replays: Vec<(DtaReport, ReportOrigin)>,
    faults: FaultInjector,
    stats: RebalanceStats,
}

impl RebalanceDriver {
    /// New driver over the fleet's (uniform) collector memory geometry and
    /// its migration connections, `(collector, requester QP, params)` as
    /// `CmRequester::complete` returned them — one per KW / CMS service.
    /// A `None` layout disables fencing for that primitive; `seed` seeds
    /// the fault injector.
    pub fn new(
        config: RebalanceConfig,
        seed: u64,
        kw: Option<KwLayout>,
        cms: Option<CmsLayout>,
        qps: Vec<MigrationQp>,
    ) -> Self {
        let channels: Vec<Channel> = qps
            .into_iter()
            .map(|(collector, qp, params)| Channel { collector, qp, params })
            .collect();
        let widest = channels.iter().map(|ch| ch.params.slot_bytes).max().unwrap_or(0);
        RebalanceDriver {
            faults: FaultInjector::new(config.faults, seed),
            config,
            kw,
            cms,
            scratch: KeyScratch::new(16 * 1024, MAX_REDUNDANCY),
            entries: Vec::new(),
            index: HashMap::new(),
            active: 0,
            evict_cursor: 0,
            in_flight: 0,
            abandon_cursor: 0,
            // Ops are never evicted: each must complete for its channel's
            // PSN stream to advance.
            ops: Outstanding::new(usize::MAX),
            completed: Vec::new(),
            channels,
            zeros: Bytes::from(vec![0; widest as usize]),
            arm_cursor: 0,
            drain_cursor: 0,
            rejoined: false,
            victim: u32::MAX,
            phase: Phase::Fencing,
            replays: Vec::new(),
            stats: RebalanceStats::default(),
        }
    }

    /// The channel to `collector`'s `primitive` store.
    fn channel(&self, collector: u32, primitive: MigPrimitive) -> u32 {
        let service = primitive.service();
        self.channels
            .iter()
            .position(|ch| ch.collector == collector && ch.params.service == service)
            .expect("every fenced store has a migration QP") as u32
    }

    fn skip_entry(&mut self, id: u32, reason: SkipReason) {
        let e = &mut self.entries[id as usize];
        if e.state.terminal() {
            return;
        }
        e.state = EntryState::Skipped;
        // Live traffic held behind the entry must still reach the primary.
        let deferred = std::mem::take(&mut e.deferred);
        self.stats.deferred_flushed += deferred.len() as u64;
        self.replays.extend(deferred);
        self.stats.skipped += 1;
        match reason {
            SkipReason::FenceEvicted => self.stats.fence_evicted += 1,
            SkipReason::Empty => self.stats.skipped_empty += 1,
            SkipReason::Mismatch => self.stats.skipped_mismatch += 1,
            SkipReason::Abandoned => self.stats.abandoned += 1,
        }
        self.settle(id);
    }

    /// Whether entry `id` still has ops in the window: those of its current
    /// phase (arm reads, drain reads, or transfers and zero-writes), since
    /// each phase starts only once the previous one's ops have completed.
    fn ops_pending(&self, id: u32) -> bool {
        self.ops.iter().any(|op| op.item.entry == id)
    }

    /// Entry `id` went terminal: it leaves the active fence and, if the
    /// drain pass started it, the drain flight.
    fn settle(&mut self, id: u32) {
        self.active -= 1;
        if (id as usize) < self.drain_cursor {
            self.in_flight -= 1;
        }
    }

    /// Record a reroute: `key` (primary-owned by the dead victim) was
    /// translated to fallback owner `source` instead. Idempotent per
    /// `(primitive, checksum)`. Called from the three reroute sites
    /// (receive, fail-time window replay, NAK replay).
    pub fn fence_record(
        &mut self,
        primitive: MigPrimitive,
        key: &TelemetryKey,
        checksum: u32,
        redundancy: u8,
        source: u32,
    ) {
        match primitive {
            MigPrimitive::KeyWrite if self.kw.is_none() => return,
            MigPrimitive::KeyIncrement if self.cms.is_none() => return,
            _ => {}
        }
        let slot = (primitive.service(), checksum);
        if self.index.contains_key(&slot) {
            return;
        }
        let redundancy = redundancy.clamp(1, MAX_REDUNDANCY as u8);
        let digests = self.scratch.digests(key.as_bytes(), redundancy as usize);
        debug_assert_eq!(digests.checksum, checksum);
        if self.active >= self.config.fence_capacity {
            if let Some(oldest) = oldest_live(&self.entries, &mut self.evict_cursor) {
                self.skip_entry(oldest, SkipReason::FenceEvicted);
            }
        }
        let id = self.entries.len() as u32;
        let state = match primitive {
            // Write-once: no baseline needed, drain-eligible immediately.
            MigPrimitive::KeyWrite => EntryState::Armed,
            MigPrimitive::KeyIncrement => EntryState::Fenced,
        };
        // Per-slot migration targets, deduplicated: two redundancy digests
        // that alias one CMS slot must be corrected once.
        let vas = match primitive {
            MigPrimitive::KeyIncrement => {
                let cms = self.cms.expect("INC entry without CMS layout");
                let mut vas: Vec<u64> = Vec::with_capacity(redundancy as usize);
                for &digest in &digests.slots[..redundancy as usize] {
                    let va = cms.slot_va_from_digest(digest);
                    if !vas.contains(&va) {
                        vas.push(va);
                    }
                }
                vas
            }
            MigPrimitive::KeyWrite => Vec::new(),
        };
        let width = vas.len();
        self.entries.push(FenceEntry {
            primitive,
            key: *key,
            checksum,
            slots: digests.slots[..redundancy as usize].to_vec(),
            redundancy,
            source,
            state,
            vas,
            baseline: vec![0; width],
            drained: vec![0; width],
            deferred: Vec::new(),
        });
        self.index.insert(slot, id);
        self.active += 1;
        self.stats.scanned += 1;
        match primitive {
            MigPrimitive::KeyWrite => self.stats.kw_fenced += 1,
            MigPrimitive::KeyIncrement => self.stats.inc_fenced += 1,
        }
    }

    /// The victim rejoined: INC baselines may now be read from it.
    pub fn on_rejoin(&mut self, victim: u32) {
        self.rejoined = true;
        self.victim = victim;
    }

    /// Offer a live post-rejoin report for deferral. Returns `true` (and
    /// takes ownership of a copy) when `checksum` has an un-armed INC
    /// fence entry — the report must *not* be translated yet; it will come
    /// back out of [`Self::take_replays`] once the baseline lands.
    pub fn try_defer(
        &mut self,
        primitive: MigPrimitive,
        checksum: u32,
        report: &DtaReport,
        origin: ReportOrigin,
    ) -> bool {
        if primitive != MigPrimitive::KeyIncrement || !self.rejoined {
            return false;
        }
        let Some(&id) = self.index.get(&(primitive.service(), checksum)) else {
            return false;
        };
        let e = &mut self.entries[id as usize];
        if !matches!(e.state, EntryState::Fenced | EntryState::AwaitArm) {
            return false;
        }
        e.deferred.push((report.clone(), origin));
        self.stats.deferred += 1;
        true
    }

    /// Double-write target for a live KW report: the fallback owner, while
    /// the entry's fallback copy has not been zeroed yet. `None` once
    /// zeroing begins (a late double-write could land after the zero and
    /// break twin identity).
    pub fn double_write_target(&mut self, checksum: u32) -> Option<u32> {
        let id = *self.index.get(&(MigPrimitive::KeyWrite.service(), checksum))?;
        let e = &self.entries[id as usize];
        if matches!(e.state, EntryState::Armed | EntryState::Reading) {
            self.stats.double_writes += 1;
            Some(e.source)
        } else {
            None
        }
    }

    /// Enter the drain phase. `fence_epoch` is the routing-table epoch
    /// after the fence bump.
    pub fn start_drain(&mut self, fence_epoch: u64) {
        if self.phase == Phase::Fencing {
            self.phase = Phase::Draining;
            self.stats.fence_epoch = fence_epoch;
        }
    }

    /// Advance the state machine and collect `(collector, request)` pairs
    /// for the collector link: arm reads for fenced INC entries (once
    /// rejoined), new drain reads (once draining, `drain_batch` per pump,
    /// `ledger_capacity`-bounded), and every due (re)send, each through the
    /// fault injector.
    pub fn pump(&mut self, now_ns: u64, out: &mut Vec<(u32, RocePacket)>) {
        if self.phase == Phase::Released {
            return;
        }
        // Arming pass: baseline reads to the rejoined victim.
        if self.rejoined {
            let mut started = 0;
            while self.arm_cursor < self.entries.len() && started < self.config.drain_batch {
                let id = self.arm_cursor as u32;
                self.arm_cursor += 1;
                let e = &self.entries[id as usize];
                if e.primitive != MigPrimitive::KeyIncrement || e.state != EntryState::Fenced {
                    continue;
                }
                // One baseline read per slot: a kill can split a report's
                // per-slot packet train, leaving non-uniform baselines.
                let ch = self.channel(self.victim, MigPrimitive::KeyIncrement);
                let (e, ch) = (&mut self.entries[id as usize], &mut self.channels[ch as usize]);
                e.state = EntryState::AwaitArm;
                for (j, &va) in e.vas.iter().enumerate() {
                    let op = MigOp { va, arg: 0, entry: id, slot: j as u16, purpose: OpPurpose::Arm };
                    push_op(&mut self.ops, ch, op);
                }
                started += 1;
            }
        }
        // Drain pass: slot reads from the fallback owners.
        if self.phase == Phase::Draining && self.rejoined {
            let mut started = 0;
            while self.drain_cursor < self.entries.len() && started < self.config.drain_batch {
                let id = self.drain_cursor as u32;
                let state = self.entries[id as usize].state;
                if state != EntryState::Armed {
                    // Un-armed INC entries block the cursor: drain order
                    // follows fence order, and the arm pass is ahead of us.
                    if matches!(state, EntryState::Fenced | EntryState::AwaitArm) {
                        break;
                    }
                    self.drain_cursor += 1;
                    continue;
                }
                if self.in_flight >= self.config.ledger_capacity {
                    // Abandon the oldest entry in flight; its sent ops
                    // still retransmit to completion.
                    if let Some(oldest) = oldest_live(&self.entries, &mut self.abandon_cursor) {
                        self.skip_entry(oldest, SkipReason::Abandoned);
                    }
                }
                self.in_flight += 1;
                self.drain_cursor += 1;
                let e = &self.entries[id as usize];
                let ch = self.channel(e.source, e.primitive);
                let (e, ch) = (&mut self.entries[id as usize], &mut self.channels[ch as usize]);
                e.state = EntryState::Reading;
                let purpose = OpPurpose::Drain;
                match e.primitive {
                    MigPrimitive::KeyWrite => {
                        let kw = self.kw.expect("KW entry without KW layout");
                        let va = kw.slot_va_from_digest(e.slots[0]);
                        push_op(&mut self.ops, ch, MigOp { va, arg: 0, entry: id, slot: 0, purpose });
                    }
                    MigPrimitive::KeyIncrement => {
                        // One drain read per slot, mirroring the arm pass.
                        for (j, &va) in e.vas.iter().enumerate() {
                            let op = MigOp { va, arg: 0, entry: id, slot: j as u16, purpose };
                            push_op(&mut self.ops, ch, op);
                        }
                    }
                }
                started += 1;
            }
        }
        // Send pass: everything due, in creation (= per-channel PSN) order.
        // A reordered request is held back behind the next one emitted.
        let mut held = None;
        for op in self.ops.iter_mut() {
            if now_ns < op.due_ns {
                continue;
            }
            op.due_ns = now_ns + self.config.retry_ns;
            let ch = self.channels.iter().find(|ch| ch.qp.qpn == op.qpn).expect("op on a channel");
            let emit = (ch.collector, ch.request(op.psn, &op.item, &self.zeros));
            self.stats.ops_sent += 1;
            match self.faults.verdict(0, 0).0 {
                Verdict::Drop => {}
                Verdict::Reorder => out.extend(held.replace(emit)),
                verdict => {
                    if verdict == Verdict::Duplicate {
                        out.push(emit.clone());
                    }
                    out.push(emit);
                    out.extend(held.take());
                }
            }
        }
        out.extend(held);
        // Every op is first sent at the pump after its creation, so past a
        // send pass each send beyond the first per op is a resend.
        self.stats.retransmits = self.stats.ops_sent - self.ops.recorded;
        self.stats.injected_drops = self.faults.dropped;
        self.stats.injected_dups = self.faults.duplicated;
        self.stats.injected_reorders = self.faults.reordered;
    }

    /// A RoCE response on a migration QP: READ data, a cumulative ACK, or a
    /// NAK. A response naming no migration QP is not the driver's.
    pub fn on_response(&mut self, pkt: &RocePacket) {
        let Some(channel) = self.channels.iter().position(|ch| ch.qp.qpn == pkt.bth.dest_qp) else {
            return;
        };
        let (channel, psn) = (channel as u32, pkt.bth.psn);
        if pkt.bth.opcode == Opcode::ReadResponseOnly {
            self.on_read_response(channel, psn, &pkt.payload);
        } else if pkt.is_nak() {
            self.on_nak(channel, psn);
        } else {
            self.on_ack(channel, psn);
        }
    }

    /// A READ response landed (arm or drain data).
    fn on_read_response(&mut self, channel: u32, psn: u32, data: &[u8]) {
        let ch = &self.channels[channel as usize];
        let len = ch.params.slot_bytes as usize;
        if data.len() < len {
            return; // short: the op stays outstanding and its retry timer resends it
        }
        let Some(op) = self.ops.take_psn(ch.qp.qpn, psn) else {
            return; // stale or duplicate response
        };
        self.stats.ops_completed += 1;
        let MigOp { entry: entry_id, purpose, slot, .. } = op.item;
        let slot = slot as usize;
        let state = self.entries[entry_id as usize].state;
        if state.terminal() {
            return; // abandoned mid-flight; ignore, no double count
        }
        match purpose {
            OpPurpose::Arm => {
                if state != EntryState::AwaitArm {
                    return;
                }
                let v_stale = u64::from_be_bytes(data[..8].try_into().unwrap());
                self.entries[entry_id as usize].baseline[slot] = v_stale;
                if self.ops_pending(entry_id) {
                    return; // more baselines in flight
                }
                let e = &mut self.entries[entry_id as usize];
                e.state = EntryState::Armed;
                self.stats.armed += 1;
                // Every baseline captured: release the held live reports.
                let deferred = std::mem::take(&mut e.deferred);
                self.stats.deferred_flushed += deferred.len() as u64;
                self.replays.extend(deferred);
            }
            OpPurpose::Drain => {
                if state != EntryState::Reading {
                    return;
                }
                match self.entries[entry_id as usize].primitive {
                    MigPrimitive::KeyWrite => self.on_kw_drain_data(entry_id, &data[..len]),
                    MigPrimitive::KeyIncrement => {
                        let x = u64::from_be_bytes(data[..8].try_into().unwrap());
                        self.entries[entry_id as usize].drained[slot] = x;
                        if !self.ops_pending(entry_id) {
                            self.inc_transfer(entry_id);
                        }
                    }
                }
            }
            OpPurpose::Transfer | OpPurpose::Zero => {
                unreachable!("transfers and zero-writes complete on ACK")
            }
        }
    }

    fn on_kw_drain_data(&mut self, entry_id: u32, data: &[u8]) {
        let e = &self.entries[entry_id as usize];
        if data.iter().all(|&b| b == 0) {
            self.skip_entry(entry_id, SkipReason::Empty);
            return;
        }
        if data[..4] != e.checksum.to_be_bytes() {
            self.skip_entry(entry_id, SkipReason::Mismatch);
            return;
        }
        let value = data[4..].to_vec();
        self.replays.push((
            DtaReport::key_write(0, e.key, e.redundancy, value),
            ReportOrigin::default(),
        ));
        self.stats.replays += 1;
        let kw = self.kw.expect("KW entry without KW layout");
        let ch = self.channel(e.source, MigPrimitive::KeyWrite);
        let (e, ch) = (&mut self.entries[entry_id as usize], &mut self.channels[ch as usize]);
        for &digest in &e.slots {
            let va = kw.slot_va_from_digest(digest);
            let op = MigOp { va, arg: 0, entry: entry_id, slot: 0, purpose: OpPurpose::Zero };
            push_op(&mut self.ops, ch, op);
        }
        e.state = EntryState::Zeroing;
    }

    /// Every drain read landed: issue the per-slot delta FETCH_ADDs to the
    /// victim and the per-slot zero-writes to the fallback owner.
    fn inc_transfer(&mut self, entry_id: u32) {
        let e = &self.entries[entry_id as usize];
        if e.drained.iter().all(|&x| x == 0) {
            // Nothing ever landed at the fallback (or a prior migration
            // already moved it): nothing to transfer, nothing to zero.
            self.skip_entry(entry_id, SkipReason::Empty);
            return;
        }
        let to_victim = self.channel(self.victim, MigPrimitive::KeyIncrement);
        let to_source = self.channel(e.source, MigPrimitive::KeyIncrement);
        let e = &mut self.entries[entry_id as usize];
        for (j, &va) in e.vas.iter().enumerate() {
            let (entry, slot) = (entry_id, j as u16);
            // See the module docs: delta[j] = x[j] - v_stale[j] absorbs the
            // fail-time double-replay and lost in-flight packets per slot.
            let delta = e.drained[j].wrapping_sub(e.baseline[j]);
            if delta != 0 {
                let op = MigOp { va, arg: delta, entry, slot, purpose: OpPurpose::Transfer };
                push_op(&mut self.ops, &mut self.channels[to_victim as usize], op);
                self.stats.transfer_adds += 1;
            }
            let op = MigOp { va, arg: 0, entry, slot, purpose: OpPurpose::Zero };
            push_op(&mut self.ops, &mut self.channels[to_source as usize], op);
        }
        e.state = EntryState::Zeroing;
    }

    /// A cumulative ACK landed on a migration channel: completes every
    /// outstanding zero-write and delta FETCH_ADD it covers on that channel
    /// (the responder PSN-orders execution, so an ACK proves all before
    /// it). READs still require their data and never complete here.
    fn on_ack(&mut self, channel: u32, ack_psn: u32) {
        self.ops.ack(self.channels[channel as usize].qp.qpn, ack_psn);
        let mut completed = std::mem::take(&mut self.completed);
        self.ops.take(|op| op.acked && !op.item.purpose.reads(), &mut completed);
        for op in completed.drain(..) {
            self.stats.ops_completed += 1;
            let id = op.item.entry;
            if self.entries[id as usize].state == EntryState::Zeroing && !self.ops_pending(id) {
                self.entries[id as usize].state = EntryState::Done;
                self.stats.transferred += 1;
                self.settle(id);
            }
        }
        self.completed = completed;
    }

    /// A NAK landed: go-back-N, unless the channel's requester QP counts it
    /// as a predicted repeat ([`QueuePair::stale_nak`]). Every undone op on
    /// the channel from `expected` on is due for resend (original PSNs —
    /// the send pass re-emits them in order).
    fn on_nak(&mut self, channel: u32, expected: u32) {
        let qp = &mut self.channels[channel as usize].qp;
        if qp.stale_nak(expected) {
            return;
        }
        self.stats.naks += 1;
        self.ops.rewind(qp.qpn, expected);
    }

    /// Move accumulated DTA replays (drained state, flushed deferrals)
    /// into `out`. The caller routes them through the post-fence table.
    pub fn take_replays(&mut self, out: &mut Vec<(DtaReport, ReportOrigin)>) {
        out.append(&mut self.replays);
    }

    /// True when the fence can retire: draining, every entry terminal,
    /// every wire op completed, and no replay still queued.
    pub fn release_ready(&self) -> bool {
        self.phase == Phase::Draining
            && self.active == 0
            && self.replays.is_empty()
            && self.ops.len() == 0
    }

    /// Retire the fence at the release epoch bump.
    pub fn mark_released(&mut self, epoch: u64) {
        if self.phase == Phase::Draining {
            self.phase = Phase::Released;
            self.stats.release_epoch = epoch;
            self.stats.released = 1;
        }
    }

    /// Fold residency in and return the final counters.
    pub fn finish(&mut self) -> RebalanceStats {
        self.stats.resident = self.entries.iter().filter(|e| !e.state.terminal()).count() as u64;
        debug_assert!(self.stats.closes(), "rebalance closure violated: {:?}", self.stats);
        debug_assert!(self.ops.closes(), "migration op window leaked: {:?}", self.ops);
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layouts() -> (KwLayout, CmsLayout) {
        (
            KwLayout { base_va: 0x1_0000_0000, slots: 4096, value_bytes: 4 },
            CmsLayout { base_va: 0x4_0000_0000, slots: 1 << 16 },
        )
    }

    /// A driver with KW and CMS channels to collectors 0..3, its fault
    /// injector seeded with `seed`. The channels are loopbacks — each
    /// requester QP names itself as the responder — so a test answers a
    /// request on the QPN the request carries.
    fn seeded(config: RebalanceConfig, seed: u64) -> RebalanceDriver {
        let (kw, cms) = layouts();
        let mut qps = Vec::new();
        for collector in 0..3u32 {
            for (service, slot_bytes) in
                [(SERVICE_KW, kw.slot_bytes()), (SERVICE_CMS, CmsLayout::SLOT_BYTES)]
            {
                let qpn = 0x100 + collector * 8 + u32::from(service);
                let mut qp = QueuePair::new(qpn);
                qp.to_rtr(qpn, 0);
                qp.to_rts(0);
                let rkey = u32::from(service);
                let params = ConnectionParams {
                    service,
                    qpn,
                    start_psn: 0,
                    rkey,
                    base_va: 0,
                    region_len: 0,
                    slots: 0,
                    slot_bytes,
                };
                qps.push((collector, qp, params));
            }
        }
        RebalanceDriver::new(config, seed, Some(kw), Some(cms), qps)
    }

    fn driver(config: RebalanceConfig) -> RebalanceDriver {
        seeded(config, 0)
    }

    fn key(n: u8) -> TelemetryKey {
        let mut b = [0u8; 16];
        b[0] = 0x77;
        b[15] = n;
        TelemetryKey(b)
    }

    fn checksum_of(d: &mut RebalanceDriver, k: &TelemetryKey) -> u32 {
        d.scratch.digests(k.as_bytes(), 0).checksum
    }

    /// Fence-record `n` distinct keys of `primitive`; returns checksums.
    fn fence_n(d: &mut RebalanceDriver, primitive: MigPrimitive, n: u8, source: u32) -> Vec<u32> {
        (0..n)
            .map(|i| {
                let k = key(i);
                let csum = checksum_of(d, &k);
                d.fence_record(primitive, &k, csum, 2, source);
                csum
            })
            .collect()
    }

    /// The responder's answer to READ `req`.
    fn read_reply(req: &RocePacket, data: &[u8]) -> RocePacket {
        RocePacket::read_response(req.bth.dest_qp, req.bth.psn, Bytes::copy_from_slice(data))
    }

    /// The target store of a request, by the rkey it carries.
    fn service_of(req: &RocePacket) -> ServiceId {
        let rkey = req.reth.map_or_else(|| req.atomic.unwrap().rkey, |r| r.rkey);
        rkey as ServiceId
    }

    fn psns(out: &[(u32, RocePacket)]) -> Vec<u32> {
        out.iter().map(|(_, p)| p.bth.psn).collect()
    }

    #[test]
    fn fence_dedups_and_evicts_oldest_active() {
        let mut d = driver(RebalanceConfig { fence_capacity: 2, ..Default::default() });
        let csums = fence_n(&mut d, MigPrimitive::KeyWrite, 3, 1);
        assert_eq!(d.stats.scanned, 3);
        assert_eq!(d.stats.fence_evicted, 1);
        assert_eq!(d.stats.skipped, 1);
        assert_eq!(d.entries[0].state, EntryState::Skipped);
        assert_eq!(d.active, 2);
        // Duplicate record is a no-op.
        let k = key(1);
        d.fence_record(MigPrimitive::KeyWrite, &k, csums[1], 2, 1);
        assert_eq!(d.stats.scanned, 3);
    }

    #[test]
    fn kw_drain_replays_and_zeroes() {
        let mut d = driver(RebalanceConfig::default());
        let k = key(9);
        let csum = checksum_of(&mut d, &k);
        d.fence_record(MigPrimitive::KeyWrite, &k, csum, 2, 1);
        d.on_rejoin(0);
        d.start_drain(3);
        let mut out = Vec::new();
        d.pump(1_000, &mut out);
        assert_eq!(out.len(), 1);
        let (collector, read) = out[0].clone();
        assert_eq!(read.bth.opcode, Opcode::ReadRequest);
        assert_eq!(collector, 1);
        assert_eq!(service_of(&read), SERVICE_KW);
        assert_eq!(read.reth.unwrap().dma_len, 8); // 4B checksum + 4B value
        // Respond with a matching slot: checksum ‖ value.
        let mut data = csum.to_be_bytes().to_vec();
        data.extend_from_slice(&0xAABB_CCDDu32.to_be_bytes());
        d.on_response(&read_reply(&read, &data));
        let mut replays = Vec::new();
        d.take_replays(&mut replays);
        assert_eq!(replays.len(), 1);
        // Zero-writes for both redundancy copies, then cumulative ACK.
        out.clear();
        d.pump(2_000, &mut out);
        let zeros: Vec<_> =
            out.iter().map(|(_, p)| p).filter(|p| p.bth.opcode == Opcode::WriteOnly).collect();
        assert_eq!(zeros.len(), 2);
        assert!(zeros.iter().all(|p| p.bth.solicited && p.payload.iter().all(|&b| b == 0)));
        assert!(!d.release_ready());
        let last_psn = zeros.iter().map(|p| p.bth.psn).max().unwrap();
        d.on_response(&RocePacket::ack(zeros[0].bth.dest_qp, last_psn));
        assert_eq!(d.stats.transferred, 1);
        assert!(d.release_ready());
        d.mark_released(4);
        let stats = d.finish();
        assert!(stats.closes());
        assert_eq!(stats.released, 1);
        assert_eq!(stats.release_epoch, 4);
    }

    #[test]
    fn kw_double_writes_stop_once_zeroing_starts() {
        // A live Key-Write report for a fenced key is also written to the
        // fallback owner while the entry is `Armed` or `Reading`, and each
        // such answer is counted; from `Zeroing` on, a late copy could land
        // after the zero-write, so there is none.
        let mut d = driver(RebalanceConfig::default());
        let k = key(9);
        let csum = checksum_of(&mut d, &k);
        assert_eq!(d.double_write_target(csum), None, "an unfenced key has no second owner");
        d.fence_record(MigPrimitive::KeyWrite, &k, csum, 2, 1);
        assert_eq!(d.entries[0].state, EntryState::Armed);
        assert_eq!(d.double_write_target(csum), Some(1));
        d.on_rejoin(0);
        d.start_drain(3);
        let mut out = Vec::new();
        d.pump(1_000, &mut out);
        assert_eq!(d.entries[0].state, EntryState::Reading);
        assert_eq!(d.double_write_target(csum), Some(1));
        assert_eq!(d.stats.double_writes, 2);

        let mut data = csum.to_be_bytes().to_vec();
        data.extend_from_slice(&0xAABB_CCDDu32.to_be_bytes());
        d.on_response(&read_reply(&out[0].1, &data));
        assert_eq!(d.entries[0].state, EntryState::Zeroing);
        assert_eq!(d.double_write_target(csum), None);
        out.clear();
        d.pump(2_000, &mut out);
        let last = out.iter().map(|(_, p)| p.bth.psn).max().unwrap();
        d.on_response(&RocePacket::ack(out[0].1.bth.dest_qp, last));
        assert_eq!(d.entries[0].state, EntryState::Done);
        assert_eq!(d.double_write_target(csum), None);
        assert_eq!(d.stats.double_writes, 2, "a refused double-write is not counted");
    }

    #[test]
    fn kw_drain_skips_empty_and_foreign_slots() {
        let mut d = driver(RebalanceConfig::default());
        let csums = fence_n(&mut d, MigPrimitive::KeyWrite, 2, 1);
        d.on_rejoin(0);
        d.start_drain(3);
        let mut out = Vec::new();
        d.pump(1_000, &mut out);
        assert_eq!(out.len(), 2);
        // First: all-zero slot; second: foreign checksum.
        d.on_response(&read_reply(&out[0].1, &[0u8; 8]));
        let mut foreign = (csums[1] ^ 0xFFFF).to_be_bytes().to_vec();
        foreign.extend_from_slice(&[1, 2, 3, 4]);
        d.on_response(&read_reply(&out[1].1, &foreign));
        let stats = d.stats;
        assert_eq!(stats.skipped_empty, 1);
        assert_eq!(stats.skipped_mismatch, 1);
        assert_eq!(stats.replays, 0);
        assert!(d.release_ready());
        let final_stats = d.finish();
        assert!(final_stats.closes());
    }

    #[test]
    fn inc_arms_defers_and_transfers_delta() {
        let mut d = driver(RebalanceConfig::default());
        let k = key(5);
        let csum = checksum_of(&mut d, &k);
        d.fence_record(MigPrimitive::KeyIncrement, &k, csum, 2, 2);
        // Not rejoined yet: no deferral, no arming.
        let live = DtaReport::key_increment(7, k, 2, 11);
        assert!(!d.try_defer(MigPrimitive::KeyIncrement, csum, &live, ReportOrigin::default()));
        let mut out = Vec::new();
        d.pump(100, &mut out);
        assert!(out.is_empty());
        // Rejoin: one baseline read per redundancy slot, to the victim's
        // CMS channel.
        d.on_rejoin(0);
        d.pump(200, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(c, _)| *c == 0));
        assert!(out.iter().all(|(_, p)| service_of(p) == SERVICE_CMS));
        assert_ne!(out[0].1.reth, out[1].1.reth, "per-slot reads target distinct slots");
        // Live report while the baselines are in flight: deferred.
        assert!(d.try_defer(MigPrimitive::KeyIncrement, csum, &live, ReportOrigin::default()));
        assert_eq!(d.stats.deferred, 1);
        // First baseline alone does not arm; the second does, and the
        // deferral flushes.
        d.on_response(&read_reply(&out[0].1, &40u64.to_be_bytes()));
        assert_eq!(d.stats.armed, 0);
        assert!(d.try_defer(MigPrimitive::KeyIncrement, csum, &live, ReportOrigin::default()));
        d.on_response(&read_reply(&out[1].1, &10u64.to_be_bytes()));
        assert_eq!(d.stats.armed, 1);
        let mut replays = Vec::new();
        d.take_replays(&mut replays);
        assert_eq!(replays.len(), 2);
        assert_eq!(d.stats.deferred_flushed, 2);
        // Armed entries no longer defer.
        assert!(!d.try_defer(MigPrimitive::KeyIncrement, csum, &live, ReportOrigin::default()));
        // Drain: x = 100 at the fallback owner in both slots → per-slot
        // deltas 60 and 90 as FETCH_ADDs to the victim, not a report.
        d.start_drain(3);
        out.clear();
        d.pump(300, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(c, _)| *c == 2));
        let drains = out.clone();
        d.on_response(&read_reply(&drains[0].1, &100u64.to_be_bytes()));
        d.on_response(&read_reply(&drains[1].1, &100u64.to_be_bytes()));
        replays.clear();
        d.take_replays(&mut replays);
        assert!(replays.is_empty(), "INC transfers bypass the report path");
        out.clear();
        d.pump(400, &mut out);
        let adds: Vec<_> = out.iter().filter(|(_, p)| p.bth.opcode == Opcode::FetchAdd).collect();
        assert_eq!(adds.len(), 2);
        assert!(adds.iter().all(|(c, _)| *c == 0));
        let mut deltas: Vec<u64> = adds.iter().map(|(_, p)| p.atomic.unwrap().swap_add).collect();
        deltas.sort_unstable();
        assert_eq!(deltas, vec![60, 90]);
        assert_eq!(d.stats.transfer_adds, 2);
        let zeros: Vec<_> = out.iter().filter(|(_, p)| p.bth.opcode == Opcode::WriteOnly).collect();
        assert_eq!(zeros.len(), 2);
        assert!(zeros.iter().all(|(c, _)| *c == 2));
        // Cumulative ACKs on both channels complete the entry.
        let last = |ops: &[&(u32, RocePacket)]| ops.iter().map(|(_, p)| p.bth.psn).max().unwrap();
        d.on_response(&RocePacket::ack(adds[0].1.bth.dest_qp, last(&adds)));
        assert_eq!(d.stats.transferred, 0, "zero-writes still outstanding");
        d.on_response(&RocePacket::ack(zeros[0].1.bth.dest_qp, last(&zeros)));
        let stats = d.finish();
        assert_eq!(stats.transferred, 1);
        assert!(stats.closes());
    }

    #[test]
    fn inc_zero_sum_skips_without_replay() {
        let mut d = driver(RebalanceConfig::default());
        let k = key(5);
        let csum = checksum_of(&mut d, &k);
        d.fence_record(MigPrimitive::KeyIncrement, &k, csum, 1, 2);
        d.on_rejoin(0);
        let mut out = Vec::new();
        d.pump(100, &mut out);
        d.on_response(&read_reply(&out[0].1, &0u64.to_be_bytes()));
        d.start_drain(3);
        out.clear();
        d.pump(200, &mut out);
        d.on_response(&read_reply(&out[0].1, &0u64.to_be_bytes()));
        let stats = d.finish();
        assert_eq!(stats.skipped_empty, 1);
        assert_eq!(stats.replays, 0);
        assert!(stats.closes());
    }

    #[test]
    fn a_psn_lost_again_resends_at_once_and_predicted_repeats_move_nothing() {
        let mut d = driver(RebalanceConfig { retry_ns: 1_000_000, ..Default::default() });
        fence_n(&mut d, MigPrimitive::KeyWrite, 4, 1);
        d.on_rejoin(0);
        d.start_drain(3);
        let mut out = Vec::new();
        d.pump(1_000, &mut out);
        assert_eq!(psns(&out), [0, 1, 2, 3]);
        let nak = RocePacket::nak(out[0].1.bth.dest_qp, 1);
        let mut now = 1_000;
        for lost in 1..=2u64 {
            // PSN 1 is lost (the second time, its resend is): 2 and 3 each
            // draw a NAK(1). The first resends 1..=3 with the SAME psns at
            // the next pump, not at `retry_ns`; the second is the repeat
            // the QP predicted, and moves nothing.
            d.on_response(&nak);
            assert_eq!(d.stats.naks, lost);
            now += 1;
            out.clear();
            d.pump(now, &mut out);
            assert_eq!(psns(&out), [1, 2, 3], "loss {lost}");
            assert_eq!(d.stats.retransmits, 3 * lost);
            d.on_response(&nak);
            assert_eq!(d.stats.naks, lost);
            now += 1;
            out.clear();
            d.pump(now, &mut out);
            assert!(out.is_empty(), "loss {lost}: a predicted repeat made ops due");
        }
    }

    #[test]
    fn retry_timer_resends_undone_ops() {
        let mut d = driver(RebalanceConfig { retry_ns: 500, ..Default::default() });
        fence_n(&mut d, MigPrimitive::KeyWrite, 1, 1);
        d.on_rejoin(0);
        d.start_drain(3);
        let mut out = Vec::new();
        d.pump(1_000, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        d.pump(1_200, &mut out);
        assert!(out.is_empty(), "not yet due");
        d.pump(1_500, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.bth.psn, 0, "retry reuses the original psn");
        assert_eq!(d.stats.retransmits, 1);
    }

    #[test]
    fn a_short_read_response_leaves_the_op_to_the_retry_timer() {
        let mut d = driver(RebalanceConfig { retry_ns: 500, ..Default::default() });
        let csums = fence_n(&mut d, MigPrimitive::KeyWrite, 1, 1);
        d.on_rejoin(0);
        d.start_drain(3);
        let mut out = Vec::new();
        d.pump(1_000, &mut out);
        let read = out[0].1.clone();
        d.on_response(&read_reply(&read, &[1, 2, 3]));
        assert_eq!(d.stats.ops_completed, 0, "a short response completes nothing");
        out.clear();
        d.pump(1_500, &mut out);
        assert_eq!(psns(&out), [read.bth.psn], "the retry timer resends the read");
        assert_eq!(d.stats.retransmits, 1);
        let mut data = csums[0].to_be_bytes().to_vec();
        data.extend_from_slice(&[5, 6, 7, 8]);
        d.on_response(&read_reply(&read, &data));
        d.take_replays(&mut Vec::new());
        out.clear();
        d.pump(2_000, &mut out);
        let last = *psns(&out).iter().max().unwrap();
        d.on_response(&RocePacket::ack(out[0].1.bth.dest_qp, last));
        assert!(d.release_ready());
        let stats = d.finish();
        assert_eq!((stats.transferred, stats.resident), (1, 0));
    }

    #[test]
    fn a_released_driver_holds_no_outstanding_op() {
        let mut d = driver(RebalanceConfig::default());
        let k = key(4);
        let csum = checksum_of(&mut d, &k);
        d.fence_record(MigPrimitive::KeyIncrement, &k, csum, 1, 2);
        d.on_rejoin(0);
        d.start_drain(3);
        let mut out = Vec::new();
        d.pump(100, &mut out); // the arm read
        d.on_response(&read_reply(&out[0].1, &5u64.to_be_bytes()));
        out.clear();
        d.pump(200, &mut out); // the drain read
        d.on_response(&read_reply(&out[0].1, &9u64.to_be_bytes()));
        out.clear();
        d.pump(300, &mut out); // the delta FETCH_ADD and the zero-write
        assert_eq!(out.len(), 2);
        for (_, p) in &out {
            d.on_response(&RocePacket::ack(p.bth.dest_qp, p.bth.psn));
        }
        assert!(d.release_ready());
        d.mark_released(4);
        assert_eq!(d.ops.len(), 0);
        assert_eq!(d.ops.retired, d.ops.recorded);
        assert!(d.ops.closes());
        out.clear();
        d.pump(1_000_000, &mut out);
        assert!(out.is_empty(), "a released driver sends nothing");
    }

    #[test]
    fn ledger_eviction_abandons_but_still_closes() {
        let mut d = driver(RebalanceConfig {
            ledger_capacity: 1,
            drain_batch: 8,
            ..Default::default()
        });
        let csums = fence_n(&mut d, MigPrimitive::KeyWrite, 2, 1);
        d.on_rejoin(0);
        d.start_drain(3);
        let mut out = Vec::new();
        d.pump(1_000, &mut out);
        // Both drain reads issued; recording the second evicted the first.
        assert_eq!(out.len(), 2);
        assert_eq!(d.stats.abandoned, 1);
        // The abandoned entry's late response is ignored (no double count).
        let mut data = csums[0].to_be_bytes().to_vec();
        data.extend_from_slice(&[9, 9, 9, 9]);
        d.on_response(&read_reply(&out[0].1, &data));
        assert_eq!(d.stats.replays, 0);
        // The survivor completes normally.
        let mut data = csums[1].to_be_bytes().to_vec();
        data.extend_from_slice(&[1, 1, 1, 1]);
        d.on_response(&read_reply(&out[1].1, &data));
        out.clear();
        d.pump(2_000, &mut out);
        let last = *psns(&out).iter().max().unwrap();
        d.on_response(&RocePacket::ack(out[0].1.bth.dest_qp, last));
        let stats = d.finish();
        assert_eq!(stats.transferred, 1);
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.resident, 0);
        assert!(stats.closes());
    }

    #[test]
    fn dice_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let faults = FaultConfig::unreliable(0.5, 0.3, 0.3);
            let config = RebalanceConfig { faults, retry_ns: 100, ..Default::default() };
            let mut d = seeded(config, seed);
            fence_n(&mut d, MigPrimitive::KeyWrite, 8, 1);
            d.on_rejoin(0);
            d.start_drain(3);
            let mut all = Vec::new();
            for t in 0..20u64 {
                d.pump(t * 100, &mut all);
            }
            (all, d.stats)
        };
        let (a1, s1) = run(42);
        let (a2, s2) = run(42);
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        let (a3, _) = run(43);
        assert_ne!(a1, a3, "different seeds should fault differently");
        assert!(s1.injected_drops > 0);
        assert!(s1.injected_dups > 0);
    }

    #[test]
    fn fence_eviction_flushes_deferred_reports() {
        let mut d = driver(RebalanceConfig { fence_capacity: 1, ..Default::default() });
        let k = key(0);
        let csum = checksum_of(&mut d, &k);
        d.fence_record(MigPrimitive::KeyIncrement, &k, csum, 1, 2);
        d.on_rejoin(0);
        let live = DtaReport::key_increment(1, k, 1, 5);
        assert!(d.try_defer(MigPrimitive::KeyIncrement, csum, &live, ReportOrigin::default()));
        // A second key evicts the first, which must release its deferral.
        let k2 = key(1);
        let csum2 = checksum_of(&mut d, &k2);
        d.fence_record(MigPrimitive::KeyIncrement, &k2, csum2, 1, 2);
        assert_eq!(d.stats.fence_evicted, 1);
        let mut replays = Vec::new();
        d.take_replays(&mut replays);
        assert_eq!(replays.len(), 1, "deferred live report survives eviction");
        assert_eq!(d.stats.deferred_flushed, 1);
    }

    #[test]
    fn closure_identity_arithmetic() {
        let s = RebalanceStats {
            scanned: 10,
            transferred: 6,
            skipped: 3,
            resident: 1,
            ..Default::default()
        };
        assert!(s.closes());
        let bad = RebalanceStats { resident: 0, ..s };
        assert!(!bad.closes());
    }
}
