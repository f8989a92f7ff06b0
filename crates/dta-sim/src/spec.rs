//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] names everything a deployment-scale run depends on —
//! fabric shape, fleet size, traffic blend, fault plan, translator mode,
//! RNG seed — and nothing else. Two runs of the same spec produce the same
//! [`crate::ScenarioReport`] and the same collector memory, bit for bit:
//! the only randomness is the seeded generator threaded through workload
//! synthesis and per-link fault injectors, and the only clock is the
//! simulated one.

use dta_collector::{KwLayout, PostcardLayout, ServiceConfig};
use dta_hash::polynomials::MAX_REDUNDANCY;
use dta_net::{FaultConfig, LinkConfig};
use dta_reporter::RetransmitPolicy;
use dta_translator::{PostcardCache, RateLimiterConfig, RebalanceConfig, TranslatorConfig};

/// Which translator pipeline fronts the collector's ToR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslatorMode {
    /// [`dta_translator::FleetNode`] over [`dta_translator::LinkKind::Roce`]:
    /// reports translate inline, one [`dta_translator::Translator`] per
    /// collector, and the resulting RoCE packets traverse the simulated
    /// ToR→collector link (lossless, PFC).
    SingleThreaded,
    /// [`dta_translator::FleetNode`] over
    /// [`dta_translator::LinkKind::InProcess`]: per collector, the PR 2
    /// pipeline (SPSC rings, per-shard translators, dedicated NIC
    /// endpoints) executes RDMA directly into the collector's striped
    /// memory — the intra-rack RoCE hop modeled at the memory level.
    Sharded {
        /// Worker shard count (≥ 1).
        shards: usize,
    },
}

/// Per-link-class fault configuration.
///
/// Classes rather than individual links: a scenario names the *policy*
/// ("reports cross an unreliable fabric"), and the harness derives one
/// deterministic injector per directed link from the scenario seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Applied to each reporter host's uplink (host → edge switch).
    pub report_uplinks: FaultConfig,
    /// Applied to every switch↔switch fabric link, both directions
    /// (edge↔aggregation, aggregation↔core).
    pub fabric: FaultConfig,
    /// Applied to the ToR → collector-host RoCE hop. Only meaningful under
    /// [`TranslatorMode::SingleThreaded`] (the sharded pipeline's RDMA hop
    /// is intra-rack and does not cross a simulated link).
    pub rdma_hop: FaultConfig,
}

impl FaultPlan {
    /// A fault-free fabric.
    pub fn none() -> Self {
        FaultPlan {
            report_uplinks: FaultConfig::none(),
            fabric: FaultConfig::none(),
            rdma_hop: FaultConfig::none(),
        }
    }

    /// The non-FIFO unreliable-channel model on the whole report path
    /// (uplinks + fabric): loss, pairwise reorder, duplicate delivery. The
    /// RoCE hop stays clean.
    pub fn unreliable_report_path(drop: f64, reorder: f64, duplicate: f64) -> Self {
        let cfg = FaultConfig::unreliable(drop, reorder, duplicate);
        FaultPlan { report_uplinks: cfg, fabric: cfg, rdma_hop: FaultConfig::none() }
    }
}

/// One fail-stop event against the collector fleet: collector `victim`
/// drops off the fabric at `kill_at_ns`, optionally rejoining later.
///
/// Detection depends on the translator mode. The single-threaded fleet
/// translator observes a genuine RDMA completion timeout (ACKs stop while
/// unacked work accumulates; see [`CollectorPlan::timeout_ns`] /
/// [`CollectorPlan::min_unacked`]). The sharded pipeline executes RDMA
/// in-process — there is no wire to time out — so the fail-stop surfaces
/// as a CM teardown event delivered to the fleet node, the software
/// analogue of an RDMA_CM `DISCONNECT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorFaultPlan {
    /// Index of the collector to kill (< [`CollectorPlan::count`]).
    pub victim: u32,
    /// Simulated time of the fail-stop, in nanoseconds.
    pub kill_at_ns: u64,
    /// When set, the victim rejoins the fabric at this time (>
    /// `kill_at_ns`) and the routing table re-admits it at a bumped epoch.
    pub rejoin_at_ns: Option<u64>,
    /// A *spurious* failover: the translator is told the victim died but
    /// the node stays up. Exercises replay idempotence — the re-routed
    /// writes must not double-apply anywhere queries look. Mutually
    /// exclusive with `rejoin_at_ns`.
    pub spurious: bool,
}

impl CollectorFaultPlan {
    /// Kill `victim` at `kill_at_ns`, no rejoin.
    pub fn kill(victim: u32, kill_at_ns: u64) -> Self {
        CollectorFaultPlan { victim, kill_at_ns, rejoin_at_ns: None, spurious: false }
    }
}

/// A scheduled live rebalance: after the fault plan's victim rejoins, the
/// fleet migrates the victim's key range back from its failover owner under
/// an epoch fence (see `dta_translator::rebalance`). The plan names *when*
/// the handoff starts and how the migration driver is sized (capacities and
/// `drain_batch` > 0); the victim is always the rejoined collector of
/// [`CollectorFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalancePlan {
    /// Simulated time the fence goes up (must be after
    /// [`CollectorFaultPlan::rejoin_at_ns`] — there is nothing to migrate
    /// back to before the victim is readmitted).
    pub start_at_ns: u64,
    /// Sizing, pacing and migration-path faults of the driver.
    pub driver: RebalanceConfig,
}

impl Default for RebalancePlan {
    fn default() -> Self {
        RebalancePlan { start_at_ns: 36_000, driver: RebalanceConfig::default() }
    }
}

/// The collector tier of the deployment: how many `CollectorService`
/// nodes stand behind the ToR, the translator-side failover tuning, and
/// an optional fail-stop fault against one of them.
///
/// The default is a **single collector and no fault machinery** — byte-
/// for-byte the deployment every existing scenario has always built. The
/// multi-collector fabric (routing table, in-flight ledger, failover
/// state machine) only assembles when `count > 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorPlan {
    /// Collector fleet size (>= 1). Reports partition across the fleet by
    /// key checksum (collector-level salt of
    /// [`dta_translator::Partitioner`]); shard dispatch inside each
    /// collector's pipeline keeps its own domain-separated salt.
    pub count: u32,
    /// Optional fail-stop fault (requires `count >= 2`).
    pub fault: Option<CollectorFaultPlan>,
    /// Completion-timeout horizon: a collector with `min_unacked`+ sends
    /// outstanding and no ACK progress for this long is declared dead
    /// (single-threaded fleet translator only).
    pub timeout_ns: u64,
    /// Minimum outstanding (unacknowledged) sends before the timeout can
    /// fire. Must exceed the collector NIC's worst-case ACK coalescing
    /// backlog (`ack_coalesce - 1` per connected service QP), or a live
    /// but momentarily quiet collector would be declared dead.
    pub min_unacked: u64,
    /// Bound on the translator-side in-flight ledger, per collector
    /// (entries beyond it evict oldest-first and are counted, never
    /// silently dropped).
    pub ledger_capacity: usize,
}

impl CollectorPlan {
    /// The historical single-collector deployment (the default).
    pub fn single() -> Self {
        CollectorPlan {
            count: 1,
            fault: None,
            timeout_ns: 40_000,
            min_unacked: 24,
            ledger_capacity: 4096,
        }
    }

    /// A fleet of `count` collectors, no fault.
    pub fn fleet(count: u32) -> Self {
        CollectorPlan { count, ..CollectorPlan::single() }
    }
}

impl Default for CollectorPlan {
    fn default() -> Self {
        CollectorPlan::single()
    }
}

/// The reporter fleet's traffic blend.
///
/// Weights are relative (they need not sum to anything particular); each
/// op draws its primitive from the weighted distribution. A Postcarding op
/// expands into a full `postcard_hops`-hop flow emitted contiguously by one
/// reporter, so one op may frame several report packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficMix {
    /// Key-Write weight.
    pub key_write: u32,
    /// Append weight.
    pub append: u32,
    /// Key-Increment weight.
    pub key_increment: u32,
    /// Postcarding weight.
    pub postcarding: u32,
    /// Key-Write redundancy `N`.
    pub kw_redundancy: u8,
    /// Key-Increment redundancy `N`.
    pub inc_redundancy: u8,
    /// Key-Write key-pool size (keys are reused across ops: rewrites
    /// exercise last-writer-wins).
    pub kw_keys: usize,
    /// Draw Key-Write keys round-robin from the pool instead of randomly
    /// with replacement, so (while the pool outlasts the op count) every
    /// key is written at most once. Retransmission reorders deliveries;
    /// a write-once workload is the one whose final memory is invariant
    /// under that reordering — the congestion-recovery scenarios need it
    /// to converge byte-identically to their unthrottled twin.
    pub kw_write_once: bool,
    /// Key-Increment key-pool size.
    pub inc_keys: usize,
    /// Append lists used (must not exceed the collector's configured list
    /// count).
    pub append_lists: u32,
    /// Constrain generated key pools so that no two keys share a store
    /// slot (Key-Write redundancy slots, Postcarding chunks) or a
    /// postcard-cache row. This removes the one behaviour sharding
    /// intentionally does not preserve — cross-key last-writer-wins races
    /// on colliding slots — making single-vs-sharded runs byte-comparable.
    /// Fault-equivalence tests set it; throughput scenarios need not.
    pub slot_disjoint_keys: bool,
    /// Also draw Key-Increment keys slot-disjointly over the collector's
    /// CMS geometry. Increments commute, so ordinary scenarios never need
    /// this — but collector-failover scenarios compare a bytewise *merge*
    /// of surviving collector regions against a no-failure twin, and two
    /// keys sharing a CMS counter while living on different collectors
    /// would make that merge lossy. Off by default.
    pub inc_slot_disjoint: bool,
}

impl Default for TrafficMix {
    fn default() -> Self {
        TrafficMix {
            key_write: 40,
            append: 25,
            key_increment: 20,
            postcarding: 15,
            kw_redundancy: 2,
            inc_redundancy: 2,
            kw_keys: 256,
            inc_keys: 64,
            append_lists: 8,
            slot_disjoint_keys: false,
            kw_write_once: false,
            inc_slot_disjoint: false,
        }
    }
}

impl TrafficMix {
    /// Sum of the primitive weights.
    pub fn total_weight(&self) -> u64 {
        self.key_write as u64
            + self.append as u64
            + self.key_increment as u64
            + self.postcarding as u64
    }
}

/// The query stream's primitive blend. Weights are relative, like
/// [`TrafficMix`]; a primitive queried with weight 0 is never drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryMix {
    /// Key-Write plurality-read weight.
    pub key_write: u32,
    /// Append tail-poll weight.
    pub append: u32,
    /// Key-Increment estimate weight.
    pub key_increment: u32,
    /// Postcarding cache-read weight.
    pub postcarding: u32,
}

impl Default for QueryMix {
    fn default() -> Self {
        QueryMix { key_write: 40, append: 25, key_increment: 20, postcarding: 15 }
    }
}

impl QueryMix {
    /// Sum of the primitive weights.
    pub fn total_weight(&self) -> u64 {
        self.key_write as u64
            + self.append as u64
            + self.key_increment as u64
            + self.postcarding as u64
    }
}

/// An online query service co-running with the write phase (§6.5: the
/// collector answers operator queries from host memory while the fabric
/// keeps writing into it).
///
/// The harness stands up a query-service node that, at every reporter-tick
/// boundary inside `[start_ns, stop_ns)`, quiesces the translator pipeline,
/// takes a per-epoch snapshot of collector memory (pooled
/// [`SnapshotBuf`](dta_rdma::mr::SnapshotBuf) images under the stripe
/// locks), and serves a seeded, paced stream of queries against the
/// snapshot through the unified
/// [`QueryEngine`](dta_collector::QueryEngine). Reads never touch live
/// memory, so the writer side of a query-loaded run is byte-identical to
/// its query-free twin — and the resulting
/// [`QueryStats`](crate::QueryStats) are a pure function of the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPlan {
    /// Queries issued per epoch (>= 1). An epoch is one reporter tick.
    pub rate: u32,
    /// Primitive blend of the stream.
    pub mix: QueryMix,
    /// Simulated time the stream starts (first epoch boundary at or after
    /// this).
    pub start_ns: u64,
    /// Simulated time the stream stops (exclusive; > `start_ns`).
    pub stop_ns: u64,
    /// Query-stream seed, independent of the workload seed so the same
    /// written memory can be probed by different streams.
    pub seed: u64,
}

impl Default for QueryPlan {
    fn default() -> Self {
        QueryPlan {
            rate: 16,
            mix: QueryMix::default(),
            start_ns: 4_000,
            stop_ns: 32_000,
            seed: 7,
        }
    }
}

/// The congestion-control loop of §5.2 as a scenario dimension: translator
/// rate limiting toward the collector NIC, NACKs back to reporters for
/// dropped reports, reporter-side retransmission, and the link class of
/// the PFC-protected ToR→collector RoCE hop.
///
/// The default plan is a **no-op**: no rate limiter, no NACK flags, no
/// retransmission, and the same `dc_100g_lossless` RoCE hop every scenario
/// has always used — so every existing spec (and the engine goldens) is
/// unchanged unless a scenario opts in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionPlan {
    /// Translator-side RDMA rate limiter (both modes; the sharded pipeline
    /// divides the budget exactly across shards). `None` = unlimited.
    pub rate_limit: Option<RateLimiterConfig>,
    /// Set the `nack_on_drop` flag on every generated report, and emit
    /// NACKs for rate-limited drops (in sharded mode this also schedules a
    /// drain tick on the translator ToR).
    pub nack_on_drop: bool,
    /// Reporter-side NACK-driven retransmission (requires `nack_on_drop`).
    pub retransmit: Option<RetransmitPolicy>,
    /// Link class of the ToR→collector RoCE hop. Defaults to the usual
    /// PFC-lossless 100G port; congestion scenarios can substitute a
    /// tighter lossless config (to surface PFC pauses) or a lossy one (to
    /// demonstrate why the RDMA hop must not be).
    pub rdma_link: LinkConfig,
}

impl CongestionPlan {
    /// The no-op plan (the default).
    pub fn none() -> Self {
        CongestionPlan {
            rate_limit: None,
            nack_on_drop: false,
            retransmit: None,
            rdma_link: LinkConfig::dc_100g_lossless(),
        }
    }
}

impl Default for CongestionPlan {
    fn default() -> Self {
        CongestionPlan::none()
    }
}

/// Most reporters one host will co-host as fleet lanes.
pub const MAX_LANES_PER_HOST: u32 = 64;

/// Largest fabric the harness can address: a reporter's source IP carries
/// its host's node id in the low 16 bits, and K=62 is the last fat-tree
/// whose node ids (switches + hosts) fit there.
const MAX_FAT_TREE_K: u32 = 62;

/// A complete end-to-end deployment description.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Fat-tree port count `k` (even, ≥ 2). The collector lives on host
    /// (pod 0, edge 0, host 0); its edge switch is the translator ToR.
    pub fat_tree_k: u32,
    /// Reporter fleet size. Reporters are placed round-robin over the
    /// non-collector hosts in deterministic (pod, edge, host) order; a
    /// fleet larger than the host count co-locates reporters as extra
    /// *lanes* of the per-host [`dta_reporter::ReporterFleetNode`] (each
    /// lane a full reporter with its own source IP, paced independently) —
    /// this is how a K=8 fabric of 127 usable hosts carries a
    /// 1000+-reporter fleet.
    pub reporters: u32,
    /// Ops each reporter performs (a Postcarding op frames several report
    /// packets).
    pub ops_per_reporter: u32,
    /// Traffic blend.
    pub traffic: TrafficMix,
    /// Per-link-class fault configuration.
    pub faults: FaultPlan,
    /// Congestion-control loop configuration (no-op by default).
    pub congestion: CongestionPlan,
    /// Collector tier: fleet size, failover tuning, optional fail-stop
    /// fault (single collector, no fault by default).
    pub collectors: CollectorPlan,
    /// Optional post-rejoin key-range migration back to the rejoined
    /// collector (requires `collectors.fault` with a rejoin; `None` by
    /// default).
    pub rebalance: Option<RebalancePlan>,
    /// Optional online query stream served concurrently with the write
    /// phase (`None` by default — no query service, no `query` section in
    /// the report).
    pub query: Option<QueryPlan>,
    /// Translator pipeline at the ToR.
    pub mode: TranslatorMode,
    /// Translator sizing (shared by both modes; the sharded mode clones it
    /// per shard).
    pub translator: TranslatorConfig,
    /// Collector sizing.
    pub service: ServiceConfig,
    /// Master seed: workload synthesis and every link's fault injector
    /// derive from it.
    pub seed: u64,
    /// Reporter pacing period in simulated nanoseconds.
    pub tick_ns: u64,
    /// Reports each reporter emits per tick.
    pub reports_per_tick: usize,
    /// Settle margin (ns) between the last scheduled emission and the
    /// translator flush, and again between the flush and the end of the
    /// run — must exceed the worst-case multi-hop delivery delay.
    pub drain_ns: u64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            fat_tree_k: 4,
            reporters: 8,
            ops_per_reporter: 32,
            traffic: TrafficMix::default(),
            faults: FaultPlan::none(),
            congestion: CongestionPlan::none(),
            collectors: CollectorPlan::single(),
            rebalance: None,
            query: None,
            mode: TranslatorMode::SingleThreaded,
            translator: TranslatorConfig::default(),
            service: ServiceConfig::default(),
            seed: 1,
            tick_ns: 4_000,
            reports_per_tick: 8,
            drain_ns: 300_000,
        }
    }
}

impl ScenarioSpec {
    /// Check internal consistency; returns a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.fat_tree_k < 2 || !self.fat_tree_k.is_multiple_of(2) {
            return Err(format!("fat_tree_k must be even and >= 2, got {}", self.fat_tree_k));
        }
        if self.fat_tree_k > MAX_FAT_TREE_K {
            return Err(format!(
                "fat_tree_k must be <= {MAX_FAT_TREE_K}, got {}",
                self.fat_tree_k
            ));
        }
        let hosts = self.fat_tree_k * (self.fat_tree_k / 2) * (self.fat_tree_k / 2);
        if self.collectors.count == 0 {
            return Err("need at least one collector".into());
        }
        if self.collectors.count >= hosts {
            return Err(format!(
                "{} collectors leave no host for reporters (fabric has {})",
                self.collectors.count, hosts
            ));
        }
        let usable = hosts - self.collectors.count; // collectors occupy hosts
        if self.reporters == 0 {
            return Err("fleet needs at least one reporter".into());
        }
        // Lanes are capped so a single host tick cannot burst an
        // unbounded packet train (and a typo'd fleet size fails loudly).
        let lanes = self.reporters.div_ceil(usable);
        if lanes > MAX_LANES_PER_HOST {
            return Err(format!(
                "{} reporters over {} usable hosts is {} lanes/host (max {})",
                self.reporters, usable, lanes, MAX_LANES_PER_HOST
            ));
        }
        if self.traffic.total_weight() == 0 {
            return Err("traffic mix has zero total weight".into());
        }
        // The translator pre-installs redundancy groups 1..=MAX_REDUNDANCY
        // and the hash families stop there.
        for (key, n) in [
            ("traffic.kw_redundancy", usize::from(self.traffic.kw_redundancy)),
            ("traffic.inc_redundancy", usize::from(self.traffic.inc_redundancy)),
            ("translator.postcard_redundancy", self.translator.postcard_redundancy),
        ] {
            if !(1..=MAX_REDUNDANCY).contains(&n) {
                return Err(format!("{key} must be in 1..={MAX_REDUNDANCY}, got {n}"));
            }
        }
        if self.translator.postcard_hops != self.service.postcard_hops {
            return Err(format!(
                "translator.postcard_hops ({}) must equal service.postcard_hops ({}): \
                 both ends share one chunk stride",
                self.translator.postcard_hops, self.service.postcard_hops
            ));
        }
        // A query reads a slot or chunk onto its stack: one 64-byte line.
        if self.service.kw_value_bytes > KwLayout::MAX_VALUE_BYTES {
            return Err(format!(
                "service.kw_value_bytes must be <= {}, got {}",
                KwLayout::MAX_VALUE_BYTES,
                self.service.kw_value_bytes
            ));
        }
        if self.service.postcard_hops > PostcardLayout::MAX_HOPS {
            return Err(format!(
                "service.postcard_hops must be <= {}, got {}",
                PostcardLayout::MAX_HOPS,
                self.service.postcard_hops
            ));
        }
        // The translator's aggregation cache holds fewer hops per row.
        if self.translator.postcard_hops > PostcardCache::MAX_HOPS {
            return Err(format!(
                "translator.postcard_hops must be <= {} (the postcard cache's row), got {}",
                PostcardCache::MAX_HOPS,
                self.translator.postcard_hops
            ));
        }
        if self.translator.append_batch == 0 {
            return Err("translator.append_batch must be >= 1".into());
        }
        if self.translator.mtu == 0 {
            return Err("translator.mtu must be >= 1".into());
        }
        if self.traffic.key_write > 0 && self.traffic.kw_keys == 0 {
            return Err("key_write weight set but kw_keys is 0".into());
        }
        if self.traffic.key_increment > 0 && self.traffic.inc_keys == 0 {
            return Err("key_increment weight set but inc_keys is 0".into());
        }
        if self.traffic.append > 0 {
            if self.traffic.append_lists == 0 {
                return Err("append weight set but append_lists is 0".into());
            }
            if self.service.append_lists > 0
                && self.traffic.append_lists > self.service.append_lists
            {
                return Err(format!(
                    "traffic uses {} append lists but the collector has {}",
                    self.traffic.append_lists, self.service.append_lists
                ));
            }
        }
        if let TranslatorMode::Sharded { shards } = self.mode {
            if shards == 0 {
                return Err("sharded mode needs at least one shard".into());
            }
            // The sharded pipeline's RDMA hop is intra-rack (shard NIC
            // endpoints write collector memory in-process): a fault plan
            // on the simulated ToR→collector link would silently apply to
            // nothing. Reject it instead of ignoring it.
            if !self.faults.rdma_hop.is_none() {
                return Err("faults.rdma_hop is meaningless under TranslatorMode::Sharded: \
                     the RDMA hop does not cross a simulated link"
                    .into());
            }
        }
        if self.collectors.count > 1 {
            // The fleet translators replay Key-Write / Key-Increment from
            // the in-flight ledger; Append batches and Postcarding cache
            // rows are translator-held state that dies with a connection
            // and cannot be replayed, so a fleet scenario excludes them.
            if self.traffic.append > 0 || self.traffic.postcarding > 0 {
                return Err("multi-collector scenarios carry Key-Write/Key-Increment \
                     traffic only: Append and Postcarding cannot be replayed \
                     across a failover"
                    .into());
            }
            // The reporter NACK loop runs on the collector link, so a
            // fleet could carry it, but nothing has checked NACK-driven
            // retransmission against ledger replay: still rejected.
            if self.congestion.rate_limit.is_some()
                || self.congestion.nack_on_drop
                || self.congestion.retransmit.is_some()
            {
                return Err("multi-collector scenarios do not support the \
                     congestion loop (rate_limit / nack_on_drop / retransmit)"
                    .into());
            }
            if !self.faults.rdma_hop.is_none() {
                return Err("faults.rdma_hop names a single ToR→collector link; \
                     use collectors.fault for collector-tier faults".into());
            }
            if self.collectors.timeout_ns == 0
                || self.collectors.min_unacked == 0
                || self.collectors.ledger_capacity == 0
            {
                return Err("collector failover tuning must be positive".into());
            }
            // A healthy collector may legitimately sit on `ack_coalesce - 1`
            // unanswered sends per service QP (KW + INC = 2 QPs). A floor
            // at or below that backlog turns ordinary coalescing silence
            // into a false fail-stop verdict. (The NIC reads an
            // `ack_coalesce` of 0 as 1: every packet acknowledged.)
            let coalesce_backlog = 2 * (u64::from(self.service.nic.ack_coalesce.max(1)) - 1);
            if self.collectors.min_unacked <= coalesce_backlog {
                return Err(format!(
                    "collectors.min_unacked ({}) must exceed the worst-case \
                     ACK-coalescing backlog of 2 QPs x (ack_coalesce - 1) = {}",
                    self.collectors.min_unacked, coalesce_backlog
                ));
            }
        }
        if let Some(fault) = &self.collectors.fault {
            if self.collectors.count < 2 {
                return Err("a collector fault needs a fleet of >= 2 (survivors \
                     must exist to re-route to)"
                    .into());
            }
            if fault.victim >= self.collectors.count {
                return Err(format!(
                    "collector fault victim {} out of range (fleet of {})",
                    fault.victim, self.collectors.count
                ));
            }
            if fault.kill_at_ns == 0 {
                return Err("collector kill_at_ns must be positive".into());
            }
            if let Some(rejoin) = fault.rejoin_at_ns {
                if rejoin <= fault.kill_at_ns {
                    return Err("collector rejoin must come after the kill".into());
                }
                if fault.spurious {
                    return Err("a spurious failover never removed the node: \
                         rejoin_at_ns does not apply"
                        .into());
                }
            }
        }
        if let Some(rb) = &self.rebalance {
            // A rebalance migrates the victim's key range *back* to it:
            // without a fault-and-rejoin there is no churn to heal.
            let Some(fault) = &self.collectors.fault else {
                return Err("rebalance configured but collectors.fault is None: \
                     there is no membership churn to rebalance after"
                    .into());
            };
            let Some(rejoin) = fault.rejoin_at_ns else {
                return Err("rebalance needs collectors.fault.rejoin_at_ns: \
                     the migration target is the rejoined victim".into());
            };
            if rb.start_at_ns <= rejoin {
                return Err(format!(
                    "rebalance.start_at_ns ({}) must come after the rejoin ({})",
                    rb.start_at_ns, rejoin
                ));
            }
            if rb.driver.fence_capacity == 0 || rb.driver.ledger_capacity == 0 {
                return Err("rebalance fence/ledger capacities must be >= 1 \
                     (a zero bound would evict every entry on arrival)"
                    .into());
            }
            if rb.driver.drain_batch == 0 {
                return Err("rebalance.drain_batch must be >= 1".into());
            }
        }
        if self.tick_ns == 0 || self.reports_per_tick == 0 {
            return Err("pacing must be positive".into());
        }
        if let Some(q) = &self.query {
            if q.rate == 0 {
                return Err("query.rate must be >= 1".into());
            }
            if q.stop_ns <= q.start_ns {
                return Err(format!(
                    "query window is empty: stop_ns ({}) must exceed start_ns ({})",
                    q.stop_ns, q.start_ns
                ));
            }
            if q.mix.total_weight() == 0 {
                return Err("query mix has zero total weight".into());
            }
            // The stream draws its keys from the workload's ledgered
            // pools; querying a primitive the traffic never writes would
            // sample an empty pool.
            for (name, qw, tw) in [
                ("key_write", q.mix.key_write, self.traffic.key_write),
                ("append", q.mix.append, self.traffic.append),
                ("key_increment", q.mix.key_increment, self.traffic.key_increment),
                ("postcarding", q.mix.postcarding, self.traffic.postcarding),
            ] {
                if qw > 0 && tw == 0 {
                    return Err(format!(
                        "query mix weights {name} but the traffic mix never \
                         writes it (weight 0): the query pool would be empty"
                    ));
                }
            }
            // The query service routes with an epoch-0 routing table
            // captured at build time; a mid-run fail-stop would silently
            // de-synchronize reader and writer routing.
            if self.collectors.fault.is_some() {
                return Err("query plans do not support collector faults: the \
                     query service routes with the epoch-0 table"
                    .into());
            }
            // Per-epoch snapshots are taken after a pipeline quiesce; the
            // quiesce fixes *when* writes land, but cross-key slot races
            // inside an epoch are still shard-order dependent, so sharded
            // query runs additionally need collision-free pools (the same
            // rule as cross-mode comparisons).
            if matches!(self.mode, TranslatorMode::Sharded { .. })
                && !self.traffic.slot_disjoint_keys
            {
                return Err("query plans under TranslatorMode::Sharded require \
                     traffic.slot_disjoint_keys for bit-reproducible epochs"
                    .into());
            }
        }
        if let Some(policy) = &self.congestion.retransmit {
            if !self.congestion.nack_on_drop {
                return Err("retransmit configured but nack_on_drop is off: \
                     reporters would never learn of a drop"
                    .into());
            }
            if policy.window == 0 {
                return Err("retransmit window must be >= 1".into());
            }
            if policy.max_retries == 0 {
                return Err("retransmit max_retries must be >= 1".into());
            }
        }
        if self.congestion.nack_on_drop && self.congestion.rate_limit.is_none() {
            return Err("nack_on_drop without a rate limiter can never fire".into());
        }
        if self.traffic.kw_write_once {
            // Worst case every op is a Key-Write: the pool must cover it
            // or the round-robin draw silently wraps into rewrites.
            let worst = self.reporters as u64 * self.ops_per_reporter as u64;
            if (self.traffic.kw_keys as u64) < worst {
                return Err(format!(
                    "kw_write_once needs kw_keys >= reporters*ops ({} < {})",
                    self.traffic.kw_keys, worst
                ));
            }
        }
        // Fault dice assert p ∈ [0, 1] mid-run, and a migration drop above 1
        // never lets a rebalance release: every `*_chance` key is one.
        for key in crate::corpus::keys().filter(|k| k.name.ends_with("_chance")) {
            let Some(p) = (key.show)(self).and_then(|v| v.parse::<f64>().ok()) else { continue };
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{}.{} must be in [0, 1], got {p}", key.section, key.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        assert_eq!(ScenarioSpec::default().validate(), Ok(()));
        assert_eq!(ScenarioSpec::preset("smoke", TranslatorMode::Sharded { shards: 4 }).validate(), Ok(()));
    }

    #[test]
    fn bad_specs_are_rejected() {
        let mut s = ScenarioSpec { fat_tree_k: 3, ..ScenarioSpec::default() };
        assert!(s.validate().is_err());
        // Past the addressable fabric (and, far enough, past u32 host math).
        for k in [MAX_FAT_TREE_K + 2, 100_000] {
            s.fat_tree_k = k;
            assert!(s.validate().unwrap_err().contains("fat_tree_k"));
        }
        s.fat_tree_k = MAX_FAT_TREE_K;
        assert_eq!(s.validate(), Ok(()));
        s.fat_tree_k = 4;
        s.reporters = 0;
        assert!(s.validate().is_err());
        // 16 hosts, one is the collector: 16 reporters co-locate as a
        // second lane on one host; past the lane cap the spec is rejected.
        s.reporters = 16;
        assert_eq!(s.validate(), Ok(()));
        s.reporters = 15 * MAX_LANES_PER_HOST + 1;
        assert!(s.validate().is_err());
        s.reporters = 15;
        assert_eq!(s.validate(), Ok(()));
        s.traffic = TrafficMix { key_write: 0, append: 0, key_increment: 0, postcarding: 0, ..s.traffic };
        assert!(s.validate().is_err());
        let s = ScenarioSpec { mode: TranslatorMode::Sharded { shards: 0 }, ..ScenarioSpec::default() };
        assert!(s.validate().is_err());
        let mut s = ScenarioSpec::default();
        s.traffic.append_lists = s.service.append_lists + 1;
        assert!(s.validate().is_err());
    }

    #[test]
    fn congestion_plans_validate() {
        use dta_reporter::RetransmitPolicy;
        use dta_translator::RateLimiterConfig;
        // The shipped congested preset is internally consistent.
        assert_eq!(ScenarioSpec::preset("congested", TranslatorMode::SingleThreaded).validate(), Ok(()));
        assert_eq!(
            ScenarioSpec::preset("congested", TranslatorMode::Sharded { shards: 4 }).validate(),
            Ok(())
        );
        // Retransmit without NACKs can never trigger.
        let mut s = ScenarioSpec::default();
        s.congestion.rate_limit = Some(RateLimiterConfig::bluefield2());
        s.congestion.retransmit = Some(RetransmitPolicy::default());
        assert!(s.validate().is_err());
        s.congestion.nack_on_drop = true;
        assert_eq!(s.validate(), Ok(()));
        // Degenerate retransmit policies fail loudly.
        s.congestion.retransmit = Some(RetransmitPolicy { window: 0, ..RetransmitPolicy::default() });
        assert!(s.validate().is_err());
        s.congestion.retransmit =
            Some(RetransmitPolicy { max_retries: 0, ..RetransmitPolicy::default() });
        assert!(s.validate().is_err());
        // NACK flags without a limiter are dead config.
        let mut s = ScenarioSpec::default();
        s.congestion.nack_on_drop = true;
        assert!(s.validate().is_err());
        // Write-once pools must cover the worst-case op count.
        let mut s = ScenarioSpec::preset("congested", TranslatorMode::SingleThreaded);
        s.traffic.kw_keys = 8;
        assert!(s.validate().is_err());
    }

    #[test]
    fn rdma_hop_faults_rejected_under_sharded_mode() {
        // The sharded pipeline's RDMA hop never crosses a simulated link,
        // so a fault plan on it used to be silently meaningless. It must
        // be rejected, and the identical plan must stay valid in
        // single-threaded mode (where the hop is real).
        let mut s = ScenarioSpec::default();
        s.faults.rdma_hop = dta_net::FaultConfig::unreliable(0.1, 0.0, 0.0);
        assert_eq!(s.validate(), Ok(()));
        s.mode = TranslatorMode::Sharded { shards: 4 };
        let err = s.validate().unwrap_err();
        assert!(err.contains("rdma_hop"), "unexpected error: {err}");
    }

    #[test]
    fn collector_plans_validate() {
        // The shipped failover preset is internally consistent in both
        // modes.
        assert_eq!(ScenarioSpec::preset("failover", TranslatorMode::SingleThreaded).validate(), Ok(()));
        assert_eq!(
            ScenarioSpec::preset("failover", TranslatorMode::Sharded { shards: 4 }).validate(),
            Ok(())
        );
        // A fault needs survivors.
        let mut s = ScenarioSpec::default();
        s.collectors.fault = Some(CollectorFaultPlan::kill(0, 1_000));
        assert!(s.validate().is_err());
        s.collectors = CollectorPlan::fleet(3);
        // ...and a fleet needs replayable traffic (no Append/Postcarding).
        assert!(s.validate().is_err());
        s.traffic.append = 0;
        s.traffic.postcarding = 0;
        // The default NIC coalesces 64 ACKs: min_unacked 24 sits inside
        // ordinary coalescing silence and must be rejected as a
        // false-positive fail-stop detector.
        let err = s.validate().unwrap_err();
        assert!(err.contains("min_unacked"), "unexpected error: {err}");
        s.service.nic = s.service.nic.with_ack_coalesce(8);
        assert_eq!(s.validate(), Ok(()));
        // A NIC that acknowledges every packet (0 reads as 1) has no
        // coalescing backlog: any positive floor clears it.
        let mut every = s.clone();
        every.service.nic.ack_coalesce = 0;
        every.collectors.min_unacked = 1;
        assert_eq!(every.validate(), Ok(()));
        // Victim must be in range, the kill must be scheduled, and a
        // rejoin must follow it.
        s.collectors.fault = Some(CollectorFaultPlan::kill(3, 1_000));
        assert!(s.validate().is_err());
        s.collectors.fault = Some(CollectorFaultPlan::kill(1, 0));
        assert!(s.validate().is_err());
        let mut f = CollectorFaultPlan::kill(1, 5_000);
        f.rejoin_at_ns = Some(4_000);
        s.collectors.fault = Some(f);
        assert!(s.validate().is_err());
        f.rejoin_at_ns = Some(9_000);
        s.collectors.fault = Some(f);
        assert_eq!(s.validate(), Ok(()));
        // Spurious failovers never removed the node: no rejoin to plan.
        f.spurious = true;
        s.collectors.fault = Some(f);
        assert!(s.validate().is_err());
        f.rejoin_at_ns = None;
        s.collectors.fault = Some(f);
        assert_eq!(s.validate(), Ok(()));
        // Fleets opt out of the congestion loop.
        let mut s = ScenarioSpec::preset("failover", TranslatorMode::SingleThreaded);
        s.congestion.rate_limit =
            Some(dta_translator::RateLimiterConfig { msgs_per_sec: 10e6, burst: 64 });
        assert!(s.validate().is_err());
        // Zero collectors / a fleet covering every host fail loudly.
        let mut s = ScenarioSpec::default();
        s.collectors.count = 0;
        assert!(s.validate().is_err());
        s.collectors.count = 16; // K=4 has exactly 16 hosts
        assert!(s.validate().is_err());
    }

    #[test]
    fn rebalance_plans_validate() {
        // The shipped rebalance preset is internally consistent in both
        // modes.
        assert_eq!(ScenarioSpec::preset("rebalance", TranslatorMode::SingleThreaded).validate(), Ok(()));
        assert_eq!(
            ScenarioSpec::preset("rebalance", TranslatorMode::Sharded { shards: 4 }).validate(),
            Ok(())
        );
        // A rebalance without any collector fault has no churn to heal.
        let mut s = ScenarioSpec::preset("rebalance", TranslatorMode::SingleThreaded);
        s.collectors.fault = None;
        let err = s.validate().unwrap_err();
        assert!(err.contains("collectors.fault"), "unexpected error: {err}");
        // ...and without a rejoin there is no migration target.
        let mut s = ScenarioSpec::preset("rebalance", TranslatorMode::SingleThreaded);
        s.collectors.fault.as_mut().unwrap().rejoin_at_ns = None;
        let err = s.validate().unwrap_err();
        assert!(err.contains("rejoin_at_ns"), "unexpected error: {err}");
        // The fence cannot go up before the victim is back.
        let mut s = ScenarioSpec::preset("rebalance", TranslatorMode::SingleThreaded);
        s.rebalance.as_mut().unwrap().start_at_ns = 28_000;
        assert!(s.validate().is_err());
        s.rebalance.as_mut().unwrap().start_at_ns = 28_001;
        assert_eq!(s.validate(), Ok(()));
        // Zero-sized migration bounds would evict everything on arrival.
        let mut s = ScenarioSpec::preset("rebalance", TranslatorMode::SingleThreaded);
        s.rebalance.as_mut().unwrap().driver.fence_capacity = 0;
        assert!(s.validate().is_err());
        let mut s = ScenarioSpec::preset("rebalance", TranslatorMode::SingleThreaded);
        s.rebalance.as_mut().unwrap().driver.ledger_capacity = 0;
        assert!(s.validate().is_err());
        let mut s = ScenarioSpec::preset("rebalance", TranslatorMode::SingleThreaded);
        s.rebalance.as_mut().unwrap().driver.drain_batch = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn query_plans_validate() {
        // The shipped preset is internally consistent in both modes.
        assert_eq!(ScenarioSpec::preset("query_under_load", TranslatorMode::SingleThreaded).validate(), Ok(()));
        assert_eq!(
            ScenarioSpec::preset("query_under_load", TranslatorMode::Sharded { shards: 4 }).validate(),
            Ok(())
        );
        // Degenerate rates and empty windows fail loudly.
        let mut s = ScenarioSpec::preset("query_under_load", TranslatorMode::SingleThreaded);
        s.query.as_mut().unwrap().rate = 0;
        assert!(s.validate().is_err());
        let mut s = ScenarioSpec::preset("query_under_load", TranslatorMode::SingleThreaded);
        s.query.as_mut().unwrap().stop_ns = s.query.unwrap().start_ns;
        assert!(s.validate().is_err());
        // An all-zero mix never queries anything.
        let mut s = ScenarioSpec::preset("query_under_load", TranslatorMode::SingleThreaded);
        s.query.as_mut().unwrap().mix =
            QueryMix { key_write: 0, append: 0, key_increment: 0, postcarding: 0 };
        assert!(s.validate().is_err());
        // Querying a primitive the traffic never writes samples an empty
        // pool.
        let mut s = ScenarioSpec::preset("query_under_load", TranslatorMode::SingleThreaded);
        s.traffic.postcarding = 0;
        let err = s.validate().unwrap_err();
        assert!(err.contains("postcarding"), "unexpected error: {err}");
        s.query.as_mut().unwrap().mix.postcarding = 0;
        assert_eq!(s.validate(), Ok(()));
        // The reader routes with the epoch-0 table: no collector faults.
        let mut s = ScenarioSpec::preset("query_under_load", TranslatorMode::SingleThreaded);
        s.traffic.append = 0;
        s.traffic.postcarding = 0;
        s.query.as_mut().unwrap().mix.append = 0;
        s.query.as_mut().unwrap().mix.postcarding = 0;
        s.collectors = CollectorPlan {
            fault: Some(CollectorFaultPlan::kill(1, 12_000)),
            timeout_ns: 8_000,
            ..CollectorPlan::fleet(3)
        };
        s.service.nic = s.service.nic.with_ack_coalesce(8);
        let err = s.validate().unwrap_err();
        assert!(err.contains("fault"), "unexpected error: {err}");
        s.collectors.fault = None;
        assert_eq!(s.validate(), Ok(()), "fleet-without-fault query runs are legal");
        // Sharded query runs need collision-free pools.
        let mut s = ScenarioSpec::preset("query_under_load", TranslatorMode::Sharded { shards: 4 });
        s.traffic.slot_disjoint_keys = false;
        let err = s.validate().unwrap_err();
        assert!(err.contains("slot_disjoint_keys"), "unexpected error: {err}");
    }

    #[test]
    fn fault_plan_presets() {
        assert!(FaultPlan::none().fabric.is_none());
        let p = FaultPlan::unreliable_report_path(0.1, 0.05, 0.02);
        assert_eq!(p.fabric.drop_chance, 0.1);
        assert_eq!(p.report_uplinks.duplicate_chance, 0.02);
        assert!(p.rdma_hop.is_none());
    }
}
