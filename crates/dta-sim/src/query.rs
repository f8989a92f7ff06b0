//! The online query service: paced reads against collector memory while
//! the write phase is still running (§6.5 — the collector answers operator
//! queries from host memory as the fabric keeps writing into it).
//!
//! [`QueryService`] owns *reader clones* of the collector stores — the
//! same layouts and hash families over the same `Arc`-shared
//! [`MemoryRegion`](dta_rdma::mr::MemoryRegion)s, but its own Append
//! tails — captured before the services move into their network nodes. At
//! every reporter-tick boundary inside the plan's window the scenario
//! harness quiesces the translator pipeline and calls
//! [`QueryService::run_epoch`], which:
//!
//! 1. snapshots each store's region (pooled
//!    [`SnapshotBuf`](dta_rdma::mr::SnapshotBuf) images taken under the
//!    stripe locks — writers never block, readers never tear),
//! 2. builds a [`SnapshotQueryEngine`] per collector and a
//!    [`FleetQueryEngine`] over them (owner routing with the epoch-0
//!    table; query plans exclude collector faults), and
//! 3. serves the epoch's seeded query stream against the images,
//!    accounting latency, staleness, and hit/miss/fan-out counts into
//!    [`QueryStats`].
//!
//! **Determinism.** Everything in [`QueryStats`] is a pure function of the
//! spec: the stream is drawn from its own seeded RNG (domain-separated
//! from the workload stream), the snapshots are functions of the delivered
//! report sequence at each epoch boundary (the quiesce pins this in
//! sharded mode), and latency is *simulated* — a single-server queue whose
//! service time is a fixed cost model over the engine's deterministic
//! probe accounting, not wall clock. Same spec ⇒ same `QueryStats`, bit
//! for bit, and the writer side never observes the readers at all (reads
//! go to snapshot images), so collector memory stays byte-identical to the
//! query-free twin.

use dta_collector::{
    AppendReader, CollectorService, KeyIncrementStore, KeyWriteStore, PostcardStore, QueryEngine,
    QueryPolicy, QueryRequest, QueryResult, SnapshotQueryEngine, SnapshotView,
};
use dta_core::TelemetryKey;
use dta_rdma::mr::SnapshotBuf;
use dta_translator::{CollectorRoutingTable, FleetQueryEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{QueryMix, QueryPlan, ScenarioSpec};
use crate::traffic::Workload;

/// Fixed simulated service cost per query, before per-probe costs.
const SERVICE_BASE_NS: u64 = 80;
/// Simulated cost per slot/chunk/counter read.
const SERVICE_SLOT_NS: u64 = 30;
/// Simulated cost per fan-out probe (a miss at the owner re-issues the
/// read against another collector).
const SERVICE_FANOUT_NS: u64 = 120;

/// Power-of-two latency histogram: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes 0 ns; the last
/// bucket is open-ended).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Log2 buckets.
    pub buckets: [u64; 16],
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, ns.
    pub total_ns: u64,
    /// Smallest sample, ns (0 when empty).
    pub min_ns: u64,
    /// Largest sample, ns.
    pub max_ns: u64,
}

impl LatencyHistogram {
    /// Record one latency sample.
    pub fn record(&mut self, ns: u64) {
        let bucket = if ns == 0 { 0 } else { (ns.ilog2() as usize).min(15) };
        self.buckets[bucket] += 1;
        if self.count == 0 || ns < self.min_ns {
            self.min_ns = ns;
        }
        self.max_ns = self.max_ns.max(ns);
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    /// Mean latency, ns (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// What the query stream measured. Bit-reproducible for a given spec.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Epochs the service ran (snapshot rounds).
    pub epochs: u64,
    /// Queries issued.
    pub issued: u64,
    /// Queries a store answered (everything but
    /// [`QueryResult::Unavailable`]).
    pub answered: u64,
    /// Queries that returned telemetry (found value, non-blank entry,
    /// non-zero estimate).
    pub hits: u64,
    /// Queries that did not.
    pub misses: u64,
    /// Slot/chunk/counter reads performed.
    pub slot_probes: u64,
    /// Non-owner collectors probed on owner misses (0 for single-collector
    /// runs).
    pub fanout_probes: u64,
    /// Simulated end-to-end latency distribution.
    pub latency: LatencyHistogram,
    /// Sum over queries of how many write epochs elapsed between the
    /// snapshot a query was answered from and the simulated time its
    /// answer was ready (writes past the emission window no longer age an
    /// answer).
    pub staleness_epochs_total: u64,
    /// Worst single-query staleness, in epochs.
    pub staleness_epochs_max: u64,
}

/// Reader clones of one collector's stores: same layouts, hash families,
/// and `Arc`-shared regions as the live service, but independent Append
/// tails (the service's poll progress must not disturb the post-run
/// audit's reader).
pub struct CollectorReaders {
    /// Key-Write reader.
    pub keywrite: Option<KeyWriteStore>,
    /// Postcarding reader.
    pub postcarding: Option<PostcardStore>,
    /// Append reader (own tails, starting at 0).
    pub append: Option<AppendReader>,
    /// Key-Increment reader.
    pub key_increment: Option<KeyIncrementStore>,
}

impl CollectorReaders {
    /// Clone reader stores off a live service. `max_redundancy` is the
    /// service's own hash-family depth
    /// ([`dta_collector::ServiceConfig::max_redundancy`]).
    pub fn from_service(svc: &CollectorService, max_redundancy: usize) -> Self {
        CollectorReaders {
            keywrite: svc
                .keywrite
                .as_ref()
                .map(|s| KeyWriteStore::new(*s.layout(), s.region().clone(), max_redundancy)),
            postcarding: svc.postcarding.as_ref().map(|s| {
                PostcardStore::new(
                    *s.layout(),
                    s.region().clone(),
                    s.codec().clone(),
                    max_redundancy,
                )
            }),
            append: svc
                .append
                .as_ref()
                .map(|r| AppendReader::new(*r.layout(), r.region().clone())),
            key_increment: svc
                .key_increment
                .as_ref()
                .map(|s| KeyIncrementStore::new(*s.layout(), s.region().clone(), max_redundancy)),
        }
    }
}

/// Per-collector snapshot images for one epoch.
struct EpochImages {
    kw: Option<SnapshotBuf>,
    pc: Option<SnapshotBuf>,
    append: Option<SnapshotBuf>,
    cms: Option<SnapshotBuf>,
}

/// The query-service node state (held by the scenario harness, driven at
/// epoch boundaries).
pub struct QueryService {
    plan: QueryPlan,
    /// Plan mix with empty-pool primitives zeroed out (a weight over an
    /// empty pool would have nothing to draw).
    mix: QueryMix,
    tick_ns: u64,
    kw_redundancy: usize,
    inc_redundancy: usize,
    pc_redundancy: usize,
    append_lists: u32,
    kw_pool: Vec<TelemetryKey>,
    inc_pool: Vec<TelemetryKey>,
    pc_pool: Vec<TelemetryKey>,
    readers: Vec<CollectorReaders>,
    /// Epoch-0 routing table (query plans exclude collector faults, so
    /// reader routing never diverges from the writers').
    table: CollectorRoutingTable,
    rng: StdRng,
    /// Single-server queue state of the simulated latency model.
    next_free_ns: u64,
    stats: QueryStats,
}

impl QueryService {
    /// Service over `readers` (fleet order), configured from the spec's
    /// [`QueryPlan`] and drawing keys from the workload's ledgered pools.
    ///
    /// # Panics
    /// Panics if the spec has no query plan.
    pub fn new(spec: &ScenarioSpec, workload: &Workload, readers: Vec<CollectorReaders>) -> Self {
        let plan = spec.query.expect("spec has a query plan");
        let mut mix = plan.mix;
        if workload.kw_used.is_empty() {
            mix.key_write = 0;
        }
        if workload.inc_used.is_empty() {
            mix.key_increment = 0;
        }
        if workload.pc_flows.is_empty() {
            mix.postcarding = 0;
        }
        if spec.traffic.append_lists == 0 {
            mix.append = 0;
        }
        let n = readers.len() as u32;
        QueryService {
            plan,
            mix,
            tick_ns: spec.tick_ns,
            kw_redundancy: spec.traffic.kw_redundancy as usize,
            inc_redundancy: spec.traffic.inc_redundancy as usize,
            pc_redundancy: spec.translator.postcard_redundancy,
            append_lists: spec.traffic.append_lists,
            kw_pool: workload.kw_used.clone(),
            inc_pool: workload.inc_used.clone(),
            pc_pool: workload.pc_flows.clone(),
            readers,
            table: CollectorRoutingTable::new(n),
            // Domain-separated from the workload stream: the same written
            // memory can be probed by a different query seed.
            rng: StdRng::seed_from_u64(plan.seed ^ 0x9E3A_51C0_0E57_11AD),
            next_free_ns: 0,
            stats: QueryStats::default(),
        }
    }

    /// First epoch index at or after the plan's start.
    pub fn first_epoch(&self) -> u64 {
        self.plan.start_ns.div_ceil(self.tick_ns)
    }

    /// Draw one request from the weighted mix (draw order mirrors the
    /// traffic generator: key_write, append, key_increment, postcarding).
    fn draw(&mut self) -> Option<QueryRequest> {
        let total = self.mix.total_weight();
        if total == 0 {
            return None;
        }
        let mut roll = self.rng.gen_range(0..total);
        if roll < self.mix.key_write as u64 {
            let key = self.kw_pool[self.rng.gen_range(0..self.kw_pool.len())];
            return Some(QueryRequest::KeyWrite {
                key,
                redundancy: self.kw_redundancy,
                policy: QueryPolicy::Plurality,
            });
        }
        roll -= self.mix.key_write as u64;
        if roll < self.mix.append as u64 {
            return Some(QueryRequest::AppendPoll { list: self.rng.gen_range(0..self.append_lists) });
        }
        roll -= self.mix.append as u64;
        if roll < self.mix.key_increment as u64 {
            let key = self.inc_pool[self.rng.gen_range(0..self.inc_pool.len())];
            return Some(QueryRequest::Increment { key, redundancy: self.inc_redundancy });
        }
        let key = self.pc_pool[self.rng.gen_range(0..self.pc_pool.len())];
        Some(QueryRequest::Postcard { key, redundancy: self.pc_redundancy })
    }

    /// Serve one epoch's query stream against fresh snapshot images.
    ///
    /// `epoch` is the tick index (the snapshot is taken at simulated time
    /// `epoch * tick_ns`); `emit_end_ns` bounds the staleness clock — past
    /// the emission window nothing writes, so answers stop aging.
    pub fn run_epoch(&mut self, epoch: u64, emit_end_ns: u64) {
        self.stats.epochs += 1;
        let epoch_start_ns = epoch * self.tick_ns;
        // Inter-arrival spacing of the paced stream within the epoch.
        let spacing = (self.tick_ns / self.plan.rate as u64).max(1);
        // Draw the epoch's requests up front: the RNG stream stays a pure
        // function of (plan seed, epoch order) regardless of how the
        // engines below are borrowed.
        let requests: Vec<Option<QueryRequest>> =
            (0..self.plan.rate).map(|_| self.draw()).collect();

        // 1. Point-in-time images of every store region, fleet order.
        let images: Vec<EpochImages> = self
            .readers
            .iter()
            .map(|r| EpochImages {
                kw: r.keywrite.as_ref().map(|s| s.region().snapshot()),
                pc: r.postcarding.as_ref().map(|s| s.region().snapshot()),
                append: r.append.as_ref().map(|s| s.region().snapshot()),
                cms: r.key_increment.as_ref().map(|s| s.region().snapshot()),
            })
            .collect();

        // 2. One snapshot engine per collector, fleet routing over them.
        let engines: Vec<SnapshotQueryEngine<'_>> = self
            .readers
            .iter_mut()
            .zip(&images)
            .map(|(r, img)| SnapshotQueryEngine {
                keywrite: r.keywrite.as_ref().zip(img.kw.as_ref()).map(|(s, buf)| {
                    (s, SnapshotView { base_va: s.region().base_va, bytes: buf.as_bytes() })
                }),
                postcarding: r.postcarding.as_ref().zip(img.pc.as_ref()).map(|(s, buf)| {
                    (s, SnapshotView { base_va: s.region().base_va, bytes: buf.as_bytes() })
                }),
                append: r.append.as_mut().zip(img.append.as_ref()).map(|(s, buf)| {
                    let base_va = s.region().base_va;
                    (s, SnapshotView { base_va, bytes: buf.as_bytes() })
                }),
                key_increment: r.key_increment.as_ref().zip(img.cms.as_ref()).map(|(s, buf)| {
                    (s, SnapshotView { base_va: s.region().base_va, bytes: buf.as_bytes() })
                }),
            })
            .collect();
        let mut engine = FleetQueryEngine::new(engines, &self.table);

        // 3. The paced stream: arrivals every `spacing` ns, served by a
        // single-server queue with a deterministic cost model.
        for (i, req) in requests.iter().enumerate() {
            let Some(req) = req else { continue };
            let resp = engine.execute(req);
            self.stats.issued += 1;
            if !matches!(resp.result, QueryResult::Unavailable) {
                self.stats.answered += 1;
            }
            if resp.result.is_hit() {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
            self.stats.slot_probes += resp.probes as u64;
            self.stats.fanout_probes += resp.fanout as u64;

            let arrival = epoch_start_ns + i as u64 * spacing;
            let service = SERVICE_BASE_NS
                + SERVICE_SLOT_NS * resp.probes as u64
                + SERVICE_FANOUT_NS * resp.fanout as u64;
            let start = arrival.max(self.next_free_ns);
            let finish = start + service;
            self.next_free_ns = finish;
            self.stats.latency.record(finish - arrival);

            // Staleness: how many write epochs passed between the image
            // this answer reflects and the answer being ready.
            let answered_epoch = finish.min(emit_end_ns) / self.tick_ns;
            let staleness = answered_epoch.saturating_sub(epoch);
            self.stats.staleness_epochs_total += staleness;
            self.stats.staleness_epochs_max = self.stats.staleness_epochs_max.max(staleness);
        }
    }

    /// Consume the service, yielding its stats for the report.
    pub fn into_stats(self) -> QueryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = LatencyHistogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(1023); // bucket 9
        h.record(u64::MAX); // clamped to bucket 15
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[9], 1);
        assert_eq!(h.buckets[15], 1);
        assert_eq!(h.count, 5);
        assert_eq!(h.min_ns, 0);
        assert_eq!(h.max_ns, u64::MAX);
    }

    #[test]
    fn histogram_min_tracks_first_sample() {
        let mut h = LatencyHistogram::default();
        h.record(500);
        h.record(100);
        assert_eq!(h.min_ns, 100);
        assert_eq!(h.max_ns, 500);
        assert_eq!(h.mean_ns(), 300);
    }
}
