//! The sharded multi-threaded translator runtime.
//!
//! The paper's translator reaches 100M+ reports/s because the Tofino
//! processes reports across parallel hardware pipes; this module is the
//! software equivalent. A [`ShardedTranslator`] key-partitions incoming
//! reports across `N` worker shards:
//!
//! * **dispatch** — the ingest thread routes each report with the
//!   [`Partitioner`], reusing a scratch-cached `checksum32` so routing a
//!   repeat key costs one 16-byte compare, no CRC pass
//!   ([`Partitioner::route_cached`]);
//! * **queues** — one bounded SPSC ring per shard ([`crate::spsc`]);
//!   backpressure is a failed push, answered by yielding, so memory stays
//!   bounded at `shards × QUEUE_DEPTH` reports;
//! * **shards** — each worker owns a full [`Translator`] (its own
//!   [`KeyScratch`] digest cache, image pool, postcard cache, append
//!   batcher) and a private NIC endpoint with dedicated QPs
//!   (`CollectorService::shard_nic` / `handle_cm_shard`), draining its ring
//!   in batches through the loop behind [`Translator::process_batch`] and
//!   issuing the RDMA writes concurrently into the collector's lock-striped
//!   memory.
//!
//! Because all reports for a key hash to one shard and each shard is a
//! FIFO, **per-key write order is preserved** — the property the Key-Write
//! query path depends on — while different keys' writes proceed in
//! parallel. Appends partition by list id the same way, so per-list batch
//! layout is identical to the single-threaded translator's; Key-Increment
//! is commutative and needs no ordering at all.
//!
//! [`KeyScratch`]: dta_hash::scratch::KeyScratch

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use dta_collector::service::{
    CollectorService, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta_core::DtaReport;
use dta_hash::scratch::KeyScratch;
use dta_hash::ScratchStats;
use dta_rdma::cm::CmRequester;
use dta_rdma::nic::{NicStats, RdmaNic};

use crate::partition::Partitioner;
use crate::spsc;
use crate::translator::{Translator, TranslatorConfig, TranslatorOutput, TranslatorStats};

/// Per-shard SPSC ring capacity. Deep enough that a descheduled worker
/// drains big batches when it wakes; small enough that total queued memory
/// stays bounded.
const QUEUE_DEPTH: usize = 4096;
/// Maximum reports a worker drains per wakeup (the
/// [`Translator::process_batch`] batch).
const DRAIN_BATCH: usize = 256;
/// Dispatch-side checksum scratch entries (ingest-thread owned, independent
/// of the per-shard digest scratches).
const DISPATCH_SCRATCH_ENTRIES: usize = 16 * 1024;

/// Shape of the sharded runtime.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Worker shard count.
    pub shards: usize,
    /// Per-shard translator configuration.
    pub translator: TranslatorConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig { shards: 4, translator: TranslatorConfig::default() }
    }
}

impl ShardedConfig {
    /// Default sizing at `shards` workers.
    pub fn with_shards(shards: usize) -> Self {
        ShardedConfig { shards, ..ShardedConfig::default() }
    }
}

/// State shared between the ingest thread and the workers.
#[derive(Debug)]
struct Shared {
    /// Set once, after the last ingest; workers drain and exit.
    stop: AtomicBool,
    /// Timestamp the ingest thread last announced. Feeds the shutdown
    /// flush; rate limiting instead reads each report's own ingest
    /// timestamp (see [`ShardItem::now_ns`]) so admission decisions are a
    /// pure function of the delivered stream, not of worker scheduling.
    now_ns: AtomicU64,
    /// Rate-limited `nack_on_drop` reports recorded by the workers and not
    /// yet taken by the engine thread. A worker locks this once per
    /// drained batch, and only when the limiter dropped something in it.
    nacks: Mutex<Vec<NackRecord>>,
}

/// Where a report came from — everything the translator needs to address a
/// NACK back to its reporter. Plain integers (not `dta-net` types) so the
/// pipeline stays usable without a simulated network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportOrigin {
    /// Network node id of the reporter host.
    pub node: u32,
    /// Source IP of the report datagram.
    pub ip: u32,
    /// Source UDP port of the report datagram.
    pub port: u16,
}

/// One queued report: the report, its ingest timestamp, and its return
/// address.
struct ShardItem {
    now_ns: u64,
    report: DtaReport,
    origin: ReportOrigin,
}

/// A rate-limited report whose `nack_on_drop` flag requests a reporter
/// NACK: recorded by the shard worker, taken and emitted by the owning
/// node on the engine thread (workers have no network handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NackRecord {
    /// The dropped report's sequence number.
    pub seq: u32,
    /// Its return address.
    pub origin: ReportOrigin,
}

/// Ingest-side handle to one shard. The ingest thread writes it on every
/// push (ring cursor, `enqueued`), so it gets cache lines of its own:
/// whatever the allocator puts next to the lane table — worker-written
/// state included — cannot false-share with the dispatch loop.
#[derive(Debug)]
#[repr(align(64))]
struct Lane {
    tx: spsc::Producer<ShardItem>,
    /// Reports pushed (ingest thread private).
    enqueued: u64,
    /// Reports fully processed by the worker (written by the worker).
    processed: Arc<AtomicU64>,
    /// Times the ingest thread yielded on a full ring.
    backpressure_yields: u64,
}

/// Final counters of one shard worker.
#[derive(Debug, Clone)]
pub struct ShardRunReport {
    /// Shard index.
    pub shard: usize,
    /// Translator counters.
    pub translator: TranslatorStats,
    /// NIC endpoint counters (executed verbs, NAKs, ...).
    pub nic: NicStats,
    /// Key-digest scratch hit/miss counters.
    pub scratch: ScratchStats,
    /// Image pool `(recycled, allocated)`.
    pub image_pool: (u64, u64),
}

/// Aggregated outcome of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardedRunReport {
    /// Per-shard detail.
    pub shards: Vec<ShardRunReport>,
    /// Merged translator counters.
    pub translator: TranslatorStats,
    /// Total verbs executed across shard NIC endpoints.
    pub executed: u64,
    /// Total ingest-side yields on full rings.
    pub backpressure_yields: u64,
    /// NACK records still undelivered at shutdown (recorded by workers but
    /// never taken via [`ShardedTranslator::take_nacks`]). Zero in any
    /// correctly sized scenario: the owning node takes them on every tick.
    pub nacks_pending: u64,
}

/// The sharded translator pipeline (ingest handle).
///
/// Owned by the ingest thread. `ingest`/`ingest_batch` route and enqueue;
/// `wait_idle` barriers until every queued report has been executed;
/// `flush_and_join` drains translator-held state (postcard rows, partial
/// append batches) and returns the aggregated counters. Dropping the handle
/// without flushing still stops and joins the workers.
#[derive(Debug)]
pub struct ShardedTranslator {
    partitioner: Partitioner,
    scratch: KeyScratch,
    lanes: Vec<Lane>,
    workers: Vec<JoinHandle<ShardRunReport>>,
    shared: Arc<Shared>,
}

impl ShardedTranslator {
    /// Build the pipeline against `collector`: per shard, a fresh
    /// [`Translator`], a private NIC endpoint sharing the collector's
    /// striped regions, and a dedicated QP per enabled service.
    pub fn connect(config: ShardedConfig, collector: &mut CollectorService) -> Self {
        Self::connect_sized(config, collector, QUEUE_DEPTH)
    }

    /// [`Self::connect`] with the ring capacity (rounded up to a power of
    /// two) spelled out: the backpressure tests squeeze it.
    fn connect_sized(
        config: ShardedConfig,
        collector: &mut CollectorService,
        queue_depth: usize,
    ) -> Self {
        assert!(config.shards >= 1, "need at least one shard");
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            now_ns: AtomicU64::new(0),
            nacks: Mutex::new(Vec::new()),
        });
        let mut lanes = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            // Each shard runs an independent limiter; divide a configured
            // RDMA rate budget exactly across them (rate evenly, burst with
            // its remainder spread over the first shards) so the *aggregate*
            // toward the collector equals the configured ceiling instead of
            // silently becoming `shards ×` it. A burst smaller than the
            // shard count leaves some shards with a zero bucket — they
            // admit nothing, which is the only split that keeps the
            // aggregate exact for such degenerate configs.
            let mut shard_translator = config.translator.clone();
            if let Some(limit) = &mut shard_translator.rate_limit {
                let shards = config.shards as u64;
                limit.msgs_per_sec /= config.shards as f64;
                limit.burst = limit.burst / shards
                    + u64::from((shard as u64) < limit.burst % shards);
            }
            let mut nic = collector.shard_nic();
            let mut tr = Translator::new(shard_translator);
            for service in [SERVICE_KW, SERVICE_POSTCARD, SERVICE_APPEND, SERVICE_CMS] {
                // One requester QPN per (shard, service); the collector
                // mints a dedicated responder QPN (own PSN domain).
                let req = CmRequester::new(0x4000 + (shard as u32) * 8 + service as u32, 0);
                let reply = collector.handle_cm_shard(&req.request(service), &mut nic);
                let Ok((qp, params)) = req.complete(&reply) else {
                    continue; // service disabled at the collector
                };
                tr.connect(service, qp, params);
            }
            let (tx, rx) = spsc::channel::<ShardItem>(queue_depth);
            let processed = Arc::new(AtomicU64::new(0));
            lanes.push(Lane {
                tx,
                enqueued: 0,
                processed: processed.clone(),
                backpressure_yields: 0,
            });
            let shared = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dta-shard-{shard}"))
                    .spawn(move || worker_loop(shard, rx, tr, nic, processed, shared))
                    .expect("spawn shard worker"),
            );
        }
        ShardedTranslator {
            // Shard-level routing is domain-separated from collector-level
            // routing, so a multi-collector deployment that partitions
            // upstream still spreads each collector's band over all shards.
            partitioner: Partitioner::for_shards(config.shards as u32),
            scratch: KeyScratch::new(DISPATCH_SCRATCH_ENTRIES, 1),
            lanes,
            workers,
            shared,
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// Route one report to its shard and enqueue it at simulated time
    /// `now_ns`, yielding while that shard's ring is full (bounded-memory
    /// backpressure). The timestamp rides with the report: shard-side rate
    /// limiters admit each report at its ingest time, whenever the worker
    /// actually drains it.
    pub fn ingest(&mut self, now_ns: u64, report: DtaReport) {
        self.ingest_from(now_ns, report, ReportOrigin::default());
    }

    /// [`ShardedTranslator::ingest`] carrying the report's return address,
    /// so a rate-limited `nack_on_drop` report can be NACKed back to its
    /// reporter (records surface via [`ShardedTranslator::take_nacks`]).
    pub fn ingest_from(&mut self, now_ns: u64, report: DtaReport, origin: ReportOrigin) {
        self.shared.now_ns.store(now_ns, Ordering::Relaxed);
        self.dispatch(ShardItem { now_ns, report, origin });
    }

    /// Route and enqueue (the per-report body of every ingest entry point).
    fn dispatch(&mut self, item: ShardItem) {
        let shard = self.partitioner.route_cached(&mut self.scratch, &item.report) as usize;
        let mut item = item;
        let mut spins = 0u32;
        loop {
            let lane = &mut self.lanes[shard];
            match lane.tx.push(item) {
                Ok(()) => break,
                Err(back) => {
                    // A worker exits before shutdown only by panicking;
                    // spinning on its full ring would livelock forever.
                    assert!(
                        !self.workers[shard].is_finished(),
                        "shard {shard} worker died with its queue full; reports cannot drain"
                    );
                    item = back;
                    spins += 1;
                    if spins > 16 {
                        lane.backpressure_yields += 1;
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        self.lanes[shard].enqueued += 1;
    }

    /// Announce `now_ns` to the shards and ingest a batch of reports, all
    /// stamped with that one timestamp.
    pub fn ingest_batch(&mut self, now_ns: u64, reports: impl IntoIterator<Item = DtaReport>) {
        self.shared.now_ns.store(now_ns, Ordering::Relaxed);
        for report in reports {
            self.dispatch(ShardItem { now_ns, report, origin: ReportOrigin::default() });
        }
    }

    /// Take every NACK recorded so far, in ascending seq order. Call after
    /// a barrier ([`ShardedTranslator::wait_idle`]) to get a deterministic
    /// *set*: all rate-limited `nack_on_drop` reports ingested before the
    /// barrier. The seq sort makes the *order* deterministic too — shards
    /// record by thread timing, so raw arrival order is not reproducible
    /// (identical-seq duplicates are identical records, so their relative
    /// order is moot).
    pub fn take_nacks(&mut self, out: &mut Vec<NackRecord>) {
        let mut nacks = self.shared.nacks.lock().expect("shard worker panicked");
        nacks.sort_by_key(|r| r.seq);
        out.append(&mut nacks);
    }

    /// Block until every report ingested so far has been translated and
    /// executed (queues empty, workers idle). The barrier benchmarks use to
    /// close a measurement window.
    pub fn wait_idle(&mut self) {
        for shard in 0..self.lanes.len() {
            loop {
                let lane = &self.lanes[shard];
                if lane.processed.load(Ordering::Acquire) >= lane.enqueued {
                    break;
                }
                assert!(
                    !self.workers[shard].is_finished(),
                    "shard {shard} worker died with reports still queued"
                );
                std::thread::yield_now();
            }
        }
    }

    /// Stop the workers, flush translator-held state (postcard cache rows,
    /// partial append batches) through each shard's NIC endpoint, and
    /// return the aggregated counters.
    pub fn flush_and_join(mut self) -> ShardedRunReport {
        let backpressure_yields = self.lanes.iter().map(|l| l.backpressure_yields).sum();
        self.shutdown();
        let handles = std::mem::take(&mut self.workers);
        let mut shards: Vec<ShardRunReport> = Vec::with_capacity(handles.len());
        for h in handles {
            shards.push(h.join().expect("shard worker panicked"));
        }
        shards.sort_by_key(|s| s.shard);
        let mut translator = TranslatorStats::default();
        let mut executed = 0;
        for s in &shards {
            translator.merge(&s.translator);
            executed += s.nic.executed;
        }
        // Records nobody took can never be emitted now: surface the count
        // instead of silently dropping them.
        let nacks_pending = self.shared.nacks.lock().expect("shard worker panicked").len() as u64;
        ShardedRunReport {
            shards,
            translator,
            executed,
            backpressure_yields,
            nacks_pending,
        }
    }

    /// Signal stop and drop the report producers so workers drain and
    /// exit.
    fn shutdown(&mut self) {
        // Producers must drop before (or with) the stop signal so a worker
        // that observes `stop` and then sees an empty ring can trust it.
        self.lanes.clear();
        self.shared.stop.store(true, Ordering::Release);
    }
}

impl Drop for ShardedTranslator {
    fn drop(&mut self) {
        // `flush_and_join` already took the workers; otherwise stop and
        // join here so no thread outlives the handle.
        if !self.workers.is_empty() {
            self.shutdown();
            for h in std::mem::take(&mut self.workers) {
                let _ = h.join();
            }
        }
    }
}

/// One shard's event loop: drain the ring in batches, translate (each
/// report at its own ingest timestamp), execute at the shard NIC endpoint,
/// feed NAKs back, record rate-limited `nack_on_drop` seqs on the shared
/// NACK list, and flush on shutdown.
fn worker_loop(
    shard: usize,
    mut rx: spsc::Consumer<ShardItem>,
    mut tr: Translator,
    mut nic: RdmaNic,
    processed: Arc<AtomicU64>,
    shared: Arc<Shared>,
) -> ShardRunReport {
    let mut batch: Vec<ShardItem> = Vec::with_capacity(DRAIN_BATCH);
    let mut out = TranslatorOutput::default();
    let mut responses = Vec::new();
    let mut stopping = false;
    let mut idle = 0u32;
    loop {
        batch.clear();
        let n = rx.pop_batch(&mut batch, DRAIN_BATCH);
        if n == 0 {
            if stopping {
                // This pop started after `stop` was observed, and the
                // producer handle is gone: the ring is drained for good.
                break;
            }
            if shared.stop.load(Ordering::Acquire) {
                stopping = true; // re-pop once more after observing stop
                continue;
            }
            idle += 1;
            if idle < 64 {
                std::hint::spin_loop();
            } else {
                // Crucial on machines with fewer cores than shards: an
                // empty-ring worker must surrender the CPU to whoever is
                // producing.
                std::thread::yield_now();
            }
            continue;
        }
        idle = 0;
        // Per-item timestamps: admission (rate limiting) must see the
        // report's arrival time, not the time this worker happened to
        // drain it, or the decision would depend on thread scheduling.
        tr.translate_batch(&batch, |item| (item.now_ns, &item.report), &mut out);
        responses.clear();
        nic.ingress_burst(&out.packets, &mut responses);
        for r in &responses {
            if r.is_nak() {
                tr.on_roce_response(r);
            }
        }
        // Hand rate-limited seqs back to the engine thread with their
        // return addresses (looked up in the batch just processed) — before
        // `processed` moves, so a barrier that saw the batch sees these.
        if !out.nacked.is_empty() {
            let mut nacks = shared.nacks.lock().expect("nack list poisoned");
            nacks.extend(out.nacked.iter().map(|&seq| {
                let origin = batch
                    .iter()
                    .find(|it| it.report.header.seq == seq)
                    .map(|it| it.origin)
                    .unwrap_or_default();
                NackRecord { seq, origin }
            }));
        }
        processed.fetch_add(n as u64, Ordering::Release);
    }
    // Shutdown flush: postcard rows and partial append batches.
    let now = shared.now_ns.load(Ordering::Relaxed);
    let flushed = tr.flush(now);
    responses.clear();
    nic.ingress_burst(&flushed.packets, &mut responses);
    ShardRunReport {
        shard,
        scratch: tr.key_scratch_stats(),
        image_pool: tr.image_pool_stats(),
        translator: tr.stats,
        nic: nic.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_collector::service::ServiceConfig;
    use dta_collector::QueryPolicy;
    use dta_core::TelemetryKey;

    fn sharded(shards: usize) -> (CollectorService, ShardedTranslator) {
        let mut col = CollectorService::new(ServiceConfig::default());
        let st = ShardedTranslator::connect(ShardedConfig::with_shards(shards), &mut col);
        (col, st)
    }

    #[test]
    fn keywrites_land_and_query_across_shards() {
        let (col, mut st) = sharded(4);
        let reports: Vec<DtaReport> = (0..512u64)
            .map(|i| {
                DtaReport::key_write(0, TelemetryKey::from_u64(i), 2, (i as u32).to_be_bytes().to_vec())
            })
            .collect();
        st.ingest_batch(0, reports);
        st.wait_idle();
        let report = st.flush_and_join();
        assert_eq!(report.translator.reports_in, 512);
        assert_eq!(report.executed, 1024, "N=2 -> 2 verbs per report");
        let kw = col.keywrite.as_ref().unwrap();
        for i in 0..512u64 {
            let got = kw.query(&TelemetryKey::from_u64(i), 2, QueryPolicy::Plurality);
            assert_eq!(
                got,
                dta_collector::QueryOutcome::Found((i as u32).to_be_bytes().to_vec()),
                "key {i}"
            );
        }
    }

    #[test]
    fn per_key_order_is_preserved_under_sharding() {
        // Interleaved rewrites of the same keys: the LAST value ingested for
        // each key must win, which only holds if all reports for a key stay
        // on one shard and the shard is a FIFO.
        let (col, mut st) = sharded(4);
        for round in 0..50u32 {
            let reports = (0..64u64).map(move |k| {
                DtaReport::key_write(0, TelemetryKey::from_u64(k), 2, round.to_be_bytes().to_vec())
            });
            st.ingest_batch(0, reports);
        }
        st.wait_idle();
        st.flush_and_join();
        let kw = col.keywrite.as_ref().unwrap();
        for k in 0..64u64 {
            assert_eq!(
                kw.query(&TelemetryKey::from_u64(k), 2, QueryPolicy::Plurality),
                dta_collector::QueryOutcome::Found(49u32.to_be_bytes().to_vec()),
                "stale value surfaced for key {k}"
            );
        }
    }

    #[test]
    fn load_spreads_across_shards() {
        let (_col, mut st) = sharded(4);
        let reports: Vec<DtaReport> = (0..4000u64)
            .map(|i| DtaReport::key_write(0, TelemetryKey::from_u64(i), 1, vec![1; 4]))
            .collect();
        st.ingest_batch(0, reports);
        st.wait_idle();
        let report = st.flush_and_join();
        for s in &report.shards {
            assert!(
                (600..=1400).contains(&(s.translator.reports_in as usize)),
                "shard {} took {} of 4000 reports",
                s.shard,
                s.translator.reports_in
            );
        }
    }

    #[test]
    fn tiny_queues_backpressure_without_loss() {
        let mut col = CollectorService::new(ServiceConfig::default());
        let mut st = ShardedTranslator::connect_sized(ShardedConfig::with_shards(2), &mut col, 2);
        let reports: Vec<DtaReport> = (0..2000u64)
            .map(|i| DtaReport::key_write(0, TelemetryKey::from_u64(i % 16), 1, vec![7; 4]))
            .collect();
        st.ingest_batch(0, reports);
        st.wait_idle();
        let report = st.flush_and_join();
        assert_eq!(report.translator.reports_in, 2000, "reports lost under backpressure");
    }

    #[test]
    fn flush_emits_partial_postcards_and_append_batches() {
        let (col, mut st) = sharded(2);
        // 3 of 5 hops for one flow + 1 staged append entry: both must be
        // emitted by the shutdown flush.
        let key = TelemetryKey::from_u64(9);
        let reports: Vec<DtaReport> = (0..3u8)
            .map(|hop| DtaReport::postcard(0, key, hop, 5, 42))
            .chain([DtaReport::append(0, 1, vec![5; 4])])
            .collect();
        st.ingest_batch(0, reports);
        st.wait_idle();
        let report = st.flush_and_join();
        assert!(report.executed >= 2, "flush writes not issued");
        let store = col.postcarding.as_ref().unwrap();
        // The early chunk is present (first 3 hops recorded).
        match store.query(&key, 1) {
            dta_collector::PostcardQueryOutcome::Found(path) => {
                assert_eq!(&path[..3], &[42, 42, 42]);
            }
            other => panic!("flushed postcard chunk missing: {other:?}"),
        }
    }

    #[test]
    fn rate_limit_budget_is_aggregate_not_per_shard() {
        use crate::ratelimit::RateLimiterConfig;
        // A configured burst must bound the WHOLE pipeline, not repeat per
        // shard — including bursts the shard count does not divide (the
        // remainder spreads over the first shards) and bursts smaller than
        // the shard count. Time stays at 0, so no tokens refill: exactly
        // `burst` messages may be admitted across all shards combined.
        for burst in [8u64, 10, 2] {
            let mut col = CollectorService::new(ServiceConfig::default());
            let mut st = ShardedTranslator::connect(
                ShardedConfig {
                    shards: 4,
                    translator: TranslatorConfig {
                        rate_limit: Some(RateLimiterConfig { msgs_per_sec: 1.0, burst }),
                        ..TranslatorConfig::default()
                    },
                },
                &mut col,
            );
            // N=1 key writes: one RDMA message each, keys spread over shards.
            st.ingest_batch(
                0,
                (0..400u64)
                    .map(|i| DtaReport::key_write(0, TelemetryKey::from_u64(i), 1, vec![1; 4])),
            );
            st.wait_idle();
            let report = st.flush_and_join();
            assert_eq!(
                report.executed, burst,
                "aggregate admitted messages != configured burst {burst}"
            );
            assert_eq!(report.translator.rate_limited, 400 - burst);
        }
    }

    #[test]
    fn rate_limited_nack_reports_surface_with_their_origins() {
        use crate::ratelimit::RateLimiterConfig;
        use dta_core::DtaFlags;
        // 1 shard, burst 2, frozen clock: reports 2.. are rate-limited and
        // (with the nack flag) must surface as NackRecords carrying the
        // return address they were ingested with, in FIFO order.
        let mut col = CollectorService::new(ServiceConfig::default());
        let mut st = ShardedTranslator::connect(
            ShardedConfig {
                shards: 1,
                translator: TranslatorConfig {
                    rate_limit: Some(RateLimiterConfig { msgs_per_sec: 1.0, burst: 2 }),
                    ..TranslatorConfig::default()
                },
            },
            &mut col,
        );
        let flags = DtaFlags { immediate: false, nack_on_drop: true };
        for i in 0..6u32 {
            let report = DtaReport::key_write(i, TelemetryKey::from_u64(i as u64), 1, vec![1; 4])
                .with_flags(flags);
            let origin = ReportOrigin { node: 100 + i, ip: 0x0A00_0000 + i, port: 5000 };
            st.ingest_from(0, report, origin);
        }
        st.wait_idle();
        let mut nacks = Vec::new();
        st.take_nacks(&mut nacks);
        assert_eq!(
            nacks,
            (2..6u32)
                .map(|i| NackRecord {
                    seq: i,
                    origin: ReportOrigin { node: 100 + i, ip: 0x0A00_0000 + i, port: 5000 },
                })
                .collect::<Vec<_>>(),
            "burst 2 admits the first two; the rest NACK in ingest order"
        );
        let report = st.flush_and_join();
        assert_eq!(report.translator.rate_limited, 4);
        assert_eq!(report.translator.nacks_sent, 4);
        assert_eq!(report.nacks_pending, 0, "all records were taken before shutdown");
    }

    /// Tiny rings + every report rate-limited-with-nack: 500 drops surface
    /// through 4-slot report rings. Recording a drop never waits on the
    /// engine thread, so a backpressured ingest loop and a worker full of
    /// drops have nothing to deadlock on.
    #[test]
    fn every_drop_surfaces_through_tiny_report_rings() {
        use crate::ratelimit::RateLimiterConfig;
        use dta_core::DtaFlags;
        let mut col = CollectorService::new(ServiceConfig::default());
        let mut st = ShardedTranslator::connect_sized(
            ShardedConfig {
                shards: 1,
                translator: TranslatorConfig {
                    rate_limit: Some(RateLimiterConfig { msgs_per_sec: 1.0, burst: 0 }),
                    ..TranslatorConfig::default()
                },
            },
            &mut col,
            4,
        );
        let flags = DtaFlags { immediate: false, nack_on_drop: true };
        for i in 0..500u32 {
            let report = DtaReport::key_write(i, TelemetryKey::from_u64(i as u64), 1, vec![1; 4])
                .with_flags(flags);
            st.ingest_from(0, report, ReportOrigin { node: 1, ip: 2, port: 3 });
        }
        st.wait_idle();
        let mut nacks = Vec::new();
        st.take_nacks(&mut nacks);
        assert_eq!(nacks.len(), 500, "every drop must surface despite tiny rings");
        let report = st.flush_and_join();
        assert_eq!(report.translator.rate_limited, 500);
        assert_eq!(report.nacks_pending, 0);
    }

    #[test]
    fn untaken_nacks_are_counted_at_shutdown() {
        use crate::ratelimit::RateLimiterConfig;
        use dta_core::DtaFlags;
        let mut col = CollectorService::new(ServiceConfig::default());
        let mut st = ShardedTranslator::connect(
            ShardedConfig {
                shards: 2,
                translator: TranslatorConfig {
                    rate_limit: Some(RateLimiterConfig { msgs_per_sec: 1.0, burst: 0 }),
                    ..TranslatorConfig::default()
                },
            },
            &mut col,
        );
        let flags = DtaFlags { immediate: false, nack_on_drop: true };
        st.ingest_batch(
            0,
            (0..10u32).map(|i| {
                DtaReport::key_write(i, TelemetryKey::from_u64(i as u64), 1, vec![1; 4])
                    .with_flags(flags)
            }),
        );
        st.wait_idle();
        let report = st.flush_and_join();
        assert_eq!(report.nacks_pending, 10, "nobody drained: shutdown must account them");
    }

    #[test]
    fn single_report_ingest_advances_shard_time() {
        use crate::ratelimit::RateLimiterConfig;
        // Direct `ingest` calls must advance the announced clock, or shard
        // rate limiters would never refill for that entry point.
        let mut col = CollectorService::new(ServiceConfig::default());
        let mut st = ShardedTranslator::connect(
            ShardedConfig {
                shards: 1,
                translator: TranslatorConfig {
                    rate_limit: Some(RateLimiterConfig { msgs_per_sec: 1e9, burst: 1 }),
                    ..TranslatorConfig::default()
                },
            },
            &mut col,
        );
        // 1 token at t=0; at 1 msg/ns each later report refills the bucket
        // — every report must be admitted because time advances per ingest.
        for i in 0..50u64 {
            st.ingest(i * 10, DtaReport::key_write(0, TelemetryKey::from_u64(i), 1, vec![1; 4]));
            st.wait_idle();
        }
        let report = st.flush_and_join();
        assert_eq!(report.translator.rate_limited, 0, "clock froze for direct ingest");
        assert_eq!(report.executed, 50);
    }

    #[test]
    fn drop_without_flush_joins_workers() {
        let (_col, mut st) = sharded(4);
        st.ingest_batch(0, (0..100u64).map(|i| {
            DtaReport::key_write(0, TelemetryKey::from_u64(i), 1, vec![1; 4])
        }));
        drop(st); // must not hang or leak threads
    }

    #[test]
    fn disabled_services_are_skipped() {
        let mut col = CollectorService::new(ServiceConfig {
            append_lists: 0,
            cms_slots: 0,
            ..ServiceConfig::default()
        });
        let mut st = ShardedTranslator::connect(ShardedConfig::with_shards(2), &mut col);
        st.ingest_batch(
            0,
            [
                DtaReport::key_write(0, TelemetryKey::from_u64(1), 1, vec![1; 4]),
                DtaReport::append(0, 1, vec![2; 4]),
            ],
        );
        st.wait_idle();
        let report = st.flush_and_join();
        assert_eq!(report.translator.no_service, 1, "append should drop cleanly");
        assert_eq!(report.translator.reports_in, 2);
    }
}
