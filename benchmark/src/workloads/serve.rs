//! `serve-mixed`: reads beside writes. Thread W ingests the interleaved
//! four-primitive stream; thread R serves a seeded query mix through
//! `QueryEngine::execute` on reader clones of the live regions, and every
//! [`LIVE_QUERIES`] queries snapshots all four regions and serves the next
//! [`SNAPSHOT_QUERIES`] from the images. Reader and writer meet on the
//! regions' stripe locks and nowhere else.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dta_collector::{
    QueryEngine, QueryRequest, QueryResponse, ServiceConfig, SnapshotQueryEngine, SnapshotView,
    StoreQueryEngine,
};
use dta_rdma::mr::MemoryRegion;
use dta_sim::CollectorReaders;
use dta_translator::TranslatorConfig;

use super::{record_delivery, record_queries, record_report_rates, replay, RunArgs, SetupClock};
use crate::audit::{self, inc_request, judge, kw_request, AppendState, Expect, Verdict};
use crate::gen::{self, Oracle, Rng};
use crate::metrics::Outcome;
use crate::pipeline::Pipeline;
use crate::stats::{calibrate, ChunkTimes, FailCount, QUIET_Q};
use crate::trace::Tracer;

/// Live queries per reader cycle.
const LIVE_QUERIES: usize = 4096;
/// Snapshot queries per reader cycle.
const SNAPSHOT_QUERIES: usize = 256;

/// The reader's fixed cycle of requests (the same every cycle, so cycles
/// are equal-work chunks) and what the non-Append ones must answer.
struct Cycle {
    requests: Vec<QueryRequest>,
    /// `None` for Append polls: their expectation depends on the tail.
    expect: Vec<Option<Expect>>,
}

/// Draw the cycle: the harness's default 40/25/20/15 query blend over the
/// keys, lists and flows of `oracle`. `inc_floor` scales the per-pass
/// Key-Increment totals to what the warm-up already wrote.
fn draw_cycle(seed: u64, oracle: &Oracle, inc_floor: u64, postcard_redundancy: usize) -> Cycle {
    let kw: Vec<_> = oracle.kw.iter().collect();
    let inc: Vec<_> = oracle.inc.iter().collect();
    let pc: Vec<_> = oracle.postcard.iter().collect();
    let mut rng = Rng::new(seed, 9);
    let mut cycle = Cycle {
        requests: Vec::new(),
        expect: Vec::new(),
    };
    for _ in 0..LIVE_QUERIES + SNAPSHOT_QUERIES {
        let (req, expect) = match rng.below(100) {
            0..40 => {
                let (k, v) = kw[rng.below(kw.len() as u64) as usize];
                (kw_request(*k), Some(Expect::Kw(v.clone())))
            }
            40..65 => (
                QueryRequest::AppendPoll {
                    list: rng.below(gen::MIXED_LISTS as u64) as u32,
                },
                None,
            ),
            65..85 => {
                let (k, per_pass) = inc[rng.below(inc.len() as u64) as usize];
                (
                    inc_request(*k),
                    Some(Expect::IncAtLeast(per_pass * inc_floor)),
                )
            }
            _ => {
                let (k, path) = pc[rng.below(pc.len() as u64) as usize];
                (
                    QueryRequest::Postcard {
                        key: *k,
                        redundancy: postcard_redundancy.max(1),
                    },
                    Some(Expect::Postcard(path.clone())),
                )
            }
        };
        cycle.requests.push(req);
        cycle.expect.push(expect);
    }
    cycle
}

/// What the reader measured over a run of cycles.
struct ReaderTimes {
    /// Whole cycles (live + snapshot + snapshot queries).
    cycle: ChunkTimes,
    /// The four `MemoryRegion::snapshot()` calls of a cycle.
    snapshot: ChunkTimes,
    /// The snapshot-served queries of a cycle.
    snapshot_queries: ChunkTimes,
    fails: FailCount,
    wrong: u64,
}

impl ReaderTimes {
    fn new() -> Self {
        ReaderTimes {
            cycle: ChunkTimes::new((LIVE_QUERIES + SNAPSHOT_QUERIES) as u64, 1 << 16),
            snapshot: ChunkTimes::new(1, 1 << 16),
            snapshot_queries: ChunkTimes::new(SNAPSHOT_QUERIES as u64, 1 << 16),
            fails: FailCount::default(),
            wrong: 0,
        }
    }
}

/// The reader: stores, its mirror of the Append tails, and the oracle's
/// per-list entries.
struct Reader<'a> {
    readers: CollectorReaders,
    cycle: &'a Cycle,
    lists: &'a [Vec<Vec<u8>>],
    ring: u64,
    tails: Vec<u64>,
    responses: Vec<QueryResponse>,
}

fn view<'r>(region: &MemoryRegion, image: &'r [u8]) -> SnapshotView<'r> {
    SnapshotView {
        base_va: region.base_va,
        bytes: image,
    }
}

impl Reader<'_> {
    /// One cycle under the clock, judged after it.
    fn run_cycle(&mut self, t: &mut ReaderTimes) {
        self.responses.clear();
        let before = calibrate();
        let t0 = Instant::now();
        {
            let mut live = StoreQueryEngine {
                keywrite: self.readers.keywrite.as_ref(),
                postcarding: self.readers.postcarding.as_ref(),
                append: self.readers.append.as_mut(),
                key_increment: self.readers.key_increment.as_ref(),
            };
            for req in &self.cycle.requests[..LIVE_QUERIES] {
                self.responses.push(live.execute(req));
            }
        }
        let t1 = Instant::now();
        let r = &mut self.readers;
        let (kw, pc, cms) = (
            r.keywrite.as_ref().expect("kw store"),
            r.postcarding.as_ref().expect("postcard store"),
            r.key_increment.as_ref().expect("cms store"),
        );
        let append = r.append.as_mut().expect("append reader");
        let images = (
            kw.region().snapshot(),
            pc.region().snapshot(),
            append.region().snapshot(),
            cms.region().snapshot(),
        );
        let t2 = Instant::now();
        {
            let append_view = view(append.region(), images.2.as_bytes());
            let mut snap = SnapshotQueryEngine {
                keywrite: Some((kw, view(kw.region(), images.0.as_bytes()))),
                postcarding: Some((pc, view(pc.region(), images.1.as_bytes()))),
                append: Some((append, append_view)),
                key_increment: Some((cms, view(cms.region(), images.3.as_bytes()))),
            };
            for req in &self.cycle.requests[LIVE_QUERIES..] {
                self.responses.push(snap.execute(req));
            }
        }
        let t3 = Instant::now();
        let after = calibrate();
        t.cycle.push((t3 - t0).as_nanos() as u64, before, after);
        t.snapshot.push((t2 - t1).as_nanos() as u64, before, after);
        t.snapshot_queries
            .push((t3 - t2).as_nanos() as u64, before, after);
        drop(images);

        for ((req, expect), resp) in self
            .cycle
            .requests
            .iter()
            .zip(&self.cycle.expect)
            .zip(&self.responses)
        {
            let verdict = match (req, expect) {
                (QueryRequest::AppendPoll { list }, _) => {
                    // Position `p` of a list's ring holds per-pass entry
                    // `p mod n` once written (see gen::MIXED_LISTS).
                    let l = *list as usize;
                    let entries = &self.lists[l];
                    let want = entries[(self.tails[l] % entries.len() as u64) as usize].clone();
                    self.tails[l] = (self.tails[l] + 1) % self.ring;
                    judge(&resp.result, &Expect::AppendOrBlank(want))
                }
                (_, Some(expect)) => judge(&resp.result, expect),
                (_, None) => unreachable!("only Append polls lack a fixed expectation"),
            };
            t.fails.record(verdict == Verdict::Right);
            t.wrong += u64::from(verdict == Verdict::Wrong);
        }
    }
}

pub(super) fn run(args: &RunArgs, out: &mut Outcome) {
    let (svc, trc) = (ServiceConfig::default(), TranslatorConfig::default());
    let mut tracer = Tracer::new(args.trace, 64);
    /// Passes the warm-up writes, so every key and flow is present and the
    /// rings hold entries before the first query.
    const WARM_PASSES: u64 = 2;
    let setup = |tracer: &mut Tracer| {
        let (stream, oracle) = gen::mixed_stream(args.seed, &svc, &trc);
        let mut p = Pipeline::connect(svc.clone(), trc.clone(), tracer);
        let mut off = Tracer::new(false, 0);
        for _ in 0..WARM_PASSES {
            p.chunk("chunk.mixed", &stream, 1, &mut off);
        }
        (p, stream, oracle)
    };
    let mut setups = SetupClock::new();
    let (mut p, stream, oracle) = setups.first(args, || setup(&mut tracer));
    let setup_spans = tracer.take();
    replay::record_setup_spans(out, &setup_spans);
    out.note(
        "stream_fingerprint",
        format!("{:016x}", gen::fingerprint(&stream)),
    );

    let cycle = draw_cycle(args.seed, &oracle, WARM_PASSES, trc.postcard_redundancy);
    let mut reader = Reader {
        readers: CollectorReaders::from_service(&p.col, svc.max_redundancy),
        cycle: &cycle,
        lists: &oracle.append,
        ring: svc.append_entries,
        tails: vec![0; oracle.append.len()],
        responses: Vec::with_capacity(LIVE_QUERIES + SNAPSHOT_QUERIES),
    };

    // How the run divides. The contended phase gets most of it: with both
    // of the host's cores busy the rates sit for seconds on end at one of
    // three levels (1.35, 1.55 and 2.15 ms a writer pass in twelve 15 s
    // runs; one run spent its whole 9 s window at the slowest, two a part
    // of it), and the quiet rate is right whenever the window reaches into
    // a faster stretch. The read-only phase and the audit feed per-layer
    // metrics only here, and the audit judges every request however short
    // its budget.
    const READ_ONLY_SHARE: f64 = 0.10;
    const CONTENDED_SHARE: f64 = 0.75;
    const AUDIT_SHARE: f64 = 0.15;

    // Read-only phase: W parked.
    let mut alone = ReaderTimes::new();
    let quiet_budget = Duration::from_secs_f64(args.seconds * READ_ONLY_SHARE);
    let start = Instant::now();
    while start.elapsed() < quiet_budget {
        reader.run_cycle(&mut alone);
    }

    // Contended phase: both run; W stops when R's time is up.
    let mut beside = ReaderTimes::new();
    let mut writes = ChunkTimes::new(stream.len() as u64, 1 << 16);
    let (go, stop) = (Barrier::new(2), AtomicBool::new(false));
    let budget = Duration::from_secs_f64(args.seconds * CONTENDED_SHARE);
    let nic0 = p.col.nic.stats;
    let allocs0 = crate::alloc::allocations();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut off = Tracer::new(false, 0);
            go.wait();
            // `stop` publishes nothing but itself.
            while !stop.load(Ordering::Relaxed) {
                writes.record(|| p.chunk("chunk.mixed", &stream, 1, &mut off));
            }
        });
        go.wait();
        let start = Instant::now();
        while start.elapsed() < budget {
            reader.run_cycle(&mut beside);
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread panicked");
    });
    let allocs = crate::alloc::allocations() - allocs0;
    let nic = p.col.nic.stats;
    let written = writes.len() as u64 * stream.len() as u64;
    out.note("query_chunks_contended", beside.cycle.len());
    out.note("reports_measured", written);

    record_report_rates(out, &[&writes], QUIET_Q);
    out.set(
        "wire_bytes_per_report",
        (nic.bytes_rx - nic0.bytes_rx) as f64 / written as f64,
    );
    out.set(
        "rdma.verbs_per_report",
        (nic.executed - nic0.executed) as f64 / written as f64,
    );
    out.set("alloc.allocs_per_report", allocs as f64 / written as f64);
    let t = p.tr.stats;
    out.set(
        "translator.packets_per_report",
        t.rdma_out as f64 / t.reports_in as f64,
    );
    let scratch = p.tr.key_scratch_stats();
    out.set(
        "hash.scratch_hit_ratio",
        scratch.hits as f64 / (scratch.hits + scratch.misses).max(1) as f64,
    );
    record_delivery(out, t.reports_in, &t, &nic);

    // The final audit: W is done, every expectation is exact again. It also
    // gives the per-primitive read costs on quiet memory.
    let passes = WARM_PASSES + writes.len() as u64;
    let sets = audit::sets_for(
        &oracle,
        passes,
        trc.postcard_redundancy,
        Some(AppendState {
            ring: svc.append_entries,
            passes,
        }),
        false,
    );
    let audit_budget = Duration::from_secs_f64(args.seconds * AUDIT_SHARE);
    let results = audit::run_sets(&mut p.col.engine(), &sets, audit_budget);
    record_queries(out, &results);

    // The end-to-end read rate of this workload is the contended one.
    out.set("query_per_s", beside.cycle.quiet_per_s());
    out.set("query_per_s_p50", beside.cycle.per_s(0.5));
    out.set(
        "collector.query_contended_ratio",
        beside.cycle.quiet_ns() / alone.cycle.quiet_ns(),
    );
    out.set(
        "collector.snapshot_query_ns",
        alone.snapshot_queries.quiet_ns(),
    );
    out.set("rdma.mr_snapshot_ms", alone.snapshot.quiet_ns() / 1e6);
    for t in [&alone, &beside] {
        out.queries.merge(t.fails);
        out.wrong += t.wrong;
    }
    if args.trace {
        replay::hash_kernels(out, &stream);
        replay::region_kernels(out, &svc, &trc, &stream, &stream);
    }
    drop((reader, sets));
    drop((p, stream, cycle, oracle));
    setups.last(args, out, || setup(&mut Tracer::new(false, 0)));
}
