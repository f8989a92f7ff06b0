//! `ingest-hot` and `ingest-wide`: one thread, `process_batch` →
//! `nic_ingress_burst`, differing in whether the working set fits the
//! translator's key scratch and the CPU caches.

use std::time::Instant;

use dta_collector::ServiceConfig;
use dta_core::DtaReport;
use dta_rdma::nic::NicStats;
use dta_translator::{TranslatorConfig, TranslatorStats};

use super::{
    overhead_ratio, record_delivery, record_queries, record_report_rates, replay, RunArgs, Samples,
    SetupClock,
};
use crate::audit::{self, AppendState};
use crate::gen;
use crate::metrics::Outcome;
use crate::pipeline::Pipeline;
use crate::stats::{calibrate, QUIET_Q};
use crate::trace::{TraceLog, Tracer};

/// One stream and how it is cut into equal-work chunks: a chunk is `reps`
/// passes over the next `window` reports, the windows taken in cyclic order.
pub(super) struct Phase {
    /// Name of the chunk's root span (`chunk.<primitive>`).
    pub root: &'static str,
    pub reports: Vec<DtaReport>,
    pub window: usize,
    pub reps: usize,
    cursor: usize,
    /// Passes executed over each window, warm-up included.
    pub runs: Vec<u64>,
    pub samples: Samples,
}

impl Phase {
    pub fn new(root: &'static str, reports: Vec<DtaReport>, window: usize, reps: usize) -> Self {
        assert!(
            window > 0 && reports.len().is_multiple_of(window),
            "windows must tile the stream"
        );
        let work = (window * reps) as u64;
        Phase {
            root,
            runs: vec![0; reports.len() / window],
            reports,
            window,
            reps,
            cursor: 0,
            // Room for a full run at 10x the expected chunk rate.
            samples: Samples::new(work, 1 << 18),
        }
    }

    /// Run the next chunk; returns its nanoseconds.
    pub fn next_chunk(&mut self, p: &mut Pipeline, tracer: &mut Tracer) -> u64 {
        let lo = self.cursor * self.window;
        let ns = p.chunk(
            self.root,
            &self.reports[lo..lo + self.window],
            self.reps,
            tracer,
        );
        self.runs[self.cursor] += self.reps as u64;
        self.cursor = (self.cursor + 1) % self.runs.len();
        ns
    }

    /// One warm-up pass over the whole stream (untimed, counted in `runs`).
    pub fn warm_up(&mut self, p: &mut Pipeline, tracer: &mut Tracer) {
        for _ in 0..self.runs.len() {
            self.next_chunk(p, tracer);
        }
    }
}

/// Counter snapshots around the measured section.
struct Counters {
    allocs: u64,
    nic: NicStats,
    tr: TranslatorStats,
    scratch: dta_hash::ScratchStats,
    pool: (u64, u64),
}

impl Counters {
    fn read(p: &Pipeline) -> Self {
        Counters {
            allocs: crate::alloc::allocations(),
            nic: p.col.nic.stats,
            tr: p.tr.stats,
            scratch: p.tr.key_scratch_stats(),
            pool: p.tr.image_pool_stats(),
        }
    }
}

/// Drive `phases` round-robin for the write budget. An end-to-end run
/// times untraced rounds; a traced run alternates a traced and an untraced
/// round, so both see the same host — and every chunk, traced or not,
/// follows the previous phase's chunk exactly as in the end-to-end run —
/// and their ratio is the tracing overhead.
pub(super) fn drive(args: &RunArgs, p: &mut Pipeline, phases: &mut [Phase], tracer: &mut Tracer) {
    // A traced run keeps part of the write budget for the kernel replays.
    let budget = if args.trace {
        args.write_budget().mul_f64(0.6)
    } else {
        args.write_budget()
    };
    let start = Instant::now();
    let mut traced_round = args.trace;
    while start.elapsed() < budget {
        tracer.set_on(traced_round);
        for ph in phases.iter_mut() {
            let before = calibrate();
            let ns = ph.next_chunk(p, tracer);
            ph.samples.push(tracer, ns, (before, calibrate()));
        }
        traced_round = args.trace && !traced_round;
    }
    tracer.set_on(false);
}

/// Everything both single-thread ingest workloads report the same way.
fn record_ingest(
    args: &RunArgs,
    out: &mut Outcome,
    p: &Pipeline,
    phases: &[Phase],
    before: &Counters,
    workload: &str,
) {
    let after = Counters::read(p);
    let measured: u64 = phases.iter().map(|ph| ph.samples.work_done()).sum();
    out.note("reports_measured", measured);
    let times: Vec<_> = phases.iter().map(|ph| &ph.samples.times).collect();
    record_report_rates(out, &times, QUIET_Q);

    let reports_in = after.tr.reports_in - before.tr.reports_in;
    debug_assert_eq!(reports_in, measured);
    let per_report = |v: u64| v as f64 / reports_in as f64;
    out.set(
        "wire_bytes_per_report",
        per_report(after.nic.bytes_rx - before.nic.bytes_rx),
    );
    out.set(
        "alloc.allocs_per_report",
        per_report(after.allocs - before.allocs),
    );
    out.set(
        "rdma.verbs_per_report",
        per_report(after.nic.executed - before.nic.executed),
    );
    out.set(
        "translator.packets_per_report",
        per_report(after.tr.rdma_out - before.tr.rdma_out),
    );
    let lookups =
        (after.scratch.hits + after.scratch.misses) - (before.scratch.hits + before.scratch.misses);
    if lookups > 0 {
        out.set(
            "hash.scratch_hit_ratio",
            (after.scratch.hits - before.scratch.hits) as f64 / lookups as f64,
        );
    }
    let (recycled, allocated) = (after.pool.0 - before.pool.0, after.pool.1 - before.pool.1);
    if recycled + allocated > 0 {
        out.set(
            "translator.pool_recycle_ratio",
            recycled as f64 / (recycled + allocated) as f64,
        );
    }

    // Offered reports (warm-up included) against what the NIC executed.
    record_delivery(out, after.tr.reports_in, &after.tr, &after.nic);

    if args.trace {
        record_trace(out, phases, workload);
    }
}

/// Layer times, the closure check and the overhead ratio of a traced run.
fn record_trace(out: &mut Outcome, phases: &[Phase], workload: &str) {
    let (mut burst_ns, mut packets) = (0.0, 0.0);
    let mut closure = f64::INFINITY;
    for ph in phases {
        let log = &ph.samples.log;
        let per_report = log.layer_ns("translator.process_batch");
        match ph.root {
            "chunk.kw" => out.set_opt("translator.kw_ns", per_report),
            "chunk.append" => {
                out.set_opt("translator.append_ns", per_report);
                out.set_opt("translator.flush_ns", log.layer_ns("translator.flush"));
            }
            "chunk.inc" => out.set_opt("translator.inc_ns", per_report),
            "chunk.postcard" => out.set_opt("translator.postcard_ns", per_report),
            // The mixed KW+INC stream of ingest-wide has no per-primitive
            // phase; its translator time still shows in the closure.
            _ => {}
        }
        for (c, at_ref) in log.quiet() {
            if let Some(l) = c.layers.get("rdma.nic_ingress_burst") {
                burst_ns += l.self_ns as f64 * at_ref;
                packets += l.count as f64;
            }
        }
        if let Some(c) = log.closure(ph.root) {
            out.note(&format!("closure[{}]", ph.root), format!("{c:.4}"));
            closure = closure.min(c);
        }
    }
    if packets > 0.0 {
        out.set("rdma.nic_burst_ns", burst_ns / packets);
    }
    if closure.is_finite() {
        // The layer spans must tile the loop: what is left over is loop
        // and clock overhead, and more than 5 % of it means a layer is
        // being timed that has no span.
        out.set("trace.closure", closure);
        if closure < 0.95 {
            out.violation(format!("span closure {closure:.4} < 0.95"));
        }
    }
    let samples: Vec<_> = phases.iter().map(|ph| &ph.samples).collect();
    let ratio = overhead_ratio(&samples);
    out.set("trace.overhead_ratio", ratio);
    if ratio >= 1.10 {
        out.violation(format!("tracing overhead {ratio:.3} >= 1.10"));
    }
    write_trace(out, phases.iter().map(|ph| &ph.samples.log), workload);
}

/// Write the kept spans of every phase to `benchmark/out/trace-<workload>.json`.
pub(super) fn write_trace<'a>(
    out: &mut Outcome,
    logs: impl Iterator<Item = &'a TraceLog>,
    workload: &str,
) {
    let mut merged = TraceLog::default();
    for log in logs {
        merged.keep(&log.kept);
        merged.chunks.extend(log.chunks.iter().cloned());
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"));
    match merged.write_json(&path, workload) {
        Ok(()) => out.note("trace_file", path.display()),
        Err(e) => out.violation(format!("cannot write {}: {e}", path.display())),
    }
}

/// Chunk repetitions per hot phase, sized so a chunk is roughly 1 ms of
/// work on the recording host (fixed, so chunk work never depends on the
/// host the run happens to be on).
const HOT_REPS: [usize; 4] = [2, 4, 2, 1];

pub(super) fn hot_phases(streams: gen::HotStreams) -> (Vec<Phase>, gen::Oracle) {
    let gen::HotStreams {
        kw,
        append,
        inc,
        postcard,
        oracle,
    } = streams;
    let phases = [
        ("chunk.kw", kw),
        ("chunk.append", append),
        ("chunk.inc", inc),
        ("chunk.postcard", postcard),
    ]
    .into_iter()
    .zip(HOT_REPS)
    .map(|((root, reports), reps)| {
        let window = reports.len();
        Phase::new(root, reports, window, reps)
    })
    .collect();
    (phases, oracle)
}

pub(super) fn run_hot(args: &RunArgs, out: &mut Outcome) {
    let (svc, trc) = (ServiceConfig::default(), TranslatorConfig::default());
    let mut tracer = Tracer::new(args.trace, 4096);
    let setup = |tracer: &mut Tracer| {
        let streams = gen::hot_streams(args.seed, &svc, &trc);
        let mut p = Pipeline::connect(svc.clone(), trc.clone(), tracer);
        let (mut phases, oracle) = hot_phases(streams);
        let mut off = Tracer::new(false, 0);
        for ph in &mut phases {
            ph.warm_up(&mut p, &mut off);
        }
        (p, phases, oracle)
    };
    let mut setups = SetupClock::new();
    let (mut p, mut phases, oracle) = setups.first(args, || setup(&mut tracer));
    let setup_spans = tracer.take();
    replay::record_setup_spans(out, &setup_spans);
    tracer.set_on(false);
    out.note(
        "stream_fingerprint",
        format!(
            "{:016x}",
            gen::fingerprint(phases.iter().flat_map(|ph| &ph.reports))
        ),
    );

    let before = Counters::read(&p);
    drive(args, &mut p, &mut phases, &mut tracer);
    record_ingest(args, out, &p, &phases, &before, "ingest-hot");
    for (ph, name) in phases.iter().zip([
        "kw_reports_per_s",
        "append_reports_per_s",
        "inc_reports_per_s",
        "postcard_reports_per_s",
    ]) {
        out.set(name, ph.samples.times.quiet_per_s());
    }
    if args.trace {
        replay::hash_kernels(out, &phases[0].reports);
        replay::region_kernels(out, &svc, &trc, &phases[0].reports, &phases[2].reports);
    }

    let sets = audit::sets_for(
        &oracle,
        phases[2].runs[0],
        trc.postcard_redundancy,
        Some(AppendState {
            ring: svc.append_entries,
            passes: phases[1].runs[0],
        }),
        false,
    );
    let results = audit::run_sets(&mut p.col.engine(), &sets, args.read_budget());
    record_queries(out, &results);
    drop((p, phases, oracle, sets));
    setups.last(args, out, || setup(&mut Tracer::new(false, 0)));
}

/// Reports per `ingest-wide` chunk (~1-2 ms when every key misses).
const WIDE_CHUNK: usize = 4096;

pub(super) fn run_wide(args: &RunArgs, out: &mut Outcome) {
    let (svc, trc) = (gen::wide_service(), TranslatorConfig::default());
    let mut tracer = Tracer::new(args.trace, 4096);
    let setup = |tracer: &mut Tracer| {
        let (stream, oracle) = gen::wide_stream(args.seed, &svc);
        let mut p = Pipeline::connect(svc.clone(), trc.clone(), tracer);
        let mut phases = vec![Phase::new("chunk.wide", stream, WIDE_CHUNK, 1)];
        // The warm-up pass also faults in every page of both stores.
        phases[0].warm_up(&mut p, &mut Tracer::new(false, 0));
        (p, phases, oracle)
    };
    let mut setups = SetupClock::new();
    let (mut p, mut phases, mut oracle) = setups.first(args, || setup(&mut tracer));
    let setup_spans = tracer.take();
    replay::record_setup_spans(out, &setup_spans);
    tracer.set_on(false);
    out.note(
        "stream_fingerprint",
        format!("{:016x}", gen::fingerprint(&phases[0].reports)),
    );

    let before = Counters::read(&p);
    drive(args, &mut p, &mut phases, &mut tracer);
    record_ingest(args, out, &p, &phases, &before, "ingest-wide");
    if args.trace {
        replay::hash_kernels(out, &phases[0].reports);
        replay::region_kernels(out, &svc, &trc, &phases[0].reports, &phases[0].reports);
    }

    oracle.inc = gen::wide_inc_expected(&phases[0].reports, WIDE_CHUNK, &phases[0].runs);
    let sets = audit::sets_for(&oracle, 1, trc.postcard_redundancy, None, false);
    let results = audit::run_sets(&mut p.col.engine(), &sets, args.read_budget());
    record_queries(out, &results);
    drop((p, phases, oracle, sets));
    setups.last(args, out, || setup(&mut Tracer::new(false, 0)));
}
