//! `ingest-sharded`: the `ingest-hot` Key-Write and Key-Increment streams
//! through `ShardedTranslator` with one shard — an ingest thread that
//! partitions and enqueues, one worker that translates and executes — each
//! chunk closed by `wait_idle`. Two threads: the most this host has cores
//! for, so it prices the hand-off and says nothing about scaling.

use std::time::Instant;

use dta_collector::service::CollectorService;
use dta_collector::ServiceConfig;
use dta_core::DtaReport;
use dta_rdma::nic::NicStats;
use dta_translator::{ShardedConfig, ShardedTranslator, TranslatorConfig};

use super::ingest::{drive, hot_phases, write_trace};
use super::{
    overhead_ratio, record_delivery, record_queries, record_report_rates, replay, RunArgs, Samples,
    SetupClock,
};
use crate::audit;
use crate::gen;
use crate::metrics::Outcome;
use crate::pipeline::Pipeline;
use crate::stats::{blended_ns, UNSCALED};
use crate::trace::{Tracer, ROOT};

/// Passes over the 4096-report stream per chunk (~1-2 ms with hand-off).
const REPS: usize = 2;

/// The quantile of this workload's chunk times its quiet-host rate is taken
/// at: lower than [`crate::stats::QUIET_Q`] because these times cannot be
/// put on the reference clock. A chunk lasts as long as the *worker* needs,
/// the worker's core steps between its nominal clock and 1.28x that like the
/// other one but not in step with it, and only the producer's core can be
/// probed (per second, a Key-Write chunk's fast tail sat at 1.3 ms or at
/// 1.6 ms whatever the producer's probe read). The rate is therefore the one
/// at the worker's fastest clock, and the quantile decides how much of a run
/// the worker must spend there for the run to report it: over 22 runs of
/// 18 s the estimate spread (IQR / median; the noisier 12 of them in
/// brackets) by 6.9 % (16.1 %) at 2 % of the chunks, 6.0 % (9.6 %) at 1 %,
/// 5.3 % (8.3 %) at 0.5 % and 4.6 % (5.3 %) at 0.2 %. At 0.2 % it rests on
/// the eighth-fastest of a stream's ~4100 chunks; a chunk's time is taken
/// around real work, so none can read faster than it ran.
const QUIET_Q: f64 = 0.002;

struct Stream {
    root: &'static str,
    reports: Vec<DtaReport>,
    passes: u64,
    samples: Samples,
}

impl Stream {
    fn new(root: &'static str, reports: Vec<DtaReport>) -> Self {
        let work = (reports.len() * REPS) as u64;
        Stream {
            root,
            reports,
            passes: 0,
            samples: Samples::new(work, 1 << 17),
        }
    }

    /// One chunk: enqueue `REPS` passes, then wait until the worker has
    /// executed every one of them.
    fn chunk(&mut self, st: &mut ShardedTranslator, tracer: &mut Tracer) -> u64 {
        let t0 = Instant::now();
        let root = tracer.begin(self.root, ROOT, self.passes);
        let s = tracer.begin("shard.ingest_batch", root, self.passes);
        for _ in 0..REPS {
            // Cloning a report is a refcount bump on its payload: the real
            // dispatch cost, as in the repo's own sharded bench.
            st.ingest_batch(0, self.reports.iter().cloned());
        }
        let work = self.samples.times.work_per_chunk;
        tracer.end(s, work);
        let s = tracer.begin("shard.wait_idle", root, self.passes);
        st.wait_idle();
        tracer.end(s, work);
        tracer.end(root, work);
        self.passes += REPS as u64;
        t0.elapsed().as_nanos() as u64
    }
}

pub(super) fn run(args: &RunArgs, out: &mut Outcome) {
    let (svc, trc) = (ServiceConfig::default(), TranslatorConfig::default());
    let mut tracer = Tracer::new(args.trace, 256);
    let setup = |tracer: &mut Tracer| {
        // Only the two keyed streams run here.
        let gen::HotStreams {
            kw, inc, oracle, ..
        } = gen::hot_keyed_streams(args.seed, &svc, &trc);
        let mut col = tracer.span("collector.service_new", ROOT, 0, || {
            (CollectorService::new(svc.clone()), 1)
        });
        let mut st = tracer.span("shard.connect", ROOT, 0, || {
            let cfg = ShardedConfig {
                translator: trc.clone(),
                ..ShardedConfig::with_shards(1)
            };
            (ShardedTranslator::connect(cfg, &mut col), 1)
        });
        let mut streams = vec![Stream::new("chunk.kw", kw), Stream::new("chunk.inc", inc)];
        let mut off = Tracer::new(false, 0);
        for s in &mut streams {
            s.chunk(&mut st, &mut off);
        }
        (col, st, streams, oracle)
    };
    let mut setups = SetupClock::new();
    let (mut col, mut st, mut streams, oracle) = setups.first(args, || setup(&mut tracer));
    let setup_spans = tracer.take();
    replay::record_setup_spans(out, &setup_spans);
    if let Some(s) = setup_spans.iter().find(|s| s.name == "shard.connect") {
        out.set("shard.connect_ms", (s.end_ns - s.start_ns) as f64 / 1e6);
    }
    tracer.set_on(false);
    out.note(
        "stream_fingerprint",
        format!(
            "{:016x}",
            gen::fingerprint(streams.iter().flat_map(|s| &s.reports))
        ),
    );

    // Measured section.
    let allocs0 = crate::alloc::allocations();
    let cpu0 = crate::host::cpu_ns();
    let budget = if args.trace {
        args.write_budget().mul_f64(0.5)
    } else {
        args.write_budget()
    };
    let start = Instant::now();
    while start.elapsed() < budget {
        for s in &mut streams {
            // Chunk times are taken unscaled: a chunk lasts as long as the
            // *worker* needs, the worker runs on the other core at that
            // core's clock, and only this thread's clock can be probed.
            // Scaling by the wrong core's clock made things worse (spread of
            // the estimate over 14 runs: 10.6 % scaled, 5.6 % unscaled).
            for traced in [true, false] {
                if traced && !args.trace {
                    continue;
                }
                tracer.set_on(traced);
                let ns = s.chunk(&mut st, &mut tracer);
                s.samples.push(&mut tracer, ns, UNSCALED);
            }
        }
    }
    let allocs = crate::alloc::allocations() - allocs0;
    let cpu = cpu0.zip(crate::host::cpu_ns()).map(|(a, b)| b - a);
    let measured: u64 = streams.iter().map(|s| s.samples.work_done()).sum();
    out.note("reports_measured", measured);
    let times: Vec<_> = streams.iter().map(|s| &s.samples.times).collect();
    record_report_rates(out, &times, QUIET_Q);
    out.set("alloc.allocs_per_report", allocs as f64 / measured as f64);
    out.set_opt(
        "shard.cpu_ns_per_report",
        cpu.map(|ns| ns as f64 / measured as f64),
    );

    // The workers own the counters until they are joined.
    let offered: u64 = streams
        .iter()
        .map(|s| s.passes * s.reports.len() as u64)
        .sum();
    let run = st.flush_and_join();
    let mut nic = NicStats::default();
    let (mut hits, mut misses) = (0, 0);
    for shard in &run.shards {
        nic.executed += shard.nic.executed;
        nic.bytes_rx += shard.nic.bytes_rx;
        nic.naks += shard.nic.naks;
        nic.dups += shard.nic.dups;
        nic.errors += shard.nic.errors;
        hits += shard.scratch.hits;
        misses += shard.scratch.misses;
    }
    let t = run.translator;
    if t.reports_in != offered {
        out.violation(format!(
            "shards translated {} of {offered} reports",
            t.reports_in
        ));
    }
    // Every report of these streams costs the same bytes and verbs, so the
    // whole-run ratios (warm-up included) are the measured section's too.
    out.set(
        "wire_bytes_per_report",
        nic.bytes_rx as f64 / t.reports_in as f64,
    );
    out.set(
        "rdma.verbs_per_report",
        nic.executed as f64 / t.reports_in as f64,
    );
    out.set(
        "translator.packets_per_report",
        t.rdma_out as f64 / t.reports_in as f64,
    );
    if hits + misses > 0 {
        out.set(
            "hash.scratch_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }
    record_delivery(out, offered, &t, &nic);

    if args.trace {
        let (mut ingest, mut wait, mut units) = (0.0, 0.0, 0u64);
        for s in &streams {
            for (c, at_ref) in s.samples.log.quiet() {
                ingest += c
                    .layers
                    .get("shard.ingest_batch")
                    .map_or(0.0, |l| l.self_ns as f64 * at_ref);
                wait += c
                    .layers
                    .get("shard.wait_idle")
                    .map_or(0.0, |l| l.self_ns as f64 * at_ref);
                units += c.layers.get(s.root).map_or(0, |l| l.count);
            }
        }
        if units > 0 {
            // Producer busy time, and time the producer waited for the
            // worker: whichever is larger names the slower side.
            out.set("shard.ingest_ns", ingest / units as f64);
            out.set("shard.idle_wait_ns", wait / units as f64);
        }
        let samples: Vec<_> = streams.iter().map(|s| &s.samples).collect();
        out.set("trace.overhead_ratio", overhead_ratio(&samples));
        write_trace(
            out,
            streams.iter().map(|s| &s.samples.log),
            "ingest-sharded",
        );

        // The same two streams on the direct path, for the hand-off's cost:
        // both sides as measured, at the same quantile.
        let direct = direct_raw_ns(args, &svc, &trc);
        let sharded = blended_ns(
            streams
                .iter()
                .map(|s| s.samples.times.raw_ns_per_unit(QUIET_Q)),
        );
        out.set("shard.handoff_ns", sharded - direct);
        out.note("direct_ns_per_report", format!("{direct:.2}"));
        replay::shard_kernels(out, &streams[0].reports);
        // `connect` builds the shard's translator out of sight.
        let mut solo = Tracer::new(true, 4);
        solo.span("translator.new", ROOT, 0, || {
            (drop(dta_translator::Translator::new(trc.clone())), 1)
        });
        replay::record_setup_spans(out, solo.spans());
    }

    let sets = audit::sets_for(
        &oracle,
        streams[1].passes,
        trc.postcard_redundancy,
        None,
        false,
    );
    let results = audit::run_sets(&mut col.engine(), &sets, args.read_budget());
    record_queries(out, &results);
    drop((col, streams, oracle, sets));
    setups.last(args, out, || setup(&mut Tracer::new(false, 0)));
}

/// ns/report of the Key-Write and Key-Increment hot streams through the
/// single-threaded pipeline, taken and blended like the sharded figure: not
/// put on the reference clock, at [`QUIET_Q`].
fn direct_raw_ns(args: &RunArgs, svc: &ServiceConfig, trc: &TranslatorConfig) -> f64 {
    let mut off = Tracer::new(false, 0);
    let mut p = Pipeline::connect(svc.clone(), trc.clone(), &mut off);
    let (phases, _) = hot_phases(gen::hot_streams(args.seed, svc, trc));
    let mut phases: Vec<_> = phases
        .into_iter()
        .filter(|ph| matches!(ph.root, "chunk.kw" | "chunk.inc"))
        .collect();
    for ph in &mut phases {
        ph.warm_up(&mut p, &mut off);
    }
    let quick = RunArgs {
        trace: false,
        seconds: args.seconds * 0.2,
        ..*args
    };
    drive(&quick, &mut p, &mut phases, &mut off);
    blended_ns(
        phases
            .iter()
            .map(|ph| ph.samples.times.raw_ns_per_unit(QUIET_Q)),
    )
}
