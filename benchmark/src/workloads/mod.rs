//! The six workloads. Each is a closed loop in one process on at most two
//! threads: the next chunk of work starts when the previous one is done.

use std::time::{Duration, Instant};

use dta_rdma::nic::NicStats;
use dta_translator::TranslatorStats;

use crate::audit::SetResult;
use crate::metrics::Outcome;
use crate::stats::{blended_ns, calibrate, to_reference_clock, ChunkTimes};
use crate::trace::{TraceLog, Tracer};

mod ingest;
mod replay;
mod scenario;
mod serve;
mod sharded;

pub use scenario::load_spec;

/// What the command line asked of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl RunArgs {
    /// Share of the run spent on the write path; the rest goes to the
    /// read path (which is also the output audit).
    const WRITE_SHARE: f64 = 0.75;

    pub(crate) fn write_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * Self::WRITE_SHARE)
    }

    pub(crate) fn read_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * (1.0 - Self::WRITE_SHARE))
    }
}

/// Run workload `name`; `None` when there is no such workload.
pub fn run(name: &str, args: &RunArgs) -> Option<Outcome> {
    let mut out = Outcome::default();
    match name {
        "ingest-hot" => ingest::run_hot(args, &mut out),
        "ingest-wide" => ingest::run_wide(args, &mut out),
        "ingest-sharded" => sharded::run(args, &mut out),
        "fabric-k8" => scenario::run_fabric(args, &mut out),
        "churn-k4" => scenario::run_churn(args, &mut out),
        "serve-mixed" => serve::run(args, &mut out),
        _ => return None,
    }
    out.set("verify.report_fail_share", out.reports.share());
    out.set("verify.query_fail_share", out.queries.share());
    Some(out)
}

/// Times a workload's set-up (input generation, construction, connection,
/// warm-up), which is repeated in two groups: before the measured section —
/// the last product of that group is what gets measured — and again after
/// it, once everything measured has been dropped. `setup_s` is the fastest
/// repeat of either group at the reference clock: the quiet-host figure,
/// like the rates.
///
/// Why not the median of one group: the recording host flips, every ten to
/// thirty seconds, between two regimes in which the same cache-sensitive
/// code runs 1.65x apart at the same clock (a neighbour on the core's other
/// hyperthread, by the look of it: register-only probes do not see it). A
/// group of repeats lasts half a second and sits in one regime; two groups
/// fifteen seconds apart have a fair chance of seeing the fast one. With
/// one group and the median, `ingest-hot`'s `setup_s` moved by 26 % between
/// two sets of ten runs of unchanged code — more than its bound.
#[derive(Debug)]
pub(crate) struct SetupClock {
    fastest: f64,
    unscaled: f64,
    repeats: usize,
}

impl SetupClock {
    /// Repeats in the group before the measured section, at least.
    const MIN_FIRST: usize = 3;
    /// Cheap set-ups are repeated up to this often per group ...
    const MAX_REPEATS: usize = 15;
    /// ... while the group has taken less than this.
    const GROUP_BUDGET: Duration = Duration::from_millis(500);

    pub(crate) fn new() -> Self {
        SetupClock {
            fastest: f64::INFINITY,
            unscaled: f64::INFINITY,
            repeats: 0,
        }
    }

    /// Run a group of at least `min` repeats of `setup`; returns the last
    /// product. A traced run sets up exactly once (its spans are the
    /// measurement, and `setup_s` is not among its metrics).
    fn group<T>(&mut self, args: &RunArgs, min: usize, mut setup: impl FnMut() -> T) -> T {
        let start = Instant::now();
        let mut done = 0;
        let mut last = None;
        loop {
            drop(last.take()); // one product alive at a time: peak RSS is per set-up
                               // Set-up time moves with the core clock like everything else. A
                               // repeat whose two probes disagree (a clock step, or a preempted
                               // probe, which would make the repeat look several times faster
                               // than it was) only counts when no repeat has agreeing probes.
            let before = calibrate();
            let t0 = Instant::now();
            last = Some(setup());
            let elapsed = t0.elapsed().as_secs_f64();
            match to_reference_clock((before, calibrate())) {
                Some(scale) => self.fastest = self.fastest.min(elapsed * scale),
                None => self.unscaled = self.unscaled.min(elapsed),
            }
            done += 1;
            let enough =
                done >= min && (done >= Self::MAX_REPEATS || start.elapsed() >= Self::GROUP_BUDGET);
            if args.trace || enough {
                break;
            }
        }
        self.repeats += done;
        last.expect("at least one set-up")
    }

    /// The group before the measured section.
    pub(crate) fn first<T>(&mut self, args: &RunArgs, setup: impl FnMut() -> T) -> T {
        self.group(args, Self::MIN_FIRST, setup)
    }

    /// The group after the measured section (skipped by traced runs), then
    /// record `setup_s`. Call once everything measured has been dropped.
    ///
    /// `peak_rss_mb` is read here, before that group: it is the high-water
    /// mark of the first set-up group, the measured section and the audit.
    /// The trailing repeats exist only to time set-up, and what they add is
    /// the allocator's business, not the program's: on `ingest-sharded` the
    /// first of them raised `VmHWM` by 1.4-1.7 MB (of 12.3) in about half the
    /// runs of unchanged code and by nothing in the others, while the mark
    /// read here stayed within 0.2 MB over the same runs.
    pub(crate) fn last<T>(mut self, args: &RunArgs, out: &mut Outcome, setup: impl FnMut() -> T) {
        out.set_opt("peak_rss_mb", crate::host::peak_rss_mb());
        if !args.trace {
            drop(self.group(args, 1, setup));
        }
        out.note("setups", self.repeats);
        out.set(
            "setup_s",
            if self.fastest.is_finite() {
                self.fastest
            } else {
                self.unscaled
            },
        );
    }
}

/// Fold the read-path results into the outcome: the blended `query_per_s`
/// (equal shares of each primitive queried), the per-primitive layer
/// times, mean probes, and the failure counts.
pub(crate) fn record_queries(out: &mut Outcome, results: &[SetResult]) {
    if results.is_empty() {
        return;
    }
    let quiet: Vec<f64> = results.iter().map(|r| r.times.quiet_ns()).collect();
    let p50 = results.iter().map(|r| r.times.ns_per_unit(0.5));
    out.set("query_per_s", 1e9 / blended_ns(quiet.iter().copied()));
    out.set("query_per_s_p50", 1e9 / blended_ns(p50));

    let (mut probes, mut issued, mut chunks) = (0u64, 0u64, 0usize);
    for (r, ns) in results.iter().zip(&quiet) {
        let name = match r.primitive {
            "kw" => "collector.kw_query_ns",
            "append" => "collector.append_poll_ns",
            "inc" => "collector.inc_query_ns",
            "postcard" => "collector.postcard_query_ns",
            other => unreachable!("query set {other}"),
        };
        out.set(name, *ns);
        out.queries.merge(r.fails);
        out.wrong += r.wrong;
        probes += r.probes;
        issued += r.fails.attempted;
        chunks += r.times.len();
    }
    out.set("collector.query_probes", probes as f64 / issued as f64);
    out.note("query_chunks", chunks);
}

/// The chunk timings of one stream: untraced, traced, and the traced
/// chunks' folded spans (the last two stay empty in an end-to-end run).
#[derive(Debug)]
pub(crate) struct Samples {
    pub times: ChunkTimes,
    pub traced: ChunkTimes,
    pub log: TraceLog,
}

impl Samples {
    /// Samples of `work`-sized chunks, with room for `cap` untraced ones: a
    /// push must never allocate inside an allocation-counted section.
    pub fn new(work: u64, cap: usize) -> Self {
        Samples {
            times: ChunkTimes::new(work, cap),
            traced: ChunkTimes::new(work, cap / 4),
            log: TraceLog::default(),
        }
    }

    /// Record a chunk that just ran under `tracer`: with its spans folded
    /// when the tracer was on, as a plain timing when it was off.
    pub fn push(&mut self, tracer: &mut Tracer, ns: u64, probes: (u32, u32)) {
        if tracer.is_on() {
            self.traced.push(ns, probes.0, probes.1);
            self.log.fold_chunk(tracer, probes);
        } else {
            self.times.push(ns, probes.0, probes.1);
        }
    }

    /// Units of work in all recorded chunks.
    pub fn work_done(&self) -> u64 {
        (self.times.len() + self.traced.len()) as u64 * self.times.work_per_chunk
    }
}

/// `reports_per_s` (at quantile `quiet_q` of the chunk times) and its
/// p50/p95 views from the write path's chunk timings: with several streams,
/// the blend of an equal-shares stream (one report of each costs the sum of
/// their quiet per-report times).
pub(crate) fn record_report_rates(out: &mut Outcome, streams: &[&ChunkTimes], quiet_q: f64) {
    let per_s = |q: f64| 1e9 / blended_ns(streams.iter().map(|t| t.ns_per_unit(q)));
    out.set("reports_per_s", per_s(quiet_q));
    out.set("reports_per_s_p50", per_s(0.5));
    out.set("reports_per_s_p95", per_s(0.95));
    out.note("chunks", streams.iter().map(|t| t.len()).sum::<usize>());
}

/// Traced ÷ untraced quiet ns/report over `streams`.
pub(crate) fn overhead_ratio(streams: &[&Samples]) -> f64 {
    blended_ns(streams.iter().map(|s| s.traced.quiet_ns()))
        / blended_ns(streams.iter().map(|s| s.times.quiet_ns()))
}

/// The delivery counters every ingest workload reports the same way, and
/// the reports that did not land: `offered` against what the translator
/// accepted and the NIC executed.
pub(crate) fn record_delivery(
    out: &mut Outcome,
    offered: u64,
    tr: &TranslatorStats,
    nic: &NicStats,
) {
    out.set("translator.no_service", tr.no_service as f64);
    out.set("translator.rate_limited", tr.rate_limited as f64);
    out.set("rdma.naks", nic.naks as f64);
    out.set("rdma.dups", nic.dups as f64);
    out.set("rdma.errors", nic.errors as f64);
    let failed = offered.saturating_sub(tr.reports_in)
        + tr.no_service
        + tr.rate_limited
        + tr.rdma_out.saturating_sub(nic.executed)
        + nic.naks
        + nic.errors
        + nic.dups;
    out.reports.add(offered, failed.min(offered));
}
