//! `fabric-k8` and `churn-k4`: whole deployments through
//! `dta_sim::run_scenario`, one run per chunk. The specs are the fully
//! explicit TOML files in `benchmark/workloads/`; only the seed is set here.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

use dta_collector::engine::{SnapshotQueryEngine, SnapshotView};
use dta_collector::service::CollectorService;
use dta_collector::{QueryPolicy, QueryRequest};
use dta_core::{DtaReport, PrimitiveHeader, TelemetryKey};
use dta_rdma::mr::{MemoryRegion, SnapshotBuf};
use dta_sim::{
    generate, memory_fingerprint, run_scenario, CollectorReaders, ScenarioOutcome, ScenarioSpec,
    Workload,
};
use dta_translator::Translator;

use super::ingest::write_trace;
use super::{
    overhead_ratio, record_queries, record_report_rates, replay, RunArgs, Samples, SetupClock,
};
use crate::audit::{self, Expect, QuerySet};
use crate::gen;
use crate::metrics::Outcome;
use crate::stats::{calibrate, ChunkTimes, QUIET_Q};
use crate::trace::{Tracer, ROOT};

/// Load `benchmark/workloads/<name>.toml` and seed it.
///
/// # Panics
/// Panics when the file is missing or invalid: the workload definitions
/// ship with the benchmark.
pub fn load_spec(name: &str, seed: u64) -> ScenarioSpec {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("workloads")
        .join(format!("{name}.toml"));
    let doc = dta_sim::load_file(&path).unwrap_or_else(|e| panic!("workload spec: {e}"));
    ScenarioSpec { seed, ..doc.spec }
}

/// The naive oracle of a generated scenario workload, as query sets: what
/// every key, flow and list of the streams must read back as, whatever
/// order the fabric delivered the reports in.
fn oracle_of(spec: &ScenarioSpec, workload: &Workload) -> Vec<QuerySet> {
    let mut kw: BTreeMap<TelemetryKey, Vec<Vec<u8>>> = BTreeMap::new();
    let mut inc: BTreeMap<TelemetryKey, u64> = BTreeMap::new();
    let mut flows: BTreeMap<TelemetryKey, Vec<u32>> = BTreeMap::new();
    let mut lists: Vec<BTreeSet<Vec<u8>>> = Vec::new();
    let mut list_len: Vec<u64> = Vec::new();
    let entry_bytes = spec.service.append_entry_bytes as usize;
    for r in workload.streams.iter().flatten() {
        match &r.primitive {
            PrimitiveHeader::KeyWrite(h) => {
                let values = kw.entry(h.key).or_default();
                let v = r.payload.to_vec();
                if !values.contains(&v) {
                    values.push(v);
                }
            }
            PrimitiveHeader::KeyIncrement(h) => *inc.entry(h.key).or_default() += h.delta,
            PrimitiveHeader::Postcarding(h) => {
                let path = flows.entry(h.key).or_default();
                assert_eq!(path.len(), h.hop as usize, "flows are emitted hop by hop");
                path.push(h.value);
            }
            PrimitiveHeader::Append(h) => {
                let l = h.list_id as usize;
                if lists.len() <= l {
                    lists.resize(l + 1, BTreeSet::new());
                    list_len.resize(l + 1, 0);
                }
                // The ring stores fixed-width entries.
                let mut e = r.payload.to_vec();
                e.resize(entry_bytes, 0);
                lists[l].insert(e);
                list_len[l] += 1;
            }
        }
    }

    let mut sets = Vec::new();
    let mut push = |primitive, pairs: Vec<(QueryRequest, Expect)>| {
        if !pairs.is_empty() {
            let (requests, expect) = pairs.into_iter().unzip();
            sets.push(QuerySet {
                primitive,
                requests,
                expect,
            });
        }
    };
    push(
        "kw",
        kw.into_iter()
            .map(|(key, values)| {
                let req = QueryRequest::KeyWrite {
                    key,
                    redundancy: spec.traffic.kw_redundancy as usize,
                    policy: QueryPolicy::Plurality,
                };
                (req, Expect::KwOneOf(values))
            })
            .collect(),
    );
    // Poll every list once around its ring (tails return to the start, so
    // the set can be cycled): the first `n` positions hold the list's `n`
    // entries in arrival order, the rest is blank.
    let lists: Vec<Rc<BTreeSet<Vec<u8>>>> = lists.into_iter().map(Rc::new).collect();
    let mut polls = Vec::new();
    if !lists.is_empty() {
        for p in 0..spec.service.append_entries {
            for (l, set) in lists.iter().enumerate() {
                let expect = if p < list_len[l] {
                    Expect::AppendOneOf(set.clone())
                } else {
                    Expect::Blank
                };
                polls.push((QueryRequest::AppendPoll { list: l as u32 }, expect));
            }
        }
    }
    push("append", polls);
    push(
        "inc",
        inc.into_iter()
            .map(|(key, total)| {
                let req = QueryRequest::Increment {
                    key,
                    redundancy: spec.traffic.inc_redundancy as usize,
                };
                // Counters are key-private only when the pool was drawn so.
                let expect = if spec.traffic.inc_slot_disjoint {
                    Expect::IncExact(total)
                } else {
                    Expect::IncAtLeast(total)
                };
                (req, expect)
            })
            .collect(),
    );
    push(
        "postcard",
        flows
            .into_iter()
            .map(|(key, path)| {
                let req = QueryRequest::Postcard {
                    key,
                    redundancy: spec.translator.postcard_redundancy.max(1),
                };
                (req, Expect::Postcard(path))
            })
            .collect(),
    );
    sets
}

/// The image of `region` in a run's memory snapshot.
fn view_of<'a>(memory: &'a [(u32, SnapshotBuf)], region: &MemoryRegion) -> SnapshotView<'a> {
    let (_, buf) = memory
        .iter()
        .find(|(rkey, _)| *rkey == region.rkey)
        .expect("every registered region is in the snapshot");
    SnapshotView {
        base_va: region.base_va,
        bytes: buf.as_bytes(),
    }
}

/// One run's invariants: `None` when they hold.
fn check_run(outcome: &ScenarioOutcome) -> Option<String> {
    let r = &outcome.report;
    if r.reports_unsent > 0 {
        return Some(format!("{} reports unsent", r.reports_unsent));
    }
    if !r.reporter.ledger_closes() {
        return Some("reporter retransmit ledger does not close".into());
    }
    if !r.failover.ledger_closes() {
        return Some("failover replay ledger does not close".into());
    }
    if r.rebalance.is_some_and(|rb| !rb.closes()) {
        return Some("rebalance migration ledger does not close".into());
    }
    None
}

/// Reports of one run that the run's own audit says did not land. Fabric
/// drops are not counted here: packets to a killed collector are dropped
/// and then replayed, and what matters is what memory holds at the end.
fn lost_reports(outcome: &ScenarioOutcome) -> u64 {
    let r = &outcome.report;
    let q = &r.queries;
    r.reports_unsent
        + q.kw_missing
        + q.kw_ambiguous
        + q.pc_missing
        + r.sent.append.saturating_sub(q.append_entries)
}

fn run_workload(args: &RunArgs, out: &mut Outcome, name: &'static str, twin: bool) {
    let spec = load_spec(name, args.seed);
    let mut tracer = Tracer::new(args.trace, 64);
    // Set-up: the workload (for the oracle), and one warm-up run that also
    // fills the harness's buffer pools and is the reference every later
    // run must reproduce bit for bit.
    let setup = || {
        let workload = generate(&spec);
        let fp = gen::fingerprint(workload.streams.iter().flatten());
        (oracle_of(&spec, &workload), run_scenario(&spec), fp)
    };
    let mut setups = SetupClock::new();
    let (sets, reference, stream_fp) = setups.first(args, setup);
    out.note("stream_fingerprint", format!("{stream_fp:016x}"));
    let reports = reference.report.sent.total();
    let reference_fp = memory_fingerprint(&reference.memory);
    out.note("reports_per_run", reports);
    out.note("memory_fingerprint", format!("{reference_fp:016x}"));
    if let Some(why) = check_run(&reference) {
        out.violation(why);
    }

    let mut t = Samples::new(reports, 1 << 14);
    let chunk = |tracer: &mut Tracer| {
        let t0 = Instant::now();
        let root = tracer.begin("chunk.run", ROOT, 0);
        let s = tracer.begin("sim.run_scenario", root, 0);
        let outcome = run_scenario(&spec);
        tracer.end(s, reports);
        tracer.end(root, reports);
        (t0.elapsed().as_nanos() as u64, outcome)
    };
    let allocs0 = crate::alloc::allocations();
    let budget = if args.trace {
        args.write_budget().mul_f64(0.4)
    } else {
        args.write_budget()
    };
    let start = Instant::now();
    let mut last = None;
    let mut diverged = 0u64;
    while start.elapsed() < budget {
        for traced in [true, false] {
            if traced && !args.trace {
                continue;
            }
            tracer.set_on(traced);
            let before = calibrate();
            let (ns, outcome) = chunk(&mut tracer);
            t.push(&mut tracer, ns, (before, calibrate()));
            diverged += u64::from(outcome.report != reference.report);
            last = Some(outcome);
        }
    }
    let runs = t.work_done() / reports;
    let allocs = crate::alloc::allocations() - allocs0;
    let last = last.unwrap_or(reference);
    out.note("reports_measured", runs * reports);
    if diverged > 0 {
        out.violation(format!(
            "{diverged} runs' reports differ from the same-seed reference"
        ));
    }
    if memory_fingerprint(&last.memory) != reference_fp {
        out.violation("last run's memory differs from the same-seed reference");
        diverged = diverged.max(1);
    }

    record_report_rates(out, &[&t.times], QUIET_Q);
    let r = &last.report;
    out.set(
        "wire_bytes_per_report",
        r.links.bytes_tx as f64 / reports as f64,
    );
    out.set(
        "alloc.allocs_per_report",
        allocs as f64 / (runs * reports) as f64,
    );
    out.set("rdma.verbs_per_report", r.executed as f64 / reports as f64);
    out.set(
        "translator.packets_per_report",
        r.translator.rdma_out as f64 / reports as f64,
    );
    out.set("translator.no_service", r.translator.no_service as f64);
    out.set("translator.rate_limited", r.translator.rate_limited as f64);
    out.set("rdma.naks", r.collector.naks as f64);
    out.set(
        "net.hops_per_report",
        (r.net.forwarded + r.net.delivered) as f64 / reports as f64,
    );
    out.set("net.dropped", r.net.dropped as f64);
    out.set("fleet.rerouted", r.failover.rerouted as f64);
    out.set("fleet.replayed", r.failover.replayed as f64);
    out.set("fleet.ledger_evicted", r.failover.ledger_evicted as f64);
    out.set("fleet.fanout_lookups", r.queries.fanout_lookups as f64);
    if let Some(rb) = &r.rebalance {
        out.set("fleet.transferred", rb.transferred as f64);
        out.set("fleet.ops_sent", rb.ops_sent as f64);
        out.set("fleet.retransmits", rb.retransmits as f64);
    }

    // Offered reports over every run (warm-up included); a run that
    // diverged from the reference counts as wholly failed.
    let offered = (runs + 1) * reports;
    let failed = lost_reports(&last).min(reports) * (runs + 1) + diverged * reports;
    out.reports.add(offered, failed.min(offered));

    if twin {
        // Same seed, no kill, no rejoin, no migration: recovery must leave
        // exactly the memory an undisturbed fleet would have.
        let mut calm = spec.clone();
        calm.collectors.fault = None;
        calm.rebalance = None;
        let calm = run_scenario(&calm);
        if memory_fingerprint(&calm.memory) != reference_fp {
            out.violation("memory differs from the same-seed no-fault twin");
            out.reports.failed = out.reports.attempted;
        }
    }

    if args.trace {
        out.set("trace.overhead_ratio", overhead_ratio(&[&t]));
        write_trace(out, std::iter::once(&t.log), name);
        layer_replays(args, out, &spec, t.times.quiet_ns() * reports as f64);
    }

    // Read path: the oracle's queries against the last run's memory image.
    let svc = CollectorService::new(spec.service.clone());
    let mut readers = CollectorReaders::from_service(&svc, spec.service.max_redundancy);
    let memory = &last.memory;
    let mut engine = SnapshotQueryEngine {
        keywrite: readers
            .keywrite
            .as_ref()
            .map(|s| (s, view_of(memory, s.region()))),
        postcarding: readers
            .postcarding
            .as_ref()
            .map(|s| (s, view_of(memory, s.region()))),
        append: readers.append.as_mut().map(|r| {
            let view = view_of(memory, r.region());
            (r, view)
        }),
        key_increment: readers
            .key_increment
            .as_ref()
            .map(|s| (s, view_of(memory, s.region()))),
    };
    let results = audit::run_sets(&mut engine, &sets, args.read_budget());
    record_queries(out, &results);
    // Every read here is a snapshot read.
    out.set_opt(
        "collector.snapshot_query_ns",
        out.values.get("query_per_s").map(|r| 1e9 / r),
    );
    drop((readers, svc, last, sets));
    setups.last(args, out, setup);
}

/// The layers inside `run_scenario`, each replayed from outside.
fn layer_replays(args: &RunArgs, out: &mut Outcome, spec: &ScenarioSpec, full_run_ns: f64) {
    let workload = generate(spec);
    let reports: Vec<DtaReport> = workload.streams.iter().flatten().cloned().collect();
    let n = reports.len();

    let mut gen_times = ChunkTimes::new(n as u64, 64);
    for _ in 0..20 {
        gen_times.record(|| {
            let t0 = Instant::now();
            std::hint::black_box(generate(spec));
            t0.elapsed().as_nanos() as u64
        });
    }
    out.set("sim.generate_ns", gen_times.quiet_ns());

    // Fixed cost: the same deployment with one op per reporter.
    let one = ScenarioSpec {
        ops_per_reporter: 1,
        ..spec.clone()
    };
    let one_reports = run_scenario(&one).report.sent.total();
    let mut fixed = ChunkTimes::new(1, 1 << 12);
    let budget = std::time::Duration::from_secs_f64(args.seconds * 0.15);
    let start = Instant::now();
    while start.elapsed() < budget || fixed.len() < 20 {
        fixed.record(|| {
            let t0 = Instant::now();
            std::hint::black_box(run_scenario(&one));
            t0.elapsed().as_nanos() as u64
        });
    }
    let fixed_ns = fixed.quiet_ns();
    out.set("sim.run_fixed_ms", fixed_ns / 1e6);
    out.set("sim.run_marginal_ns", (full_run_ns - fixed_ns) / n as f64);
    out.note("fixed_share", format!("{:.3}", fixed_ns / full_run_ns));
    out.note("fixed_run_reports", one_reports);

    let mut tracer = Tracer::new(true, 16);
    for _ in 0..spec.collectors.count.max(1) {
        tracer.span("collector.service_new", ROOT, 0, || {
            (drop(CollectorService::new(spec.service.clone())), 1)
        });
    }
    tracer.span("translator.new", ROOT, 0, || {
        (drop(Translator::new(spec.translator.clone())), 1)
    });
    replay::record_setup_spans(out, tracer.spans());

    replay::wire_kernels(out, &spec.service, &spec.translator, &reports);
    replay::net_kernels(out, spec.fat_tree_k);
}

pub(super) fn run_fabric(args: &RunArgs, out: &mut Outcome) {
    run_workload(args, out, "fabric-k8", false);
}

pub(super) fn run_churn(args: &RunArgs, out: &mut Outcome) {
    run_workload(args, out, "churn-k4", true);
}
