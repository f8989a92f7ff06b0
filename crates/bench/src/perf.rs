//! Sustained-throughput measurement of the translator→RDMA→collector hot
//! path, and the `BENCH_translator.json` tracking file.
//!
//! Unlike the criterion micro-benches (statistical, per-call), this module
//! answers the paper's Figure 6/10 question — *how many reports per second
//! does the software pipeline sustain end-to-end?* — with one fixed
//! wall-clock loop per primitive, so numbers are comparable commit-to-
//! commit. `repro --json` appends a labelled phase to
//! `BENCH_translator.json`; committing a `baseline` phase before a perf PR
//! and an `optimized` phase after records the trajectory in-repo.

use std::time::{Duration, Instant};

use dta_collector::service::{
    CollectorService, ServiceConfig, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta_core::{DtaReport, TelemetryKey};
use dta_rdma::cm::CmRequester;
use dta_translator::{
    ShardedConfig, ShardedTranslator, Translator, TranslatorConfig, TranslatorOutput,
};

/// One measured pipeline configuration.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Benchmark name (`key_write/2`, `append/16`, ...).
    pub name: String,
    /// Mean nanoseconds per report.
    pub ns_per_report: f64,
    /// Sustained reports per second.
    pub reports_per_sec: f64,
    /// Reports executed during the measurement window.
    pub reports: u64,
}

/// Build a collector + fully connected translator pair (the same wiring the
/// criterion benches use).
pub fn connected_pair(append_batch: usize) -> (CollectorService, Translator) {
    let mut c = CollectorService::new(ServiceConfig::default());
    let mut t = Translator::new(TranslatorConfig { append_batch, ..TranslatorConfig::default() });
    for (service, qpn) in [
        (SERVICE_KW, 1u32),
        (SERVICE_POSTCARD, 2),
        (SERVICE_APPEND, 3),
        (SERVICE_CMS, 4),
    ] {
        let req = CmRequester::new(qpn, 0);
        let reply = c.handle_cm(&req.request(service));
        let (qp, params) = req.complete(&reply).unwrap();
        match service {
            SERVICE_KW => t.connect_key_write(qp, params),
            SERVICE_POSTCARD => t.connect_postcarding(qp, params),
            SERVICE_APPEND => t.connect_append(qp, params),
            SERVICE_CMS => t.connect_key_increment(qp, params),
            _ => unreachable!(),
        }
    }
    (c, t)
}

/// Distinct keys cycled by the report stream — the active flow working set
/// (the same quantity the paper's Figure 14 parameterizes its translator
/// cache against). 4K active flows is rack-scale; the pool also stays
/// cache-resident so the measurement exercises the pipeline, not DRAM.
const KEY_POOL: u64 = 4 * 1024;

/// Reports per [`Translator::process_batch`] call in the sustained loop —
/// the steady-state batch a translator would pull off its ingress queue.
const BATCH: usize = 256;

/// Sustained loop over the report pool: translate through the batch entry
/// point (the hot path), execute every packet at the collector NIC.
fn run_loop(
    name: &str,
    window: Duration,
    reports: &[DtaReport],
    col: &mut CollectorService,
    tr: &mut Translator,
) -> PerfEntry {
    let mut out = TranslatorOutput::default();
    let mut responses = Vec::new();
    let pass = |out: &mut TranslatorOutput,
                responses: &mut Vec<_>,
                col: &mut CollectorService,
                tr: &mut Translator| {
        for chunk in reports.chunks(BATCH) {
            tr.process_batch(0, chunk, out);
            responses.clear();
            col.nic_ingress_burst(&out.packets, responses);
        }
    };
    // Warm-up: one pass over the pool.
    pass(&mut out, &mut responses, col, tr);
    let mut done = 0u64;
    let start = Instant::now();
    loop {
        pass(&mut out, &mut responses, col, tr);
        done += reports.len() as u64;
        if start.elapsed() >= window {
            break;
        }
    }
    std::hint::black_box(&out);
    finish_entry(name, start.elapsed(), done)
}

/// Sustained loop through the per-report [`Translator::process`] API —
/// kept measured (as `*_single` entries) so the unbatched path's
/// trajectory is tracked alongside the batch path.
fn run_loop_single(
    name: &str,
    window: Duration,
    reports: &[DtaReport],
    col: &mut CollectorService,
    tr: &mut Translator,
) -> PerfEntry {
    for r in reports {
        for pkt in tr.process(0, r).packets {
            col.nic_ingress(&pkt);
        }
    }
    let mut done = 0u64;
    let start = Instant::now();
    loop {
        for r in reports {
            for pkt in tr.process(0, r).packets {
                col.nic_ingress(&pkt);
            }
        }
        done += reports.len() as u64;
        if start.elapsed() >= window {
            break;
        }
    }
    finish_entry(name, start.elapsed(), done)
}

/// Shard counts measured by the `key_write_sharded/*` scaling entries.
pub const SHARD_POINTS: [usize; 4] = [1, 2, 4, 8];

/// Sustained loop through the sharded pipeline: the ingest side routes and
/// enqueues (cloning `Bytes`-backed reports is a refcount bump, the real
/// dispatch cost), shard workers translate and execute concurrently, and
/// the window closes on a `wait_idle` barrier so every counted report has
/// actually landed in collector memory.
///
/// NOTE: scaling beyond 1 requires as many free cores as shards (+1 for
/// ingest); on core-starved hosts these entries measure queue/scheduling
/// overhead, not parallel speedup — compare against the host's
/// `key_write/2` from the same phase, not across machines.
fn run_loop_sharded(
    name: &str,
    window: Duration,
    shards: usize,
    reports: &[DtaReport],
    col: &mut CollectorService,
) -> PerfEntry {
    let mut st = ShardedTranslator::connect(ShardedConfig::with_shards(shards), col);
    // Warm-up: one pass over the pool.
    st.ingest_batch(0, reports.iter().cloned());
    st.wait_idle();
    let mut done = 0u64;
    let start = Instant::now();
    loop {
        st.ingest_batch(0, reports.iter().cloned());
        done += reports.len() as u64;
        if start.elapsed() >= window {
            break;
        }
    }
    // Everything ingested must finish inside the measured interval.
    st.wait_idle();
    let elapsed = start.elapsed();
    st.flush_and_join();
    finish_entry(name, elapsed, done)
}

/// Sustained loop over complete scenario runs: each iteration assembles a
/// K=4 fat tree with a paced reporter fleet, drives it to quiescence on
/// the simulated clock, and audits the collector — so the ns/report here
/// prices the *whole* deployment path (framing, fabric hops, translation,
/// RDMA execution, query audit), not just the translator hot loop. The
/// scenario is seeded and any fault schedule is deterministic, so every
/// run does identical work.
fn run_loop_scenario(name: &str, window: Duration, spec: &dta_sim::ScenarioSpec) -> PerfEntry {
    let per_run = {
        // Warm-up run; also fixes the per-run report count.
        let outcome = dta_sim::run_scenario(spec);
        assert_eq!(outcome.report.reports_unsent, 0, "bench spec must drain");
        outcome.report.sent.total()
    };
    let mut done = 0u64;
    let start = Instant::now();
    loop {
        let outcome = dta_sim::run_scenario(spec);
        std::hint::black_box(&outcome);
        done += per_run;
        if start.elapsed() >= window {
            break;
        }
    }
    finish_entry(name, start.elapsed(), done)
}

fn finish_entry(name: &str, elapsed: Duration, done: u64) -> PerfEntry {
    let ns = elapsed.as_nanos() as f64 / done as f64;
    PerfEntry {
        name: name.to_string(),
        ns_per_report: ns,
        reports_per_sec: 1e9 / ns,
        reports: done,
    }
}

/// Measure the full translator suite: Key-Write at N∈{1,2,4}, Postcarding,
/// Append at B∈{1,16}, Key-Increment at N=2.
pub fn translator_suite(window: Duration) -> Vec<PerfEntry> {
    translator_suite_filtered(window, None)
}

/// [`translator_suite`] restricted to one benchmark (exact name, e.g.
/// `key_write/2`) or one family (name prefix up to a `/`, e.g. `key_write`
/// or `key_write_sharded`); all benchmarks when `None`. The anchored match
/// keeps quick paired A/B selections stable as suffixed benchmark families
/// are added (`--only key_write` must not start spinning up the sharded
/// thread pools).
pub fn translator_suite_filtered(window: Duration, only: Option<&str>) -> Vec<PerfEntry> {
    let mut results = Vec::new();
    let wants = |name: &str| {
        only.is_none_or(|f| {
            name == f || (name.starts_with(f) && name[f.len()..].starts_with('/'))
        })
    };

    for n in [1u8, 2, 4] {
        let reports = || -> Vec<DtaReport> {
            (0..KEY_POOL)
                .map(|i| DtaReport::key_write(0, TelemetryKey::from_u64(i), n, vec![1, 2, 3, 4]))
                .collect()
        };
        if wants(&format!("key_write/{n}")) {
            let (mut col, mut tr) = connected_pair(16);
            results.push(run_loop(
                &format!("key_write/{n}"),
                window,
                &reports(),
                &mut col,
                &mut tr,
            ));
        }
        if wants(&format!("key_write_single/{n}")) {
            let (mut col, mut tr) = connected_pair(16);
            results.push(run_loop_single(
                &format!("key_write_single/{n}"),
                window,
                &reports(),
                &mut col,
                &mut tr,
            ));
        }
    }

    if wants("postcarding/5hop") {
        let (mut col, mut tr) = connected_pair(16);
        let reports: Vec<DtaReport> = (0..KEY_POOL)
            .flat_map(|i| {
                let key = TelemetryKey::from_u64(i);
                (0..5u8).map(move |hop| DtaReport::postcard(0, key, hop, 5, hop as u32 + 1))
            })
            .collect();
        results.push(run_loop("postcarding/5hop", window, &reports, &mut col, &mut tr));
    }

    for batch in [1usize, 16] {
        if !wants(&format!("append/{batch}")) {
            continue;
        }
        let (mut col, mut tr) = connected_pair(batch);
        let reports: Vec<DtaReport> = (0..KEY_POOL as u32)
            .map(|i| DtaReport::append(i, i % 8, i.to_be_bytes().to_vec()))
            .collect();
        results.push(run_loop(&format!("append/{batch}"), window, &reports, &mut col, &mut tr));
    }

    if wants("key_increment/2") {
        let (mut col, mut tr) = connected_pair(16);
        let reports: Vec<DtaReport> = (0..KEY_POOL)
            .map(|i| DtaReport::key_increment(0, TelemetryKey::from_u64(i % 4096), 2, 1))
            .collect();
        results.push(run_loop("key_increment/2", window, &reports, &mut col, &mut tr));
    }

    // Sharded scaling: `key_write_sharded/S` is the key_write/2 workload
    // through the multi-threaded pipeline at S shards.
    for shards in SHARD_POINTS {
        if !wants(&format!("key_write_sharded/{shards}")) {
            continue;
        }
        let mut col = CollectorService::new(ServiceConfig::default());
        let reports: Vec<DtaReport> = (0..KEY_POOL)
            .map(|i| DtaReport::key_write(0, TelemetryKey::from_u64(i), 2, vec![1, 2, 3, 4]))
            .collect();
        results.push(run_loop_sharded(
            &format!("key_write_sharded/{shards}"),
            window,
            shards,
            &reports,
            &mut col,
        ));
    }

    // End-to-end scenarios, each preset (`scenarios/<preset>.toml`) through
    // both translator modes; every ns/report prices the full reporter →
    // fabric → translator → collector path plus what the preset adds:
    //
    // * smoke — the K=4 fat-tree deployment, nothing added.
    // * congested — the whole recovery cycle under a rate limit that drops
    //   ~a third of the offered load: drop, NACK hop back across the
    //   fabric, paced retransmit, re-translation; in sharded mode also the
    //   per-tick queue barrier the deterministic NACK drain requires.
    // * failover — collector 1 of 3 killed mid-run: fail-stop detection,
    //   routing-table epoch bump, ledger replay through the survivors, and
    //   the fleet-wide query fan-out.
    // * rebalance — on top of failover, the epoch-fenced handoff after the
    //   rejoin: fence recording and double-writes/deferrals on the live
    //   path, the per-key drain (migration-QP reads, KW replays, per-slot
    //   INC delta fetch-adds, fallback zeroing), and the release scan.
    // * query_under_load — a 16 queries/epoch snapshot-read stream spanning
    //   the emission window: per-epoch snapshot captures, the sharded-mode
    //   quiesce barriers at every epoch boundary, and the plurality/poll/
    //   CMS/cache reads against the images.
    // * large — K=8, 1008 paced reporters (8 lanes per host): ~13k reports
    //   over 80 switches, the workload the PR 4 engine rewrite (dense
    //   arenas + timing wheel) exists for.
    for (preset, single, sharded) in [
        ("smoke", "scenario/k4_single", "scenario/k4_sharded4"),
        (
            "congested",
            "scenario_congested/k4_congested_single",
            "scenario_congested/k4_congested_sharded4",
        ),
        (
            "failover",
            "scenario_failover/k4_failover_single",
            "scenario_failover/k4_failover_sharded4",
        ),
        (
            "rebalance",
            "scenario_rebalance/k4_rebalance_single",
            "scenario_rebalance/k4_rebalance_sharded4",
        ),
        ("query_under_load", "scenario_query/k4_single", "scenario_query/k4_sharded4"),
        ("large", "scenario_large/k8_single", "scenario_large/k8_sharded4"),
    ] {
        for (name, mode) in [
            (single, dta_sim::TranslatorMode::SingleThreaded),
            (sharded, dta_sim::TranslatorMode::Sharded { shards: 4 }),
        ] {
            if wants(name) {
                let spec = dta_sim::ScenarioSpec::preset(preset, mode);
                results.push(run_loop_scenario(name, window, &spec));
            }
        }
    }

    results
}

/// One benchmark's verdict from [`check_against_baseline`].
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Benchmark name.
    pub name: String,
    /// Freshly measured ns/report.
    pub fresh_ns: f64,
    /// Committed baseline ns/report (from the most recent phase containing
    /// the benchmark).
    pub baseline_ns: f64,
    /// `fresh / baseline`, normalized by the run's median ratio so a
    /// uniformly slower/faster host does not flag every benchmark.
    pub normalized_ratio: f64,
    /// Whether the normalized ratio exceeds the tolerance.
    pub regressed: bool,
}

/// The CI perf-regression gate: re-measure the suite (optionally filtered
/// by `only`) with quick windows and compare each benchmark against the
/// most recent committed phase in `baseline_path` that contains it.
///
/// Raw cross-host ratios are useless (CI runners are not the recording
/// host), so each benchmark's fresh/baseline ratio is divided by the
/// **median ratio across all benchmarks** — the host-speed factor — and a
/// benchmark fails only if it regressed more than `tolerance` (e.g. 0.25)
/// *relative to the rest of the suite*. A change that slows one phase 25%
/// while the others hold still trips the gate on any host.
///
/// Returns `(outcomes, ok)`; `ok` is false if anything regressed (or the
/// baseline file was unreadable/empty).
pub fn check_against_baseline(
    baseline_path: &str,
    window: Duration,
    only: Option<&str>,
    repeat: usize,
    tolerance: f64,
) -> (Vec<CheckOutcome>, bool) {
    let Ok(text) = std::fs::read_to_string(baseline_path) else {
        eprintln!("perf gate: cannot read baseline {baseline_path}");
        return (Vec::new(), false);
    };
    let phases = parse_phases(&text);
    // Most recent committed value per benchmark = last phase wins.
    let baseline_of = |name: &str| -> Option<f64> {
        phases
            .iter()
            .rev()
            .find_map(|(_, entries)| entries.iter().find(|e| e.name == name))
            .map(|e| e.ns_per_report)
            .filter(|ns| *ns > 0.0)
    };

    let repeat = repeat.max(1);
    let mut runs: Vec<Vec<PerfEntry>> =
        (0..repeat).map(|_| translator_suite_filtered(window, only)).collect();
    let fresh: Vec<PerfEntry> = (0..runs[0].len())
        .map(|i| {
            let mut samples: Vec<PerfEntry> = runs.iter_mut().map(|r| r[i].clone()).collect();
            samples.sort_by(|a, b| a.ns_per_report.total_cmp(&b.ns_per_report));
            samples.swap_remove(samples.len() / 2)
        })
        .collect();

    let mut ratios: Vec<(usize, f64, f64)> = Vec::new(); // (fresh idx, baseline, ratio)
    for (i, e) in fresh.iter().enumerate() {
        if let Some(base) = baseline_of(&e.name) {
            ratios.push((i, base, e.ns_per_report / base));
        }
    }
    // One benchmark cannot be separated from the host-speed factor at all
    // (its normalized ratio is identically 1); refuse rather than pass
    // vacuously.
    if ratios.len() < 2 {
        eprintln!(
            "perf gate: need at least two benchmarks overlapping the baseline to \
             separate host speed from regressions (got {}) — widen --only",
            ratios.len()
        );
        return (Vec::new(), false);
    }

    // Host-speed factor per benchmark: the *leave-one-out* median of the
    // others' ratios. A plain shared median would let the median
    // benchmark itself — and, with two benchmarks, any regression —
    // normalize to exactly 1.0 and sail through.
    let loo_median = |skip: usize| -> f64 {
        let mut others: Vec<f64> = ratios
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != skip)
            .map(|(_, &(_, _, r))| r)
            .collect();
        others.sort_by(f64::total_cmp);
        others[others.len() / 2]
    };

    let mut ok = true;
    let outcomes = (0..ratios.len())
        .map(|k| {
            let (i, baseline_ns, ratio) = ratios[k];
            let normalized = ratio / loo_median(k);
            let regressed = normalized > 1.0 + tolerance;
            ok &= !regressed;
            CheckOutcome {
                name: fresh[i].name.clone(),
                fresh_ns: fresh[i].ns_per_report,
                baseline_ns,
                normalized_ratio: normalized,
                regressed,
            }
        })
        .collect();
    (outcomes, ok)
}

// ---------------------------------------------------------------------------
// BENCH_translator.json: {"phases": {"<label>": {"<name>": {...}, ...}}}
// Hand-rolled read/merge/write — the build environment has no serde_json.
// The parser accepts only what `write_json` emits.
// ---------------------------------------------------------------------------

/// Parse the phases of an existing `BENCH_translator.json`.
///
/// Returns `(label, entries)` pairs. Unrecognized content is discarded (the
/// file is regenerated wholesale on every write).
pub fn parse_phases(text: &str) -> Vec<(String, Vec<PerfEntry>)> {
    let mut phases = Vec::new();
    // Phase blocks look like:  "label": { "name": { "ns_per_report": ... } }
    // Entries are the only objects containing "ns_per_report".
    let mut current: Option<(String, Vec<PerfEntry>)> = None;
    for line in text.lines() {
        let t = line.trim().trim_end_matches(',');
        if let Some(rest) = t.strip_prefix('"') {
            if let Some((name, tail)) = rest.split_once('"') {
                let tail = tail.trim_start_matches(':').trim();
                if tail == "{" && !name.is_empty() {
                    if name == "phases" || name == "schema" {
                        continue;
                    }
                    if current.is_none() {
                        current = Some((name.to_string(), Vec::new()));
                    } else if let Some((_, entries)) = current.as_mut() {
                        entries.push(PerfEntry {
                            name: name.to_string(),
                            ns_per_report: 0.0,
                            reports_per_sec: 0.0,
                            reports: 0,
                        });
                    }
                    continue;
                }
                // Scalar field inside an entry.
                if let Some((_, entries)) = current.as_mut() {
                    if let Some(e) = entries.last_mut() {
                        let val: f64 = tail.parse().unwrap_or(0.0);
                        match name {
                            "ns_per_report" => e.ns_per_report = val,
                            "reports_per_sec" => e.reports_per_sec = val,
                            "reports" => e.reports = val as u64,
                            _ => {}
                        }
                    }
                }
                continue;
            }
        }
        // A phase block closes at `}` column depth we cannot track exactly;
        // close the current phase when we see `}` followed by another
        // phase-level `"label": {` or end. Simplest: a lone "}" at two-space
        // indent closes the phase.
        if line.starts_with("    }") && !line.starts_with("      ") {
            if let Some(done) = current.take() {
                phases.push(done);
            }
        }
    }
    if let Some(done) = current.take() {
        phases.push(done);
    }
    phases
}

/// Serialize phases into the `BENCH_translator.json` format.
pub fn render_json(phases: &[(String, Vec<PerfEntry>)]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"dta-bench/translator-v1\",\n  \"phases\": {\n");
    for (pi, (label, entries)) in phases.iter().enumerate() {
        s.push_str(&format!("    \"{label}\": {{\n"));
        for (ei, e) in entries.iter().enumerate() {
            s.push_str(&format!(
                "      \"{}\": {{\n        \"ns_per_report\": {:.2},\n        \"reports_per_sec\": {:.0},\n        \"reports\": {}\n      }}{}\n",
                e.name,
                e.ns_per_report,
                e.reports_per_sec,
                e.reports,
                if ei + 1 < entries.len() { "," } else { "" }
            ));
        }
        s.push_str(&format!("    }}{}\n", if pi + 1 < phases.len() { "," } else { "" }));
    }
    s.push_str("  }\n}\n");
    s
}

/// Measure the suite and merge it into `path` under `label`, replacing any
/// existing phase with the same label.
pub fn record_phase(path: &str, label: &str, window: Duration) -> Vec<PerfEntry> {
    record_phase_filtered(path, label, window, None, 1)
}

/// [`record_phase`] restricted to benchmarks whose name contains `only`,
/// repeated `repeat` times with the per-benchmark median recorded — the
/// defense against CPU-steal spikes on shared hosts.
pub fn record_phase_filtered(
    path: &str,
    label: &str,
    window: Duration,
    only: Option<&str>,
    repeat: usize,
) -> Vec<PerfEntry> {
    let repeat = repeat.max(1);
    let mut runs: Vec<Vec<PerfEntry>> = (0..repeat)
        .map(|_| translator_suite_filtered(window, only))
        .collect();
    // Median per benchmark, by ns/report.
    let results: Vec<PerfEntry> = (0..runs[0].len())
        .map(|i| {
            let mut samples: Vec<PerfEntry> =
                runs.iter_mut().map(|r| r[i].clone()).collect();
            samples.sort_by(|a, b| a.ns_per_report.total_cmp(&b.ns_per_report));
            samples.swap_remove(samples.len() / 2)
        })
        .collect();
    let mut phases = std::fs::read_to_string(path)
        .map(|t| parse_phases(&t))
        .unwrap_or_default();
    phases.retain(|(l, _)| l != label);
    phases.push((label.to_string(), results.clone()));
    std::fs::write(path, render_json(&phases)).expect("write bench json");
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, ns: f64) -> PerfEntry {
        PerfEntry {
            name: name.into(),
            ns_per_report: ns,
            reports_per_sec: 1e9 / ns,
            reports: 1000,
        }
    }

    #[test]
    fn json_roundtrips_phases() {
        let phases = vec![
            ("baseline".to_string(), vec![entry("key_write/2", 812.5), entry("append/16", 97.0)]),
            ("optimized".to_string(), vec![entry("key_write/2", 301.25)]),
        ];
        let text = render_json(&phases);
        let back = parse_phases(&text);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "baseline");
        assert_eq!(back[0].1.len(), 2);
        assert_eq!(back[0].1[0].name, "key_write/2");
        assert!((back[0].1[0].ns_per_report - 812.5).abs() < 1e-9);
        assert_eq!(back[1].1[0].name, "key_write/2");
        assert_eq!(back[1].1[0].reports, 1000);
    }

    #[test]
    fn suite_measures_all_primitives_quickly() {
        let results = translator_suite(Duration::from_millis(20));
        let names: Vec<&str> = results.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["key_write/1", "key_write_single/1", "key_write/2", "key_write_single/2",
             "key_write/4", "key_write_single/4", "postcarding/5hop", "append/1",
             "append/16", "key_increment/2", "key_write_sharded/1", "key_write_sharded/2",
             "key_write_sharded/4", "key_write_sharded/8", "scenario/k4_single",
             "scenario/k4_sharded4", "scenario_congested/k4_congested_single",
             "scenario_congested/k4_congested_sharded4",
             "scenario_failover/k4_failover_single",
             "scenario_failover/k4_failover_sharded4",
             "scenario_rebalance/k4_rebalance_single",
             "scenario_rebalance/k4_rebalance_sharded4", "scenario_query/k4_single",
             "scenario_query/k4_sharded4", "scenario_large/k8_single",
             "scenario_large/k8_sharded4"]
        );
        for e in &results {
            assert!(e.reports_per_sec > 0.0, "{} measured nothing", e.name);
        }
    }

    #[test]
    fn only_filter_selects_single_benchmark() {
        let results =
            translator_suite_filtered(Duration::from_millis(10), Some("key_write/2"));
        let names: Vec<&str> = results.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["key_write/2"]);
    }

    #[test]
    fn only_filter_is_family_anchored_not_substring() {
        // `key_write` selects its own family only — not key_write_single
        // and, critically, not the thread-spawning key_write_sharded runs.
        let results = translator_suite_filtered(Duration::from_millis(10), Some("key_write"));
        let names: Vec<&str> = results.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["key_write/1", "key_write/2", "key_write/4"]);
        // A suffixed family is selectable by its own prefix.
        let sharded =
            translator_suite_filtered(Duration::from_millis(10), Some("key_write_sharded"));
        let names: Vec<&str> = sharded.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["key_write_sharded/1", "key_write_sharded/2", "key_write_sharded/4",
             "key_write_sharded/8"]
        );
    }

    #[test]
    fn only_scenario_selects_the_end_to_end_family() {
        // The CI bench smoke's `--only scenario` step depends on this
        // anchored selection: both K=4 scenario modes — and NOT the
        // scenario_congested / scenario_large families, which are their
        // own smoke steps.
        let results = translator_suite_filtered(Duration::from_millis(1), Some("scenario"));
        let names: Vec<&str> = results.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["scenario/k4_single", "scenario/k4_sharded4"]);
        for e in &results {
            assert!(e.reports > 0, "{} measured nothing", e.name);
        }
    }

    #[test]
    fn only_scenario_congested_selects_the_congestion_family() {
        let results =
            translator_suite_filtered(Duration::from_millis(1), Some("scenario_congested"));
        let names: Vec<&str> = results.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["scenario_congested/k4_congested_single", "scenario_congested/k4_congested_sharded4"]
        );
        for e in &results {
            assert!(e.reports > 0, "{} measured nothing", e.name);
        }
    }

    #[test]
    fn only_scenario_failover_selects_the_failover_family() {
        let results =
            translator_suite_filtered(Duration::from_millis(1), Some("scenario_failover"));
        let names: Vec<&str> = results.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["scenario_failover/k4_failover_single", "scenario_failover/k4_failover_sharded4"]
        );
        for e in &results {
            assert!(e.reports > 0, "{} measured nothing", e.name);
        }
    }

    #[test]
    fn only_scenario_rebalance_selects_the_rebalance_family() {
        let results =
            translator_suite_filtered(Duration::from_millis(1), Some("scenario_rebalance"));
        let names: Vec<&str> = results.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["scenario_rebalance/k4_rebalance_single",
             "scenario_rebalance/k4_rebalance_sharded4"]
        );
        for e in &results {
            assert!(e.reports > 0, "{} measured nothing", e.name);
        }
    }

    #[test]
    fn perf_gate_normalizes_host_speed_and_flags_regressions() {
        // Synthetic baseline: key_write/2 committed at an absurdly *slow*
        // value and key_write/4 committed absurdly fast. On any host the
        // fresh/baseline ratios then diverge hugely in opposite
        // directions; the median-normalization makes key_write/4 (slow
        // relative to the suite) regress while key_write/2 sails.
        let dir = std::env::temp_dir().join(format!("dta-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let phases = vec![(
            "committed".to_string(),
            vec![
                entry("key_write/1", 300.0),
                entry("key_write/2", 1e9), // fresh will look ~0: no regression
                entry("key_write/4", 1.0), // fresh will look huge: regression
            ],
        )];
        std::fs::write(&path, render_json(&phases)).unwrap();
        let (outcomes, ok) = check_against_baseline(
            path.to_str().unwrap(),
            Duration::from_millis(5),
            Some("key_write"),
            1,
            0.25,
        );
        assert!(!ok, "the planted regression must fail the gate");
        let by_name = |n: &str| outcomes.iter().find(|o| o.name == n).unwrap();
        assert!(by_name("key_write/4").regressed);
        assert!(!by_name("key_write/2").regressed);
        // A two-benchmark selection still catches a one-sided regression
        // (leave-one-out normalization: each is judged against the other).
        let two = vec![(
            "committed".to_string(),
            vec![entry("key_write/2", 1e9), entry("key_write/4", 1.0)],
        )];
        std::fs::write(&path, render_json(&two)).unwrap();
        let (outcomes, ok) = check_against_baseline(
            path.to_str().unwrap(),
            Duration::from_millis(5),
            Some("key_write"),
            1,
            0.25,
        );
        assert!(!ok);
        assert!(outcomes.iter().find(|o| o.name == "key_write/4").unwrap().regressed);
        // A single overlapping benchmark cannot be normalized: fail closed.
        let (_, ok) = check_against_baseline(
            path.to_str().unwrap(),
            Duration::from_millis(1),
            Some("key_write/2"),
            1,
            0.25,
        );
        assert!(!ok, "one-benchmark selections must refuse, not vacuously pass");
        // Unreadable baseline fails closed.
        let (_, ok) = check_against_baseline(
            dir.join("missing.json").to_str().unwrap(),
            Duration::from_millis(1),
            Some("key_write/2"),
            1,
            0.25,
        );
        assert!(!ok);
        std::fs::remove_dir_all(&dir).ok();
    }
}
