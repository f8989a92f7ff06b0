//! The metric tables (mirrored by `../BENCHMARK.json`; a test keeps the two
//! in step) and the result a run prints.

use std::collections::BTreeMap;

use crate::stats::FailCount;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: its name, unit, direction and — for end-to-end metrics —
/// the share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every one is measured on every
/// workload and is never zero.
pub const END_TO_END: &[MetricDef] = &[
    e2e("reports_per_s", "1/s", Higher, 0.25),
    e2e("query_per_s", "1/s", Higher, 0.25),
    e2e("wire_bytes_per_report", "B", Lower, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers, by crate. A metric that does not apply to a workload is
/// printed as `n/a` in the listing and as 0 in the result line.
pub const PER_LAYER: &[MetricDef] = &[
    // Per-primitive quiet-host rates (`ingest-hot` phases).
    layer("kw_reports_per_s", "1/s", Higher),
    layer("append_reports_per_s", "1/s", Higher),
    layer("inc_reports_per_s", "1/s", Higher),
    layer("postcard_reports_per_s", "1/s", Higher),
    // Ungated views of the end-to-end rates.
    layer("reports_per_s_p50", "1/s", Higher),
    layer("reports_per_s_p95", "1/s", Higher),
    layer("query_per_s_p50", "1/s", Higher),
    layer("alloc.allocs_per_report", "count", Lower),
    layer("verify.report_fail_share", "ratio", Lower),
    layer("verify.query_fail_share", "ratio", Lower),
    layer("core.encode_ns", "ns", Lower),
    layer("core.decode_ns", "ns", Lower),
    layer("reporter.frame_ns", "ns", Lower),
    layer("hash.digest_ns", "ns", Lower),
    layer("hash.crc_ns", "ns", Lower),
    layer("hash.scratch_hit_ratio", "ratio", Higher),
    layer("translator.kw_ns", "ns", Lower),
    layer("translator.append_ns", "ns", Lower),
    layer("translator.inc_ns", "ns", Lower),
    layer("translator.postcard_ns", "ns", Lower),
    layer("translator.packets_per_report", "count", Lower),
    layer("translator.no_service", "count", Lower),
    layer("translator.rate_limited", "count", Lower),
    layer("translator.pool_recycle_ratio", "ratio", Higher),
    layer("translator.new_ms", "ms", Lower),
    layer("translator.flush_ns", "ns", Lower),
    layer("shard.ingest_ns", "ns", Lower),
    layer("shard.idle_wait_ns", "ns", Lower),
    layer("shard.handoff_ns", "ns", Lower),
    layer("shard.route_ns", "ns", Lower),
    layer("shard.spsc_ns", "ns", Lower),
    layer("shard.cpu_ns_per_report", "ns", Lower),
    layer("shard.connect_ms", "ms", Lower),
    layer("rdma.nic_burst_ns", "ns", Lower),
    layer("rdma.verbs_per_report", "count", Lower),
    layer("rdma.naks", "count", Lower),
    layer("rdma.dups", "count", Lower),
    layer("rdma.errors", "count", Lower),
    layer("rdma.wire_codec_ns", "ns", Lower),
    layer("rdma.mr_write_ns", "ns", Lower),
    layer("rdma.mr_fetch_add_ns", "ns", Lower),
    layer("rdma.mr_read_ns", "ns", Lower),
    layer("rdma.mr_snapshot_ms", "ms", Lower),
    layer("collector.service_new_ms", "ms", Lower),
    layer("collector.kw_query_ns", "ns", Lower),
    layer("collector.append_poll_ns", "ns", Lower),
    layer("collector.inc_query_ns", "ns", Lower),
    layer("collector.postcard_query_ns", "ns", Lower),
    layer("collector.snapshot_query_ns", "ns", Lower),
    layer("collector.query_probes", "count", Lower),
    layer("collector.query_contended_ratio", "ratio", Lower),
    layer("net.event_ns", "ns", Lower),
    layer("net.build_ms", "ms", Lower),
    layer("net.hops_per_report", "count", Lower),
    layer("net.dropped", "count", Lower),
    layer("sim.generate_ns", "ns", Lower),
    layer("sim.run_fixed_ms", "ms", Lower),
    layer("sim.run_marginal_ns", "ns", Lower),
    layer("fleet.rerouted", "count", Lower),
    layer("fleet.replayed", "count", Lower),
    layer("fleet.ledger_evicted", "count", Lower),
    layer("fleet.transferred", "count", Higher),
    layer("fleet.ops_sent", "count", Lower),
    layer("fleet.retransmits", "count", Lower),
    layer("fleet.fanout_lookups", "count", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.closure", "ratio", Higher),
];

/// The six workloads and why each exists (one line each, as in
/// `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    ("ingest-hot", "4096 active keys, four single-primitive phases: all in scratch and L2, so translator, NIC and stores do the work"),
    ("ingest-wide", "1M uniformly drawn keys into 64 MiB + 32 MiB stores: scratch and cache miss, so CRC work and region stripes dominate"),
    ("ingest-sharded", "the hot Key-Write and Key-Increment streams through a 1-shard ShardedTranslator: prices the partition and SPSC hand-off"),
    ("fabric-k8", "run_scenario on K=8 with 1008 reporters: event engine, framing and decode cost ten times the translation"),
    ("churn-k4", "run_scenario with kill, rejoin and rebalance on 3 collectors: fixed per-run fleet cost dominates, memory must equal the no-fault twin"),
    ("serve-mixed", "a reader thread queries (live and snapshot) beside a writer thread ingesting the four-primitive mix: they share stripe locks"),
];

/// Everything one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured values by metric name. A metric that is absent was not
    /// measured (its source is missing or it does not apply).
    pub values: BTreeMap<&'static str, f64>,
    /// Reports offered, and those not reflected in collector memory.
    pub reports: FailCount,
    /// Audit and stream queries issued, and those missing or wrong.
    pub queries: FailCount,
    /// Query answers that were values never written: these fail the run.
    pub wrong: u64,
    /// Cross-checks that did not hold (fingerprints, ledgers, counters).
    pub violations: Vec<String>,
    /// Facts worth printing beside the numbers (fingerprint, samples).
    pub info: Vec<(String, String)>,
}

impl Outcome {
    /// Record a measured value.
    ///
    /// # Panics
    /// Panics on a name in neither table: a typo must not silently drop a
    /// metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Record a value whose source may be missing.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// Record a fact.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Record a cross-check that failed.
    pub fn violation(&mut self, what: impl ToString) {
        self.violations.push(what.to_string());
    }

    /// Whether outputs were right: no wrong value, no broken cross-check.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.violations.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the `metrics` of `table`. A metric that does not apply
    /// is written as 0 (the line must carry every metric of the table).
    pub fn result_line(&self, table: &[MetricDef]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|m| {
                let v = self.values.get(m.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            (self.reports.attempted + self.queries.attempted).max(1),
            self.reports.failed + self.queries.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float with all its digits, as JSON.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value");
    // `{:?}` prints the shortest digits that round-trip, `1.0` for
    // integers and `1e-7` for small values: all valid JSON numbers.
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.better == Lower));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_carries_every_metric_and_counts_failures() {
        let mut o = Outcome::default();
        o.set("reports_per_s", 1234.5);
        o.reports.add(90, 1);
        o.queries.add(10, 2);
        let line = o.result_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 100, \"failed\": 3,"));
        assert!(line.contains("\"reports_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        o.wrong = 1;
        assert!(o.result_line(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_names_are_rejected() {
        Outcome::default().set("reports_per_sec", 1.0);
    }
}
