//! Online query serving under write load (release suite).
//!
//! Pins the [`dta_sim::QueryPlan`] contract end to end:
//!
//! * **Read-only**: a query-loaded run leaves collector memory
//!   byte-identical to a query-free twin of the same seed, in both
//!   translator modes — the stream reads pooled per-epoch snapshots, never
//!   the live region, so not one writer byte may move.
//! * **Bit-reproducible**: the [`dta_sim::QueryStats`] section (latency
//!   histogram, staleness, hit/miss/fan-out counts) is a pure function of
//!   the spec.
//! * **Live overlap**: the stream really runs during the write phase
//!   (epochs span the emission window) and really answers.
//! * **Fleet routing**: the same plan serves a 3-collector fleet through
//!   the owner-first engine.

#![cfg(not(debug_assertions))]

use dta_sim::{
    memory_fingerprint, run_scenario, CollectorPlan, ScenarioSpec, TranslatorMode,
};

const MODES: [TranslatorMode; 2] =
    [TranslatorMode::SingleThreaded, TranslatorMode::Sharded { shards: 4 }];

/// The query-free twin: same seed, same traffic, no `[query]` plan.
fn twin(spec: &ScenarioSpec) -> ScenarioSpec {
    ScenarioSpec { query: None, ..spec.clone() }
}

#[test]
fn query_stream_leaves_writer_memory_byte_identical() {
    for mode in MODES {
        let spec = ScenarioSpec::preset("query_under_load", mode);
        let queried = run_scenario(&spec);
        let bare = run_scenario(&twin(&spec));

        let q = queried.report.query.as_ref().expect("query plan ran");
        assert!(q.answered > 0, "{mode:?}: stream answered nothing");

        assert_eq!(
            memory_fingerprint(&queried.memory),
            memory_fingerprint(&bare.memory),
            "{mode:?}: query stream perturbed collector memory"
        );
        assert_eq!(queried.memory.len(), bare.memory.len());
        for ((rk_a, buf_a), (rk_b, buf_b)) in queried.memory.iter().zip(&bare.memory) {
            assert_eq!(rk_a, rk_b);
            assert_eq!(buf_a.as_bytes(), buf_b.as_bytes(), "{mode:?}: region {rk_a} diverged");
        }

        // Everything but the query section matches the twin: serving
        // queries changes no writer-side counter.
        let mut stripped = queried.report.clone();
        stripped.query = None;
        assert_eq!(stripped, bare.report, "{mode:?}: query stream leaked into writer counters");
    }
}

#[test]
fn query_stats_are_bit_reproducible_and_live() {
    for mode in MODES {
        let spec = ScenarioSpec::preset("query_under_load", mode);
        let a = run_scenario(&spec);
        let b = run_scenario(&spec);
        assert_eq!(a.report, b.report, "{mode:?}: report must be a pure function of the spec");

        let q = a.report.query.as_ref().expect("query plan ran");
        let plan = spec.query.unwrap();
        // The stream overlapped the write phase: one epoch per tick in
        // [start, stop), at `rate` issued queries each.
        assert!(q.epochs > 1, "{mode:?}: no live overlap ({} epochs)", q.epochs);
        assert_eq!(q.issued, q.epochs * plan.rate as u64);
        assert_eq!(q.issued, q.hits + q.misses);
        assert!(q.answered > 0 && q.hits > 0, "{mode:?}: {q:?}");
        // Every issued query got a latency sample, each at least the base
        // service cost.
        assert_eq!(q.latency.count, q.issued);
        assert!(q.latency.min_ns >= 80, "{mode:?}: {:?}", q.latency);
        assert!(q.latency.mean_ns() >= q.latency.min_ns);
        assert!(q.staleness_epochs_max >= q.staleness_epochs_total.div_ceil(q.issued.max(1)));
    }
}

#[test]
fn query_stream_serves_a_collector_fleet() {
    // Fleet-without-fault: three collectors, owner-first routing on the
    // epoch-0 table. KW + INC only (the fleet preconditions).
    let mut spec = ScenarioSpec::preset("query_under_load", TranslatorMode::SingleThreaded);
    spec.traffic.append = 0;
    spec.traffic.postcarding = 0;
    let mix = &mut spec.query.as_mut().unwrap().mix;
    mix.append = 0;
    mix.postcarding = 0;
    spec.collectors = CollectorPlan { timeout_ns: 8_000, ..CollectorPlan::fleet(3) };
    spec.service.nic = spec.service.nic.with_ack_coalesce(8);
    spec.validate().expect("fleet query spec is valid");

    let a = run_scenario(&spec);
    let b = run_scenario(&spec);
    assert_eq!(a.report, b.report, "fleet query report must be reproducible");
    let q = a.report.query.as_ref().expect("query plan ran");
    assert!(q.answered > 0 && q.hits > 0, "fleet stream answered nothing: {q:?}");
    assert_eq!(a.fleet_memory.len(), 3);
}
