//! The congestion-loop test suite (§5.2 end to end).
//!
//! Four claims turned into executable checks:
//!
//! 1. **Recovery** — with translator rate limiting, NACK-on-drop, and
//!    reporter retransmission, a run whose rate limiter drops a third of
//!    the offered load still converges to collector memory *byte-identical*
//!    to the same seed's unthrottled run, in both translator modes — and
//!    the loop's ledger closes exactly (`nacks_received == nacks_sent`,
//!    every NACK answered by a retransmission).
//! 2. **Collapse** — when the retry budget is exhausted the run stays
//!    bit-reproducible and every loss is accounted (`retries_exhausted`,
//!    `kw_missing`), it just no longer converges.
//! 3. **PFC** — a squeezed lossless ToR→collector hop pauses instead of
//!    dropping (`pauses > 0, dropped == 0`, every RDMA write executes); a
//!    lossy twin of the same hop tail-drops, which is why the RoCE class
//!    must be lossless.
//! 4. **Mode equivalence** — the NACK loop closes identically under
//!    adversarial uplink fault schedules whether the single-threaded or
//!    the sharded pipeline fronts the collector, and congested sharded
//!    runs leak no thread-scheduling artifacts (two runs, identical report
//!    and memory).

use dta_net::{LinkConfig, QueueDiscipline};
use dta_reporter::RetransmitPolicy;
use dta_sim::{
    run_scenario, CongestionPlan, FaultPlan, ScenarioSpec, TranslatorMode,
};
use dta_translator::RateLimiterConfig;
use proptest::prelude::*;

/// The congested preset at a pinned seed, per mode.
fn congested(mode: TranslatorMode, seed: u64) -> ScenarioSpec {
    ScenarioSpec { seed, ..ScenarioSpec::preset("congested", mode) }
}

#[test]
fn congestion_recovery_converges_to_unthrottled_memory() {
    let mut memories = Vec::new();
    for mode in [TranslatorMode::SingleThreaded, TranslatorMode::Sharded { shards: 4 }] {
        let spec = congested(mode, 0xC04F_0001);
        let unthrottled =
            ScenarioSpec { congestion: CongestionPlan::none(), ..spec.clone() };
        let a = run_scenario(&spec);
        let b = run_scenario(&unthrottled);
        let r = &a.report;
        // The limiter really bit, and every drop was NACKed.
        assert!(r.translator.rate_limited > 0, "{mode:?}: limiter never fired");
        assert!(r.translator.nacks_sent > 0);
        assert_eq!(r.translator.nacks_sent, r.translator.rate_limited);
        // The loop closes: every NACK arrived and was answered by exactly
        // one retransmission; nothing exhausted its budget or missed the
        // window.
        assert_eq!(r.reporter.nacks_received, r.translator.nacks_sent, "{mode:?}: NACKs lost");
        assert_eq!(r.reporter.retransmitted, r.reporter.nacks_received);
        assert_eq!(r.reporter.retries_exhausted, 0);
        assert_eq!(r.reporter.nacks_unmatched, 0);
        assert!(r.reporter.ledger_closes());
        assert_eq!(r.reports_unsent, 0);
        // Unthrottled twin: same workload, no congestion machinery at all.
        assert_eq!(b.report.translator.rate_limited, 0);
        assert_eq!(b.report.reporter.nacks_received, 0);
        // Convergence: the retransmit loop recovered every dropped report,
        // so final collector memory is byte-identical to the unthrottled
        // run and the query audit is clean.
        assert_eq!(r.queries.kw_missing, 0, "{mode:?}: a dropped Key-Write never recovered");
        assert_eq!(r.queries, b.report.queries, "{mode:?}: query audits diverged");
        assert_eq!(a.memory, b.memory, "{mode:?}: congested memory != unthrottled memory");
        memories.push(a.memory);
    }
    // Single-vs-sharded NACK equivalence under a clean fabric: both modes
    // converge to the same bytes (each equals its unthrottled twin, and
    // the unthrottled twins are fault-equivalent).
    assert_eq!(memories[0], memories[1], "modes converged to different memory");
}

#[test]
fn congested_runs_are_bit_reproducible_in_both_modes() {
    for mode in [TranslatorMode::SingleThreaded, TranslatorMode::Sharded { shards: 4 }] {
        let spec = congested(mode, 0xC04F_0002);
        let a = run_scenario(&spec);
        let b = run_scenario(&spec);
        assert_eq!(a.report, b.report, "{mode:?}: congested report not reproducible");
        assert_eq!(a.memory, b.memory, "{mode:?}: congested memory not reproducible");
    }
}

#[test]
fn congestion_collapse_accounts_every_loss_and_stays_reproducible() {
    for mode in [TranslatorMode::SingleThreaded, TranslatorMode::Sharded { shards: 4 }] {
        // Starve the refill and cap retries at 2: recovery must fail for
        // part of the load — loudly, and identically on every run.
        let mut spec = congested(mode, 0xC04F_0003);
        spec.congestion.rate_limit = Some(RateLimiterConfig { msgs_per_sec: 2e6, burst: 16 });
        spec.congestion.retransmit =
            Some(RetransmitPolicy { window: 1024, max_retries: 2, pace_ns: 10_000 });
        let a = run_scenario(&spec);
        let r = &a.report;
        assert!(r.translator.rate_limited > 0);
        assert!(r.reporter.retries_exhausted > 0, "{mode:?}: retry budget never exhausted");
        assert!(r.queries.kw_missing > 0, "{mode:?}: collapse must lose Key-Writes");
        // Exhausted or not, every NACK is accounted one way.
        assert_eq!(r.reporter.nacks_received, r.translator.nacks_sent);
        assert!(r.reporter.ledger_closes());
        // Retransmissions stop at the budget: each report retransmits at
        // most max_retries times, so the counter is bounded by the NACKs
        // that carried a remaining budget.
        assert!(r.reporter.retransmitted < r.reporter.nacks_received);
        // Collapse is still a pure function of the spec.
        let b = run_scenario(&spec);
        assert_eq!(a.report, b.report, "{mode:?}: collapse not reproducible");
        assert_eq!(a.memory, b.memory);
    }
}

#[test]
fn pfc_lossless_rdma_hop_pauses_without_dropping() {
    // Squeeze the ToR→collector hop to 1G with a 4KB XOFF threshold: the
    // translator's RDMA bursts overrun it, so PFC must assert pauses —
    // and deliver every packet anyway.
    let squeezed = LinkConfig {
        bandwidth_bps: 1_000_000_000,
        discipline: QueueDiscipline::Lossless { xoff_bytes: 4096, xon_bytes: 1024 },
        ..LinkConfig::dc_100g_lossless()
    };
    let mut spec = ScenarioSpec {
        seed: 0x9FC_0001,
        ..ScenarioSpec::preset("smoke", TranslatorMode::SingleThreaded)
    };
    spec.congestion.rdma_link = squeezed;
    spec.drain_ns = 2_000_000; // the 1G hop needs longer to serialize
    let out = run_scenario(&spec);
    let r = &out.report;
    assert!(r.links.pauses > 0, "squeezed lossless hop never paused");
    assert_eq!(r.links.dropped, 0, "PFC must not drop");
    assert_eq!(r.net.dropped, 0);
    assert_eq!(
        r.collector.executed, r.translator.rdma_out,
        "every RDMA write must survive the paused hop"
    );
    assert_eq!(r.reports_unsent, 0);
    assert_eq!(r.queries.kw_missing, 0);

    // The lossy twin of the same squeeze tail-drops — the §4/§7 argument
    // for running the RoCE class lossless, as a measured contrast.
    spec.congestion.rdma_link = LinkConfig {
        bandwidth_bps: 1_000_000_000,
        queue_bytes: 4096,
        discipline: QueueDiscipline::Lossy,
        ..LinkConfig::dc_100g()
    };
    let lossy = run_scenario(&spec);
    assert!(lossy.report.links.dropped > 0, "lossy twin must tail-drop under the same load");
    assert!(lossy.report.collector.executed < lossy.report.translator.rdma_out);
}

proptest! {
    /// Single-vs-sharded NACK equivalence under the fault plan: with
    /// loss, reordering, and duplication on the report uplinks (the NACK
    /// return path stays clean) plus an adversarial rate limit, the
    /// congestion loop's ledger closes *exactly* in both translator
    /// modes — every rate-limited drop NACKs, every NACK arrives, and
    /// every NACK is answered (retransmitted or budget-exhausted; never
    /// silently lost). The sharded run is also re-run to pin that the
    /// worker→engine NACK hand-off leaks no thread-scheduling artifacts
    /// under faults.
    #[test]
    fn nack_loop_closes_in_both_modes_under_uplink_faults(
        seed in any::<u64>(),
        drop_pct in 0u32..25,
        reorder_pct in 0u32..25,
        dup_pct in 0u32..25,
        burst in 16u64..96,
        ops in 6u32..14,
    ) {
        let faults = FaultPlan {
            report_uplinks: dta_net::FaultConfig::unreliable(
                drop_pct as f64 / 100.0,
                reorder_pct as f64 / 100.0,
                dup_pct as f64 / 100.0,
            ),
            fabric: dta_net::FaultConfig::none(),
            rdma_hop: dta_net::FaultConfig::none(),
        };
        let base = ScenarioSpec {
            ops_per_reporter: ops,
            faults,
            seed,
            ..ScenarioSpec::preset("congested", TranslatorMode::SingleThreaded)
        };
        let mut specs = vec![base.clone()];
        specs.push(ScenarioSpec { mode: TranslatorMode::Sharded { shards: 4 }, ..base });
        for (i, mut spec) in specs.into_iter().enumerate() {
            spec.congestion.rate_limit = Some(RateLimiterConfig { msgs_per_sec: 10e6, burst });
            let a = run_scenario(&spec);
            let r = &a.report;
            prop_assert_eq!(
                r.translator.nacks_sent, r.translator.rate_limited,
                "every rate-limited report carried the nack flag"
            );
            prop_assert_eq!(
                r.reporter.nacks_received, r.translator.nacks_sent,
                "clean return path: no NACK may vanish (mode {})", i
            );
            prop_assert_eq!(r.reporter.nacks_unmatched, 0u64, "window must cover the run");
            prop_assert!(r.reporter.ledger_closes(), "NACK ledger leaked (mode {})", i);
            prop_assert_eq!(r.reports_unsent, 0u64);
            if i == 1 {
                let b = run_scenario(&spec);
                prop_assert_eq!(&a.report, &b.report, "sharded congested run not reproducible");
                prop_assert!(a.memory == b.memory, "sharded congested memory not reproducible");
            }
        }
    }
}
