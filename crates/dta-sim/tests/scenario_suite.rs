//! The scenario test suite.
//!
//! Three claims the harness turns from prose into executable checks:
//!
//! 1. **Bit-reproducibility** — a seeded scenario produces an identical
//!    [`ScenarioReport`] and identical collector memory on every run, in
//!    both translator modes.
//! 2. **K=4 fat-tree convergence** — with a clean fabric, every report a
//!    multi-pod fleet emits lands and every written key/flow/list queries
//!    back from the collector.
//! 3. **Fault equivalence** — under the same seeded loss+reorder+duplicate
//!    schedule on the report path, the single-threaded translator and the
//!    N-shard pipeline leave byte-identical collector memory: the paper's
//!    best-effort primitives don't care *which* pipeline fronts the
//!    collector, only *what* the network delivered.

use dta_sim::{load_file, run_scenario, FaultPlan, ScenarioSpec, TrafficMix, TranslatorMode};
use proptest::prelude::*;

/// A modest K=4 deployment; small enough that the proptest's repeated
/// builds stay fast, large enough that every pod contributes reporters.
/// `scenarios/fault_equivalence.toml` is this spec plus the 10% fault
/// schedule — `suite_cell_spec` pulls the seeded variants from there, so
/// the corpus (not this function) is the source of truth for the seeded
/// bit-repro tests.
fn base_spec() -> ScenarioSpec {
    ScenarioSpec {
        fat_tree_k: 4,
        reporters: 8,
        ops_per_reporter: 16,
        traffic: TrafficMix { slot_disjoint_keys: true, ..TrafficMix::default() },
        ..ScenarioSpec::default()
    }
}

/// Load one cell of the suite's corpus file by coordinate id.
fn suite_cell_spec(cell_id: &str) -> ScenarioSpec {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios/fault_equivalence.toml");
    let doc = load_file(&path).expect("suite corpus file must parse and validate");
    doc.cells()
        .into_iter()
        .find(|c| c.id() == cell_id)
        .unwrap_or_else(|| panic!("fault_equivalence.toml: no cell [{cell_id}]"))
        .spec
}

#[test]
fn seeded_single_threaded_scenario_is_bit_reproducible() {
    let spec = suite_cell_spec("seed=3617587201,mode=single"); // 0xD7A0_0001
    assert_eq!(
        spec,
        ScenarioSpec {
            faults: FaultPlan::unreliable_report_path(0.1, 0.1, 0.1),
            seed: 0xD7A0_0001,
            ..base_spec()
        },
        "corpus cell drifted from the suite's deployment"
    );
    let a = run_scenario(&spec);
    let b = run_scenario(&spec);
    assert_eq!(a.report, b.report, "report must be a pure function of the spec");
    assert_eq!(a.memory, b.memory, "collector memory must be bit-identical");
    // And the seed matters: a different schedule is actually different.
    let c = run_scenario(&ScenarioSpec { seed: 0xD7A0_0002, ..spec });
    assert_ne!(a.report, c.report);
}

#[test]
fn seeded_sharded_scenario_is_bit_reproducible() {
    let spec = suite_cell_spec("seed=3617587203,mode=sharded4"); // 0xD7A0_0003
    assert_eq!(spec.mode, TranslatorMode::Sharded { shards: 4 });
    let a = run_scenario(&spec);
    let b = run_scenario(&spec);
    assert_eq!(
        a.report, b.report,
        "sharded report must not leak thread-scheduling artifacts"
    );
    assert_eq!(a.memory, b.memory);
    assert_eq!(a.report.per_shard_reports_in.len(), 4);
}

#[test]
fn k4_fat_tree_multi_reporter_convergence() {
    // Every host except the collector's reports; fabric is clean.
    let spec = ScenarioSpec {
        reporters: 15,
        ops_per_reporter: 24,
        seed: 0xC04E_0001,
        ..base_spec()
    };
    let outcome = run_scenario(&spec);
    let r = &outcome.report;
    assert_eq!(r.reports_unsent, 0, "emission window must cover the schedule");
    assert_eq!(r.net.dropped, 0, "clean fabric must not drop");
    assert_eq!(r.faults, dta_net::FaultTotals::default(), "no injectors attached");
    assert_eq!(
        r.translator_node.dta_in,
        r.sent.total(),
        "every framed report must reach the translator"
    );
    assert_eq!(r.translator.reports_in, r.sent.total());
    // Query audit: everything written is queryable.
    assert_eq!(r.queries.kw_missing, 0, "no Key-Write key may vanish");
    assert_eq!(r.queries.kw_ambiguous, 0);
    assert!(r.queries.kw_found > 0);
    assert_eq!(r.queries.pc_missing, 0, "every full flow must decode");
    assert_eq!(r.queries.append_entries, r.sent.append);
    assert!(r.queries.inc_estimate_total > 0);
    assert!(r.executed > 0);
}

#[test]
fn sharded_k4_convergence_matches_send_counts() {
    let spec = ScenarioSpec {
        reporters: 15,
        ops_per_reporter: 24,
        mode: TranslatorMode::Sharded { shards: 4 },
        seed: 0xC04E_0002,
        ..base_spec()
    };
    let outcome = run_scenario(&spec);
    let r = &outcome.report;
    assert_eq!(r.reports_unsent, 0);
    assert_eq!(r.translator.reports_in, r.sent.total());
    assert_eq!(r.queries.kw_missing, 0);
    assert_eq!(r.queries.append_entries, r.sent.append);
    assert!(
        r.per_shard_reports_in.iter().all(|&n| n > 0),
        "all shards must take load: {:?}",
        r.per_shard_reports_in
    );
    // The RDMA hop is intra-rack in sharded mode: nothing crossed the wire.
    assert_eq!(r.collector.executed, 0);
    assert!(r.executed > 0);
}

/// K=8, 1008 paced reporters (8 lanes on each of 127 hosts), single mode:
/// the fleet drains, every report crosses the fabric, and the collector
/// answers for all of it. `large_` tests are the CI K=8 smoke step.
#[test]
fn large_k8_single_converges() {
    let spec = ScenarioSpec { seed: 0x1A26_0001, ..ScenarioSpec::preset("large", TranslatorMode::SingleThreaded) };
    let outcome = run_scenario(&spec);
    let r = &outcome.report;
    assert_eq!(r.reports_unsent, 0, "emission window must cover the schedule");
    assert_eq!(r.net.dropped, 0, "clean fabric must not drop");
    assert_eq!(r.translator_node.dta_in, r.sent.total());
    assert_eq!(r.translator.reports_in, r.sent.total());
    assert!(r.sent.total() > 5_000, "a 1008-reporter fleet must emit at scale");
    assert_eq!(r.queries.kw_missing, 0);
    assert_eq!(r.queries.kw_ambiguous, 0);
    assert_eq!(r.queries.pc_missing, 0, "every full flow must decode");
    assert!(r.queries.append_entries > 0);
    assert!(r.executed > 0);
}

/// Same fleet through the sharded pipeline; also pins bit-reproducibility
/// at scale (two runs, identical report + collector bytes).
#[test]
fn large_k8_sharded_is_bit_reproducible() {
    let spec = ScenarioSpec {
        mode: TranslatorMode::Sharded { shards: 4 },
        seed: 0x1A26_0002,
        ..ScenarioSpec::preset("large", TranslatorMode::SingleThreaded)
    };
    let a = run_scenario(&spec);
    assert_eq!(a.report.reports_unsent, 0);
    assert_eq!(a.report.translator.reports_in, a.report.sent.total());
    assert_eq!(a.report.per_shard_reports_in.len(), 4);
    assert!(
        a.report.per_shard_reports_in.iter().all(|&n| n > 0),
        "all shards must take load: {:?}",
        a.report.per_shard_reports_in
    );
    assert_eq!(a.report.queries.kw_missing, 0);
    let b = run_scenario(&spec);
    assert_eq!(a.report, b.report, "K=8 sharded report must be a pure function of the spec");
    assert_eq!(a.memory, b.memory, "K=8 collector memory must be bit-identical");
}

/// A lossy, reordering, duplicating report path at K=8 scale: loss shows
/// up in the fault totals and the surviving reports still audit cleanly.
#[test]
fn large_k8_faulted_report_path_accounts_for_loss() {
    let spec = ScenarioSpec {
        faults: FaultPlan::unreliable_report_path(0.05, 0.05, 0.05),
        seed: 0x1A26_0003,
        ..ScenarioSpec::preset("large", TranslatorMode::SingleThreaded)
    };
    let outcome = run_scenario(&spec);
    let r = &outcome.report;
    assert_eq!(r.reports_unsent, 0);
    assert!(r.faults.dropped > 0, "a 5% lossy path must lose something at this scale");
    assert!(r.faults.duplicated > 0);
    assert!(r.translator.reports_in > 0);
    assert!(
        r.translator.reports_in as i64 - r.sent.total() as i64
            != 0,
        "loss and duplication must not exactly cancel at 13k reports (seed-pinned)"
    );
}

/// RoCE-hop loss on `smoke`/single/seed 7: the translator's only remedy is
/// the requester QP's stale-NAK rule. No duplication is injected, so every
/// PSN-duplicate drop at the collector would be a rewind the translator
/// inflicted on itself by acting on a repeat of a NAK it already answered;
/// and one loss opens one gap, so it can justify at most one rewind.
#[test]
fn roce_hop_loss_resyncs_once_per_gap_and_never_duplicates() {
    // Verbs the collector executed before the rule moved into the QP, when
    // every repeat of a NAK rewound the send PSN again.
    for (p, naive_executed) in [(0.01, 287), (0.05, 219), (0.2, 84)] {
        let spec = ScenarioSpec {
            faults: FaultPlan {
                rdma_hop: dta_net::FaultConfig::unreliable(p, 0.0, 0.0),
                ..FaultPlan::none()
            },
            seed: 7,
            ..ScenarioSpec::preset("smoke", TranslatorMode::SingleThreaded)
        };
        let r = run_scenario(&spec).report;
        assert!(r.faults.dropped > 0, "p={p}: the hop must lose something");
        assert_eq!(r.collector.dropped, 0, "p={p}: self-inflicted PSN duplicates");
        assert!(
            r.translator.resyncs <= r.faults.dropped,
            "p={p}: {} rewinds for {} losses",
            r.translator.resyncs,
            r.faults.dropped
        );
        assert!(
            r.collector.executed > naive_executed,
            "p={p}: executed {} verbs, no better than rewinding on every NAK",
            r.collector.executed
        );
    }
}

proptest! {
    /// The acceptance property: identical fault schedules (loss + reorder
    /// + duplication on the report path of a K=4 fat tree) leave the
    /// single-threaded and N-shard translators with byte-identical
    /// collector memory.
    #[test]
    fn fault_equivalence_single_vs_sharded(
        seed in any::<u64>(),
        drop_pct in 0u32..25,
        reorder_pct in 0u32..25,
        dup_pct in 0u32..25,
        wide in any::<bool>(),
        ops in 6u32..20,
    ) {
        let faults = FaultPlan::unreliable_report_path(
            drop_pct as f64 / 100.0,
            reorder_pct as f64 / 100.0,
            dup_pct as f64 / 100.0,
        );
        let spec = ScenarioSpec {
            ops_per_reporter: ops,
            faults,
            seed,
            ..base_spec()
        };
        let single = run_scenario(&spec);
        let shards = if wide { 4 } else { 2 };
        let sharded = run_scenario(&ScenarioSpec {
            mode: TranslatorMode::Sharded { shards },
            ..spec
        });
        // Both pipelines saw the same delivered stream...
        prop_assert_eq!(
            single.report.translator.reports_in,
            sharded.report.translator.reports_in,
            "fault schedule diverged between modes"
        );
        prop_assert_eq!(&single.report.sent, &sharded.report.sent);
        // ...and left the same bytes behind.
        prop_assert_eq!(single.memory.len(), sharded.memory.len());
        for ((rkey_a, bytes_a), (rkey_b, bytes_b)) in
            single.memory.iter().zip(&sharded.memory)
        {
            prop_assert_eq!(rkey_a, rkey_b);
            prop_assert!(
                bytes_a == bytes_b,
                "collector memory diverged at {} shards (rkey {:#x}): first diff at byte {:?}",
                shards,
                rkey_a,
                bytes_a.iter().zip(bytes_b.iter()).position(|(a, b)| a != b)
            );
        }
    }
}
