//! The collector-failover test suite (release gate).
//!
//! The failover claim, in the same self-stabilization frame as the PR 5
//! congestion suite: after a fail-stop collector fault, the surviving
//! fleet's *merged* memory is byte-identical to a same-seed run that never
//! had the failure, in both translator modes — and every in-flight report
//! is accounted for (the translator's replay ledger closes exactly).
//!
//! Five claims turned into executable checks:
//!
//! 1. **Convergence** — kill 1 of 3 collectors mid-emission; the
//!    translator detects the fail-stop (completion timeout single-threaded,
//!    CM teardown sharded), re-routes the dead key range to the survivors,
//!    and replays the un-acked window. The merged survivor memory and the
//!    query audit equal the no-failure twin, byte for byte.
//! 2. **Accounting** — the in-flight ledger closes in every run:
//!    `recorded == evicted + replayed + nak_replayed + resident`. With the
//!    default capacity nothing evicts, so no replay is ever silently lost.
//! 3. **Replay idempotence** — a *spurious* failover (the translator is
//!    told a healthy collector died) re-applies even acknowledged writes
//!    at the new owner. Write-once Key-Write and slot-disjoint
//!    Key-Increment make the double-application invisible everywhere
//!    queries look: INC totals and KW bytes match the no-failover twin.
//! 4. **Rejoin** — a healed collector re-enters at a bumped table epoch
//!    and takes its key range back; the run stays bit-reproducible and the
//!    write-once KW region still merges to the twin's bytes (CMS sums are
//!    split across the fault windows by design, so only the idempotent
//!    region carries the equality through a rejoin).
//! 5. **Reproducibility** — every fault schedule above is a pure function
//!    of the spec: same seed, same report, same per-collector bytes.

use dta_sim::{
    run_scenario, CollectorFaultPlan, CollectorPlan, ScenarioOutcome, ScenarioSpec, TranslatorMode,
};
use proptest::prelude::*;

/// Key-Write region rkey (write-once — the idempotent region).
const RKEY_KW: u32 = 0x10;

const BOTH_MODES: [TranslatorMode; 2] =
    [TranslatorMode::SingleThreaded, TranslatorMode::Sharded { shards: 4 }];

/// The failover preset (kill collector 1 of 3 at 12us) at a pinned seed.
fn failover(mode: TranslatorMode, seed: u64) -> ScenarioSpec {
    ScenarioSpec { seed, ..ScenarioSpec::preset("failover", mode) }
}

/// The same deployment and workload with the fault schedule removed.
fn no_fault_twin(spec: &ScenarioSpec) -> ScenarioSpec {
    ScenarioSpec {
        collectors: CollectorPlan { fault: None, ..spec.collectors },
        ..spec.clone()
    }
}

/// Assert the translator-side in-flight ledger closed exactly and nothing
/// was evicted (capacity evictions would make replay lossy).
fn assert_ledger_airtight(out: &ScenarioOutcome, ctx: &str) {
    let f = &out.report.failover;
    assert!(f.ledger_closes(), "{ctx}: ledger leaked: {f:?}");
    assert_eq!(f.ledger_evicted, 0, "{ctx}: capacity evictions lost replay window");
}

#[test]
fn killed_collector_converges_to_no_failure_memory() {
    for mode in BOTH_MODES {
        let spec = failover(mode, 0xFA17_0001);
        let twin = no_fault_twin(&spec);
        let a = run_scenario(&spec);
        let b = run_scenario(&twin);
        let f = &a.report.failover;

        // The fail-stop really happened and was detected through the
        // deployment's own signal: RDMA completion timeout when the
        // translator drives the wire, CM teardown when the sharded
        // pipelines execute in-process.
        assert_eq!(f.failovers, 1, "{mode:?}: expected exactly one failover");
        assert_eq!(f.spurious, 0);
        assert_eq!(f.rejoins, 0);
        match mode {
            TranslatorMode::SingleThreaded => {
                assert_eq!(f.detected_timeout, 1, "{mode:?}: timeout detection missed");
                assert_eq!(f.detected_teardown, 0);
            }
            TranslatorMode::Sharded { .. } => {
                assert_eq!(f.detected_teardown, 1, "{mode:?}: teardown detection missed");
                assert_eq!(f.detected_timeout, 0);
            }
        }
        assert_eq!(f.epoch, 1, "{mode:?}: one membership change = epoch 1");

        // The victim's key range went somewhere: traffic re-routed after
        // the epoch bump, and the un-acked window replayed.
        assert!(f.rerouted > 0, "{mode:?}: no report ever took the fallback route");
        assert!(
            f.replayed + f.replayed_acked + f.nak_replayed > 0,
            "{mode:?}: nothing replayed — kill landed outside the in-flight window"
        );
        assert!(f.ledger_recorded > 0);
        assert_ledger_airtight(&a, "kill run");

        // The twin saw none of the machinery fire.
        assert_eq!(b.report.failover.failovers, 0);
        assert_eq!(b.report.failover.rerouted, 0);
        assert_eq!(b.report.failover.epoch, 0);

        // Convergence: merged survivor memory is byte-identical to the
        // same seed's no-failure merged memory, and the audit (routed by
        // each run's *own* final table) agrees.
        assert_eq!(a.report.sent, b.report.sent, "{mode:?}: twins diverged at the workload");
        assert_eq!(a.report.reports_unsent, 0);
        assert_eq!(
            a.report.queries, b.report.queries,
            "{mode:?}: query audit diverged from no-failure twin"
        );
        assert_eq!(a.report.queries.kw_missing, 0, "{mode:?}: a Key-Write vanished in failover");
        assert_eq!(
            a.memory, b.memory,
            "{mode:?}: merged survivor memory != no-failure memory"
        );
        // Unmerged views exist for the whole fleet, and the victim's is
        // genuinely different from the twin's (its mid-window range moved).
        assert_eq!(a.fleet_memory.len(), 3);
        assert_eq!(b.fleet_memory.len(), 3);
        assert_ne!(
            a.fleet_memory[1], b.fleet_memory[1],
            "{mode:?}: victim memory unchanged — the kill was a no-op"
        );
    }
}

#[test]
fn failover_runs_are_bit_reproducible_in_both_modes() {
    for mode in BOTH_MODES {
        for seed in [0xFA17_0002u64, 0xFA17_0003, 0xFA17_0004] {
            let spec = failover(mode, seed);
            let a = run_scenario(&spec);
            let b = run_scenario(&spec);
            assert_eq!(a.report, b.report, "{mode:?}/{seed:#x}: report not reproducible");
            assert_eq!(a.memory, b.memory, "{mode:?}/{seed:#x}: merged memory not reproducible");
            assert_eq!(
                a.fleet_memory, b.fleet_memory,
                "{mode:?}/{seed:#x}: per-collector memory not reproducible"
            );
        }
    }
}

/// Satellite: replay idempotence. A spurious failover replays writes the
/// collector already executed and acknowledged — the write-once KW slots
/// and slot-disjoint CMS counters must absorb the re-application without
/// any query-visible double effect.
#[test]
fn spurious_failover_replay_does_not_double_apply() {
    for mode in BOTH_MODES {
        let mut spec = failover(mode, 0xFA17_0005);
        spec.collectors.fault = Some(CollectorFaultPlan {
            spurious: true,
            ..CollectorFaultPlan::kill(1, 12_000)
        });
        let twin = no_fault_twin(&spec);
        let a = run_scenario(&spec);
        let b = run_scenario(&twin);
        let f = &a.report.failover;

        assert_eq!(f.failovers, 1, "{mode:?}: spurious failover never fired");
        assert_eq!(f.spurious, 1);
        // No real death signal: neither detector may claim credit.
        assert_eq!(f.detected_timeout, 0, "{mode:?}");
        assert_eq!(f.detected_teardown, 0, "{mode:?}");
        // The definition of the hazard: acknowledged writes were replayed.
        assert!(
            f.replayed_acked > 0,
            "{mode:?}: no acked entry replayed — the idempotence claim went untested"
        );
        assert_ledger_airtight(&a, "spurious run");

        // Idempotence, observed everywhere queries look: the CMS estimate
        // total (a double-applied INC would inflate it), the KW audit (a
        // torn or duplicated KW would go ambiguous/missing), and the raw
        // merged bytes.
        assert_eq!(
            a.report.queries.inc_estimate_total, b.report.queries.inc_estimate_total,
            "{mode:?}: Key-Increment totals drifted — replay double-applied"
        );
        assert_eq!(a.report.queries, b.report.queries, "{mode:?}: audit diverged");
        assert_eq!(
            a.memory, b.memory,
            "{mode:?}: merged memory != twin after spurious replay"
        );

        // Pure function of the spec, like every other schedule.
        let c = run_scenario(&spec);
        assert_eq!(a.report, c.report, "{mode:?}: spurious run not reproducible");
        assert_eq!(a.memory, c.memory);
    }
}

/// A rejoin-capable variant of the preset: a longer emission window and a
/// tighter detection timeout, so the fleet detects the kill, re-routes,
/// re-admits the victim at ~32us, and still has emissions left to route
/// back to it on the restored primary paths.
fn rejoin_spec(seed: u64) -> ScenarioSpec {
    let mut spec = failover(TranslatorMode::SingleThreaded, seed);
    spec.ops_per_reporter = 96;
    spec.collectors.timeout_ns = 8_000;
    spec.collectors.fault = Some(CollectorFaultPlan {
        rejoin_at_ns: Some(32_000),
        ..CollectorFaultPlan::kill(1, 12_000)
    });
    spec
}

#[test]
fn rejoin_readmits_the_victim_at_a_bumped_epoch() {
    let spec = rejoin_spec(0xFA17_0006);
    let a = run_scenario(&spec);
    let f = &a.report.failover;

    assert_eq!(f.failovers, 1, "kill never detected before the rejoin");
    assert_eq!(f.detected_timeout, 1);
    assert_eq!(f.rejoins, 1, "victim never re-admitted");
    assert_eq!(f.epoch, 2, "kill + rejoin = two membership changes");
    assert!(f.rerouted > 0, "no traffic ever used the fallback window");
    assert!(a.report.failover.ledger_closes(), "rejoin run leaked ledger entries");

    // Bit-reproducible, like every schedule.
    let b = run_scenario(&spec);
    assert_eq!(a.report, b.report, "rejoin run not reproducible");
    assert_eq!(a.memory, b.memory);
    assert_eq!(a.fleet_memory, b.fleet_memory);

    // The idempotent (write-once KW) region still converges to the twin:
    // wherever a key's single write landed — victim before the kill,
    // survivor during the fault window, victim again after rejoin — it
    // occupies the same slot offset, so the merged OR is invariant. The
    // CMS region is deliberately NOT compared: a rejoin splits each key's
    // increment stream across two collectors, and a sum split across nodes
    // does not OR back into the twin's single sum.
    let twin = run_scenario(&no_fault_twin(&spec));
    let kw = |out: &ScenarioOutcome| {
        out.memory.iter().find(|(rkey, _)| *rkey == RKEY_KW).expect("KW region").1.clone()
    };
    assert_eq!(
        kw(&a),
        kw(&twin),
        "write-once KW region failed to merge back to the no-failure bytes"
    );
    assert_eq!(a.report.queries.kw_found, twin.report.queries.kw_found);
    assert_eq!(a.report.queries.kw_ambiguous, 0, "replay tore a write-once slot");
    assert_eq!(a.report.queries.kw_missing, 0);
}

/// Starve the ledger (capacity 8 per collector against a ~100-report
/// window): evictions must happen, be counted, and leave the closure
/// identity intact — bounded memory degrades loudly, never silently.
#[test]
fn ledger_eviction_is_accounted_not_silent() {
    for mode in BOTH_MODES {
        let mut spec = failover(mode, 0xFA17_0007);
        spec.collectors.ledger_capacity = 8;
        let a = run_scenario(&spec);
        let f = &a.report.failover;
        assert_eq!(f.failovers, 1, "{mode:?}");
        assert!(f.ledger_evicted > 0, "{mode:?}: tiny ledger never evicted");
        assert!(f.ledger_closes(), "{mode:?}: eviction broke the closure identity: {f:?}");
        // Still a pure function of the spec.
        let b = run_scenario(&spec);
        assert_eq!(a.report, b.report, "{mode:?}: evicting run not reproducible");
        assert_eq!(a.memory, b.memory);
    }
}

/// Mode equivalence of the fleet itself (no fault): routing a workload
/// across 3 collectors through the single-threaded wire path and through
/// the sharded in-process path lands the same merged bytes — the fleet
/// extension of the scenario suite's fault-equivalence property.
#[test]
fn fleet_modes_agree_on_merged_memory_without_faults() {
    let single = run_scenario(&no_fault_twin(&failover(TranslatorMode::SingleThreaded, 0xFA17_0008)));
    let sharded =
        run_scenario(&no_fault_twin(&failover(TranslatorMode::Sharded { shards: 4 }, 0xFA17_0008)));
    assert_eq!(single.report.sent, sharded.report.sent);
    assert_eq!(single.report.queries, sharded.report.queries, "audits diverged across modes");
    assert_eq!(single.memory, sharded.memory, "fleet memory diverged across modes");
    assert_eq!(single.fleet_memory, sharded.fleet_memory, "per-collector bytes diverged");
    // Fleet plumbing sanity: reports really spread over all 3 collectors.
    for (c, mem) in single.fleet_memory.iter().enumerate() {
        let wrote = mem.iter().any(|(_, bytes)| bytes.iter().any(|b| *b != 0));
        assert!(wrote, "collector {c} never executed a write");
    }
}

proptest! {
    /// Convergence is not a property of the pinned seed or the pinned
    /// victim: across random seeds, victims, and kill times inside the
    /// emission window, the killed fleet's merged memory and audit equal
    /// the same-seed no-failure twin in both translator modes, the ledger
    /// closes, and the runs are bit-reproducible.
    #[test]
    fn killed_fleet_converges_for_any_seed_victim_and_kill_time(
        seed in any::<u64>(),
        victim in 0u32..3,
        kill_at in 6_000u64..22_000,
        sharded in any::<bool>(),
    ) {
        let mode = if sharded {
            TranslatorMode::Sharded { shards: 4 }
        } else {
            TranslatorMode::SingleThreaded
        };
        let mut spec = failover(mode, seed);
        spec.collectors.fault = Some(CollectorFaultPlan::kill(victim, kill_at));
        let twin = no_fault_twin(&spec);
        let a = run_scenario(&spec);
        let b = run_scenario(&twin);
        let f = &a.report.failover;
        prop_assert_eq!(f.failovers, 1, "failover must fire: {:?}", f);
        prop_assert!(f.ledger_closes(), "ledger leaked: {:?}", f);
        prop_assert_eq!(f.ledger_evicted, 0u64);
        prop_assert_eq!(&a.report.queries, &b.report.queries, "audit diverged");
        prop_assert!(a.memory == b.memory, "merged memory != no-failure twin");
        let c = run_scenario(&spec);
        prop_assert!(a.memory == c.memory, "kill run not reproducible");
        prop_assert_eq!(&a.report, &c.report);
    }
}
