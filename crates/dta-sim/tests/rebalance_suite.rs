//! The live-rebalance test suite (release gate).
//!
//! PR 6's failover suite proved the fleet *survives* churn: after a kill,
//! the merged survivor memory equals the no-failure twin. But a rejoin
//! leaves the healed collector's key range scattered — writes that landed
//! on the fallback during the fault window stay there, queries fan out,
//! and the per-collector views never match a run that had no failure. This
//! suite proves the rebalance subsystem finishes the job: after
//! kill → rejoin → epoch-fenced migration, **every collector's memory is
//! byte-identical to the same-seed no-failure twin — including the
//! Key-Increment/CMS region** — in both translator modes, under live
//! concurrent write load, and under loss/reorder/duplication injected on
//! the migration path itself.
//!
//! The claims, as executable checks:
//!
//! 1. **Repatriation** — the rebalance preset (kill at 12us, rejoin at
//!    28us, fence at 36us, emission live to ~52us) releases in both
//!    modes and leaves per-collector bytes equal to the twin's.
//! 2. **Accounting** — the migration ledger closes exactly in every run:
//!    `scanned == transferred + skipped + resident`, even when a starved
//!    ledger abandons entries mid-flight or the fence evicts them.
//! 3. **Fault tolerance** — dice on the migration wire (drop, duplicate,
//!    pairwise reorder) are healed by the stable-PSN go-back-N transport:
//!    same final bytes, same release.
//! 4. **Query locality** — a released rebalance pins `fanout_lookups` to
//!    zero: every key answers at its routed primary again (a rejoin
//!    *without* a rebalance demonstrably does not).
//! 5. **Membership purity** — the `FAILOVER_SALT` redistribution is a
//!    pure function of the alive-set: event history and epoch bumps
//!    cannot move keys between survivors.
//! 6. **Idempotence and totality** — duplicate Kill/Rejoin signals for
//!    the same collector, out-of-range collector indices, and a kill of
//!    the last survivor are counted no-ops on both collector links.

use dta_collector::{CollectorService, ServiceConfig};
use dta_net::{FaultConfig, NetNode, NodeId, SimTime};
use dta_sim::{
    run_scenario, CollectorPlan, ScenarioOutcome, ScenarioSpec, TranslatorMode, TRANSLATOR_IP,
};
use dta_translator::{
    CollectorRoutingTable, FleetAdmin, FleetConfig, FleetEvent, FleetNode, LinkKind,
};
use proptest::prelude::*;

const BOTH_MODES: [TranslatorMode; 2] =
    [TranslatorMode::SingleThreaded, TranslatorMode::Sharded { shards: 4 }];

/// The rebalance preset (kill 1 of 3 at 12us, rejoin 28us, fence 36us) at
/// a pinned seed.
fn rebalance(mode: TranslatorMode, seed: u64) -> ScenarioSpec {
    ScenarioSpec { seed, ..ScenarioSpec::preset("rebalance", mode) }
}

/// The same deployment and workload with the fault schedule — and with it
/// the rebalance plan — removed.
fn no_fault_twin(spec: &ScenarioSpec) -> ScenarioSpec {
    ScenarioSpec {
        collectors: CollectorPlan { fault: None, ..spec.collectors },
        rebalance: None,
        ..spec.clone()
    }
}

/// Assert the run released and its migration accounting closed.
fn assert_released_and_closed(out: &ScenarioOutcome, ctx: &str) {
    let rb = out.report.rebalance.expect("rebalance stats missing");
    assert_eq!(rb.released, 1, "{ctx}: rebalance never released: {rb:?}");
    assert!(rb.closes(), "{ctx}: migration ledger leaked: {rb:?}");
    assert_eq!(rb.resident, 0, "{ctx}: entries still in flight at finish");
}

#[test]
fn rebalance_restores_per_collector_bytes_to_no_failure_twin() {
    for mode in BOTH_MODES {
        let spec = rebalance(mode, 0x4EBA_0001);
        let twin = no_fault_twin(&spec);
        let a = run_scenario(&spec);
        let b = run_scenario(&twin);
        let rb = a.report.rebalance.expect("rebalance stats missing");
        let f = &a.report.failover;

        // The full epoch sequence ran: kill (1), rejoin (2), fence (3),
        // release (4).
        assert_eq!(f.failovers, 1, "{mode:?}");
        assert_eq!(f.rejoins, 1, "{mode:?}");
        assert_eq!(rb.fence_epoch, 3, "{mode:?}: fence bump out of sequence");
        assert_eq!(rb.release_epoch, 4, "{mode:?}: release bump out of sequence");
        assert_eq!(f.epoch, 4, "{mode:?}");
        assert_released_and_closed(&a, "rebalance run");

        // The migration did real work against real concurrent load: keys
        // were fenced and transferred while reporters were still emitting.
        assert!(rb.scanned > 0, "{mode:?}: nothing was ever fenced");
        assert!(rb.transferred > 0, "{mode:?}: nothing migrated back");
        assert!(rb.kw_fenced > 0 && rb.inc_fenced > 0, "{mode:?}: one primitive idle: {rb:?}");
        assert!(rb.ops_sent > 0 && rb.ops_completed > 0, "{mode:?}");

        // The twin never assembled the machinery.
        assert_eq!(b.report.rebalance, None);
        assert_eq!(b.report.failover.epoch, 0);

        // The tentpole claim: *per-collector* memory — every region,
        // including the CMS counters the failover suite had to exclude —
        // is byte-identical to the run that never had the failure.
        assert_eq!(a.report.sent, b.report.sent, "{mode:?}: twins diverged at the workload");
        assert_eq!(a.report.reports_unsent, 0, "{mode:?}");
        assert_eq!(a.fleet_memory.len(), 3);
        for (c, (got, want)) in a.fleet_memory.iter().zip(&b.fleet_memory).enumerate() {
            assert_eq!(
                got, want,
                "{mode:?}: collector {c} memory != no-failure twin after release"
            );
        }
        assert_eq!(a.memory, b.memory, "{mode:?}: merged memory diverged");

        // Query locality is restored: the audit answers every key at its
        // primary without a single fan-out probe, and agrees with the twin.
        assert_eq!(a.report.queries, b.report.queries, "{mode:?}: audit diverged");
        assert_eq!(
            a.report.queries.fanout_lookups, 0,
            "{mode:?}: a released rebalance left scattered state"
        );
        assert_eq!(a.report.queries.kw_missing, 0, "{mode:?}");
        assert_eq!(a.report.queries.kw_ambiguous, 0, "{mode:?}");
    }
}

#[test]
fn rebalance_runs_are_bit_reproducible_in_both_modes() {
    for mode in BOTH_MODES {
        for seed in [0x4EBA_0002u64, 0x4EBA_0003] {
            let spec = rebalance(mode, seed);
            let a = run_scenario(&spec);
            let b = run_scenario(&spec);
            assert_eq!(a.report, b.report, "{mode:?}/{seed:#x}: report not reproducible");
            assert_eq!(
                a.fleet_memory, b.fleet_memory,
                "{mode:?}/{seed:#x}: per-collector memory not reproducible"
            );
        }
    }
}

/// Satellite: the `fanout_lookups` audit counter measures something real —
/// a rejoin *without* a rebalance leaves keys stranded on the fallback,
/// and the audit has to fan out to find them.
#[test]
fn rejoin_without_rebalance_leaves_fanout_lookups() {
    let mut spec = rebalance(TranslatorMode::SingleThreaded, 0x4EBA_0004);
    spec.rebalance = None;
    let out = run_scenario(&spec);
    assert_eq!(out.report.rebalance, None);
    assert_eq!(out.report.failover.rejoins, 1);
    assert!(
        out.report.queries.fanout_lookups > 0,
        "rejoin-only run answered every key at its primary — the rebalance \
         suite's zero-fanout assertion would be vacuous"
    );
}

/// Starve the migration ledger (2 in-flight entries against a fence of
/// hundreds): entries must be abandoned, counted, and leave the closure
/// identity intact — bounded memory degrades loudly, never silently.
#[test]
fn migration_ledger_eviction_is_accounted_not_silent() {
    for mode in BOTH_MODES {
        let mut spec = rebalance(mode, 0x4EBA_0005);
        spec.rebalance.as_mut().unwrap().driver.ledger_capacity = 2;
        let a = run_scenario(&spec);
        let rb = a.report.rebalance.expect("rebalance stats missing");
        assert!(rb.abandoned > 0, "{mode:?}: starved ledger never abandoned an entry");
        assert!(rb.skipped >= rb.abandoned, "{mode:?}");
        assert_released_and_closed(&a, "starved-ledger run");
        let b = run_scenario(&spec);
        assert_eq!(a.report, b.report, "{mode:?}: starved run not reproducible");
        assert_eq!(a.fleet_memory, b.fleet_memory);
    }
}

/// Same for the fence: a tiny active-entry bound evicts (counted), the
/// deferred live reports behind evicted entries are flushed back into the
/// report path (never dropped), and accounting still closes.
#[test]
fn fence_eviction_is_accounted_not_silent() {
    for mode in BOTH_MODES {
        let mut spec = rebalance(mode, 0x4EBA_0006);
        spec.rebalance.as_mut().unwrap().driver.fence_capacity = 8;
        let a = run_scenario(&spec);
        let rb = a.report.rebalance.expect("rebalance stats missing");
        assert!(rb.fence_evicted > 0, "{mode:?}: tiny fence never evicted");
        assert_released_and_closed(&a, "starved-fence run");
        assert_eq!(a.report.reports_unsent, 0, "{mode:?}");
        let b = run_scenario(&spec);
        assert_eq!(a.report, b.report, "{mode:?}: evicting run not reproducible");
    }
}

/// Dice on the migration wire: drops starve completions until the retry
/// timer refires, duplicates hit the responder's PSN window, reorders
/// trigger NAK-driven go-back-N. The transport must heal all of it — the
/// final per-collector bytes still equal the no-failure twin's.
#[test]
fn migration_path_faults_are_healed_by_retransmission() {
    for mode in BOTH_MODES {
        let mut spec = rebalance(mode, 0x4EBA_0007);
        spec.rebalance.as_mut().unwrap().driver.faults = FaultConfig::unreliable(0.15, 0.10, 0.10);
        let twin = no_fault_twin(&spec);
        let a = run_scenario(&spec);
        let b = run_scenario(&twin);
        let rb = a.report.rebalance.expect("rebalance stats missing");

        // The dice really fired, and the transport really worked for it.
        assert!(rb.injected_drops > 0, "{mode:?}: no drop injected: {rb:?}");
        assert!(rb.injected_dups > 0, "{mode:?}: no duplicate injected");
        assert!(rb.injected_reorders > 0, "{mode:?}: no reorder injected");
        assert!(rb.retransmits > 0, "{mode:?}: faults healed without a single resend?");
        assert_released_and_closed(&a, "faulted-migration run");

        // And none of it is visible in the outcome.
        for (c, (got, want)) in a.fleet_memory.iter().zip(&b.fleet_memory).enumerate() {
            assert_eq!(
                got, want,
                "{mode:?}: collector {c} diverged under migration-path faults"
            );
        }
        assert_eq!(a.report.queries, b.report.queries, "{mode:?}");
        assert_eq!(a.report.queries.fanout_lookups, 0, "{mode:?}");
        let c = run_scenario(&spec);
        assert_eq!(a.report, c.report, "{mode:?}: faulted run not reproducible");
        assert_eq!(a.fleet_memory, c.fleet_memory);
    }
}

/// Satellite: the failover-salt redistribution is a pure function of the
/// alive-set — neither the event history that produced the membership nor
/// epoch bumps (the fence and release use them) can move a key between
/// survivors. If this ever broke, a rebalance would migrate keys to owners
/// the live routing no longer agrees with.
#[test]
fn failover_salt_redistribution_is_pure_function_of_membership() {
    // Two very different histories arriving at the same alive-set
    // {0, 2, 3}: a straight kill, versus a kill/rejoin churn storm.
    let mut direct = CollectorRoutingTable::new(4);
    direct.mark_dead(1);
    let mut churned = CollectorRoutingTable::new(4);
    churned.mark_dead(3);
    churned.mark_dead(1);
    churned.mark_alive(3);
    churned.mark_alive(1);
    churned.mark_dead(1);
    assert_ne!(direct.epoch(), churned.epoch(), "histories should differ in epoch");
    for csum in 0..40_000u32 {
        assert_eq!(
            direct.owner_checksum(csum),
            churned.owner_checksum(csum),
            "owner of {csum:#x} depends on history, not membership"
        );
    }
    // Epoch bumps without membership change (the fence and release bumps)
    // are routing-invariant.
    let before: Vec<u32> = (0..40_000u32).map(|c| direct.owner_checksum(c)).collect();
    direct.bump_epoch();
    direct.bump_epoch();
    let after: Vec<u32> = (0..40_000u32).map(|c| direct.owner_checksum(c)).collect();
    assert_eq!(before, after, "an epoch bump moved keys");
}

fn fleet_services() -> Vec<CollectorService> {
    (0..3).map(|_| CollectorService::new(ServiceConfig::default())).collect()
}

/// A 3-collector fleet node over `kind`, ledger capacity 64, no rebalance.
/// `services` stay with the caller (the RoCE link's responders live there).
fn fleet_node(kind: LinkKind, services: &mut [CollectorService]) -> (FleetNode, FleetAdmin) {
    let mut peers: Vec<(NodeId, u32, &mut CollectorService)> = services
        .iter_mut()
        .enumerate()
        .map(|(c, svc)| (NodeId(100 + c as u32), 0x0A00_0900 + c as u32, svc))
        .collect();
    FleetNode::connect(
        &FleetConfig {
            translator: Default::default(),
            timeout_ns: 8_000,
            min_unacked: 24,
            ledger_capacity: 64,
            rebalance: None,
        },
        kind,
        &mut peers,
    )
}

const BOTH_LINKS: [LinkKind; 2] = [
    LinkKind::Roce { my_id: NodeId(1), my_ip: TRANSLATOR_IP },
    LinkKind::InProcess { my_id: NodeId(1), my_ip: TRANSLATOR_IP, shards: 2 },
];

/// Satellite: duplicate Kill/Rejoin signals for the same collector in the
/// same epoch are idempotent no-ops, visible in `duplicate_events` — on
/// both links, for both kill-class events.
#[test]
fn duplicate_fleet_events_are_noops() {
    let kills: [fn(u32) -> FleetEvent; 2] = [
        |collector| FleetEvent::Teardown { collector },
        |collector| FleetEvent::ForceFailover { collector },
    ];
    for kind in BOTH_LINKS {
        for kill in kills {
            let mut services = fleet_services();
            let (mut node, admin) = fleet_node(kind, &mut services);
            for _ in 0..2 {
                admin.signal(kill(1));
            }
            for _ in 0..2 {
                admin.signal(FleetEvent::Rejoin { collector: 1 });
            }
            let mut out = Vec::new();
            node.tick(SimTime::from_nanos(1_000), &mut out);
            let rep = node.finish();
            let case = format!("{kind:?} / {:?}", kill(1));
            assert_eq!(rep.failover.failovers, 1, "second kill re-fired the failover: {case}");
            assert_eq!(rep.failover.rejoins, 1, "second rejoin re-admitted twice: {case}");
            assert_eq!(rep.failover.duplicate_events, 2, "duplicates must be counted: {case}");
            assert_eq!(rep.table.epoch(), 2, "duplicate events bumped the epoch: {case}");
        }
    }
}

/// Admin events are total: `FleetAdmin::signal` is public and takes any
/// index, so an index outside the fleet (every event variant) and a kill
/// of the last live collector must be counted no-ops — not an unchecked
/// table index or the last-survivor assert — on both links.
#[test]
fn out_of_range_and_last_survivor_events_are_counted_noops() {
    for kind in BOTH_LINKS {
        let mut services = fleet_services();
        let (mut node, admin) = fleet_node(kind, &mut services);
        let mut out = Vec::new();
        for collector in [3, u32::MAX] {
            admin.signal(FleetEvent::Teardown { collector });
            admin.signal(FleetEvent::ForceFailover { collector });
            admin.signal(FleetEvent::Rejoin { collector });
            admin.signal(FleetEvent::Rebalance { collector });
        }
        node.tick(SimTime::from_nanos(1_000), &mut out);
        assert_eq!(node.failover.epoch, 0, "an out-of-range event bumped the epoch: {kind:?}");
        assert_eq!(node.failover.duplicate_events, 8, "{kind:?}");
        // Kill down to one survivor, then try to kill it both ways.
        admin.signal(FleetEvent::Teardown { collector: 0 });
        admin.signal(FleetEvent::ForceFailover { collector: 1 });
        admin.signal(FleetEvent::Teardown { collector: 2 });
        admin.signal(FleetEvent::ForceFailover { collector: 2 });
        node.tick(SimTime::from_nanos(2_000), &mut out);
        let rep = node.finish();
        assert_eq!(rep.table.epoch(), 2, "the last survivor's kill bumped the epoch: {kind:?}");
        assert!(rep.table.is_alive(2), "{kind:?}");
        assert_eq!(rep.failover.failovers, 2, "{kind:?}");
        assert_eq!(rep.failover.detected_teardown + rep.failover.spurious, 2, "{kind:?}");
        assert_eq!(rep.failover.duplicate_events, 10, "{kind:?}");
    }
}

proptest! {
    /// Repatriation is not a property of the pinned timeline: across
    /// random seeds, victims, and kill/rejoin/fence times, the released
    /// fleet's per-collector memory — CMS region included — equals the
    /// same-seed no-failure twin in both translator modes, the migration
    /// accounting closes, the audit needs no fan-out, and the runs are
    /// bit-reproducible.
    #[test]
    fn rebalance_converges_for_any_seed_victim_and_schedule(
        seed in any::<u64>(),
        victim in 0u32..3,
        kill_at in 6_000u64..18_000,
        rejoin_delta in 16_000u64..24_000,
        fence_delta in 2_000u64..10_000,
        sharded in any::<bool>(),
    ) {
        let mode = if sharded {
            TranslatorMode::Sharded { shards: 4 }
        } else {
            TranslatorMode::SingleThreaded
        };
        let mut spec = rebalance(mode, seed);
        {
            let fault = spec.collectors.fault.as_mut().unwrap();
            fault.victim = victim;
            fault.kill_at_ns = kill_at;
            fault.rejoin_at_ns = Some(kill_at + rejoin_delta);
            spec.rebalance.as_mut().unwrap().start_at_ns = kill_at + rejoin_delta + fence_delta;
        }
        let twin = no_fault_twin(&spec);
        let a = run_scenario(&spec);
        let b = run_scenario(&twin);
        let rb = a.report.rebalance.expect("rebalance stats missing");
        prop_assert_eq!(rb.released, 1, "never released: {:?}", rb);
        prop_assert!(rb.closes(), "migration accounting leaked: {:?}", rb);
        prop_assert_eq!(a.report.failover.rejoins, 1);
        prop_assert!(
            a.fleet_memory == b.fleet_memory,
            "per-collector memory != no-failure twin"
        );
        prop_assert_eq!(&a.report.queries, &b.report.queries, "audit diverged");
        prop_assert_eq!(a.report.queries.fanout_lookups, 0u64);
        let c = run_scenario(&spec);
        prop_assert!(a.fleet_memory == c.fleet_memory, "run not reproducible");
        prop_assert_eq!(&a.report, &c.report);
    }
}
