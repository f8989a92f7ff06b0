//! Engine-rewrite equivalence goldens.
//!
//! These fingerprints were captured from the pre-arena (HashMap +
//! BinaryHeap) `dta-net` engine on the seed commit of PR 4, *before* the
//! dense-arena / timing-wheel rewrite. The rewrite must be behaviour-
//! preserving bit for bit: same event order (the wheel pops in the exact
//! `(time, seq)` order the heap did), same fault RNG draws, same stats.
//! A drift in any counter, query outcome, or collector byte fails here.
//!
//! If a *deliberate* behaviour change ever invalidates these, re-capture
//! with `cargo run --release -p dta-bench --example golden_capture` and
//! say so in the commit message.
//!
//! Schema note: when `ScenarioReport` gains a field, the Debug strings
//! here must be re-rendered — but every pre-existing counter value and
//! both memory fingerprints must stay identical (PR 5 added the all-zero
//! `reporter: RetxStats` block this way; congestion is opt-in and the
//! default `CongestionPlan` is a no-op. PR 6 likewise added the all-zero
//! `failover: FailoverStats` block; a single-collector run never touches
//! the fleet path). PR 7 added the `duplicate_events` counter, the
//! `rebalance: None` report section, and the `fanout_lookups` query
//! counter, all inert without a `RebalancePlan`. PR 8 added the
//! `query: None` report section — inert without a `QueryPlan`, and the
//! query stream reads per-epoch snapshots so even an enabled plan never
//! perturbs collector memory.
//!
//! The four `fleet_*` goldens were captured on the last commit that still
//! had two fleet nodes (one RoCE, one in-process), before they were folded
//! into the one `FleetNode`: besides the report and the merged memory they
//! pin every collector's *unmerged* memory, so a counter or an emission
//! order that moved identically in both modes — invisible to the
//! twin-vs-twin suites — fails here.

use dta_sim::{memory_fingerprint, run_scenario, FaultPlan, ScenarioSpec, TranslatorMode};

/// Seed shared by the four fleet goldens.
const FLEET_SEED: u64 = 0xD7A0_0004;

fn assert_fleet_golden(preset: ScenarioSpec, report: &str, memory: u64, fleet_memory: &[u64]) {
    let out = run_scenario(&ScenarioSpec { seed: FLEET_SEED, ..preset });
    assert_eq!(format!("{:?}", out.report), report);
    assert_eq!(memory_fingerprint(&out.memory), memory);
    let fleet: Vec<u64> = out.fleet_memory.iter().map(|m| memory_fingerprint(m)).collect();
    assert_eq!(fleet, fleet_memory);
}

#[test]
fn k4_single_clean_matches_pre_rewrite_engine() {
    let spec = ScenarioSpec { seed: 0xD7A0_0001, ..ScenarioSpec::preset("smoke", TranslatorMode::SingleThreaded) };
    let out = run_scenario(&spec);
    assert_eq!(
        format!("{:?}", out.report),
        "ScenarioReport { sent: PrimitiveCounts { key_write: 96, append: 74, key_increment: 46, postcard: 200 }, reports_unsent: 0, net: NetworkStats { delivered: 336, forwarded: 1232, dropped: 0, intercepted: 416 }, faults: FaultTotals { dropped: 0, corrupted: 0, reordered: 0, duplicated: 0 }, links: LinkStats { enqueued: 1984, dropped: 0, transmitted: 1984, bytes_tx: 143758, pauses: 0 }, translator: TranslatorStats { reports_in: 416, rdma_out: 332, rate_limited: 0, nacks_sent: 0, no_service: 0, resyncs: 0 }, translator_node: TranslatorNodeStats { dta_in: 416, malformed: 0, forwarded: 0, roce_responses: 4 }, reporter: RetxStats { nacks_received: 0, stray_received: 0, retransmitted: 0, retries_exhausted: 0, nacks_unmatched: 0 }, per_shard_reports_in: [], executed: 332, collector: CollectorNodeStats { executed: 332, naks: 0, dropped: 0 }, failover: FailoverStats { failovers: 0, spurious: 0, rejoins: 0, detected_timeout: 0, detected_teardown: 0, cm_disconnects: 0, rerouted: 0, replayed: 0, replayed_acked: 0, nak_replayed: 0, ledger_recorded: 0, ledger_evicted: 0, ledger_resident: 0, epoch: 0, duplicate_events: 0 }, rebalance: None, queries: QueryOutcomes { kw_found: 78, kw_ambiguous: 0, kw_missing: 0, pc_found: 40, pc_missing: 0, append_entries: 74, inc_estimate_total: 2562, fanout_lookups: 0 }, query: None }",
    );
    assert_eq!(memory_fingerprint(&out.memory), 0x62df9f446c793788);
}

#[test]
fn k4_single_faulted_matches_pre_rewrite_engine() {
    let spec = ScenarioSpec {
        faults: FaultPlan::unreliable_report_path(0.1, 0.1, 0.1),
        reporters: 8,
        ops_per_reporter: 16,
        seed: 0xD7A0_0002,
        ..ScenarioSpec::preset("smoke", TranslatorMode::SingleThreaded)
    };
    let out = run_scenario(&spec);
    assert_eq!(
        format!("{:?}", out.report),
        "ScenarioReport { sent: PrimitiveCounts { key_write: 52, append: 29, key_increment: 30, postcard: 85 }, reports_unsent: 0, net: NetworkStats { delivered: 191, forwarded: 639, dropped: 91, intercepted: 203 }, faults: FaultTotals { dropped: 91, corrupted: 0, reordered: 56, duplicated: 98 }, links: LinkStats { enqueued: 1033, dropped: 0, transmitted: 1033, bytes_tx: 75532, pauses: 0 }, translator: TranslatorStats { reports_in: 203, rdma_out: 190, rate_limited: 0, nacks_sent: 0, no_service: 0, resyncs: 0 }, translator_node: TranslatorNodeStats { dta_in: 203, malformed: 0, forwarded: 0, roce_responses: 1 }, reporter: RetxStats { nacks_received: 0, stray_received: 0, retransmitted: 0, retries_exhausted: 0, nacks_unmatched: 0 }, per_shard_reports_in: [], executed: 190, collector: CollectorNodeStats { executed: 190, naks: 0, dropped: 0 }, failover: FailoverStats { failovers: 0, spurious: 0, rejoins: 0, detected_timeout: 0, detected_teardown: 0, cm_disconnects: 0, rerouted: 0, replayed: 0, replayed_acked: 0, nak_replayed: 0, ledger_recorded: 0, ledger_evicted: 0, ledger_resident: 0, epoch: 0, duplicate_events: 0 }, rebalance: None, queries: QueryOutcomes { kw_found: 35, kw_ambiguous: 0, kw_missing: 12, pc_found: 3, pc_missing: 14, append_entries: 28, inc_estimate_total: 1262, fanout_lookups: 0 }, query: None }",
    );
    assert_eq!(memory_fingerprint(&out.memory), 0x09ae0fbf4d99061b);
}

#[test]
fn k4_sharded_clean_matches_pre_rewrite_engine() {
    let spec = ScenarioSpec { seed: 0xD7A0_0003, ..ScenarioSpec::preset("smoke", TranslatorMode::Sharded { shards: 4 }) };
    let out = run_scenario(&spec);
    assert_eq!(
        format!("{:?}", out.report),
        "ScenarioReport { sent: PrimitiveCounts { key_write: 100, append: 50, key_increment: 56, postcard: 250 }, reports_unsent: 0, net: NetworkStats { delivered: 0, forwarded: 1336, dropped: 0, intercepted: 456 }, faults: FaultTotals { dropped: 0, corrupted: 0, reordered: 0, duplicated: 0 }, links: LinkStats { enqueued: 1792, dropped: 0, transmitted: 1792, bytes_tx: 126502, pauses: 0 }, translator: TranslatorStats { reports_in: 456, rdma_out: 370, rate_limited: 0, nacks_sent: 0, no_service: 0, resyncs: 0 }, translator_node: TranslatorNodeStats { dta_in: 456, malformed: 0, forwarded: 0, roce_responses: 0 }, reporter: RetxStats { nacks_received: 0, stray_received: 0, retransmitted: 0, retries_exhausted: 0, nacks_unmatched: 0 }, per_shard_reports_in: [118, 133, 114, 91], executed: 370, collector: CollectorNodeStats { executed: 0, naks: 0, dropped: 0 }, failover: FailoverStats { failovers: 0, spurious: 0, rejoins: 0, detected_timeout: 0, detected_teardown: 0, cm_disconnects: 0, rerouted: 0, replayed: 0, replayed_acked: 0, nak_replayed: 0, ledger_recorded: 0, ledger_evicted: 0, ledger_resident: 0, epoch: 0, duplicate_events: 0 }, rebalance: None, queries: QueryOutcomes { kw_found: 83, kw_ambiguous: 0, kw_missing: 0, pc_found: 50, pc_missing: 0, append_entries: 50, inc_estimate_total: 2667, fanout_lookups: 0 }, query: None }",
    );
    assert_eq!(memory_fingerprint(&out.memory), 0x8fe9eef3464d3564);
}

#[test]
fn fleet_failover_single_matches_two_node_fleet() {
    assert_fleet_golden(
        ScenarioSpec::preset("failover", TranslatorMode::SingleThreaded),
        "ScenarioReport { sent: PrimitiveCounts { key_write: 188, append: 0, key_increment: 196, postcard: 0 }, reports_unsent: 0, net: NetworkStats { delivered: 916, forwarded: 2334, dropped: 136, intercepted: 384 }, faults: FaultTotals { dropped: 0, corrupted: 0, reordered: 0, duplicated: 0 }, links: LinkStats { enqueued: 3770, dropped: 0, transmitted: 3770, bytes_tx: 291540, pauses: 0 }, translator: TranslatorStats { reports_in: 476, rdma_out: 952, rate_limited: 0, nacks_sent: 0, no_service: 0, resyncs: 0 }, translator_node: TranslatorNodeStats { dta_in: 384, malformed: 0, forwarded: 0, roce_responses: 100 }, reporter: RetxStats { nacks_received: 0, stray_received: 0, retransmitted: 0, retries_exhausted: 0, nacks_unmatched: 0 }, per_shard_reports_in: [], executed: 816, collector: CollectorNodeStats { executed: 816, naks: 0, dropped: 0 }, failover: FailoverStats { failovers: 1, spurious: 0, rejoins: 0, detected_timeout: 1, detected_teardown: 0, cm_disconnects: 4, rerouted: 42, replayed: 92, replayed_acked: 20, nak_replayed: 0, ledger_recorded: 476, ledger_evicted: 0, ledger_resident: 384, epoch: 1, duplicate_events: 0 }, rebalance: None, queries: QueryOutcomes { kw_found: 188, kw_ambiguous: 0, kw_missing: 0, pc_found: 0, pc_missing: 0, append_entries: 0, inc_estimate_total: 9659, fanout_lookups: 0 }, query: None }",
        0x7bba398b4230cd9d,
        &[0xd9f243decf890731, 0x8a942d130766d301, 0x3f9ab708c2ee3145],
    );
}

#[test]
fn fleet_failover_sharded_matches_two_node_fleet() {
    assert_fleet_golden(
        ScenarioSpec::preset("failover", TranslatorMode::Sharded { shards: 4 }),
        "ScenarioReport { sent: PrimitiveCounts { key_write: 188, append: 0, key_increment: 196, postcard: 0 }, reports_unsent: 0, net: NetworkStats { delivered: 0, forwarded: 1440, dropped: 0, intercepted: 384 }, faults: FaultTotals { dropped: 0, corrupted: 0, reordered: 0, duplicated: 0 }, links: LinkStats { enqueued: 1824, dropped: 0, transmitted: 1824, bytes_tx: 133216, pauses: 0 }, translator: TranslatorStats { reports_in: 428, rdma_out: 856, rate_limited: 0, nacks_sent: 0, no_service: 0, resyncs: 0 }, translator_node: TranslatorNodeStats { dta_in: 384, malformed: 0, forwarded: 0, roce_responses: 0 }, reporter: RetxStats { nacks_received: 0, stray_received: 0, retransmitted: 0, retries_exhausted: 0, nacks_unmatched: 0 }, per_shard_reports_in: [44, 40, 59, 42, 16, 8, 9, 11, 41, 59, 47, 52], executed: 856, collector: CollectorNodeStats { executed: 0, naks: 0, dropped: 0 }, failover: FailoverStats { failovers: 1, spurious: 0, rejoins: 0, detected_timeout: 0, detected_teardown: 1, cm_disconnects: 1, rerouted: 90, replayed: 44, replayed_acked: 44, nak_replayed: 0, ledger_recorded: 428, ledger_evicted: 0, ledger_resident: 384, epoch: 1, duplicate_events: 0 }, rebalance: None, queries: QueryOutcomes { kw_found: 188, kw_ambiguous: 0, kw_missing: 0, pc_found: 0, pc_missing: 0, append_entries: 0, inc_estimate_total: 9659, fanout_lookups: 0 }, query: None }",
        0x7bba398b4230cd9d,
        &[0xd9f243decf890731, 0xf292f4310ea1bf91, 0x3f9ab708c2ee3145],
    );
}

#[test]
fn fleet_rebalance_single_matches_two_node_fleet() {
    assert_fleet_golden(
        ScenarioSpec::preset("rebalance", TranslatorMode::SingleThreaded),
        "ScenarioReport { sent: PrimitiveCounts { key_write: 386, append: 0, key_increment: 382, postcard: 0 }, reports_unsent: 0, net: NetworkStats { delivered: 2720, forwarded: 4834, dropped: 144, intercepted: 768 }, faults: FaultTotals { dropped: 0, corrupted: 0, reordered: 0, duplicated: 0 }, links: LinkStats { enqueued: 8466, dropped: 0, transmitted: 8466, bytes_tx: 642908, pauses: 0 }, translator: TranslatorStats { reports_in: 941, rdma_out: 1882, rate_limited: 0, nacks_sent: 0, no_service: 0, resyncs: 2 }, translator_node: TranslatorNodeStats { dta_in: 768, malformed: 0, forwarded: 0, roce_responses: 615 }, reporter: RetxStats { nacks_received: 0, stray_received: 0, retransmitted: 0, retries_exhausted: 0, nacks_unmatched: 0 }, per_shard_reports_in: [], executed: 2067, collector: CollectorNodeStats { executed: 2067, naks: 38, dropped: 0 }, failover: FailoverStats { failovers: 1, spurious: 0, rejoins: 1, detected_timeout: 1, detected_teardown: 0, cm_disconnects: 4, rerouted: 42, replayed: 93, replayed_acked: 16, nak_replayed: 19, ledger_recorded: 941, ledger_evicted: 0, ledger_resident: 829, epoch: 4, duplicate_events: 0 }, rebalance: Some(RebalanceStats { scanned: 84, transferred: 84, skipped: 0, resident: 0, fence_evicted: 0, skipped_empty: 0, skipped_mismatch: 0, abandoned: 0, kw_fenced: 61, inc_fenced: 23, armed: 23, deferred: 17, deferred_flushed: 17, double_writes: 0, replays: 61, transfer_adds: 46, ops_sent: 367, ops_completed: 367, retransmits: 0, injected_drops: 0, injected_dups: 0, injected_reorders: 0, naks: 0, fence_epoch: 3, release_epoch: 4, released: 1 }), queries: QueryOutcomes { kw_found: 386, kw_ambiguous: 0, kw_missing: 0, pc_found: 0, pc_missing: 0, append_entries: 0, inc_estimate_total: 20034, fanout_lookups: 0 }, query: None }",
        0x9336a6210d4b8371,
        &[0x0b6aa96124886c5d, 0x7140a1b660bd7ab9, 0x882e1feadcb68605],
    );
}

#[test]
fn fleet_rebalance_sharded_matches_two_node_fleet() {
    assert_fleet_golden(
        ScenarioSpec::preset("rebalance", TranslatorMode::Sharded { shards: 4 }),
        "ScenarioReport { sent: PrimitiveCounts { key_write: 386, append: 0, key_increment: 382, postcard: 0 }, reports_unsent: 0, net: NetworkStats { delivered: 0, forwarded: 2880, dropped: 0, intercepted: 768 }, faults: FaultTotals { dropped: 0, corrupted: 0, reordered: 0, duplicated: 0 }, links: LinkStats { enqueued: 3648, dropped: 0, transmitted: 3648, bytes_tx: 266224, pauses: 0 }, translator: TranslatorStats { reports_in: 872, rdma_out: 1744, rate_limited: 0, nacks_sent: 0, no_service: 0, resyncs: 0 }, translator_node: TranslatorNodeStats { dta_in: 768, malformed: 0, forwarded: 0, roce_responses: 0 }, reporter: RetxStats { nacks_received: 0, stray_received: 0, retransmitted: 0, retries_exhausted: 0, nacks_unmatched: 0 }, per_shard_reports_in: [89, 66, 76, 79, 79, 45, 52, 66, 69, 93, 76, 82], executed: 1744, collector: CollectorNodeStats { executed: 0, naks: 0, dropped: 0 }, failover: FailoverStats { failovers: 1, spurious: 0, rejoins: 1, detected_timeout: 0, detected_teardown: 1, cm_disconnects: 1, rerouted: 92, replayed: 43, replayed_acked: 43, nak_replayed: 0, ledger_recorded: 872, ledger_evicted: 0, ledger_resident: 829, epoch: 4, duplicate_events: 0 }, rebalance: Some(RebalanceStats { scanned: 84, transferred: 84, skipped: 0, resident: 0, fence_evicted: 0, skipped_empty: 0, skipped_mismatch: 0, abandoned: 0, kw_fenced: 61, inc_fenced: 23, armed: 23, deferred: 5, deferred_flushed: 5, double_writes: 0, replays: 61, transfer_adds: 44, ops_sent: 365, ops_completed: 365, retransmits: 0, injected_drops: 0, injected_dups: 0, injected_reorders: 0, naks: 0, fence_epoch: 3, release_epoch: 4, released: 1 }), queries: QueryOutcomes { kw_found: 386, kw_ambiguous: 0, kw_missing: 0, pc_found: 0, pc_missing: 0, append_entries: 0, inc_estimate_total: 20034, fanout_lookups: 0 }, query: None }",
        0x9336a6210d4b8371,
        &[0x0b6aa96124886c5d, 0x7140a1b660bd7ab9, 0x882e1feadcb68605],
    );
}
