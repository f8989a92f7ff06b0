//! Scenario assembly, execution, and reporting.
//!
//! [`run_scenario`] turns a [`ScenarioSpec`] into a concrete deployment —
//! a k-ary fat tree with a reporter fleet on its hosts, per-link fault
//! injectors, a translator (single-threaded or sharded) intercepting at
//! the collector's ToR, and the collector host terminating RoCE — drives
//! it to completion on the simulated clock, and returns a
//! [`ScenarioReport`] plus a byte snapshot of collector memory.
//!
//! Determinism contract: the simulation engine processes events in
//! (time, insertion) order, every injector is seeded from the scenario
//! seed and the link it guards, and the report only contains quantities
//! that are functions of the spec (thread-scheduling artifacts of the
//! sharded pipeline, like backpressure yield counts, are deliberately
//! excluded). Same spec ⇒ same report, same memory, bit for bit — with
//! one precondition in sharded mode: distinct keys whose store slots
//! collide race their writes across shard threads, so byte-level
//! determinism of memory (and the queries derived from it) additionally
//! requires [`crate::TrafficMix::slot_disjoint_keys`]. Single-threaded
//! runs are unconditional.

use dta_collector::{
    CollectorNode, CollectorNodeStats, CollectorService, PostcardQueryOutcome, QueryEngine,
    QueryOutcome, QueryPolicy, QueryRequest, QueryResult, StoreQueryEngine,
};
use dta_net::{
    splitmix64, FatTree, FaultInjector, LinkConfig, LinkStats, FaultTotals, NetNode, Network,
    NetworkStats, NodeId, SimTime,
};
use dta_rdma::mr::SnapshotBuf;
use dta_reporter::{Reporter, ReporterConfig, ReporterFleetNode, RetxStats};
use dta_translator::node::TranslatorNodeStats;
use dta_translator::{
    FailoverStats, FleetConfig, FleetEvent, FleetNode, FleetQueryEngine, LinkKind,
    RebalanceStats, TranslatorStats,
};

use crate::query::{CollectorReaders, QueryService, QueryStats};
use crate::spec::{ScenarioSpec, TranslatorMode};
use crate::traffic::{generate, PrimitiveCounts, Workload};

/// The collector host's IP in every scenario.
pub const COLLECTOR_IP: u32 = 0x0A00_0900;
/// The translator ToR's IP.
pub const TRANSLATOR_IP: u32 = 0x0A00_0001;

/// Collector query results audited against the workload ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOutcomes {
    /// Key-Write keys that queried back a value.
    pub kw_found: u64,
    /// Key-Write keys whose redundancy slots disagreed.
    pub kw_ambiguous: u64,
    /// Key-Write keys with no surviving slot (e.g., every copy lost).
    pub kw_missing: u64,
    /// Postcard flows whose path queried back.
    pub pc_found: u64,
    /// Postcard flows that did not decode.
    pub pc_missing: u64,
    /// Append entries present in collector memory (non-zero payload among
    /// the first `sent` entries of each list).
    pub append_entries: u64,
    /// Sum of Key-Increment estimates over the used keys (a CMS-style
    /// overestimate of the delivered delta total).
    pub inc_estimate_total: u64,
    /// Key-Write point lookups that had to probe a collector *other* than
    /// the key's routed owner (fleet audits fan out on an owner miss; see
    /// [`run_scenario`]'s audit). A completed rebalance repatriates every
    /// key to its primary, so a post-release audit pins this to zero.
    pub fanout_lookups: u64,
}

/// Everything a scenario run measured. Bit-reproducible for a given spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioReport {
    /// Report packets framed by the fleet, per primitive.
    pub sent: PrimitiveCounts,
    /// Reports still unsent when the run's deadline passed (0 for a
    /// correctly sized spec).
    pub reports_unsent: u64,
    /// Simulation engine counters (delivered / forwarded / dropped /
    /// intercepted).
    pub net: NetworkStats,
    /// Aggregated fault-injector counters across every faulted link.
    pub faults: FaultTotals,
    /// Aggregated link counters across the whole fabric.
    pub links: LinkStats,
    /// Translator dataplane counters (merged across shards in sharded
    /// mode).
    pub translator: TranslatorStats,
    /// Translator node counters (reports decoded, malformed, forwarded).
    pub translator_node: TranslatorNodeStats,
    /// Reporter-side congestion-loop counters, aggregated over the fleet
    /// (NACKs received/answered, stray deliveries, retransmissions).
    pub reporter: RetxStats,
    /// Reports each shard translated (empty in single-threaded mode).
    pub per_shard_reports_in: Vec<u64>,
    /// RDMA verbs executed against collector memory (collector NIC in
    /// single-threaded mode, shard endpoints in sharded mode).
    pub executed: u64,
    /// Collector node counters (RoCE over the simulated wire only; summed
    /// across the fleet when `collectors.count > 1`).
    pub collector: CollectorNodeStats,
    /// Collector-failover counters (all zero for single-collector runs).
    pub failover: FailoverStats,
    /// Rebalance migration counters (`None` unless the spec scheduled a
    /// [`crate::RebalancePlan`]).
    pub rebalance: Option<RebalanceStats>,
    /// Post-run query audit (routed by the final collector table in fleet
    /// runs).
    pub queries: QueryOutcomes,
    /// Online query-stream measurements (`None` unless the spec carries a
    /// [`crate::QueryPlan`]).
    pub query: Option<QueryStats>,
}

/// A finished run: the report plus the collector's raw region bytes
/// (rkey-sorted), for memory-equivalence comparisons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Counters and query audit.
    pub report: ScenarioReport,
    /// `(rkey, bytes)` of every registered collector region. The byte
    /// images live in pooled [`SnapshotBuf`]s (deref to `&[u8]`). For a
    /// fleet run this is the *merged* view — the byte-wise OR of every
    /// collector the final routing table considers alive, which (under the
    /// fleet preconditions: write-once KW, slot-disjoint pools) equals a
    /// union of the fleet's writes and is comparable byte-for-byte against
    /// another run's merged view.
    pub memory: Vec<(u32, SnapshotBuf)>,
    /// Per-collector unmerged snapshots, fleet order (empty unless
    /// `collectors.count > 1`).
    pub fleet_memory: Vec<Vec<(u32, SnapshotBuf)>>,
}

/// FNV-1a fingerprint of a [`ScenarioOutcome::memory`] snapshot, mixing
/// each region's rkey ahead of its bytes. The engine-golden tests and the
/// `golden_capture` bench example share this one definition, so a
/// re-captured golden always matches what the test recomputes.
pub fn memory_fingerprint(memory: &[(u32, SnapshotBuf)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let fnv1a = |bytes: &[u8]| {
        let mut h = OFFSET;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    };
    let mut hash = OFFSET;
    for (rkey, bytes) in memory {
        hash ^= *rkey as u64;
        hash = hash.wrapping_mul(PRIME);
        hash ^= fnv1a(bytes);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The injector seed of the link `from → to`, mixed off the scenario seed.
fn link_seed(seed: u64, from: NodeId, to: NodeId) -> u64 {
    splitmix64(&mut (seed ^ ((from.0 as u64) << 32 | to.0 as u64)))
}

/// Build, run, audit. See the module docs for the determinism contract.
///
/// # Panics
/// Panics if the spec fails [`ScenarioSpec::validate`].
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioOutcome {
    spec.validate().unwrap_or_else(|e| panic!("invalid scenario spec: {e}"));
    let mut workload = generate(spec);

    // --- Fabric -----------------------------------------------------------
    let ft = FatTree::new(spec.fat_tree_k);
    let tor = ft.edge(0, 0);
    let num_switches = ft.num_switches();
    let half = spec.fat_tree_k / 2;
    // Collector sites: the first `count` hosts in deterministic
    // (pod, edge, host) order — site 0 is always `host(0, 0, 0)`, the
    // collector every existing single-collector scenario uses. Reports
    // stay addressed to site 0 regardless of fleet size (the ToR
    // translator intercepts them before the last hop), so the reporter
    // path is identical in fleet and single runs.
    let fleet_size = spec.collectors.count.max(1) as usize;
    let fleet = fleet_size > 1;
    let mut collector_sites = Vec::with_capacity(fleet_size); // (host, its edge)
    'sites: for pod in 0..spec.fat_tree_k {
        for e in 0..half {
            for h in 0..half {
                collector_sites.push((ft.host(pod, e, h), ft.edge(pod, e)));
                if collector_sites.len() == fleet_size {
                    break 'sites;
                }
            }
        }
    }
    let collector_host = collector_sites[0].0;
    let mut net = Network::new(ft.topology.shortest_path_routing());
    for (a, b) in ft.topology.edges() {
        net.add_duplex_link(a, b, LinkConfig::dc_100g());
    }
    // The intra-rack RoCE hop is PFC-lossless (§4/§7) by default:
    // congestion must never silently drop RDMA traffic the way a lossy
    // report link may. Congestion scenarios may substitute a tighter (or
    // deliberately lossy) class via the plan. Every collector's last hop
    // gets the RoCE link class.
    for &(host, edge) in &collector_sites {
        net.add_duplex_link(edge, host, spec.congestion.rdma_link);
    }

    // --- Reporter fleet ---------------------------------------------------
    // Deterministic (pod, edge, host) placement, skipping the collectors:
    // reporter `r` lands on host `r % hosts_used` as lane `r / hosts_used`
    // (so a fleet no larger than the host count gets one lane per host,
    // exactly the pre-lane layout).
    let mut placements = Vec::new(); // (host, its edge switch)
    'outer: for pod in 0..spec.fat_tree_k {
        for e in 0..half {
            for h in 0..half {
                let host = ft.host(pod, e, h);
                if collector_sites.iter().any(|&(c, _)| c == host) {
                    continue;
                }
                placements.push((host, ft.edge(pod, e)));
                if placements.len() == spec.reporters as usize {
                    break 'outer;
                }
            }
        }
    }
    let hosts_used = placements.len();

    // --- Faults -----------------------------------------------------------
    if !spec.faults.report_uplinks.is_none() {
        for &(host, edge) in &placements {
            net.add_faults(
                host,
                edge,
                FaultInjector::new(spec.faults.report_uplinks, link_seed(spec.seed, host, edge)),
            );
        }
    }
    if !spec.faults.fabric.is_none() {
        for (a, b) in ft.topology.edges() {
            if a.0 < num_switches && b.0 < num_switches {
                for (from, to) in [(a, b), (b, a)] {
                    net.add_faults(
                        from,
                        to,
                        FaultInjector::new(spec.faults.fabric, link_seed(spec.seed, from, to)),
                    );
                }
            }
        }
    }
    if !spec.faults.rdma_hop.is_none() {
        net.add_faults(
            tor,
            collector_host,
            FaultInjector::new(spec.faults.rdma_hop, link_seed(spec.seed, tor, collector_host)),
        );
    }

    // --- Collectors + translator -----------------------------------------
    // The congestion plan's rate limiter overlays the translator sizing
    // (both modes; the sharded pipeline divides the budget across shards).
    let translator_config = {
        let mut c = spec.translator.clone();
        if let Some(limit) = spec.congestion.rate_limit {
            c.rate_limit = Some(limit);
        }
        c
    };
    let mut services: Vec<CollectorService> =
        (0..fleet_size).map(|_| CollectorService::new(spec.service.clone())).collect();
    let mut peers: Vec<(NodeId, u32, &mut CollectorService)> = services
        .iter_mut()
        .enumerate()
        .map(|(c, svc)| (collector_sites[c].0, COLLECTOR_IP + c as u32, svc))
        .collect();
    // The migration path has a fault injector of its own (there is no
    // simulated link between the fence and the fallback's memory), so it
    // gets a domain-separated seed off the scenario seed.
    let rebalance_cfg =
        spec.rebalance.map(|rb| (rb.driver, splitmix64(&mut (spec.seed ^ 0x5EBA_1A4C))));
    // The translator mode picks the link the ToR node's RDMA rides on;
    // nothing inside the node branches on the mode again.
    let sharded_tor = matches!(spec.mode, TranslatorMode::Sharded { .. });
    let link = match spec.mode {
        TranslatorMode::Sharded { shards } => {
            LinkKind::InProcess { my_id: tor, my_ip: TRANSLATOR_IP, shards }
        }
        TranslatorMode::SingleThreaded => LinkKind::Roce { my_id: tor, my_ip: TRANSLATOR_IP },
    };
    let (node, admin) = FleetNode::connect(
        &FleetConfig {
            translator: translator_config,
            timeout_ns: spec.collectors.timeout_ns,
            min_unacked: spec.collectors.min_unacked,
            ledger_capacity: spec.collectors.ledger_capacity,
            rebalance: rebalance_cfg,
        },
        link,
        &mut peers,
    );
    net.add_interceptor(tor, Box::new(node));
    drop(peers);
    // Periodic ToR ticks. A fleet needs them for admin-event consumption,
    // completion-timeout detection and endpoint flushes; a single
    // in-process collector needs them to emit the NACKs for worker-side
    // rate-limit drops (each tick barriers on the shard queues, so the
    // drained set is deterministic). A single RoCE collector NACKs inline
    // and gets one flush, below: a periodic one would early-flush
    // Postcarding cache rows.
    if fleet || (sharded_tor && spec.congestion.nack_on_drop) {
        net.add_tick(tor, spec.tick_ns);
    }
    // Reader clones for the online query service, captured before the
    // services move into their network nodes.
    let query_readers: Vec<CollectorReaders> = if spec.query.is_some() {
        services
            .iter()
            .map(|svc| CollectorReaders::from_service(svc, spec.service.max_redundancy))
            .collect()
    } else {
        Vec::new()
    };
    for (c, svc) in services.into_iter().enumerate() {
        let (host, _) = collector_sites[c];
        net.add_node(host, Box::new(CollectorNode::new(svc, host, COLLECTOR_IP + c as u32)));
    }

    // --- Fleet nodes and pacing ------------------------------------------
    let mut max_ticks = 0u64;
    let mut fleet_nodes: Vec<ReporterFleetNode> = (0..hosts_used)
        .map(|_| {
            let mut node = ReporterFleetNode::new(spec.reports_per_tick);
            if let Some(policy) = spec.congestion.retransmit {
                node.set_retransmit(policy);
            }
            node
        })
        .collect();
    // Each stream moves into its lane; the audit below needs only the
    // workload's ledger.
    for (r, stream) in std::mem::take(&mut workload.streams).into_iter().enumerate() {
        let (host, _) = placements[r % hosts_used];
        let lane = (r / hosts_used) as u32;
        max_ticks =
            max_ticks.max(ReporterFleetNode::ticks_to_drain(stream.len(), spec.reports_per_tick));
        let reporter = Reporter::new(ReporterConfig {
            my_id: host,
            // Lane 0 keeps the historical per-host IP; co-located lanes
            // get a distinct second octet so every reporter has its own
            // source address.
            my_ip: 0x0A02_0000 + (lane << 16) + host.0,
            collector_id: collector_host,
            collector_ip: COLLECTOR_IP,
            src_port: 5000,
        });
        fleet_nodes[r % hosts_used].add_lane(reporter, stream);
    }
    for (node, &(host, _)) in fleet_nodes.into_iter().zip(&placements) {
        net.add_node(host, Box::new(node));
        net.add_tick(host, spec.tick_ns);
    }

    // --- Run on the simulated clock ---------------------------------------
    let emit_end = spec.tick_ns * (max_ticks + 1);
    let flush_at = emit_end + spec.drain_ns;
    if !sharded_tor && !fleet {
        // One translator flush inside the run (postcard cache rows, partial
        // append batches): the first tick of this series fires at
        // `flush_at`, the second lands past the deadline. The in-process
        // link instead flushes at shutdown, below; a fleet flushes on its
        // periodic ticks.
        net.add_tick(tor, flush_at);
    }
    let deadline = flush_at + spec.drain_ns;
    // Fleet fault schedule: run up to the kill time, take the victim off
    // the fabric (or, for a spurious failover, just slander it to the
    // translator), optionally re-seat it at the rejoin time, then run out
    // the clock. Packets addressed to a removed node are dropped by the
    // engine — exactly a fail-stop host.
    let mut parked_victim: Option<(NodeId, Box<dyn NetNode>)> = None;
    if let Some(f) = spec.collectors.fault {
        let victim_host = collector_sites[f.victim as usize].0;
        net.run_until(SimTime::from_nanos(f.kill_at_ns.min(deadline)));
        if f.spurious {
            admin.signal(FleetEvent::ForceFailover { collector: f.victim });
        } else {
            let boxed = net.remove_node(victim_host).expect("victim collector node");
            if sharded_tor {
                // The sharded pipelines execute RDMA in-process, so there is
                // no wire-level completion loop to time out on: the CM
                // teardown stands in for fail-stop detection.
                admin.signal(FleetEvent::Teardown { collector: f.victim });
            }
            parked_victim = Some((victim_host, boxed));
        }
        if let Some(rejoin_at) = f.rejoin_at_ns {
            net.run_until(SimTime::from_nanos(rejoin_at.min(deadline)));
            if let Some((host, boxed)) = parked_victim.take() {
                net.add_node(host, boxed);
            }
            admin.signal(FleetEvent::Rejoin { collector: f.victim });
        }
        if let Some(rb) = &spec.rebalance {
            // Fence up: the rejoined victim starts reclaiming its key
            // range while emission is still live.
            net.run_until(SimTime::from_nanos(rb.start_at_ns.min(deadline)));
            admin.signal(FleetEvent::Rebalance { collector: f.victim });
        }
    }
    // Online query service: pause at every epoch boundary inside the
    // plan's window, quiesce the sharded pipeline (so the snapshot is a
    // pure function of the delivered stream, not worker scheduling), and
    // serve the epoch's query stream against per-epoch snapshot images.
    // Query plans exclude collector faults, so this never interleaves
    // with the fault schedule above.
    let mut query_service = spec.query.map(|_| QueryService::new(spec, &workload, query_readers));
    if let (Some(qs), Some(plan)) = (query_service.as_mut(), spec.query) {
        let stop_ns = plan.stop_ns.min(deadline);
        let mut epoch = qs.first_epoch();
        while epoch * spec.tick_ns < stop_ns {
            net.run_until(SimTime::from_nanos(epoch * spec.tick_ns));
            net.node_mut(tor).expect("translator node").quiesce();
            qs.run_epoch(epoch, emit_end);
            epoch += 1;
        }
    }
    net.run_until(SimTime::from_nanos(deadline));

    // --- Extract ----------------------------------------------------------
    let net_stats = net.stats;
    let fault_totals = net.fault_totals();
    let link_totals = net.link_totals();

    let mut reports_unsent = 0u64;
    let mut reporter_totals = RetxStats::default();
    for &(host, _) in &placements {
        let node: Box<dyn std::any::Any> = net.remove_node(host).expect("reporter node");
        let node = node.downcast::<ReporterFleetNode>().expect("reporter type");
        reports_unsent += node.pending() as u64;
        reporter_totals.merge(&node.retx_stats);
    }

    let tor_node: Box<dyn std::any::Any> = net.remove_node(tor).expect("translator node");
    let tor_node = tor_node.downcast::<FleetNode>().expect("translator type");
    let translator_node_stats = tor_node.stats;
    let tor_run = tor_node.finish();

    // The victim of a genuine kill lives in `parked_victim`, not the
    // engine; everyone else comes off the fabric here. Fleet order.
    let mut collector_nodes: Vec<Box<CollectorNode>> = Vec::with_capacity(fleet_size);
    let mut collector_stats = CollectorNodeStats::default();
    for &(host, _) in &collector_sites {
        let boxed: Box<dyn NetNode> = match parked_victim.take() {
            Some((victim_host, boxed)) if victim_host == host => boxed,
            other => {
                parked_victim = other;
                net.remove_node(host).expect("collector node")
            }
        };
        let boxed: Box<dyn std::any::Any> = boxed;
        let node = boxed.downcast::<CollectorNode>().expect("collector type");
        collector_stats.executed += node.stats.executed;
        collector_stats.naks += node.stats.naks;
        collector_stats.dropped += node.stats.dropped;
        collector_nodes.push(node);
    }
    let executed = tor_run.executed.unwrap_or(collector_stats.executed);

    // The audit goes through the one QueryEngine API: each collector's
    // live store engine, wrapped in owner-first fan-out routing over the
    // *final* routing table — the same checksum digest and table reduction
    // the translator used on the wire, so a key rerouted by a failover is
    // queried at its surviving owner.
    let queries = {
        let engines: Vec<StoreQueryEngine<'_>> =
            collector_nodes.iter_mut().map(|n| n.service.engine()).collect();
        audit_with(&mut FleetQueryEngine::new(engines, &tor_run.table), spec, &workload)
    };
    // Unmerged per-collector snapshots, and their merged view: the OR of
    // the dirty ranges over the collectors the final table considers
    // alive. Under the fleet preconditions (write-once KW, slot-disjoint
    // key pools) each byte is written by at most one collector, so the OR
    // is a union and is comparable across runs with different fault
    // schedules. The merged view of one collector is its only snapshot,
    // moved rather than copied.
    let mut fleet_memory: Vec<Vec<(u32, SnapshotBuf)>> =
        collector_nodes.iter().map(|n| snapshot_regions(&n.service)).collect();
    let memory = if fleet {
        let mut alive = (0..fleet_size as u32).filter(|&c| tor_run.table.is_alive(c));
        let first = alive.next().expect("at least one live collector") as usize;
        let mut merged = fleet_memory[first].clone();
        for c in alive {
            for ((rkey, buf), (other_rkey, other)) in
                merged.iter_mut().zip(&fleet_memory[c as usize])
            {
                debug_assert_eq!(*rkey, *other_rkey, "fleet collectors register identical regions");
                buf.or_with(other);
            }
        }
        merged
    } else {
        fleet_memory.pop().expect("one collector")
    };

    ScenarioOutcome {
        report: ScenarioReport {
            sent: workload.counts,
            reports_unsent,
            net: net_stats,
            faults: fault_totals,
            links: link_totals,
            translator: tor_run.translator,
            translator_node: translator_node_stats,
            reporter: reporter_totals,
            per_shard_reports_in: tor_run.per_shard_reports_in,
            executed,
            collector: collector_stats,
            failover: tor_run.failover,
            rebalance: tor_run.rebalance,
            queries,
            query: query_service.map(QueryService::into_stats),
        },
        memory,
        fleet_memory,
    }
}

/// Rkey-sorted byte snapshots of every registered region.
fn snapshot_regions(svc: &CollectorService) -> Vec<(u32, SnapshotBuf)> {
    let mut memory: Vec<(u32, SnapshotBuf)> =
        svc.nic.memory.regions().map(|r| (r.rkey, r.snapshot())).collect();
    memory.sort_by_key(|(rkey, _)| *rkey);
    memory
}

/// Query the collector deployment against the workload ledger through the
/// unified [`QueryEngine`] API. The engine decides *where* a query reads —
/// one live store, or owner-first fan-out across a fleet
/// ([`FleetQueryEngine`]) — this function only decides *what* is asked and
/// how outcomes tally. A primitive with no store anywhere
/// ([`QueryResult::Unavailable`]) tallies nothing, matching the historical
/// per-store audits.
fn audit_with<E: QueryEngine>(
    engine: &mut E,
    spec: &ScenarioSpec,
    workload: &Workload,
) -> QueryOutcomes {
    let mut q = QueryOutcomes::default();
    for key in &workload.kw_used {
        let resp = engine.execute(&QueryRequest::KeyWrite {
            key: *key,
            redundancy: spec.traffic.kw_redundancy as usize,
            policy: QueryPolicy::Plurality,
        });
        // Every probe past the routed owner is scattered state a rebalance
        // would have repatriated — a released rebalance audit pins this
        // count to zero. Only Key-Write point lookups count (the audit has
        // always treated Postcarding fan-out as free).
        q.fanout_lookups += resp.fanout as u64;
        match resp.result {
            QueryResult::KeyWrite(QueryOutcome::Found(_)) => q.kw_found += 1,
            QueryResult::KeyWrite(QueryOutcome::Ambiguous) => q.kw_ambiguous += 1,
            QueryResult::KeyWrite(QueryOutcome::NotFound) => q.kw_missing += 1,
            QueryResult::Unavailable => {}
            other => unreachable!("Key-Write request answered as {other:?}"),
        }
    }
    for key in &workload.pc_flows {
        let resp = engine.execute(&QueryRequest::Postcard {
            key: *key,
            redundancy: spec.translator.postcard_redundancy,
        });
        match resp.result {
            QueryResult::Postcard(PostcardQueryOutcome::Found(_)) => q.pc_found += 1,
            QueryResult::Postcard(_) => q.pc_missing += 1,
            QueryResult::Unavailable => {}
            other => unreachable!("Postcard request answered as {other:?}"),
        }
    }
    for (list, &sent) in workload.append_per_list.iter().enumerate() {
        if list as u32 >= spec.service.append_lists {
            break;
        }
        let drain = sent.min(spec.service.append_entries);
        for _ in 0..drain {
            let resp = engine.execute(&QueryRequest::AppendPoll { list: list as u32 });
            if resp.result.is_hit() {
                q.append_entries += 1;
            }
        }
    }
    for key in &workload.inc_used {
        let resp = engine.execute(&QueryRequest::Increment {
            key: *key,
            redundancy: spec.traffic.inc_redundancy as usize,
        });
        if let QueryResult::Increment(estimate) = resp.result {
            q.inc_estimate_total += estimate;
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_separates_adjacent_links() {
        let a = link_seed(1, NodeId(0), NodeId(1));
        let b = link_seed(1, NodeId(1), NodeId(0));
        let c = link_seed(2, NodeId(0), NodeId(1));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
