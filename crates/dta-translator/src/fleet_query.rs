//! Fleet-wide query routing over per-collector [`QueryEngine`]s.
//!
//! The collector fleet scatters point-lookup state when it lives through a
//! fault window: keys written while their primary owner was dead landed at
//! the failover fallback, and a rejoin without a rebalance leaves them
//! there. [`FleetQueryEngine`] therefore routes exactly like the wire side
//! — the same checksum digest and [`CollectorRoutingTable`] reduction the
//! translators used — and, on an owner miss for the key-addressed read
//! primitives, fans out to the rest of the alive fleet. Write-once slots
//! make the first hit authoritative.
//!
//! Routing per primitive:
//!
//! * **Key-Write** — owner first, then every other alive collector until a
//!   non-`NotFound` outcome. Each *probed* non-owner collector counts in
//!   [`QueryResponse::fanout`] — a collector with no Key-Write store is
//!   skipped uncounted, exactly like the historical fleet audit.
//! * **Postcarding** — same owner-first chain, stopping at the first
//!   decoded value.
//! * **Append** — the list's owner only ([`CollectorRoutingTable::owner_list`]);
//!   a list's ring lives wholly on one collector.
//! * **Key-Increment** — the key's owner only: a CMS min over a collector
//!   that never saw the key would always answer 0 and drag the estimate
//!   down, so fan-out would be wrong, not just wasteful.
//!
//! The wrapped engines can be live [`StoreQueryEngine`]s (post-run audits)
//! or [`SnapshotQueryEngine`]s (the scenario harness's paced query service
//! reading per-epoch images) — routing is independent of where the bytes
//! come from.
//!
//! [`StoreQueryEngine`]: dta_collector::StoreQueryEngine
//! [`SnapshotQueryEngine`]: dta_collector::SnapshotQueryEngine

use dta_collector::{QueryEngine, QueryRequest, QueryResponse, QueryResult};
use dta_core::TelemetryKey;
use dta_hash::scratch::KeyScratch;

use crate::failover::CollectorRoutingTable;

/// Owner-first, salted-fan-out query routing across a collector fleet.
#[derive(Debug)]
pub struct FleetQueryEngine<'t, E> {
    /// One engine per fleet slot (dead collectors keep their slot; the
    /// table's aliveness filter decides who gets probed).
    engines: Vec<E>,
    table: &'t CollectorRoutingTable,
    /// The digest pipeline the translators route with (salt 0).
    scratch: KeyScratch,
}

impl<'t, E: QueryEngine> FleetQueryEngine<'t, E> {
    /// Engine over `engines[c]` for fleet slot `c`, routed by `table`.
    ///
    /// # Panics
    /// Panics if the engine count does not match the table's fleet size.
    pub fn new(engines: Vec<E>, table: &'t CollectorRoutingTable) -> Self {
        assert_eq!(
            engines.len(),
            table.len() as usize,
            "one engine per fleet slot"
        );
        // A fleet of one never digests (see `owner_of`): the minimum table,
        // not a pooled ~1 MB one.
        let entries = if table.len() > 1 { 16 * 1024 } else { 0 };
        FleetQueryEngine { engines, table, scratch: KeyScratch::new(entries, 1) }
    }

    /// The key's current owner per the routing table (a fleet of one has
    /// nothing to decide, so nothing is digested — as on the wire side).
    fn owner_of(&mut self, key: &TelemetryKey) -> u32 {
        if self.table.len() == 1 {
            return 0;
        }
        self.table.owner_checksum(self.scratch.digests(key.as_bytes(), 0).checksum)
    }
}

impl<E: QueryEngine> QueryEngine for FleetQueryEngine<'_, E> {
    fn execute(&mut self, req: &QueryRequest) -> QueryResponse {
        match req {
            QueryRequest::AppendPoll { list } => {
                let owner = self.table.owner_list(*list) as usize;
                self.engines[owner].execute(req)
            }
            QueryRequest::Increment { key, .. } => {
                let owner = self.owner_of(key) as usize;
                self.engines[owner].execute(req)
            }
            QueryRequest::KeyWrite { key, .. } | QueryRequest::Postcard { key, .. } => {
                let owner = self.owner_of(key);
                let chain = std::iter::once(owner).chain(
                    (0..self.table.len()).filter(|&c| c != owner && self.table.is_alive(c)),
                );
                let mut probes = 0u32;
                let mut fanout = 0u32;
                let mut last = QueryResult::Unavailable;
                for c in chain {
                    let resp = self.engines[c as usize].execute(req);
                    if matches!(resp.result, QueryResult::Unavailable) {
                        // Absent store: skipped without counting, like the
                        // historical audit's `else { continue }`.
                        continue;
                    }
                    if c != owner {
                        fanout += 1;
                    }
                    probes += resp.probes;
                    let decided = match &resp.result {
                        QueryResult::KeyWrite(o) => {
                            !matches!(o, dta_collector::QueryOutcome::NotFound)
                        }
                        QueryResult::Postcard(o) => o.is_found(),
                        // Unreachable for these requests, but a decided
                        // answer either way.
                        _ => true,
                    };
                    last = resp.result;
                    if decided {
                        break;
                    }
                }
                QueryResponse { result: last, probes, fanout }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_collector::layout::KwLayout;
    use dta_collector::{KeyWriteStore, QueryOutcome, QueryPolicy, StoreQueryEngine};
    use dta_rdma::mr::{MemoryRegion, MrAccess};

    fn kw_store(base_va: u64) -> KeyWriteStore {
        let layout = KwLayout { base_va, slots: 1024, value_bytes: 4 };
        let region =
            MemoryRegion::new(base_va, layout.region_len() as usize, 1, MrAccess::WRITE);
        KeyWriteStore::new(layout, region, 4)
    }

    fn kw_req(key: &TelemetryKey) -> QueryRequest {
        QueryRequest::KeyWrite {
            key: *key,
            redundancy: 2,
            policy: QueryPolicy::Plurality,
        }
    }

    #[test]
    fn owner_hit_needs_no_fanout() {
        let stores: Vec<_> = (0..3).map(|c| kw_store(0x1000 * (c + 1))).collect();
        let table = CollectorRoutingTable::new(3);
        let key = TelemetryKey::from_u64(7);
        // Find the owner via the same scratch the engine uses and write
        // the key there.
        let mut scratch = KeyScratch::new(16 * 1024, 1);
        let owner = table.owner_checksum(scratch.digests(key.as_bytes(), 0).checksum);
        stores[owner as usize].insert_direct(&key, &[5; 4], 2);

        let engines = stores.iter().map(StoreQueryEngine::for_keywrite).collect();
        let mut fleet = FleetQueryEngine::new(engines, &table);
        let resp = fleet.execute(&kw_req(&key));
        assert_eq!(resp.result, QueryResult::KeyWrite(QueryOutcome::Found(vec![5; 4])));
        assert_eq!(resp.fanout, 0, "owner answered; no fan-out");
    }

    #[test]
    fn owner_miss_fans_out_to_the_alive_fleet() {
        let stores: Vec<_> = (0..3).map(|c| kw_store(0x1000 * (c + 1))).collect();
        let table = CollectorRoutingTable::new(3);
        let key = TelemetryKey::from_u64(7);
        let mut scratch = KeyScratch::new(16 * 1024, 1);
        let owner = table.owner_checksum(scratch.digests(key.as_bytes(), 0).checksum);
        // Scatter the key to a non-owner (as a fault window would).
        let holder = (0..3).find(|c| *c != owner).unwrap();
        stores[holder as usize].insert_direct(&key, &[9; 4], 2);

        let engines = stores.iter().map(StoreQueryEngine::for_keywrite).collect();
        let mut fleet = FleetQueryEngine::new(engines, &table);
        let resp = fleet.execute(&kw_req(&key));
        assert_eq!(resp.result, QueryResult::KeyWrite(QueryOutcome::Found(vec![9; 4])));
        assert!(resp.fanout >= 1, "the hit came from a non-owner probe");
    }

    #[test]
    fn absent_stores_are_skipped_without_counting_fanout() {
        // Three slots, but only the owner-miss chain's *last* collector
        // has any store at all.
        let table = CollectorRoutingTable::new(3);
        let key = TelemetryKey::from_u64(3);
        let store = kw_store(0x1000);
        let mut engines: Vec<StoreQueryEngine> =
            (0..3).map(|_| StoreQueryEngine::default()).collect();
        engines[2] = StoreQueryEngine::for_keywrite(&store);
        let mut fleet = FleetQueryEngine::new(engines, &table);
        let resp = fleet.execute(&kw_req(&key));
        // At most one collector was actually probed (slot 2, if non-owner).
        assert!(resp.fanout <= 1);
        assert_eq!(resp.result, QueryResult::KeyWrite(QueryOutcome::NotFound));
    }

    #[test]
    fn append_and_increment_stay_owner_only() {
        let table = CollectorRoutingTable::new(2);
        let engines: Vec<StoreQueryEngine> =
            (0..2).map(|_| StoreQueryEngine::default()).collect();
        let mut fleet = FleetQueryEngine::new(engines, &table);
        let resp = fleet.execute(&QueryRequest::AppendPoll { list: 0 });
        assert_eq!(resp.fanout, 0);
        let resp = fleet.execute(&QueryRequest::Increment {
            key: TelemetryKey::from_u64(1),
            redundancy: 2,
        });
        assert_eq!(resp.fanout, 0);
    }

    #[test]
    #[should_panic]
    fn engine_count_must_match_fleet_size() {
        let table = CollectorRoutingTable::new(3);
        let engines: Vec<StoreQueryEngine> = vec![StoreQueryEngine::default()];
        let _ = FleetQueryEngine::new(engines, &table);
    }
}
