//! The unified query engine: one read API over all four primitives.
//!
//! The paper's collector answers operator queries from host memory while
//! the fabric keeps writing into it (§6.5). Before this module, every
//! read-side consumer hand-rolled its own per-primitive calls — the
//! scenario audit, the fleet audit with its owner-miss fan-out, and the
//! multi-core Figure 11a/16a harnesses each duplicated the dispatch.
//! [`QueryEngine`] collapses them into one code path:
//!
//! * [`QueryRequest`] / [`QueryResponse`] — a primitive-tagged request and
//!   its outcome plus the deterministic cost accounting (slot probes,
//!   fan-out probes) that latency models and audits consume.
//! * [`SlotSource`] — where the bytes come from. The stores' query
//!   algorithms (plurality vote, CMS min, chunk decode, tail poll) are
//!   written once against this trait; [`MemoryRegion`] serves *live* reads
//!   under the stripe read-locks, and [`SnapshotView`] serves
//!   *point-in-time* reads over a pooled
//!   [`SnapshotBuf`](dta_rdma::mr::SnapshotBuf) image, so online query
//!   serving under write load reuses exactly the audited read logic.
//! * [`StoreQueryEngine`] — the live engine over a collector's stores
//!   (what `CollectorService::engine()` hands out).
//! * [`SnapshotQueryEngine`] — the same dispatch over per-epoch snapshot
//!   images (what the scenario harness's query service uses while shards
//!   write).
//!
//! Fleet routing (owner-first, salted fan-out on miss) layers on top in
//! `dta-translator::fleet_query`, wrapping per-collector engines — the
//! routing table lives there, not here.

use dta_core::TelemetryKey;
use dta_rdma::mr::MemoryRegion;

use crate::append::AppendReader;
use crate::cms::KeyIncrementStore;
use crate::keywrite::{KeyWriteStore, QueryOutcome, QueryPolicy};
use crate::postcarding::{PostcardQueryOutcome, PostcardStore};

/// A byte source for slot-granular query reads.
///
/// Returns `false` when `[va, va + dst.len())` is outside the source — the
/// caller treats that exactly like the backing region rejecting the read
/// (a layout bug, not a miss).
pub trait SlotSource {
    /// Copy `dst.len()` bytes at virtual address `va` into `dst`.
    fn read_slot(&self, va: u64, dst: &mut [u8]) -> bool;
}

/// Live reads: stripe-locked copies out of the shared region. The query's
/// [`QueryResponse::probes`] counts them; the region does not.
impl SlotSource for MemoryRegion {
    fn read_slot(&self, va: u64, dst: &mut [u8]) -> bool {
        self.read_into(va, dst).is_ok()
    }
}

/// Point-in-time reads over a snapshot image of one region (the bytes a
/// [`dta_rdma::mr::SnapshotBuf`] dereferences to), addressed by the
/// region's own virtual addresses.
#[derive(Clone, Copy)]
#[derive(Debug)]
pub struct SnapshotView<'a> {
    /// The snapshotted region's base virtual address.
    pub base_va: u64,
    /// The full region image.
    pub bytes: &'a [u8],
}

impl SlotSource for SnapshotView<'_> {
    fn read_slot(&self, va: u64, dst: &mut [u8]) -> bool {
        let range = va
            .checked_sub(self.base_va)
            .and_then(|off| usize::try_from(off).ok())
            .and_then(|start| Some(start..start.checked_add(dst.len())?));
        match range.and_then(|range| self.bytes.get(range)) {
            Some(src) => {
                dst.copy_from_slice(src);
                true
            }
            None => false,
        }
    }
}

/// One telemetry query, tagged by primitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryRequest {
    /// Key-Write plurality/consensus read (Algorithm 2).
    KeyWrite {
        /// The queried key.
        key: TelemetryKey,
        /// Candidate slots to read.
        redundancy: usize,
        /// How multiple checksum-matching candidates resolve.
        policy: QueryPolicy,
    },
    /// Postcarding path decode (§4's aggregated cache read).
    Postcard {
        /// The queried flow key.
        key: TelemetryKey,
        /// Candidate chunks to decode.
        redundancy: usize,
    },
    /// Append tail poll (Algorithm 4); advances the reader's tail.
    AppendPoll {
        /// The polled list.
        list: u32,
    },
    /// Key-Increment CMS estimate (Algorithm 6).
    Increment {
        /// The queried key.
        key: TelemetryKey,
        /// Counters to take the minimum over.
        redundancy: usize,
    },
}

impl QueryRequest {
    /// The routed key, when the primitive is key-addressed.
    pub fn key(&self) -> Option<&TelemetryKey> {
        match self {
            QueryRequest::KeyWrite { key, .. }
            | QueryRequest::Postcard { key, .. }
            | QueryRequest::Increment { key, .. } => Some(key),
            QueryRequest::AppendPoll { .. } => None,
        }
    }
}

/// A query's outcome, tagged by primitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// Key-Write vote outcome.
    KeyWrite(QueryOutcome),
    /// Postcarding decode outcome.
    Postcard(PostcardQueryOutcome),
    /// The polled Append entry (all-zero bytes = nothing written yet).
    Append(Vec<u8>),
    /// The CMS estimate.
    Increment(u64),
    /// The engine has no store for this primitive.
    Unavailable,
}

impl QueryResult {
    /// Whether the query produced telemetry: a Key-Write/Postcard value, a
    /// non-blank Append entry, or a non-zero estimate.
    pub fn is_hit(&self) -> bool {
        match self {
            QueryResult::KeyWrite(o) => o.is_found(),
            QueryResult::Postcard(o) => o.is_found(),
            QueryResult::Append(e) => e.iter().any(|b| *b != 0),
            QueryResult::Increment(v) => *v > 0,
            QueryResult::Unavailable => false,
        }
    }
}

/// A [`QueryResult`] plus the deterministic cost accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResponse {
    /// The outcome.
    pub result: QueryResult,
    /// Slot/chunk/counter reads this query performed (all engines).
    pub probes: u32,
    /// Non-owner collectors probed (fleet engines; 0 on a single store).
    pub fanout: u32,
}

impl QueryResponse {
    /// Response with no fan-out.
    pub fn local(result: QueryResult, probes: u32) -> Self {
        QueryResponse { result, probes, fanout: 0 }
    }
}

/// The unified read API every query consumer routes through.
///
/// `&mut self` because Append polls advance the reader's tail — the one
/// deliberately stateful read in the system (§6.5.3's per-core tails).
pub trait QueryEngine {
    /// Execute one query.
    fn execute(&mut self, req: &QueryRequest) -> QueryResponse;
}

/// What every engine answers for a primitive it has no store for.
fn unavailable() -> QueryResponse {
    QueryResponse::local(QueryResult::Unavailable, 0)
}

// One helper per primitive, each reading via `src`; both engine types match
// a request once and call the helper with the store's own bytes.

fn kw_query<S: SlotSource + ?Sized>(
    s: &KeyWriteStore,
    src: &S,
    key: &TelemetryKey,
    redundancy: usize,
    policy: QueryPolicy,
) -> QueryResponse {
    QueryResponse::local(
        QueryResult::KeyWrite(s.query_from(src, key, redundancy, policy)),
        s.slot_probes(redundancy),
    )
}

fn postcard_query<S: SlotSource + ?Sized>(
    s: &PostcardStore,
    src: &S,
    key: &TelemetryKey,
    redundancy: usize,
) -> QueryResponse {
    QueryResponse::local(
        QueryResult::Postcard(s.query_from(src, key, redundancy)),
        s.slot_probes(redundancy),
    )
}

/// `snap: None` polls the reader's own live region. A list the reader does
/// not have is answered like a primitive with no store, not by indexing
/// past the tails.
fn append_poll(r: &mut AppendReader, snap: Option<&SnapshotView<'_>>, list: u32) -> QueryResponse {
    if list >= r.layout().lists {
        return unavailable();
    }
    let entry = match snap {
        Some(view) => r.poll_from(view, list),
        None => r.poll(list),
    };
    QueryResponse::local(QueryResult::Append(entry), 1)
}

fn increment_query<S: SlotSource + ?Sized>(
    s: &KeyIncrementStore,
    src: &S,
    key: &TelemetryKey,
    redundancy: usize,
) -> QueryResponse {
    QueryResponse::local(
        QueryResult::Increment(s.query_from(src, key, redundancy)),
        s.slot_probes(redundancy),
    )
}

/// The live engine over one collector's stores: every read goes through
/// the stores' own backing regions (stripe read-locks, concurrent with
/// RDMA writers). Absent stores answer [`QueryResult::Unavailable`].
#[derive(Default)]
#[derive(Debug)]
pub struct StoreQueryEngine<'a> {
    /// Key-Write store, when present.
    pub keywrite: Option<&'a KeyWriteStore>,
    /// Postcarding store, when present.
    pub postcarding: Option<&'a PostcardStore>,
    /// Append reader, when present (`&mut`: polls advance tails).
    pub append: Option<&'a mut AppendReader>,
    /// Key-Increment store, when present.
    pub key_increment: Option<&'a KeyIncrementStore>,
}

impl<'a> StoreQueryEngine<'a> {
    /// Engine over a lone Key-Write store (the Figure 11a harness shape).
    pub fn for_keywrite(store: &'a KeyWriteStore) -> Self {
        StoreQueryEngine { keywrite: Some(store), ..Default::default() }
    }

    /// Engine over a lone Append reader (the Figure 16a harness shape).
    pub fn for_append(reader: &'a mut AppendReader) -> Self {
        StoreQueryEngine { append: Some(reader), ..Default::default() }
    }
}

impl QueryEngine for StoreQueryEngine<'_> {
    fn execute(&mut self, req: &QueryRequest) -> QueryResponse {
        // Each primitive reads from its own store's region.
        match req {
            QueryRequest::KeyWrite { key, redundancy, policy } => self
                .keywrite
                .map_or_else(unavailable, |s| kw_query(s, s.region(), key, *redundancy, *policy)),
            QueryRequest::Postcard { key, redundancy } => self
                .postcarding
                .map_or_else(unavailable, |s| postcard_query(s, s.region(), key, *redundancy)),
            QueryRequest::AppendPoll { list } => self
                .append
                .as_deref_mut()
                .map_or_else(unavailable, |r| append_poll(r, None, *list)),
            QueryRequest::Increment { key, redundancy } => self
                .key_increment
                .map_or_else(unavailable, |s| increment_query(s, s.region(), key, *redundancy)),
        }
    }
}

/// The snapshot engine: the same stores (for geometry + hashing), but every
/// byte comes from a per-primitive [`SnapshotView`] — a point-in-time image
/// taken under the stripe locks. Queries against it are a pure function of
/// the image, no matter what writers do to the live region meanwhile.
#[derive(Debug)]
pub struct SnapshotQueryEngine<'a> {
    /// Key-Write store + its image.
    pub keywrite: Option<(&'a KeyWriteStore, SnapshotView<'a>)>,
    /// Postcarding store + its image.
    pub postcarding: Option<(&'a PostcardStore, SnapshotView<'a>)>,
    /// Append reader + its image (`&mut`: polls advance tails, which is
    /// how a paced poller carries progress *across* epochs).
    pub append: Option<(&'a mut AppendReader, SnapshotView<'a>)>,
    /// Key-Increment store + its image.
    pub key_increment: Option<(&'a KeyIncrementStore, SnapshotView<'a>)>,
}

impl QueryEngine for SnapshotQueryEngine<'_> {
    fn execute(&mut self, req: &QueryRequest) -> QueryResponse {
        match req {
            QueryRequest::KeyWrite { key, redundancy, policy } => self
                .keywrite
                .as_ref()
                .map_or_else(unavailable, |(s, view)| kw_query(s, view, key, *redundancy, *policy)),
            QueryRequest::Postcard { key, redundancy } => self
                .postcarding
                .as_ref()
                .map_or_else(unavailable, |(s, view)| postcard_query(s, view, key, *redundancy)),
            QueryRequest::AppendPoll { list } => self
                .append
                .as_mut()
                .map_or_else(unavailable, |(r, view)| append_poll(r, Some(view), *list)),
            QueryRequest::Increment { key, redundancy } => self
                .key_increment
                .as_ref()
                .map_or_else(unavailable, |(s, view)| increment_query(s, view, key, *redundancy)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{AppendLayout, CmsLayout, KwLayout};
    use dta_rdma::mr::MrAccess;

    fn kw_store() -> KeyWriteStore {
        let layout = KwLayout { base_va: 0x1000, slots: 1024, value_bytes: 4 };
        let region =
            MemoryRegion::new(layout.base_va, layout.region_len() as usize, 1, MrAccess::WRITE);
        KeyWriteStore::new(layout, region, 4)
    }

    #[test]
    fn live_engine_matches_direct_store_calls() {
        let s = kw_store();
        let k = TelemetryKey::from_u64(9);
        s.insert_direct(&k, &[1, 2, 3, 4], 2);
        let mut eng = StoreQueryEngine::for_keywrite(&s);
        let resp = eng.execute(&QueryRequest::KeyWrite {
            key: k,
            redundancy: 2,
            policy: QueryPolicy::Plurality,
        });
        assert_eq!(
            resp.result,
            QueryResult::KeyWrite(s.query(&k, 2, QueryPolicy::Plurality))
        );
        assert_eq!(resp.probes, 2);
        assert_eq!(resp.fanout, 0);
        assert!(resp.result.is_hit());
    }

    #[test]
    fn absent_store_is_unavailable_not_a_miss() {
        let mut eng = StoreQueryEngine::default();
        let resp = eng.execute(&QueryRequest::Increment {
            key: TelemetryKey::from_u64(1),
            redundancy: 2,
        });
        assert_eq!(resp.result, QueryResult::Unavailable);
        assert!(!resp.result.is_hit());
        assert_eq!(resp.probes, 0);
    }

    #[test]
    fn snapshot_view_answers_what_the_image_held_not_the_live_region() {
        let s = kw_store();
        let k = TelemetryKey::from_u64(3);
        s.insert_direct(&k, &[7; 4], 2);
        let snap = s.region().snapshot();
        // Overwrite live memory after the snapshot.
        s.insert_direct(&k, &[8; 4], 2);
        let view = SnapshotView { base_va: s.region().base_va, bytes: snap.as_bytes() };
        let mut eng = SnapshotQueryEngine {
            keywrite: Some((&s, view)),
            postcarding: None,
            append: None,
            key_increment: None,
        };
        let resp = eng.execute(&QueryRequest::KeyWrite {
            key: k,
            redundancy: 2,
            policy: QueryPolicy::Plurality,
        });
        assert_eq!(resp.result, QueryResult::KeyWrite(QueryOutcome::Found(vec![7; 4])));
        assert_eq!(s.query(&k, 2, QueryPolicy::Plurality), QueryOutcome::Found(vec![8; 4]));
    }

    #[test]
    fn snapshot_poll_advances_tails_across_epochs() {
        let layout = AppendLayout { base_va: 0, lists: 1, entries_per_list: 8, entry_bytes: 4 };
        let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
        let mut writer = crate::append::DirectAppender::new(layout, region.clone());
        let mut reader = AppendReader::new(layout, region.clone());
        writer.append(0, &[1, 0, 0, 1]);
        let poll = |reader: &mut AppendReader| {
            let snap = region.snapshot();
            let view = SnapshotView { base_va: region.base_va, bytes: snap.as_bytes() };
            let mut eng = SnapshotQueryEngine {
                keywrite: None,
                postcarding: None,
                append: Some((reader, view)),
                key_increment: None,
            };
            eng.execute(&QueryRequest::AppendPoll { list: 0 })
        };
        assert_eq!(poll(&mut reader).result, QueryResult::Append(vec![1, 0, 0, 1]));
        // Next epoch: the tail moved on, the next entry is still blank.
        let miss = poll(&mut reader);
        assert_eq!(miss.result, QueryResult::Append(vec![0; 4]));
        assert!(!miss.result.is_hit());
    }

    #[test]
    fn poll_of_a_list_the_collector_does_not_have_is_unavailable() {
        let layout = AppendLayout { base_va: 0, lists: 1, entries_per_list: 8, entry_bytes: 4 };
        let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
        let mut reader = AppendReader::new(layout, region.clone());
        let req = QueryRequest::AppendPoll { list: 5 };
        let unavailable = QueryResponse::local(QueryResult::Unavailable, 0);

        assert_eq!(StoreQueryEngine::for_append(&mut reader).execute(&req), unavailable);

        let snap = region.snapshot();
        let view = SnapshotView { base_va: region.base_va, bytes: snap.as_bytes() };
        let mut eng = SnapshotQueryEngine {
            keywrite: None,
            postcarding: None,
            append: Some((&mut reader, view)),
            key_increment: None,
        };
        assert_eq!(eng.execute(&req), unavailable);
        assert_eq!(reader.tail(0), 0, "no tail moved");
    }

    #[test]
    fn increment_estimates_agree_between_live_and_snapshot() {
        let layout = CmsLayout { base_va: 0x4000, slots: 512 };
        let region =
            MemoryRegion::new(layout.base_va, layout.region_len() as usize, 1, MrAccess::ATOMIC);
        let s = KeyIncrementStore::new(layout, region, 4);
        let k = TelemetryKey::from_u64(11);
        s.increment_direct(&k, 5, 2);
        let snap = s.region().snapshot();
        let view = SnapshotView { base_va: s.region().base_va, bytes: snap.as_bytes() };
        let mut eng = SnapshotQueryEngine {
            keywrite: None,
            postcarding: None,
            append: None,
            key_increment: Some((&s, view)),
        };
        let resp = eng.execute(&QueryRequest::Increment { key: k, redundancy: 2 });
        assert_eq!(resp.result, QueryResult::Increment(s.query(&k, 2)));
        assert_eq!(resp.result, QueryResult::Increment(5));
    }

    #[test]
    fn out_of_range_snapshot_read_is_rejected() {
        let view = SnapshotView { base_va: 0x100, bytes: &[0u8; 16] };
        let mut buf = [0u8; 8];
        assert!(!view.read_slot(0x50, &mut buf), "below base");
        assert!(!view.read_slot(0x10c, &mut buf), "past end");
        assert!(view.read_slot(0x108, &mut buf));
        // The end address overflows: rejected, not a panic or a wrap.
        let at_zero = SnapshotView { base_va: 0, bytes: &[0u8; 16] };
        assert!(!at_zero.read_slot(u64::MAX, &mut buf), "end past u64::MAX");
    }
}
