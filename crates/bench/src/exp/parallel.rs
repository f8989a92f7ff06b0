//! Multi-core query execution: the Figure 11a / 16a thread harnesses.
//!
//! "Key-Write query processing can be easily parallelized, and we found the
//! query performance to scale near-linearly when we allocated more cores"
//! (§6.5.1). The stores are `Sync` (interior mutability over the shared
//! region), so queries shard trivially across threads — each worker runs
//! its own [`StoreQueryEngine`] over the shared store.

#![expect(clippy::disallowed_types, reason = "Figures 11a/16a report host queries per second")]

use std::time::{Duration, Instant};

use dta_collector::{
    AppendReader, KeyWriteStore, QueryEngine, QueryPolicy, QueryRequest, QueryResult,
    StoreQueryEngine,
};
use dta_core::TelemetryKey;

/// Outcome of a parallel query run.
#[derive(Debug, Clone, Copy)]
pub struct ParallelRunStats {
    /// Queries issued.
    pub queries: u64,
    /// Queries that produced a value.
    pub found: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl ParallelRunStats {
    /// Queries per second.
    pub fn rate(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Query `keys` against `store` using `cores` threads (Figure 11a harness).
pub fn parallel_kw_query(
    store: &KeyWriteStore,
    keys: &[TelemetryKey],
    redundancy: usize,
    policy: QueryPolicy,
    cores: usize,
) -> ParallelRunStats {
    assert!(cores >= 1);
    let start = Instant::now();
    let chunk = keys.len().div_ceil(cores);
    let found: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(chunk.max(1))
            .map(|shard| {
                s.spawn(move || {
                    let mut engine = StoreQueryEngine::for_keywrite(store);
                    shard
                        .iter()
                        .filter(|k| {
                            engine
                                .execute(&QueryRequest::KeyWrite {
                                    key: **k,
                                    redundancy,
                                    policy,
                                })
                                .result
                                .is_hit()
                        })
                        .count() as u64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query thread panicked")).sum()
    });
    ParallelRunStats { queries: keys.len() as u64, found, elapsed: start.elapsed() }
}

/// Poll `polls_per_list` entries from each of `readers` lists, one thread
/// per reader (Figure 16a harness: "We allocated a number of lists equal to
/// the number of CPU cores used during the test to prevent race conditions
/// at the tail pointer").
pub fn parallel_append_poll(readers: &mut [AppendReader], polls_per_list: u64) -> ParallelRunStats {
    let start = Instant::now();
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .iter_mut()
            .map(|r| {
                s.spawn(move || {
                    let mut engine = StoreQueryEngine::for_append(r);
                    let mut sink = 0u64;
                    for _ in 0..polls_per_list {
                        // Every list is polled at index 0 of its own reader.
                        let resp = engine.execute(&QueryRequest::AppendPoll { list: 0 });
                        if let QueryResult::Append(e) = resp.result {
                            sink = sink.wrapping_add(e.first().copied().unwrap_or(0) as u64);
                        }
                    }
                    // Prevent the read loop from being optimized away.
                    std::hint::black_box(sink);
                    polls_per_list
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("poll thread panicked")).sum()
    });
    ParallelRunStats { queries: total, found: total, elapsed: start.elapsed() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_collector::layout::{AppendLayout, KwLayout};
    use dta_rdma::mr::{MemoryRegion, MrAccess};

    #[test]
    fn parallel_query_counts_matches_serial() {
        let layout = KwLayout { base_va: 0, slots: 1 << 14, value_bytes: 4 };
        let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
        let store = KeyWriteStore::new(layout, region, 4);
        let keys: Vec<_> = (0..2000u64).map(TelemetryKey::from_u64).collect();
        // Write only even keys.
        for (i, k) in keys.iter().enumerate() {
            if i % 2 == 0 {
                store.insert_direct(k, &[1; 4], 2);
            }
        }
        let st = parallel_kw_query(&store, &keys, 2, QueryPolicy::Plurality, 4);
        assert_eq!(st.queries, 2000);
        // Nearly all written keys must be found (a few may lose both slots
        // to later writes at this ~0.12 load factor), and none of the
        // unwritten ones (that would need a 2^-32 checksum collision).
        assert!(st.found <= 1000, "unwritten key reported found");
        assert!(st.found >= 980, "too many written keys lost: {}", st.found);
    }

    #[test]
    fn parallel_poll_drains_all_lists() {
        let layout = AppendLayout { base_va: 0, lists: 1, entries_per_list: 256, entry_bytes: 4 };
        let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
        let mut readers: Vec<AppendReader> = (0..4)
            .map(|_| AppendReader::new(layout, region.clone()))
            .collect();
        let st = parallel_append_poll(&mut readers, 100);
        assert_eq!(st.queries, 400);
    }

    #[test]
    fn single_core_run_works() {
        let layout = KwLayout { base_va: 0, slots: 256, value_bytes: 4 };
        let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
        let store = KeyWriteStore::new(layout, region, 2);
        let keys: Vec<_> = (0..10u64).map(TelemetryKey::from_u64).collect();
        let st = parallel_kw_query(&store, &keys, 2, QueryPolicy::FirstMatch, 1);
        assert_eq!(st.queries, 10);
        assert_eq!(st.found, 0);
    }
}
