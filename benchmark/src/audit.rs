//! Output verification and the read-path measurement, which are the same
//! pass: every key the oracle says was written is queried back through
//! [`QueryEngine::execute`] in timed chunks of [`QUERY_CHUNK`] queries, and
//! each chunk's answers are judged against the oracle *after* its clock
//! has stopped.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dta_collector::{
    PostcardQueryOutcome, QueryEngine, QueryOutcome, QueryPolicy, QueryRequest, QueryResponse,
    QueryResult,
};

use crate::gen::{Oracle, REDUNDANCY};
use crate::stats::{calibrate, ChunkTimes, FailCount};

/// Queries per timed chunk (~1 ms of cache-resident reads).
pub const QUERY_CHUNK: usize = 1024;

/// What the oracle says a query must answer.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Key-Write: exactly this value.
    Kw(Vec<u8>),
    /// Key-Write: any value ever written to the key (the arrival order of
    /// rewrites across reporters is the fabric's business).
    KwOneOf(Vec<Vec<u8>>),
    /// Key-Increment over slot-private counters: exactly this total.
    IncExact(u64),
    /// Key-Increment where counters may be shared, or a writer is still
    /// running: no less than this total.
    IncAtLeast(u64),
    /// Postcarding: exactly this path.
    Postcard(Vec<u32>),
    /// Append: exactly this entry.
    Append(Vec<u8>),
    /// Append beside a running writer: this entry, or not written yet.
    AppendOrBlank(Vec<u8>),
    /// Append: any entry sent to the list.
    AppendOneOf(Rc<BTreeSet<Vec<u8>>>),
    /// Append past the list's written prefix: still blank.
    Blank,
}

/// Outcome of judging one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The answer is what was written.
    Right,
    /// Missing or ambiguous for a key that was written: a failed query.
    Missing,
    /// A value that was never written: a failed query *and* a failed run.
    Wrong,
}

/// Judge one answer against the oracle.
pub fn judge(result: &QueryResult, expect: &Expect) -> Verdict {
    use Verdict::{Missing, Right, Wrong};
    let right_if = |ok: bool| if ok { Right } else { Wrong };
    let blank = |e: &[u8]| e.iter().all(|b| *b == 0);
    match (result, expect) {
        (QueryResult::KeyWrite(QueryOutcome::Found(v)), Expect::Kw(want)) => right_if(v == want),
        (QueryResult::KeyWrite(QueryOutcome::Found(v)), Expect::KwOneOf(any)) => {
            right_if(any.contains(v))
        }
        (QueryResult::KeyWrite(_), Expect::Kw(_) | Expect::KwOneOf(_)) => Missing,
        (QueryResult::Increment(v), Expect::IncExact(want)) => {
            if *v == 0 && *want > 0 {
                Missing
            } else {
                right_if(v == want)
            }
        }
        (QueryResult::Increment(v), Expect::IncAtLeast(want)) => {
            if *v == 0 && *want > 0 {
                Missing
            } else {
                right_if(v >= want)
            }
        }
        (QueryResult::Postcard(PostcardQueryOutcome::Found(p)), Expect::Postcard(want)) => {
            right_if(p == want)
        }
        (QueryResult::Postcard(_), Expect::Postcard(_)) => Missing,
        (QueryResult::Append(e), Expect::Append(want)) => {
            if blank(e) {
                Missing
            } else {
                right_if(e == want)
            }
        }
        (QueryResult::Append(e), Expect::AppendOrBlank(want)) => right_if(blank(e) || e == want),
        (QueryResult::Append(e), Expect::AppendOneOf(any)) => {
            if blank(e) {
                Missing
            } else {
                right_if(any.contains(e))
            }
        }
        (QueryResult::Append(e), Expect::Blank) => right_if(blank(e)),
        // The wrong primitive answered, or the store is absent.
        _ => Wrong,
    }
}

/// The queries of one primitive and what each must answer, in the order
/// they are issued (Append polls advance the reader's tail, so order is
/// part of the expectation; a set is built so that one full pass returns
/// every tail to where it started).
#[derive(Debug, Clone)]
pub struct QuerySet {
    /// `kw`, `append`, `inc` or `postcard`.
    pub primitive: &'static str,
    /// The requests.
    pub requests: Vec<QueryRequest>,
    /// One expectation per request.
    pub expect: Vec<Expect>,
}

impl QuerySet {
    fn new(primitive: &'static str) -> Self {
        QuerySet {
            primitive,
            requests: Vec::new(),
            expect: Vec::new(),
        }
    }

    fn push(&mut self, request: QueryRequest, expect: Expect) {
        self.requests.push(request);
        self.expect.push(expect);
    }
}

/// Key-Write request at the generated redundancy.
pub fn kw_request(key: dta_core::TelemetryKey) -> QueryRequest {
    QueryRequest::KeyWrite {
        key,
        redundancy: REDUNDANCY as usize,
        policy: QueryPolicy::Plurality,
    }
}

/// Key-Increment request at the generated redundancy.
pub fn inc_request(key: dta_core::TelemetryKey) -> QueryRequest {
    QueryRequest::Increment {
        key,
        redundancy: REDUNDANCY as usize,
    }
}

/// Sizing of the Append rings being audited, and how much was written.
#[derive(Debug, Clone, Copy)]
pub struct AppendState {
    /// Entries per list ring.
    pub ring: u64,
    /// Passes of the stream that were appended (each list got its
    /// per-pass entries this many times).
    pub passes: u64,
}

/// Build the query sets for a benchmark-generated oracle.
///
/// `inc_passes` scales the per-pass Key-Increment totals; `append` (when
/// the workload appends) gives the ring geometry. `live` relaxes the
/// expectations for reads beside a running writer.
pub fn sets_for(
    oracle: &Oracle,
    inc_passes: u64,
    postcard_redundancy: usize,
    append: Option<AppendState>,
    live: bool,
) -> Vec<QuerySet> {
    let mut sets = Vec::new();
    if !oracle.kw.is_empty() {
        let mut s = QuerySet::new("kw");
        for (k, v) in &oracle.kw {
            s.push(kw_request(*k), Expect::Kw(v.clone()));
        }
        sets.push(s);
    }
    if let (Some(a), false) = (append, oracle.append.is_empty()) {
        // Poll every list once around its ring, so tails end where they
        // began and the set can be cycled. Ring position `p` holds per-pass
        // entry `p mod n` once `p < passes * n` (every pass appends the same
        // `n` entries and `n` divides the ring).
        let mut s = QuerySet::new("append");
        for p in 0..a.ring {
            for (list, entries) in oracle.append.iter().enumerate() {
                let n = entries.len() as u64;
                assert!(
                    n > 0 && a.ring % n == 0,
                    "per-pass entries must divide the ring"
                );
                let want = &entries[(p % n) as usize];
                let expect = match (p < a.passes * n, live) {
                    (true, false) => Expect::Append(want.clone()),
                    (false, false) => Expect::Blank,
                    (_, true) => Expect::AppendOrBlank(want.clone()),
                };
                s.push(QueryRequest::AppendPoll { list: list as u32 }, expect);
            }
        }
        sets.push(s);
    }
    if !oracle.inc.is_empty() {
        let mut s = QuerySet::new("inc");
        for (k, per_pass) in &oracle.inc {
            let total = per_pass * inc_passes;
            s.push(
                inc_request(*k),
                if live {
                    Expect::IncAtLeast(total)
                } else {
                    Expect::IncExact(total)
                },
            );
        }
        sets.push(s);
    }
    if !oracle.postcard.is_empty() {
        let mut s = QuerySet::new("postcard");
        for (k, path) in &oracle.postcard {
            s.push(
                QueryRequest::Postcard {
                    key: *k,
                    redundancy: postcard_redundancy.max(1),
                },
                Expect::Postcard(path.clone()),
            );
        }
        sets.push(s);
    }
    sets
}

/// What running one [`QuerySet`] measured.
#[derive(Debug, Clone)]
pub struct SetResult {
    /// The set's primitive.
    pub primitive: &'static str,
    /// Chunk timings ([`QUERY_CHUNK`] queries each).
    pub times: ChunkTimes,
    /// Queries issued and failed (missing, ambiguous or wrong).
    pub fails: FailCount,
    /// Answers that were values never written.
    pub wrong: u64,
    /// Summed [`QueryResponse::probes`].
    pub probes: u64,
}

/// Cursor over a cycled [`QuerySet`]: runs one timed chunk at a time.
#[derive(Debug)]
pub struct SetRunner<'a> {
    set: &'a QuerySet,
    cursor: usize,
    /// Chunks needed to have issued every request at least once.
    chunks_per_pass: usize,
    responses: Vec<QueryResponse>,
    /// Accumulated result.
    pub result: SetResult,
}

impl<'a> SetRunner<'a> {
    /// Runner at the start of `set`.
    pub fn new(set: &'a QuerySet) -> Self {
        assert!(!set.requests.is_empty(), "empty query set");
        SetRunner {
            set,
            cursor: 0,
            chunks_per_pass: set.requests.len().div_ceil(QUERY_CHUNK),
            responses: Vec::with_capacity(QUERY_CHUNK),
            result: SetResult {
                primitive: set.primitive,
                times: ChunkTimes::new(QUERY_CHUNK as u64, 4096),
                fails: FailCount::default(),
                wrong: 0,
                probes: 0,
            },
        }
    }

    /// Whether every request has been issued (and judged) at least once.
    pub fn covered(&self) -> bool {
        self.result.times.len() >= self.chunks_per_pass
    }

    /// Issue the next [`QUERY_CHUNK`] requests under the clock, then judge
    /// the answers off it. Returns the chunk's nanoseconds.
    pub fn run_chunk<E: QueryEngine>(&mut self, engine: &mut E) -> u64 {
        let n = self.set.requests.len();
        let start = self.cursor;
        self.responses.clear();
        let before = calibrate();
        let t0 = Instant::now();
        let mut at = start;
        for _ in 0..QUERY_CHUNK {
            self.responses.push(engine.execute(&self.set.requests[at]));
            at += 1;
            if at == n {
                at = 0;
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.result.times.push(ns, before, calibrate());
        std::hint::black_box(&self.responses);
        self.cursor = at;
        let mut at = start;
        for resp in &self.responses {
            let verdict = judge(&resp.result, &self.set.expect[at]);
            self.result.fails.record(verdict == Verdict::Right);
            self.result.wrong += u64::from(verdict == Verdict::Wrong);
            self.result.probes += resp.probes as u64;
            at += 1;
            if at == n {
                at = 0;
            }
        }
        ns
    }
}

/// Run `sets` round-robin, one chunk of each in turn, until `budget` has
/// passed **and** every request has been judged at least once.
pub fn run_sets<E: QueryEngine>(
    engine: &mut E,
    sets: &[QuerySet],
    budget: Duration,
) -> Vec<SetResult> {
    let mut runners: Vec<SetRunner<'_>> = sets.iter().map(SetRunner::new).collect();
    let start = Instant::now();
    while !runners.is_empty() {
        for r in &mut runners {
            r.run_chunk(engine);
        }
        if start.elapsed() >= budget && runners.iter().all(SetRunner::covered) {
            break;
        }
    }
    runners.into_iter().map(|r| r.result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_missing_from_wrong() {
        let found = |v: &[u8]| QueryResult::KeyWrite(QueryOutcome::Found(v.to_vec()));
        assert_eq!(
            judge(&found(&[1, 2]), &Expect::Kw(vec![1, 2])),
            Verdict::Right
        );
        assert_eq!(
            judge(&found(&[9, 9]), &Expect::Kw(vec![1, 2])),
            Verdict::Wrong
        );
        assert_eq!(
            judge(
                &QueryResult::KeyWrite(QueryOutcome::NotFound),
                &Expect::Kw(vec![1])
            ),
            Verdict::Missing
        );
        assert_eq!(
            judge(
                &QueryResult::KeyWrite(QueryOutcome::Ambiguous),
                &Expect::Kw(vec![1])
            ),
            Verdict::Missing
        );
        assert_eq!(
            judge(&QueryResult::Increment(5), &Expect::IncExact(5)),
            Verdict::Right
        );
        assert_eq!(
            judge(&QueryResult::Increment(6), &Expect::IncExact(5)),
            Verdict::Wrong
        );
        assert_eq!(
            judge(&QueryResult::Increment(0), &Expect::IncExact(5)),
            Verdict::Missing
        );
        assert_eq!(
            judge(&QueryResult::Increment(6), &Expect::IncAtLeast(5)),
            Verdict::Right
        );
        assert_eq!(
            judge(&QueryResult::Increment(4), &Expect::IncAtLeast(5)),
            Verdict::Wrong
        );
        assert_eq!(
            judge(&QueryResult::Append(vec![0; 4]), &Expect::Append(vec![1])),
            Verdict::Missing
        );
        assert_eq!(
            judge(&QueryResult::Append(vec![0; 4]), &Expect::Blank),
            Verdict::Right
        );
        assert_eq!(
            judge(
                &QueryResult::Append(vec![0; 4]),
                &Expect::AppendOrBlank(vec![7])
            ),
            Verdict::Right
        );
        assert_eq!(
            judge(&QueryResult::Unavailable, &Expect::IncExact(1)),
            Verdict::Wrong
        );
        assert_eq!(
            judge(&QueryResult::Increment(1), &Expect::Kw(vec![1])),
            Verdict::Wrong
        );
    }

    /// An engine that answers Key-Increment queries from a fixed table.
    struct Fixed(u64);
    impl QueryEngine for Fixed {
        fn execute(&mut self, _req: &QueryRequest) -> QueryResponse {
            QueryResponse::local(QueryResult::Increment(self.0), 2)
        }
    }

    #[test]
    fn fail_share_counts_every_issued_query_once_per_issue() {
        // 4 keys, three of which expect 5 and one 6; the engine says 5.
        let mut oracle = Oracle::default();
        for (i, v) in [5u64, 5, 6, 5].into_iter().enumerate() {
            oracle
                .inc
                .insert(dta_core::TelemetryKey::from_u64(i as u64), v);
        }
        let sets = sets_for(&oracle, 1, 1, None, false);
        assert_eq!(sets.len(), 1);
        let results = run_sets(&mut Fixed(5), &sets, Duration::ZERO);
        let r = &results[0];
        // One chunk covers the 4 requests, cycled to QUERY_CHUNK issues.
        assert_eq!(r.times.len(), 1);
        assert_eq!(r.fails.attempted, QUERY_CHUNK as u64);
        assert_eq!(r.fails.failed, QUERY_CHUNK as u64 / 4);
        assert_eq!(r.wrong, r.fails.failed);
        assert_eq!(r.probes, 2 * QUERY_CHUNK as u64);
        assert!((r.fails.share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn append_set_walks_each_ring_once_and_knows_the_written_prefix() {
        let oracle = Oracle {
            append: vec![vec![vec![1], vec![2]], vec![vec![3], vec![4]]],
            ..Oracle::default()
        };
        // Ring of 8, one pass written: positions 0..2 are written.
        let sets = sets_for(
            &oracle,
            1,
            1,
            Some(AppendState { ring: 8, passes: 1 }),
            false,
        );
        let s = &sets[0];
        assert_eq!(s.requests.len(), 16);
        assert!(matches!(&s.expect[0], Expect::Append(e) if e == &vec![1]));
        assert!(matches!(&s.expect[1], Expect::Append(e) if e == &vec![3]));
        assert!(matches!(&s.expect[3], Expect::Append(e) if e == &vec![4]));
        assert!(matches!(&s.expect[4], Expect::Blank));
    }
}
