//! Bench-side spans around the calls into each layer.
//!
//! A span is `(name, start, end, parent, batch id, count)`; spans are kept
//! in memory and written out when the run ends. A layer's *self time* is
//! its span's duration minus the part of that interval its child spans
//! cover, so the self times of a span tree tile the root's duration.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// Parent id of a root span (and the id a disabled tracer hands out).
pub const ROOT: SpanId = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `translator.process_batch`.
    pub name: &'static str,
    /// The span that caused this one, or [`ROOT`].
    pub parent: SpanId,
    /// Shared by the spans of one 256-report batch / one scenario run.
    pub batch: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Units of work done inside (reports, packets, queries), read at the
    /// same boundary as the clock.
    pub count: u64,
}

/// Records spans when on; costs one branch per call when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `cap` spans (so recording does not allocate
    /// inside a timed chunk); `on = false` records nothing.
    pub fn new(on: bool, cap: usize) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { cap } else { 0 }),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off (the traced/untraced chunk interleave).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, batch: u64) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            batch,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span, recording the work done inside it.
    #[inline]
    pub fn end(&mut self, id: SpanId, count: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Time `f` as a span.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        batch: u64,
        f: impl FnOnce() -> (R, u64),
    ) -> R {
        let id = self.begin(name, parent, batch);
        let (r, count) = f();
        self.end(id, count);
        r
    }

    /// Spans recorded since the last [`Tracer::take`].
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Remove and return the recorded spans, keeping the capacity.
    pub fn take(&mut self) -> Vec<Span> {
        let cap = self.spans.capacity();
        std::mem::replace(&mut self.spans, Vec::with_capacity(cap))
    }

    /// Forget the recorded spans, keeping the capacity.
    pub fn clear(&mut self) {
        self.spans.clear();
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span, so a child that overruns its parent or
/// overlaps a sibling is not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time and work per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerSelf {
    /// Summed self time.
    pub self_ns: u64,
    /// Summed [`Span::count`].
    pub count: u64,
}

/// Fold spans into per-name self time and work.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerSelf> {
    let mut out: BTreeMap<&'static str, LayerSelf> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.self_ns += self_ns;
        e.count += s.count;
    }
    out
}

/// One traced chunk, folded: its duration and its layers' self times.
#[derive(Debug, Clone)]
pub struct TracedChunk {
    /// Duration of the chunk's root span.
    pub dur_ns: u64,
    /// Clock-speed probes taken before and after the chunk.
    pub probes: (u32, u32),
    /// Per-name self time and work (the root span included).
    pub layers: BTreeMap<&'static str, LayerSelf>,
}

/// The folded chunks of a traced round plus the raw spans of its first few.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Every traced chunk, folded.
    pub chunks: Vec<TracedChunk>,
    /// Raw spans of the first [`TraceLog::KEEP_CHUNKS`] chunks, re-based so
    /// parent ids index into this vector.
    pub kept: Vec<Span>,
    kept_chunks: usize,
}

impl TraceLog {
    /// Chunks whose raw spans are written to the trace file; the rest are
    /// only folded (a full round is hundreds of thousands of spans).
    pub const KEEP_CHUNKS: usize = 64;

    /// Fold the spans of one chunk (whose first span is the chunk's root)
    /// and clear the tracer; `probes` are the chunk's clock-speed probes.
    /// Call outside any timed section.
    pub fn fold_chunk(&mut self, tracer: &mut Tracer, probes: (u32, u32)) {
        let spans = tracer.spans();
        if spans.is_empty() {
            return;
        }
        let root = &spans[0];
        debug_assert_eq!(root.parent, ROOT, "first span of a chunk is its root");
        self.chunks.push(TracedChunk {
            dur_ns: root.end_ns - root.start_ns,
            probes,
            layers: self_by_name(spans),
        });
        if self.kept_chunks < Self::KEEP_CHUNKS {
            self.keep(spans);
            self.kept_chunks += 1;
        }
        tracer.clear();
    }

    /// Append `spans` (whose parent ids index into `spans`) to the kept
    /// ones, re-based so they index into [`TraceLog::kept`].
    pub fn keep(&mut self, spans: &[Span]) {
        let base = self.kept.len() as SpanId;
        self.kept.extend(spans.iter().cloned().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// The quiet chunks, each with the factor that scales its times to the
    /// reference clock: those whose scaled duration is within the first
    /// quartile (chunks with disagreeing probes excluded). Layer times are
    /// summed over these only, so they describe the same quiet host the
    /// end-to-end rates do and still tile exactly.
    pub fn quiet(&self) -> Vec<(&TracedChunk, f64)> {
        let scaled: Vec<(&TracedChunk, f64)> = self
            .chunks
            .iter()
            .filter_map(|c| Some((c, crate::stats::to_reference_clock(c.probes)?)))
            .collect();
        let mut durs: Vec<f64> = scaled.iter().map(|(c, k)| c.dur_ns as f64 * k).collect();
        if durs.is_empty() {
            return Vec::new();
        }
        durs.sort_unstable_by(f64::total_cmp);
        let cut = crate::stats::quantile_sorted(&durs, 0.25);
        scaled
            .into_iter()
            .filter(|(c, k)| c.dur_ns as f64 * k <= cut)
            .collect()
    }

    /// Quiet-chunk self nanoseconds of `name` per unit of its own count.
    /// `None` when no quiet chunk recorded the span (or it counted nothing).
    pub fn layer_ns(&self, name: &str) -> Option<f64> {
        let (mut ns, mut count) = (0.0, 0u64);
        for (c, at_ref) in self.quiet() {
            if let Some(l) = c.layers.get(name) {
                ns += l.self_ns as f64 * at_ref;
                count += l.count;
            }
        }
        (count > 0).then(|| ns / count as f64)
    }

    /// Share of the quiet chunks' duration covered by the self times of the
    /// spans *below* the root named `root`: 1.0 means the layer spans tile
    /// the loop, and `1 - closure` is loop and clock overhead.
    pub fn closure(&self, root: &str) -> Option<f64> {
        let (mut layers, mut total) = (0u64, 0u64);
        for (c, _) in self.quiet() {
            total += c.dur_ns;
            layers += c
                .layers
                .iter()
                .filter(|(name, _)| **name != root)
                .map(|(_, l)| l.self_ns)
                .sum::<u64>();
        }
        (total > 0).then(|| layers as f64 / total as f64)
    }

    /// Write the kept spans as JSON: `{"workload": .., "spans": [..]}` with
    /// `parent: null` on roots.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.kept);
        writeln!(
            w,
            "{{\"workload\": \"{workload}\", \"traced_chunks\": {}, \"spans\": [",
            self.chunks.len()
        )?;
        for (i, (s, self_ns)) in self.kept.iter().zip(selfs).enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"batch\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"count\": {}}}{}",
                s.name,
                s.batch,
                s.start_ns,
                s.end_ns,
                s.count,
                if i + 1 < self.kept.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            batch: 0,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > a [10,60) > b [20,30); root also > c [70,90).
        let spans = [
            span("root", ROOT, 0, 100),
            span("a", 0, 10, 60),
            span("b", 1, 20, 30),
            span("c", 0, 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        // The self times tile the root.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overrunning_children_are_not_double_counted() {
        // Two children overlap on [40,50); a third overruns the parent's
        // end and a fourth lies wholly outside it.
        let spans = [
            span("root", ROOT, 0, 100),
            span("x", 0, 10, 50),
            span("y", 0, 40, 70),
            span("z", 0, 90, 130),
            span("w", 0, 200, 210),
        ];
        let s = self_times(&spans);
        // Covered: [10,70) ∪ [90,100) = 70.
        assert_eq!(s[0], 30);
        assert_eq!(s[1], 40);
        assert_eq!(s[3], 40, "a child's own self time is not clipped");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 16);
        let id = t.begin("a", ROOT, 0);
        t.end(id, 5);
        assert_eq!(id, ROOT);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let id = t.begin("a", ROOT, 7);
        t.end(id, 5);
        assert_eq!(t.spans().len(), 1);
        assert_eq!((t.spans()[0].batch, t.spans()[0].count), (7, 5));
    }

    #[test]
    fn log_folds_chunks_and_layer_times_tile_the_quiet_ones() {
        let mut log = TraceLog::default();
        let mut t = Tracer::new(true, 16);
        // Four chunks; the slow one (dur 400) must not enter the quiet set.
        for dur in [100u64, 100, 100, 400] {
            t.spans.push(Span {
                count: 10,
                ..span("chunk", ROOT, 0, dur)
            });
            t.spans.push(Span {
                count: 10,
                ..span("work", 0, 0, dur - 10)
            });
            log.fold_chunk(&mut t, (13_800, 13_800));
        }
        assert_eq!(log.chunks.len(), 4);
        assert_eq!(log.quiet().len(), 3);
        assert_eq!(log.layer_ns("work"), Some(9.0));
        assert_eq!(log.layer_ns("absent"), None);
        assert!((log.closure("chunk").unwrap() - 0.9).abs() < 1e-12);
        // Kept spans are re-based: the second chunk's child points at the
        // second chunk's root.
        assert_eq!(log.kept[3].parent, 2);
    }
}
