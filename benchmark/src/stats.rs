//! The quiet-host estimator and the failure accounting.
//!
//! Host time on a small shared VM moves for two reasons that have nothing
//! to do with the code under test:
//!
//! * **the core's clock.** A register-only dependency chain on the
//!   recording host (2 vCPUs of a shared Xeon) runs at anything between its
//!   nominal clock and 1.28x that, in steps of a few percent, holding a
//!   step for a second or two depending on what the neighbours leave of the
//!   turbo budget. The pipeline's time follows the chain's time to within
//!   +-2 % when it is cache-resident (`ingest-hot`) and +-4 % when it is
//!   not (`ingest-wide`). How a 10 s run splits between the steps differs
//!   from run to run, so any fixed quantile of raw chunk times lands on
//!   one step on one run and on another on the next: raw p5, p25 and p50
//!   of unchanged code all moved by 15-25 % between back-to-back runs;
//! * **everybody else's memory traffic**, which stretches the slow tail of
//!   anything that misses cache.
//!
//! So every chunk of fixed work is bracketed by two [`calibrate`] probes —
//! that dependency chain, which touches no memory — and the chunk's time
//! is expressed at a fixed reference clock: `ns x REF_PROBE_NS / probe`.
//! Of those clock-normalised times the fast tail,
//! `work / quantile(time, QUIET_Q)`, is the quiet-host rate: what the code
//! does at the reference clock when nobody else is in its way.
//!
//! What this does not remove is the neighbours' memory traffic: on the
//! recording host the shared L3 is at times so contended for ten seconds
//! and more that every chunk of a cache-missing workload is slow, and no
//! statistic of one run can see past that. Over 16 back-to-back 7.5 s runs
//! of unchanged code in such a period, the spread (interquartile range over
//! median) of the estimate was, raw p5 / normalised p5: 13.6 % / 8.0 % on
//! `ingest-hot`'s Key-Write phase and 17.4 % / 12.2 % on `ingest-wide`;
//! p25 and p50 were worse on both, and fitting a line `a x probe + b`
//! through the clock steps (to spare memory-bound time the scaling) was
//! worse than either, because it amplifies exactly that noise. In a calm
//! period the normalised p5 of `ingest-hot` held within 1.4 %.
//!
//! Worse than the drift are *regimes*: every ten to thirty seconds the host
//! flips between two states in which the same cache-sensitive code runs
//! 1.65x apart at the same clock, while register-only and even L3-latency
//! probes barely move (a neighbour on the core's other hyperthread, by the
//! look of it). No probe tried tracks it, so the quantile is set low, at
//! 2 %: a run needs 0.3 s in the fast regime, not 0.75 s, to report the
//! fast regime's rate. p2 and p5 were equally steady within a regime.

use std::hint::black_box;
use std::time::Instant;

/// The quantile of reference-clock chunk times a quiet-host rate is
/// taken at (see the module docs for why it is this low).
pub const QUIET_Q: f64 = 0.02;

/// Iterations of the calibration chain (~13 us on the recording host: long
/// enough that the timer's own ~30 ns is a quarter percent, short enough
/// that two of them cost under 3 % of a 1 ms chunk).
const CAL_ITERS: u32 = 14_000;

/// What the probe takes at the reference clock: its time on the recording
/// host at that host's nominal 2.1 GHz. Only a scale: on another host the
/// rates come out in units of *its* probe, which is all a comparison of two
/// commits on one host needs.
pub const REF_PROBE_NS: f64 = 13_800.0;

/// The probe pair that scales a time by exactly 1.
pub const UNSCALED: (u32, u32) = (REF_PROBE_NS as u32, REF_PROBE_NS as u32);

/// Clock-speed probe: nanoseconds a fixed, register-only dependency chain
/// takes right now. Its cycle count is a constant of the binary, so its
/// time is inversely proportional to the core's current frequency and
/// blind to cache and memory contention.
#[inline(never)]
pub fn calibrate() -> u32 {
    let t0 = Instant::now();
    let mut x = 1u64;
    for _ in 0..CAL_ITERS {
        // black_box keeps every link of the chain: without it the
        // recurrence folds into a closed form.
        x = black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
    }
    black_box(x);
    t0.elapsed().as_nanos() as u32
}

/// Linear-interpolated quantile of an ascending-sorted sample.
///
/// # Panics
/// Panics on an empty sample: a rate without samples is a bug, not zero.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Most the two probes around a chunk may differ for the chunk to count:
/// a bigger gap means the clock stepped mid-chunk or a probe was preempted,
/// and either way the chunk's clock is not known.
const PROBE_AGREEMENT: f64 = 0.03;

/// Fewest chunks with agreeing probes a rate may rest on; with fewer,
/// every chunk is used.
const MIN_STEADY_CHUNKS: usize = 20;

/// The factor that scales a chunk's times to the reference clock, or
/// `None` when its two probes disagree.
pub fn to_reference_clock((before, after): (u32, u32)) -> Option<f64> {
    let (b, a) = (before as f64, after as f64);
    let mean = (a + b) / 2.0;
    ((a - b).abs() <= PROBE_AGREEMENT * mean && mean > 0.0).then(|| REF_PROBE_NS / mean)
}

/// Timings of equal-work chunks, in nanoseconds, each with the clock-speed
/// probes taken just before and just after it.
#[derive(Debug, Clone, Default)]
pub struct ChunkTimes {
    /// Units of work (reports, queries) in every chunk.
    pub work_per_chunk: u64,
    /// One duration per chunk, in run order.
    pub ns: Vec<u64>,
    /// `(before, after)` probe nanoseconds per chunk.
    pub probes: Vec<(u32, u32)>,
}

impl ChunkTimes {
    /// Empty sample of `work_per_chunk`-sized chunks with room for `cap`.
    pub fn new(work_per_chunk: u64, cap: usize) -> Self {
        ChunkTimes {
            work_per_chunk,
            ns: Vec::with_capacity(cap),
            probes: Vec::with_capacity(cap),
        }
    }

    /// Run `chunk` (which returns the nanoseconds it measured for itself)
    /// between two probes and record all three.
    #[inline]
    pub fn record(&mut self, chunk: impl FnOnce() -> u64) {
        let before = calibrate();
        let ns = chunk();
        let after = calibrate();
        self.push(ns, before, after);
    }

    /// Record one chunk and its probes.
    pub fn push(&mut self, ns: u64, before: u32, after: u32) {
        self.ns.push(ns);
        self.probes.push((before, after));
    }

    /// Record one chunk whose time is to be taken as it is, for work whose
    /// pace is set by a thread other than the one that would probe.
    pub fn push_unscaled(&mut self, ns: u64) {
        self.push(ns, UNSCALED.0, UNSCALED.1);
    }

    /// Chunks recorded.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no chunk was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Sorted times at the reference clock of the chunks whose probes
    /// agree; of every chunk (by the mean of its probes) when fewer than
    /// [`MIN_STEADY_CHUNKS`] do.
    pub fn normalised(&self) -> Vec<f64> {
        let pairs = || self.ns.iter().zip(&self.probes);
        let mut times: Vec<f64> = pairs()
            .filter_map(|(ns, p)| Some(*ns as f64 * to_reference_clock(*p)?))
            .collect();
        if times.len() < MIN_STEADY_CHUNKS {
            times = pairs()
                .map(|(ns, (b, a))| {
                    *ns as f64 * REF_PROBE_NS / ((*b as f64 + *a as f64) / 2.0).max(1.0)
                })
                .collect();
        }
        times.sort_unstable_by(f64::total_cmp);
        times
    }

    /// Nanoseconds per unit of work at quantile `q` of the chunk times at
    /// the reference clock.
    pub fn ns_per_unit(&self, q: f64) -> f64 {
        quantile_sorted(&self.normalised(), q) / self.work_per_chunk as f64
    }

    /// Nanoseconds per unit of work at quantile `q` of the chunk times as
    /// they were measured, at whatever clock the core ran.
    pub fn raw_ns_per_unit(&self, q: f64) -> f64 {
        let mut times: Vec<f64> = self.ns.iter().map(|ns| *ns as f64).collect();
        times.sort_unstable_by(f64::total_cmp);
        quantile_sorted(&times, q) / self.work_per_chunk as f64
    }

    /// Quiet-host nanoseconds per unit of work.
    pub fn quiet_ns(&self) -> f64 {
        self.ns_per_unit(QUIET_Q)
    }

    /// Units of work per second at reference-clock quantile `q`.
    pub fn per_s(&self, q: f64) -> f64 {
        1e9 / self.ns_per_unit(q)
    }

    /// Quiet-host units of work per second.
    pub fn quiet_per_s(&self) -> f64 {
        self.per_s(QUIET_Q)
    }
}

/// Per-unit time of a stream made of equal shares of several phases: one
/// unit from each phase costs the sum of their per-unit times, so the blend
/// is their mean (and its rate the harmonic mean of the phases' rates).
pub fn blended_ns(ns_per_unit: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = ns_per_unit
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    assert!(n > 0, "blend of no phases");
    sum / n as f64
}

/// Operations attempted and failed; the share is failures over attempts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailCount {
    /// Operations offered.
    pub attempted: u64,
    /// Operations that did not produce the right outcome.
    pub failed: u64,
}

impl FailCount {
    /// Record `n` attempts of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        debug_assert!(failed <= n);
        self.attempted += n;
        self.failed += failed;
    }

    /// Record one attempt.
    pub fn record(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// Fold `other` in.
    pub fn merge(&mut self, other: FailCount) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failures over attempts; nothing attempted is no failure.
    pub fn share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe pair at the reference clock.
    const REF: u32 = REF_PROBE_NS as u32;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile_sorted(&s, 0.0), 10.0);
        assert_eq!(quantile_sorted(&s, 1.0), 50.0);
        assert_eq!(quantile_sorted(&s, 0.5), 30.0);
        assert!((quantile_sorted(&s, 0.05) - 12.0).abs() < 1e-9);
        assert_eq!(quantile_sorted(&[7.0], 0.05), 7.0);
    }

    #[test]
    fn quiet_rate_ignores_a_slow_mode() {
        // 80 % of chunks are disturbed (2x): the mean moves by 80 %, the
        // quiet-host estimate not at all.
        let mut c = ChunkTimes::new(1000, 0);
        for i in 0..1000u64 {
            c.push(
                if i % 5 == 0 {
                    100_000 + i % 7
                } else {
                    200_000 + i
                },
                REF,
                REF,
            );
        }
        let quiet = c.quiet_ns();
        assert!((100.0..100.01).contains(&quiet), "{quiet}");
        assert!((c.quiet_per_s() - 1e9 / quiet).abs() < 1e-3);
        // Insensitive to order.
        let mut r = c.clone();
        r.ns.reverse();
        assert_eq!(r.quiet_ns(), quiet);
    }

    #[test]
    fn clock_steps_and_preempted_probes_do_not_move_the_rate() {
        // Reference clock: chunk 100 000 ns. Turbo episodes (probe and
        // chunk 1.28x faster) cover a share of the run that differs between
        // the two "runs"; some probes are preempted, some chunks straddle
        // a clock step.
        let turbo = (REF_PROBE_NS / 1.28) as u32;
        let run = |turbo_every: u64| {
            let mut c = ChunkTimes::new(1000, 0);
            for i in 0..2000u64 {
                let jitter = i % 11;
                if i % turbo_every == 0 {
                    c.push((100_000 + jitter) * 100 / 128, turbo, turbo);
                } else if i % 97 == 0 {
                    c.push(100_000 + jitter, REF * 4, REF); // probe preempted
                } else if i % 101 == 0 {
                    c.push(90_000, REF, turbo); // clock stepped up mid-chunk
                } else {
                    c.push(100_000 + jitter, REF + (i % 3) as u32 * 20, REF);
                }
            }
            c
        };
        let (rare, frequent) = (run(200), run(3));
        let (a, b) = (rare.quiet_ns(), frequent.quiet_ns());
        assert!((a - b).abs() / a < 0.002, "{a} {b}");
        assert!((a - 100.0).abs() < 0.3, "{a}");
        // The raw quantile would have flipped between clock steps.
        let raw_quiet = |c: &ChunkTimes| c.raw_ns_per_unit(QUIET_Q);
        assert!(raw_quiet(&frequent) < 80.0 && raw_quiet(&rare) > 99.0);
    }

    #[test]
    fn disagreeing_probes_drop_the_chunk_unless_too_few_are_left() {
        assert_eq!(
            to_reference_clock((REF, REF)),
            Some(REF_PROBE_NS / REF as f64)
        );
        assert_eq!(to_reference_clock((REF, REF + REF / 20)), None);
        let mut c = ChunkTimes::new(10, 0);
        for i in 0..10u64 {
            c.push(1000 + i, REF, REF * 2);
        }
        assert_eq!(c.normalised().len(), 10);
    }

    #[test]
    fn probe_takes_a_plausible_time() {
        let ns = (0..5).map(|_| calibrate()).min().unwrap();
        assert!(ns > 1_000 && ns < 10_000_000, "{ns}");
    }

    #[test]
    fn blend_is_the_harmonic_mean_of_the_rates() {
        // 100 ns and 300 ns per unit: two units cost 400 ns, 5 M units/s.
        assert!((1e9 / blended_ns([100.0, 300.0]) - 5e6).abs() < 1e-6);
        assert_eq!(blended_ns([250.0]), 250.0);
    }

    #[test]
    fn fail_share_counts_failures_against_attempts() {
        let mut f = FailCount::default();
        assert_eq!(f.share(), 0.0);
        f.add(90, 0);
        f.record(false);
        f.record(true);
        let mut g = FailCount::default();
        g.add(8, 1);
        f.merge(g);
        assert_eq!(
            f,
            FailCount {
                attempted: 100,
                failed: 2
            }
        );
        assert!((f.share() - 0.02).abs() < 1e-12);
    }
}
