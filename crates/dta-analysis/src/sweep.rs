//! Corpus-sweep coverage aggregation.
//!
//! The `sweep` binary (`crates/bench/src/bin/sweep.rs`) expands every
//! corpus file's grid, runs the cells, and checks the file's declared
//! invariants; this module holds the shared result model — per-file
//! coverage, violations, the machine-readable JSON report — and the
//! Monte-Carlo cross-check that ties an observed Key-Write audit back to
//! the abstract-store prediction of [`crate::montecarlo`].
//!
//! The JSON renderer is hand-rolled — the build environment has no serde.

use crate::montecarlo::simulate_keywrite;

/// One invariant failure on one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Corpus file the cell came from.
    pub file: String,
    /// Cell coordinates (`seed=1,mode=sharded4`, or `base`).
    pub cell: String,
    /// Which invariant failed.
    pub invariant: String,
    /// What was observed (counters, fingerprints, ...).
    pub detail: String,
}

/// Coverage of one corpus file after a sweep.
#[derive(Debug, Clone, Default)]
pub struct FileCoverage {
    /// Corpus file name.
    pub file: String,
    /// Cells the file's grid expands to.
    pub cells_total: u64,
    /// Cells actually run (== `cells_total` unless sampled down).
    pub cells_run: u64,
    /// Scenario executions (> `cells_run` when `bit_reproducible` doubles
    /// runs).
    pub runs: u64,
    /// `(axis, distinct values covered)` in declaration order.
    pub axes: Vec<(String, u64)>,
    /// Invariants the file declares (each checked on every cell run).
    pub invariants: Vec<String>,
    /// Individual invariant evaluations performed.
    pub checks: u64,
    /// Failures (empty on a green sweep).
    pub violations: Vec<Violation>,
}

/// A whole sweep: every file's coverage plus the sampling parameters, so
/// a CI artifact is self-describing and reproducible.
#[derive(Debug, Clone, Default)]
pub struct SweepSummary {
    /// Sampling seed (0 when unsampled).
    pub seed: u64,
    /// `--sample N` cap per file, if any.
    pub sample: Option<u64>,
    /// Per-file coverage, corpus order.
    pub files: Vec<FileCoverage>,
}

impl SweepSummary {
    /// Total cells run across the corpus.
    pub fn cells_run(&self) -> u64 {
        self.files.iter().map(|f| f.cells_run).sum()
    }

    /// Total scenario executions across the corpus.
    pub fn runs(&self) -> u64 {
        self.files.iter().map(|f| f.runs).sum()
    }

    /// Total invariant evaluations across the corpus.
    pub fn checks(&self) -> u64 {
        self.files.iter().map(|f| f.checks).sum()
    }

    /// Every violation across the corpus.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.files.iter().flat_map(|f| f.violations.iter())
    }

    /// Whether the sweep is green.
    pub fn ok(&self) -> bool {
        self.violations().next().is_none()
    }

    /// Render the machine-readable coverage report.
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"dta-sweep/coverage-v1\",\n");
        writeln!(s, "  \"seed\": {},", self.seed).unwrap();
        match self.sample {
            Some(n) => writeln!(s, "  \"sample\": {n},").unwrap(),
            None => s.push_str("  \"sample\": null,\n"),
        }
        writeln!(s, "  \"cells_run\": {},", self.cells_run()).unwrap();
        writeln!(s, "  \"runs\": {},", self.runs()).unwrap();
        writeln!(s, "  \"checks\": {},", self.checks()).unwrap();
        writeln!(s, "  \"violations\": {},", self.violations().count()).unwrap();
        s.push_str("  \"files\": [\n");
        for (i, f) in self.files.iter().enumerate() {
            s.push_str("    {\n");
            writeln!(s, "      \"file\": {},", json_str(&f.file)).unwrap();
            writeln!(s, "      \"cells_total\": {},", f.cells_total).unwrap();
            writeln!(s, "      \"cells_run\": {},", f.cells_run).unwrap();
            writeln!(s, "      \"runs\": {},", f.runs).unwrap();
            write!(s, "      \"axes\": {{").unwrap();
            for (j, (axis, n)) in f.axes.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                write!(s, "{}: {n}", json_str(axis)).unwrap();
            }
            s.push_str("},\n");
            write!(s, "      \"invariants\": [").unwrap();
            for (j, inv) in f.invariants.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                write!(s, "{}", json_str(inv)).unwrap();
            }
            s.push_str("],\n");
            writeln!(s, "      \"checks\": {},", f.checks).unwrap();
            s.push_str("      \"violations\": [");
            for (j, v) in f.violations.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                write!(
                    s,
                    "\n        {{\"cell\": {}, \"invariant\": {}, \"detail\": {}}}",
                    json_str(&v.cell),
                    json_str(&v.invariant),
                    json_str(&v.detail)
                )
                .unwrap();
            }
            if !f.violations.is_empty() {
                s.push_str("\n      ");
            }
            s.push_str("]\n");
            s.push_str(if i + 1 < self.files.len() { "    },\n" } else { "    }\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Result of a Monte-Carlo Key-Write cross-check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McCheck {
    /// Audit success rate the scenario observed.
    pub observed: f64,
    /// Success rate the abstract-store simulation predicts at this load.
    pub predicted: f64,
    /// Slot count the simulation ran at (scaled down from the real store).
    pub slots: u64,
    /// Load factor `keys_written / real_slots` (preserved by the scaling).
    pub alpha: f64,
    /// Whether observed is within `slack` of predicted.
    pub ok: bool,
}

/// Tolerance on `observed - predicted`: the simulation is only a few
/// hundred trials and the scenario's hash family is not the simulator's
/// uniform one, so this is a sanity band, not a confidence interval.
const MC_SLACK: f64 = 0.05;

/// Cross-check an observed Key-Write audit against the Appendix A.5
/// abstract store: at load `alpha = keys_written / real_slots`, the
/// plurality-vote success rate predicted by [`simulate_keywrite`] must be
/// within [`MC_SLACK`] of what the scenario measured.
///
/// The simulation preserves `alpha` but caps the table at 16 Ki slots so a
/// per-cell check stays sub-millisecond; returns `None` when the scenario
/// wrote no Key-Write keys (nothing to check).
pub fn mc_keywrite_check(
    real_slots: u64,
    redundancy: u32,
    keys_written: u64,
    observed_success: f64,
    seed: u64,
) -> Option<McCheck> {
    if keys_written == 0 || real_slots == 0 {
        return None;
    }
    let alpha = keys_written as f64 / real_slots as f64;
    let slots = real_slots.min(16 * 1024);
    let mc = simulate_keywrite(slots, redundancy.max(1), 32, alpha, 300, seed);
    let predicted = mc.success_rate();
    Some(McCheck {
        observed: observed_success,
        predicted,
        slots,
        alpha,
        ok: (observed_success - predicted).abs() <= MC_SLACK,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_green() {
        let s = SweepSummary::default();
        assert!(s.ok());
        assert_eq!(s.cells_run(), 0);
        let json = s.render_json();
        assert!(json.contains("\"schema\": \"dta-sweep/coverage-v1\""));
        assert!(json.contains("\"violations\": 0"));
    }

    #[test]
    fn json_report_carries_files_axes_and_violations() {
        let s = SweepSummary {
            seed: 7,
            sample: Some(4),
            files: vec![FileCoverage {
                file: "scenarios/smoke.toml".into(),
                cells_total: 9,
                cells_run: 4,
                runs: 8,
                axes: vec![("seed".into(), 3), ("mode".into(), 3)],
                invariants: vec!["bit_reproducible".into()],
                checks: 4,
                violations: vec![Violation {
                    file: "scenarios/smoke.toml".into(),
                    cell: "seed=1,mode=single".into(),
                    invariant: "bit_reproducible".into(),
                    detail: "memory fingerprint diverged".into(),
                }],
            }],
        };
        assert!(!s.ok());
        let json = s.render_json();
        assert!(json.contains("\"sample\": 4"));
        assert!(json.contains("\"seed\": 3, \"mode\": 3"));
        assert!(json.contains("\"cell\": \"seed=1,mode=single\""));
        assert!(json.contains("\"violations\": 1"));
    }

    #[test]
    fn json_strings_escape_quotes() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn mc_check_agrees_at_light_load() {
        // 256 keys in 128 Ki slots, N=2: success is essentially certain,
        // and a clean audit (observed 1.0) must pass.
        let c = mc_keywrite_check(1 << 17, 2, 256, 1.0, 42).unwrap();
        assert!(c.predicted > 0.99, "predicted {}", c.predicted);
        assert!(c.ok);
        assert!((c.alpha - 256.0 / 131072.0).abs() < 1e-12);
        assert_eq!(c.slots, 16 * 1024);
    }

    #[test]
    fn mc_check_flags_implausible_audits() {
        // Claiming a 50% audit at a load where ~100% must succeed fails.
        let c = mc_keywrite_check(1 << 17, 2, 256, 0.5, 42).unwrap();
        assert!(!c.ok);
        // And nothing written means nothing to check.
        assert!(mc_keywrite_check(1 << 17, 2, 0, 1.0, 42).is_none());
    }
}
