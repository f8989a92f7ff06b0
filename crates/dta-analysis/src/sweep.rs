//! Corpus-sweep coverage aggregation.
//!
//! `dta_bench::invariants::check_file` expands a corpus file's grid, runs
//! every cell, and checks the file's declared invariants; the `sweep`
//! binary and the root `tests/corpus.rs` both call it. This module holds
//! the result model it fills — per-file coverage, violations, the
//! machine-readable JSON report — and the check that ties an observed
//! Key-Write audit back to the Appendix A.5 closed form
//! [`kw_success_rate`] at the same load.
//!
//! The JSON renderer is hand-rolled — the build environment has no serde.

use crate::keywrite::kw_success_rate;

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
    /// Cells the file's grid expands to (every one is run).
    pub cells_total: u64,
    /// Scenario executions (> `cells_total` when `bit_reproducible` doubles
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

/// A whole sweep: every file's coverage.
#[derive(Debug, Clone, Default)]
pub struct SweepSummary {
    /// Per-file coverage, corpus order.
    pub files: Vec<FileCoverage>,
}

impl SweepSummary {
    /// Total cells run across the corpus.
    pub fn cells_run(&self) -> u64 {
        self.files.iter().map(|f| f.cells_total).sum()
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
        s.push_str("{\n  \"schema\": \"dta-sweep/coverage-v2\",\n");
        writeln!(s, "  \"cells_run\": {},", self.cells_run()).unwrap();
        writeln!(s, "  \"runs\": {},", self.runs()).unwrap();
        writeln!(s, "  \"checks\": {},", self.checks()).unwrap();
        writeln!(s, "  \"violations\": {},", self.violations().count()).unwrap();
        s.push_str("  \"files\": [\n");
        for (i, f) in self.files.iter().enumerate() {
            s.push_str("    {\n");
            writeln!(s, "      \"file\": {},", json_str(&f.file)).unwrap();
            writeln!(s, "      \"cells_total\": {},", f.cells_total).unwrap();
            // Every cell runs; the key keeps each file entry as v1 wrote it.
            writeln!(s, "      \"cells_run\": {},", f.cells_total).unwrap();
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

/// Tolerance on `observed - predicted`: a scenario audits a few hundred
/// keys, so this is a sanity band, not a confidence interval.
const BOUND_SLACK: f64 = 0.05;

/// Check an observed Key-Write audit against the Appendix A.5 closed form:
/// at load `alpha = keys_written / slots` the success rate
/// [`kw_success_rate`] predicts must be within [`BOUND_SLACK`] of the
/// `observed` one. Returns the violation's detail, or `None` when the audit
/// is within the band or the scenario wrote no Key-Write keys.
pub fn kw_audit_vs_bound(
    slots: u64,
    redundancy: u32,
    keys_written: u64,
    observed: f64,
) -> Option<String> {
    if keys_written == 0 || slots == 0 {
        return None;
    }
    let alpha = keys_written as f64 / slots as f64;
    let predicted = kw_success_rate(redundancy.max(1), 32, alpha);
    ((observed - predicted).abs() > BOUND_SLACK).then(|| {
        format!(
            "observed {observed:.4} vs predicted {predicted:.4} (alpha {alpha:.5}, {keys_written} keys)"
        )
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
        assert!(json.contains("\"schema\": \"dta-sweep/coverage-v2\""));
        assert!(json.contains("\"violations\": 0"));
    }

    #[test]
    fn json_report_carries_files_axes_and_violations() {
        let s = SweepSummary {
            files: vec![FileCoverage {
                file: "scenarios/smoke.toml".into(),
                cells_total: 9,
                runs: 18,
                axes: vec![("seed".into(), 3), ("mode".into(), 3)],
                invariants: vec!["bit_reproducible".into()],
                checks: 9,
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
        assert!(json.contains("\"cells_run\": 9"));
        assert!(json.contains("\"seed\": 3, \"mode\": 3"));
        assert!(json.contains("\"cell\": \"seed=1,mode=single\""));
        assert!(json.contains("\"violations\": 1"));
    }

    #[test]
    fn json_strings_escape_quotes() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn bound_check_agrees_at_light_load() {
        // 256 keys in 128 Ki slots, N=2: success is essentially certain,
        // and a clean audit (observed 1.0) must pass.
        let predicted = kw_success_rate(2, 32, 256.0 / 131072.0);
        assert!(predicted > 0.99, "predicted {predicted}");
        assert_eq!(kw_audit_vs_bound(1 << 17, 2, 256, 1.0), None);
    }

    #[test]
    fn bound_check_flags_implausible_audits() {
        // Claiming a 50% audit at a load where ~100% must succeed fails.
        let detail = kw_audit_vs_bound(1 << 17, 2, 256, 0.5).expect("a violation");
        assert_eq!(detail, "observed 0.5000 vs predicted 1.0000 (alpha 0.00195, 256 keys)");
        // And nothing written means nothing to check.
        assert_eq!(kw_audit_vs_bound(1 << 17, 2, 0, 1.0), None);
    }
}
