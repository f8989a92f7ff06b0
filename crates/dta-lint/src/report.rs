//! Human summary + machine-readable `LINT_report.json`.
//!
//! The JSON writer is hand-rolled (no serde_json in this build
//! environment). Key order is fixed and diagnostics arrive sorted,
//! so the report is byte-stable for a given tree: diffable in CI
//! artifacts.

use std::collections::BTreeMap;

use crate::config::AllowEntry;
use crate::rules::{Diagnostic, Rule};

/// One diagnostic after allowlist resolution.
#[derive(Debug, Clone)]
pub struct Finding {
    pub diag: Diagnostic,
    /// The justification from the matching allowlist entry, when covered.
    pub allowed_reason: Option<String>,
}

impl Finding {
    pub fn allowed(&self) -> bool {
        self.allowed_reason.is_some()
    }
}

/// The full result of a lint run.
#[derive(Debug)]
pub struct Outcome {
    /// Rules that actually ran (after `--skip`/`--only`).
    pub enabled: Vec<Rule>,
    pub files_scanned: usize,
    /// All findings, sorted by file/line/rule.
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched nothing: the site was fixed but the
    /// exemption was kept. Fails `--check`.
    pub stale: Vec<AllowEntry>,
    pub allow_entries: usize,
    /// Shipped code lines per crate ([`crate::rules::code_lines`]): the
    /// number the "least code" aim watches.
    pub code_lines: BTreeMap<String, usize>,
}

impl Outcome {
    /// Findings not covered by the allowlist — what `--check` fails on.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed())
    }

    /// `(violations, allowed)` per enabled rule, zero-filled so the
    /// summary always names every rule that ran.
    pub fn per_rule(&self) -> BTreeMap<Rule, (usize, usize)> {
        let mut m: BTreeMap<Rule, (usize, usize)> =
            self.enabled.iter().map(|r| (*r, (0, 0))).collect();
        for f in &self.findings {
            let e = m.entry(f.diag.rule).or_insert((0, 0));
            if f.allowed() {
                e.1 += 1;
            } else {
                e.0 += 1;
            }
        }
        m
    }

    /// The per-rule violation table printed to the CI log, so a regression
    /// is diagnosable without downloading the report artifact.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "dta-lint: {} files scanned, {} diagnostics ({} allowed), {} stale allowlist entries\n",
            self.files_scanned,
            self.findings.len(),
            self.findings.iter().filter(|f| f.allowed()).count(),
            self.stale.len(),
        ));
        for (rule, (viol, allowed)) in self.per_rule() {
            out.push_str(&format!(
                "  {}  {:<44} {:>3} violation{} ({} allowed)\n",
                rule.id(),
                rule.title(),
                viol,
                if viol == 1 { "" } else { "s" },
                allowed,
            ));
        }
        out.push_str("  code lines (non-blank, non-comment, outside #[cfg(test)]):\n");
        for (krate, lines) in &self.code_lines {
            out.push_str(&format!("    {krate:<16} {lines:>6}\n"));
        }
        out.push_str(&format!("    {:<16} {:>6}\n", "total", self.code_lines.values().sum::<usize>()));
        out
    }

    /// Render `LINT_report.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"dta-lint/report-v1\",\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!(
            "  \"rules_enabled\": [{}],\n",
            self.enabled
                .iter()
                .map(|r| format!("\"{}\"", r.id()))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str("  \"rules\": {\n");
        let per_rule = self.per_rule();
        let mut first = true;
        for (rule, (viol, allowed)) in &per_rule {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            s.push_str(&format!(
                "    \"{}\": {{\"title\": {}, \"violations\": {}, \"allowed\": {}}}",
                rule.id(),
                json_str(rule.title()),
                viol,
                allowed
            ));
        }
        s.push_str("\n  },\n");
        s.push_str(&format!(
            "  \"code_lines\": {{{}}},\n",
            self.code_lines
                .iter()
                .map(|(krate, lines)| format!("{}: {lines}", json_str(krate)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str("  \"diagnostics\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": {}, \"line\": {}, \"allowed\": {}, \
                 \"reason\": {}, \"message\": {}}}{}\n",
                f.diag.rule.id(),
                json_str(&f.diag.file),
                f.diag.line,
                f.allowed(),
                f.allowed_reason.as_deref().map_or("null".to_string(), json_str_owned),
                json_str(&f.diag.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"allowlist\": {\n");
        s.push_str(&format!("    \"entries\": {},\n", self.allow_entries));
        s.push_str("    \"stale\": [\n");
        for (i, e) in self.stale.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"rule\": \"{}\", \"path\": {}, \"line\": {}, \"decl_line\": {}}}{}\n",
                e.rule.id(),
                json_str(&e.path),
                e.line.map_or("null".to_string(), |l| l.to_string()),
                e.decl_line,
                if i + 1 < self.stale.len() { "," } else { "" }
            ));
        }
        s.push_str("    ]\n  }\n}\n");
        s
    }
}

/// Minimal JSON string escaping — paths and messages are ASCII by
/// construction, but escape the structural characters anyway.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_owned(s: &str) -> String {
    json_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_names_every_enabled_rule_even_at_zero() {
        let o = Outcome {
            enabled: Rule::ALL.to_vec(),
            files_scanned: 3,
            findings: vec![],
            stale: vec![],
            allow_entries: 0,
            code_lines: BTreeMap::new(),
        };
        let s = o.summary();
        for r in Rule::ALL {
            assert!(s.contains(r.id()), "summary missing {r}: {s}");
        }
    }

    #[test]
    fn json_escapes_quotes() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
