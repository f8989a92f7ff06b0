//! Human summary + machine-readable `LINT_report.json`.
//!
//! The JSON writer is hand-rolled (no serde_json in this build
//! environment). Key order is fixed and diagnostics arrive sorted,
//! so the report is byte-stable for a given tree: diffable in CI
//! artifacts.

use std::collections::BTreeMap;

use crate::rules::{Diagnostic, Rule};

/// The full result of a lint run.
#[derive(Debug)]
pub struct Outcome {
    pub files_scanned: usize,
    /// Every diagnostic, sorted by file/line/rule — what `--check` fails on.
    pub diagnostics: Vec<Diagnostic>,
    /// Shipped code lines per crate ([`crate::rules::code_lines`]): the
    /// number the "least code" aim watches.
    pub code_lines: BTreeMap<String, usize>,
    /// `pub` items per crate that no other file's shipped code names, as
    /// `(file, name)` ([`crate::rules::unreferenced_pub`]): the "least
    /// surface" list. The report carries its lengths.
    pub unreferenced_pub: BTreeMap<String, Vec<(String, String)>>,
}

impl Outcome {
    /// Violations per rule, zero-filled so the summary always names both.
    fn per_rule(&self) -> BTreeMap<Rule, usize> {
        let mut m: BTreeMap<Rule, usize> = Rule::ALL.iter().map(|r| (*r, 0)).collect();
        for d in &self.diagnostics {
            *m.entry(d.rule).or_insert(0) += 1;
        }
        m
    }

    /// The per-rule violation table, the per-crate `code_lines` table and
    /// the `unreferenced_pub` counts with every name (`crate  path  name`)
    /// under its crate's count, printed to the CI log, so a regression is
    /// diagnosable without downloading the report artifact.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "dta-lint: {} files scanned, {} diagnostics\n",
            self.files_scanned,
            self.diagnostics.len(),
        );
        for (rule, viol) in self.per_rule() {
            out.push_str(&format!(
                "  {}  {:<36} {:>3} violation{}\n",
                rule.id(),
                rule.title(),
                viol,
                if viol == 1 { "" } else { "s" },
            ));
        }
        out.push_str("  code lines (non-blank, non-comment, outside #[cfg(test)]):\n");
        for (krate, n) in &self.code_lines {
            out.push_str(&format!("    {krate:<16} {n:>6}\n"));
        }
        out.push_str(&format!("    {:<16} {:>6}\n", "total", self.code_lines.values().sum::<usize>()));
        out.push_str("  unreferenced pub items (no other file's non-test code names them):\n");
        for (krate, names) in &self.unreferenced_pub {
            out.push_str(&format!("    {krate:<16} {:>6}\n", names.len()));
            for (path, name) in names {
                out.push_str(&format!("      {krate}  {path}  {name}\n"));
            }
        }
        let total: usize = self.unreferenced_pub.values().map(Vec::len).sum();
        out.push_str(&format!("    {:<16} {total:>6}\n", "total"));
        out
    }

    /// Render `LINT_report.json`.
    pub fn to_json(&self) -> String {
        let rules: Vec<String> = self
            .per_rule()
            .iter()
            .map(|(rule, viol)| {
                format!(
                    "    \"{}\": {{\"title\": {}, \"violations\": {viol}}}",
                    rule.id(),
                    json_str(rule.title())
                )
            })
            .collect();
        let per_crate = |table: &BTreeMap<String, usize>| -> String {
            let cells: Vec<String> =
                table.iter().map(|(krate, n)| format!("{}: {n}", json_str(krate))).collect();
            cells.join(", ")
        };
        let unreferenced: BTreeMap<String, usize> =
            self.unreferenced_pub.iter().map(|(krate, names)| (krate.clone(), names.len())).collect();
        let diagnostics: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "    {{\"rule\": \"{}\", \"file\": {}, \"line\": {}, \"message\": {}}}",
                    d.rule.id(),
                    json_str(&d.file),
                    d.line,
                    json_str(&d.message)
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"dta-lint/report-v3\",\n  \"files_scanned\": {},\n  \
             \"rules\": {{\n{}\n  }},\n  \"code_lines\": {{{}}},\n  \
             \"unreferenced_pub\": {{{}}},\n  \"diagnostics\": [\n{}{}  ]\n}}\n",
            self.files_scanned,
            rules.join(",\n"),
            per_crate(&self.code_lines),
            per_crate(&unreferenced),
            diagnostics.join(",\n"),
            if diagnostics.is_empty() { "" } else { "\n" },
        )
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_names_both_rules_even_at_zero() {
        let o = Outcome {
            files_scanned: 3,
            diagnostics: vec![],
            code_lines: BTreeMap::new(),
            unreferenced_pub: BTreeMap::new(),
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
