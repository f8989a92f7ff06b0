//! What `dta-lint` still checks: the two properties no rustc or clippy lint
//! can express, plus the per-crate `code_lines` and `unreferenced_pub`
//! counts.
//!
//! Both rules are *lexical/structural*: they reason over the token stream
//! from [`crate::lex`] plus light brace-structure recovery (`#[cfg(test)]`
//! regions, `impl` blocks); C1 is a name-based heuristic, documented on the
//! rule. Everything type-resolved — wall clock, hash-order iteration,
//! ambient randomness, SAFETY comments, `todo!`/`abort` — is clippy's
//! (`clippy.toml` and `[workspace.lints.clippy]`); the rule → mechanism
//! table lives in DESIGN.md, "Static analysis".

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::lex::{lex, Token};

/// The two rules, under the IDs they have carried since PR 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `static mut` outside `#[cfg(test)]`: no rustc or clippy lint
    /// forbids the declaration (`static_mut_refs` sees only references).
    D3,
    /// Every `*Stats` struct's closure-identity method (`closes` /
    /// `*_closes`) is referenced from at least one test.
    C1,
}

impl Rule {
    pub const ALL: [Rule; 2] = [Rule::D3, Rule::C1];

    pub fn id(self) -> &'static str {
        match self {
            Rule::D3 => "D3",
            Rule::C1 => "C1",
        }
    }

    pub fn title(self) -> &'static str {
        match self {
            Rule::D3 => "static mut outside tests",
            Rule::C1 => "untested closure-identity method",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How a file participates in analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A `crates/*/src/**/*.rs` file: both rules run on it.
    Analyzed,
    /// A `crates/*/tests/**/*.rs` file: scanned only as C1's test-reference
    /// corpus (integration tests are all test code by construction).
    TestOnly,
    /// Shipped code outside `crates/*/src` (a crate's `examples/`, the root
    /// `src/` and `examples/`, `benchmark/src`): scanned only for the names
    /// it uses, as callers in [`unreferenced_pub`].
    Caller,
}

/// One input file, already read.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes (the diagnostic anchor).
    pub path: String,
    /// The `crates/<dir>` the file belongs to, e.g. `dta-collector`.
    pub crate_dir: String,
    pub kind: FileKind,
    pub src: String,
}

/// One finding: `file:line: RULE: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: Rule,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// A closure-identity method definition awaiting a test reference (C1).
#[derive(Debug)]
struct ClosesDef {
    file: String,
    line: usize,
    impl_type: String,
    method: String,
}

/// Run both rules over `files`; diagnostics come back sorted by file, line,
/// rule.
pub fn analyze(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut closes_defs: Vec<ClosesDef> = Vec::new();
    // Every `closes`/`*_closes` identifier seen in test context anywhere
    // in the workspace (cfg(test) modules or tests/ files).
    let mut test_refs: BTreeSet<String> = BTreeSet::new();

    for f in files {
        let toks = lex(&f.src);
        let in_test = test_regions(&toks);
        match f.kind {
            FileKind::TestOnly => {
                // Only C1 references come from integration-test files.
                for t in &toks {
                    if is_closes_name(&t.text) {
                        test_refs.insert(t.text.clone());
                    }
                }
            }
            FileKind::Analyzed => {
                for (i, t) in toks.iter().enumerate() {
                    if in_test[i] && is_closes_name(&t.text) {
                        test_refs.insert(t.text.clone());
                    }
                }
                analyze_file(f, &toks, &in_test, &mut diags, &mut closes_defs);
            }
            FileKind::Caller => {}
        }
    }

    for d in closes_defs {
        if !test_refs.contains(&d.method) {
            diags.push(Diagnostic {
                rule: Rule::C1,
                file: d.file,
                line: d.line,
                message: format!(
                    "`{}::{}` is a closure identity no test ever checks; \
                     reference it from a test or it is dead accounting",
                    d.impl_type, d.method
                ),
            });
        }
    }

    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule))
    });
    diags
}

/// Per-crate `code_lines`: source lines of `src/` files that carry at
/// least one code token (identifier or punctuation) outside `#[cfg(test)]`
/// items. Blank lines, comment-only lines, the interior lines of a
/// multi-line literal, and unit-test modules all count for nothing, so the
/// number moves only when shipped code is added or removed.
pub fn code_lines(files: &[SourceFile]) -> BTreeMap<String, usize> {
    let mut per_crate = BTreeMap::new();
    for f in files.iter().filter(|f| f.kind == FileKind::Analyzed) {
        let toks = lex(&f.src);
        let in_test = test_regions(&toks);
        let lines: BTreeSet<usize> =
            toks.iter().zip(&in_test).filter(|(_, t)| !**t).map(|(t, _)| t.line).collect();
        *per_crate.entry(f.crate_dir.clone()).or_insert(0) += lines.len();
    }
    per_crate
}

/// Per-crate `unreferenced_pub`: `pub` fns, structs, enums, consts and
/// statics declared in `src/` outside `#[cfg(test)]` whose name no *other*
/// file's non-test code mentions — surface that only its own file (or only
/// tests) can be using. Name-based like C1: a common name (`new`, `len`)
/// is always "referenced", so the count is a floor, and it is the
/// direction that matters. `pub(crate)` and `pub(super)` items are not
/// surface; a declaration's own name token is not a mention. Each crate
/// maps to its `(file, name)` pairs in discovery order, so the summary can
/// say which names, and the count is the list's length.
pub fn unreferenced_pub(files: &[SourceFile]) -> BTreeMap<String, Vec<(String, String)>> {
    const ITEM: [&str; 5] = ["fn", "struct", "enum", "const", "static"];
    const QUALIFIER: [&str; 4] = ["const", "unsafe", "async", "extern"];
    let is_any =
        |t: Option<&Token>, set: &[&str]| t.is_some_and(|t| set.iter().any(|k| t.is_ident(k)));

    // name -> the first file mentioning it, and whether a second one does.
    let mut mentions: BTreeMap<String, (usize, bool)> = BTreeMap::new();
    // (file, crate, name) per `pub` declaration.
    let mut decls: Vec<(usize, &str, String)> = Vec::new();
    for (fi, f) in files.iter().enumerate().filter(|(_, f)| f.kind != FileKind::TestOnly) {
        let toks = lex(&f.src);
        let in_test = test_regions(&toks);
        for i in (0..toks.len()).filter(|i| !in_test[*i]) {
            let t = &toks[i];
            if is_ident(t) && !(i > 0 && is_any(toks.get(i - 1), &ITEM)) {
                let seen = mentions.entry(t.text.clone()).or_insert((fi, false));
                seen.1 |= seen.0 != fi;
            }
            if f.kind != FileKind::Analyzed || !t.is_ident("pub") {
                continue;
            }
            let mut j = i + 1;
            while is_any(toks.get(j), &QUALIFIER)
                && (is_any(toks.get(j + 1), &QUALIFIER) || is_any(toks.get(j + 1), &["fn"]))
            {
                j += 1;
            }
            if !is_any(toks.get(j), &ITEM) {
                continue;
            }
            if let Some(name) = toks.get(j + 1).filter(|n| is_ident(n) && n.text != "_") {
                decls.push((fi, &f.crate_dir, name.text.clone()));
            }
        }
    }

    let mut per_crate: BTreeMap<String, Vec<(String, String)>> = files
        .iter()
        .filter(|f| f.kind == FileKind::Analyzed)
        .map(|f| (f.crate_dir.clone(), Vec::new()))
        .collect();
    for (fi, krate, name) in decls {
        let elsewhere = mentions.get(&name).is_some_and(|(first, more)| *more || *first != fi);
        if !elsewhere {
            per_crate
                .get_mut(krate)
                .expect("every analyzed crate has a row")
                .push((files[fi].path.clone(), name));
        }
    }
    per_crate
}

fn is_closes_name(s: &str) -> bool {
    s == "closes" || s.ends_with("_closes")
}

fn is_ident(t: &Token) -> bool {
    t.text.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
}

/// The `static mut` ban plus C1 definition collection.
fn analyze_file(
    f: &SourceFile,
    toks: &[Token],
    in_test: &[bool],
    diags: &mut Vec<Diagnostic>,
    closes_defs: &mut Vec<ClosesDef>,
) {
    let impl_types = impl_spans(toks);
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let next = toks.get(i + 1);
        if t.is_ident("static") && next.is_some_and(|n| n.is_ident("mut")) {
            diags.push(Diagnostic {
                rule: Rule::D3,
                file: f.path.clone(),
                line: t.line,
                message: "`static mut` is unsynchronized global state; use an atomic, \
                          a lock, or thread_local"
                    .to_string(),
            });
        }
        if let Some(name) = next.filter(|n| t.is_ident("fn") && is_closes_name(&n.text)) {
            if let Some(ty) = impl_stats_type_at(&impl_types, i) {
                closes_defs.push(ClosesDef {
                    file: f.path.clone(),
                    line: name.line,
                    impl_type: ty,
                    method: name.text.clone(),
                });
            }
        }
    }
}

/// Token-index ranges covered by `#[cfg(test)]` (exact attribute match —
/// the workspace convention; `cfg_attr`/`all(test, …)` forms are not
/// recognized and would simply keep their items in scope, which errs
/// strict).
fn test_regions(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].text == "("
            && toks[i + 4].is_ident("test")
            && toks[i + 5].text == ")"
            && toks[i + 6].text == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // Skip any further attributes on the same item.
        while j < toks.len() && toks[j].text == "#" {
            j = skip_attr(toks, j);
        }
        // The item runs to its opening brace's close, or to a bare `;`.
        let mut depth = 0usize;
        let mut end = toks.len();
        for (k, t) in toks.iter().enumerate().skip(j) {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end = k + 1;
                    break;
                }
                _ => {}
            }
        }
        for m in mask.iter_mut().take(end).skip(i) {
            *m = true;
        }
        i = end;
    }
    mask
}

/// Skip one `#[…]` attribute starting at the `#` token; returns the index
/// past its closing `]`.
fn skip_attr(toks: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if toks.get(j).map(|t| t.text.as_str()) != Some("[") {
        return i + 1;
    }
    let mut depth = 0usize;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// `(start_token, end_token, type_name)` for every `impl` block.
fn impl_spans(toks: &[Token]) -> Vec<(usize, usize, String)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip the generic parameter list, if any.
        if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
            let mut depth = 0usize;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Collect the header up to the opening brace; the self type is the
        // last path segment before `<`/`where`, after `for` when present.
        let mut header: Vec<&Token> = Vec::new();
        let mut angle = 0usize;
        let mut body_open = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle = angle.saturating_sub(1),
                "{" if angle == 0 => {
                    body_open = Some(j);
                    break;
                }
                ";" if angle == 0 => break, // e.g. a macro'd `impl …;`
                _ if angle == 0 => header.push(&toks[j]),
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j + 1;
            continue;
        };
        let after_for = header.iter().rposition(|t| t.is_ident("for"));
        let slice = match after_for {
            Some(p) => &header[p + 1..],
            None => &header[..],
        };
        let name = slice
            .iter()
            .take_while(|t| !t.is_ident("where"))
            .filter(|t| is_ident(t))
            .last()
            .map(|t| t.text.clone())
            .unwrap_or_default();
        // Find the body's closing brace.
        let mut depth = 0usize;
        let mut k = open;
        let mut close = toks.len();
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        spans.push((open, close, name));
        i = open + 1; // nested impls are rare; rescan inside is harmless
    }
    spans
}

/// The `*Stats` type whose `impl` body contains token index `i`, if any.
/// Inner spans win over outer ones (spans are pushed outermost-first).
fn impl_stats_type_at(spans: &[(usize, usize, String)], i: usize) -> Option<String> {
    spans
        .iter()
        .rfind(|(s, e, ty)| i > *s && i < *e && ty.ends_with("Stats"))
        .map(|(_, _, ty)| ty.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_dir: &str, src: &str) -> SourceFile {
        SourceFile {
            path: format!("crates/{crate_dir}/src/test_input.rs"),
            crate_dir: crate_dir.to_string(),
            kind: FileKind::Analyzed,
            src: src.to_string(),
        }
    }

    fn rules_hit(crate_dir: &str, src: &str) -> Vec<Rule> {
        analyze(&[file(crate_dir, src)]).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn code_lines_skip_blanks_comments_and_test_modules() {
        let src = "// header\n\nfn f() {\n    g(); // trailing\n}\n/* block\n   comment */\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let mut t = file("dta-sim", src);
        t.kind = FileKind::TestOnly;
        let counts = code_lines(&[file("dta-sim", src), file("dta-net", "fn h() {}\n"), t]);
        assert_eq!(counts["dta-sim"], 3, "fn f, its body line, its closing brace");
        assert_eq!(counts["dta-net"], 1);
    }

    #[test]
    fn unreferenced_pub_counts_names_no_other_shipped_file_mentions() {
        let lib = file(
            "dta-core",
            "pub fn used() {}\npub fn lonely() { used(); }\npub(crate) fn inner() {}\n\
             pub const fn konst() {}\npub const LIMIT: u8 = 1;\npub struct Orphan;\n\
             #[cfg(test)]\nmod tests { pub fn helper() {} }\n",
        );
        // A caller's declaration of the same name, its test module and a
        // tests/ file are not mentions; its shipped code is.
        let mut caller = file(
            "bench",
            "fn konst() {}\nfn main() { used(); let _ = LIMIT; }\n\
             #[cfg(test)]\nmod tests { fn t() { lonely(); } }\n",
        );
        caller.kind = FileKind::Caller;
        let mut t = file("dta-core", "fn t() { Orphan; }\n");
        t.kind = FileKind::TestOnly;
        let names = unreferenced_pub(&[lib, caller, t, file("dta-net", "pub(crate) fn f() {}\n")]);
        let listed: Vec<&str> = names["dta-core"].iter().map(|(_, name)| name.as_str()).collect();
        assert_eq!(listed, ["lonely", "konst", "Orphan"]);
        assert_eq!(names["dta-core"][0].0, "crates/dta-core/src/test_input.rs");
        assert!(names["dta-net"].is_empty(), "every analyzed crate has a row");
        assert!(!names.contains_key("bench"), "callers declare no surface");
    }

    #[test]
    fn c1_untested_closes_is_flagged_and_test_ref_clears_it() {
        let untested = "pub struct FooStats { a: u64 }\n\
                        impl FooStats { pub fn ledger_closes(&self) -> bool { self.a == 0 } }\n";
        assert_eq!(rules_hit("dta-reporter", untested), vec![Rule::C1]);

        let tested = format!(
            "{untested}#[cfg(test)]\nmod tests {{\n  #[test]\n  fn t() {{ assert!(super::FooStats {{ a: 0 }}.ledger_closes()); }}\n}}\n"
        );
        assert_eq!(rules_hit("dta-reporter", &tested), vec![]);
    }

    #[test]
    fn c1_reference_from_integration_test_file() {
        let lib = file(
            "dta-reporter",
            "pub struct BarStats;\nimpl BarStats { pub fn closes(&self) -> bool { true } }\n",
        );
        let t = SourceFile {
            path: "crates/dta-sim/tests/suite.rs".into(),
            crate_dir: "dta-sim".into(),
            kind: FileKind::TestOnly,
            src: "fn t() { assert!(stats.closes()); }".into(),
        };
        assert_eq!(analyze(&[lib.clone(), t]).len(), 0);
        assert_eq!(analyze(&[lib]).len(), 1);
    }

    #[test]
    fn c1_ignores_non_stats_impls() {
        let src = "pub struct Door;\nimpl Door { pub fn closes(&self) -> bool { true } }\n";
        assert_eq!(rules_hit("dta-core", src), vec![]);
    }
}
