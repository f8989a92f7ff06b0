//! The rule set: what this workspace bans, where, and why.
//!
//! Every rule is *lexical/structural*: it reasons over the token stream
//! from [`crate::lex`] plus light brace-structure recovery (`#[cfg(test)]`
//! regions, `impl` blocks). There is no type inference — rules D2 and C1
//! use name-based heuristics, documented on each rule, and the `lint.toml`
//! allowlist (see [`crate::config`]) is the escape hatch for the rare
//! deliberate exception. The full catalogue with rationale lives in
//! DESIGN.md, "Static analysis".

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::lex::{lex, Lexed, Token};

/// The six rule families. Stable IDs — `lint.toml` and CLI flags refer to
/// these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No wall-clock (`SystemTime`, `Instant`, `thread::sleep`) in
    /// simulation-facing crates: all time comes from the simulated clock.
    D1,
    /// No `HashMap`/`HashSet` *iteration* in deterministic crates:
    /// iteration order is seeded-random per process. Construction and
    /// point lookup are fine.
    D2,
    /// No `static mut`, `std::process::abort`, `todo!`/`unimplemented!`
    /// outside `#[cfg(test)]`.
    D3,
    /// No ambient randomness (`thread_rng`, `rand::random`,
    /// `RandomState`) outside `#[cfg(test)]`: every random stream is a
    /// seeded, owned RNG.
    D4,
    /// Every `unsafe` block/fn/impl is immediately preceded by a
    /// `// SAFETY:` comment stating the invariant that makes it sound.
    S1,
    /// Every `*Stats` struct's closure-identity method (`closes` /
    /// `*_closes`) is referenced from at least one test.
    C1,
}

impl Rule {
    pub const ALL: [Rule; 6] = [Rule::D1, Rule::D2, Rule::D3, Rule::D4, Rule::S1, Rule::C1];

    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::S1 => "S1",
            Rule::C1 => "C1",
        }
    }

    pub fn title(self) -> &'static str {
        match self {
            Rule::D1 => "wall-clock in simulation-facing crate",
            Rule::D2 => "hash-order iteration in deterministic crate",
            Rule::D3 => "banned construct (static mut / abort / todo)",
            Rule::D4 => "ambient randomness outside tests",
            Rule::S1 => "unsafe without SAFETY comment",
            Rule::C1 => "untested closure-identity method",
        }
    }

    pub fn from_id(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Crates where *all* time must come from the simulated clock (rule D1).
pub const SIM_FACING: [&str; 5] =
    ["dta-sim", "dta-net", "dta-translator", "dta-collector", "dta-reporter"];

/// Crates on the deterministic path to `ScenarioReport`, goldens, or
/// collector memory (rule D2): the sim-facing set plus everything they are
/// built from.
pub const DETERMINISTIC: [&str; 9] = [
    "dta-sim",
    "dta-net",
    "dta-translator",
    "dta-collector",
    "dta-reporter",
    "dta-core",
    "dta-hash",
    "dta-rdma",
    "dta-switch",
];

/// Hash-collection methods whose visit order is the seeded-random bucket
/// order (rule D2).
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// How a file participates in analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A `crates/*/src/**/*.rs` file: all rules run on it.
    Analyzed,
    /// A `crates/*/tests/**/*.rs` file: scanned only as C1's test-reference
    /// corpus (integration tests are all test code by construction).
    TestOnly,
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

/// Run every rule over `files` and return the raw (pre-allowlist)
/// diagnostics, sorted by file, line, rule.
pub fn analyze(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut closes_defs: Vec<ClosesDef> = Vec::new();
    // Every `closes`/`*_closes` identifier seen in test context anywhere
    // in the workspace (cfg(test) modules or tests/ files).
    let mut test_refs: BTreeSet<String> = BTreeSet::new();

    for f in files {
        let lx = lex(&f.src);
        let in_test = test_regions(&lx.tokens);
        match f.kind {
            FileKind::TestOnly => {
                // Only C1 references come from integration-test files.
                for t in &lx.tokens {
                    if is_closes_name(&t.text) {
                        test_refs.insert(t.text.clone());
                    }
                }
            }
            FileKind::Analyzed => {
                for (i, t) in lx.tokens.iter().enumerate() {
                    if in_test[i] && is_closes_name(&t.text) {
                        test_refs.insert(t.text.clone());
                    }
                }
                analyze_file(f, &lx, &in_test, &mut diags, &mut closes_defs);
            }
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
        let lx = lex(&f.src);
        let in_test = test_regions(&lx.tokens);
        let lines: BTreeSet<usize> =
            lx.tokens.iter().zip(&in_test).filter(|(_, t)| !**t).map(|(t, _)| t.line).collect();
        *per_crate.entry(f.crate_dir.clone()).or_insert(0) += lines.len();
    }
    per_crate
}

fn is_closes_name(s: &str) -> bool {
    s == "closes" || s.ends_with("_closes")
}

fn is_ident(t: &Token) -> bool {
    t.text.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
}

/// All single-file rules (D1–D4, S1) plus C1 definition collection.
fn analyze_file(
    f: &SourceFile,
    lx: &Lexed,
    in_test: &[bool],
    diags: &mut Vec<Diagnostic>,
    closes_defs: &mut Vec<ClosesDef>,
) {
    let toks = &lx.tokens;
    let sim_facing = SIM_FACING.contains(&f.crate_dir.as_str());
    let deterministic = DETERMINISTIC.contains(&f.crate_dir.as_str());
    let hash_names = if deterministic { hash_collection_names(toks) } else { BTreeSet::new() };
    let impl_types = impl_spans(toks);
    let src_lines: Vec<&str> = f.src.lines().collect();
    // Lines containing an `unsafe` token (so one SAFETY comment can cover
    // a run of consecutive `unsafe impl` lines).
    let unsafe_lines: BTreeSet<usize> =
        toks.iter().filter(|t| t.is_ident("unsafe")).map(|t| t.line).collect();
    let mut s1_checked: BTreeSet<usize> = BTreeSet::new();

    let push = |diags: &mut Vec<Diagnostic>, rule: Rule, line: usize, message: String| {
        diags.push(Diagnostic { rule, file: f.path.clone(), line, message });
    };

    for (i, t) in toks.iter().enumerate() {
        let test = in_test[i];

        // ---- S1: unsafe must carry a SAFETY comment (tests included —
        // an unsound test is still unsound). -------------------------------
        if t.is_ident("unsafe")
            && s1_checked.insert(t.line)
            && !safety_covered(t.line, &src_lines, &unsafe_lines)
        {
            push(
                diags,
                Rule::S1,
                t.line,
                "`unsafe` without an immediately preceding `// SAFETY:` comment \
                 stating the invariant that makes it sound"
                    .to_string(),
            );
        }

        if test {
            continue; // everything below is exempt under #[cfg(test)]
        }

        // ---- D1: wall-clock in simulation-facing crates ------------------
        if sim_facing {
            if t.is_ident("SystemTime") || t.is_ident("Instant") {
                push(
                    diags,
                    Rule::D1,
                    t.line,
                    format!(
                        "wall-clock `{}` in simulation-facing crate `{}`: \
                         all time must come from the simulated clock",
                        t.text, f.crate_dir
                    ),
                );
            }
            if t.is_ident("sleep") && path_prefix_is(toks, i, "thread") {
                push(
                    diags,
                    Rule::D1,
                    t.line,
                    format!(
                        "`thread::sleep` in simulation-facing crate `{}`: \
                         blocking real time desynchronizes the simulated clock",
                        f.crate_dir
                    ),
                );
            }
        }

        // ---- D2: hash-order iteration ------------------------------------
        if deterministic && is_ident(t) && hash_names.contains(&t.text) {
            if let Some(m) = toks.get(i + 2) {
                if toks[i + 1].text == "." && ITER_METHODS.contains(&m.text.as_str()) {
                    push(
                        diags,
                        Rule::D2,
                        m.line,
                        format!(
                            "`.{}()` on hash collection `{}`: iteration order is \
                             seeded-random; use a BTree container or sort first",
                            m.text, t.text
                        ),
                    );
                }
            }
            // `for pat in [&[mut]] name` — direct IntoIterator use.
            let mut k = i;
            while k > 0 && (toks[k - 1].text == "&" || toks[k - 1].is_ident("mut")) {
                k -= 1;
            }
            if k > 0 && toks[k - 1].is_ident("in") {
                push(
                    diags,
                    Rule::D2,
                    t.line,
                    format!(
                        "`for … in {}` iterates a hash collection: order is \
                         seeded-random; use a BTree container or sort first",
                        t.text
                    ),
                );
            }
        }

        // ---- D3: banned constructs ---------------------------------------
        if t.is_ident("static") && toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            push(
                diags,
                Rule::D3,
                t.line,
                "`static mut` is unsynchronized global state; use an atomic, \
                 a lock, or thread_local"
                    .to_string(),
            );
        }
        if (t.is_ident("todo") || t.is_ident("unimplemented"))
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
        {
            push(
                diags,
                Rule::D3,
                t.line,
                format!("`{}!` outside #[cfg(test)]: unfinished code cannot ship", t.text),
            );
        }
        if t.is_ident("abort") && path_prefix_is(toks, i, "process") {
            push(
                diags,
                Rule::D3,
                t.line,
                "`process::abort` skips destructors and poisons nothing; \
                 panic (or return an error) instead"
                    .to_string(),
            );
        }

        // ---- D4: ambient randomness --------------------------------------
        if t.is_ident("thread_rng") || t.is_ident("RandomState") {
            push(
                diags,
                Rule::D4,
                t.line,
                format!(
                    "`{}` is ambient, unseeded randomness: thread every RNG \
                     from the scenario seed",
                    t.text
                ),
            );
        }
        if t.is_ident("random") && path_prefix_is(toks, i, "rand") {
            push(
                diags,
                Rule::D4,
                t.line,
                "`rand::random` is ambient, unseeded randomness: thread every \
                 RNG from the scenario seed"
                    .to_string(),
            );
        }

        // ---- C1: closure-identity definitions ----------------------------
        if t.is_ident("fn") {
            if let Some(name) = toks.get(i + 1) {
                if is_closes_name(&name.text) {
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
    }
}

/// True when tokens `i-2..i` are `prefix ::` — i.e. token `i` is the last
/// segment of a path ending in `prefix::<tok>`.
fn path_prefix_is(toks: &[Token], i: usize, prefix: &str) -> bool {
    i >= 3
        && toks[i - 1].text == ":"
        && toks[i - 2].text == ":"
        && toks[i - 3].is_ident(prefix)
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

/// Does the `unsafe` on `line` have a SAFETY comment immediately above?
///
/// Walks upward from the line, skipping attribute lines and other
/// `unsafe`-bearing lines (one comment covers a run of consecutive
/// `unsafe impl`s), then requires the contiguous comment block it lands on
/// to contain `SAFETY:` (block comments and `/// # Safety` doc sections
/// also count).
fn safety_covered(line: usize, src_lines: &[&str], unsafe_lines: &BTreeSet<usize>) -> bool {
    let mut cur = line.saturating_sub(1); // 1-based line above
    while cur >= 1 {
        let t = src_lines.get(cur - 1).map(|s| s.trim()).unwrap_or("");
        if t.starts_with("#[") || t == "#" {
            cur -= 1;
            continue;
        }
        if unsafe_lines.contains(&cur) {
            cur -= 1;
            continue;
        }
        // A statement head the unsafe expression continues from (`let x =`,
        // an open call, a tuple element): the comment sits above the
        // statement, not above the wrapped line.
        if t.ends_with('=')
            || t.ends_with('(')
            || t.ends_with(',')
            || t.ends_with("&&")
            || t.ends_with("||")
        {
            cur -= 1;
            continue;
        }
        if t.starts_with("//") || t.ends_with("*/") {
            // Scan the contiguous comment block upward.
            let mut c = cur;
            let mut in_block = t.ends_with("*/") && !t.starts_with("/*");
            while c >= 1 {
                let lt = src_lines.get(c - 1).map(|s| s.trim()).unwrap_or("");
                let is_comment = lt.starts_with("//") || in_block || lt.ends_with("*/");
                if !is_comment {
                    break;
                }
                if lt.contains("SAFETY:") || lt.contains("# Safety") {
                    return true;
                }
                if in_block && lt.starts_with("/*") {
                    in_block = false;
                } else if !in_block && lt.ends_with("*/") && !lt.starts_with("/*") {
                    in_block = true;
                }
                c -= 1;
            }
            return false;
        }
        return false;
    }
    false
}

/// Names declared in this file as `HashMap`/`HashSet` (fields, params, and
/// `let name = Hash…::…` bindings). Purely lexical: a same-named `Vec`
/// elsewhere in the file would be over-flagged, which errs strict and is
/// what the allowlist is for.
fn hash_collection_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over `std :: collections ::`-style path segments, then
        // over reference sigils (`name: &mut HashMap<…>` is a declaration
        // too — iteration through the borrow is just as order-random).
        let mut k = i;
        while k >= 3 && toks[k - 1].text == ":" && toks[k - 2].text == ":" && is_ident(&toks[k - 3])
        {
            k -= 3;
        }
        while k >= 1 && (toks[k - 1].text == "&" || toks[k - 1].is_ident("mut")) {
            k -= 1;
        }
        if k >= 2 && toks[k - 1].text == ":" && is_ident(&toks[k - 2]) {
            // `name: [path::]HashMap<…>` — field, param, or typed let.
            names.insert(toks[k - 2].text.clone());
            continue;
        }
        // `let [mut] name = HashMap::new()` and friends.
        if i >= 2 && toks[i - 1].text == "=" && is_ident(&toks[i - 2]) {
            let n = &toks[i - 2];
            if !n.is_ident("mut") {
                names.insert(n.text.clone());
            }
        }
    }
    names
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
    fn d1_only_in_sim_facing_crates() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_hit("dta-collector", src), vec![Rule::D1, Rule::D1]);
        assert_eq!(rules_hit("bench", src), vec![]);
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
    fn d1_exempt_under_cfg_test() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::time::Instant;\n  fn f() { let _ = Instant::now(); }\n}\n";
        assert_eq!(rules_hit("dta-sim", src), vec![]);
    }

    #[test]
    fn d2_flags_iteration_not_lookup() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u32, u32> }\n\
                   impl S {\n\
                     fn ok(&self) -> Option<&u32> { self.m.get(&1) }\n\
                     fn bad(&self) -> Vec<u32> { self.m.keys().copied().collect() }\n\
                   }\n";
        assert_eq!(rules_hit("dta-translator", src), vec![Rule::D2]);
    }

    #[test]
    fn d2_for_loop_over_set() {
        let src = "use std::collections::HashSet;\n\
                   fn f(used: &HashSet<u64>) { for x in used { drop(x); } }\n";
        assert_eq!(rules_hit("dta-rdma", src), vec![Rule::D2]);
    }

    #[test]
    fn d3_and_d4_everywhere() {
        let src = "static mut COUNTER: u32 = 0;\nfn f() { todo!() }\n";
        assert_eq!(rules_hit("bench", src), vec![Rule::D3, Rule::D3]);
        let src2 = "fn f() -> u32 { rand::random() }\n";
        assert_eq!(rules_hit("dta-analysis", src2), vec![Rule::D4]);
    }

    #[test]
    fn s1_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(rules_hit("dta-core", bad), vec![Rule::S1]);
        let good = "fn f(p: *const u8) -> u8 {\n  // SAFETY: caller guarantees p is valid.\n  unsafe { *p }\n}\n";
        assert_eq!(rules_hit("dta-core", good), vec![]);
    }

    #[test]
    fn s1_one_comment_covers_unsafe_impl_run() {
        let src = "// SAFETY: stripe access is guarded by per-stripe locks.\n\
                   unsafe impl Sync for S {}\n\
                   unsafe impl Send for S {}\n";
        assert_eq!(rules_hit("dta-rdma", src), vec![]);
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
