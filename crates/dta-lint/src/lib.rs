//! `dta-lint` — workspace-local determinism & invariant static analysis.
//!
//! Every guarantee this reproduction makes — bit-identical collector
//! memory across translator modes, ledger-closure identities, seeded
//! reproducibility of `ScenarioReport` — used to be enforced only at
//! runtime, by release suites that need hundreds of proptest cases to
//! trip a nondeterminism bug. This crate moves the *classes* of bug those
//! suites exist to catch up to analysis time: a hand-rolled
//! lexical/structural scan of every `crates/*/src/**/*.rs` file that
//! bans the constructs which make runs irreproducible before they ever
//! reach a seed.
//!
//! The rule catalogue ([`rules::Rule`]) and the `lint.toml` allowlist
//! policy ([`config`]) are documented in DESIGN.md, "Static analysis".
//! Run it locally with `cargo run -p dta-lint -- --check` (CI runs the
//! same command in the `tier1` job and uploads `LINT_report.json`).
//!
//! No crates.io dependencies: the lexer, TOML-subset config parser, and
//! JSON report writer are all local, following the `dta-sim::corpus`
//! precedent.

pub mod config;
pub mod lex;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use config::{parse_allowlist, AllowEntry, ConfigError};
use report::{Finding, Outcome};
use rules::{analyze, code_lines, Diagnostic, FileKind, Rule, SourceFile};

/// What to run: which rules, against which tree, under which allowlist.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workspace root (the directory holding `crates/`).
    pub root: PathBuf,
    /// Allowlist path; `None` runs with an empty allowlist.
    pub allow_path: Option<PathBuf>,
    /// Rules to run (normally [`Rule::ALL`]).
    pub enabled: Vec<Rule>,
}

/// A run-level failure (I/O or config) — distinct from rule diagnostics.
#[derive(Debug)]
pub enum RunError {
    Io(String),
    Config(ConfigError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Io(m) => write!(f, "{m}"),
            RunError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Discover, analyze, and resolve against the allowlist.
pub fn run(opts: &RunOptions) -> Result<Outcome, RunError> {
    let crates_dir = opts.root.join("crates");
    if !crates_dir.is_dir() {
        return Err(RunError::Io(format!(
            "{} has no crates/ directory — pass the workspace root with --root",
            opts.root.display()
        )));
    }
    let files = discover(&opts.root, &crates_dir)?;
    let files_scanned = files.iter().filter(|f| f.kind == FileKind::Analyzed).count();

    let allows = match &opts.allow_path {
        Some(p) if p.exists() => {
            let src = fs::read_to_string(p)
                .map_err(|e| RunError::Io(format!("{}: {e}", p.display())))?;
            parse_allowlist(&p.display().to_string(), &src).map_err(RunError::Config)?
        }
        _ => Vec::new(),
    };

    let mut outcome = resolve(analyze(&files), &allows, &opts.enabled, files_scanned);
    outcome.code_lines = code_lines(&files);
    Ok(outcome)
}

/// Allowlist resolution, separated from I/O so tests can drive it with
/// in-memory diagnostics.
pub fn resolve(
    diags: Vec<Diagnostic>,
    allows: &[AllowEntry],
    enabled: &[Rule],
    files_scanned: usize,
) -> Outcome {
    let mut matched = vec![false; allows.len()];
    let findings: Vec<Finding> = diags
        .into_iter()
        .filter(|d| enabled.contains(&d.rule))
        .map(|diag| {
            let mut reason = None;
            for (i, a) in allows.iter().enumerate() {
                if a.matches(&diag) {
                    matched[i] = true;
                    if reason.is_none() {
                        reason = Some(a.reason.clone());
                    }
                    // keep scanning: every matching entry counts as used
                }
            }
            Finding { diag, allowed_reason: reason }
        })
        .collect();
    // An entry for a rule that did not run cannot prove it still matches;
    // skip its staleness check rather than failing a partial run.
    let stale: Vec<AllowEntry> = allows
        .iter()
        .zip(&matched)
        .filter(|(a, m)| !**m && enabled.contains(&a.rule))
        .map(|(a, _)| a.clone())
        .collect();
    Outcome {
        enabled: enabled.to_vec(),
        files_scanned,
        findings,
        stale,
        allow_entries: allows.len(),
        code_lines: Default::default(),
    }
}

/// Collect every `crates/*/src/**/*.rs` (analyzed) and
/// `crates/*/tests/**/*.rs` (C1 reference corpus) file, in sorted order.
/// `tests/fixtures/` subtrees are excluded: lint fixtures deliberately
/// violate the rules and must be invisible to the real run.
fn discover(root: &Path, crates_dir: &Path) -> Result<Vec<SourceFile>, RunError> {
    let mut files = Vec::new();
    for crate_dir in sorted_dirs(crates_dir)? {
        let name = crate_dir.file_name().unwrap_or_default().to_string_lossy().to_string();
        for (sub, kind) in [("src", FileKind::Analyzed), ("tests", FileKind::TestOnly)] {
            let base = crate_dir.join(sub);
            if !base.is_dir() {
                continue;
            }
            let mut paths = Vec::new();
            walk_rs(&base, &mut paths)?;
            paths.sort();
            for p in paths {
                let src = fs::read_to_string(&p)
                    .map_err(|e| RunError::Io(format!("{}: {e}", p.display())))?;
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                files.push(SourceFile { path: rel, crate_dir: name.clone(), kind, src });
            }
        }
    }
    Ok(files)
}

fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, RunError> {
    let rd = fs::read_dir(dir).map_err(|e| RunError::Io(format!("{}: {e}", dir.display())))?;
    let mut out: Vec<PathBuf> = rd
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), RunError> {
    let rd = fs::read_dir(dir).map_err(|e| RunError::Io(format!("{}: {e}", dir.display())))?;
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}
