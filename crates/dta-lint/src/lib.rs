//! `dta-lint` — what the toolchain cannot see.
//!
//! The determinism bans this reproduction rests on — no wall clock, no
//! hash-order iteration, no ambient randomness, a `// SAFETY:` comment on
//! every `unsafe` — are clippy's, configured once in `clippy.toml` and
//! `[workspace.lints.clippy]` and escaped only through
//! `#[expect(clippy::…, reason = "…")]`. This crate keeps the three things
//! no rustc or clippy lint expresses, over a hand-rolled lexer and
//! `#[cfg(test)]`-region recovery: closure identities referenced from a
//! test (C1), the `static mut` ban (D3), and the per-crate `code_lines`
//! and `unreferenced_pub` tables. DESIGN.md, "Static analysis", maps every
//! rule to its mechanism.
//!
//! Run it with `cargo run -p dta-lint -- --check` (CI does, in the `tier1`
//! job, and uploads `LINT_report.json`). There is no escape hatch: a
//! finding is fixed, not allowed.

pub mod lex;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use report::Outcome;
use rules::{analyze, code_lines, unreferenced_pub, FileKind, SourceFile};

/// Discover and analyze every crate under `root` (the directory holding
/// `crates/`). `Err` is an I/O failure, distinct from rule diagnostics.
pub fn run(root: &Path) -> Result<Outcome, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "{} has no crates/ directory — pass the workspace root with --root",
            root.display()
        ));
    }
    let files = discover(root, &crates_dir)?;
    Ok(Outcome {
        files_scanned: files.iter().filter(|f| f.kind == FileKind::Analyzed).count(),
        diagnostics: analyze(&files),
        code_lines: code_lines(&files),
        unreferenced_pub: unreferenced_pub(&files),
    })
}

/// Collect every `crates/*/src/**/*.rs` (analyzed),
/// `crates/*/tests/**/*.rs` (C1 reference corpus) and caller file (a
/// crate's `examples/` and `benches/`, the root package, `benchmark/src`),
/// in sorted order. `tests/fixtures/` subtrees are excluded: lint fixtures
/// deliberately violate the rules and must be invisible to the real run.
fn discover(root: &Path, crates_dir: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    let mut collect = |base: PathBuf, crate_dir: &str, kind: FileKind| -> Result<(), String> {
        if !base.is_dir() {
            return Ok(());
        }
        let mut paths = Vec::new();
        walk_rs(&base, &mut paths)?;
        paths.sort();
        for p in paths {
            let src = fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile { path: rel, crate_dir: crate_dir.to_string(), kind, src });
        }
        Ok(())
    };
    for crate_dir in sorted_dirs(crates_dir)? {
        let name = crate_dir.file_name().unwrap_or_default().to_string_lossy().to_string();
        for (sub, kind) in [
            ("src", FileKind::Analyzed),
            ("tests", FileKind::TestOnly),
            ("examples", FileKind::Caller),
            ("benches", FileKind::Caller),
        ] {
            collect(crate_dir.join(sub), &name, kind)?;
        }
    }
    for outside in ["src", "examples", "benchmark/src"] {
        collect(root.join(outside), "", FileKind::Caller)?;
    }
    Ok(files)
}

fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out: Vec<PathBuf> = rd
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
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
