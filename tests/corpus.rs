//! The `scenarios/` corpus as a test: every cell of every file runs and is
//! checked against the invariants its file declares
//! ([`dta_bench::invariants::check_file`], the check the `sweep` binary
//! runs), and the corpus keeps the shape the suites rely on.

use std::path::Path;

use dta_bench::invariants::check_file;
use dta_sim::{load_dir, Axis, CorpusDoc, Invariant, ScenarioSpec};

fn load_corpus() -> Vec<CorpusDoc> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let docs = load_dir(&dir).expect("every corpus file must parse and validate");
    assert!(!docs.is_empty(), "scenarios/ must not be empty");
    docs
}

/// Every file parses and validates (`load_dir` runs `validate()` on the
/// base spec and every expanded cell) and declares at least one invariant;
/// `default.toml` overrides nothing; the corpus carries a >= 64-cell
/// seed×fault×mode grid that checks cross-mode memory; and at least four
/// files check cross-mode memory at all.
#[test]
fn corpus_conforms() {
    let docs = load_corpus();
    let default = docs.iter().find(|d| d.file.ends_with("default.toml")).expect("default.toml");
    assert_eq!(default.spec, ScenarioSpec::default(), "default.toml overrides a default");
    for doc in &docs {
        assert!(doc.invariants.any(), "{}: a corpus file with no invariants checks nothing", doc.file);
    }
    let cross_mode = |d: &CorpusDoc| d.invariants.contains(Invariant::CrossModeMemoryEqual);
    let grid = docs
        .iter()
        .find(|d| {
            d.cell_count() >= 64
                && d.sweep.iter().any(|a| matches!(a, Axis::Seed(_)))
                && d.sweep.iter().any(|a| matches!(a, Axis::Mode(_)))
                && d.sweep.iter().any(|a| {
                    matches!(a, Axis::Drop(_) | Axis::Reorder(_) | Axis::Duplicate(_))
                })
        })
        .expect("corpus must carry a >= 64-cell seed×fault×mode grid");
    assert!(cross_mode(grid), "{}: the acceptance grid must check cross-mode memory", grid.file);
    let declared = docs.iter().filter(|d| cross_mode(d)).count();
    assert!(declared >= 4, "expected >= 4 files to check cross-mode memory, got {declared}");
}

/// Every cell of every corpus file keeps every invariant its file declares.
#[test]
fn every_corpus_cell_keeps_its_invariants() {
    for doc in load_corpus() {
        let cov = check_file(&doc);
        assert!(cov.checks > 0, "{}: nothing was checked", doc.file);
        let violations: Vec<String> = cov
            .violations
            .iter()
            .map(|v| format!("[{}] {}: {}", v.cell, v.invariant, v.detail))
            .collect();
        assert!(violations.is_empty(), "{}:\n{}", doc.file, violations.join("\n"));
    }
}
