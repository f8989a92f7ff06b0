//! Corpus conformance: the `scenarios/` tree is a first-class test input.
//!
//! Always-on (debug) checks parse + validate every corpus file (the
//! presets `ScenarioSpec::preset` embeds included) and pin the empty
//! `default.toml` to `ScenarioSpec::default()`; the release-gated half
//! actually runs cells — per-file smoke cells twice
//! for bit-reproducibility, and every cell of files declaring the
//! `cross_mode_memory_equal` invariant for single-vs-sharded memory equality.

use std::path::{Path, PathBuf};

use dta_sim::{load_dir, Axis, CorpusDoc, ScenarioSpec};
#[cfg(not(debug_assertions))]
use dta_sim::{memory_fingerprint, run_scenario};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn load_corpus() -> Vec<CorpusDoc> {
    let docs = load_dir(&corpus_dir()).expect("every corpus file must parse and validate");
    assert!(!docs.is_empty(), "scenarios/ must not be empty");
    docs
}

/// Every file parses, validates (`load_dir` runs `validate()` on the base
/// spec and every expanded cell), declares at least one invariant, and
/// the corpus carries the acceptance grid: one file expanding to a
/// >= 64-cell seed×fault×mode sweep.
///
/// `default.toml` is empty of overrides and must stay equal to the Rust
/// default every other file is a delta from.
#[test]
fn corpus_conforms() {
    let docs = load_corpus();
    let default = docs.iter().find(|d| d.file.ends_with("default.toml")).expect("default.toml");
    assert_eq!(default.spec, ScenarioSpec::default(), "default.toml overrides a default");
    for doc in &docs {
        assert!(
            doc.invariants.any(),
            "{}: a corpus file with no invariants checks nothing",
            doc.file
        );
        assert!(doc.cell_count() >= 1);
    }
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
    assert!(grid.invariants.cross_mode_memory_equal, "{}: the acceptance grid must check cross-mode memory", grid.file);
}

/// Release suite: a 1-cell smoke of every corpus file per declared mode
/// (the file's own `mode` axis decides its mode coverage — `default.toml`
/// deliberately has none, since its non-slot-disjoint traffic makes
/// sharded memory nondeterministic), each run twice asserting
/// bit-reproducibility of the report and collector memory.
#[cfg(not(debug_assertions))]
#[test]
fn corpus_smoke_cells_are_bit_reproducible() {
    for doc in load_corpus() {
        for cell in doc.smoke_cells() {
            let a = run_scenario(&cell.spec);
            let b = run_scenario(&cell.spec);
            assert_eq!(
                a.report,
                b.report,
                "{} [{}]: report must be a pure function of the spec",
                doc.file,
                cell.id()
            );
            assert_eq!(
                memory_fingerprint(&a.memory),
                memory_fingerprint(&b.memory),
                "{} [{}]: collector memory must be bit-identical",
                doc.file,
                cell.id()
            );
        }
    }
}

/// Release suite: for every file declaring `cross_mode_memory_equal`, every
/// group of cells differing only in the `mode` axis leaves byte-identical
/// merged collector memory — the corpus-driven replacement for the
/// hand-picked differential specs the suite used to carry.
#[cfg(not(debug_assertions))]
#[test]
fn cross_mode_corpus_leaves_identical_memory() {
    let mut declared = 0;
    for doc in load_corpus() {
        if !doc.invariants.cross_mode_memory_equal {
            continue;
        }
        declared += 1;
        let mut groups: Vec<(String, Vec<(String, u64)>)> = Vec::new();
        for cell in doc.cells() {
            let fp = memory_fingerprint(&run_scenario(&cell.spec).memory);
            let g = cell.mode_group_id();
            match groups.iter_mut().find(|(name, _)| *name == g) {
                Some((_, members)) => members.push((cell.id(), fp)),
                None => groups.push((g, vec![(cell.id(), fp)])),
            }
        }
        for (group, members) in &groups {
            assert!(
                members.len() >= 2,
                "{} group [{group}] has no mode pair to compare",
                doc.file
            );
            let (c0, fp0) = &members[0];
            for (c, fp) in &members[1..] {
                assert_eq!(
                    fp, fp0,
                    "{}: memory diverged between [{c0}] and [{c}]",
                    doc.file
                );
            }
        }
    }
    assert!(declared >= 4, "expected the preset ports to declare the invariant, got {declared}");
}
