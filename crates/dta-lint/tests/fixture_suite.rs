//! Fixture-driven rule coverage, PR 8 negative-parse pattern: both rules
//! have positive (triggering) and negative (clean) source snippets under
//! `tests/fixtures/<rule>/`, the expectation table below is pinned
//! **exhaustive** against the fixtures directory (a fixture file the table
//! does not name fails the suite, and vice versa), and the `pos_`/`neg_`
//! naming convention is enforced against the expected counts.

use std::collections::BTreeSet;
use std::path::PathBuf;

use dta_lint::rules::{analyze, FileKind, Rule, SourceFile};

/// (fixture path, crate the snippet pretends to live in, rule, expected
/// diagnostic count *for that rule*). Both rules fire in every crate.
const EXPECTED: &[(&str, &str, Rule, usize)] = &[
    ("d3/pos_static_mut.rs", "bench", Rule::D3, 1),
    ("d3/neg_cfg_test_static_mut.rs", "bench", Rule::D3, 0),
    ("c1/pos_untested_closes.rs", "dta-reporter", Rule::C1, 1),
    ("c1/pos_plain_closes.rs", "dta-translator", Rule::C1, 1),
    ("c1/neg_tested_closes.rs", "dta-reporter", Rule::C1, 0),
];

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn load(rel: &str, crate_dir: &str) -> SourceFile {
    let path = fixtures_dir().join(rel);
    SourceFile {
        path: format!("crates/{crate_dir}/src/{}", rel.rsplit('/').next().unwrap()),
        crate_dir: crate_dir.to_string(),
        kind: FileKind::Analyzed,
        src: std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display())),
    }
}

#[test]
fn table_matches_every_fixture() {
    for (rel, crate_dir, rule, expected) in EXPECTED {
        let diags = analyze(&[load(rel, crate_dir)]);
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == *rule).collect();
        assert_eq!(
            hits.len(),
            *expected,
            "{rel} (as crate {crate_dir}): expected {expected} {rule} diagnostics, got:\n{}",
            hits.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n"),
        );
    }
}

#[test]
fn naming_convention_matches_expectations() {
    for (rel, _, rule, expected) in EXPECTED {
        let file = rel.rsplit('/').next().unwrap();
        let dir = rel.split('/').next().unwrap();
        assert_eq!(
            dir,
            rule.id().to_ascii_lowercase(),
            "{rel}: fixture lives in the wrong rule directory"
        );
        if file.starts_with("pos_") {
            assert!(*expected > 0, "{rel}: positive fixture expects zero diagnostics");
        } else if file.starts_with("neg_") {
            assert_eq!(*expected, 0, "{rel}: negative fixture expects diagnostics");
        } else {
            panic!("{rel}: fixture names must start with pos_ or neg_");
        }
    }
}

#[test]
fn every_rule_has_a_positive_and_a_negative() {
    for rule in Rule::ALL {
        let pos = EXPECTED
            .iter()
            .filter(|(rel, _, r, _)| r == &rule && rel.contains("/pos_"))
            .count();
        let neg = EXPECTED
            .iter()
            .filter(|(rel, _, r, _)| r == &rule && rel.contains("/neg_"))
            .count();
        assert!(pos >= 1, "{rule}: no positive fixture");
        assert!(neg >= 1, "{rule}: no negative fixture");
    }
}

/// The exhaustiveness pin: the table names exactly the files on disk.
#[test]
fn table_is_exhaustive_against_fixtures_dir() {
    let mut on_disk = BTreeSet::new();
    for sub in std::fs::read_dir(fixtures_dir()).expect("fixtures dir") {
        let sub = sub.unwrap().path();
        if !sub.is_dir() {
            continue;
        }
        let dirname = sub.file_name().unwrap().to_string_lossy().to_string();
        for f in std::fs::read_dir(&sub).unwrap() {
            let f = f.unwrap().path();
            if f.extension().is_some_and(|e| e == "rs") {
                on_disk.insert(format!(
                    "{dirname}/{}",
                    f.file_name().unwrap().to_string_lossy()
                ));
            }
        }
    }
    let in_table: BTreeSet<String> =
        EXPECTED.iter().map(|(rel, ..)| rel.to_string()).collect();
    assert_eq!(
        in_table, on_disk,
        "fixture table and tests/fixtures/ disagree — add the missing side"
    );
}

/// Diagnostics anchor to real positions: `file:line: RULE: message`.
#[test]
fn diagnostics_carry_file_and_line() {
    let diags = analyze(&[load("d3/pos_static_mut.rs", "dta-sim")]);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line, 2);
    let shown = diags[0].to_string();
    assert!(
        shown.starts_with("crates/dta-sim/src/pos_static_mut.rs:2: D3:"),
        "bad anchor: {shown}"
    );
}

/// End to end through the real binary, against a throwaway workspace: a
/// seeded `static mut` and a seeded untested `*_closes()` fail `--check`
/// and land in the report, `tests/fixtures/` subtrees stay invisible to
/// discovery, and the cleaned tree passes.
#[test]
fn seeded_violations_fail_check_and_a_clean_tree_passes() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("seeded-workspace");
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("crates/dta-net/src");
    let hidden = root.join("crates/dta-net/tests/fixtures");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::create_dir_all(&hidden).unwrap();
    let seeded = [load("d3/pos_static_mut.rs", "x").src, load("c1/pos_untested_closes.rs", "x").src];
    std::fs::write(src.join("lib.rs"), seeded.concat()).unwrap();
    std::fs::write(hidden.join("bad.rs"), "static mut HIDDEN: u8 = 0;\n").unwrap();

    let check = || {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dta-lint"))
            .args(["--check", "--root"])
            .arg(&root)
            .output()
            .expect("spawn dta-lint");
        let text = [out.stdout, out.stderr].map(|b| String::from_utf8_lossy(&b).into_owned());
        (out.status.code(), text.concat())
    };

    let (code, out) = check();
    assert_eq!(code, Some(1), "seeded violations must fail --check:\n{out}");
    assert!(out.contains("crates/dta-net/src/lib.rs:2: D3:"), "{out}");
    assert!(out.contains("C1: `MigrationStats::ledger_closes`"), "{out}");
    assert!(!out.contains("HIDDEN") && !out.contains("fixtures/bad.rs"), "{out}");
    let report = std::fs::read_to_string(root.join("LINT_report.json")).expect("report written");
    assert!(report.contains("\"schema\": \"dta-lint/report-v3\""), "{report}");
    assert!(report.contains("\"D3\": {\"title\": \"static mut outside tests\", \"violations\": 1}"));

    std::fs::write(src.join("lib.rs"), "pub fn now_ns(clock: u64) -> u64 { clock }\n").unwrap();
    let (code, out) = check();
    assert_eq!(code, Some(0), "clean tree must pass --check:\n{out}");
    assert!(out.contains("1 files scanned, 0 diagnostics"), "{out}");
    let report = std::fs::read_to_string(root.join("LINT_report.json")).expect("report written");
    assert!(report.contains("\"unreferenced_pub\": {\"dta-net\": 1}"), "{report}");
    assert!(!report.contains("now_ns"), "the report keeps counts only: {report}");
    assert!(out.contains("      dta-net  crates/dta-net/src/lib.rs  now_ns\n"), "{out}");
    let _ = std::fs::remove_dir_all(&root);
}
