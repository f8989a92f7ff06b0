//! `--root` and `--report` take a value: a missing one (or a flag in its
//! place) prints the usage and exits 2 before anything is linted or any
//! report is written.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty working directory for one case.
fn scratch_dir(case: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("dta-lint-cli").join(case);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn lint(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dta-lint"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the dta-lint binary starts")
}

fn assert_usage_error(case: &str, args: &[&str]) {
    let dir = scratch_dir(case);
    let out = lint(&dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("needs a") && stderr.contains("USAGE"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} linted something");
    let written: Vec<_> = std::fs::read_dir(&dir).expect("read scratch dir").collect();
    assert!(written.is_empty(), "{args:?} wrote {written:?}");
}

#[test]
fn root_without_a_value_is_a_usage_error() {
    assert_usage_error("root-last", &["--root"]);
    assert_usage_error("root-then-flag", &["--root", "--check"]);
}

#[test]
fn report_without_a_value_is_a_usage_error() {
    assert_usage_error("report-last", &["--root", ".", "--report"]);
    assert_usage_error("report-then-flag", &["--report", "--check"]);
}

#[test]
fn unknown_arguments_are_usage_errors() {
    let dir = scratch_dir("unknown");
    let out = lint(&dir, &["--sample"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument `--sample`"));
    assert!(std::fs::read_dir(&dir).expect("read scratch dir").next().is_none());
}
