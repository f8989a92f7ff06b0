//! The `sweep` command line is strict: `--out` is its one flag with a
//! value, and a missing value or an unknown flag prints the usage and exits
//! 2 before any cell runs.

use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("the sweep binary starts")
}

fn assert_usage_error(args: &[&str]) {
    let out = sweep(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: sweep"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn out_without_a_value_is_a_usage_error() {
    assert_usage_error(&["scenarios/default.toml", "--out"]);
    assert_usage_error(&["scenarios/default.toml", "--out", "--list"]);
}

#[test]
fn unknown_flags_are_usage_errors() {
    assert_usage_error(&["scenarios/default.toml", "--sample"]);
}

#[test]
fn list_runs_nothing_and_exits_zero() {
    let out = sweep(&["--list"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scenarios/large.toml: 2 cells"), "{stdout}");
}
