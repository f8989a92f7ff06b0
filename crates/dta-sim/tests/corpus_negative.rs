//! Negative-parse table: one malformed fixture per rule, each asserting
//! the error names the offending file and key/section — a corpus typo
//! must fail loudly and legibly, never silently half-apply.
//!
//! Fixtures live under `tests/fixtures/invalid/`; the table below is
//! exhaustive over that directory (a stray fixture with no expectation,
//! or vice versa, fails the test).

use std::path::{Path, PathBuf};

use dta_sim::load_file;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/invalid")
}

/// `(fixture, substrings the error message must contain)`.
const EXPECTATIONS: &[(&str, &[&str])] = &[
    ("unknown_key.toml", &["unknown key", "traffic.keywrite"]),
    ("unknown_section.toml", &["unknown section", "[trafic]"]),
    ("bad_enum.toml", &["turbo", "mode"]),
    ("sharded_without_shards.toml", &["sharded", "shards"]),
    ("type_mismatch.toml", &["reporters", "integer", "string"]),
    ("rebalance_without_rejoin.toml", &["rebalance", "rejoin_at_ns"]),
    ("min_unacked_floor.toml", &["min_unacked"]),
    ("victim_axis_without_fault.toml", &["victim", "collectors.fault"]),
    ("cross_mode_without_axis.toml", &["cross_mode_memory_equal", "mode"]),
    ("invalid_sweep_cell.toml", &["mode=sharded4", "rdma_hop"]),
    ("fat_tree_k_overflow.toml", &["fat_tree_k", "100000"]),
    ("zero_ack_coalesce_victim.toml", &["victim 7", "fleet of 3"]),
    ("postcard_hops_mismatch.toml", &["translator.postcard_hops (3)", "service.postcard_hops (5)"]),
    ("postcard_redundancy_zero.toml", &["translator.postcard_redundancy", "1..=8, got 0"]),
    ("postcard_redundancy_overflow.toml", &["translator.postcard_redundancy", "1..=8, got 9"]),
    ("kw_redundancy_overflow.toml", &["traffic.kw_redundancy", "1..=8, got 9"]),
    ("append_batch_zero.toml", &["translator.append_batch"]),
    ("mtu_zero.toml", &["translator.mtu must be >= 1"]),
    ("fault_chance_overflow.toml", &["faults.fabric.drop_chance", "[0, 1]"]),
    ("kw_value_bytes_overflow.toml", &["service.kw_value_bytes must be <= 60, got 61"]),
    ("postcard_hops_overflow.toml", &["service.postcard_hops must be <= 16, got 17"]),
    ("postcard_hops_cache_overflow.toml", &["translator.postcard_hops must be <= 8", "got 9"]),
    ("sweep_chance_overflow.toml", &["invalid sweep cell [drop=2.0]"]),
];

#[test]
fn every_invalid_fixture_fails_naming_the_offender() {
    for (fixture, needles) in EXPECTATIONS {
        let path = fixtures_dir().join(fixture);
        let err = match load_file(&path) {
            Err(e) => e,
            Ok(_) => panic!("{fixture}: expected a parse/validation error, got Ok"),
        };
        assert!(
            err.file.ends_with(fixture),
            "{fixture}: error must carry the offending file, got {:?}",
            err.file
        );
        let rendered = err.to_string();
        for needle in *needles {
            assert!(
                rendered.contains(needle),
                "{fixture}: error {rendered:?} does not name {needle:?}"
            );
        }
    }
}

/// The table is the directory: every fixture is expected, every
/// expectation exists.
#[test]
fn expectation_table_matches_the_fixture_directory() {
    let mut on_disk: Vec<String> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".toml"))
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = EXPECTATIONS.iter().map(|(f, _)| f.to_string()).collect();
    expected.sort();
    assert_eq!(on_disk, expected);
}

/// Syntax errors carry the exact line number.
#[test]
fn errors_carry_line_numbers() {
    let e = dta_sim::parse_str("inline.toml", "seed = 1\nbogus_key = 2\n").unwrap_err();
    assert_eq!((e.file.as_str(), e.line), ("inline.toml", 2));
    assert_eq!(e.to_string(), "inline.toml:2: unknown key `bogus_key`");
}
