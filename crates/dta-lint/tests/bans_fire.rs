//! The determinism bans are configuration — `clippy.toml` and the root
//! manifest's `[workspace.lints.clippy]` — so their test is a compile under
//! clippy: one minimal violation per `clippy.toml` entry and per lint-table
//! line, each under its own `#[expect]`. `cargo clippy -- -D warnings`
//! passing proves every ban fires, and deleting a `clippy.toml` entry leaves
//! its expectation unfulfilled, which `-D warnings` turns into an error.
//! An `#[expect]` switches its own lint on, so it cannot notice a missing
//! lint-table line: the second test reads the manifests for those.
//! (Plain `cargo test` does not run clippy's lints, so there the first body
//! is just a smoke run of harmless calls.)

use std::collections::{HashMap, HashSet};
use std::time::Duration;

#[test]
fn every_ban_fires_under_clippy() {
    // clippy.toml: disallowed-types.
    #[expect(clippy::disallowed_types, reason = "fixture")]
    let _ = std::time::Instant::now();
    #[expect(clippy::disallowed_types, reason = "fixture")]
    let _ = std::time::SystemTime::UNIX_EPOCH;
    #[expect(clippy::disallowed_types, reason = "fixture")]
    let _ = std::collections::hash_map::RandomState::new();

    // clippy.toml: disallowed-methods.
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    std::thread::sleep(Duration::ZERO);
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let _abort = || std::process::abort(); // never called

    let mut map: HashMap<u8, u8> = HashMap::new();
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let _ = map.iter();
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let _ = map.iter_mut();
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let _ = map.keys();
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let _ = map.values();
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let _ = map.values_mut();
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let _ = map.drain();
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    map.retain(|_, _| true);
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let _ = map.clone().into_keys();
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let _ = map.into_values();

    let mut set: HashSet<u8> = HashSet::new();
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let _ = set.iter();
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let _ = set.drain();
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    set.retain(|_| true);

    // [workspace.lints.clippy].
    #[expect(clippy::iter_over_hash_type, reason = "fixture")]
    for _ in &set {}
    let byte = 7u8;
    #[expect(clippy::undocumented_unsafe_blocks, reason = "fixture")]
    let _ = unsafe { *std::ptr::from_ref(&byte) };
    #[expect(clippy::todo, reason = "fixture")]
    let _todo = || -> u8 { todo!() }; // never called
    #[expect(clippy::unimplemented, reason = "fixture")]
    let _unimplemented = || -> u8 { unimplemented!() }; // never called
}

/// The four lints are denied in the root table, and every workspace member
/// — root package, `crates/*`, `vendor/*` — inherits it.
#[test]
fn lint_table_is_denied_and_inherited_by_every_member() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
    };
    let manifest = read(&root.join("Cargo.toml"));
    let table = manifest
        .split_once("[workspace.lints.clippy]\n")
        .and_then(|(_, rest)| rest.split("\n\n").next())
        .expect("root Cargo.toml has a [workspace.lints.clippy] table");
    for lint in ["undocumented_unsafe_blocks", "iter_over_hash_type", "todo", "unimplemented"] {
        let line = format!("{lint} = \"deny\"");
        assert!(table.lines().any(|l| l == line), "{lint} is not denied:\n{table}");
    }

    let mut members = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("member directory") {
            let manifest = entry.unwrap().path().join("Cargo.toml");
            if manifest.exists() {
                members.push(manifest);
            }
        }
    }
    assert!(members.len() > 15, "member discovery broke: {members:?}");
    for m in members {
        assert!(
            read(&m).contains("[lints]\nworkspace = true\n"),
            "{} does not inherit the workspace lints",
            m.display()
        );
    }
}
