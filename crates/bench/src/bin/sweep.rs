//! Corpus sweep runner: expand every `scenarios/*.toml` grid, run the
//! cells, enforce each file's declared invariants, and emit a coverage
//! report.
//!
//! ```text
//! sweep [PATHS...] [--sample N] [--seed S | --seed-from-git]
//!       [--out FILE] [--list]
//! ```
//!
//! * `PATHS` — corpus files and/or directories (default: `scenarios/`).
//! * `--sample N` — cap each file at ~`N` cells, sampled deterministically
//!   from the sweep seed. Sampling keeps cross-mode groups whole (cells
//!   that differ only in the `mode` axis are taken or skipped together),
//!   so the `cross_mode_memory_equal` invariant stays checkable.
//! * `--seed S` / `--seed-from-git` — the sampling seed; `--seed-from-git`
//!   derives it from `git rev-parse HEAD`, so every CI run of a commit
//!   samples the same cells but different commits walk different corners
//!   of the grids.
//! * `--out FILE` — coverage report path (default `SWEEP_coverage.json`).
//! * `--list` — print each file's grid shape and invariants; run nothing.
//!
//! Exit status is non-zero on any invariant violation or unparseable
//! corpus file.

use std::path::PathBuf;
use std::process::exit;

use dta_analysis::sweep::{kw_audit_vs_bound, FileCoverage, SweepSummary, Violation};
use dta_collector::KwLayout;
use dta_net::splitmix64;
use dta_sim::{load_dir, load_file, memory_fingerprint, run_scenario, Cell, CorpusDoc};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    let sample: Option<u64> = opt("--sample").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("sweep: bad --sample value: {v}");
            exit(2);
        })
    });
    let seed: u64 = if flag("--seed-from-git") {
        git_head_seed().unwrap_or_else(|| {
            eprintln!("sweep: --seed-from-git: no git HEAD available, using seed 0");
            0
        })
    } else {
        opt("--seed").map_or(0, |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("sweep: bad --seed value: {v}");
                exit(2);
            })
        })
    };
    let out_path = opt("--out").unwrap_or_else(|| "SWEEP_coverage.json".to_string());
    let list_only = flag("--list");

    // Positional paths: everything that isn't a flag or a flag's value.
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        match a.as_str() {
            "--sample" | "--seed" | "--out" => skip = true,
            "--seed-from-git" | "--list" => {}
            _ if a.starts_with("--") => {
                eprintln!("sweep: unknown flag {a}");
                exit(2);
            }
            _ => paths.push(PathBuf::from((i, a).1)),
        }
    }
    if paths.is_empty() {
        paths.push(PathBuf::from("scenarios"));
    }

    // Load the corpus; any unreadable or invalid file is fatal.
    let mut docs: Vec<CorpusDoc> = Vec::new();
    for p in &paths {
        let loaded = if p.is_dir() { load_dir(p) } else { load_file(p).map(|d| vec![d]) };
        match loaded {
            Ok(mut d) => docs.append(&mut d),
            Err(e) => {
                eprintln!("sweep: corpus error: {e}");
                exit(1);
            }
        }
    }
    if docs.is_empty() {
        eprintln!("sweep: no corpus files found under {paths:?}");
        exit(1);
    }

    if list_only {
        for doc in &docs {
            let axes: Vec<String> = doc
                .sweep
                .iter()
                .map(|a| format!("{}×{}", a.name(), a.len()))
                .collect();
            println!(
                "{}: {} cells [{}] invariants: {}",
                doc.file,
                doc.cell_count(),
                axes.join(", "),
                doc.invariants.enabled().join(",")
            );
        }
        return;
    }

    let mut summary = SweepSummary { seed, sample, files: Vec::new() };
    for doc in &docs {
        summary.files.push(sweep_file(doc, sample, seed));
    }

    let json = summary.render_json();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("sweep: cannot write {out_path}: {e}");
        exit(1);
    }
    for v in summary.violations() {
        eprintln!(
            "VIOLATION {} [{}] {}: {}",
            v.file, v.cell, v.invariant, v.detail
        );
    }
    println!(
        "sweep: {} files, {} cells run ({} scenario executions), {} invariant checks, {} violations -> {}",
        summary.files.len(),
        summary.cells_run(),
        summary.runs(),
        summary.checks(),
        summary.violations().count(),
        out_path
    );
    if !summary.ok() {
        exit(1);
    }
}

/// Expand, (optionally) sample, run, and check one corpus file.
fn sweep_file(doc: &CorpusDoc, sample: Option<u64>, seed: u64) -> FileCoverage {
    let all = doc.cells();
    let picked = match sample {
        Some(n) => sample_cells(&all, n, seed ^ fnv1a(doc.file.as_bytes())),
        None => all.clone(),
    };
    let inv = &doc.invariants;
    let mut cov = FileCoverage {
        file: doc.file.clone(),
        cells_total: all.len() as u64,
        cells_run: picked.len() as u64,
        runs: 0,
        axes: doc
            .sweep
            .iter()
            .map(|a| (a.name().to_string(), a.len() as u64))
            .collect(),
        invariants: inv.enabled().iter().map(|s| s.to_string()).collect(),
        checks: 0,
        violations: Vec::new(),
    };

    // Per-cell results kept for the cross-mode group comparison.
    let mut mode_groups: Vec<(String, String, u64)> = Vec::new(); // (group, cell, fingerprint)
    for cell in &picked {
        let outcome = run_scenario(&cell.spec);
        cov.runs += 1;
        let r = &outcome.report;
        let fp = memory_fingerprint(&outcome.memory);
        let mut fail = |invariant: &str, detail: String| {
            cov.violations.push(Violation {
                file: doc.file.clone(),
                cell: cell.id(),
                invariant: invariant.to_string(),
                detail,
            });
        };

        if inv.bit_reproducible {
            cov.checks += 1;
            let again = run_scenario(&cell.spec);
            cov.runs += 1;
            let fp2 = memory_fingerprint(&again.memory);
            if again.report != *r || fp2 != fp || again.fleet_memory.len() != outcome.fleet_memory.len()
                || outcome
                    .fleet_memory
                    .iter()
                    .zip(&again.fleet_memory)
                    .any(|(a, b)| memory_fingerprint(a) != memory_fingerprint(b))
            {
                fail(
                    "bit_reproducible",
                    format!("second run diverged (memory {fp:#018x} vs {fp2:#018x})"),
                );
            }
        }
        if inv.no_unsent {
            cov.checks += 1;
            if r.reports_unsent != 0 {
                fail("no_unsent", format!("reports_unsent = {}", r.reports_unsent));
            }
        }
        if inv.no_fabric_drops {
            cov.checks += 1;
            if r.net.dropped != 0 || r.faults.dropped != 0 {
                fail(
                    "no_fabric_drops",
                    format!("net.dropped = {}, faults.dropped = {}", r.net.dropped, r.faults.dropped),
                );
            }
        }
        if inv.ledger_closure {
            cov.checks += 1;
            let reporter = r.reporter.ledger_closes();
            let failover = r.failover.ledger_closes();
            let rebalance = r.rebalance.as_ref().is_none_or(|s| s.closes());
            if !(reporter && failover && rebalance) {
                fail(
                    "ledger_closure",
                    format!(
                        "reporter = {reporter}, failover = {failover}, rebalance = {rebalance}"
                    ),
                );
            }
        }
        if inv.fanout_lookups_zero {
            cov.checks += 1;
            if r.queries.fanout_lookups != 0 {
                fail(
                    "fanout_lookups_zero",
                    format!("fanout_lookups = {}", r.queries.fanout_lookups),
                );
            }
        }
        if inv.kw_audit_clean {
            cov.checks += 1;
            if r.queries.kw_missing != 0 || r.queries.kw_ambiguous != 0 {
                fail(
                    "kw_audit_clean",
                    format!(
                        "kw_missing = {}, kw_ambiguous = {}",
                        r.queries.kw_missing, r.queries.kw_ambiguous
                    ),
                );
            }
        }
        if inv.queries_answered {
            cov.checks += 1;
            match &r.query {
                Some(q) if q.answered > 0 => {}
                Some(q) => fail(
                    "queries_answered",
                    format!("query stream issued {} but answered 0", q.issued),
                ),
                None => fail(
                    "queries_answered",
                    "no [query] plan in spec (invariant needs one)".to_string(),
                ),
            }
        }
        if inv.kw_audit_vs_bound {
            cov.checks += 1;
            let audited = r.queries.kw_found + r.queries.kw_ambiguous + r.queries.kw_missing;
            let service = &cell.spec.service;
            let slots = KwLayout::with_capacity(0, service.kw_bytes, service.kw_value_bytes).slots;
            let observed = if audited == 0 { 1.0 } else { r.queries.kw_found as f64 / audited as f64 };
            let redundancy = u32::from(cell.spec.traffic.kw_redundancy);
            if let Some(detail) = kw_audit_vs_bound(slots, redundancy, audited, observed) {
                fail("kw_audit_vs_bound", detail);
            }
        }
        if inv.cross_mode_memory_equal {
            mode_groups.push((cell.mode_group_id(), cell.id(), fp));
        }
    }

    if inv.cross_mode_memory_equal {
        let mut groups: Vec<(&str, Vec<(&str, u64)>)> = Vec::new();
        for (g, c, fp) in &mode_groups {
            match groups.iter_mut().find(|(name, _)| name == g) {
                Some((_, members)) => members.push((c, *fp)),
                None => groups.push((g, vec![(c, *fp)])),
            }
        }
        for (group, members) in groups {
            cov.checks += 1;
            let (c0, fp0) = members[0];
            for &(c, fp) in &members[1..] {
                if fp != fp0 {
                    cov.violations.push(Violation {
                        file: doc.file.clone(),
                        cell: c.to_string(),
                        invariant: "cross_mode_memory_equal".to_string(),
                        detail: format!(
                            "memory {fp:#018x} != {fp0:#018x} of [{c0}] (group [{group}])"
                        ),
                    });
                }
            }
        }
    }
    cov
}

/// Deterministically sample ~`n` cells, keeping cross-mode groups whole:
/// groups (cells identical but for the `mode` axis) are shuffled by a
/// seeded Fisher–Yates and taken until the cell budget is met. Always
/// takes at least one group.
fn sample_cells(cells: &[Cell], n: u64, seed: u64) -> Vec<Cell> {
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        let g = c.mode_group_id();
        match groups.iter_mut().find(|(name, _)| *name == g) {
            Some((_, members)) => members.push(i),
            None => groups.push((g, vec![i])),
        }
    }
    let mut order: Vec<usize> = (0..groups.len()).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut out = Vec::new();
    for gi in order {
        if !out.is_empty() && out.len() as u64 >= n {
            break;
        }
        out.extend(groups[gi].1.iter().map(|&i| cells[i].clone()));
    }
    out
}

/// Sampling seed from the checked-out commit: the first 16 hex digits of
/// `git rev-parse HEAD`.
fn git_head_seed() -> Option<u64> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let hex = String::from_utf8(out.stdout).ok()?;
    u64::from_str_radix(hex.trim().get(..16)?, 16).ok()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
