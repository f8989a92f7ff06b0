//! Corpus sweep runner: expand every `scenarios/*.toml` grid, run every
//! cell, enforce each file's declared invariants
//! ([`dta_bench::invariants::check_file`]), and emit a coverage report.
//!
//! ```text
//! sweep [PATHS...] [--out FILE] [--list]
//! ```
//!
//! * `PATHS` — corpus files and/or directories (default: `scenarios/`).
//! * `--out FILE` — coverage report path (default `SWEEP_coverage.json`).
//! * `--list` — print each file's grid shape and invariants; run nothing.
//!
//! Exit status is 2 on a bad command line, 1 on any invariant violation or
//! unparseable corpus file.

use std::path::PathBuf;
use std::process::exit;

use dta_analysis::sweep::SweepSummary;
use dta_bench::invariants::check_file;
use dta_sim::{load_dir, load_file, CorpusDoc, Invariant};

const USAGE: &str = "usage: sweep [PATHS...] [--out FILE] [--list]";

fn usage_error(msg: &str) -> ! {
    eprintln!("sweep: {msg}\n{USAGE}");
    exit(2);
}

fn main() {
    let mut out_path = "SWEEP_coverage.json".to_string();
    let mut list_only = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = args
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .unwrap_or_else(|| usage_error("--out needs a file"));
            }
            "--list" => list_only = true,
            a if a.starts_with("--") => usage_error(&format!("unknown flag {a}")),
            _ => paths.push(PathBuf::from(arg)),
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
            let invariants: Vec<&str> = doc.invariants.enabled().map(Invariant::name).collect();
            println!(
                "{}: {} cells [{}] invariants: {}",
                doc.file,
                doc.cell_count(),
                axes.join(", "),
                invariants.join(",")
            );
        }
        return;
    }

    let summary = SweepSummary { files: docs.iter().map(check_file).collect() };
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
