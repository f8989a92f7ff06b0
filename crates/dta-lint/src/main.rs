//! CLI for the workspace lint. `cargo run -p dta-lint -- --check` is the
//! CI entry point; without `--check` it reports without failing.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
dta-lint: what clippy cannot see (DESIGN.md, \"Static analysis\")

USAGE: dta-lint [OPTIONS]

OPTIONS:
  --check            exit 1 on any diagnostic (CI mode; default is report-only)
  --root DIR         workspace root (default: .)
  --report FILE      machine-readable report (default: <root>/LINT_report.json)
  -h, --help         this text

RULES: D3 (static mut outside tests), C1 (closure identities no test
       references). Also counts code_lines and unreferenced_pub per crate,
       and prints every unreferenced name under its crate's count.
";

/// The value after a valued flag: `None` when it is missing or is itself a
/// flag, which is a usage error before anything runs or is written.
fn value_of(args: &mut impl Iterator<Item = String>) -> Option<PathBuf> {
    args.next().filter(|v| !v.starts_with("--")).map(PathBuf::from)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("dta-lint: error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut report: Option<PathBuf> = None;
    let mut check = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--root" => match value_of(&mut args) {
                Some(v) => root = v,
                None => return usage_error("`--root` needs a directory"),
            },
            "--report" => match value_of(&mut args) {
                Some(v) => report = Some(v),
                None => return usage_error("`--report` needs a file"),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let outcome = match dta_lint::run(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dta-lint: error: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &outcome.diagnostics {
        println!("{d}");
    }
    print!("{}", outcome.summary());

    let path = report.unwrap_or_else(|| root.join("LINT_report.json"));
    if let Err(e) = std::fs::write(&path, outcome.to_json()) {
        eprintln!("dta-lint: error: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("report: {}", path.display());

    if check && !outcome.diagnostics.is_empty() {
        eprintln!("dta-lint: FAILED: {} diagnostic(s)", outcome.diagnostics.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
