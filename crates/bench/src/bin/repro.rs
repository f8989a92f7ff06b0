//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro --all            # every experiment (slow, use --release)
//! repro --exp f7a        # one experiment
//! repro --all --quick    # reduced trial counts
//! repro --list           # experiment inventory
//! ```
//!
//! Performance numbers are not this binary's job: `benchmark/` is the one
//! harness (see `benchmark/README.md`).

use dta_bench::{all_experiments, run_experiment, ExperimentId};

const USAGE: &str = "usage: repro (--all | --exp <id> | --list) [--quick]";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut list = false;
    let mut targets: Vec<ExperimentId> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--list" => list = true,
            "--all" => targets = all_experiments().to_vec(),
            "--exp" => {
                let name = args.next().unwrap_or_else(|| usage_error("--exp needs an id"));
                match ExperimentId::parse(&name) {
                    Some(id) => targets = vec![id],
                    None => usage_error(&format!("unknown experiment '{name}' (try --list)")),
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }

    if list {
        println!("available experiments:");
        for id in all_experiments() {
            println!("  {}", id.name());
        }
        return;
    }
    if targets.is_empty() {
        usage_error("nothing to run");
    }

    for id in targets {
        #[expect(clippy::disallowed_types, reason = "progress line on stderr; no table reads it")]
        let start = std::time::Instant::now();
        for table in run_experiment(id, quick) {
            println!("{}", table.to_markdown());
        }
        eprintln!("[{}] done in {:.2?}\n", id.name(), start.elapsed());
    }
}
