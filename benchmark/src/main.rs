//! `dta-benchmark`: one command, two shapes.
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and ends with the one-line JSON result (the
//!   driver's contract).
//! * Without `--workload` it runs the whole suite, one child process per
//!   workload (so peak RSS and set-up are per workload); `--aa` runs the
//!   suite twice and holds the differences to the metrics' own bounds.

use std::process::{Command, ExitCode};

use dta_benchmark::alloc::CountingAlloc;
use dta_benchmark::host::HostInfo;
use dta_benchmark::metrics::{Better, MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use dta_benchmark::workloads::{self, RunArgs};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: dta-benchmark --seed <n> [--workload <name>] [--seconds <s>] \
                     [--trace [0|1]] [--aa]";

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    run: RunArgs,
    aa: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        run: RunArgs {
            seed: 1,
            seconds: 10.0,
            trace: false,
        },
        aa: false,
    };
    let mut seed_given = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.run.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                cli.run.seconds = s;
            }
            "--trace" => {
                // `--trace 0|1` (the driver) or a bare `--trace`.
                cli.run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--aa" => cli.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seed_given {
        return Err("--seed is required: the inputs are made from it".into());
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("no workload {w}; have {}", names.join(", ")));
        }
    }
    Ok(cli)
}

fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Print every metric of the run's table by name with its unit, then the
/// facts, then the result line (last).
fn print_outcome(workload: &str, args: &RunArgs, host: &HostInfo, out: &Outcome) {
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
        host.nproc, host.cpu_model, host.rustc, host.git_commit
    );
    for m in table(args.trace) {
        match out.values.get(m.name) {
            Some(v) => println!("  {:<36} {:>18.4} {}", m.name, v, m.unit),
            None => println!("  {:<36} {:>18} {}", m.name, "n/a", m.unit),
        }
    }
    for (k, v) in &out.info {
        println!("  # {k} = {v}");
    }
    println!(
        "  # reports offered {} failed {} (share {:.3e}); queries issued {} failed {} (share {:.3e}); wrong values {}",
        out.reports.attempted,
        out.reports.failed,
        out.reports.share(),
        out.queries.attempted,
        out.queries.failed,
        out.queries.share(),
        out.wrong
    );
    for v in &out.violations {
        println!("  ! {v}");
    }
    println!("{}", out.result_line(table(args.trace)));
}

fn run_one(workload: &str, args: &RunArgs) -> ExitCode {
    let host = HostInfo::probe();
    let out = workloads::run(workload, args).expect("workload name was checked");
    // An end-to-end metric without a value cannot be reported as zero.
    let missing: Vec<_> = table(args.trace)
        .iter()
        .filter(|m| m.bound.is_some() && !out.values.contains_key(m.name))
        .map(|m| m.name)
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "no value for {}: its source is missing on this host",
            missing.join(", ")
        );
        return ExitCode::from(3);
    }
    print_outcome(workload, args, &host, &out);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// The `"name": {"value": v, ...}` numbers of a result line.
fn parse_values(line: &str) -> Vec<(String, f64)> {
    let mut values = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("{\"value\": ") {
        let name_end = rest[..at].rfind("\": ").unwrap_or(0);
        let name_start = rest[..name_end].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..name_end].to_string();
        let num = &rest[at + "{\"value\": ".len()..];
        let end = num.find(',').unwrap_or(num.len());
        if let Ok(v) = num[..end].trim().parse() {
            values.push((name, v));
        }
        rest = &num[end..];
    }
    values
}

/// Run one workload in a child process; returns its result line, or the
/// reason there is none.
fn run_child(workload: &str, args: &RunArgs) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output() // waits for the child to end
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The listing is for people: pass it through, minus the result line.
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default().to_string();
    for l in lines {
        println!("{l}");
    }
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return Err(format!("{workload} exited with {}", output.status));
    }
    Ok(last)
}

fn run_suite(cli: &Cli) -> ExitCode {
    let mut ok = true;
    let passes: &[bool] = if cli.run.trace {
        &[false, true]
    } else {
        &[false]
    };
    for (workload, _) in WORKLOADS {
        for &trace in passes {
            let args = RunArgs { trace, ..cli.run };
            let sides = if cli.aa && !trace { 2 } else { 1 };
            let mut results = Vec::new();
            for _ in 0..sides {
                match run_child(workload, &args) {
                    Ok(line) => {
                        println!("{line}");
                        results.push(parse_values(&line));
                    }
                    Err(why) => {
                        eprintln!("{why}");
                        ok = false;
                    }
                }
            }
            if let [a, b] = &results[..] {
                ok &= compare(workload, a, b);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// A/A: two runs of the same code on the same seed must agree within each
/// metric's own bound (`setup_s` included: the bound is all the driver
/// allows a later change to cost).
fn compare(workload: &str, a: &[(String, f64)], b: &[(String, f64)]) -> bool {
    let mut ok = true;
    println!("A/A {workload}");
    for m in END_TO_END {
        let get = |side: &[(String, f64)]| side.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v);
        let (Some(x), Some(y)) = (get(a), get(b)) else {
            continue;
        };
        // How much worse the second run is than the first, as a share.
        let worse = match m.better {
            Better::Higher => (x - y) / x,
            Better::Lower => (y - x) / x,
        };
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        let verdict = if worse.abs() <= bound {
            "ok"
        } else {
            "EXCEEDED"
        };
        println!(
            "  {:<26} {:>16.4} {:>16.4}  diff {:>+8.4}  bound {:.2}  {verdict}",
            m.name, x, y, worse, bound
        );
        ok &= worse.abs() <= bound;
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    match &cli.workload {
        Some(w) => run_one(w, &cli.run),
        None => run_suite(&cli),
    }
}
