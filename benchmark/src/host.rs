//! `/proc` readers and host metadata. A source that is absent or does not
//! parse yields `None`, never zero: a missing number must not read as a
//! perfect one.

use std::process::Command;

/// `VmHWM` of this process in MiB (peak resident set size).
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
        .map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Nanoseconds all threads of this process have spent on a CPU (first
/// field of each `/proc/self/task/*/schedstat`). Spinning shows here and
/// not in wall time.
pub fn cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        total += parse_schedstat_ns(&text)?;
    }
    Some(total)
}

fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// `git rev-parse HEAD`, when run inside a repository.
    pub git_commit: String,
}

impl HostInfo {
    /// Probe the host; an unavailable field reads `unknown`.
    pub fn probe() -> Self {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let run = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(unknown)
        };
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: run("rustc", &["--version"]),
            // Only when run from a repository root: in an exported checkout
            // git would walk up into directories that are not ours.
            git_commit: if std::path::Path::new(".git").exists() {
                run("git", &["rev-parse", "HEAD"])
            } else {
                unknown()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_and_absence_is_none() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn schedstat_takes_the_on_cpu_field() {
        assert_eq!(parse_schedstat_ns("123456 789 10\n"), Some(123456));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn live_readers_answer_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
            assert!(cpu_ns().is_some());
        }
    }
}
