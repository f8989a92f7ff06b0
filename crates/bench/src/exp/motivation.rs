//! §2 motivation experiments: Table 1, Figure 2, Figure 3.

use dta_analysis::cpu::{CollectorKind, CpuModel};
use dta_analysis::table::{fmt_pct, fmt_rate};
use dta_analysis::Table;
use dta_telemetry::{MonitoringSystem, ReportRateModel};

/// Table 1: per-switch report generation rates.
pub fn table1() -> Table {
    let model = ReportRateModel::default();
    let mut t = Table::new(
        "Table 1 — Per-reporter data generation rates (6.4 Tbps switches, 40% load)",
        &["System", "Report rate", "Paper"],
    );
    let paper = ["19M", "7.2M", "6.7M", "950K"];
    for (sys, paper) in MonitoringSystem::ALL.into_iter().zip(paper) {
        t.row(&[
            sys.label().to_string(),
            fmt_rate(model.reports_per_sec(sys)),
            paper.to_string(),
        ]);
    }
    t
}

/// Figure 2a: MultiLog vs Cuckoo collection speed vs cores.
pub fn figure2a() -> Table {
    let cpu = CpuModel::default();
    let mut t = Table::new(
        "Figure 2a — CPU-collector throughput vs cores",
        &["Cores", "MultiLog [rps]", "Cuckoo [rps]"],
    );
    for cores in (2..=20).step_by(2) {
        t.row(&[
            cores.to_string(),
            fmt_rate(cpu.throughput(CollectorKind::MultiLog, cores).reports_per_sec),
            fmt_rate(cpu.throughput(CollectorKind::Cuckoo, cores).reports_per_sec),
        ]);
    }
    t
}

/// Figure 2b: memory-stalled cycle fraction vs cores.
pub fn figure2b() -> Table {
    let cpu = CpuModel::default();
    let mut t = Table::new(
        "Figure 2b — Memory-stalled cycles vs cores",
        &["Cores", "MultiLog", "Cuckoo"],
    );
    for cores in (2..=20).step_by(2) {
        t.row(&[
            cores.to_string(),
            fmt_pct(cpu.throughput(CollectorKind::MultiLog, cores).stalled_fraction),
            fmt_pct(cpu.throughput(CollectorKind::Cuckoo, cores).stalled_fraction),
        ]);
    }
    t
}

/// Figure 2c: per-report cycle breakdown.
pub fn figure2c() -> Table {
    let mut t = Table::new(
        "Figure 2c — Cycle breakdown per report",
        &["Collector", "I/O", "Parsing", "Insertion", "Total cycles"],
    );
    for kind in [CollectorKind::MultiLog, CollectorKind::Cuckoo] {
        let c = kind.cost();
        t.row(&[
            kind.label().to_string(),
            fmt_pct(c.io_cycles / c.total_cycles()),
            fmt_pct(c.parse_cycles / c.total_cycles()),
            fmt_pct(c.insert_fraction()),
            format!("{:.0}", c.total_cycles()),
        ]);
    }
    t
}

/// Figure 3: cores needed for MultiLog collection vs network size.
pub fn figure3() -> Table {
    let sizes = [1u64, 10, 100, 1_000, 10_000];
    let systems = [
        MonitoringSystem::IntPostcards,
        MonitoringSystem::MarpleFlowletSizes,
        MonitoringSystem::NetSeerLossEvents,
    ];
    let points = dta_analysis::cost::fig3_cores_needed(&sizes, &systems, 16);
    let mut t = Table::new(
        "Figure 3 — Cores for single-metric MultiLog collection vs network size",
        &["Switches", "INT 0.5% [cores]", "Flowlet Sizes [cores]", "Loss Events [cores]"],
    );
    for (i, &switches) in sizes.iter().enumerate() {
        let row: Vec<String> = std::iter::once(switches.to_string())
            .chain((0..3).map(|s| points[s * sizes.len() + i].cores.to_string()))
            .collect();
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_motivation_tables_render() {
        for t in [table1(), figure2a(), figure2b(), figure2c(), figure3()] {
            assert!(!t.is_empty());
            assert!(t.to_markdown().len() > 50);
        }
    }

    #[test]
    fn figure3_rows_are_monotonic() {
        let t = figure3();
        assert_eq!(t.len(), 5);
    }
}
