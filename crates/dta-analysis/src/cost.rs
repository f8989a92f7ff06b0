//! The Figure 3 collection-cost model.
//!
//! "Number of cores needed for single-metric collection with MultiLog at
//! various network sizes": combine the Table 1 per-switch report rates with
//! the MultiLog per-core ingestion rate, across 1 .. 10K switches.

use dta_telemetry::{MonitoringSystem, ReportRateModel};

use crate::cpu::{CollectorKind, CpuModel};

/// One Figure 3 data point.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Point {
    /// Network size (switch count).
    pub switches: u64,
    /// Monitoring system generating reports.
    pub system: MonitoringSystem,
    /// Cores needed to keep up with MultiLog.
    pub cores: u64,
}

/// Compute Figure 3's curves for the given network sizes.
pub fn fig3_cores_needed(
    sizes: &[u64],
    systems: &[MonitoringSystem],
    cores_per_server: u32,
) -> Vec<Fig3Point> {
    let rates = ReportRateModel::default();
    let cpu = CpuModel::default();
    let mut out = Vec::new();
    for &system in systems {
        for &switches in sizes {
            let rps = rates.network_reports_per_sec(system, switches);
            let cores = cpu
                .cores_needed_sharded(CollectorKind::MultiLog, rps, cores_per_server)
                .expect("MultiLog is CPU-bound per server");
            out.push(Fig3Point { switches, system, cores });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousand_switch_int_needs_about_10k_cores() {
        let pts = fig3_cores_needed(&[1000], &[MonitoringSystem::IntPostcards], 16);
        assert_eq!(pts.len(), 1);
        assert!(
            (9_000..=13_000).contains(&pts[0].cores),
            "cores = {}",
            pts[0].cores
        );
    }

    #[test]
    fn k28_collection_consumes_over_11_percent_of_servers() {
        // §2: "in a K = 28 fat tree, this would correspond to over 11% of
        // the servers (assuming 16 cores each)".
        let pts = fig3_cores_needed(&[980], &[MonitoringSystem::IntPostcards], 16);
        let hosts = 28u64.pow(3) / 4;
        let frac = pts[0].cores.div_ceil(16) as f64 / hosts as f64;
        assert!(frac > 0.11, "fraction {frac}");
        assert!(frac < 0.20, "fraction {frac} implausibly high");
    }

    #[test]
    fn cost_ordering_follows_report_rates() {
        let sizes = [100u64];
        let systems = [
            MonitoringSystem::IntPostcards,
            MonitoringSystem::MarpleFlowletSizes,
            MonitoringSystem::NetSeerLossEvents,
        ];
        let pts = fig3_cores_needed(&sizes, &systems, 16);
        assert!(pts[0].cores > pts[1].cores, "INT outpaces flowlets");
        assert!(pts[1].cores > pts[2].cores, "flowlets outpace NetSeer");
    }

    #[test]
    fn cores_scale_linearly_with_network() {
        let pts = fig3_cores_needed(&[10, 1000], &[MonitoringSystem::IntPostcards], 16);
        let ratio = pts[1].cores as f64 / pts[0].cores as f64;
        assert!((ratio - 100.0).abs() / 100.0 < 0.02, "ratio {ratio}");
    }
}
