//! The CPU/memory cost model behind Figures 2, 3, and 7a.
//!
//! Two resources bound a software collector:
//!
//! * **cycles** — each report costs I/O (DPDK burst receive), parsing
//!   (header extraction), and insertion (index update) cycles; a core
//!   processes at `freq / cycles` reports/s, and cores scale linearly.
//! * **random memory accesses** — the memory subsystem sustains a bounded
//!   rate of cache-missing accesses, *shared by all cores*. When aggregate
//!   demand exceeds it, cores stall (Figure 2b's "Mem-Stalled Cycles").
//!
//! Calibration targets (from the paper's testbed: 2×10-core Xeon Silver
//! 4114 @ 2.2 GHz): MultiLog ingests ~26M reports/s on 16 cores and scales
//! linearly (CPU-bound); Cuckoo scales linearly to ~11 cores then saturates
//! ~81M reports/s with ~42% stalled cycles at 20 cores (memory-bound).

/// Per-report ingestion cost of one collector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleCost {
    /// Cycles receiving the packet (I/O).
    pub io_cycles: f64,
    /// Cycles extracting fields (parsing).
    pub parse_cycles: f64,
    /// Cycles updating the data structure (insertion / indexing).
    pub insert_cycles: f64,
    /// Memory instructions per report — the Figure 8 metric (all DMA/CPU
    /// memory touches, sequential included).
    pub mem_instructions: f64,
    /// Cache-missing (random) memory accesses per report — what contends
    /// for the shared memory budget.
    pub random_accesses: f64,
}

impl CycleCost {
    /// Total cycles per report.
    pub fn total_cycles(&self) -> f64 {
        self.io_cycles + self.parse_cycles + self.insert_cycles
    }

    /// Fraction of cycles spent inserting (Figure 2c's dominant bar).
    pub fn insert_fraction(&self) -> f64 {
        self.insert_cycles / self.total_cycles()
    }
}

/// The software collectors evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectorKind {
    /// Confluo's Atomic MultiLog (the state-of-the-art the paper beats).
    MultiLog,
    /// The lightweight cuckoo-hash collector of §2.
    Cuckoo,
    /// BTrDB time-series store.
    BTrDb,
    /// INTCollector (InfluxDB-backed INT collector).
    IntCollector,
}

impl CollectorKind {
    /// All kinds, in Figure 7a order.
    pub const ALL: [CollectorKind; 4] = [
        CollectorKind::BTrDb,
        CollectorKind::MultiLog,
        CollectorKind::IntCollector,
        CollectorKind::Cuckoo,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CollectorKind::MultiLog => "MultiLog",
            CollectorKind::Cuckoo => "Cuckoo",
            CollectorKind::BTrDb => "BTrDB",
            CollectorKind::IntCollector => "INTCollector",
        }
    }

    /// Calibrated per-report cost (see module docs).
    pub fn cost(self) -> CycleCost {
        match self {
            // 1340 cycles/report, 13.6% I/O, 13.6% parse, 72.8% insert
            // (Figure 2c's split), 343 memory instructions (Figure 8), but
            // mostly sequential log writes: few random accesses.
            CollectorKind::MultiLog => CycleCost {
                io_cycles: 1340.0 * 0.136,
                parse_cycles: 1340.0 * 0.136,
                insert_cycles: 1340.0 * 0.728,
                mem_instructions: 343.0,
                random_accesses: 2.0,
            },
            // 300 cycles/report (29.1% I/O, 36.9% parse, 34.0% insert per
            // Figure 2c), 6 memory touches of which most are cache misses:
            // hashing two random buckets + occasional eviction chain.
            CollectorKind::Cuckoo => CycleCost {
                io_cycles: 300.0 * 0.291,
                parse_cycles: 300.0 * 0.369,
                insert_cycles: 300.0 * 0.340,
                mem_instructions: 6.0,
                random_accesses: 6.0,
            },
            // Copy-on-write time-tree: deeper insertion path than MultiLog.
            CollectorKind::BTrDb => CycleCost {
                io_cycles: 180.0,
                parse_cycles: 180.0,
                insert_cycles: 1640.0,
                mem_instructions: 410.0,
                random_accesses: 8.0,
            },
            // Event detection is cheap but periodic TSDB flushes are not.
            CollectorKind::IntCollector => CycleCost {
                io_cycles: 180.0,
                parse_cycles: 220.0,
                insert_cycles: 1200.0,
                mem_instructions: 290.0,
                random_accesses: 4.0,
            },
        }
    }
}

/// The collector server's CPU/memory resources.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Core frequency in Hz.
    pub freq_hz: f64,
    /// Shared random-access budget of the memory subsystem, accesses/s.
    pub mem_random_per_sec: f64,
}

impl Default for CpuModel {
    fn default() -> Self {
        // Xeon Silver 4114 @ 2.2GHz, 2 channels DDR4-2666: ~485M sustained
        // random accesses/s (calibrated to Cuckoo's 11-core saturation).
        CpuModel { freq_hz: 2.2e9, mem_random_per_sec: 4.85e8 }
    }
}

/// One point of a throughput-vs-cores curve.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPoint {
    /// Core count.
    pub cores: u32,
    /// Reports ingested per second.
    pub reports_per_sec: f64,
    /// Fraction of cycles stalled on memory.
    pub stalled_fraction: f64,
}

impl CpuModel {
    /// Unconstrained (CPU-only) rate for `cores` cores.
    fn cpu_rate(&self, kind: CollectorKind, cores: u32) -> f64 {
        cores as f64 * self.freq_hz / kind.cost().total_cycles()
    }

    /// Memory-bound ceiling.
    fn memory_rate(&self, kind: CollectorKind) -> f64 {
        self.mem_random_per_sec / kind.cost().random_accesses
    }

    /// Achieved rate and stall fraction at `cores` (Figure 2a/2b model).
    pub fn throughput(&self, kind: CollectorKind, cores: u32) -> ThroughputPoint {
        let cpu = self.cpu_rate(kind, cores);
        let mem = self.memory_rate(kind);
        let achieved = cpu.min(mem);
        // A small baseline stall (cold misses) even when CPU-bound; once the
        // budget saturates, every unserviced access shows up as stall.
        let baseline = 0.06;
        let stalled = if cpu <= mem {
            baseline + 0.04 * (cpu / mem)
        } else {
            (1.0 - mem / cpu).max(baseline)
        };
        ThroughputPoint { cores, reports_per_sec: achieved, stalled_fraction: stalled }
    }

    /// Sweep a core range (Figure 2's x-axis).
    pub fn sweep(&self, kind: CollectorKind, cores: impl IntoIterator<Item = u32>) -> Vec<ThroughputPoint> {
        cores.into_iter().map(|c| self.throughput(kind, c)).collect()
    }

    /// Cores needed across a sharded collector fleet (Figure 3's y-axis):
    /// collection partitions over servers of `cores_per_server` cores, so
    /// each server's memory budget is private and CPU cost is what scales.
    /// `None` when even a fully-dedicated server is memory-bound below its
    /// own CPU rate (collection cannot shard finer than one server).
    pub fn cores_needed_sharded(
        &self,
        kind: CollectorKind,
        reports_per_sec: f64,
        cores_per_server: u32,
    ) -> Option<u64> {
        let per_server_cpu = self.cpu_rate(kind, cores_per_server);
        if per_server_cpu > self.memory_rate(kind) {
            return None; // a full server stalls before its cores saturate
        }
        let per_core = self.freq_hz / kind.cost().total_cycles();
        Some((reports_per_sec / per_core).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multilog_is_cpu_bound_and_linear() {
        let m = CpuModel::default();
        let t8 = m.throughput(CollectorKind::MultiLog, 8);
        let t16 = m.throughput(CollectorKind::MultiLog, 16);
        assert!((t16.reports_per_sec / t8.reports_per_sec - 2.0).abs() < 1e-6);
        // ~26M reports/s at 16 cores — the Figure 7a baseline.
        assert!((t16.reports_per_sec - 26.3e6).abs() / 26.3e6 < 0.02);
        assert!(t16.stalled_fraction < 0.15, "MultiLog must not stall");
    }

    #[test]
    fn cuckoo_saturates_around_11_cores() {
        let m = CpuModel::default();
        let t10 = m.throughput(CollectorKind::Cuckoo, 10);
        let t11 = m.throughput(CollectorKind::Cuckoo, 11);
        let t20 = m.throughput(CollectorKind::Cuckoo, 20);
        // Linear up to ~11 cores...
        assert!(t10.reports_per_sec < m.memory_rate(CollectorKind::Cuckoo));
        // ...then flat.
        assert!((t20.reports_per_sec - t11.reports_per_sec).abs() / t11.reports_per_sec < 0.02);
        // ~42% stalled at 20 cores (Figure 2b).
        assert!(
            (t20.stalled_fraction - 0.42).abs() < 0.05,
            "stall at 20 cores = {}",
            t20.stalled_fraction
        );
    }

    #[test]
    fn cuckoo_outpaces_multilog_per_core() {
        let m = CpuModel::default();
        assert!(
            m.cpu_rate(CollectorKind::Cuckoo, 1) > 3.0 * m.cpu_rate(CollectorKind::MultiLog, 1)
        );
    }

    #[test]
    fn multilog_insertion_dominates() {
        // Figure 2c: 72.8% of MultiLog cycles go to insertion.
        let c = CollectorKind::MultiLog.cost();
        assert!((c.insert_fraction() - 0.728).abs() < 1e-9);
    }

    #[test]
    fn figure3_scale_thousand_switches_needs_thousands_of_cores() {
        // §2: "for networks comprising around a thousand switches, we would
        // need to dedicate nearly 10K cores" (INT 0.5% => 19M rps/switch).
        let m = CpuModel::default();
        let per_switch = 19e6;
        let cores = m
            .cores_needed_sharded(CollectorKind::MultiLog, per_switch * 1000.0, 16)
            .expect("MultiLog is CPU-bound per server");
        assert!(
            (9_000..=13_000).contains(&cores),
            "1000 switches -> {cores} cores (expected ~10K)"
        );
    }

    #[test]
    fn figure7a_speedups() {
        // DTA vs the 16-core MultiLog baseline: KW >= 4x, Postcarding ~16x,
        // Append ~41x (§1, Figure 7a).
        let m = CpuModel::default();
        let baseline = m.throughput(CollectorKind::MultiLog, 16).reports_per_sec;
        let kw = 110e6;
        let postcarding = 452.5e6;
        let append = 1.07e9;
        assert!(kw / baseline >= 4.0);
        assert!((postcarding / baseline - 16.0).abs() < 2.0);
        assert!((append / baseline - 41.0).abs() < 3.0);
    }
}
