//! End-to-end system experiments: Table 2, Figure 7, Figure 8, Figure 9,
//! Table 3.

use bytes::Bytes;
use dta_analysis::cpu::{CollectorKind, CpuModel};
use dta_analysis::resources::{reporter_footprint, translator_footprint};
use dta_analysis::resources::{ReporterKind, ResourceClass, TranslatorFeatures};
use dta_analysis::table::fmt_rate;
use dta_analysis::Table;
use dta_collector::service::ServiceConfig;
use dta_core::{DtaReport, TelemetryKey};
use dta_rdma::nic::{NicConfig, NicPerfModel};
use dta_rdma::verbs::RdmaOp;
use dta_telemetry::marple::{MarpleLossyFlows, MarpleTcpTimeouts};
use dta_telemetry::traces::{TraceConfig, TraceGenerator};
use dta_telemetry::{ReportRateModel, TABLE2_INTEGRATIONS};
use dta_translator::TranslatorConfig;

use super::harness::Pair;

/// Wire bytes of a KW write carrying `value_bytes` of telemetry.
pub fn kw_wire_bytes(value_bytes: usize) -> usize {
    RdmaOp::Write { rkey: 0, va: 0, data: Bytes::from(vec![0u8; 4 + value_bytes]) }.wire_len()
}

/// Wire bytes of a Postcarding chunk write (`B` hops padded to a power of
/// two, 4 B slots).
pub fn postcard_wire_bytes(hops: usize) -> usize {
    let chunk = (hops * 4).next_power_of_two();
    RdmaOp::Write { rkey: 0, va: 0, data: Bytes::from(vec![0u8; chunk]) }.wire_len()
}

/// Wire bytes of an Append batch write.
pub fn append_wire_bytes(batch: usize, entry_bytes: usize) -> usize {
    RdmaOp::Write { rkey: 0, va: 0, data: Bytes::from(vec![0u8; batch * entry_bytes]) }.wire_len()
}

/// Table 2: the primitive each monitoring system maps onto.
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2 — Telemetry systems mapped onto DTA primitives",
        &["System", "Monitoring task", "Primitive"],
    );
    for (system, task, primitive) in TABLE2_INTEGRATIONS {
        t.row(&[system.to_string(), task.to_string(), primitive.to_string()]);
    }
    t
}

/// Figure 7a: generic 4 B INT collection, CPU baselines vs DTA primitives.
pub fn figure7a() -> Table {
    let cpu = CpuModel::default();
    let nic = NicPerfModel::new(NicConfig::bluefield2());
    let baseline = cpu.throughput(CollectorKind::MultiLog, 16).reports_per_sec;

    let mut t = Table::new(
        "Figure 7a — 4B INT collection throughput (baselines: 16 cores)",
        &["Collector", "Reports/sec", "vs MultiLog"],
    );
    for kind in [CollectorKind::BTrDb, CollectorKind::MultiLog, CollectorKind::IntCollector] {
        let r = cpu.throughput(kind, 16).reports_per_sec;
        t.row(&[
            kind.label().to_string(),
            fmt_rate(r),
            format!("{:.1}x", r / baseline),
        ]);
    }
    // DTA: Key-Write N=1; Postcarding 5-hop aggregation; Append batch 16.
    let kw = nic.report_rate(kw_wire_bytes(4), 1.0, 1.0);
    let pc = nic.report_rate(postcard_wire_bytes(5), 5.0, 1.0);
    let ap = nic.report_rate(append_wire_bytes(16, 4), 16.0, 1.0);
    for (name, rate) in [
        ("DTA Key-Write (N=1)", kw),
        ("DTA Postcarding (5-hop)", pc),
        ("DTA Append (batch 16)", ap),
    ] {
        t.row(&[name.to_string(), fmt_rate(rate), format!("{:.1}x", rate / baseline)]);
    }
    t
}

/// Figure 7b: Marple reporters one collector can sustain.
pub fn figure7b(quick: bool) -> Table {
    // Measure per-switch report rates empirically on the synthetic trace.
    let n = if quick { 50_000 } else { 400_000 };
    let mut gen = TraceGenerator::new(TraceConfig::default());
    let mut lossy = MarpleLossyFlows::new(0.01, 0, 0.02, 128, 7);
    let mut timeouts = MarpleTcpTimeouts::new(1.0 / 500.0, 1, 8);
    let (mut n_lossy, mut n_timeout) = (0u64, 0u64);
    for _ in 0..n {
        let p = gen.next_packet();
        n_lossy += lossy.on_packet(&p).is_some() as u64;
        n_timeout += timeouts.on_packet(&p).is_some() as u64;
    }
    let model = ReportRateModel::default();
    let pps = model.packets_per_sec();
    let per_switch =
        |reports: u64| -> f64 { (reports as f64 / n as f64) * pps };
    // The synthetic trace reproduces the Benson traces' flow-size and
    // popularity structure but not their exact burst timing, which is what
    // sets the flowlet-eviction rate; for that query we use the calibrated
    // Table 1 rate.
    let flowlet_rate = model.reports_per_sec(
        dta_telemetry::MonitoringSystem::MarpleFlowletSizes,
    );

    let cpu = CpuModel::default();
    let nic = NicPerfModel::new(NicConfig::bluefield2());
    let multilog = cpu.throughput(CollectorKind::MultiLog, 16).reports_per_sec;
    let append = nic.report_rate(append_wire_bytes(16, 4), 16.0, 1.0);
    let kw = nic.report_rate(kw_wire_bytes(4), 1.0, 1.0);

    let mut t = Table::new(
        "Figure 7b — Marple reporters per collector",
        &["Query", "Per-switch rate", "MultiLog [switches]", "DTA [switches]", "Gain"],
    );
    for (name, rate, dta_rate) in [
        ("Lossy Flows (Append)", per_switch(n_lossy), append),
        ("TCP Timeout (Key-Write)", per_switch(n_timeout), kw),
        ("Flowlet Sizes (Append)", flowlet_rate, append),
    ] {
        let base_cap = (multilog / rate).floor();
        let dta_cap = (dta_rate / rate).floor();
        t.row(&[
            name.to_string(),
            fmt_rate(rate),
            format!("{base_cap:.0}"),
            format!("{dta_cap:.0}"),
            format!("{:.0}x", dta_cap / base_cap.max(1.0)),
        ]);
    }
    t
}

/// Figure 8: memory instructions per ingested report, measured on the real
/// stores through the translator.
pub fn figure8(quick: bool) -> Table {
    let reports = if quick { 4_000u64 } else { 40_000 };
    let mut t = Table::new(
        "Figure 8 — Memory instructions per report (N=2, B=5, batch 16)",
        &["Collector", "Mem instr / report", "Paper"],
    );
    t.row(&[
        "MultiLog".to_string(),
        format!("{:.2}", CollectorKind::MultiLog.cost().mem_instructions),
        "343".to_string(),
    ]);

    // Key-Write, N=2.
    let mut pair = Pair::new(ServiceConfig::default(), TranslatorConfig::default());
    for i in 0..reports {
        let r = DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 2, vec![0u8; 4]);
        pair.process(0, &r);
    }
    let kw_instr = pair.collector.memory_instructions() as f64 / reports as f64;
    t.row(&["DTA Key-Write".to_string(), format!("{kw_instr:.2}"), "2.00".to_string()]);

    // Postcarding, N=2, 5 hops aggregated into one write per chunk.
    let mut pair = Pair::new(
        ServiceConfig::default(),
        TranslatorConfig { postcard_redundancy: 2, ..TranslatorConfig::default() },
    );
    let flows = reports / 5;
    for f in 0..flows {
        let key = TelemetryKey::from_u64(f);
        for hop in 0..5u8 {
            pair.process(0, &DtaReport::postcard(0, key, hop, 5, hop as u32 + 1));
        }
    }
    let pc_instr = pair.collector.memory_instructions() as f64 / (flows * 5) as f64;
    t.row(&["DTA Postcarding".to_string(), format!("{pc_instr:.2}"), "0.40".to_string()]);

    // Append, batch 16.
    let mut pair = Pair::new(ServiceConfig::default(), TranslatorConfig::default());
    for i in 0..reports {
        pair.process(0, &DtaReport::append(i as u32, (i % 8) as u32, (i as u32).to_be_bytes().to_vec()));
    }
    let ap_instr = pair.collector.memory_instructions() as f64 / reports as f64;
    t.row(&["DTA Append".to_string(), format!("{ap_instr:.2}"), "0.06".to_string()]);
    t
}

/// Figure 9: reporter hardware footprints.
pub fn figure9() -> Table {
    let mut t = Table::new(
        "Figure 9 — Reporter resource usage (% of chip)",
        &["Resource", "RDMA", "DTA", "UDP"],
    );
    let footprints: Vec<_> = ReporterKind::ALL.iter().map(|k| reporter_footprint(*k)).collect();
    for class in ResourceClass::ALL {
        t.row(&[
            class.label().to_string(),
            format!("{:.1}%", footprints[0].get(class)),
            format!("{:.1}%", footprints[1].get(class)),
            format!("{:.1}%", footprints[2].get(class)),
        ]);
    }
    t
}

/// Table 3: translator footprint, base and with Append batching.
pub fn table3() -> Table {
    let base = translator_footprint(TranslatorFeatures {
        append_batch: 1,
        ..TranslatorFeatures::paper_eval()
    });
    let batched = translator_footprint(TranslatorFeatures::paper_eval());
    let mut t = Table::new(
        "Table 3 — Translator resource footprint (KW + Postcarding + Append)",
        &["Resource", "Base", "+Batching (16x4B)"],
    );
    for class in [
        ResourceClass::Sram,
        ResourceClass::MatchCrossbar,
        ResourceClass::TableIds,
        ResourceClass::TernaryBus,
        ResourceClass::StatefulAlu,
    ] {
        t.row(&[
            class.label().to_string(),
            format!("{:.1}%", base.get(class)),
            format!("+{:.1}%", batched.get(class) - base.get(class)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7a_reproduces_headline_speedups() {
        let t = figure7a();
        let md = t.to_markdown();
        // The 4x / 16x / 41x claims should be visible (allowing rounding).
        assert!(md.contains("DTA Key-Write"));
        assert!(md.contains("DTA Append"));
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn figure8_matches_paper_within_tolerance() {
        let t = figure8(true);
        let csv = t.to_csv();
        // KW N=2 must measure exactly 2 RDMA ops per report.
        assert!(csv.contains("DTA Key-Write,2.00"), "csv:\n{csv}");
        // Postcarding: N=2 chunk writes per 5 postcards = 0.40.
        assert!(csv.contains("DTA Postcarding,0.40"), "csv:\n{csv}");
        // Append: 1 write per 16 entries = 0.06.
        assert!(csv.contains("DTA Append,0.06"), "csv:\n{csv}");
    }

    #[test]
    fn table2_covers_all_four_primitives() {
        let csv = table2().to_csv();
        for p in ["Key-Write", "Postcarding", "Append", "Key-Increment"] {
            assert!(csv.contains(p), "missing {p}");
        }
    }

    #[test]
    fn figure7b_dta_always_wins() {
        let t = figure7b(true);
        assert_eq!(t.len(), 3);
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let gain: f64 = line
                .rsplit(',')
                .next()
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!(gain > 1.0, "DTA must beat MultiLog: {line}");
        }
    }

    #[test]
    fn wire_sizes_are_consistent() {
        assert_eq!(kw_wire_bytes(4), 82); // 74B overhead + 8B slot
        assert_eq!(postcard_wire_bytes(5), 106); // 74 + 32
        assert_eq!(append_wire_bytes(16, 4), 138); // 74 + 64
    }
}
