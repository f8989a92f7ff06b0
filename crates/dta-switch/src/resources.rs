//! Hardware resource accounting.
//!
//! Figure 9 and Table 3 of the paper report resource usage as a percentage
//! of the chip, across six resource classes. Components declare their
//! footprints as [`ResourceVector`]s; vectors add when features compose
//! (e.g., translator base + Append batching in Table 3).

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
    /// The zero vector.
    pub const ZERO: ResourceVector = ResourceVector {
        sram: 0.0,
        match_xbar: 0.0,
        table_ids: 0.0,
        hash_dist: 0.0,
        ternary_bus: 0.0,
        stateful_alu: 0.0,
    };

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

    /// Whether every class fits in the chip (≤ 100%).
    pub fn fits(&self) -> bool {
        ResourceClass::ALL.iter().all(|c| self.get(*c) <= 100.0)
    }

    /// The most-utilized class and its usage.
    pub fn bottleneck(&self) -> (ResourceClass, f64) {
        ResourceClass::ALL
            .iter()
            .map(|c| (*c, self.get(*c)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty class list")
    }

    /// Scale every class by `f` (e.g., batching cost linear in batch size).
    pub fn scale(&self, f: f64) -> ResourceVector {
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

impl core::fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for (i, c) in ResourceClass::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {:.1}%", c.label(), self.get(*c))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_per_class() {
        let a = ResourceVector { sram: 10.0, stateful_alu: 5.0, ..ResourceVector::ZERO };
        let b = ResourceVector { sram: 3.0, hash_dist: 2.0, ..ResourceVector::ZERO };
        let c = a + b;
        assert!((c.sram - 13.0).abs() < 1e-12);
        assert!((c.stateful_alu - 5.0).abs() < 1e-12);
        assert!((c.hash_dist - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fits_detects_overflow() {
        let ok = ResourceVector { sram: 99.9, ..ResourceVector::ZERO };
        let over = ResourceVector { stateful_alu: 100.1, ..ResourceVector::ZERO };
        assert!(ok.fits());
        assert!(!over.fits());
    }

    #[test]
    fn bottleneck_finds_max() {
        let v = ResourceVector { sram: 13.2, stateful_alu: 56.3, ..ResourceVector::ZERO };
        let (c, pct) = v.bottleneck();
        assert_eq!(c, ResourceClass::StatefulAlu);
        assert!((pct - 56.3).abs() < 1e-12);
    }

    #[test]
    fn scale_is_linear() {
        let v = ResourceVector { sram: 2.0, ..ResourceVector::ZERO };
        assert!((v.scale(8.0).sram - 16.0).abs() < 1e-12);
    }

    #[test]
    fn display_lists_all_classes() {
        let s = ResourceVector::ZERO.to_string();
        for c in ResourceClass::ALL {
            assert!(s.contains(c.label()), "missing {}", c.label());
        }
    }
}
