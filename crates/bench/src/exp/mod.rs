//! Experiment registry: one entry per paper table/figure.

pub mod ablations;
pub mod analysis;
pub mod harness;
pub mod motivation;
pub mod parallel;
pub mod primitives;
pub mod system;

use dta_analysis::Table;

/// Identifier of a reproducible table/figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    /// Table 1: per-switch report rates.
    T1,
    /// Figure 2a: baseline collection speed vs cores.
    F2a,
    /// Figure 2b: memory-stalled cycles vs cores.
    F2b,
    /// Figure 2c: cycle breakdown.
    F2c,
    /// Figure 3: cores needed vs network size.
    F3,
    /// Table 2: system-to-primitive mapping.
    T2,
    /// Figure 7a: DTA vs CPU collectors, INT collection.
    F7a,
    /// Figure 7b: Marple capacity (switches per collector).
    F7b,
    /// Figure 8: memory instructions per report.
    F8,
    /// Figure 9: reporter resource footprints.
    F9,
    /// Table 3: translator resource footprint.
    T3,
    /// Figure 10: Key-Write collection rate vs redundancy.
    F10,
    /// Figure 11a/11b: Key-Write query rate and breakdown.
    F11,
    /// Figure 12: query success vs load factor.
    F12,
    /// Figure 13: data longevity.
    F13,
    /// Figure 14: Postcarding throughput vs cache size.
    F14,
    /// Figure 15: Append throughput vs batch size.
    F15,
    /// Figure 16a/16b: Append polling rate and breakdown.
    F16,
    /// Appendix A.5: Key-Write bounds vs the measured store.
    A5,
    /// Appendix A.6: Postcarding bounds vs the measured store.
    A6,
    /// Ablation studies (DESIGN.md §6): query policies, checksum width,
    /// postcard encoding, batch tradeoff.
    Ablations,
}

impl ExperimentId {
    /// All experiments in paper order.
    pub const ALL: [ExperimentId; 21] = [
        ExperimentId::T1,
        ExperimentId::F2a,
        ExperimentId::F2b,
        ExperimentId::F2c,
        ExperimentId::F3,
        ExperimentId::T2,
        ExperimentId::F7a,
        ExperimentId::F7b,
        ExperimentId::F8,
        ExperimentId::F9,
        ExperimentId::T3,
        ExperimentId::F10,
        ExperimentId::F11,
        ExperimentId::F12,
        ExperimentId::F13,
        ExperimentId::F14,
        ExperimentId::F15,
        ExperimentId::F16,
        ExperimentId::A5,
        ExperimentId::A6,
        ExperimentId::Ablations,
    ];

    /// CLI name (`t1`, `f7a`, ...).
    pub fn name(self) -> &'static str {
        match self {
            ExperimentId::T1 => "t1",
            ExperimentId::F2a => "f2a",
            ExperimentId::F2b => "f2b",
            ExperimentId::F2c => "f2c",
            ExperimentId::F3 => "f3",
            ExperimentId::T2 => "t2",
            ExperimentId::F7a => "f7a",
            ExperimentId::F7b => "f7b",
            ExperimentId::F8 => "f8",
            ExperimentId::F9 => "f9",
            ExperimentId::T3 => "t3",
            ExperimentId::F10 => "f10",
            ExperimentId::F11 => "f11",
            ExperimentId::F12 => "f12",
            ExperimentId::F13 => "f13",
            ExperimentId::F14 => "f14",
            ExperimentId::F15 => "f15",
            ExperimentId::F16 => "f16",
            ExperimentId::A5 => "a5",
            ExperimentId::A6 => "a6",
            ExperimentId::Ablations => "ablations",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.name() == s)
    }
}

/// All experiment ids.
pub fn all_experiments() -> &'static [ExperimentId] {
    &ExperimentId::ALL
}

/// Run one experiment, returning its tables. `quick` reduces trial counts
/// for CI-speed runs.
pub fn run_experiment(id: ExperimentId, quick: bool) -> Vec<Table> {
    match id {
        ExperimentId::T1 => vec![motivation::table1()],
        ExperimentId::F2a => vec![motivation::figure2a()],
        ExperimentId::F2b => vec![motivation::figure2b()],
        ExperimentId::F2c => vec![motivation::figure2c()],
        ExperimentId::F3 => vec![motivation::figure3()],
        ExperimentId::T2 => vec![system::table2()],
        ExperimentId::F7a => vec![system::figure7a()],
        ExperimentId::F7b => vec![system::figure7b(quick)],
        ExperimentId::F8 => vec![system::figure8(quick)],
        ExperimentId::F9 => vec![system::figure9()],
        ExperimentId::T3 => vec![system::table3()],
        ExperimentId::F10 => vec![primitives::figure10()],
        ExperimentId::F11 => primitives::figure11(quick),
        ExperimentId::F12 => vec![primitives::figure12(quick)],
        ExperimentId::F13 => vec![primitives::figure13(quick)],
        ExperimentId::F14 => vec![primitives::figure14(quick)],
        ExperimentId::F15 => vec![primitives::figure15()],
        ExperimentId::F16 => primitives::figure16(quick),
        ExperimentId::A5 => vec![analysis::appendix_a5(quick)],
        ExperimentId::A6 => vec![analysis::appendix_a6(quick)],
        ExperimentId::Ablations => vec![
            ablations::ablation_query_policy(quick),
            ablations::ablation_checksum_width(quick),
            ablations::ablation_postcard_encoding(),
            ablations::ablation_batch_tradeoff(),
        ],
    }
}
