//! Experiment implementations for the `repro` harness.
//!
//! Each paper table/figure has a function returning one or more
//! [`dta_analysis::Table`]s; the `repro` binary selects and prints them.
//! Experiments that would need the authors' testbed scale (4 GiB stores,
//! 100M-key sweeps) run at a reduced scale with identical dimensionless
//! parameters (load factor α, redundancy N, batch size B) — the quantities
//! the results actually depend on; each experiment's doc comment records
//! its scale choice.

pub mod exp;

pub use exp::{all_experiments, run_experiment, ExperimentId};
