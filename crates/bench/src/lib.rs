//! Experiment implementations for the `repro` harness, and the corpus
//! invariant checks the `sweep` binary runs.
//!
//! Each paper table/figure has a function returning one or more
//! [`dta_analysis::Table`]s; the `repro` binary selects and prints them.
//! Experiments that would need the authors' testbed scale (4 GiB stores,
//! 100M-key sweeps) run at a reduced scale with identical dimensionless
//! parameters (load factor α, redundancy N, batch size B) — the quantities
//! the results actually depend on; each experiment's doc comment records
//! its scale choice.
//!
//! [`invariants::check_file`] runs every cell of one `scenarios/*.toml`
//! file against the invariants it declares; the `sweep` binary and the root
//! `tests/corpus.rs` both call it.

pub mod exp;
pub mod invariants;

pub use exp::{all_experiments, run_experiment, ExperimentId};
