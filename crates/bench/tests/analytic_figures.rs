//! The analytic tables have no randomness and no trial count, so their
//! markdown is pinned byte for byte: `fixtures/analytic_figures.md` is what
//! `repro --exp t1|f2a|f2b|f2c|f3|t2|f7a` printed before the CPU cost model
//! moved into `dta-analysis`, then what `--exp f9|t3` and the two
//! deterministic tables of `--exp ablations` printed before the Tofino
//! resource tables did.

use dta_bench::exp::ablations::{ablation_batch_tradeoff, ablation_postcard_encoding};
use dta_bench::{run_experiment, ExperimentId};

#[test]
fn analytic_figures_are_pinned() {
    let ids = [
        ExperimentId::T1,
        ExperimentId::F2a,
        ExperimentId::F2b,
        ExperimentId::F2c,
        ExperimentId::F3,
        ExperimentId::T2,
        ExperimentId::F7a,
        ExperimentId::F9,
        ExperimentId::T3,
    ];
    let tables = ids
        .into_iter()
        .flat_map(|id| run_experiment(id, true))
        .chain([ablation_postcard_encoding(), ablation_batch_tradeoff()]);
    let mut printed = String::new();
    for table in tables {
        // `repro` prints each table with `println!`.
        printed.push_str(&table.to_markdown());
        printed.push('\n');
    }
    assert_eq!(printed, include_str!("fixtures/analytic_figures.md"));
}
