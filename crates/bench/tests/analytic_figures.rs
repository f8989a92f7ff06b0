//! The analytic tables have no randomness and no trial count, so their
//! markdown is pinned byte for byte: `fixtures/analytic_figures.md` is what
//! `repro --exp t1|f2a|f2b|f2c|f3|t2|f7a` printed before the CPU cost model
//! moved into `dta-analysis`.

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
    ];
    let mut printed = String::new();
    for id in ids {
        for table in run_experiment(id, true) {
            // `repro` prints each table with `println!`.
            printed.push_str(&table.to_markdown());
            printed.push('\n');
        }
    }
    assert_eq!(printed, include_str!("fixtures/analytic_figures.md"));
}
