//! The analytic tables have no randomness and no trial count, so their
//! markdown is pinned byte for byte: `fixtures/analytic_figures.md` is what
//! `repro --exp t1|f2a|f2b|f2c|f3|t2|f7a` printed before the CPU cost model
//! moved into `dta-analysis`, then what `--exp f9|t3` and the two
//! deterministic tables of `--exp ablations` printed before the Tofino
//! resource tables did. The accuracy tables — `--quick` Figures 12 and 13,
//! A.5, A.6 and the query-policy ablation — are pinned beside them: they
//! measure the real stores with keys drawn from a fixed seed, so they are a
//! pure function of the hash family, the slot images and the vote, and move
//! only when one of those does. The `--quick` Figure 7b counts two Marple
//! queries over the fixed-seed synthetic trace, so it is pinned the same way.

use dta_bench::exp::ablations::{
    ablation_batch_tradeoff, ablation_postcard_encoding, ablation_query_policy,
};
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
        ExperimentId::F7b,
        ExperimentId::F9,
        ExperimentId::T3,
        ExperimentId::F12,
        ExperimentId::F13,
        ExperimentId::A5,
        ExperimentId::A6,
    ];
    let tables = ids.into_iter().flat_map(|id| run_experiment(id, true)).chain([
        ablation_query_policy(true),
        ablation_postcard_encoding(),
        ablation_batch_tradeoff(),
    ]);
    let mut printed = String::new();
    for table in tables {
        // `repro` prints each table with `println!`.
        printed.push_str(&table.to_markdown());
        printed.push('\n');
    }
    assert_eq!(printed, include_str!("fixtures/analytic_figures.md"));
}
