//! Analysis: closed-form bounds and experiment-table helpers.
//!
//! * [`keywrite`] — the Key-Write empty-return / wrong-return bounds,
//!   equations (1)–(4) of the paper (Appendix A.5).
//! * [`postcarding`] — the Postcarding bounds, equations (5)–(8)
//!   (Appendix A.6).
//! * [`cpu`] — the CPU-collector cycle/memory model (MultiLog, Cuckoo, BTrDB,
//!   INTCollector) behind Figures 2, 3 and 7a.
//! * [`cost`] — the Figure 3 collection-cost model (cores vs network size).
//! * [`resources`] — the Tofino resource tables behind Figure 9 (reporter
//!   footprints) and Table 3 (translator footprint, Append batching).
//! * [`table`] — markdown/CSV table emission for the `repro` harness.
//! * [`sweep`] — corpus-sweep coverage aggregation + the closed-form
//!   Key-Write audit check behind the `sweep` binary's coverage report.
//!
//! The bounds are measured against the real stores by the A.5/A.6
//! experiments in `dta-bench` (`exp::analysis`), not by a model here.

pub mod cost;
pub mod cpu;
pub mod keywrite;
pub mod postcarding;
pub mod resources;
pub mod sweep;
pub mod table;

pub use keywrite::{kw_empty_return_bound, kw_wrong_return_bound};
pub use postcarding::{pc_empty_return_bound, pc_wrong_return_bound};
pub use table::Table;

/// Binomial coefficient over f64 (exact for the tiny `N` used here).
pub(crate) fn choose(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut out = 1.0;
    for i in 0..k {
        out *= (n - i) as f64 / (i + 1) as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_small_values() {
        assert_eq!(choose(4, 2), 6.0);
        assert_eq!(choose(8, 0), 1.0);
        assert_eq!(choose(8, 8), 1.0);
        assert_eq!(choose(3, 5), 0.0);
        assert_eq!(choose(10, 3), 120.0);
    }
}
