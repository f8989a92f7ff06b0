//! Appendix experiments: the A.5 / A.6 bounds against the real stores, and
//! the one measurement of store accuracy every accuracy figure runs.

use dta_analysis::keywrite::{kw_empty_return_bound, kw_wrong_return_bound};
use dta_analysis::postcarding::{kw_vs_postcarding_wrong_output, pc_empty_return_bound};
use dta_analysis::Table;
use dta_collector::{
    KeyWriteStore, KwLayout, PostcardLayout, PostcardQueryOutcome, PostcardStore, QueryOutcome,
    QueryPolicy, ValueCodec,
};
use dta_core::TelemetryKey;
use dta_net::splitmix64;
use dta_rdma::mr::{MemoryRegion, MrAccess};

/// What a windowed accuracy run measured: the shares of queries that
/// returned the key's own value, another key's value (return errors), and
/// nothing or a tie (empty returns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Accuracy {
    pub found: f64,
    pub wrong: f64,
    pub empty: f64,
}

/// The sliding window every accuracy measurement runs: stream
/// `age + trials` keys drawn with `splitmix64` from `seed` through `write`,
/// and `judge` each key just after exactly `age` newer keys were written
/// (`Some(true)` for its own value, `Some(false)` for another's, `None` for
/// nothing). Writes older than a key cannot change what its query sees, so
/// one store serves every trial.
pub(crate) fn window(
    age: u64, trials: u64, seed: u64, mut write: impl FnMut(u64), mut judge: impl FnMut(u64) -> Option<bool>,
) -> Accuracy {
    let (mut writer, mut reader) = (seed, seed);
    let mut counts = [0u64; 3]; // found, wrong, empty
    for written in 1..=age + trials {
        write(splitmix64(&mut writer));
        if written > age {
            counts[match judge(splitmix64(&mut reader)) {
                Some(true) => 0,
                Some(false) => 1,
                None => 2,
            }] += 1;
        }
    }
    let [found, wrong, empty] = counts.map(|c| c as f64 / trials as f64);
    Accuracy { found, wrong, empty }
}

/// Key-Write accuracy on the real store: a `slots`-slot [`KeyWriteStore`]
/// with `value_bytes`-byte values, written at redundancy `n` through its
/// own hash family and slot images, each key queried under `policy` after
/// `age` newer keys (load `α = age / slots`).
pub(crate) fn kw_window(
    slots: u64, n: usize, value_bytes: u32, age: u64, trials: u64, policy: QueryPolicy, seed: u64,
) -> Accuracy {
    let layout = KwLayout { base_va: 0, slots, value_bytes };
    let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
    let store = KeyWriteStore::new(layout, region, n);
    // A key's value is its own id, repeated, so another key's value differs.
    let value = |x: u64| x.to_le_bytes().repeat(8);
    let write = |x| store.insert_direct(&TelemetryKey::from_u64(x), &value(x), n);
    window(age, trials, seed, write, |x| match store.query(&TelemetryKey::from_u64(x), n, policy) {
        QueryOutcome::Found(v) => Some(v == value(x)[..value_bytes as usize]),
        QueryOutcome::NotFound | QueryOutcome::Ambiguous => None,
    })
}

/// Hop bound `B` of the Postcarding measurements (a 5-hop fat-tree path).
const HOPS: u8 = 5;

/// [`kw_window`] for Postcarding: a `chunks`-chunk [`PostcardStore`] of
/// `bits`-bit slots over the switch ids `0..values`, each key's path
/// [`HOPS`] ids drawn from the key.
fn pc_window(chunks: u64, n: usize, bits: u32, values: u32, age: u64, trials: u64, seed: u64) -> Accuracy {
    let layout = PostcardLayout { base_va: 0, chunks, hops: HOPS, slot_bits: bits };
    let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
    let store = PostcardStore::new(layout, region, ValueCodec::switch_ids(values, bits), n);
    let path = |mut x: u64| [0; HOPS as usize].map(|_| (splitmix64(&mut x) % u64::from(values)) as u32);
    let write = |x| store.insert_direct(&TelemetryKey::from_u64(x), &path(x), n);
    window(age, trials, seed, write, |x| match store.query(&TelemetryKey::from_u64(x), n) {
        PostcardQueryOutcome::Found(p) => Some(p == path(x)),
        PostcardQueryOutcome::NotFound | PostcardQueryOutcome::Ambiguous => None,
    })
}

/// Appendix A.5: Key-Write bounds, with the empty-return term measured on
/// the real store.
pub fn appendix_a5(quick: bool) -> Table {
    let trials = if quick { 500 } else { 3_000 };
    let slots = 1 << 13;
    let mut t = Table::new(
        "Appendix A.5 — Key-Write error bounds (b=32, α=0.1)",
        &["N", "Empty-return bound", "Measured empty", "Wrong-return bound"],
    );
    for n in [1u32, 2, 4, 8] {
        let measured =
            kw_window(slots, n as usize, 4, slots / 10, trials, QueryPolicy::Plurality, 1000 + u64::from(n));
        t.row(&[
            n.to_string(),
            format!("{:.4}", kw_empty_return_bound(n, 32, 0.1)),
            format!("{:.4}", measured.empty),
            format!("{:.2e}", kw_wrong_return_bound(n, 32, 0.1)),
        ]);
    }
    t
}

/// Appendix A.6: Postcarding bounds, the empty-return term measured on the
/// real store, and the KW-per-postcard comparison.
pub fn appendix_a6(quick: bool) -> Table {
    const V: u32 = 1 << 18;
    let trials = if quick { 500 } else { 3_000 };
    let chunks = 1 << 13;
    let mut t = Table::new(
        "Appendix A.6 — Postcarding error bounds (|V|=2^18, B=5, b=32, α=0.1)",
        &["N", "Empty-return bound", "Measured empty", "Wrong-return bound", "KW-per-postcard wrong (2x bits)"],
    );
    for n in [1u32, 2, 4] {
        let (kw_wrong, pc_wrong) = kw_vs_postcarding_wrong_output(n, 32, 0.1, V.into(), 5);
        let measured = pc_window(chunks, n as usize, 32, V, chunks / 10, trials, 2000 + u64::from(n));
        t.row(&[
            n.to_string(),
            format!("{:.4}", pc_empty_return_bound(n, 32, 0.1, V.into(), 5)),
            format!("{:.4}", measured.empty),
            format!("{pc_wrong:.2e}"),
            format!("{kw_wrong:.2e}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_analysis::keywrite::kw_success_rate;

    /// Plurality-vote success of a 4-byte-value store at load `alpha`.
    fn success(slots: u64, n: usize, alpha: f64, trials: u64, seed: u64) -> f64 {
        let age = (alpha * slots as f64).round() as u64;
        let acc = kw_window(slots, n, 4, age, trials, QueryPolicy::Plurality, seed);
        assert_eq!(acc.wrong, 0.0, "the real store returned a wrong value at b=32");
        acc.found
    }

    #[test]
    fn a5_table_has_all_redundancies() {
        let t = appendix_a5(true);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn a6_postcarding_wrong_is_negligible() {
        let csv = appendix_a6(true).to_csv();
        // N=2 row: wrong bound below 1e-22.
        let row = csv.lines().find(|l| l.starts_with("2,")).unwrap();
        assert!(row.contains("e-2"), "expected ~1e-22 magnitude: {row}");
    }

    #[test]
    fn empirical_empty_rate_close_to_bound() {
        // The bound is nearly tight for b=32 (checksum collisions are
        // negligible): measured ≈ (1 - e^{-αN})^N.
        let acc = kw_window(4096, 2, 4, 410, 2000, QueryPolicy::Plurality, 42);
        let bound = kw_empty_return_bound(2, 32, 0.1);
        assert!(
            acc.empty <= bound * 1.35 + 0.01,
            "measured {} vs bound {bound}",
            acc.empty
        );
        assert!(
            acc.empty >= bound * 0.5 - 0.01,
            "bound should be near-tight: measured {} vs bound {bound}",
            acc.empty
        );
    }

    #[test]
    fn wrong_returns_essentially_never_happen_at_b32() {
        let acc = kw_window(1024, 2, 4, 512, 2000, QueryPolicy::Plurality, 7);
        assert_eq!(acc.wrong, 0.0, "2^-32 collisions in 2k trials");
        let bound = kw_wrong_return_bound(2, 32, 0.5);
        assert!(bound < 1e-9);
    }

    #[test]
    fn postcarding_mc_matches_bound_shape() {
        let acc = pc_window(4096, 2, 32, 1 << 18, 410, 2000, 13);
        let bound = pc_empty_return_bound(2, 32, 0.1, 1 << 18, 5);
        // With b=32 the false-valid term is negligible: the measured empty
        // rate tracks the (1-e^{-αN})^N term.
        assert!(acc.empty <= bound * 1.4 + 0.01, "measured {} vs bound {bound}", acc.empty);
        assert_eq!(acc.wrong, 0.0, "wrong returns at b=32: {}", acc.wrong);
        assert!(acc.found > 0.9);
    }

    #[test]
    fn postcarding_mc_narrow_slots_fail_visibly() {
        // b=8 with |V|=2^10: every 8-bit word decodes to some switch id, so
        // an overwritten chunk decodes to another flow's path.
        let acc = pc_window(256, 1, 8, 1 << 10, 256, 1000, 17);
        assert!(acc.wrong > 0.0, "saturated slots must produce wrong paths");
    }

    #[test]
    fn byte_level_matches_bound() {
        // Moderate load, N=2: the real store and the closed form agree.
        let alpha = 0.2;
        let real = success(1 << 13, 2, alpha, 800, 1);
        let bound = kw_success_rate(2, 32, alpha);
        assert!((real - bound).abs() < 0.08, "byte-level {real:.3} vs analytic {bound:.3}");
    }

    #[test]
    fn byte_level_redundancy_ordering_matches_theory() {
        // At α = 0.1 theory says success(N=4) > success(N=2) > success(N=1).
        let alpha = 0.1;
        let slots = 1 << 13;
        let s1 = success(slots, 1, alpha, 600, 10);
        let s2 = success(slots, 2, alpha, 600, 11);
        let s4 = success(slots, 4, alpha, 600, 12);
        assert!(s2 > s1 - 0.02, "N=2 {s2:.3} should beat N=1 {s1:.3}");
        assert!(s4 > s2 - 0.02, "N=4 {s4:.3} should beat N=2 {s2:.3}");
        assert!(s4 > 0.95, "N=4 at α=0.1 should be near-perfect: {s4:.3}");
    }

    #[test]
    fn byte_level_tracks_figure12_curve() {
        // Sweep α and compare against the closed-form success curve for N=2.
        for alpha in [0.1, 0.4, 0.8] {
            let real = success(1 << 12, 2, alpha, 400, 42);
            let bound = kw_success_rate(2, 32, alpha);
            assert!(
                (real - bound).abs() < 0.12,
                "α={alpha}: byte-level {real:.3} vs analytic {bound:.3}"
            );
        }
    }
}
