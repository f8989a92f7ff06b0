//! Postcarding error bounds — equations (5)–(8), Appendix A.6.
//!
//! The structure mirrors Key-Write, with the per-slot checksum-collision
//! probability `2^{-b}` replaced by the probability that an overwritten
//! *chunk* still decodes as valid information for the queried key:
//! `p = ((|V| + 1) · 2^{-b})^B` — every one of the `B` hop slots must
//! decode to some value in `V ∪ {⊔}`.

use crate::choose;

/// `p`: probability an overwritten chunk holds valid-looking information.
fn pc_valid_info_prob(values: u64, b: u32, hops: u32) -> f64 {
    let per_slot = ((values + 1) as f64) * 2f64.powi(-(b as i32));
    per_slot.min(1.0).powi(hops as i32)
}

/// Probability of failing to report a collected flow (empty return): the
/// sum of equations (5), (6), (7).
pub fn pc_empty_return_bound(n: u32, b: u32, alpha: f64, values: u64, hops: u32) -> f64 {
    assert!(n >= 1 && b >= 1 && hops >= 1);
    let nf = n as f64;
    let p_over = 1.0 - (-alpha * nf).exp();
    let p = pc_valid_info_prob(values, b, hops);

    // (5): all chunks overwritten, none decodes as valid.
    let t5 = p_over.powi(n as i32) * (1.0 - p).powi(n as i32);
    // (6): all overwritten, ≥2 decode valid but disagree.
    let t6 = p_over.powi(n as i32)
        * (1.0 - (1.0 - p).powi(n as i32) - nf * p * (1.0 - p).powi(n as i32 - 1));
    // (7): j of N overwritten and at least one decodes valid.
    let mut t7 = 0.0;
    for j in 1..n {
        let jf = j as f64;
        t7 += choose(n as u64, j as u64)
            * p_over.powf(jf)
            * (-alpha * nf * (nf - jf)).exp()
            * (1.0 - (1.0 - p).powf(jf));
    }
    (t5 + t6 + t7).clamp(0.0, 1.0)
}

/// Probability of reporting a wrong path: equation (8).
pub fn pc_wrong_return_bound(n: u32, b: u32, alpha: f64, values: u64, hops: u32) -> f64 {
    let nf = n as f64;
    let p_over = 1.0 - (-alpha * nf).exp();
    (p_over.powi(n as i32) * nf * pc_valid_info_prob(values, b, hops)).clamp(0.0, 1.0)
}

/// The paper's §4 comparison: using plain Key-Write per postcard spends
/// `2b` bits per slot (checksum + value) and has per-hop wrong-output
/// probability from equation (4); across `B` hops the union bound gives
/// `B` times that. Returns `(kw_wrong_any_hop, postcarding_wrong)` for the
/// same `b`.
pub fn kw_vs_postcarding_wrong_output(
    n: u32,
    b: u32,
    alpha: f64,
    values: u64,
    hops: u32,
) -> (f64, f64) {
    let kw_per_hop = crate::keywrite::kw_wrong_return_bound(n, b, alpha);
    (kw_per_hop * hops as f64, pc_wrong_return_bound(n, b, alpha, values, hops))
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: u64 = 1 << 18; // "a large data center (|V| = 2^18 switches)"

    #[test]
    fn paper_numeric_example() {
        // Appendix A.6: B=5, N=2, b=32, α=0.1 -> empty ≤ 3.3%,
        // wrong < 1e-22.
        let empty = pc_empty_return_bound(2, 32, 0.1, V, 5);
        assert!(empty < 0.033, "empty {empty}");
        assert!(empty > 0.030);
        let wrong = pc_wrong_return_bound(2, 32, 0.1, V, 5);
        assert!(wrong < 1e-22, "wrong {wrong}");
    }

    #[test]
    fn postcarding_beats_kw_on_wrong_output() {
        // "using KW for postcarding gives a false output probability of
        // ≈ 8e-11 ... using twice the bit-width per entry!"
        let (kw, pc) = kw_vs_postcarding_wrong_output(2, 32, 0.1, V, 5);
        assert!((kw - 8e-11).abs() < 2e-11, "KW-any-hop {kw}");
        assert!(pc < 1e-22);
        assert!(pc < kw / 1e10, "postcarding must win by orders of magnitude");
    }

    #[test]
    fn valid_info_prob_decays_with_hops() {
        let p1 = pc_valid_info_prob(V, 32, 1);
        let p5 = pc_valid_info_prob(V, 32, 5);
        assert!((p5 - p1.powi(5)).abs() < 1e-30);
        assert!(p5 < p1);
    }

    #[test]
    fn narrow_slots_raise_error() {
        let wide = pc_wrong_return_bound(2, 32, 0.5, V, 5);
        let narrow = pc_wrong_return_bound(2, 20, 0.5, V, 5);
        assert!(narrow > wide);
    }

    #[test]
    fn bounds_are_probabilities() {
        for n in 1..=4 {
            for alpha in [0.0, 0.1, 1.0, 4.0] {
                for b in [16, 24, 32] {
                    let e = pc_empty_return_bound(n, b, alpha, V, 5);
                    let w = pc_wrong_return_bound(n, b, alpha, V, 5);
                    assert!((0.0..=1.0).contains(&e));
                    assert!((0.0..=1.0).contains(&w));
                }
            }
        }
    }

    #[test]
    fn saturated_per_slot_probability_clamps() {
        // |V|+1 >= 2^b: every slot always "decodes"; p must clamp at 1.
        let p = pc_valid_info_prob(1 << 20, 8, 3);
        assert_eq!(p, 1.0);
    }
}
