//! Key-Write error bounds — equations (1)–(4), Appendix A.5.
//!
//! Parameters: redundancy `N`, checksum width `b` bits, and load `α` — the
//! number of distinct keys written after the queried key divided by the
//! number of slots `M`. The Poisson approximation `(1 − e^{−αN})` is the
//! probability that one particular slot was overwritten.

use crate::choose;

/// Probability that a query returns nothing (an *empty return*): the sum of
/// terms (1), (2), and (3) of the paper.
pub fn kw_empty_return_bound(n: u32, b: u32, alpha: f64) -> f64 {
    assert!(n >= 1 && b >= 1 && alpha >= 0.0);
    let nf = n as f64;
    let p_over = 1.0 - (-alpha * nf).exp(); // one slot overwritten
    let q = 2f64.powi(-(b as i32)); // checksum collision chance

    // (1): all N slots overwritten, none carries our checksum.
    let t1 = p_over.powi(n as i32) * (1.0 - q).powi(n as i32);

    // (2): all N overwritten, and ≥2 colliding checksums disagree.
    let t2 = p_over.powi(n as i32)
        * (1.0 - (1.0 - q).powi(n as i32) - nf * q * (1.0 - q).powi(n as i32 - 1));

    // (3): j of N overwritten (1 ≤ j < N), some overwriter matches our
    // checksum (with a potentially different value).
    let mut t3 = 0.0;
    for j in 1..n {
        let jf = j as f64;
        t3 += choose(n as u64, j as u64)
            * p_over.powf(jf)
            * (-alpha * nf * (nf - jf)).exp()
            * (1.0 - (1.0 - q).powf(jf));
    }
    t1 + t2 + t3
}

/// Probability that a query returns an incorrect value (a *return error*):
/// equation (4).
pub fn kw_wrong_return_bound(n: u32, b: u32, alpha: f64) -> f64 {
    assert!(n >= 1 && b >= 1 && alpha >= 0.0);
    let nf = n as f64;
    let p_over = 1.0 - (-alpha * nf).exp();
    p_over.powi(n as i32) * nf * 2f64.powi(-(b as i32))
}

/// Expected query success rate at load factor `alpha` with redundancy `n`
/// (the Figure 12 y-axis: 1 − empty-return probability).
pub fn kw_success_rate(n: u32, b: u32, alpha: f64) -> f64 {
    (1.0 - kw_empty_return_bound(n, b, alpha)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numeric_example_n2() {
        // §4: "if N = 2, b = 32, α = 0.1, the chance of not providing the
        // output is less than 3.3%, while the probability of wrong output is
        // bounded by 1.6e-11".
        let empty = kw_empty_return_bound(2, 32, 0.1);
        assert!(empty < 0.033, "empty bound {empty}");
        assert!(empty > 0.030, "empty bound suspiciously small: {empty}");
        let wrong = kw_wrong_return_bound(2, 32, 0.1);
        assert!(wrong < 1.6e-11, "wrong bound {wrong}");
        assert!(wrong > 1.0e-11);
    }

    #[test]
    fn paper_numeric_example_n1_and_n4() {
        // "significantly lower than with N = 1 (9.5%) and higher than for
        // N = 4 (1.2%)".
        let n1 = kw_empty_return_bound(1, 32, 0.1);
        assert!((n1 - 0.095).abs() < 0.002, "N=1 bound {n1}");
        let n4 = kw_empty_return_bound(4, 32, 0.1);
        assert!((n4 - 0.012).abs() < 0.002, "N=4 bound {n4}");
    }

    #[test]
    fn wider_checksum_reduces_wrong_returns() {
        let w8 = kw_wrong_return_bound(2, 8, 0.5);
        let w16 = kw_wrong_return_bound(2, 16, 0.5);
        let w32 = kw_wrong_return_bound(2, 32, 0.5);
        assert!(w8 > w16 && w16 > w32);
        assert!((w8 / w16 - 256.0).abs() < 1.0);
    }

    #[test]
    fn success_decreases_with_load() {
        let mut prev = 1.0;
        for alpha in [0.05, 0.1, 0.2, 0.4, 0.8, 1.0] {
            let s = kw_success_rate(2, 32, alpha);
            assert!(s <= prev, "success must fall with load");
            prev = s;
        }
    }

    #[test]
    fn bounds_are_probabilities() {
        for n in 1..=8 {
            for alpha in [0.0, 0.1, 0.5, 1.0, 2.0] {
                let e = kw_empty_return_bound(n, 32, alpha);
                let w = kw_wrong_return_bound(n, 32, alpha);
                assert!((0.0..=1.0).contains(&e), "empty({n},{alpha}) = {e}");
                assert!((0.0..=1.0).contains(&w), "wrong({n},{alpha}) = {w}");
            }
        }
    }

    #[test]
    fn zero_load_never_fails() {
        assert_eq!(kw_empty_return_bound(2, 32, 0.0), 0.0);
        assert_eq!(kw_wrong_return_bound(2, 32, 0.0), 0.0);
    }
}
