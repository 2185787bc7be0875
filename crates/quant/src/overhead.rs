//! The memory-overhead model of Eq. (1) (§3.2).

/// Memory overhead of MX-OPAL relative to MXINT/MinMax, Eq. (1) of the paper:
///
/// `OMEM = ((k − n)·b + 16·n + 4) / (k·b + 8)`
///
/// where `k` is the block size, `n` the preserved-outlier count and `b` the
/// non-outlier bit-width.
///
/// # Example
///
/// ```
/// use opal_quant::overhead::omem;
///
/// // §3.2: "only 2.7% of additional memory ... when k = 128, n = 4, b = 8"
/// assert!((omem(128, 4, 8) - 1.027).abs() < 1e-3);
/// ```
///
/// # Panics
///
/// Panics if `n > k` or `k == 0`.
pub fn omem(k: usize, n: usize, b: u32) -> f64 {
    assert!(k > 0, "block size must be positive");
    assert!(n <= k, "cannot preserve more outliers than elements");
    let num = (k - n) as f64 * f64::from(b) + 16.0 * n as f64 + 4.0;
    let den = k as f64 * f64::from(b) + 8.0;
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_b8_table() {
        // Fig. 4(a) inset: n=1,2,4,8 -> 1.004, 1.012, 1.027, 1.058.
        let expect = [(1, 1.004), (2, 1.012), (4, 1.027), (8, 1.058)];
        for (n, e) in expect {
            assert!((omem(128, n, 8) - e).abs() < 1.5e-3, "n={n}");
        }
    }

    #[test]
    fn b4_table_close_to_paper_within_its_own_inconsistency() {
        // Fig. 4(b) inset prints 1.024, 1.046, 1.092, 1.185 — consistently
        // ~0.8 % above Eq. (1) as stated (which gives 1.015, 1.038, 1.085,
        // 1.177; the printed numbers correspond to booking 4 extra bits per
        // block in the numerator). We implement Eq. (1) verbatim and accept
        // the paper's values within 1 %.
        let expect = [(1usize, 1.024), (2, 1.046), (4, 1.092), (8, 1.185)];
        for (n, e) in expect {
            let v = omem(128, n, 4);
            assert!((v - e).abs() / e < 0.01, "n={n}: {v} vs paper {e}");
        }
        // And exactly against the formula.
        assert!((omem(128, 4, 4) - 564.0 / 520.0).abs() < 1e-12);
    }

    #[test]
    fn n_zero_is_below_one() {
        // With no outliers MX-OPAL stores a 4-bit offset instead of the
        // 8-bit MXINT scale: slightly *smaller*.
        assert!(omem(128, 0, 8) < 1.0);
    }

    #[test]
    fn overhead_shrinks_with_block_size() {
        assert!(omem(256, 4, 8) < omem(128, 4, 8));
        assert!(omem(128, 4, 8) < omem(64, 4, 8));
    }

    #[test]
    #[should_panic(expected = "more outliers")]
    fn rejects_n_above_k() {
        omem(8, 9, 4);
    }
}
