//! The divergence between two next-token or attention distributions:
//! softmax approximations against the exact softmax, and quantized models
//! against their BF16 teacher (the perplexity costs of `tests/paper_claims.rs`).

/// Kullback–Leibler divergence `KL(p ‖ q)` in nats between an exact
/// probability vector `p` and an (unnormalized) approximation `q`, which is
/// normalized internally.
///
/// # Panics
///
/// Panics if lengths differ, or if `q` has zero mass where `p` has support.
pub fn kl_divergence(p: &[f32], q: &[f32]) -> f64 {
    assert_eq!(p.len(), q.len(), "length mismatch");
    let qsum: f64 = q.iter().map(|&v| f64::from(v)).sum();
    assert!(qsum > 0.0, "approximation has no mass");
    let mut kl = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        let pi = f64::from(pi);
        if pi <= 0.0 {
            continue;
        }
        let qi = f64::from(qi) / qsum;
        assert!(qi > 0.0, "approximation assigns zero mass to a supported outcome");
        kl += pi * (pi / qi).ln();
    }
    kl.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_softmax, Log2Softmax};

    #[test]
    fn kl_of_identical_is_zero() {
        let p = exact_softmax(&[1.0, 2.0, 3.0]);
        assert!(kl_divergence(&p, &p) < 1e-12);
    }

    #[test]
    fn kl_of_log2_softmax_is_small() {
        let scores = [0.4f32, -1.2, 2.2, 0.0, 1.1, -0.6, 3.0, 0.9];
        let p = exact_softmax(&scores);
        let q = Log2Softmax::new(5).probs(&scores);
        let kl = kl_divergence(&p, &q);
        // log2 quantization bounds each log-ratio by ~ln(2)/2 + mantissa
        // slack; the divergence stays well under a nat.
        assert!(kl < 0.25, "kl {kl}");
    }

    #[test]
    #[should_panic(expected = "no mass")]
    fn zero_mass_panics() {
        kl_divergence(&[0.5, 0.5], &[0.0, 0.0]);
    }
}
