//! Hardware-friendly softmax approximations (§4.2 of the OPAL paper).
//!
//! The attention map `softmax(Q·Kᵀ/√dk)` is one of the most
//! hardware-unfriendly operations in an LLM: a conventional unit needs FP
//! dividers. OPAL instead *log2-quantizes* the attention map (Eq. 2) and
//! computes `log2(softmax(·))` directly from the exponent and mantissa
//! fields of `e^{x_i}` and `Σe^{x_i}` with two integer subtractors and one
//! mantissa comparator (Eq. 3). The attention-weighted sum `Attn·V` then
//! reduces to shift-and-accumulate (Fig. 5(e)).
//!
//! This crate provides the exact reference, the bit-exact Eq. (3) datapath,
//! and the KL divergence the "<0.4 PPL" claim is measured with.
//!
//! # Example
//!
//! ```
//! use opal_softmax::Log2Softmax;
//!
//! let sm = Log2Softmax::new(5);
//! let codes = sm.codes(&[1.0, 2.0, 4.0]);
//! // Largest score gets the smallest shift (weight 2^0 = 1).
//! assert_eq!(codes[2], 0);
//! assert!(codes[0] >= codes[1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod log2;
pub mod metrics;

pub use log2::Log2Softmax;

use opal_tensor::Matrix;

/// Exact softmax of a score slice (numerically stable reference).
pub fn exact_softmax(scores: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; scores.len()];
    opal_tensor::ops::softmax_into(scores, &mut out);
    out
}

/// Exact attention-weighted value sum: `softmax(scores) · V`, where `V` is
/// `seq_len × d` and `scores` has length `seq_len`.
///
/// # Panics
///
/// Panics if `scores.len() != v.rows()`.
pub fn attn_v_exact(scores: &[f32], v: &Matrix) -> Vec<f32> {
    assert_eq!(scores.len(), v.rows(), "score/value length mismatch");
    let p = exact_softmax(scores);
    weighted_value_sum(&p, v)
}

/// `Σ_j w_j · V_j` for explicit weights.
///
/// # Panics
///
/// Panics if `weights.len() != v.rows()`.
pub fn weighted_value_sum(weights: &[f32], v: &Matrix) -> Vec<f32> {
    assert_eq!(weights.len(), v.rows(), "weight/value length mismatch");
    let mut out = vec![0.0f64; v.cols()];
    for (j, &w) in weights.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        for (o, &x) in out.iter_mut().zip(v.row(j)) {
            *o += f64::from(w) * f64::from(x);
        }
    }
    out.into_iter().map(|x| x as f32).collect()
}
