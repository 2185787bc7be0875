//! The Eq. (3) log2-softmax datapath, bit-exact on bfloat16 fields.

use opal_numerics::shift::exp2i;
use opal_numerics::Bf16;
use opal_tensor::Matrix;

use crate::weighted_value_sum;

/// The log2-based softmax unit of §4.2.
///
/// For scores `x_i`, the unit produces *shift codes*
/// `a_i = clip(−⌈log2(softmax(x)_i)⌋, 0, 2^b − 1)` so the attention weight of
/// token `i` is `2^{−a_i}` and `Attn·V` is a shift-and-accumulate.
///
/// Eq. (3) evaluates `⌈log2(e^{x_i} / Σe^{x_j})⌋` without any FP multiply,
/// divide, or log2 unit: with `e^{x_i} = 2^{E_i}·1.M_i` (bfloat16 fields)
/// and `Σ = 2^{E_Σ}·1.M_Σ`,
///
/// ```text
/// ⌈log2(e^{x_i}/Σ)⌋ = (E_i − E_Σ) + Sign(M_i − M_Σ) ∘ 1_{|M_i − M_Σ| ≥ 0.5}
/// ```
///
/// i.e. an exponent subtractor plus a mantissa comparator: the mantissa
/// correction is −1, 0 or +1 depending on whether the 7-bit mantissa fields
/// differ by at least half (64 integer units). This matches the
/// "Exponent Subtractor / Mantissa Comparator" structure of Fig. 6(c).
///
/// # Example
///
/// ```
/// use opal_softmax::Log2Softmax;
///
/// let sm = Log2Softmax::new(5);
/// let p = sm.probs(&[0.0, 0.0]);
/// // Two equal scores: each weight is 2^-1.
/// assert_eq!(p, vec![0.5, 0.5]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Log2Softmax {
    bits: u32,
}

impl Log2Softmax {
    /// Creates the unit with `bits`-bit shift codes (the paper clips to
    /// `[0, 2^b − 1]`; `b = 5` covers weights down to 2⁻³¹).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 6 (a shift code ≥ 64 would
    /// always underflow any practical accumulator).
    pub fn new(bits: u32) -> Self {
        assert!((1..=6).contains(&bits), "shift-code width must be 1..=6");
        Log2Softmax { bits }
    }

    /// The shift-code bit-width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Maximum representable shift code, `2^bits − 1`.
    pub fn max_code(&self) -> u8 {
        ((1u32 << self.bits) - 1) as u8
    }

    /// Computes the shift codes `a_i` for a score row.
    ///
    /// The exponentials are evaluated in f32 (the hardware receives them
    /// from the preceding MxV in bfloat16; we subtract the row max first,
    /// exactly like the hardware's streaming max for overflow safety), then
    /// everything after the exp is the integer-only Eq. (3) path on bf16
    /// fields.
    ///
    /// Returns an empty vector for an empty score row.
    pub fn codes(&self, scores: &[f32]) -> Vec<u8> {
        let mut out = vec![0u8; scores.len()];
        self.codes_into(scores, &mut out);
        out
    }

    /// As [`Log2Softmax::codes`], writing the shift codes into a
    /// caller-provided slice (allocation-free).
    ///
    /// A `u8` output has no room to park an exponential, so they are
    /// evaluated in two streaming passes (once for the adder-tree sum, once
    /// per element); both passes produce identical bf16 fields, so the
    /// codes are bit-identical to the allocating API and to the codes
    /// behind [`Log2Softmax::probs_into`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != scores.len()`.
    pub fn codes_into(&self, scores: &[f32], out: &mut [u8]) {
        assert_eq!(out.len(), scores.len(), "output length mismatch");
        let max = row_max(scores);
        let sum: f32 = scores.iter().map(|&s| exp_bf16(s, max).to_f32()).sum();
        let sum = Bf16::from_f32(sum);
        for (o, &s) in out.iter_mut().zip(scores) {
            *o = self.code_of(exp_bf16(s, max), sum);
        }
    }

    /// The approximated attention weights `2^{−a_i}`.
    pub fn probs(&self, scores: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; scores.len()];
        self.probs_into(scores, &mut out);
        out
    }

    /// As [`Log2Softmax::probs`], writing the weights into a caller-provided
    /// slice — the allocation-free kernel used by the token decode hot path.
    ///
    /// One `exp` per score: each bf16 exponential is parked in its output
    /// slot (a bf16 is exact in `f32`) while the adder-tree sum runs over
    /// them in order, then turned into `2^{−a_i}` in place.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != scores.len()`.
    pub fn probs_into(&self, scores: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), scores.len(), "output length mismatch");
        let max = row_max(scores);
        let mut sum = 0.0f32;
        for (o, &s) in out.iter_mut().zip(scores) {
            *o = exp_bf16(s, max).to_f32();
            sum += *o;
        }
        let sum = Bf16::from_f32(sum);
        for o in out.iter_mut() {
            // The parked value is a bf16: its high half, exactly.
            let e = Bf16::from_bits((o.to_bits() >> 16) as u16);
            *o = exp2i(-i32::from(self.code_of(e, sum)));
        }
    }

    /// Eq. (3) for one element: the shift code of the bf16 exponential `e`
    /// against `sum`, the row's `Σ e^{x_i}` in bf16 (the FP adder tree's
    /// output) — an exponent subtractor, a mantissa comparator and a clip.
    /// The one place the rule lives, so codes and weights cannot drift
    /// apart.
    #[inline]
    fn code_of(&self, e: Bf16, sum: Bf16) -> u8 {
        if e.is_zero() {
            return self.max_code();
        }
        let diff = i32::from(e.mantissa()) - i32::from(sum.mantissa());
        let correction = if diff.abs() >= 64 { diff.signum() } else { 0 };
        let log2_p = (e.unbiased_exponent() - sum.unbiased_exponent()) + correction;
        // log2(p) <= 0 up to the ±1 mantissa approximation; clip.
        (-log2_p).clamp(0, i32::from(self.max_code())) as u8
    }

    /// Shift-and-accumulate `Attn·V` (Fig. 5(e)): `Σ_j V_j · 2^{−a_j}`.
    ///
    /// Multiplying by an exact power of two is precisely what the hardware's
    /// shifter does to the integer `V` elements.
    ///
    /// # Panics
    ///
    /// Panics if `scores.len() != v.rows()`.
    pub fn attn_v(&self, scores: &[f32], v: &Matrix) -> Vec<f32> {
        let weights = self.probs(scores);
        weighted_value_sum(&weights, v)
    }

    /// As [`Log2Softmax::attn_v`] but with the weight sum normalized to 1
    /// (a cheap final correction some deployments apply; the paper's
    /// hardware does not, and the accuracy results in Table 1/2 hold
    /// without it).
    ///
    /// # Panics
    ///
    /// Panics if `scores.len() != v.rows()`.
    pub fn attn_v_normalized(&self, scores: &[f32], v: &Matrix) -> Vec<f32> {
        let mut weights = self.probs(scores);
        let total: f32 = weights.iter().sum();
        if total > 0.0 {
            for w in &mut weights {
                *w /= total;
            }
        }
        weighted_value_sum(&weights, v)
    }
}

/// The streaming row maximum the hardware subtracts for overflow safety.
fn row_max(scores: &[f32]) -> f32 {
    scores.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// `e^{s − max}` in bf16, as produced by the exp stage.
#[inline]
fn exp_bf16(s: f32, max: f32) -> Bf16 {
    Bf16::from_f32((s - max).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attn_v_exact, exact_softmax};
    use opal_tensor::rng::TensorRng;

    #[test]
    fn codes_are_in_range_and_ordered() {
        let sm = Log2Softmax::new(5);
        let scores = [3.0f32, 1.0, -2.0, 7.5, 7.4, -30.0];
        let codes = sm.codes(&scores);
        assert_eq!(codes.len(), scores.len());
        for &c in &codes {
            assert!(c <= sm.max_code());
        }
        // Higher score -> weight at least as large (code at most as large).
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        for w in idx.windows(2) {
            assert!(codes[w[0]] <= codes[w[1]], "monotonicity violated");
        }
    }

    #[test]
    fn weights_within_factor_sqrt2_of_exact() {
        // log2 quantization rounds log2(p) to the nearest integer, so each
        // weight is within √2 of the exact probability (before clipping),
        // modulo the ±1 mantissa-comparator approximation (≤ one extra
        // octave in the worst case).
        let sm = Log2Softmax::new(6);
        let mut rng = TensorRng::seed(4);
        for _ in 0..50 {
            let scores: Vec<f32> = (0..16).map(|_| rng.normal(0.0, 2.0)).collect();
            let exact = exact_softmax(&scores);
            let approx = sm.probs(&scores);
            for (&p, &q) in exact.iter().zip(&approx) {
                if p > 1e-6 {
                    let ratio = f64::from(q) / f64::from(p);
                    assert!(
                        (0.3..=3.3).contains(&ratio),
                        "weight ratio {ratio} out of band (p={p}, q={q})"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_scores_give_power_of_two_weights() {
        let sm = Log2Softmax::new(5);
        // 4 equal scores: p = 1/4 exactly -> a = 2.
        let p = sm.probs(&[1.0; 4]);
        assert_eq!(p, vec![0.25; 4]);
        // 3 equal scores: p = 1/3, log2 = -1.58 -> a = 2 (nearest).
        let p3 = sm.probs(&[0.5; 3]);
        assert_eq!(p3, vec![0.25; 3]);
    }

    #[test]
    fn dominant_score_gets_unit_weight() {
        let sm = Log2Softmax::new(5);
        let p = sm.probs(&[10.0, -10.0, -10.0]);
        assert_eq!(p[0], 1.0);
        assert!(p[1] < 1e-6 || p[1] == exp2i(-31));
    }

    #[test]
    fn attn_v_close_to_exact() {
        let sm = Log2Softmax::new(5);
        let mut rng = TensorRng::seed(8);
        let mut worst: f64 = 0.0;
        for _ in 0..20 {
            let seq = 24;
            let scores: Vec<f32> = (0..seq).map(|_| rng.normal(0.0, 1.5)).collect();
            let v = rng.normal_matrix(seq, 8, 0.0, 1.0);
            let exact = attn_v_exact(&scores, &v);
            let approx = sm.attn_v(&scores, &v);
            let vnorm: f64 = exact.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>().sqrt();
            let err: f64 = exact
                .iter()
                .zip(&approx)
                .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                .sum::<f64>()
                .sqrt();
            worst = worst.max(err / vnorm.max(1e-9));
        }
        // The paper reports <0.4 PPL impact: relative output error stays a
        // moderate fraction of the exact output.
        assert!(worst < 0.8, "relative Attn·V error {worst}");
    }

    #[test]
    fn normalized_variant_is_at_least_as_good_on_average() {
        let sm = Log2Softmax::new(5);
        let mut rng = TensorRng::seed(21);
        let mut e_raw = 0.0f64;
        let mut e_norm = 0.0f64;
        for _ in 0..30 {
            let seq = 16;
            let scores: Vec<f32> = (0..seq).map(|_| rng.normal(0.0, 1.0)).collect();
            let v = rng.normal_matrix(seq, 4, 0.0, 1.0);
            let exact = attn_v_exact(&scores, &v);
            for (got, label) in [
                (sm.attn_v(&scores, &v), &mut e_raw),
                (sm.attn_v_normalized(&scores, &v), &mut e_norm),
            ] {
                *label += exact
                    .iter()
                    .zip(&got)
                    .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                    .sum::<f64>();
            }
        }
        assert!(e_norm <= e_raw * 1.05, "norm {e_norm} vs raw {e_raw}");
    }

    #[test]
    fn into_variants_and_code_prob_pairing_agree() {
        let sm = Log2Softmax::new(5);
        let mut rng = TensorRng::seed(13);
        // The two kernels reach the code by different routes (`codes_into`
        // evaluates each exponential twice, `probs_into` parks it in the
        // output), so they are compared over enough rows that a parked
        // value one mantissa step off, or a sum taken in another order,
        // lands on a comparator threshold somewhere; the widest, most
        // spread row reaches the clip and exponentials that underflow bf16
        // to zero.
        let shapes = [(1usize, 2.0f32), (2, 2.0), (7, 2.0), (33, 2.0), (257, 6.0), (1024, 40.0)];
        let many = (0..300).map(|i| (48 + i % 40, 0.5 + (i % 16) as f32 * 0.5));
        for (len, spread) in shapes.into_iter().chain(many) {
            let scores: Vec<f32> = (0..len).map(|_| rng.normal(0.0, spread)).collect();
            let mut codes = vec![0u8; len];
            sm.codes_into(&scores, &mut codes);
            assert_eq!(codes, sm.codes(&scores));
            let mut probs = vec![0.0f32; len];
            sm.probs_into(&scores, &mut probs);
            assert_eq!(probs, sm.probs(&scores));
            // The invariant the hardware model relies on: every weight is
            // exactly 2^-code for the code of the same score.
            for (&p, &a) in probs.iter().zip(&codes) {
                assert_eq!(p, exp2i(-i32::from(a)));
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let sm = Log2Softmax::new(5);
        assert!(sm.codes(&[]).is_empty());
        assert_eq!(sm.probs(&[3.7]), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "shift-code width")]
    fn rejects_zero_bits() {
        Log2Softmax::new(0);
    }

    #[test]
    fn clipping_at_low_bit_width() {
        let sm = Log2Softmax::new(2); // codes in 0..=3 -> weights >= 1/8
        let p = sm.probs(&[0.0, -20.0]);
        assert_eq!(p[1], 0.125, "code clipped to 3");
    }
}
