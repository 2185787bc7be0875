//! OWQ-style outlier-aware weight quantization (Lee et al., AAAI'24; §2.1).
//!
//! OPAL stores all weights with OWQ: the input channels whose activations
//! carry outliers (equivalently, whose Hessian diagonal `λ_i ≈ Σ x_i²` is
//! large) are kept in bfloat16, everything else is quantized to INT3/INT4.
//! The paper uses 0.25 % BF16 channels at W4 and 0.33 % at W3.

use opal_numerics::Bf16;
use opal_tensor::{CodeWeights, Matrix};

use crate::{QuantError, Quantizer};

/// An OWQ-quantized weight matrix, as the hardware stores it.
///
/// What is kept is the integer format itself, an
/// [`opal_tensor::CodeWeights`]: one unsigned `bits`-bit code per weight
/// (one byte each on the host), one `(scale, lo)` grid per output channel
/// (`f64` on the host, so that `scale · q + lo` is the quantizer's own
/// arithmetic), and the bfloat16 input rows. No `f32` weight is formed:
/// [`opal_tensor::ops::matmul_codes`] multiplies the codes directly, and
/// [`OwqWeights::dequantize`] rebuilds the dense matrix for the datapaths
/// that multiply `f32` (and for tests).
#[derive(Clone, Debug)]
pub struct OwqWeights {
    codes: CodeWeights,
}

impl OwqWeights {
    /// The codes, grids and bfloat16 rows.
    pub fn into_codes(self) -> CodeWeights {
        self.codes
    }

    /// The reconstructed weights (bfloat16 outlier rows, `f32(scale · q +
    /// lo)` elsewhere): the dense matrix an `f32` matmul multiplies.
    pub fn dequantize(&self) -> Matrix {
        self.codes.dequantize()
    }

    /// Indices of the input channels (rows, for the `y = x · W` convention)
    /// kept in bfloat16.
    pub fn outlier_rows(&self) -> &[usize] {
        self.codes.outlier_rows()
    }

    /// The integer bit-width of non-outlier weights.
    pub fn bits(&self) -> u32 {
        self.codes.bits()
    }

    /// Fraction of weight values stored in bfloat16.
    pub fn outlier_fraction(&self) -> f64 {
        self.outlier_rows().len() as f64 / self.codes.d_in() as f64
    }

    /// Total storage in bits of the hardware format: the INT rows at
    /// `bits` each, a bf16 scale and a bf16 zero point per output channel
    /// (group = column), and the bfloat16 outlier rows. This counts the
    /// packed format the paper's accelerator streams; the host keeps a
    /// byte per code and an `f64` grid ([`CodeWeights::heap_bytes`]).
    pub fn storage_bits(&self) -> usize {
        let (rows, cols) = (self.codes.d_in(), self.codes.d_out());
        let int_rows = rows - self.outlier_rows().len();
        int_rows * cols * self.bits() as usize + cols * 32 + self.outlier_rows().len() * cols * 16
    }

    /// Mean storage cost per weight element in bits (the paper quotes
    /// ~3.01 effective bits for OWQ-3 with 0.33 % outliers).
    pub fn effective_bits_per_weight(&self) -> f64 {
        self.storage_bits() as f64 / (self.codes.d_in() * self.codes.d_out()) as f64
    }
}

/// The OWQ weight quantizer.
///
/// Sensitivity follows OWQ: input channel `i` scores
/// `λ_i · ‖W_i‖²` where `λ_i = E[x_i²]` over a calibration set — channels
/// that see activation outliers and carry large weights are preserved.
///
/// # Example
///
/// ```
/// use opal_quant::OwqQuantizer;
/// use opal_tensor::Matrix;
///
/// let q = OwqQuantizer::new(4, 0.0025)?;
/// let w = Matrix::from_fn(64, 64, |r, c| ((r * 7 + c) % 13) as f32 * 0.02 - 0.1);
/// let calib = vec![1.0f32; 64];
/// let qw = q.quantize(&w, &calib);
/// assert_eq!(qw.dequantize().rows(), 64);
/// assert_eq!(qw.into_codes().d_out(), 64);
/// # Ok::<(), opal_quant::QuantError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OwqQuantizer {
    bits: u32,
    outlier_fraction: f32,
}

impl OwqQuantizer {
    /// Creates an OWQ quantizer with `bits`-bit non-outlier weights and the
    /// given fraction of BF16 input channels (e.g. `0.0025` for W4).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBits`] for `bits` outside `2..=8`, or
    /// [`QuantError::InvalidOutlierFraction`] if the fraction is not in
    /// `[0, 0.5)`.
    pub fn new(bits: u32, outlier_fraction: f32) -> Result<Self, QuantError> {
        if !(2..=8).contains(&bits) {
            return Err(QuantError::InvalidBits { bits });
        }
        if !(0.0..0.5).contains(&outlier_fraction) {
            return Err(QuantError::InvalidOutlierFraction { fraction: outlier_fraction });
        }
        Ok(OwqQuantizer { bits, outlier_fraction })
    }

    /// The paper's W4 configuration: INT4 + 0.25 % BF16 channels.
    pub fn w4() -> Self {
        OwqQuantizer { bits: 4, outlier_fraction: 0.0025 }
    }

    /// The paper's W3 configuration: INT3 + 0.33 % BF16 channels.
    pub fn w3() -> Self {
        OwqQuantizer { bits: 3, outlier_fraction: 0.0033 }
    }

    /// The integer bit-width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The BF16 input-channel fraction.
    pub fn outlier_fraction(&self) -> f32 {
        self.outlier_fraction
    }

    /// Quantizes a `d_in × d_out` weight matrix (convention `y = x · W`).
    ///
    /// `channel_second_moment` is `E[x_i²]` per input channel from a
    /// calibration run; pass all-ones for a purely weight-magnitude
    /// criterion.
    ///
    /// # Panics
    ///
    /// Panics if `channel_second_moment.len() != w.rows()`.
    pub fn quantize(&self, w: &Matrix, channel_second_moment: &[f32]) -> OwqWeights {
        assert_eq!(
            channel_second_moment.len(),
            w.rows(),
            "calibration stats must cover every input channel"
        );
        let d_in = w.rows();
        let n_outliers =
            ((d_in as f64 * f64::from(self.outlier_fraction)).ceil() as usize).min(d_in);

        // Rank channels by OWQ sensitivity λ_i · ‖W_i‖².
        let mut score: Vec<(usize, f64)> = (0..d_in)
            .map(|i| {
                let norm2: f64 = w.row(i).iter().map(|&v| f64::from(v) * f64::from(v)).sum();
                (i, f64::from(channel_second_moment[i]) * norm2)
            })
            .collect();
        score.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut outlier_rows: Vec<usize> = score[..n_outliers].iter().map(|&(i, _)| i).collect();
        outlier_rows.sort_unstable();

        // Per-output-channel (column) asymmetric min/max over non-outlier
        // rows, like GPTQ/OWQ's per-channel grids. A column's weight is
        // `scale · q + lo`: `q = 0` and `lo` itself when every non-outlier
        // weight of the column is the same (`scale = 0`).
        let (d_out, levels) = (w.cols(), f64::from((1u32 << self.bits) - 1));
        let mut codes = vec![0u8; d_in * d_out];
        let (mut scales, mut los) = (vec![0.0; d_out], vec![0.0; d_out]);
        for c in 0..d_out {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for r in 0..d_in {
                if outlier_rows.binary_search(&r).is_ok() {
                    continue;
                }
                let v = f64::from(w[(r, c)]);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let scale = if hi > lo { (hi - lo) / levels } else { 0.0 };
            if scale != 0.0 {
                for r in 0..d_in {
                    let q = ((f64::from(w[(r, c)]) - lo) / scale).round().clamp(0.0, levels);
                    codes[r * d_out + c] = q as u8;
                }
            }
            // A column with no non-outlier row has no grid.
            (scales[c], los[c]) = (scale, if lo.is_finite() { lo } else { 0.0 });
        }
        let outlier_w: Vec<Bf16> = outlier_rows
            .iter()
            .flat_map(|&r| w.row(r).iter().map(|&v| Bf16::from_f32(v)))
            .collect();
        let shape = (d_in, d_out, self.bits);
        OwqWeights {
            codes: CodeWeights::new(shape, &codes, &scales, &los, outlier_rows, &outlier_w),
        }
    }
}

impl Quantizer for OwqQuantizer {
    /// Treats the slice as a single-column weight vector with unit
    /// calibration statistics. Provided so OWQ can participate in generic
    /// format comparisons; real use goes through [`OwqQuantizer::quantize`].
    fn quantize_dequantize(&self, x: &[f32]) -> Vec<f32> {
        let w = Matrix::from_vec(x.len(), 1, x.to_vec());
        let calib = vec![1.0; x.len()];
        self.quantize(&w, &calib).dequantize().into_vec()
    }

    fn name(&self) -> String {
        format!("OWQ-W{}", self.bits)
    }

    fn storage_bits(&self, len: usize) -> usize {
        let n_out = ((len as f64 * f64::from(self.outlier_fraction)).ceil()) as usize;
        (len - n_out) * self.bits as usize + n_out * 16 + 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opal_tensor::rng::TensorRng;
    use opal_tensor::stats::mse;

    fn test_weight(d_in: usize, d_out: usize) -> Matrix {
        let mut rng = TensorRng::seed(17);
        rng.normal_matrix(d_in, d_out, 0.0, 0.05)
    }

    #[test]
    fn rejects_bad_config() {
        assert!(OwqQuantizer::new(9, 0.01).is_err());
        assert!(OwqQuantizer::new(4, 0.6).is_err());
        assert!(OwqQuantizer::new(4, -0.1).is_err());
    }

    #[test]
    fn sensitive_channels_are_preserved_exactly_in_bf16() {
        let mut w = test_weight(400, 64);
        // Make channel 13 large (weight norm) and channel 99 see outlier
        // activations (calibration).
        for c in 0..64 {
            w[(13, c)] *= 40.0;
        }
        let mut calib = vec![1.0f32; 400];
        calib[99] = 500.0;
        let q = OwqQuantizer::new(4, 0.005).unwrap(); // 2 channels
        let qw = q.quantize(&w, &calib);
        assert_eq!(qw.outlier_rows(), &[13, 99]);
        for c in 0..64 {
            let exact = Bf16::from_f32(w[(13, c)]).to_f32();
            assert_eq!(qw.dequantize()[(13, c)], exact);
        }
    }

    #[test]
    fn reconstruction_error_bounded() {
        let w = test_weight(256, 128);
        let calib = vec![1.0f32; 256];
        let q = OwqQuantizer::w4();
        let qw = q.quantize(&w, &calib);
        let e = mse(w.as_slice(), qw.dequantize().as_slice());
        // 4-bit on N(0, 0.05): step ~ (6σ)/15 ~ 0.02, mse ~ step²/12 ~ 4e-5.
        assert!(e < 5e-5, "mse {e}");
    }

    #[test]
    fn w3_worse_than_w4() {
        let w = test_weight(256, 128);
        let calib = vec![1.0f32; 256];
        let e3 = mse(w.as_slice(), OwqQuantizer::w3().quantize(&w, &calib).dequantize().as_slice());
        let e4 = mse(w.as_slice(), OwqQuantizer::w4().quantize(&w, &calib).dequantize().as_slice());
        assert!(e3 > e4 * 2.0, "w3 {e3} vs w4 {e4}");
    }

    #[test]
    fn effective_bits_match_paper_claims() {
        // Paper/OWQ: ~3.01 effective bits at W3 with 0.33% outliers (plus
        // our per-column scale bookkeeping, amortized over 4096-deep rows).
        let q = OwqQuantizer::w3();
        let w = test_weight(4096, 128);
        let calib = vec![1.0f32; 4096];
        let qw = q.quantize(&w, &calib);
        let eb = qw.effective_bits_per_weight();
        assert!((3.0..3.2).contains(&eb), "effective bits {eb}");
        let q4 = OwqQuantizer::w4().quantize(&w, &calib);
        let eb4 = q4.effective_bits_per_weight();
        assert!((4.0..4.2).contains(&eb4), "effective bits {eb4}");
    }

    #[test]
    fn outlier_fraction_reported() {
        let q = OwqQuantizer::new(4, 0.01).unwrap();
        let w = test_weight(200, 8);
        let qw = q.quantize(&w, &vec![1.0; 200]);
        assert_eq!(qw.outlier_rows().len(), 2); // ceil(200 * 0.01)
        assert!((qw.outlier_fraction() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn zero_fraction_keeps_no_rows() {
        let q = OwqQuantizer::new(4, 0.0).unwrap();
        let w = test_weight(64, 16);
        let qw = q.quantize(&w, &vec![1.0; 64]);
        assert!(qw.outlier_rows().is_empty());
    }
}
