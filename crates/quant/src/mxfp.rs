//! MX floating-point element formats (MXFP4 / MXFP6 / MXFP8).
//!
//! The microscaling spec the paper builds on [Rouhani et al. 2023] defines
//! both integer elements (MXINT, §2.2 of the paper) and small
//! *floating-point* elements sharing the same per-block power-of-two scale.
//! The paper evaluates only the INT variants; this module adds the FP
//! variants so the format space can be compared head-to-head through the
//! common [`Quantizer`] trait — an extension beyond the paper, with no claim
//! of the paper to check.
//!
//! Element encodings follow the OCP MX v1.0 concrete formats:
//!
//! | name | layout | max normal |
//! |---|---|---|
//! | FP4 (E2M1)  | 1s 2e 1m, bias 1  | 6.0 |
//! | FP6 (E2M3)  | 1s 2e 3m, bias 1  | 7.5 |
//! | FP6 (E3M2)  | 1s 3e 2m, bias 3  | 28 |
//! | FP8 (E4M3)  | 1s 4e 3m, bias 7  | 448 |
//! | FP8 (E5M2)  | 1s 5e 2m, bias 15 | 57344 |
//!
//! The block shared scale is chosen as in MXINT-style microscaling: the
//! exponent of the largest-magnitude element minus the element format's
//! largest exponent, so the block maximum maps near the top of the element
//! range.

use opal_numerics::shift::exp2i;

use crate::{EncodeScratch, QuantError, Quantizer};

/// An MX floating-point element encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpElement {
    /// 4-bit E2M1.
    E2M1,
    /// 6-bit E2M3.
    E2M3,
    /// 6-bit E3M2.
    E3M2,
    /// 8-bit E4M3.
    E4M3,
    /// 8-bit E5M2.
    E5M2,
}

impl FpElement {
    /// Total storage bits per element.
    pub fn bits(&self) -> u32 {
        match self {
            FpElement::E2M1 => 4,
            FpElement::E2M3 | FpElement::E3M2 => 6,
            FpElement::E4M3 | FpElement::E5M2 => 8,
        }
    }

    /// Mantissa field width.
    fn man_bits(&self) -> i32 {
        match self {
            FpElement::E2M1 => 1,
            FpElement::E3M2 | FpElement::E5M2 => 2,
            FpElement::E2M3 | FpElement::E4M3 => 3,
        }
    }

    /// Exponent bias (per the OCP MX concrete formats).
    fn bias(&self) -> i32 {
        match self {
            FpElement::E2M1 | FpElement::E2M3 => 1,
            FpElement::E3M2 => 3,
            FpElement::E4M3 => 7,
            FpElement::E5M2 => 15,
        }
    }

    /// Largest unbiased exponent of a normal number. (E4M3 and the MX small
    /// formats reclaim the top exponent for normals; E5M2 reserves it for
    /// inf/NaN.)
    fn max_exp(&self) -> i32 {
        match self {
            FpElement::E2M1 | FpElement::E2M3 => 2,
            FpElement::E3M2 => 4,
            FpElement::E4M3 => 8,
            FpElement::E5M2 => 15,
        }
    }

    /// Largest finite representable magnitude.
    pub fn max_value(&self) -> f32 {
        let m = self.man_bits();
        // Top normal: (2 - 2^-m) * 2^max_exp, except E4M3 whose top
        // mantissa code is NaN (max = 1.75 * 2^8 = 448).
        match self {
            FpElement::E4M3 => 448.0,
            _ => (2.0 - exp2i(-m)) * exp2i(self.max_exp()),
        }
    }

    /// Rounds `x` (assumed scaled into the element's range) to the nearest
    /// representable value of this mini-float, ties to even, saturating.
    pub fn round(&self, x: f32) -> f32 {
        if x == 0.0 {
            return 0.0;
        }
        let sign = x.signum();
        let a = x.abs();
        let max = self.max_value();
        if a >= max {
            return sign * max;
        }
        let m = self.man_bits();
        let min_exp = 1 - self.bias(); // smallest normal exponent
        let e = a.log2().floor() as i32;
        let e = e.max(min_exp);
        // Quantization step at this binade: 2^(e - m); below the smallest
        // normal we are in the subnormal range with step 2^(min_exp - m).
        let step = exp2i(e - m);
        let q = (f64::from(a) / f64::from(step)).round_ties_even() as f32;
        sign * q * step
    }
}

impl std::fmt::Display for FpElement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FpElement::E2M1 => "E2M1",
            FpElement::E2M3 => "E2M3",
            FpElement::E3M2 => "E3M2",
            FpElement::E4M3 => "E4M3",
            FpElement::E5M2 => "E5M2",
        };
        f.write_str(s)
    }
}

/// An MXFP quantizer: mini-float elements under a per-block shared
/// power-of-two scale.
///
/// # Example
///
/// ```
/// use opal_quant::mxfp::{FpElement, MxFpQuantizer};
/// use opal_quant::Quantizer;
///
/// let q = MxFpQuantizer::new(FpElement::E4M3, 32)?;
/// let x = vec![1.0f32; 32];
/// assert_eq!(q.quantize_dequantize(&x), x);
/// # Ok::<(), opal_quant::QuantError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MxFpQuantizer {
    element: FpElement,
    block_size: usize,
}

impl MxFpQuantizer {
    /// Creates an MXFP quantizer over blocks of `block_size`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBlockSize`] for an empty block.
    pub fn new(element: FpElement, block_size: usize) -> Result<Self, QuantError> {
        if block_size == 0 {
            return Err(QuantError::InvalidBlockSize { block_size });
        }
        Ok(MxFpQuantizer { element, block_size })
    }

    /// The element encoding.
    pub fn element(&self) -> FpElement {
        self.element
    }

    /// The block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    fn quantize_block(&self, x: &[f32], out: &mut [f32]) {
        let max = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if max == 0.0 {
            out.fill(0.0);
            return;
        }
        // Shared scale: place the block max at the element format's top
        // binade (the OCP MX scale selection).
        let scale_exp = (max.log2().floor() as i32) - self.element.max_exp();
        let scale = exp2i(scale_exp);
        let inv = exp2i(-scale_exp);
        for (o, &v) in out.iter_mut().zip(x) {
            *o = self.element.round(v * inv) * scale;
        }
    }
}

impl Quantizer for MxFpQuantizer {
    fn quantize_dequantize_scratch(&self, x: &[f32], out: &mut [f32], _: &mut EncodeScratch) {
        assert_eq!(out.len(), x.len(), "output length mismatch");
        for (xb, ob) in x.chunks(self.block_size).zip(out.chunks_mut(self.block_size)) {
            self.quantize_block(xb, ob);
        }
    }

    fn name(&self) -> String {
        format!("MXFP{}-{}", self.element.bits(), self.element)
    }

    fn storage_bits(&self, len: usize) -> usize {
        let blocks = len.div_ceil(self.block_size);
        len * self.element.bits() as usize + blocks * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MxIntQuantizer;
    use opal_tensor::rng::TensorRng;
    use opal_tensor::stats::mse;

    #[test]
    fn element_constants() {
        assert_eq!(FpElement::E2M1.max_value(), 6.0);
        assert_eq!(FpElement::E2M3.max_value(), 7.5);
        assert_eq!(FpElement::E3M2.max_value(), 28.0);
        assert_eq!(FpElement::E4M3.max_value(), 448.0);
        assert_eq!(FpElement::E5M2.max_value(), 57344.0);
    }

    #[test]
    fn e2m1_code_points() {
        // E2M1 represents exactly ±{0, 0.5, 1, 1.5, 2, 3, 4, 6}.
        let expected = [0.0f32, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0];
        for &v in &expected {
            assert_eq!(FpElement::E2M1.round(v), v, "{v} must be exact");
        }
        assert_eq!(FpElement::E2M1.round(2.4), 2.0);
        assert_eq!(FpElement::E2M1.round(2.6), 3.0);
        assert_eq!(FpElement::E2M1.round(100.0), 6.0); // saturation
        assert_eq!(FpElement::E2M1.round(-2.6), -3.0);
    }

    #[test]
    fn e4m3_saturates_at_448() {
        assert_eq!(FpElement::E4M3.round(1e9), 448.0);
        assert_eq!(FpElement::E4M3.round(447.0), 448.0); // rounds to top
        assert_eq!(FpElement::E4M3.round(416.0), 416.0); // 1.625*256 exact
    }

    #[test]
    fn exact_on_powers_of_two() {
        let q = MxFpQuantizer::new(FpElement::E2M3, 8).unwrap();
        let x = [4.0f32, 2.0, 1.0, -4.0, 0.5, 0.25, 0.0, 1.5];
        assert_eq!(q.quantize_dequantize(&x), x);
    }

    /// MSE restricted to the non-outlier positions.
    fn body_mse(x: &[f32], y: &[f32], outliers: &[usize]) -> f64 {
        let xs: Vec<f32> =
            x.iter().enumerate().filter(|(i, _)| !outliers.contains(i)).map(|(_, &v)| v).collect();
        let ys: Vec<f32> =
            y.iter().enumerate().filter(|(i, _)| !outliers.contains(i)).map(|(_, &v)| v).collect();
        mse(&xs, &ys)
    }

    #[test]
    fn fp_elements_preserve_small_values_under_outliers() {
        // The FP element's own exponent range spans binades *below* the
        // block maximum, so non-outlier values survive where MXINT8's
        // fixed step wipes them out. (On the outliers themselves MXINT8's
        // 7-bit mantissa is finer — the trade the OCP MX spec describes —
        // so the comparison is on the distribution body.)
        let mut rng = TensorRng::seed(11);
        let ch = rng.distinct_indices(1024, 10);
        let x = rng.outlier_vector(1024, 1.0, &ch, 600.0);
        let fp = MxFpQuantizer::new(FpElement::E4M3, 128).unwrap();
        let int = MxIntQuantizer::new(8, 128).unwrap();
        let e_fp = body_mse(&x, &fp.quantize_dequantize(&x), &ch);
        let e_int = body_mse(&x, &int.quantize_dequantize(&x), &ch);
        assert!(e_fp < e_int / 4.0, "E4M3 body MSE {e_fp} must be well below MXINT8's {e_int}");
    }

    #[test]
    fn wider_mantissa_wins_on_smooth_data() {
        // On outlier-free data, E2M3 (3 mantissa bits) beats E3M2.
        let x: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.13).sin()).collect();
        let e2m3 = MxFpQuantizer::new(FpElement::E2M3, 128).unwrap();
        let e3m2 = MxFpQuantizer::new(FpElement::E3M2, 128).unwrap();
        let a = mse(&x, &e2m3.quantize_dequantize(&x));
        let b = mse(&x, &e3m2.quantize_dequantize(&x));
        assert!(a < b, "E2M3 {a} vs E3M2 {b}");
    }

    #[test]
    fn wider_exponent_preserves_body_under_heavy_tails() {
        // E3M2's extra exponent bit reaches further below the block max
        // than E2M3, keeping the distribution body alive when the scale is
        // pinned by a large outlier.
        let mut rng = TensorRng::seed(4);
        let ch = rng.distinct_indices(512, 5);
        let x = rng.outlier_vector(512, 1.0, &ch, 400.0);
        let e2m3 = MxFpQuantizer::new(FpElement::E2M3, 128).unwrap();
        let e3m2 = MxFpQuantizer::new(FpElement::E3M2, 128).unwrap();
        let a = body_mse(&x, &e2m3.quantize_dequantize(&x), &ch);
        let b = body_mse(&x, &e3m2.quantize_dequantize(&x), &ch);
        assert!(b < a, "E3M2 body {b} vs E2M3 body {a} under heavy tails");
    }

    #[test]
    fn zero_block_and_lengths() {
        let q = MxFpQuantizer::new(FpElement::E2M1, 32).unwrap();
        assert_eq!(q.quantize_dequantize(&[0.0; 40]), vec![0.0; 40]);
        assert_eq!(q.quantize_dequantize(&[1.0; 100]).len(), 100);
    }

    #[test]
    fn storage_accounting() {
        let q = MxFpQuantizer::new(FpElement::E2M3, 128).unwrap();
        assert_eq!(q.storage_bits(128), 128 * 6 + 8);
        assert_eq!(q.name(), "MXFP6-E2M3");
    }

    #[test]
    fn rejects_empty_block() {
        assert!(MxFpQuantizer::new(FpElement::E4M3, 0).is_err());
    }
}
