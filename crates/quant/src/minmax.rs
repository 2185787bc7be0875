//! Conventional min/max dynamic integer quantizer (the paper's baseline).

use crate::{EncodeScratch, QuantError, Quantizer};

/// Asymmetric min/max integer quantizer with group-wise dynamic range
/// extraction, as used by ZeroQuant-style activation quantization and as the
/// normalization baseline of Fig. 3(b) and Fig. 4.
///
/// For each group of `block_size` elements the scale is
/// `S = (max − min) / (2^b − 1)` and elements are quantized to
/// `q = round((x − min) / S)`. This is the quantizer whose hardware cost the
/// paper criticizes (motivation 2): it needs FP dividers for the on-the-fly
/// scale division.
///
/// # Example
///
/// ```
/// use opal_quant::{MinMaxQuantizer, Quantizer};
///
/// let q = MinMaxQuantizer::new(8, 128)?;
/// let x: Vec<f32> = (0..128).map(|i| i as f32 / 128.0).collect();
/// let y = q.quantize_dequantize(&x);
/// assert!(x.iter().zip(&y).all(|(a, b)| (a - b).abs() < 0.005));
/// # Ok::<(), opal_quant::QuantError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinMaxQuantizer {
    bits: u32,
    block_size: usize,
}

impl MinMaxQuantizer {
    /// Creates a `bits`-bit min/max quantizer over groups of `block_size`.
    ///
    /// Use a `block_size` of at least the tensor length for token-level
    /// (whole-vector) dynamic quantization.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBits`] if `bits` is outside `2..=8` and
    /// [`QuantError::InvalidBlockSize`] for an empty block.
    pub fn new(bits: u32, block_size: usize) -> Result<Self, QuantError> {
        if !(2..=8).contains(&bits) {
            return Err(QuantError::InvalidBits { bits });
        }
        if block_size == 0 {
            return Err(QuantError::InvalidBlockSize { block_size });
        }
        Ok(MinMaxQuantizer { bits, block_size })
    }

    /// The element bit-width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The group size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    fn quantize_block(&self, x: &[f32], out: &mut [f32]) {
        let (min, max) = x
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let levels = (1u32 << self.bits) - 1;
        let range = f64::from(max) - f64::from(min);
        if range <= 0.0 {
            // Constant block: reconstruct the constant exactly.
            out.copy_from_slice(x);
            return;
        }
        let scale = range / f64::from(levels);
        for (o, &v) in out.iter_mut().zip(x) {
            let q = ((f64::from(v) - f64::from(min)) / scale).round();
            let q = q.clamp(0.0, f64::from(levels));
            *o = (q * scale + f64::from(min)) as f32;
        }
    }
}

impl Quantizer for MinMaxQuantizer {
    fn quantize_dequantize_scratch(&self, x: &[f32], out: &mut [f32], _: &mut EncodeScratch) {
        assert_eq!(out.len(), x.len(), "output length mismatch");
        for (xb, ob) in x.chunks(self.block_size).zip(out.chunks_mut(self.block_size)) {
            self.quantize_block(xb, ob);
        }
    }

    fn name(&self) -> String {
        format!("MinMax{}", self.bits)
    }

    fn storage_bits(&self, len: usize) -> usize {
        let blocks = len.div_ceil(self.block_size);
        // b bits per element + an FP16 scale and FP16 zero-point per group.
        len * self.bits as usize + blocks * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_config() {
        assert_eq!(MinMaxQuantizer::new(1, 128), Err(QuantError::InvalidBits { bits: 1 }));
        assert_eq!(MinMaxQuantizer::new(9, 128), Err(QuantError::InvalidBits { bits: 9 }));
        assert_eq!(MinMaxQuantizer::new(4, 0), Err(QuantError::InvalidBlockSize { block_size: 0 }));
    }

    #[test]
    fn endpoints_are_exact() {
        let q = MinMaxQuantizer::new(4, 16).unwrap();
        let x: Vec<f32> = (0..16).map(|i| i as f32 - 5.0).collect();
        let y = q.quantize_dequantize(&x);
        assert_eq!(y[0], -5.0); // min maps to code 0 exactly
        assert_eq!(y[15], 10.0); // max maps to top code exactly
    }

    #[test]
    fn constant_block_is_exact() {
        let q = MinMaxQuantizer::new(3, 8).unwrap();
        let x = vec![2.5f32; 8];
        assert_eq!(q.quantize_dequantize(&x), x);
    }

    #[test]
    fn error_bounded_by_half_step() {
        let q = MinMaxQuantizer::new(5, 64).unwrap();
        let x: Vec<f32> = (0..64).map(|i| ((i * 37) % 64) as f32 * 0.17 - 3.0).collect();
        let y = q.quantize_dequantize(&x);
        let (min, max) = opal_tensor::stats::min_max(&x).unwrap();
        let step = (max - min) / 31.0;
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6);
        }
    }

    #[test]
    fn outlier_widens_range_and_hurts_small_values() {
        // The paper's Fig. 3(b) effect: one outlier forces a huge step size
        // and the small values collapse onto few levels.
        let q = MinMaxQuantizer::new(2, 128).unwrap();
        let mut x = vec![0.0f32; 128];
        for (i, v) in x.iter_mut().enumerate() {
            *v = ((i % 7) as f32 - 3.0) * 0.1;
        }
        x[5] = 30.0;
        let y = q.quantize_dequantize(&x);
        // All small values land on at most 2 distinct levels.
        let mut lv: Vec<i64> = y
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 5)
            .map(|(_, &v)| (v * 1000.0) as i64)
            .collect();
        lv.sort_unstable();
        lv.dedup();
        assert!(lv.len() <= 2, "got {} levels", lv.len());
    }

    #[test]
    fn blocks_are_independent() {
        let q = MinMaxQuantizer::new(4, 4).unwrap();
        let x = [0.0f32, 1.0, 2.0, 3.0, 100.0, 101.0, 102.0, 103.0];
        let y = q.quantize_dequantize(&x);
        // Second block's offset does not disturb the first block.
        assert!((y[1] - 1.0).abs() < 0.11);
        assert!((y[5] - 101.0).abs() < 0.11);
    }

    #[test]
    fn storage_accounting() {
        let q = MinMaxQuantizer::new(8, 128).unwrap();
        assert_eq!(q.storage_bits(128), 128 * 8 + 32);
        assert_eq!(q.storage_bits(129), 129 * 8 + 2 * 32);
    }

    #[test]
    fn name_reports_bits() {
        assert_eq!(MinMaxQuantizer::new(7, 128).unwrap().name(), "MinMax7");
    }
}
