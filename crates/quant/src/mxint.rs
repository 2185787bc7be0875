//! MXINT: the original microscaling integer format (block floating point).

use opal_numerics::{shift_dequantize, shift_quantize, Bf16, Rounding};

use crate::{EncodeScratch, QuantError, Quantizer};

/// One encoded MXINT block: a shared scale exponent and the integer
/// elements, exactly the layout of Fig. 2(b).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MxIntBlock {
    /// Shared scale as an unbiased exponent (`None` for an all-zero block).
    pub scale: Option<i32>,
    /// Signed integer elements in `[-(2^(b-1)-1), 2^(b-1)-1]`.
    pub elements: Vec<i32>,
}

/// The MXINT-`b` quantizer [Rouhani et al., "Microscaling Data Formats for
/// Deep Learning"]: `block_size` elements share the exponent of the
/// largest-magnitude member; each element keeps `bits` of sign+mantissa,
/// produced by a right shift of its bfloat16 significand.
///
/// This is the format the paper shows failing on LLM activations (Fig. 3(c)):
/// a single outlier pushes the shared scale up and shifts every other
/// element toward zero.
///
/// # Example
///
/// ```
/// use opal_quant::{MxIntQuantizer, Quantizer};
///
/// let q = MxIntQuantizer::new(8, 32)?;
/// let x = vec![1.0f32; 32];
/// assert_eq!(q.quantize_dequantize(&x), x);
/// # Ok::<(), opal_quant::QuantError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MxIntQuantizer {
    bits: u32,
    block_size: usize,
    rounding: Rounding,
}

impl MxIntQuantizer {
    /// Creates an MXINT quantizer with `bits`-bit elements over blocks of
    /// `block_size`, rounding to nearest (the accuracy reference).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBits`] or [`QuantError::InvalidBlockSize`]
    /// for out-of-range parameters.
    pub fn new(bits: u32, block_size: usize) -> Result<Self, QuantError> {
        Self::with_rounding(bits, block_size, Rounding::NearestEven)
    }

    /// Creates an MXINT quantizer with an explicit [`Rounding`] mode;
    /// `Rounding::Truncate` models the bare-shifter hardware of Fig. 2(b).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBits`] or [`QuantError::InvalidBlockSize`]
    /// for out-of-range parameters.
    pub fn with_rounding(
        bits: u32,
        block_size: usize,
        rounding: Rounding,
    ) -> Result<Self, QuantError> {
        if !(2..=8).contains(&bits) {
            return Err(QuantError::InvalidBits { bits });
        }
        if block_size == 0 {
            return Err(QuantError::InvalidBlockSize { block_size });
        }
        Ok(MxIntQuantizer { bits, block_size, rounding })
    }

    /// The element bit-width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The block size `k`.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The rounding mode of the shift datapath.
    pub fn rounding(&self) -> Rounding {
        self.rounding
    }

    /// Encodes one block (up to `block_size` values) into its shared scale
    /// and integer elements.
    pub fn encode_block(&self, x: &[f32]) -> MxIntBlock {
        let bf: Vec<Bf16> = x.iter().map(|&v| Bf16::from_f32(v)).collect();
        let scale = opal_numerics::shift::max_exponent(&bf);
        let elements = match scale {
            Some(s) => bf.iter().map(|&v| shift_quantize(v, s, self.bits, self.rounding)).collect(),
            None => vec![0; x.len()],
        };
        MxIntBlock { scale, elements }
    }

    /// Decodes a block back to real values.
    pub fn decode_block(&self, block: &MxIntBlock) -> Vec<f32> {
        match block.scale {
            Some(s) => block.elements.iter().map(|&q| shift_dequantize(q, s, self.bits)).collect(),
            None => vec![0.0; block.elements.len()],
        }
    }

    /// Encodes one row into caller-owned packed page arrays — the KV-cache
    /// storage form of the streaming
    /// [`Quantizer::quantize_dequantize_scratch`]. Block `b` of
    /// `block_size` elements gets integer codes and one shared scale in
    /// `scales[b]`; an all-zero/subnormal block stores scale `0` with all
    /// codes `0`, which decodes to `0.0` exactly like the streaming path's
    /// `fill(0.0)`.
    ///
    /// MXINT is block-local (no tensor-global pass), so no scratch is
    /// needed and the encode is allocation-free by construction.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != x.len()` or `scales` does not hold one
    /// entry per block.
    pub fn encode_row(&self, x: &[f32], codes: &mut [i8], scales: &mut [i16]) {
        assert_eq!(codes.len(), x.len(), "code length mismatch");
        assert_eq!(scales.len(), x.len().div_ceil(self.block_size), "scale length mismatch");
        for ((xb, cb), sc) in
            x.chunks(self.block_size).zip(codes.chunks_mut(self.block_size)).zip(scales.iter_mut())
        {
            let scale = xb
                .iter()
                .map(|&v| Bf16::from_f32(v))
                .filter(|v| !v.is_zero() && !v.is_subnormal())
                .map(|v| v.unbiased_exponent())
                .max();
            match scale {
                Some(s) => {
                    *sc = s as i16;
                    for (c, &v) in cb.iter_mut().zip(xb) {
                        // |q| <= 2^(bits-1)-1 <= 127 for bits <= 8.
                        *c = shift_quantize(Bf16::from_f32(v), s, self.bits, self.rounding) as i8;
                    }
                }
                None => {
                    *sc = 0;
                    cb.fill(0);
                }
            }
        }
    }

    /// Decodes a row encoded by [`MxIntQuantizer::encode_row`], bit-for-bit
    /// equal to the streaming round trip for the same input.
    ///
    /// # Panics
    ///
    /// Panics if the array lengths disagree with the block geometry.
    pub fn decode_row(&self, codes: &[i8], scales: &[i16], out: &mut [f32]) {
        assert_eq!(out.len(), codes.len(), "output length mismatch");
        assert_eq!(scales.len(), codes.len().div_ceil(self.block_size), "scale length mismatch");
        for ((cb, ob), &sc) in
            codes.chunks(self.block_size).zip(out.chunks_mut(self.block_size)).zip(scales.iter())
        {
            let step = opal_numerics::shift::step_size(i32::from(sc), self.bits);
            for (o, &c) in ob.iter_mut().zip(cb) {
                *o = f32::from(c) * step;
            }
        }
    }
}

impl Quantizer for MxIntQuantizer {
    /// The streaming form of [`MxIntQuantizer::encode_block`] /
    /// [`MxIntQuantizer::decode_block`], the allocating specification it is
    /// property-tested against. Block-local: `scratch` is not used.
    fn quantize_dequantize_scratch(&self, x: &[f32], out: &mut [f32], _: &mut EncodeScratch) {
        assert_eq!(out.len(), x.len(), "output length mismatch");
        for (xb, ob) in x.chunks(self.block_size).zip(out.chunks_mut(self.block_size)) {
            // Streaming form of encode_block/decode_block: the shared scale
            // is the max exponent over the block's bf16 images (the
            // `shift::max_exponent` rule, evaluated without materializing
            // the bf16 buffer), then each element round-trips through the
            // shift datapath. Equivalence to the block API is pinned by
            // `tests/proptests.rs`.
            let scale = xb
                .iter()
                .map(|&v| Bf16::from_f32(v))
                .filter(|v| !v.is_zero() && !v.is_subnormal())
                .map(|v| v.unbiased_exponent())
                .max();
            match scale {
                Some(s) => {
                    for (o, &v) in ob.iter_mut().zip(xb) {
                        let q = shift_quantize(Bf16::from_f32(v), s, self.bits, self.rounding);
                        *o = shift_dequantize(q, s, self.bits);
                    }
                }
                None => ob.fill(0.0),
            }
        }
    }

    fn name(&self) -> String {
        format!("MXINT{}", self.bits)
    }

    fn storage_bits(&self, len: usize) -> usize {
        let blocks = len.div_ceil(self.block_size);
        // b bits per element + 8-bit shared exponent per block (E8M0 scale,
        // as in the OCP MX spec and the denominator of the paper's Eq. (1)).
        len * self.bits as usize + blocks * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opal_tensor::stats::mse;

    #[test]
    fn exact_on_powers_of_two() {
        let q = MxIntQuantizer::new(4, 8).unwrap();
        // Shared scale 2 (max |x| = 4), 4-bit step = 2^0 = 1: integers in
        // [-7, 7] are exactly representable.
        let x = [4.0f32, 2.0, 1.0, -4.0, -2.0, 3.0, 0.0, 1.0];
        assert_eq!(q.quantize_dequantize(&x), x);
    }

    #[test]
    fn uniform_block_is_near_exact_at_8_bits() {
        let q = MxIntQuantizer::new(8, 128).unwrap();
        let x: Vec<f32> = (0..128).map(|i| (i as f32 - 64.0) / 17.0).collect();
        let y = q.quantize_dequantize(&x);
        // Max exponent here is 1 (|x|max≈3.76): step = 2^(1-6) = 1/32, so
        // the shift error is ≤ 1/64; the input is first taken to bf16
        // (7 mantissa bits), adding up to 2^(1-8) = 1/128 more.
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() <= 1.0 / 64.0 + 1.0 / 128.0 + 1e-6);
        }
    }

    #[test]
    fn outlier_destroys_small_values() {
        // Fig. 3(c): the outlier sets the scale and everything small
        // collapses. With b=2 (1 magnitude bit) all small values -> 0.
        let q = MxIntQuantizer::new(2, 128).unwrap();
        let mut x = vec![0.05f32; 128];
        x[0] = 32.0;
        let y = q.quantize_dequantize(&x);
        assert_eq!(y[0], 32.0);
        for &v in &y[1..] {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn scale_is_max_exponent() {
        let q = MxIntQuantizer::new(4, 4).unwrap();
        let b = q.encode_block(&[0.3, -5.0, 1.0, 0.0]);
        assert_eq!(b.scale, Some(2)); // -5.0 = -1.25*2^2
    }

    #[test]
    fn all_zero_block() {
        let q = MxIntQuantizer::new(4, 4).unwrap();
        let b = q.encode_block(&[0.0; 4]);
        assert_eq!(b.scale, None);
        assert_eq!(q.decode_block(&b), vec![0.0; 4]);
    }

    #[test]
    fn truncation_has_no_lower_error_than_rne() {
        let rne = MxIntQuantizer::new(4, 64).unwrap();
        let trunc = MxIntQuantizer::with_rounding(4, 64, Rounding::Truncate).unwrap();
        let x: Vec<f32> = (0..64).map(|i| ((i * 73) % 97) as f32 * 0.11 - 5.0).collect();
        let e_rne = mse(&x, &rne.quantize_dequantize(&x));
        let e_trunc = mse(&x, &trunc.quantize_dequantize(&x));
        assert!(e_rne <= e_trunc, "rne {e_rne} trunc {e_trunc}");
    }

    #[test]
    fn partial_final_block() {
        let q = MxIntQuantizer::new(5, 8).unwrap();
        let x: Vec<f32> = (0..13).map(|i| i as f32 * 0.5).collect();
        let y = q.quantize_dequantize(&x);
        assert_eq!(y.len(), 13);
    }

    #[test]
    fn storage_accounting_matches_eq1_denominator() {
        // Eq. (1) denominator: k*b + 8 per block.
        let q = MxIntQuantizer::new(8, 128).unwrap();
        assert_eq!(q.storage_bits(128), 128 * 8 + 8);
    }

    #[test]
    fn quantized_values_are_on_grid() {
        let q = MxIntQuantizer::new(4, 16).unwrap();
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let block = q.encode_block(&x);
        let s = block.scale.unwrap();
        for &e in &block.elements {
            assert!(e.abs() <= 7, "4-bit range respected");
        }
        let y = q.decode_block(&block);
        let step = opal_numerics::shift::step_size(s, 4);
        for v in y {
            let ratio = v / step;
            assert!((ratio - ratio.round()).abs() < 1e-6);
        }
    }
}
