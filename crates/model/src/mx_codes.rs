//! The activation side of the INT datapath: MX-family activation rows
//! encoded to the codes [`opal_tensor::ops::matmul_codes`] multiplies with
//! OWQ weight codes.
//!
//! A scheme with MX-OPAL or MXINT activations over OWQ weights never
//! rounds a weight input to `f32`: each of the four sites that feed a
//! weight product (QKV, projection, FC1 and FC2 inputs) is encoded once a
//! pass, row by row, into a [`CodeActs`] — the quantizer's own integer
//! codes, its blocks' power-of-two steps and, for MX-OPAL, the preserved
//! bfloat16 outliers. The forward core encodes through the scratch
//! encoders (`encode_row_scratch`, `encode_row`); the reference decoder
//! through the allocating ones (`quantize`, `encode_block`). Both give
//! the same codes, steps and outliers, so both products are the same
//! numbers.

use opal_numerics::shift::step_size;
use opal_numerics::Bf16;
use opal_quant::{EncodeScratch, MxIntQuantizer, MxOpalQuantizer};
use opal_tensor::{CodeActs, Matrix};

use crate::scheme::{ActFormat, ActScheme};

/// One site's activation encoder.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MxEncoder {
    /// MX-OPAL: codes, steps and the preserved outliers.
    Opal(MxOpalQuantizer),
    /// MXINT: codes and steps.
    Int(MxIntQuantizer),
}

/// The low-bit (post-LayerNorm: QKV, FC1) and high-bit (projection, FC2)
/// encoders of a scheme that runs its weight products on the INT datapath.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ActCodec {
    pub(crate) low: MxEncoder,
    pub(crate) high: MxEncoder,
}

impl ActCodec {
    /// The encoders of `acts`, if its format is MX-family (MinMax has no
    /// shared power-of-two steps and stays on the `f32` path).
    ///
    /// # Errors
    ///
    /// Propagates quantizer configuration errors.
    pub(crate) fn for_scheme(acts: &ActScheme) -> Result<Option<Self>, opal_quant::QuantError> {
        let encoder = |bits| -> Result<Option<MxEncoder>, opal_quant::QuantError> {
            Ok(match acts.format {
                ActFormat::MinMax => None,
                ActFormat::MxInt => {
                    Some(MxEncoder::Int(MxIntQuantizer::new(bits, acts.block_size)?))
                }
                ActFormat::MxOpal => Some(MxEncoder::Opal(MxOpalQuantizer::new(
                    bits,
                    acts.block_size,
                    acts.outliers,
                )?)),
            })
        };
        Ok(match (encoder(acts.low_bits)?, encoder(acts.high_bits)?) {
            (Some(low), Some(high)) => Some(ActCodec { low, high }),
            _ => None,
        })
    }
}

/// The per-row encoder outputs that do not go straight into a
/// [`CodeActs`]: block scales and MX-OPAL's outlier slots. Grown to the
/// widest row, never shrunk.
#[derive(Debug, Default)]
pub(crate) struct EncodeBufs {
    scales: Vec<i16>,
    idx: Vec<u16>,
    val: Vec<Bf16>,
    len: Vec<u8>,
}

impl MxEncoder {
    fn block_size(&self) -> usize {
        match self {
            MxEncoder::Opal(q) => q.block_size(),
            MxEncoder::Int(q) => q.block_size(),
        }
    }

    fn bits(&self) -> u32 {
        match self {
            MxEncoder::Opal(q) => q.bits(),
            MxEncoder::Int(q) => q.bits(),
        }
    }

    /// Preserved outliers per block.
    fn slots(&self) -> usize {
        match self {
            MxEncoder::Opal(q) => q.outliers(),
            MxEncoder::Int(_) => 0,
        }
    }

    /// Reshapes `acts` for `rows` rows of `width`.
    fn reshape(&self, acts: &mut CodeActs, rows: usize, width: usize) {
        let blocks = width.div_ceil(self.block_size());
        acts.reshape(rows, width, self.block_size(), self.bits(), blocks * self.slots());
    }

    /// Encodes every row of `x` into `acts` through the scratch encoders:
    /// the forward core's form, allocation-free once `acts`, `bufs` and
    /// `scratch` have seen the shape.
    pub(crate) fn encode_rows(
        &self,
        x: &Matrix,
        acts: &mut CodeActs,
        bufs: &mut EncodeBufs,
        scratch: &mut EncodeScratch,
    ) {
        let (width, block, n) = (x.cols(), self.block_size(), self.slots());
        let blocks = width.div_ceil(block);
        self.reshape(acts, x.rows(), width);
        bufs.scales.resize(blocks, 0);
        bufs.idx.resize(blocks * n, 0);
        bufs.val.resize(blocks * n, Bf16::from_f32(0.0));
        bufs.len.resize(blocks, 0);
        for r in 0..x.rows() {
            let mut row = acts.row_mut(r);
            match self {
                MxEncoder::Opal(q) => {
                    let EncodeBufs { scales, idx, val, len } = bufs;
                    q.encode_row_scratch(x.row(r), &mut *row.codes, scales, idx, val, len, scratch);
                    for (b, &live) in len.iter().enumerate() {
                        for slot in b * n..b * n + usize::from(live) {
                            let at = b * block + usize::from(idx[slot]);
                            row.push_outlier(at, f64::from(val[slot].to_f32()));
                        }
                    }
                }
                MxEncoder::Int(q) => q.encode_row(x.row(r), &mut *row.codes, &mut bufs.scales),
            }
            for (step, &scale) in row.steps.iter_mut().zip(&bufs.scales) {
                *step = f64::from(step_size(i32::from(scale), self.bits()));
            }
        }
    }

    /// Encodes one row through the allocating encoders
    /// (`MxOpalQuantizer::quantize`, `MxIntQuantizer::encode_block`): the
    /// reference decoder's form, the same codes as [`Self::encode_rows`].
    pub(crate) fn encode_one(&self, x: &[f32]) -> CodeActs {
        let (bits, block) = (self.bits(), self.block_size());
        let mut acts = CodeActs::new();
        self.reshape(&mut acts, 1, x.len());
        let mut row = acts.row_mut(0);
        match self {
            MxEncoder::Opal(q) => {
                let t = q.quantize(x);
                for (b, blk) in t.blocks.iter().enumerate() {
                    let scale = t.global_scale + i32::from(blk.scale_offset);
                    row.steps[b] = f64::from(step_size(scale, bits));
                    for (c, &e) in row.codes[b * block..].iter_mut().zip(&blk.elements) {
                        *c = e as i8;
                    }
                    for &(i, v) in &blk.outliers {
                        row.push_outlier(b * block + usize::from(i), f64::from(v.to_f32()));
                    }
                }
            }
            MxEncoder::Int(q) => {
                for (b, chunk) in x.chunks(block).enumerate() {
                    let blk = q.encode_block(chunk);
                    // An all-zero block's codes are zero at any step; the
                    // scratch encoder records scale 0 for it.
                    row.steps[b] = f64::from(step_size(blk.scale.unwrap_or(0), bits));
                    for (c, &e) in row.codes[b * block..].iter_mut().zip(&blk.elements) {
                        *c = e as i8;
                    }
                }
            }
        }
        acts
    }
}

/// The activation codes of one weight-product site and the encoder
/// buffers that fill them: what a [`crate::Workspace`] holds for the INT
/// datapath, one site at a time.
#[derive(Debug, Default)]
pub(crate) struct MxActs {
    pub(crate) codes: CodeActs,
    bufs: EncodeBufs,
}

impl MxActs {
    /// Encodes every row of `x` with `encoder` (see
    /// [`MxEncoder::encode_rows`]).
    pub(crate) fn encode(&mut self, encoder: MxEncoder, x: &Matrix, scratch: &mut EncodeScratch) {
        encoder.encode_rows(x, &mut self.codes, &mut self.bufs, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::seed_matvec;
    use opal_quant::OwqQuantizer;
    use opal_tensor::ops;
    use opal_tensor::rng::TensorRng;

    /// `f32` spacing at `|y|`.
    fn ulp(y: f32) -> f64 {
        let a = y.abs();
        f64::from(f32::from_bits(a.to_bits() + 1)) - f64::from(a)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The code-domain product against the dequantized `f32` oracle
        /// (the seed's matvec over the dequantized weights and
        /// activations): every output within `2⁻²³ · Σ|x̂_i · ŵ_i| +
        /// ulp(y)`. Weights round to `f32` one by one in the oracle and not
        /// here, so the two differ, by no more than that. The scratch
        /// encoders (the forward core's) and the allocating ones (the
        /// reference decoder's) give bitwise the same products.
        #[test]
        fn code_product_is_within_rounding_of_the_dequantized_oracle(
            width_ix in 0usize..302,
            d_out in 1usize..=70,
            rows in 1usize..=4,
            bits in 2u32..=8,
            w3 in 0usize..2,
            mxint in 0usize..4,
            block_ix in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let width = match width_ix { 300 => 128, 301 => 344, w => w + 1 };
            let block = [128, 128, 16][block_ix];
            let encoder = if mxint == 0 {
                MxEncoder::Int(MxIntQuantizer::new(bits, block).expect("valid"))
            } else {
                MxEncoder::Opal(MxOpalQuantizer::new(bits, block, 4.min(block - 1)).expect("valid"))
            };
            let mut rng = TensorRng::seed(seed);
            let w = rng.normal_matrix(width, d_out, 0.0, 0.05);
            let owq = OwqQuantizer::new(3 + w3 as u32, 0.02).expect("valid");
            let calib: Vec<f32> = (0..width).map(|_| rng.uniform(0.1, 4.0)).collect();
            let codes = owq.quantize(&w, &calib).into_codes();
            let x = Matrix::from_fn(rows, width, |_, i| {
                // A few persistent outlier channels, as the model's.
                let gain = if i % 37 == 5 { 40.0 } else { 1.0 };
                rng.normal(0.0, 0.8) * gain
            });

            let (mut acts, mut bufs) = (CodeActs::new(), EncodeBufs::default());
            encoder.encode_rows(&x, &mut acts, &mut bufs, &mut EncodeScratch::new());
            let mut y = vec![0.0f32; rows * d_out];
            ops::matmul_codes(&acts, &codes, &mut y);

            let w_t = codes.dequantize().transpose();
            let x_hat = acts.dequantize();
            for r in 0..rows {
                let mut one = vec![0.0f32; d_out];
                ops::matmul_codes_portable(&encoder.encode_one(x.row(r)), &codes, &mut one);
                let y_r = &y[r * d_out..(r + 1) * d_out];
                let same = one.iter().zip(y_r).all(|(a, b)| a.to_bits() == b.to_bits());
                proptest::prop_assert!(same, "row {r}: allocating encoder's product differs");

                let oracle = seed_matvec(&w_t, x_hat.row(r));
                for (c, (&got, &want)) in y_r.iter().zip(&oracle).enumerate() {
                    let mass: f64 = x_hat
                        .row(r)
                        .iter()
                        .zip(w_t.row(c))
                        .map(|(&a, &b)| (f64::from(a) * f64::from(b)).abs())
                        .sum();
                    let bound = mass * 2f64.powi(-23) + ulp(got).max(ulp(want));
                    let err = (f64::from(got) - f64::from(want)).abs();
                    proptest::prop_assert!(
                        err <= bound,
                        "row {r} channel {c}: {got:e} vs oracle {want:e}, error {err:e} > {bound:e}"
                    );
                }
            }
        }
    }
}
