//! MX-OPAL: the paper's outlier-preserved microscaling format (§3, Fig. 2(c)).

use std::cmp::Ordering;

use opal_numerics::shift::step_size;
use opal_numerics::{shift_dequantize, shift_quantize, Bf16, Rounding};
use opal_tensor::ops;

use crate::{QuantError, Quantizer};

/// Reusable workspace for the allocation-free MX-OPAL round trip
/// ([`Quantizer::quantize_dequantize_scratch`]).
///
/// The tensor-global encoder needs two passes — per-block outlier/scale
/// plans first, then a tensor-wide scale before any element can be encoded
/// — so unlike the block-local formats it must stage intermediate state
/// somewhere. This type owns that state: the bfloat16 image of the row, the
/// top-magnitude selection buffers, and the per-block scale/outlier plans.
/// Buffers grow to the largest row ever encoded and are reused verbatim
/// afterwards, so a steady-state decode loop that owns one `EncodeScratch`
/// per sequence performs no heap allocation in the quantizer.
///
/// One workspace may be shared across quantizers of different widths and
/// block sizes (each call resets it); it carries no encoding state between
/// calls.
#[derive(Clone, Debug, Default)]
pub struct EncodeScratch {
    /// bf16 image of the input row.
    bf: Vec<Bf16>,
    /// Selection keys of the block being ranked ([`ops::top_magnitudes`]).
    keys: Vec<u32>,
    /// Block-local indices of the top `n + 1` magnitudes, in stable rank
    /// order (the prefix of the allocating path's full descending sort).
    top: Vec<usize>,
    /// Natural shared scale per block (`None` for an all-zero block).
    block_scales: Vec<Option<i32>>,
    /// Preserved-outlier positions (tensor-global indices), grouped by
    /// block.
    outlier_idx: Vec<usize>,
    /// Per-block end offsets into `outlier_idx`.
    outlier_end: Vec<usize>,
}

impl EncodeScratch {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Leaves in `top` the block-local indices of the `n + 1` largest
/// magnitudes of `block`, in the order the allocating encoder's stable
/// descending sort by [`Bf16::abs_cmp`] puts them (equal magnitudes by
/// ascending index): [`ops::top_magnitudes`], whose keys hold an index in
/// 15 bits, or for a longer block a stable insertion. Requires
/// `n < block.len()`.
fn select_top(block: &[Bf16], n: usize, keys: &mut Vec<u32>, top: &mut Vec<usize>) {
    debug_assert!(n < block.len(), "the scale needs an (n+1)-th element");
    if block.len() > ops::TOP_BLOCK_MAX {
        // Stable top-(n+1) insertion — element j displaces kept entries
        // only when strictly larger, so equal magnitudes keep
        // ascending-index order exactly like the stable sort.
        top.clear();
        for (j, &v) in block.iter().enumerate() {
            let pos = top
                .iter()
                .position(|&e| block[e].abs_cmp(v) == Ordering::Less)
                .unwrap_or(top.len());
            if pos <= n {
                top.insert(pos, j);
                top.truncate(n + 1);
            }
        }
        return;
    }
    keys.resize(block.len(), 0);
    top.resize(n + 1, 0);
    ops::top_magnitudes(block, keys, top);
}

/// Number of bits used for each block's shared-scale *offset* against the
/// tensor-wise global scale (§3.1: "store a 4-bit block-wise offset").
pub const SCALE_OFFSET_BITS: u32 = 4;

const MAX_OFFSET: i32 = (1 << SCALE_OFFSET_BITS) - 1;

/// One encoded MX-OPAL block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MxOpalBlock {
    /// Offset of this block's shared scale above the tensor's global scale,
    /// in `0..=15` (stored in 4 bits).
    pub scale_offset: u8,
    /// The preserved outliers: `(index within block, bfloat16 value)`.
    pub outliers: Vec<(u16, Bf16)>,
    /// Non-outlier integer elements (outlier positions hold 0).
    pub elements: Vec<i32>,
}

/// A fully encoded MX-OPAL tensor: global scale + per-block payloads.
///
/// This is the wire/SRAM format whose size the paper's Eq. (1) accounts for;
/// [`MxOpalTensor::storage_bits`] computes the same quantity from the actual
/// encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MxOpalTensor {
    /// Tensor-wise global shared scale (unbiased exponent).
    pub global_scale: i32,
    /// Encoded blocks, in order.
    pub blocks: Vec<MxOpalBlock>,
    bits: u32,
    block_size: usize,
    len: usize,
}

impl MxOpalTensor {
    /// Decodes the tensor back to real values.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len);
        for block in &self.blocks {
            let s = self.global_scale + i32::from(block.scale_offset);
            let start = out.len();
            out.extend(block.elements.iter().map(|&q| shift_dequantize(q, s, self.bits)));
            for &(idx, val) in &block.outliers {
                out[start + idx as usize] = val.to_f32();
            }
        }
        out
    }

    /// Exact storage footprint of this encoding in bits: `(k−n)` packed
    /// integer elements + 16-bit bfloat16 outliers + per-outlier indices
    /// (`ceil(log2 k)` bits each) + 4-bit scale offsets + the 8-bit global
    /// scale.
    ///
    /// This matches the numerator of the paper's Eq. (1),
    /// `(k−n)·b + 16·n + 4`, except that we additionally count the outlier
    /// index bits explicitly (Eq. (1) folds them away; for k = 128, n = 4
    /// they add ~2.7 % to the MX-OPAL payload).
    pub fn storage_bits(&self) -> usize {
        let idx_bits = usize::BITS as usize - (self.block_size - 1).leading_zeros() as usize;
        let mut bits = 8; // global scale
        for b in &self.blocks {
            bits += SCALE_OFFSET_BITS as usize;
            bits += (b.elements.len() - b.outliers.len()) * self.bits as usize;
            bits += b.outliers.len() * (16 + idx_bits);
        }
        bits
    }

    /// Number of encoded elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total preserved-outlier count across all blocks.
    pub fn outlier_count(&self) -> usize {
        self.blocks.iter().map(|b| b.outliers.len()).sum()
    }

    /// The element bit-width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The block size `k`.
    pub fn block_size(&self) -> usize {
        self.block_size
    }
}

/// The MX-OPAL quantizer: MXINT with the top-`n` outliers of every block of
/// `k` elements preserved in bfloat16, the shared scale taken from the
/// (n+1)-th largest magnitude, and block scales encoded as a global exponent
/// plus 4-bit offsets.
///
/// The paper's configuration is `k = 128`, `n = 4`, with `bits` = 3/4 for
/// post-LayerNorm activations and 5/7 elsewhere.
///
/// # Example
///
/// ```
/// use opal_quant::{MxOpalQuantizer, Quantizer};
///
/// let q = MxOpalQuantizer::new(3, 128, 4)?;
/// assert_eq!(q.name(), "MX-OPAL3");
/// # Ok::<(), opal_quant::QuantError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MxOpalQuantizer {
    bits: u32,
    block_size: usize,
    outliers: usize,
    rounding: Rounding,
}

impl MxOpalQuantizer {
    /// Creates an MX-OPAL quantizer with `bits`-bit non-outlier elements,
    /// blocks of `block_size`, and `outliers` preserved values per block.
    ///
    /// # Errors
    ///
    /// Returns a [`QuantError`] if `bits` ∉ `2..=8`, the block is empty or
    /// longer than `u16::MAX` (an outlier's index is a `u16`), or
    /// `outliers >= block_size` (the scale needs an (n+1)-th element) or
    /// `outliers > u8::MAX` (a block's outlier count is a `u8`).
    pub fn new(bits: u32, block_size: usize, outliers: usize) -> Result<Self, QuantError> {
        Self::with_rounding(bits, block_size, outliers, Rounding::NearestEven)
    }

    /// As [`MxOpalQuantizer::new`] with an explicit shift-rounding mode.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MxOpalQuantizer::new`].
    pub fn with_rounding(
        bits: u32,
        block_size: usize,
        outliers: usize,
        rounding: Rounding,
    ) -> Result<Self, QuantError> {
        if !(2..=8).contains(&bits) {
            return Err(QuantError::InvalidBits { bits });
        }
        if block_size == 0 || block_size > usize::from(u16::MAX) {
            return Err(QuantError::InvalidBlockSize { block_size });
        }
        if outliers >= block_size || outliers > usize::from(u8::MAX) {
            return Err(QuantError::TooManyOutliers { outliers, block_size });
        }
        Ok(MxOpalQuantizer { bits, block_size, outliers, rounding })
    }

    /// The non-outlier element bit-width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The block size `k`.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The preserved-outlier count `n`.
    pub fn outliers(&self) -> usize {
        self.outliers
    }

    /// Encodes a whole tensor: selects per-block outliers and scales, then
    /// computes the tensor-global scale and 4-bit offsets.
    ///
    /// Blocks whose natural scale sits more than 15 exponent steps below the
    /// tensor maximum are re-quantized at the clamped (higher) scale — extra
    /// underflow for those blocks, never overflow, mirroring what the
    /// fixed-width offset field forces on hardware.
    pub fn quantize(&self, x: &[f32]) -> MxOpalTensor {
        struct Plan {
            outlier_idx: Vec<usize>,
            scale: Option<i32>,
            bf: Vec<Bf16>,
        }

        let mut plans = Vec::new();
        for chunk in x.chunks(self.block_size) {
            let bf: Vec<Bf16> = chunk.iter().map(|&v| Bf16::from_f32(v)).collect();
            // Rank indices by |value| descending (bf16 magnitude order).
            let mut order: Vec<usize> = (0..bf.len()).collect();
            order.sort_by(|&a, &b| bf[b].abs_cmp(bf[a]));
            let n = self.outliers.min(bf.len().saturating_sub(1));
            let outlier_idx: Vec<usize> = order[..n].to_vec();
            // Shared scale = exponent of the (n+1)-th largest magnitude.
            let scale_elem = bf[order[n]];
            let scale = if scale_elem.is_zero() || scale_elem.is_subnormal() {
                None
            } else {
                Some(scale_elem.unbiased_exponent())
            };
            plans.push(Plan { outlier_idx, scale, bf });
        }

        // Global scale: chosen so every block offset fits in 4 bits.
        // global = max(min_scale, max_scale - 15); blocks below are clamped
        // *up* (they lose small values to underflow but never overflow).
        let scales: Vec<i32> = plans.iter().filter_map(|p| p.scale).collect();
        let global_scale = match (scales.iter().min(), scales.iter().max()) {
            (Some(&lo), Some(&hi)) => lo.max(hi - MAX_OFFSET),
            _ => 0,
        };

        let mut blocks = Vec::with_capacity(plans.len());
        for plan in &plans {
            let scale = plan
                .scale
                .map(|s| s.clamp(global_scale, global_scale + MAX_OFFSET))
                .unwrap_or(global_scale);
            let offset = (scale - global_scale) as u8;
            let mut elements = vec![0i32; plan.bf.len()];
            for (i, &v) in plan.bf.iter().enumerate() {
                if plan.outlier_idx.contains(&i) {
                    continue;
                }
                elements[i] = shift_quantize(v, scale, self.bits, self.rounding);
            }
            // `i < block_size <= u16::MAX`: exact in u16.
            let mut outliers: Vec<(u16, Bf16)> =
                plan.outlier_idx.iter().map(|&i| (i as u16, plan.bf[i])).collect();
            outliers.sort_by_key(|&(i, _)| i);
            blocks.push(MxOpalBlock { scale_offset: offset, outliers, elements });
        }

        MxOpalTensor {
            global_scale,
            blocks,
            bits: self.bits,
            block_size: self.block_size,
            len: x.len(),
        }
    }

    /// Pass 1 of both scratch encoders: the bf16 image of `x`, then per
    /// block the preserved-outlier positions and the natural scale (the
    /// exponent of the (n+1)-th largest magnitude, [`select_top`]'s last
    /// pick), all left in `s`. Returns the tensor-global scale: the same
    /// rule as [`MxOpalQuantizer::quantize`] — every block offset must fit
    /// in 4 bits, low blocks clamp upward.
    fn plan_blocks(&self, x: &[f32], s: &mut EncodeScratch) -> i32 {
        s.bf.resize(x.len(), Bf16::ZERO);
        ops::bf16_image(x, &mut s.bf);
        s.block_scales.clear();
        s.outlier_idx.clear();
        s.outlier_end.clear();

        let mut scale_range: Option<(i32, i32)> = None;
        let mut start = 0;
        for block in s.bf.chunks(self.block_size) {
            let n = self.outliers.min(block.len() - 1);
            select_top(block, n, &mut s.keys, &mut s.top);
            let scale_elem = block[s.top[n]];
            let scale = if scale_elem.is_zero() || scale_elem.is_subnormal() {
                None
            } else {
                Some(scale_elem.unbiased_exponent())
            };
            if let Some(sc) = scale {
                scale_range =
                    Some(scale_range.map_or((sc, sc), |(lo, hi)| (lo.min(sc), hi.max(sc))));
            }
            // tidy: allow(alloc) -- amortized: scratch capacity is reused across calls
            s.block_scales.push(scale);
            s.outlier_idx.extend(s.top[..n].iter().map(|&j| start + j));
            // tidy: allow(alloc) -- amortized: scratch capacity is reused across calls
            s.outlier_end.push(s.outlier_idx.len());
            start += block.len();
        }
        scale_range.map_or(0, |(lo, hi)| lo.max(hi - MAX_OFFSET))
    }

    /// The fused, allocation-free round trip behind
    /// [`Quantizer::quantize_dequantize_scratch`]: encodes and reconstructs
    /// `x` in two passes over `scratch`, producing bit-for-bit the values of
    /// `self.quantize(x).dequantize()` without building an [`MxOpalTensor`].
    ///
    /// Pass 1 ranks each block's magnitudes with a stable top-`(n+1)`
    /// selection (the prefix of the allocating path's full descending sort,
    /// with the same earlier-index-wins tie-break), recording outlier
    /// positions and the block's natural scale. Pass 2 clamps every block
    /// scale against the tensor-global scale and round-trips non-outliers
    /// through the shift datapath; preserved outliers reconstruct to their
    /// exact bfloat16 value. Equivalence to the allocating encoder is pinned
    /// by `tests/proptests.rs` across bit-widths, block sizes, outlier
    /// counts and rounding modes.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != x.len()`.
    pub fn quantize_dequantize_fused(&self, x: &[f32], out: &mut [f32], s: &mut EncodeScratch) {
        assert_eq!(out.len(), x.len(), "output length mismatch");
        let global_scale = self.plan_blocks(x, s);

        // Pass 2: round-trip each block at its clamped scale, then restore
        // the preserved outliers exactly.
        let mut outlier_start = 0;
        for (b, block_scale) in s.block_scales.iter().enumerate() {
            let start = b * self.block_size;
            let end = (start + self.block_size).min(x.len());
            let scale = block_scale
                .map(|sc| sc.clamp(global_scale, global_scale + MAX_OFFSET))
                .unwrap_or(global_scale);
            ops::shift_values(
                &s.bf[start..end],
                scale,
                self.bits,
                self.rounding,
                &mut out[start..end],
            );
            let outlier_end = s.outlier_end[b];
            for &i in &s.outlier_idx[outlier_start..outlier_end] {
                out[i] = s.bf[i].to_f32();
            }
            outlier_start = outlier_end;
        }
    }

    /// Encodes one row into caller-owned packed page arrays — the KV-cache
    /// storage form of [`MxOpalQuantizer::quantize_dequantize_fused`].
    ///
    /// Runs the identical two passes over `scratch` (same stable top-`(n+1)`
    /// outlier selection, same global-scale rule, same per-block clamp) but
    /// instead of reconstructing values it emits the encoding itself:
    ///
    /// * `codes[i]` — the shift-quantized integer element (outlier positions
    ///   hold `0`, so a code-domain dot never double-counts them);
    /// * `scales[b]` — the *effective* (post-clamp) shared scale of block
    ///   `b`, so decoding needs no global scale;
    /// * `out_idx`/`out_val` — `self.outliers` fixed slots per block of
    ///   preserved `(index within block, bfloat16 value)` pairs, the live
    ///   prefix length in `out_len[b]`.
    ///
    /// [`MxOpalQuantizer::decode_row`] reconstructs bit-for-bit the values
    /// `quantize_dequantize_fused` would have produced, because the fused
    /// reconstruction is exactly `code × step_size(scale, bits)` (scaling by
    /// an exact power of two) plus exact bfloat16 outliers.
    ///
    /// # Panics
    ///
    /// Panics if any destination length disagrees with `x.len()` and this
    /// quantizer's block geometry.
    #[allow(clippy::too_many_arguments)]
    pub fn encode_row_scratch(
        &self,
        x: &[f32],
        codes: &mut [i8],
        scales: &mut [i16],
        out_idx: &mut [u16],
        out_val: &mut [Bf16],
        out_len: &mut [u8],
        s: &mut EncodeScratch,
    ) {
        let blocks = x.len().div_ceil(self.block_size);
        assert_eq!(codes.len(), x.len(), "code length mismatch");
        assert_eq!(scales.len(), blocks, "scale length mismatch");
        assert_eq!(out_idx.len(), blocks * self.outliers, "outlier index length mismatch");
        assert_eq!(out_val.len(), blocks * self.outliers, "outlier value length mismatch");
        assert_eq!(out_len.len(), blocks, "outlier count length mismatch");
        let global_scale = self.plan_blocks(x, s);

        // Pass 2: emit codes at each block's clamped effective scale, zero
        // the outlier positions, and record the preserved values.
        let mut outlier_start = 0;
        for (b, block_scale) in s.block_scales.iter().enumerate() {
            let start = b * self.block_size;
            let end = (start + self.block_size).min(x.len());
            let scale = block_scale
                .map(|sc| sc.clamp(global_scale, global_scale + MAX_OFFSET))
                .unwrap_or(global_scale);
            // bf16 exponents fit i16 with orders of magnitude to spare.
            scales[b] = scale as i16;
            ops::shift_codes(
                &s.bf[start..end],
                scale,
                self.bits,
                self.rounding,
                &mut codes[start..end],
            );
            let outlier_end = s.outlier_end[b];
            let slot0 = b * self.outliers;
            out_len[b] = (outlier_end - outlier_start) as u8;
            for (slot, &i) in s.outlier_idx[outlier_start..outlier_end].iter().enumerate() {
                codes[i] = 0;
                out_idx[slot0 + slot] = (i - start) as u16;
                out_val[slot0 + slot] = s.bf[i];
            }
            outlier_start = outlier_end;
        }
    }

    /// Decodes a row encoded by [`MxOpalQuantizer::encode_row_scratch`],
    /// bit-for-bit equal to what `quantize_dequantize_fused` writes for the
    /// same input: one power-of-two step multiply per code, then the exact
    /// bfloat16 outliers.
    ///
    /// # Panics
    ///
    /// Panics if the array lengths disagree with the block geometry.
    pub fn decode_row(
        &self,
        codes: &[i8],
        scales: &[i16],
        out_idx: &[u16],
        out_val: &[Bf16],
        out_len: &[u8],
        out: &mut [f32],
    ) {
        let blocks = codes.len().div_ceil(self.block_size);
        assert_eq!(out.len(), codes.len(), "output length mismatch");
        assert_eq!(scales.len(), blocks, "scale length mismatch");
        assert_eq!(out_len.len(), blocks, "outlier count length mismatch");
        for b in 0..blocks {
            let start = b * self.block_size;
            let end = (start + self.block_size).min(codes.len());
            let step = step_size(i32::from(scales[b]), self.bits);
            for (o, &c) in out[start..end].iter_mut().zip(&codes[start..end]) {
                *o = f32::from(c) * step;
            }
            let slot0 = b * self.outliers;
            for slot in 0..usize::from(out_len[b]) {
                out[start + usize::from(out_idx[slot0 + slot])] = out_val[slot0 + slot].to_f32();
            }
        }
    }
}

impl Quantizer for MxOpalQuantizer {
    /// [`MxOpalQuantizer::quantize_dequantize_fused`], bit for bit the
    /// structured [`MxOpalQuantizer::quantize`] /
    /// [`MxOpalTensor::dequantize`] pair — the allocating specification it
    /// is property-tested against.
    fn quantize_dequantize_scratch(&self, x: &[f32], out: &mut [f32], scratch: &mut EncodeScratch) {
        self.quantize_dequantize_fused(x, out, scratch);
    }

    fn name(&self) -> String {
        format!("MX-OPAL{}", self.bits)
    }

    fn storage_bits(&self, len: usize) -> usize {
        let blocks = len.div_ceil(self.block_size);
        let idx_bits = usize::BITS as usize - (self.block_size - 1).leading_zeros() as usize;
        // Full blocks carry `outliers` preserved values; a short final block
        // carries at most `len_final - 1`.
        let full_blocks = len / self.block_size;
        let tail = len % self.block_size;
        let total_outliers = full_blocks * self.outliers.min(self.block_size - 1)
            + if tail > 0 { self.outliers.min(tail - 1) } else { 0 };
        8 + blocks * SCALE_OFFSET_BITS as usize
            + total_outliers * (16 + idx_bits)
            + (len - total_outliers) * self.bits as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MxIntQuantizer;
    use opal_tensor::stats::mse;

    fn outlier_block(k: usize) -> Vec<f32> {
        let mut x: Vec<f32> =
            (0..k).map(|i| (((i * 37 + 11) % 41) as f32 / 41.0 - 0.5) * 0.8).collect();
        x[k / 3] = 24.0; // single large outlier
        x
    }

    /// Wild inter-block dynamic range: block scales span >> 15 exponents,
    /// forcing the 4-bit offset clamp.
    fn wild_dynamic_range() -> Vec<f32> {
        (0..64)
            .map(|i| {
                if i < 16 {
                    1e-6 * (1.0 + i as f32 * 0.01)
                } else if i < 32 {
                    1e6 * (1.0 + i as f32 * 0.01)
                } else {
                    (i as f32 - 48.0) * 0.1
                }
            })
            .collect()
    }

    #[test]
    fn rejects_bad_config() {
        assert!(MxOpalQuantizer::new(4, 128, 128).is_err());
        assert!(MxOpalQuantizer::new(1, 128, 4).is_err());
        assert!(MxOpalQuantizer::new(4, 0, 0).is_err());
        assert!(MxOpalQuantizer::new(4, 128, 127).is_ok());
        // An outlier's index is a u16 and a block's outlier count a u8.
        assert!(MxOpalQuantizer::new(4, 65535, 255).is_ok());
        assert!(MxOpalQuantizer::new(4, 65536, 4).is_err());
        assert!(MxOpalQuantizer::new(4, 1024, 256).is_err());
    }

    #[test]
    fn outliers_preserved_exactly() {
        let q = MxOpalQuantizer::new(3, 128, 4).unwrap();
        let mut x = outlier_block(128);
        x[7] = -19.5; // bf16-exact
        x[80] = 12.25;
        let y = q.quantize_dequantize(&x);
        assert_eq!(y[128 / 3], 24.0);
        assert_eq!(y[7], -19.5);
        assert_eq!(y[80], 12.25);
    }

    #[test]
    fn scale_comes_from_n_plus_first() {
        // Block: one huge outlier (2^10), rest around 2^0. With n=1 the
        // shared scale must be 0-ish, not 10.
        let q = MxOpalQuantizer::new(4, 8, 1).unwrap();
        let x = [1024.0f32, 1.5, -1.2, 0.9, 1.1, -0.7, 0.4, 1.3];
        let t = q.quantize(&x);
        let s = t.global_scale + i32::from(t.blocks[0].scale_offset);
        assert_eq!(s, 0, "scale must track the 2nd largest element (1.5)");
    }

    #[test]
    fn beats_mxint_on_outlier_data() {
        // The headline effect (Fig. 3 / Fig. 4): preserving outliers slashes
        // the MSE relative to MXINT at the same bit-width.
        for bits in [2u32, 3, 4, 8] {
            let x = outlier_block(128);
            let mxint = MxIntQuantizer::new(bits, 128).unwrap();
            let mxopal = MxOpalQuantizer::new(bits, 128, 4).unwrap();
            let e_int = mse(&x, &mxint.quantize_dequantize(&x));
            let e_opal = mse(&x, &mxopal.quantize_dequantize(&x));
            assert!(
                e_opal < e_int / 2.0,
                "bits={bits}: opal {e_opal} should be well below mxint {e_int}"
            );
        }
    }

    #[test]
    fn no_outlier_data_matches_mxint_closely() {
        // Without outliers the (n+1)-th exponent ~= max exponent, so
        // MX-OPAL degenerates to MXINT accuracy (or slightly better).
        let x: Vec<f32> = (0..128).map(|i| ((i as f32) * 0.49).sin()).collect();
        let mxint = MxIntQuantizer::new(4, 128).unwrap();
        let mxopal = MxOpalQuantizer::new(4, 128, 4).unwrap();
        let e_int = mse(&x, &mxint.quantize_dequantize(&x));
        let e_opal = mse(&x, &mxopal.quantize_dequantize(&x));
        assert!(e_opal <= e_int * 1.05, "opal {e_opal} vs mxint {e_int}");
    }

    #[test]
    fn roundtrip_length_and_partial_blocks() {
        let q = MxOpalQuantizer::new(5, 16, 2).unwrap();
        let x = outlier_block(39);
        let y = q.quantize_dequantize(&x);
        assert_eq!(y.len(), 39);
    }

    #[test]
    fn offsets_fit_four_bits() {
        let q = MxOpalQuantizer::new(4, 16, 1).unwrap();
        let x = wild_dynamic_range();
        let t = q.quantize(&x);
        for b in &t.blocks {
            assert!(i32::from(b.scale_offset) <= MAX_OFFSET);
        }
        // Large block must not overflow: the clamp direction is upward.
        let y = t.dequantize();
        for i in 16..32 {
            assert!((y[i] - x[i]).abs() / x[i] < 0.2, "large values survive: {} vs {}", y[i], x[i]);
        }
    }

    #[test]
    fn all_zero_input() {
        let q = MxOpalQuantizer::new(4, 128, 4).unwrap();
        let x = vec![0.0f32; 256];
        assert_eq!(q.quantize_dequantize(&x), x);
    }

    #[test]
    fn zero_outliers_degenerates_to_mxint() {
        let q0 = MxOpalQuantizer::new(4, 64, 0).unwrap();
        let mxint = MxIntQuantizer::new(4, 64).unwrap();
        let x: Vec<f32> = (0..64).map(|i| ((i * 29 % 31) as f32 - 15.0) * 0.3).collect();
        let a = q0.quantize_dequantize(&x);
        let b = mxint.quantize_dequantize(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn outlier_count_and_storage() {
        let q = MxOpalQuantizer::new(8, 128, 4).unwrap();
        let x = outlier_block(256);
        let t = q.quantize(&x);
        assert_eq!(t.outlier_count(), 8); // 4 per block × 2 blocks
        assert_eq!(t.len(), 256);
        // Packed size and a-priori size agree.
        assert_eq!(t.storage_bits(), q.storage_bits(256));
    }

    #[test]
    fn memory_overhead_close_to_eq1() {
        // Eq. (1): k=128, n=4, b=8 -> OMEM ≈ 1.092... with 16-bit outliers
        // and a 4-bit offset; our explicit 7-bit indices add ~2.7% more.
        let q = MxOpalQuantizer::new(8, 128, 4).unwrap();
        let mxint = MxIntQuantizer::new(8, 128).unwrap();
        let ratio = q.storage_bits(128 * 64) as f64 / mxint.storage_bits(128 * 64) as f64;
        let eq1 = crate::overhead::omem(128, 4, 8);
        assert!((ratio - eq1).abs() < 0.03, "packed ratio {ratio} vs Eq.(1) {eq1}");
    }

    /// Bit-exact comparison of the fused scratch path against the
    /// allocating specification.
    fn assert_fused_matches(q: &MxOpalQuantizer, x: &[f32], scratch: &mut EncodeScratch) {
        let spec = q.quantize(x).dequantize();
        let mut fused = vec![f32::NAN; x.len()];
        q.quantize_dequantize_fused(x, &mut fused, scratch);
        let spec_bits: Vec<u32> = spec.iter().map(|v| v.to_bits()).collect();
        let fused_bits: Vec<u32> = fused.iter().map(|v| v.to_bits()).collect();
        assert_eq!(spec_bits, fused_bits, "{} len {}", q.name(), x.len());
    }

    #[test]
    fn fused_matches_allocating_on_outlier_data() {
        let mut scratch = EncodeScratch::new();
        for bits in [2u32, 3, 4, 5, 7, 8] {
            let q = MxOpalQuantizer::new(bits, 128, 4).unwrap();
            assert_fused_matches(&q, &outlier_block(128), &mut scratch);
            assert_fused_matches(&q, &outlier_block(300), &mut scratch);
        }
    }

    #[test]
    fn fused_matches_on_wild_dynamic_range() {
        // The 4-bit offset clamp path.
        let q = MxOpalQuantizer::new(4, 16, 1).unwrap();
        assert_fused_matches(&q, &wild_dynamic_range(), &mut EncodeScratch::new());
    }

    #[test]
    fn fused_handles_ties_zeros_and_short_blocks() {
        let mut scratch = EncodeScratch::new();
        let q = MxOpalQuantizer::new(3, 8, 2).unwrap();
        // Repeated magnitudes force the tie-break (stable sort keeps the
        // earlier index as the outlier) to matter.
        let ties = [2.0f32, -2.0, 2.0, 2.0, -2.0, 0.5, 0.5, 0.25, 2.0, -2.0, 0.125];
        assert_fused_matches(&q, &ties, &mut scratch);
        assert_fused_matches(&q, &[0.0; 24], &mut scratch);
        assert_fused_matches(&q, &[3.5], &mut scratch);
        assert_fused_matches(&q, &[], &mut scratch);
        // Subnormal-only block: natural scale is None.
        assert_fused_matches(&q, &[1e-41, -1e-41, 0.0, 1e-40], &mut scratch);
    }

    /// `select_top` against the allocating encoder's ranking: the stable
    /// descending sort by `abs_cmp`.
    fn assert_top_matches_sort(block: &[Bf16], n: usize) {
        let mut order: Vec<usize> = (0..block.len()).collect();
        order.sort_by(|&a, &b| block[b].abs_cmp(block[a]));
        let (mut keys, mut top) = (Vec::new(), Vec::new());
        select_top(block, n, &mut keys, &mut top);
        assert_eq!(top, order[..=n], "len {} n {n}", block.len());
    }

    #[test]
    fn select_top_ranks_nans_ties_and_zeros_like_the_stable_sort() {
        // NaNs of different payloads and signs are one magnitude above
        // infinity; everything else repeats, so rank is decided by index.
        let pool = [
            0x7FC0u16, 0x4000, 0xC000, 0x0000, 0x8000, 0x7F81, 0x0001, 0x8001, 0x7F80, 0xFFFF,
            0x4000, 0x3F00, 0xFF80, 0x7F7F, 0x0000, 0xFFC1, 0xC000, 0x3F00,
        ];
        let block: Vec<Bf16> =
            (0..131).map(|i| Bf16::from_bits(pool[(i * 7 + i / 18) % pool.len()])).collect();
        for len in [1usize, 2, 5, 18, 131] {
            for n in [0, 1, 4, len / 2, len - 1] {
                assert_top_matches_sort(&block[..len], n.min(len - 1));
            }
        }
    }

    #[test]
    fn select_top_at_the_key_width_boundary() {
        // The longest keyed block, its last index in play; one element
        // more takes the insertion loop.
        let mut block = vec![Bf16::ZERO; ops::TOP_BLOCK_MAX];
        assert_top_matches_sort(&block, 3);
        block[ops::TOP_BLOCK_MAX - 1] = Bf16::ONE;
        block[7] = Bf16::NEG_ONE;
        block.push(Bf16::ONE);
        assert_top_matches_sort(&block[..ops::TOP_BLOCK_MAX], 3);
        assert_top_matches_sort(&block, 3);
    }

    #[test]
    fn scratch_reuse_across_lengths_and_quantizers() {
        // One workspace serving rows of different widths and two different
        // quantizer configurations, as the model's low/high sites do.
        let mut scratch = EncodeScratch::new();
        let low = MxOpalQuantizer::new(4, 128, 4).unwrap();
        let high = MxOpalQuantizer::new(7, 128, 4).unwrap();
        for round in 0..3 {
            for len in [352usize, 128, 96, 500] {
                let x: Vec<f32> = (0..len)
                    .map(|i| (((i * 29 + round * 7 + 3) % 83) as f32 - 41.0) * 0.07)
                    .collect();
                assert_fused_matches(&low, &x, &mut scratch);
                assert_fused_matches(&high, &x, &mut scratch);
            }
        }
    }

    #[test]
    fn fused_matches_with_truncate_rounding() {
        let q = MxOpalQuantizer::with_rounding(4, 32, 2, Rounding::Truncate).unwrap();
        assert_fused_matches(&q, &outlier_block(100), &mut EncodeScratch::new());
    }

    #[test]
    fn elements_respect_bit_range() {
        let q = MxOpalQuantizer::new(3, 32, 2).unwrap();
        let t = q.quantize(&outlier_block(96));
        for b in &t.blocks {
            for &e in &b.elements {
                assert!(e.abs() <= 3, "3-bit magnitude bound");
            }
        }
    }
}
