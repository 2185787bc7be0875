//! The integer operands of the W×A code product, [`crate::ops::matmul_codes`]:
//! microscaled activation rows ([`CodeActs`]) and per-output-channel
//! affine weight codes ([`CodeWeights`]).
//!
//! Both hold what the paper's datapath holds. An activation row is one
//! signed integer code per element, one power-of-two step per
//! shared-exponent block, and a short list of preserved outliers whose
//! codes are `0`: the MX-OPAL and MXINT encodings. A weight matrix is one
//! unsigned code per element, one `(scale, lo)` pair per output channel,
//! and a few input rows kept in bfloat16 (OWQ), whose codes are `0`. The
//! product of the two is an exact integer sum per (row, block, channel)
//! plus one fixed-order `f64` epilogue; see [`crate::ops::matmul_codes`].

use opal_numerics::Bf16;

use crate::Matrix;

/// Output channels per panel of a [`CodeWeights`]: the sixteen `i16` lanes
/// of one 256-bit register.
pub(crate) const PANEL_WIDTH: usize = 16;

/// A stack of activation rows in a microscaled integer format: row `r`'s
/// element `i` is `codes[i] · step[i / block]`, unless `i` is one of the
/// row's outliers, whose code is `0` and whose value is kept exactly.
///
/// Codes must lie in `±(2^(bits−1) − 1)`, the shift quantizer's range; the
/// product's wide path sizes its `i16` sums by that bound. Steps are the
/// blocks' powers of two, widened from `f32`; outlier values are bfloat16
/// values widened to `f64`. A row's outliers are kept in ascending index
/// order, however they are pushed, so the product adds them in one order.
///
/// Buffers are reshaped, never shrunk: a workspace that owns one encodes
/// every pass allocation-free once it has seen its largest shape.
#[derive(Clone, Debug, Default)]
pub struct CodeActs {
    rows: usize,
    width: usize,
    /// Row pitch of `codes`: `width` rounded up to even, so that a row is
    /// a whole number of input pairs (a padding code is `0`).
    stride: usize,
    block: usize,
    bits: u32,
    /// Outlier capacity of a row.
    slots: usize,
    codes: Vec<i8>,
    /// `rows × blocks`.
    steps: Vec<f64>,
    /// `rows × slots`: each row's outlier positions, ascending, then its
    /// values; `out_len[r]` of them are live.
    out_idx: Vec<u32>,
    out_val: Vec<f64>,
    out_len: Vec<u32>,
}

/// One row of a [`CodeActs`], to read.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CodeRow<'a> {
    /// `stride` codes (the padding code is `0`).
    pub(crate) codes: &'a [i8],
    pub(crate) steps: &'a [f64],
    pub(crate) out_idx: &'a [u32],
    pub(crate) out_val: &'a [f64],
}

/// One row of a [`CodeActs`], to write: its codes and its blocks' steps
/// directly, its outliers through [`CodeRowMut::push_outlier`].
#[derive(Debug)]
pub struct CodeRowMut<'a> {
    /// The row's `width` codes (outlier positions must hold `0`).
    pub codes: &'a mut [i8],
    /// The row's step per shared-exponent block.
    pub steps: &'a mut [f64],
    out_idx: &'a mut [u32],
    out_val: &'a mut [f64],
    out_len: &'a mut u32,
}

impl CodeRowMut<'_> {
    /// Records the preserved value of element `index`, keeping the row's
    /// outliers in ascending index order.
    ///
    /// # Panics
    ///
    /// Panics if the row's outlier slots are full or `index` is already
    /// an outlier of the row.
    pub fn push_outlier(&mut self, index: usize, value: f64) {
        let len = *self.out_len as usize;
        assert!(len < self.out_idx.len(), "outlier slots full");
        assert!(index <= u32::MAX as usize, "outlier index {index} past u32");
        let index = index as u32;
        let at = self.out_idx[..len].partition_point(|&i| i < index);
        assert!(at == len || self.out_idx[at] != index, "outlier {index} pushed twice");
        self.out_idx.copy_within(at..len, at + 1);
        self.out_val.copy_within(at..len, at + 1);
        self.out_idx[at] = index;
        self.out_val[at] = value;
        *self.out_len += 1;
    }
}

impl CodeActs {
    /// An empty stack; [`CodeActs::reshape`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reshapes to `rows` rows of `width` codes in blocks of `block`, at
    /// `bits` bits, with room for `slots` outliers a row: every code zero,
    /// every step zero, no outliers. Allocation-free once the buffers have
    /// grown to the shape.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=8`, or `block` is zero or longer
    /// than `2^16` (a block's integer sum must fit `i32`).
    pub fn reshape(&mut self, rows: usize, width: usize, block: usize, bits: u32, slots: usize) {
        assert!((2..=8).contains(&bits), "activation codes are 2..=8 bits, not {bits}");
        assert!((1..=1 << 16).contains(&block), "block of {block} outside 1..=65536");
        let (stride, blocks) = (width + width % 2, width.div_ceil(block));
        (self.rows, self.width, self.stride, self.block) = (rows, width, stride, block);
        (self.bits, self.slots) = (bits, slots);
        refill(&mut self.codes, rows * stride, 0);
        refill(&mut self.steps, rows * blocks, 0.0);
        refill(&mut self.out_idx, rows * slots, 0);
        refill(&mut self.out_val, rows * slots, 0.0);
        refill(&mut self.out_len, rows, 0);
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Codes per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Elements per shared-exponent block.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Code bit-width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Row `r`, to write.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> CodeRowMut<'_> {
        assert!(r < self.rows, "row {r} of {}", self.rows);
        let blocks = self.width.div_ceil(self.block);
        let (s, n) = (self.slots, self.width);
        CodeRowMut {
            codes: &mut self.codes[r * self.stride..r * self.stride + n],
            steps: &mut self.steps[r * blocks..(r + 1) * blocks],
            out_idx: &mut self.out_idx[r * s..(r + 1) * s],
            out_val: &mut self.out_val[r * s..(r + 1) * s],
            out_len: &mut self.out_len[r],
        }
    }

    /// Row `r`, to read.
    pub(crate) fn row(&self, r: usize) -> CodeRow<'_> {
        let blocks = self.width.div_ceil(self.block);
        let (s, len) = (self.slots, self.out_len[r] as usize);
        CodeRow {
            codes: &self.codes[r * self.stride..(r + 1) * self.stride],
            steps: &self.steps[r * blocks..(r + 1) * blocks],
            out_idx: &self.out_idx[r * s..r * s + len],
            out_val: &self.out_val[r * s..r * s + len],
        }
    }

    /// The rows as `f32` values: element `i` of row `r` is
    /// `f32(code · step)`, or its outlier value. What a dequantizing
    /// datapath would multiply; the oracle of the code product's tests.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.width, |r, i| self.row(r).value(i, self.block) as f32)
    }
}

impl CodeRow<'_> {
    /// Element `i`'s value, exact in `f64`: its outlier value, or code
    /// times its block's step.
    pub(crate) fn value(&self, i: usize, block: usize) -> f64 {
        match self.out_idx.binary_search(&(i as u32)) {
            Ok(slot) => self.out_val[slot],
            Err(_) => f64::from(self.codes[i]) * self.steps[i / block],
        }
    }
}

/// Clears `v` and refills it with `len` copies of `x` (allocation-free
/// once `v` has held `len`).
fn refill<T: Copy>(v: &mut Vec<T>, len: usize, x: T) {
    v.clear();
    v.resize(len, x);
}

/// A `d_in × d_out` weight matrix (convention `y = x · W`) as unsigned
/// integer codes with one affine grid per output channel: element `(i, c)`
/// is `scale_c · q_ic + lo_c`, except on the bfloat16 outlier input rows,
/// which are stored whole and whose codes are `0`. This is the OWQ layout
/// (`opal_quant::OwqWeights` wraps one); the code product reads it without
/// ever forming an `f32` weight.
///
/// Codes sit input-major in panels of 16 output channels, two input
/// channels interleaved per byte pair: panel `p` holds, for every input
/// pair `k`, the 32 bytes `q(2k, 16p + j), q(2k + 1, 16p + j)` for `j` in
/// `0..16`. One 256-bit load is then two inputs × sixteen channels, the
/// operand of one `vpmaddubsw`. Padding (an odd last input, the channels
/// past `d_out` in the last panel) holds code `0`, scale `0` and lo `0`.
#[derive(Clone, Debug)]
pub struct CodeWeights {
    d_in: usize,
    d_out: usize,
    bits: u32,
    /// Input pairs, `ceil(d_in / 2)`.
    pairs: usize,
    /// `panels × pairs × 32` bytes.
    codes: Vec<u8>,
    /// Per output channel, padded to whole panels.
    scale: Vec<f64>,
    lo: Vec<f64>,
    /// Ascending input rows kept in bfloat16.
    outlier_rows: Vec<usize>,
    /// Their weights, `outlier_rows.len()` rows of `panels × 16`.
    outlier_w: Vec<Bf16>,
}

impl CodeWeights {
    /// Packs row-major codes `codes[i * d_out + c]` with the per-channel
    /// grids `scale[c]`, `lo[c]` and the bfloat16 rows `outlier_w`
    /// (`outlier_rows.len() × d_out`, row-major) of the ascending input
    /// rows `outlier_rows`. The codes of outlier rows are stored as `0`
    /// whatever `codes` holds there.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8`, a code does not fit `bits`, a
    /// length disagrees with the shape, or `outlier_rows` is not strictly
    /// ascending inside `0..d_in`.
    pub fn new(
        (d_in, d_out, bits): (usize, usize, u32),
        codes: &[u8],
        scale: &[f64],
        lo: &[f64],
        outlier_rows: Vec<usize>,
        outlier_w: &[Bf16],
    ) -> Self {
        assert!((1..=8).contains(&bits), "weight codes are 1..=8 bits, not {bits}");
        assert_eq!(codes.len(), d_in * d_out, "code count mismatch");
        assert_eq!((scale.len(), lo.len()), (d_out, d_out), "grid count mismatch");
        assert!(outlier_rows.windows(2).all(|w| w[0] < w[1]), "outlier rows not ascending");
        assert!(outlier_rows.last().is_none_or(|&i| i < d_in), "outlier row out of range");
        assert_eq!(outlier_w.len(), outlier_rows.len() * d_out, "outlier weight count mismatch");
        let max = (1u32 << bits) - 1;
        assert!(codes.iter().all(|&q| u32::from(q) <= max), "a code exceeds {bits} bits");

        let panels = d_out.div_ceil(PANEL_WIDTH);
        let pairs = d_in.div_ceil(2);
        let padded = panels * PANEL_WIDTH;
        let mut packed = vec![0u8; panels * pairs * 2 * PANEL_WIDTH];
        let mut outliers = outlier_rows.iter().peekable();
        for i in 0..d_in {
            if outliers.next_if_eq(&&i).is_some() {
                continue;
            }
            for (c, &q) in codes[i * d_out..(i + 1) * d_out].iter().enumerate() {
                packed[Self::at(pairs, i, c)] = q;
            }
        }
        let pad =
            |v: &[f64]| v.iter().copied().chain(std::iter::repeat(0.0)).take(padded).collect();
        let zero = Bf16::from_f32(0.0);
        let mut ow = vec![zero; outlier_rows.len() * padded];
        for (dst, src) in ow.chunks_exact_mut(padded.max(1)).zip(outlier_w.chunks(d_out.max(1))) {
            dst[..d_out].copy_from_slice(src);
        }
        CodeWeights {
            d_in,
            d_out,
            bits,
            pairs,
            codes: packed,
            scale: pad(scale),
            lo: pad(lo),
            outlier_rows,
            outlier_w: ow,
        }
    }

    /// The byte of code `(i, c)` in the panel layout.
    fn at(pairs: usize, i: usize, c: usize) -> usize {
        ((c / PANEL_WIDTH) * pairs + i / 2) * 2 * PANEL_WIDTH + 2 * (c % PANEL_WIDTH) + i % 2
    }

    /// Input channels.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output channels.
    pub fn d_out(&self) -> usize {
        self.d_out
    }

    /// Code bit-width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Code `q_ic` (`0` on an outlier row).
    ///
    /// # Panics
    ///
    /// Panics if `(i, c)` is out of range.
    pub fn code(&self, i: usize, c: usize) -> u8 {
        assert!(i < self.d_in && c < self.d_out, "code ({i}, {c}) out of range");
        self.codes[Self::at(self.pairs, i, c)]
    }

    /// Output channel `c`'s grid, `(scale, lo)`.
    pub fn grid(&self, c: usize) -> (f64, f64) {
        (self.scale[c], self.lo[c])
    }

    /// The input rows kept in bfloat16, ascending.
    pub fn outlier_rows(&self) -> &[usize] {
        &self.outlier_rows
    }

    /// Weight `(outlier_rows()[k], c)`, in bfloat16.
    pub fn outlier_weight(&self, k: usize, c: usize) -> Bf16 {
        self.outlier_w[k * self.padded() + c]
    }

    /// The weights as `f32`: `f32(scale_c · q_ic + lo_c)` (one rounding,
    /// from the `f64` grid), the bfloat16 value on an outlier row. The
    /// dense form the non-integer datapaths multiply, and the oracle of
    /// the code product's tests.
    pub fn dequantize(&self) -> Matrix {
        let mut m = Matrix::from_fn(self.d_in, self.d_out, |i, c| {
            (f64::from(self.code(i, c)) * self.scale[c] + self.lo[c]) as f32
        });
        for (k, &i) in self.outlier_rows.iter().enumerate() {
            for c in 0..self.d_out {
                m[(i, c)] = self.outlier_weight(k, c).to_f32();
            }
        }
        m
    }

    /// Bytes this matrix holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.codes.len()
            + (self.scale.len() + self.lo.len()) * size_of::<f64>()
            + self.outlier_rows.len() * size_of::<usize>()
            + self.outlier_w.len() * size_of::<Bf16>()
    }

    /// Channels per row of the padded per-channel arrays.
    fn padded(&self) -> usize {
        self.scale.len()
    }

    /// Panel `p`'s codes, one 32-byte entry per input pair.
    pub(crate) fn panel(&self, p: usize) -> &[[u8; 2 * PANEL_WIDTH]] {
        let (pairs, _) = self.codes.as_chunks::<{ 2 * PANEL_WIDTH }>();
        &pairs[p * self.pairs..(p + 1) * self.pairs]
    }

    /// Panel `p`'s scales and los, four channels an entry.
    pub(crate) fn panel_grid(&self, p: usize) -> (&[[f64; 4]], &[[f64; 4]]) {
        let (start, end) = (p * PANEL_WIDTH, (p + 1) * PANEL_WIDTH);
        (self.scale[start..end].as_chunks::<4>().0, self.lo[start..end].as_chunks::<4>().0)
    }

    /// Outlier row `k`'s weights in panel `p`.
    pub(crate) fn panel_outlier_w(&self, k: usize, p: usize) -> &[Bf16; PANEL_WIDTH] {
        let row = &self.outlier_w[k * self.padded()..(k + 1) * self.padded()];
        &row.as_chunks::<PANEL_WIDTH>().0[p]
    }

    /// Number of 16-channel panels.
    pub(crate) fn panels(&self) -> usize {
        self.d_out.div_ceil(PANEL_WIDTH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{matmul_codes, matmul_codes_portable};

    const SENTINEL: f32 = 7.0;

    /// SplitMix64: the cases are built from one drawn seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn signed(&mut self, max: i32) -> i32 {
            self.below(2 * max as usize + 1) as i32 - max
        }
    }

    /// Whether the wide path is expected to take a product at these bits
    /// and this block (the CPU permitting).
    fn wide_takes(a_bits: u32, w_bits: u32, block: usize) -> bool {
        let pair_max = 2 * ((1i32 << w_bits) - 1) * ((1i32 << (a_bits - 1)) - 1);
        block.is_multiple_of(2) && pair_max <= i32::from(i16::MAX)
    }

    fn wide_cpu() -> bool {
        let path = crate::KernelPath::detect();
        path.wide_dot && path.wide_codes
    }

    /// One drawn case: the shapes, the codes and grids. `extreme` puts
    /// every code at its bound with one sign a row, so that the `i16` sums
    /// reach their limit exactly.
    #[allow(clippy::too_many_arguments)]
    fn case(
        mix: &mut Mix,
        rows: usize,
        width: usize,
        d_out: usize,
        a_bits: u32,
        w_bits: u32,
        block: usize,
        extreme: bool,
    ) -> (CodeActs, CodeWeights) {
        let m_max = (1i32 << (a_bits - 1)) - 1;
        let q_max = (1u32 << w_bits) - 1;
        let blocks = width.div_ceil(block);

        let n_rows_out = mix.below(4).min(width);
        let mut outlier_rows: Vec<usize> = (0..n_rows_out).map(|_| mix.below(width)).collect();
        outlier_rows.sort_unstable();
        outlier_rows.dedup();
        let codes: Vec<u8> = (0..width * d_out)
            .map(|_| if extreme { q_max as u8 } else { mix.below(q_max as usize + 1) as u8 })
            .collect();
        let mut scale = Vec::new();
        let mut lo = Vec::new();
        for _ in 0..d_out {
            // Constant columns (scale 0) one time in five.
            let s = if mix.below(5) == 0 { 0.0 } else { (mix.next() % 1000 + 1) as f64 * 1.7e-5 };
            scale.push(s);
            lo.push(-((mix.next() % 1000) as f64) * 3.1e-4);
        }
        let outlier_w: Vec<Bf16> = (0..outlier_rows.len() * d_out)
            .map(|_| Bf16::from_f32((mix.signed(1000) as f32) * 0.0137))
            .collect();
        let w = CodeWeights::new(
            (width, d_out, w_bits),
            &codes,
            &scale,
            &lo,
            outlier_rows.clone(),
            &outlier_w,
        );

        let mut x = CodeActs::new();
        x.reshape(rows, width, block, a_bits, 4 * blocks);
        for r in 0..rows {
            let sign = if mix.below(2) == 0 { 1 } else { -1 };
            let zero_block = if mix.below(3) == 0 { Some(mix.below(blocks)) } else { None };
            let mut row = x.row_mut(r);
            for (i, m) in row.codes.iter_mut().enumerate() {
                *m = if zero_block == Some(i / block) {
                    0
                } else if extreme {
                    (sign * m_max) as i8
                } else {
                    mix.signed(m_max) as i8
                };
            }
            for s in row.steps.iter_mut() {
                let e = if mix.below(8) == 0 { -149 } else { mix.signed(30) - 10 };
                *s = f64::from(opal_numerics::shift::exp2i(e));
            }
            if extreme {
                continue;
            }
            for b in 0..blocks {
                let span = b * block..((b + 1) * block).min(width);
                let mut picked: Vec<usize> = Vec::new();
                for _ in 0..mix.below(5).min(span.len()) {
                    picked.push(span.start + mix.below(span.len()));
                }
                // One on a bfloat16 weight row, when the block has one.
                if let Some(&i) = outlier_rows.iter().find(|i| span.contains(i)) {
                    if mix.below(2) == 0 && picked.len() < 4 {
                        picked.push(i);
                    }
                }
                picked.sort_unstable();
                picked.dedup();
                for &i in picked.iter().rev() {
                    row.codes[i] = 0;
                    row.push_outlier(
                        i,
                        f64::from(Bf16::from_f32(mix.signed(500) as f32 * 0.75).to_f32()),
                    );
                }
            }
        }
        (x, w)
    }

    fn product_against_spec(x: &CodeActs, w: &CodeWeights) -> Result<(), String> {
        let n = x.rows() * w.d_out();
        let (mut got, mut want) = (vec![SENTINEL; n], vec![SENTINEL; n]);
        matmul_codes(x, w, &mut got);
        matmul_codes_portable(x, w, &mut want);
        #[cfg(target_arch = "x86_64")]
        {
            let mut wide = vec![SENTINEL; n];
            let took = crate::simd::matmul_codes(x, w, &mut wide);
            let expect = wide_cpu() && wide_takes(x.bits(), w.bits(), x.block());
            if took != expect {
                return Err(format!("wide path took the product: {took}, expected {expect}"));
            }
            if !took && wide.iter().any(|v| v.to_bits() != SENTINEL.to_bits()) {
                return Err("a declined wide path wrote".to_owned());
            }
        }
        match got.iter().zip(&want).position(|(g, s)| g.to_bits() != s.to_bits()) {
            None => Ok(()),
            Some(e) => Err(format!(
                "{} x {} x {} at W{}A{} block {}: element {e} is {:e}, spec {:e}",
                x.rows(),
                x.width(),
                w.d_out(),
                w.bits(),
                x.bits(),
                x.block(),
                got[e],
                want[e]
            )),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        /// The dispatching product is bitwise the portable spec over rows
        /// 1..=9 and 32, widths 1..=300 plus 128 and 344, 1..=70 output
        /// channels, every activation × weight width (pairs past the `i16`
        /// bound take the portable path), 0..=4 outliers a block (some on a
        /// bfloat16 weight row), all-zero blocks, constant columns, and
        /// outputs that start from a sentinel.
        #[test]
        fn code_product_dispatch_is_bitwise_the_spec(
            rows_ix in 0usize..10,
            width_ix in 0usize..302,
            d_out in 1usize..=70,
            a_bits in 2u32..=8,
            w_bits in 2u32..=8,
            block_ix in 0usize..6,
            extreme in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let rows = if rows_ix == 9 { 32 } else { rows_ix + 1 };
            let width = match width_ix { 300 => 128, 301 => 344, w => w + 1 };
            let block = [128, 128, 128, 16, 34, 33][block_ix];
            let mut mix = Mix(seed);
            let (x, w) = case(&mut mix, rows, width, d_out, a_bits, w_bits, block, extreme == 0);
            let outcome = product_against_spec(&x, &w);
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    /// Every activation × weight width at the served widths with every
    /// code at its bound and one sign a row: the `i16` sums reach
    /// `flush · 2·q_max·|m|_max` exactly, so a flush one pair late
    /// overflows.
    #[test]
    fn code_product_i16_sums_hold_at_their_bound() {
        let mut mix = Mix(7);
        for a_bits in 2..=8 {
            for w_bits in 2..=8 {
                for width in [128, 344] {
                    let (x, w) = case(&mut mix, 5, width, 20, a_bits, w_bits, 128, true);
                    let outcome = product_against_spec(&x, &w);
                    assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
                }
            }
        }
    }

    /// Cases whose epilogue order shows: every weight code the same, so
    /// `s·acc` and `lo·X` cancel exactly at ~2^74, and a bfloat16 weight row
    /// whose activation is an outlier of ~1 — added after the cancellation
    /// it survives whole, added before it is lost in `s·acc`.
    #[test]
    fn code_product_epilogue_keeps_its_order() {
        let mut mix = Mix(11);
        for width in (2..=40).chain([128, 344]) {
            for (rows, d_out) in [(1, 1), (3, 17), (5, 33)] {
                let q0 = 9u8;
                let scale = 0.125;
                let orow = mix.below(width);
                let ow: Vec<Bf16> =
                    (0..d_out).map(|c| Bf16::from_f32(1.0 + c as f32 / 64.0)).collect();
                let w = CodeWeights::new(
                    (width, d_out, 4),
                    &vec![q0; width * d_out],
                    &vec![scale; d_out],
                    &vec![-scale * f64::from(q0); d_out],
                    vec![orow],
                    &ow,
                );
                let mut x = CodeActs::new();
                x.reshape(rows, width, 128, 7, 3);
                for r in 0..rows {
                    let mut row = x.row_mut(r);
                    for m in row.codes.iter_mut() {
                        *m = mix.signed(63) as i8;
                    }
                    row.codes[orow] = 0;
                    row.steps.fill(2f64.powi(60));
                    row.push_outlier(orow, 1.5);
                }
                let outcome = product_against_spec(&x, &w);
                assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
                let mut y = vec![SENTINEL; rows * d_out];
                matmul_codes(&x, &w, &mut y);
                for (i, &v) in y.iter().enumerate() {
                    let want = 1.5 * ow[i % d_out].to_f32();
                    assert_eq!(v, want, "{rows} x {width} x {d_out} element {i}");
                }
            }
        }
    }

    #[test]
    fn code_weights_pack_and_dequantize() {
        let (d_in, d_out) = (5, 19);
        let codes: Vec<u8> = (0..d_in * d_out).map(|i| (i * 7 % 16) as u8).collect();
        let scale: Vec<f64> = (0..d_out).map(|c| 0.01 * (c + 1) as f64).collect();
        let lo: Vec<f64> = (0..d_out).map(|c| -0.05 * c as f64).collect();
        let ow: Vec<Bf16> = (0..d_out).map(|c| Bf16::from_f32(c as f32 - 9.5)).collect();
        let w = CodeWeights::new((d_in, d_out, 4), &codes, &scale, &lo, vec![3], &ow);
        let m = w.dequantize();
        for i in 0..d_in {
            for c in 0..d_out {
                if i == 3 {
                    assert_eq!(w.code(i, c), 0);
                    assert_eq!(m[(i, c)], c as f32 - 9.5);
                } else {
                    let q = codes[i * d_out + c];
                    assert_eq!(w.code(i, c), q);
                    assert_eq!(m[(i, c)], (f64::from(q) * scale[c] + lo[c]) as f32);
                }
            }
        }
        // 2 panels × 3 pairs × 32 codes, 32 scales and los, one outlier row.
        assert_eq!(w.heap_bytes(), 192 + 2 * 32 * 8 + 8 + 32 * 2);
    }

    #[test]
    fn outliers_stay_in_index_order() {
        let mut x = CodeActs::new();
        x.reshape(1, 10, 4, 4, 3);
        let mut row = x.row_mut(0);
        row.push_outlier(7, 1.0);
        row.push_outlier(2, 2.0);
        row.push_outlier(5, 3.0);
        let row = x.row(0);
        assert_eq!(row.out_idx, &[2, 5, 7]);
        assert_eq!(row.out_val, &[2.0, 3.0, 1.0]);
    }
}
