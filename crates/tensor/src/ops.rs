//! Neural-network primitives used by the transformer simulator.
//!
//! Every kernel here is its own portable loop, which is the spec and the
//! test oracle; the few with a wide path (`dot`'s schedule inside the
//! matrix products and [`dot_tile`], [`axpy_tile`], [`dot_codes_tile`],
//! [`axpy_codes_tile`]) pick it at run time on [`crate::KernelPath`], run
//! it in `simd.rs` and return the same bits. The attention walk over the
//! paged KV cache uses the tile kernels, one call per (page, head) — per
//! (page, head, shared-exponent block) on quantized pages — for every
//! query row of a group: K scores of the query rows against a run of
//! cached rows ([`dot_tile`] over `f32` or bfloat16 rows, [`dot_codes_tile`]
//! over codes on [`dot`]'s `f64` lanes, or exact `f32` lanes when
//! [`ExactInF32`] allows), and the V sum over a run of rows ([`axpy_tile`]
//! straight off an `f32` or bfloat16 page, [`axpy_codes_tile`] from a
//! quantized page dequantized once into an `f32` tile). The weight products of the
//! MX-activation, OWQ-weight schemes run on integer codes instead
//! ([`matmul_codes`], spec [`matmul_codes_portable`]). The MX-OPAL
//! encoders that make those codes run on three more such kernels: a row's
//! bfloat16 image ([`bf16_image`]), each block's outlier and scale picks
//! ([`top_magnitudes`]) and the block shift into codes or values
//! ([`shift_codes`], [`shift_values`]).

use opal_numerics::shift::step_size;
use opal_numerics::{shift_quantize, Bf16, Rounding};

use crate::codes::{CodeActs, CodeRow, CodeWeights};
use crate::{Lane, Matrix};

/// Dot product of two equal-length slices, accumulated in `f64`.
///
/// The spec of every exact-KV attention score and of every matvec and GEMM
/// element in the workspace ([`dot_tile`], [`Matrix::matvec_into`] and
/// [`Matrix::matmul_t_into`] run this schedule in register tiles where the
/// CPU allows, with a fused multiply-add that rounds exactly where this
/// fn's add does, and call this fn per element elsewhere). The lane
/// schedule is the spec: four
/// `f64` accumulators starting at `-0.0`, element `i` into lane `i % 4`
/// over `chunks_exact(4)`, the sub-4 tail into lane 0, result
/// `((a0 + a1) + (a2 + a3)) as f32` (pinned bitwise by
/// `tests/proptests.rs`). Four independent chains let
/// the adds pipeline and vectorise; the seed's sequential `.sum::<f64>()`
/// is latency-bound on one chain and measures about 3x slower.
/// Keep the body this plain: a hand-widened 8-element body with the same
/// schedule defeated the vectoriser and ran at the seed's speed.
///
/// On f32 transformer activations the reassociation is invisible after the
/// final f32 cast: each `f32 × f32` product is *exact* in `f64`, so partial
/// sums differ from the sequential order by at most a few ULPs of `f64` —
/// ~29 bits below f32 precision. The decode golden tests
/// (`crates/model/tests/decode_golden.rs`) pin the output of this kernel to
/// logit bit patterns captured from the seed implementation.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_widened(a, b)
}

/// [`dot`] of `a` and `b` widened to `f32` element by element (exact for
/// bfloat16 `b`): the one body of the schedule, so a bfloat16 weight row or
/// cached row meets the same spec as its `f32` image.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub(crate) fn dot_widened<T: Lane>(a: &[f32], b: &[T]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    // Start at -0.0, matching `Iterator::sum::<f64>()` (which folds from
    // -0.0 so an all-negative-zero sum keeps its sign) — the seed decoder
    // summed with `.sum::<f64>()`, and bit-identity covers signed zeros.
    let mut acc0 = -0.0f64;
    let mut acc1 = -0.0f64;
    let mut acc2 = -0.0f64;
    let mut acc3 = -0.0f64;
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (a4, b4) in ac.by_ref().zip(bc.by_ref()) {
        acc0 += f64::from(a4[0]) * f64::from(b4[0].to_f32());
        acc1 += f64::from(a4[1]) * f64::from(b4[1].to_f32());
        acc2 += f64::from(a4[2]) * f64::from(b4[2].to_f32());
        acc3 += f64::from(a4[3]) * f64::from(b4[3].to_f32());
    }
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        acc0 += f64::from(x) * f64::from(y.to_f32());
    }
    ((acc0 + acc1) + (acc2 + acc3)) as f32
}

/// A tile of [`dot`]: for every query row `(q, out)` of `queries`,
/// `out[t] = dot(q, &rows[t * stride..t * stride + q.len()])` for `t` in
/// `0..out.len()` — the dense-page twin of [`dot_codes_tile`]: the K scores
/// of several query rows against a run of cached `f32` or bfloat16 rows in
/// one call (`stride` is the row pitch, so a head's columns of a page are
/// the slice from the head's first column). A bfloat16 row is read as the
/// `f32` it widens to (exact).
///
/// Every element is bitwise the per-pair [`dot`] of the widened row. The
/// portable loop is that call per pair: the spec, the test oracle and the
/// path on CPUs without the wide one. On x86-64 with AVX and FMA (detected
/// at run time) this is the register tile behind [`Matrix::matmul_t_into`],
/// in the same instantiation for the same row type: up to eight query
/// rows of one shape are widened to `f64` once and share each converted
/// chunk of a cached row, and a lone query row takes eight cached rows per
/// block, as the GEMV does — eight `dot` chains in flight instead of one.
///
/// # Panics
///
/// Panics if a cached row runs past `rows`.
pub fn dot_tile<'a, T: Lane>(
    rows: &[T],
    stride: usize,
    queries: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::KernelPath::detect().wide_dot {
        crate::simd::dot_rows(rows, stride, queries);
        return;
    }
    dot_tile_portable(rows, stride, queries);
}

/// The loop of [`dot_tile`] as portable code.
pub(crate) fn dot_tile_portable<'a, T: Lane>(
    rows: &[T],
    stride: usize,
    queries: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
) {
    for (q, out) in queries {
        for (t, o) in out.iter_mut().enumerate() {
            *o = dot_widened(q, &rows[t * stride..t * stride + q.len()]);
        }
    }
}

/// [`dot`]'s lane schedule over an `f32` query segment and integer
/// quantization codes, unrounded: four `f64` accumulators from `-0.0`,
/// element `i` into lane `i % 4` over `chunks_exact(4)`, the sub-4 tail
/// into lane 0, result `(a0 + a1) + (a2 + a3)` *without* the final cast —
/// the code-domain inner loop of quantized KV attention. The caller
/// multiplies the result by the block's shared power-of-two step and adds
/// the block's outlier terms, so one shared-exponent block costs one scale
/// multiply however long it is.
///
/// A page row whose values are `code · step` is [`dot`]'s row scaled by a
/// power of two, and `f64` rounding commutes with that scaling (a product
/// of an `f32` and an `i8` code is exact and lies far inside `f64`'s
/// exponent range), so `(step · dot_codes(q, codes)) as f32` is bitwise
/// `dot(q, row)` on a row without outliers, whatever the magnitudes. An
/// MX-OPAL row adds its bf16 outliers after the lanes instead of inside
/// them, which is the same number whenever `dot`'s `f64` partial sums are
/// exact: on site-quantized rows every term is a product of two values of
/// at most eight significant bits, and `tests/kv_exactness.rs` finds no
/// difference for outliers up to 2^40 above their block on either side.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot_codes(a: &[f32], codes: &[i8]) -> f64 {
    assert_eq!(a.len(), codes.len(), "dot_codes length mismatch");
    let mut acc = [-0.0f64; 4];
    let (a4, a_tail) = a.as_chunks::<4>();
    let (c4, c_tail) = codes.as_chunks::<4>();
    for (a4, c4) in a4.iter().zip(c4) {
        for k in 0..4 {
            acc[k] += f64::from(a4[k]) * f64::from(c4[k]);
        }
    }
    for (&x, &c) in a_tail.iter().zip(c_tail) {
        acc[0] += f64::from(x) * f64::from(c);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Whether every sum of products of a group of query rows with `i8` codes
/// is exact in `f32`, in any order — checked once per group for the many
/// [`dot_codes_tile`] calls it meets (a walk's query rows against every
/// page), which take exact `f32` lanes when it holds.
///
/// For one row `q`, with `u` the largest power of two dividing every
/// element, each product `q_i · c_i` is an integer multiple of `u`, and so
/// is every partial sum, of magnitude at most `128 · Σ|q_i|`. The check
/// asks `128 · Σ|q_i| ≤ 2^23 · u` (one bit of margin for the `f64` sum of
/// magnitudes), so that every such multiple fits `f32`'s 24-bit
/// significand; a column range of a row that passes passes too. A query
/// the site quantizer made (seven-bit codes at one step, bf16 outliers up
/// to about 2^7 above the block's largest code) passes; a NaN, an infinity
/// or a wider spread fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactInF32(bool);

impl ExactInF32 {
    /// The verdict for `rows` (every row must pass).
    pub fn check<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> Self {
        ExactInF32(rows.into_iter().all(sums_exactly_in_f32))
    }
}

/// [`ExactInF32`] of one row.
pub(crate) fn sums_exactly_in_f32(q: &[f32]) -> bool {
    // Eight magnitude sums, so the adds pipeline instead of forming one
    // chain through the row.
    let (mut magnitude, mut low) = ([0.0f64; 8], i32::MAX);
    for (i, &x) in q.iter().enumerate() {
        let bits = x.to_bits() & 0x7FFF_FFFF;
        let (exponent, mantissa) = ((bits >> 23) as i32, bits & 0x7F_FFFF);
        if exponent == 0xFF {
            return false;
        }
        // The lowest set bit's weight: a subnormal's mantissa counts from
        // 2^-149, a normal one's (with its hidden bit) from 2^(e - 150); a
        // zero has none.
        let hidden = if exponent == 0 { 0 } else { 0x80_0000 };
        let lsb = exponent.max(1) - 150 + (mantissa | hidden).trailing_zeros() as i32;
        low = low.min(if bits == 0 { i32::MAX } else { lsb });
        magnitude[i % 8] += f64::from(f32::from_bits(bits));
    }
    let magnitude: f64 = magnitude.iter().sum();
    low == i32::MAX || magnitude * 128.0 <= (2.0f64).powi(23 + low)
}

/// A tile of [`dot_codes`]: for every query row `(q, out)` of `rows`,
/// `out[t] = dot_codes(q, &codes[t * stride..t * stride + q.len()])` for
/// `t` in `0..out.len()` — the K scores of several query rows against a
/// run of cached code rows in one call (`stride` is the code row pitch, so
/// a head's columns of a page are the slice from the head's first column):
/// the quantized-page twin of [`dot_tile`].
///
/// Every element is bitwise the per-pair [`dot_codes`]. The portable loop
/// is that call per pair: the spec, the test oracle and the path for
/// query rows whose sums may round in `f32`. A group of query rows whose
/// sums are exact in `f32` (`exact`, checked by [`ExactInF32::check`] on
/// these rows or on rows they are column ranges of: a site-quantized
/// query) runs, on x86-64 with AVX2 and FMA (detected at run time), on
/// eight `f32` lanes per (query row, code row) with fused multiply-adds,
/// up to eight query rows of one shape at a time in register tiles (one
/// against eight code rows, five against two, ...), each code chunk
/// converted once for all of them: every partial sum is then exact, so it
/// reaches the same exact sum as the `f64` lanes. The portable loop runs at
/// about a quarter of [`dot_tile`]'s rate on the same rows as `f32`
/// (`bench_decode` prints the ratio).
///
/// # Panics
///
/// Panics if a code row runs past `codes`.
pub fn dot_codes_tile<'a>(
    codes: &[i8],
    stride: usize,
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f64])>,
    exact: ExactInF32,
) {
    #[cfg(target_arch = "x86_64")]
    if exact.0 && crate::KernelPath::detect().wide_dot && crate::KernelPath::detect().wide_codes {
        crate::simd::dot_codes_tile(codes, stride, rows);
        return;
    }
    let _ = exact;
    dot_codes_tile_portable(codes, stride, rows);
}

/// The loop of [`dot_codes_tile`] as portable code.
pub(crate) fn dot_codes_tile_portable<'a>(
    codes: &[i8],
    stride: usize,
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f64])>,
) {
    for (q, out) in rows {
        for (t, o) in out.iter_mut().enumerate() {
            *o = dot_codes(q, &codes[t * stride..t * stride + q.len()]);
        }
    }
}

/// A tile of the quantized V sum: dequantizes the `n = steps.len()` code
/// rows `codes[t * stride..][..width]` into `tile` (`n × width`, so
/// `width = tile.len() / n`) as `f32::from(code) * steps[t]`, hands the
/// tile to `patch` (which *writes* the exact values of the page's outlier
/// lanes over them), then accumulates every query row `(weights, ctx)` of
/// `rows` (`weights` `n` long, `ctx` `width` long) over the tile exactly as
/// [`axpy_tile`] does.
///
/// Per (query row, code row) this is `ctx[j] += w · (code · step)`, the
/// scalar V sum's arithmetic, with the exact bf16 outlier terms of an
/// MX-OPAL page folded in bitwise: an outlier lane's code is `0`, and a
/// context lane that starts at `+0.0` can never become `-0.0` under
/// round-to-nearest (a sum is `-0.0` only when both addends are), so the
/// scalar sum's `(c + w · (0 · step)) + w · value` is exactly
/// `c + w · value`, and every other lane sees the same addends in the same
/// order. A page's rows are
/// dequantized once for all query rows. `patch` is a closure rather than a
/// list of `(lane, value)` pairs so that the caller's slot walk compiles to
/// plain loops: a flattened iterator over a page's rows and slots cost more
/// than the dequantization.
///
/// # Panics
///
/// Panics if `tile.len()` is not a multiple of `steps.len()`, a code row
/// runs past `codes`, or a query row's `weights` is not `n` long or its
/// `ctx` not `width` long.
pub fn axpy_codes_tile<'a>(
    codes: &[i8],
    stride: usize,
    steps: &[f32],
    patch: impl FnOnce(&mut [f32]),
    tile: &mut [f32],
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
    fresh: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::KernelPath::detect().wide_codes {
        crate::simd::axpy_codes_tile(codes, stride, steps, patch, tile, rows, fresh);
        return;
    }
    axpy_codes_tile_portable(codes, stride, steps, patch, tile, rows, fresh);
}

/// The loop of [`axpy_codes_tile`] as portable code.
pub(crate) fn axpy_codes_tile_portable<'a>(
    codes: &[i8],
    stride: usize,
    steps: &[f32],
    patch: impl FnOnce(&mut [f32]),
    tile: &mut [f32],
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
    fresh: bool,
) {
    let n = steps.len();
    let width = tile_width(n, tile.len());
    if width > 0 {
        for (t, (x, &step)) in tile.chunks_exact_mut(width).zip(steps).enumerate() {
            for (x, &code) in x.iter_mut().zip(&codes[t * stride..t * stride + width]) {
                *x = f32::from(code) * step;
            }
        }
    }
    patch(tile);
    let rows = rows.into_iter().inspect(|(weights, ctx)| check_tile_row(n, width, weights, ctx));
    axpy_tile_portable(tile, width, rows, fresh);
}

/// The attention-weighted sum of a run of `f32` or bfloat16 rows: for
/// every query row `(weights, ctx)` of `rows`,
/// `ctx[j] += weights[t] * tile[t * stride + j]` for `j` in
/// `0..ctx.len()`, `t` ascending over `weights`, a weight that is exactly
/// zero skipped, a bfloat16 element read as the `f32` it widens to
/// (exact). With `fresh` the context starts from `+0.0` instead of from
/// what `ctx` holds: the first page of a walk writes, the others
/// accumulate. `stride` is the row pitch, so a head's columns of a dense V
/// page are the slice from the head's first column.
///
/// Each element sees an unfused multiply then add per row, in row order, on
/// every path: the portable loop is the spec, the test oracle and the path
/// on CPUs without AVX2; on x86-64 with AVX2 (detected at run time) each
/// context stays in registers across the run, 64 lanes at a time, instead
/// of a load and a store per row, and bfloat16 rows are widened in those
/// registers as they are loaded. This is the accumulate half of
/// [`axpy_codes_tile`], and on a dense page (`f32` or bfloat16) the whole
/// V sum.
///
/// # Panics
///
/// Panics if a row a nonzero weight selects runs past `tile`.
pub fn axpy_tile<'a, T: Lane>(
    tile: &[T],
    stride: usize,
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
    fresh: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::KernelPath::detect().wide_codes {
        crate::simd::axpy_tile(tile, stride, rows, fresh);
        return;
    }
    axpy_tile_portable(tile, stride, rows, fresh);
}

/// The loop of [`axpy_tile`] as portable code.
pub(crate) fn axpy_tile_portable<'a, T: Lane>(
    tile: &[T],
    stride: usize,
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
    fresh: bool,
) {
    for (weights, ctx) in rows {
        if fresh {
            ctx.fill(0.0);
        }
        if ctx.is_empty() {
            continue;
        }
        let width = ctx.len();
        for (t, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            for (c, &x) in ctx.iter_mut().zip(&tile[t * stride..t * stride + width]) {
                *c += w * x.to_f32();
            }
        }
    }
}

/// The row width of an `n`-row tile of `len` elements (`0` when `n` is).
pub(crate) fn tile_width(n: usize, len: usize) -> usize {
    if n == 0 {
        return 0;
    }
    assert!(len.is_multiple_of(n), "tile of {len} is not {n} rows");
    len / n
}

/// Asserts a query row's shape against an `n × width` tile (any context
/// width goes with an empty tile, whose width is unknown).
pub(crate) fn check_tile_row(n: usize, width: usize, weights: &[f32], ctx: &[f32]) {
    assert!(weights.len() == n && (n == 0 || ctx.len() == width), "tile row shape mismatch");
}

/// The W×A integer product: `out[r * d_out + c]` is activation row `r` of
/// `x` times output channel `c` of `w`, for a stack of microscaled
/// activation codes (MX-OPAL, MXINT) and OWQ weight codes, without forming
/// an `f32` operand (`out` is `x.rows() × w.d_out()`, row-major):
///
/// `y = f32(s_c·(Σ_b step_b·S_bc + Σ_j o_j·q_jc) + lo_c·X + Σ_{i∈O} x̂_i·w_ic)`
///
/// - `S_bc = Σ_{i∈b} m_i·q_ic` is block `b`'s exact `i32` sum of activation
///   codes times weight codes; activation-outlier positions and the weight's
///   bfloat16 rows `O` hold code `0`, so neither is counted there;
/// - `o_j` are the row's outliers, in ascending index order;
/// - `X = Σ_{i∉O} x̂_i` is the row's sum off the bfloat16 rows, computed the
///   same way (exact block sums of codes times steps, then the outliers);
/// - `x̂_i` is element `i`'s value and `w_ic` the bfloat16 weight.
///
/// Outside the integer sums everything is `f64` in that order: the block
/// terms from `+0.0` in block order, the outlier terms, then `s_c·acc`,
/// `+ lo_c·X` (two products, one add), then the bfloat16 rows in order.
/// Every product but `s_c·acc` and `lo_c·X` is exact (a power of two or a
/// bfloat16 value times an integer or a bfloat16 value), so a fused
/// multiply-add rounds exactly where the spec's add does.
///
/// [`matmul_codes_portable`] is the spec, the path on CPUs without AVX2
/// and FMA, and what `opal_model::reference` multiplies with. On x86-64
/// with both (detected at run time) up to four rows share each 32-byte load
/// of two input channels × sixteen output channels: one `vpmaddubsw` per
/// row, `i16` sums for as many pairs as `2·q_max·|m|_max` leaves room for,
/// then `i32` until the block's step. Integer sums are exact under any
/// grouping, so the result is bitwise the spec's; an odd block, or a
/// `2·q_max·|m|_max` past `i16`, takes the portable loop.
///
/// # Panics
///
/// Panics if `x.width() != w.d_in()` or `out.len() != x.rows() * w.d_out()`.
pub fn matmul_codes(x: &CodeActs, w: &CodeWeights, out: &mut [f32]) {
    check_codes_shape(x, w, out);
    #[cfg(target_arch = "x86_64")]
    if crate::simd::matmul_codes(x, w, out) {
        return;
    }
    matmul_codes_portable(x, w, out);
}

/// The loop of [`matmul_codes`] as portable code: the spec, one output
/// element at a time.
///
/// # Panics
///
/// As [`matmul_codes`].
pub fn matmul_codes_portable(x: &CodeActs, w: &CodeWeights, out: &mut [f32]) {
    check_codes_shape(x, w, out);
    let (block, d_out) = (x.block(), w.d_out());
    for (r, out) in out.chunks_exact_mut(d_out.max(1)).enumerate().take(x.rows()) {
        let row = x.row(r);
        let sum = code_row_sum(row, block, x.width(), w.outlier_rows());
        for (c, y) in out.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for (b, &step) in row.steps.iter().enumerate() {
                let span = b * block..((b + 1) * block).min(x.width());
                let s: i32 = span.map(|i| i32::from(row.codes[i]) * i32::from(w.code(i, c))).sum();
                acc += step * f64::from(s);
            }
            for (&j, &o) in row.out_idx.iter().zip(row.out_val) {
                acc += o * f64::from(w.code(j as usize, c));
            }
            let (scale, lo) = w.grid(c);
            let mut v = scale * acc;
            v += lo * sum;
            for (k, &i) in w.outlier_rows().iter().enumerate() {
                v += row.value(i, block) * f64::from(w.outlier_weight(k, c).to_f32());
            }
            *y = v as f32;
        }
    }
}

/// `X` of [`matmul_codes`]: the row's value summed off the weight's
/// bfloat16 rows `skip` (ascending) — per block the exact `i32` sum of its
/// codes times its step, from `+0.0` in block order, then the outliers not
/// on a skipped row, in order. Both paths of the product call this.
pub(crate) fn code_row_sum(row: CodeRow<'_>, block: usize, width: usize, skip: &[usize]) -> f64 {
    let mut sum = 0.0f64;
    let mut skip_rows = skip.iter().peekable();
    for (b, &step) in row.steps.iter().enumerate() {
        let end = ((b + 1) * block).min(width);
        let mut m: i32 = row.codes[b * block..end].iter().map(|&c| i32::from(c)).sum();
        while let Some(&i) = skip_rows.next_if(|&&i| i < end) {
            m -= i32::from(row.codes[i]);
        }
        sum += step * f64::from(m);
    }
    for (&j, &o) in row.out_idx.iter().zip(row.out_val) {
        if skip.binary_search(&(j as usize)).is_err() {
            sum += o;
        }
    }
    sum
}

fn check_codes_shape(x: &CodeActs, w: &CodeWeights, out: &[f32]) {
    assert_eq!(x.width(), w.d_in(), "activation width {} vs weight rows {}", x.width(), w.d_in());
    assert_eq!(out.len(), x.rows() * w.d_out(), "output size mismatch");
}

/// The bfloat16 image of a row: `out[i] = Bf16::from_f32(x[i])` (round to
/// nearest even, a NaN quieted with its sign kept) — the first step of the
/// MX-OPAL encoders. On x86-64 with AVX2 (detected at run time) sixteen
/// elements at a time, the same integer operations per lane.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn bf16_image(x: &[f32], out: &mut [Bf16]) {
    assert_eq!(x.len(), out.len(), "bf16_image length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::KernelPath::detect().wide_codes {
        crate::simd::bf16_image(x, out);
        return;
    }
    bf16_image_portable(x, out);
}

/// The loop of [`bf16_image`] as portable code.
pub(crate) fn bf16_image_portable(x: &[f32], out: &mut [Bf16]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = Bf16::from_f32(v);
    }
}

/// Longest block [`top_magnitudes`] ranks: an element's index takes the
/// low 15 bits of its key.
pub const TOP_BLOCK_MAX: usize = 1 << 15;

/// Leaves in `top` the indices of the `top.len()` largest magnitudes of
/// `block`, largest first, equal magnitudes by ascending index — the order
/// a stable descending sort by [`Bf16::abs_cmp`] gives (NaNs equal to each
/// other and above everything): MX-OPAL's outliers and the element that
/// sets its block's scale. `keys` is scratch, as long as `block`.
///
/// Element `j` gets the key `(mag << 15) | (0x7FFF - j)`, `mag` being its
/// low 15 bits with every NaN mapped to `0x8000`. Keys are distinct, and
/// descending key order is descending magnitude with ties to the earlier
/// index, so each pick is the largest key below the previous pick, and the
/// index reads back out of its low bits. The keys are built in one
/// branch-free pass and each pick is a plain `max` reduction; on x86-64
/// with AVX2 (detected at run time) both go eight keys at a time. The
/// picks are the same whatever the reduction order, since keys are
/// distinct.
///
/// # Panics
///
/// Panics if `block` is longer than [`TOP_BLOCK_MAX`], `keys` is not as long
/// as `block`, or `top` is longer than `block`.
pub fn top_magnitudes(block: &[Bf16], keys: &mut [u32], top: &mut [usize]) {
    assert!(block.len() <= TOP_BLOCK_MAX, "a block of {} is too long to key", block.len());
    assert_eq!(keys.len(), block.len(), "key scratch length mismatch");
    assert!(top.len() <= block.len(), "cannot pick {} of {}", top.len(), block.len());
    #[cfg(target_arch = "x86_64")]
    if crate::KernelPath::detect().wide_codes {
        crate::simd::top_magnitudes(block, keys, top);
        return;
    }
    top_magnitudes_portable(block, keys, top);
}

/// The loops of [`top_magnitudes`] as portable code.
pub(crate) fn top_magnitudes_portable(block: &[Bf16], keys: &mut [u32], top: &mut [usize]) {
    for (j, (k, &v)) in keys.iter_mut().zip(block).enumerate() {
        *k = magnitude_key(v, j);
    }
    let mut prev = u32::MAX;
    for slot in top {
        // The largest key below `prev`; there always is one, since `top`
        // is no longer than `block` (the key 0 is element 0x7FFF's).
        prev = keys.iter().fold(0, |m, &k| if k < prev { m.max(k) } else { m });
        *slot = key_index(prev);
    }
}

/// [`top_magnitudes`]'s key of element `j` of value `v`.
#[inline]
pub(crate) fn magnitude_key(v: Bf16, j: usize) -> u32 {
    let mag = u32::from(v.to_bits() & 0x7FFF);
    let mag = if mag > 0x7F80 { 0x8000 } else { mag };
    (mag << 15) | (0x7FFF - j as u32)
}

/// The element index a [`magnitude_key`] carries.
#[inline]
pub(crate) fn key_index(key: u32) -> usize {
    0x7FFF - (key & 0x7FFF) as usize
}

/// `codes[i] = shift_quantize(bf[i], scale, bits, rounding)`: a block of
/// MX-OPAL codes under one shared scale (`|q| <= 127`, exact in `i8`). The
/// portable loop is [`shift_quantize`] per element, whose body is written
/// lane by lane; on x86-64 with AVX2 (detected at run time) that body runs
/// on eight lanes at a time, sixteen codes a store, bitwise the same.
///
/// # Panics
///
/// Panics if the slices differ in length or `bits` is not in `2..=8`.
pub fn shift_codes(bf: &[Bf16], scale: i32, bits: u32, rounding: Rounding, codes: &mut [i8]) {
    check_shift(bf.len(), codes.len(), bits);
    #[cfg(target_arch = "x86_64")]
    if crate::KernelPath::detect().wide_codes {
        crate::simd::shift_codes(bf, scale, bits, rounding, codes);
        return;
    }
    shift_codes_portable(bf, scale, bits, rounding, codes);
}

/// The loop of [`shift_codes`] as portable code.
pub(crate) fn shift_codes_portable(
    bf: &[Bf16],
    scale: i32,
    bits: u32,
    rounding: Rounding,
    codes: &mut [i8],
) {
    for (c, &v) in codes.iter_mut().zip(bf) {
        *c = shift_quantize(v, scale, bits, rounding) as i8;
    }
}

/// `out[i] = shift_quantize(bf[i], scale, bits, rounding) as f32 *
/// step_size(scale, bits)`: a block of [`shift_codes`]'s codes back on
/// their grid, the MX-OPAL round trip of one shared scale. Same paths as
/// [`shift_codes`], the code converted and scaled by one multiply per lane.
///
/// # Panics
///
/// Panics if the slices differ in length or `bits` is not in `2..=8`.
pub fn shift_values(bf: &[Bf16], scale: i32, bits: u32, rounding: Rounding, out: &mut [f32]) {
    check_shift(bf.len(), out.len(), bits);
    #[cfg(target_arch = "x86_64")]
    if crate::KernelPath::detect().wide_codes {
        crate::simd::shift_values(bf, scale, bits, rounding, out);
        return;
    }
    shift_values_portable(bf, scale, bits, rounding, out);
}

/// The loop of [`shift_values`] as portable code.
pub(crate) fn shift_values_portable(
    bf: &[Bf16],
    scale: i32,
    bits: u32,
    rounding: Rounding,
    out: &mut [f32],
) {
    let step = step_size(scale, bits);
    for (o, &v) in out.iter_mut().zip(bf) {
        *o = shift_quantize(v, scale, bits, rounding) as f32 * step;
    }
}

fn check_shift(len: usize, out_len: usize, bits: u32) {
    assert_eq!(len, out_len, "shift length mismatch");
    assert!((2..=8).contains(&bits), "element bit-width must be 2..=8");
}

/// LayerNorm over the last dimension of each row, with learnable gain and
/// bias (the OPT family uses LayerNorm).
///
/// # Panics
///
/// Panics if `gain` / `bias` lengths differ from the row width.
pub fn layer_norm(x: &Matrix, gain: &[f32], bias: &[f32], eps: f32) -> Matrix {
    assert_eq!(gain.len(), x.cols(), "gain length mismatch");
    assert_eq!(bias.len(), x.cols(), "bias length mismatch");
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        layer_norm_into(x.row(r), gain, bias, eps, out.row_mut(r));
    }
    out
}

/// LayerNorm of a single row written into a caller-provided slice — the
/// allocation-free kernel behind [`layer_norm`].
///
/// # Panics
///
/// Panics if `gain`, `bias` or `out` lengths differ from `x`.
pub fn layer_norm_into(x: &[f32], gain: &[f32], bias: &[f32], eps: f32, out: &mut [f32]) {
    assert_eq!(gain.len(), x.len(), "gain length mismatch");
    assert_eq!(bias.len(), x.len(), "bias length mismatch");
    assert_eq!(out.len(), x.len(), "output length mismatch");
    let mean = x.iter().map(|&v| f64::from(v)).sum::<f64>() / x.len() as f64;
    let var = x.iter().map(|&v| (f64::from(v) - mean).powi(2)).sum::<f64>() / x.len() as f64;
    let inv = 1.0 / (var + f64::from(eps)).sqrt();
    for (i, &v) in x.iter().enumerate() {
        out[i] = (((f64::from(v) - mean) * inv) as f32) * gain[i] + bias[i];
    }
}

/// RMSNorm over the last dimension of each row (the Llama family uses
/// RMSNorm: no mean subtraction, no bias).
///
/// # Panics
///
/// Panics if `gain.len() != x.cols()`.
pub fn rms_norm(x: &Matrix, gain: &[f32], eps: f32) -> Matrix {
    assert_eq!(gain.len(), x.cols(), "gain length mismatch");
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        rms_norm_into(x.row(r), gain, eps, out.row_mut(r));
    }
    out
}

/// RMSNorm of a single row written into a caller-provided slice — the
/// allocation-free kernel behind [`rms_norm`].
///
/// # Panics
///
/// Panics if `gain` or `out` lengths differ from `x`.
pub fn rms_norm_into(x: &[f32], gain: &[f32], eps: f32, out: &mut [f32]) {
    assert_eq!(gain.len(), x.len(), "gain length mismatch");
    assert_eq!(out.len(), x.len(), "output length mismatch");
    let ms = x.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>() / x.len() as f64;
    let inv = 1.0 / (ms + f64::from(eps)).sqrt();
    for (i, &v) in x.iter().enumerate() {
        out[i] = ((f64::from(v) * inv) as f32) * gain[i];
    }
}

/// Numerically stable softmax applied independently to each row.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let row = x.row(r);
        softmax_into(row, out.row_mut(r));
    }
    out
}

/// Numerically stable softmax of a single slice into `out`.
///
/// # Panics
///
/// Panics if `out.len() != x.len()`.
pub fn softmax_into(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "output length mismatch");
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f64;
    for (o, &v) in out.iter_mut().zip(x) {
        let e = f64::from(v - max).exp();
        *o = e as f32;
        sum += e;
    }
    let inv = (1.0 / sum) as f32;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// SiLU (swish) activation: `x * sigmoid(x)` (Llama FFN).
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// GELU activation, tanh approximation (OPT FFN uses ReLU historically, GPT
/// uses GELU; we expose both and let the model config choose).
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + ((0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh()))
}

/// ReLU activation.
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Applies rotary position embedding in-place to a `seq_len × head_dim` block
/// of query or key vectors, starting at absolute position `pos0`.
///
/// Pairs dimension `2i`/`2i+1` are rotated by angle `pos / theta^(2i/d)`.
///
/// # Panics
///
/// Panics if the head dimension is odd.
pub fn rope_in_place(x: &mut Matrix, pos0: usize, theta: f32) {
    for r in 0..x.rows() {
        let pos = pos0 + r;
        rope_row(x.row_mut(r), pos, theta);
    }
}

/// Applies rotary position embedding to a single head-vector at absolute
/// position `pos`: [`rope_angles_into`] and [`rope_apply`] composed pair by
/// pair, so it needs no angle buffer.
///
/// # Panics
///
/// Panics if the vector length is odd.
pub fn rope_row(row: &mut [f32], pos: usize, theta: f32) {
    let d = row.len();
    assert!(d.is_multiple_of(2), "RoPE requires an even head dimension");
    for (i, pair) in row.chunks_exact_mut(2).enumerate() {
        let (sin, cos) = rope_angle(pos, i, d, theta);
        rope_rotate(pair, sin, cos);
    }
}

/// Writes the rotary angles of absolute position `pos` for a head of
/// dimension `angles.len()`: `angles[2i]` and `angles[2i + 1]` are the sine
/// and cosine of `pos / theta^(2i/d)`, the rotation [`rope_apply`] gives
/// pair `2i`/`2i + 1`.
///
/// The angles depend on the position and the head dimension only, so a
/// forward pass computes them once per position and applies them to every
/// layer's and head's query and key, instead of one `powf` and one
/// `sin_cos` per pair per call of [`rope_row`] — with the same `f32`
/// expressions, so the rotated vectors are bit-identical.
///
/// # Panics
///
/// Panics if `angles.len()` is odd.
pub fn rope_angles_into(pos: usize, theta: f32, angles: &mut [f32]) {
    let d = angles.len();
    assert!(d.is_multiple_of(2), "RoPE requires an even head dimension");
    for (i, pair) in angles.chunks_exact_mut(2).enumerate() {
        (pair[0], pair[1]) = rope_angle(pos, i, d, theta);
    }
}

/// Rotates a single head-vector by the angles [`rope_angles_into`] wrote.
///
/// # Panics
///
/// Panics if `row` and `angles` differ in length.
pub fn rope_apply(row: &mut [f32], angles: &[f32]) {
    assert_eq!(row.len(), angles.len(), "RoPE angle length mismatch");
    for (pair, sc) in row.chunks_exact_mut(2).zip(angles.chunks_exact(2)) {
        rope_rotate(pair, sc[0], sc[1]);
    }
}

/// `(sin, cos)` of the rotation of pair `i` of a `d`-wide head at `pos`.
#[inline]
fn rope_angle(pos: usize, i: usize, d: usize, theta: f32) -> (f32, f32) {
    let freq = theta.powf(-2.0 * i as f32 / d as f32);
    (pos as f32 * freq).sin_cos()
}

#[inline]
fn rope_rotate(pair: &mut [f32], sin: f32, cos: f32) {
    let (a, b) = (pair[0], pair[1]);
    pair[0] = a * cos - b * sin;
    pair[1] = a * sin + b * cos;
}

/// Index of the maximum element (first occurrence).
///
/// Returns `None` for an empty slice.
pub fn argmax(x: &[f32]) -> Option<usize> {
    x.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
}

/// `log(sum(exp(x)))` computed stably.
pub fn log_sum_exp(x: &[f32]) -> f32 {
    if x.is_empty() {
        return f32::NEG_INFINITY;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max.is_infinite() {
        return max;
    }
    let sum: f64 = x.iter().map(|&v| f64::from(v - max).exp()).sum();
    max + sum.ln() as f32
}

/// Cross-entropy of a logits row against a target index, in nats.
///
/// # Panics
///
/// Panics if `target` is out of range.
pub fn cross_entropy(logits: &[f32], target: usize) -> f32 {
    assert!(target < logits.len(), "target {target} out of range");
    log_sum_exp(logits) - logits[target]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn dot_matches_sequential_sum() {
        // Lengths around the 4-wide unroll boundary. The 4-accumulator
        // reduction may differ from the sequential f64 sum by ULPs of f64 —
        // far below f32 resolution — so the f32 results must agree to at
        // most one ULP (and exactly, for every case tried here).
        for len in [0usize, 1, 3, 4, 5, 7, 8, 15, 33, 128] {
            let a: Vec<f32> = (0..len).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.37).collect();
            let b: Vec<f32> = (0..len).map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.19).collect();
            let reference =
                a.iter().zip(&b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum::<f64>() as f32;
            let got = dot(&a, &b);
            assert!(
                got.to_bits().abs_diff(reference.to_bits()) <= 1,
                "len {len}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn dot_is_exact_on_integer_values() {
        // Integer-valued products sum exactly in f64 under any association.
        let a: Vec<f32> = (0..37).map(|i| (i % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..37).map(|i| (i % 7) as f32 - 3.0).collect();
        let exact: f64 = a.iter().zip(&b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum();
        assert_eq!(dot(&a, &b), exact as f32);
        assert_eq!(dot(&[], &[]).to_bits(), (-0.0f32).to_bits());
    }

    /// Query rows, code rows and row widths the tile tests sweep: every
    /// tail around the 8- and 16-lane chunks, the model's 128-wide head, and
    /// 130 (a sub-16 tail behind eight full chunks).
    const TILE_QUERY_ROWS: usize = 9;
    const TILE_CODE_ROWS: usize = 20;
    fn tile_widths() -> impl Iterator<Item = usize> {
        (0..=40).chain([128, 130])
    }
    /// Code and query row pitch for `width`: wider than the row, as a
    /// head's columns of a page are.
    fn tile_stride(width: usize) -> usize {
        width + 3
    }
    const TILE_POOL: usize = (TILE_QUERY_ROWS + TILE_CODE_ROWS) * 133;

    /// Lanes that sit on an 8- or 16-lane chunk edge of a `width`-wide row.
    fn edge_lanes(width: usize) -> impl Iterator<Item = usize> {
        [0usize, 7, 8, 15, 16, 31, 63, 64, 127]
            .into_iter()
            .chain(width.checked_sub(1))
            .filter(move |&j| j < width)
    }

    /// The first element whose bits differ (any NaN counting as every NaN,
    /// see `same_bits_or_nans`), as a failure message.
    fn first_difference(what: &str, got: &[f32], want: &[f32]) -> Result<(), String> {
        let same = crate::matrix::tests::same_bits_or_nans;
        match got.iter().zip(want).position(|(&g, &w)| !same(g, w)) {
            None => Ok(()),
            Some(i) => Err(format!("{what}: element {i} is {:e}, portable {:e}", got[i], want[i])),
        }
    }

    /// The dispatching tile kernels against their portable loops over every
    /// shape, from `f32` values, codes and weights drawn from the pools.
    /// Outputs start from a sentinel, so an element one side skips shows.
    fn tiles_against_portable(values: &[f32], codes: &[i8]) -> Result<(), String> {
        const SENTINEL: f32 = 7.0;
        for width in tile_widths() {
            let stride = tile_stride(width);
            let codes = &codes[..TILE_CODE_ROWS * stride];
            for m in 1..=TILE_QUERY_ROWS {
                let qs = &values[..m * stride];
                for n in 0..=TILE_CODE_ROWS {
                    let what = format!("{m} x {n} x {width}");
                    let q_rows = || qs.chunks(stride).map(|q| &q[..width]);
                    let (mut got, mut want) = (vec![7.0f64; m * n], vec![7.0f64; m * n]);
                    let exact = ExactInF32::check(q_rows());
                    dot_codes_tile(codes, stride, q_rows().zip(got.chunks_mut(n.max(1))), exact);
                    dot_codes_tile_portable(codes, stride, q_rows().zip(want.chunks_mut(n.max(1))));
                    if let Some(i) =
                        got.iter().zip(&want).position(|(g, w)| g.to_bits() != w.to_bits())
                    {
                        return Err(format!(
                            "dot_codes_tile {what}: element {i} is {:e}, portable {:e}",
                            got[i], want[i]
                        ));
                    }

                    let steps: Vec<f32> = (0..n)
                        .map(|t| [0.0078125, 2.0f32.powi(-149), 0.3, 2.0f32.powi(100)][t % 4])
                        .collect();
                    // Outlier values from the far end of the pool, written
                    // over lanes whose codes are not zero.
                    let outliers: Vec<(usize, f32)> = (0..n)
                        .flat_map(|t| edge_lanes(width).map(move |j| t * width + j))
                        .map(|at| (at, values[values.len() - 1 - at % 97]))
                        .collect();
                    let patch = |tile: &mut [f32]| {
                        for &(at, value) in &outliers {
                            tile[at] = value;
                        }
                    };
                    let weights = &values[TILE_POOL - m * n.max(1)..];
                    for fresh in [true, false] {
                        let ctx: Vec<f32> = (0..m * width)
                            .map(|i| if fresh { SENTINEL } else { values[i * 5 % TILE_POOL] })
                            .collect();
                        let (mut got, mut want) = (ctx.clone(), ctx);
                        let mut tiles = [vec![SENTINEL; n * width], vec![SENTINEL; n * width]];
                        let w_rows = || weights.chunks(n.max(1)).map(|w| &w[..n]);
                        let [tile_got, tile_want] = &mut tiles;
                        axpy_codes_tile(
                            codes,
                            stride,
                            &steps,
                            patch,
                            tile_got,
                            w_rows().zip(got.chunks_mut(width.max(1))),
                            fresh,
                        );
                        axpy_codes_tile_portable(
                            codes,
                            stride,
                            &steps,
                            patch,
                            tile_want,
                            w_rows().zip(want.chunks_mut(width.max(1))),
                            fresh,
                        );
                        first_difference(&format!("axpy_codes_tile {what}"), tile_got, tile_want)?;
                        let what = format!("axpy_codes_tile {what} fresh {fresh}");
                        first_difference(&what, &got, &want)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// [`dot_tile`] and [`axpy_tile`] against their portable loops over
    /// every shape: query rows and weights from `values`, the cached rows
    /// (`f32` or bfloat16) from `cached` at a pitch wider than the row, as a
    /// head's columns of a dense page are. Widths up to 40 leave every tail
    /// of the 4-lane `dot` chunks and the 8-lane V chunks. Outputs start
    /// from a sentinel, so an element one side skips shows.
    fn exact_tiles_against_portable<T: Lane>(values: &[f32], cached: &[T]) -> Result<(), String> {
        const SENTINEL: f32 = 7.0;
        for width in (0..=40).chain([128]) {
            let stride = tile_stride(width);
            for m in 1..=TILE_QUERY_ROWS {
                for n in 0..=TILE_CODE_ROWS {
                    let what = format!("{m} x {n} x {width}");
                    let q_rows = || values[..m * stride].chunks(stride).map(|q| &q[..width]);
                    let (mut got, mut want) = (vec![SENTINEL; m * n], vec![SENTINEL; m * n]);
                    dot_tile(cached, stride, q_rows().zip(got.chunks_mut(n.max(1))));
                    dot_tile_portable(cached, stride, q_rows().zip(want.chunks_mut(n.max(1))));
                    first_difference(&format!("dot_tile {what}"), &got, &want)?;

                    let weights = &values[TILE_POOL - m * n.max(1)..];
                    for fresh in [true, false] {
                        let ctx: Vec<f32> = (0..m * width)
                            .map(|i| if fresh { SENTINEL } else { values[i * 5 % TILE_POOL] })
                            .collect();
                        let (mut got, mut want) = (ctx.clone(), ctx);
                        let w_rows = || weights.chunks(n.max(1)).map(|w| &w[..n]);
                        axpy_tile(
                            cached,
                            stride,
                            w_rows().zip(got.chunks_mut(width.max(1))),
                            fresh,
                        );
                        let want_rows = w_rows().zip(want.chunks_mut(width.max(1)));
                        axpy_tile_portable(cached, stride, want_rows, fresh);
                        first_difference(&format!("axpy_tile {what} fresh {fresh}"), &got, &want)?;
                    }
                }
            }
        }
        Ok(())
    }

    proptest::proptest! {
        // Each case walks all 8127 shapes of both kernels.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]
        #[test]
        fn tile_dispatch_is_bitwise_the_portable_loops(
            values in crate::matrix::tests::value_pool(TILE_POOL),
            codes in proptest::collection::vec(-128i8..=127, TILE_CODE_ROWS * 133),
        ) {
            let outcome = tiles_against_portable(&values, &codes);
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            // Site-like queries (seven-bit codes at one step), whose sums
            // the wide code tile takes on its exact `f32` lanes.
            let site: Vec<f32> =
                values.iter().map(|v| ((v.to_bits() % 127) as i32 - 63) as f32 * 0.03125).collect();
            proptest::prop_assert!(ExactInF32::check([&site[..130]]) == ExactInF32(true));
            let outcome = tiles_against_portable(&site, &codes);
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }

        // Each case walks all 7938 shapes of both kernels.
        #[test]
        fn exact_tile_dispatch_is_bitwise_the_portable_loops(
            values in crate::matrix::tests::value_pool(TILE_POOL),
            cached in crate::matrix::tests::value_pool(TILE_CODE_ROWS * 133),
        ) {
            let outcome = exact_tiles_against_portable(&values, &cached);
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }

        // The same shapes over bfloat16 rows: `dot_tile` on the
        // bfloat16-rhs register tile and `axpy_tile` widening in registers.
        #[test]
        fn bf16_tile_dispatch_is_bitwise_the_portable_loops(
            values in crate::matrix::tests::value_pool(TILE_POOL),
            cached in crate::matrix::tests::bf16_pool(TILE_CODE_ROWS * 133),
        ) {
            let outcome = exact_tiles_against_portable(&values, &cached);
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    /// Row lengths the encoder kernels are checked at: every tail around
    /// the 8- and 16-lane steps, a 128-wide block and 88, the last block
    /// of a 344-wide row.
    const ENCODE_LENS: [usize; 13] = [0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 88, 128, 130];

    /// Rows for the encoder kernels: all signed zeros, all subnormal (in
    /// `f32`, so some round to bfloat16 subnormals and some to zero), or
    /// tie-heavy — repeated magnitudes under both signs, zeros, subnormals,
    /// `f32` values halfway between two bfloat16 values — with NaNs and
    /// values that round to infinity in the last flavour.
    fn encoder_row(len: usize) -> impl proptest::strategy::Strategy<Value = Vec<f32>> {
        use proptest::strategy::Strategy;
        let raw = proptest::collection::vec((0u32..10, -1.0f32..1.0), len);
        (0u32..4, raw).prop_map(|(flavour, raw)| {
            let value = |class, x: f32| match (flavour, class) {
                (0, _) => 0.0f32.copysign(x),
                (1, _) => x * 1.0e-38,
                (_, 0 | 1) => 2.0f32.copysign(x),
                (_, 2) => 0.5f32.copysign(x),
                (_, 3) => 0.0f32.copysign(x),
                (_, 4) => x * 1.0e-40,
                (_, 5) => f32::from_bits((x * 64.0).to_bits() & 0xFFFF_0000 | 0x8000),
                (3, 6) => f32::NAN.copysign(x),
                (3, 7) => f32::MAX.copysign(x),
                _ => x * 64.0,
            };
            raw.into_iter().map(|(class, x)| value(class, x)).collect()
        })
    }

    /// [`bf16_image`], [`top_magnitudes`], [`shift_codes`] and
    /// [`shift_values`] against their portable loops on every prefix of
    /// `row` in [`ENCODE_LENS`]: one pick (`n = 0`), two, five (the
    /// paper's `n = 4`) and all of them (`n = len - 1`); every bit-width and
    /// rounding at scales from past the exponent clamps to the row's own.
    /// Outputs start from a sentinel, so an element one side skips shows.
    fn encoder_against_portable(row: &[f32]) -> Result<(), String> {
        const SENTINEL: Bf16 = Bf16::from_bits(0x1234);
        for len in ENCODE_LENS {
            let x = &row[..len];
            let (mut got, mut bf) = (vec![SENTINEL; len], vec![SENTINEL; len]);
            bf16_image(x, &mut got);
            bf16_image_portable(x, &mut bf);
            if let Some(i) = (0..len).find(|&i| got[i] != bf[i]) {
                return Err(format!("bf16_image len {len}: element {i} of {:e}", x[i]));
            }

            let mut keys = vec![u32::MAX; len];
            for picks in [1, 2, 5, len].into_iter().filter(|&p| (1..=len).contains(&p)) {
                let (mut got, mut want) = (vec![usize::MAX; picks], vec![usize::MAX; picks]);
                top_magnitudes(&bf, &mut keys, &mut got);
                top_magnitudes_portable(&bf, &mut keys, &mut want);
                if got != want {
                    return Err(format!("top_magnitudes len {len}: {got:?}, portable {want:?}"));
                }
            }

            // The shift kernels take finite input.
            let bf: Vec<Bf16> = bf
                .iter()
                .map(|&v| if v.is_nan() || v.is_infinite() { Bf16::from_f32(-96.0) } else { v })
                .collect();
            for bits in 2u32..=8 {
                for rounding in [Rounding::Truncate, Rounding::NearestEven] {
                    for scale in [-160, -133, -126, -20, -1, 0, 1, 5, 6, 7, 40, 126, 127, 140] {
                        let what = format!("len {len} scale {scale} bits {bits} {rounding:?}");
                        let (mut got, mut want) = (vec![99i8; len], vec![99i8; len]);
                        shift_codes(&bf, scale, bits, rounding, &mut got);
                        shift_codes_portable(&bf, scale, bits, rounding, &mut want);
                        if got != want {
                            return Err(format!("shift_codes {what}: {got:?}, portable {want:?}"));
                        }
                        let (mut got, mut want) = (vec![7.0f32; len], vec![7.0f32; len]);
                        shift_values(&bf, scale, bits, rounding, &mut got);
                        shift_values_portable(&bf, scale, bits, rounding, &mut want);
                        first_difference(&format!("shift_values {what}"), &got, &want)?;
                    }
                }
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn encoder_dispatch_is_bitwise_the_portable_loops(row in encoder_row(130)) {
            let outcome = encoder_against_portable(&row);
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    #[test]
    fn norm_into_matches_matrix_norms() {
        let x = Matrix::from_rows(&[&[1.0, -2.0, 3.5, 0.25]]);
        let gain = [1.5, 0.5, 2.0, 1.0];
        let bias = [0.1, -0.2, 0.0, 0.3];
        let mut out = [0.0f32; 4];
        layer_norm_into(x.row(0), &gain, &bias, 1e-5, &mut out);
        assert_eq!(out, layer_norm(&x, &gain, &bias, 1e-5).row(0));
        rms_norm_into(x.row(0), &gain, 1e-5, &mut out);
        assert_eq!(out, rms_norm(&x, &gain, 1e-5).row(0));
    }

    #[test]
    fn layer_norm_normalizes() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let g = vec![1.0; 4];
        let b = vec![0.0; 4];
        let y = layer_norm(&x, &g, &b, 1e-5);
        let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y.row(0).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
        assert_close(mean, 0.0, 1e-6);
        assert_close(var, 1.0, 1e-3);
    }

    #[test]
    fn layer_norm_gain_bias() {
        let x = Matrix::from_rows(&[&[1.0, -1.0]]);
        let y = layer_norm(&x, &[2.0, 2.0], &[1.0, 1.0], 1e-9);
        assert_close(y[(0, 0)], 3.0, 1e-4);
        assert_close(y[(0, 1)], -1.0, 1e-4);
    }

    #[test]
    fn rms_norm_unit_rms() {
        let x = Matrix::from_rows(&[&[3.0, 4.0]]);
        let y = rms_norm(&x, &[1.0, 1.0], 0.0);
        let ms: f32 = y.row(0).iter().map(|v| v * v).sum::<f32>() / 2.0;
        assert_close(ms, 1.0, 1e-5);
        // Direction preserved.
        assert_close(y[(0, 1)] / y[(0, 0)], 4.0 / 3.0, 1e-5);
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1001.0, 1002.0, 1003.0]]);
        let y = softmax_rows(&x);
        for r in 0..2 {
            let s: f32 = y.row(r).iter().sum();
            assert_close(s, 1.0, 1e-6);
        }
        // shift invariance: both rows identical
        for c in 0..3 {
            assert_close(y[(0, c)], y[(1, c)], 1e-6);
        }
        assert!(y[(0, 2)] > y[(0, 1)] && y[(0, 1)] > y[(0, 0)]);
    }

    #[test]
    fn activations_reference_points() {
        assert_close(silu(0.0), 0.0, 1e-9);
        assert!(silu(5.0) > 4.9);
        assert_close(gelu(0.0), 0.0, 1e-9);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert_eq!(relu(-3.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
    }

    #[test]
    fn rope_preserves_norm_and_is_position_dependent() {
        let mut a = Matrix::from_rows(&[&[1.0, 0.0, 0.5, 0.5]]);
        let before: f32 = a.row(0).iter().map(|v| v * v).sum();
        rope_in_place(&mut a, 3, 10000.0);
        let after: f32 = a.row(0).iter().map(|v| v * v).sum();
        assert_close(before, after, 1e-5);

        let mut b = Matrix::from_rows(&[&[1.0, 0.0, 0.5, 0.5]]);
        rope_in_place(&mut b, 4, 10000.0);
        assert!(a.as_slice() != b.as_slice(), "rotation must depend on position");
    }

    #[test]
    fn rope_angles_then_apply_is_bitwise_rope_row() {
        for (d, pos) in [(2usize, 0usize), (8, 1), (32, 17), (32, 1023), (64, 40_000)] {
            let row: Vec<f32> = (0..d).map(|i| ((i * 7 + pos) as f32).sin() * 3.0).collect();
            let mut direct = row.clone();
            rope_row(&mut direct, pos, 10000.0);
            let mut angles = vec![0.0f32; d];
            rope_angles_into(pos, 10000.0, &mut angles);
            let mut hoisted = row;
            rope_apply(&mut hoisted, &angles);
            for (x, y) in direct.iter().zip(&hoisted) {
                assert_eq!(x.to_bits(), y.to_bits(), "d {d} pos {pos}");
            }
        }
    }

    #[test]
    fn rope_relative_property() {
        // <RoPE(q,m), RoPE(k,n)> depends only on m-n.
        let q = [0.3f32, -0.7, 1.1, 0.2];
        let k = [0.9f32, 0.4, -0.5, 0.8];
        let dot = |m: usize, n: usize| -> f32 {
            let mut qm = Matrix::from_row_slice(&q);
            let mut kn = Matrix::from_row_slice(&k);
            rope_in_place(&mut qm, m, 10000.0);
            rope_in_place(&mut kn, n, 10000.0);
            qm.row(0).iter().zip(kn.row(0)).map(|(a, b)| a * b).sum()
        };
        assert_close(dot(5, 3), dot(9, 7), 1e-4);
        assert_close(dot(2, 2), dot(11, 11), 1e-4);
    }

    #[test]
    fn argmax_and_lse() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        let lse = log_sum_exp(&[0.0, 0.0]);
        assert_close(lse, std::f32::consts::LN_2, 1e-6);
        // stability with large values
        assert_close(log_sum_exp(&[1000.0, 1000.0]), 1000.0 + std::f32::consts::LN_2, 1e-3);
    }

    #[test]
    fn cross_entropy_of_uniform() {
        let ce = cross_entropy(&[0.0, 0.0, 0.0, 0.0], 2);
        assert_close(ce, (4.0f32).ln(), 1e-6);
        // Confident correct prediction -> near-zero CE.
        let ce2 = cross_entropy(&[10.0, -10.0], 0);
        assert!(ce2 < 1e-3);
    }
}
