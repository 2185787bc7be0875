//! Neural-network primitives used by the transformer simulator.
//!
//! Every kernel here is its own portable loop, which is the spec and the
//! test oracle; the few with a wide path (`dot`'s schedule inside the
//! matrix products and [`dot_tile`], [`axpy_tile`], [`dot_codes_tile`],
//! [`axpy_codes_tile`]) pick it at run time in `simd.rs` and return the
//! same bits. The attention walk over the paged KV cache uses the tile
//! kernels, one call per (page, head) — per (page, head, shared-exponent
//! block) on quantized pages — for every query row of a group: K scores of
//! the query rows against a run of cached rows
//! ([`dot_tile`] over exact `f32` rows, [`dot_codes_tile`] over codes), and
//! the V sum over a run of `f32` rows ([`axpy_tile`] straight off an exact
//! page, [`axpy_codes_tile`] from a quantized page dequantized once into a
//! tile). The weight products of the MX-activation, OWQ-weight schemes run
//! on integer codes instead ([`matmul_codes`], spec
//! [`matmul_codes_portable`]).

use crate::codes::{CodeActs, CodeRow, CodeWeights};
use crate::Matrix;

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
        acc0 += f64::from(a4[0]) * f64::from(b4[0]);
        acc1 += f64::from(a4[1]) * f64::from(b4[1]);
        acc2 += f64::from(a4[2]) * f64::from(b4[2]);
        acc3 += f64::from(a4[3]) * f64::from(b4[3]);
    }
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        acc0 += f64::from(x) * f64::from(y);
    }
    ((acc0 + acc1) + (acc2 + acc3)) as f32
}

/// A tile of [`dot`]: for every query row `(q, out)` of `queries`,
/// `out[t] = dot(q, &rows[t * stride..t * stride + q.len()])` for `t` in
/// `0..out.len()` — the exact-page twin of [`dot_codes_tile`]: the K scores
/// of several query rows against a run of cached `f32` rows in one call
/// (`stride` is the row pitch, so a head's columns of a page are the slice
/// from the head's first column).
///
/// Every element is bitwise the per-pair [`dot`]. The portable loop is that
/// call per pair: the spec, the test oracle and the path on CPUs without
/// the wide one. On x86-64 with AVX and FMA (detected at run time) this is
/// the register tile behind [`Matrix::matmul_t_into`]: up to eight query
/// rows of one shape are widened to `f64` once and share each converted
/// chunk of a cached row, and a lone query row takes eight cached rows per
/// block, as the GEMV does — eight `dot` chains in flight instead of one.
///
/// # Panics
///
/// Panics if a cached row runs past `rows`.
pub fn dot_tile<'a>(
    rows: &[f32],
    stride: usize,
    queries: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::available() {
        crate::simd::dot_rows(rows, stride, queries);
        return;
    }
    dot_tile_portable(rows, stride, queries);
}

/// The loop of [`dot_tile`] as portable code.
pub(crate) fn dot_tile_portable<'a>(
    rows: &[f32],
    stride: usize,
    queries: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
) {
    for (q, out) in queries {
        for (t, o) in out.iter_mut().enumerate() {
            *o = dot(q, &rows[t * stride..t * stride + q.len()]);
        }
    }
}

/// Dot product of an `f32` query segment against integer quantization
/// codes — the code-domain inner loop of quantized KV attention. The
/// caller multiplies the result by the block's shared power-of-two step,
/// so one shared-exponent block costs one scale multiply no matter how
/// long it is.
///
/// Shaped for the vectorizer rather than for [`dot`]'s `f64` pipeline:
/// sixteen independent `f32` lanes over `chunks_exact(16)`, with the
/// `i8 → f32` widening inside the lane loop. `i8 → f32` and the `f32`
/// multiply-add both map onto full-width SIMD (`i8 → f64` does not, and
/// measures ~2.5x slower), which is what lets this path beat
/// dequantize-then-[`dot`] instead of merely matching it. Accumulating in
/// `f32` reorders rounding relative to an `f64` reference, but a
/// shared-exponent block is at most a few hundred elements and the caller
/// sums *blocks* in `f64` — the quantized-page tests cross-check against
/// dequantize-then-[`dot`] at a pinned tolerance. The result is
/// deterministic for fixed inputs (fixed lane assignment and association
/// order), which is all the quantized-KV bit-determinism contract needs.
///
/// # Panics
///
/// Panics if the slices differ in length.
// Inlined across crates on purpose: the block walk calls this with a
// qblock-derived length, and letting the call site see it folds the
// remainder loop and roughly halves the measured cost.
#[inline]
pub fn dot_codes(a: &[f32], codes: &[i8]) -> f32 {
    assert_eq!(a.len(), codes.len(), "dot_codes length mismatch");
    let mut acc = [-0.0f32; 16];
    let mut ac = a.chunks_exact(16);
    let mut cc = codes.chunks_exact(16);
    for (a16, c16) in ac.by_ref().zip(cc.by_ref()) {
        for k in 0..16 {
            acc[k] += a16[k] * f32::from(c16[k]);
        }
    }
    // In-order lane reduction: a fixed summation order (deterministic),
    // and — unlike an explicit pairwise tree, which bolts specific lane
    // groupings onto the loop above and makes LLVM shuffle every vector —
    // one that leaves the accumulator layout entirely to the vectorizer.
    // The tree variant measures ~2x slower for exactly that reason.
    let mut s = -0.0f32;
    for &lane in &acc {
        s += lane;
    }
    for (&x, &c) in ac.remainder().iter().zip(cc.remainder()) {
        s += x * f32::from(c);
    }
    s
}

/// A tile of [`dot_codes`]: for every query row `(q, out)` of `rows`,
/// `out[t] = dot_codes(q, &codes[t * stride..t * stride + q.len()])` for
/// `t` in `0..out.len()` — the K scores of several query rows against a
/// run of cached code rows in one call (`stride` is the code row pitch, so
/// a head's columns of a page are the slice from the head's first column).
///
/// Every pair keeps [`dot_codes`]'s lane schedule exactly (sixteen `f32`
/// lanes from `-0.0`, an unfused multiply then add, the in-order lane sum,
/// then the sub-16 remainder), so each element is bitwise the per-pair call.
/// The portable loop is that call per pair: the spec, the test oracle and
/// the path on CPUs without AVX2. On x86-64 with AVX2 (detected at run
/// time) the tile is walked in blocks of two query rows × two code rows or
/// one × four: each code chunk is converted once per block and four pairs'
/// chains are in flight, instead of one chain per cached row.
///
/// # Panics
///
/// Panics if a code row runs past `codes`.
pub fn dot_codes_tile<'a>(
    codes: &[i8],
    stride: usize,
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::codes_available() {
        crate::simd::dot_codes_tile(codes, stride, rows);
        return;
    }
    dot_codes_tile_portable(codes, stride, rows);
}

/// The loop of [`dot_codes_tile`] as portable code.
pub(crate) fn dot_codes_tile_portable<'a>(
    codes: &[i8],
    stride: usize,
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
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
    if crate::simd::codes_available() {
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

/// The attention-weighted sum of a run of `f32` rows: for every query row
/// `(weights, ctx)` of `rows`, `ctx[j] += weights[t] * tile[t * stride + j]`
/// for `j` in `0..ctx.len()`, `t` ascending over `weights`, a weight that
/// is exactly zero skipped. With `fresh` the context starts from `+0.0`
/// instead of from what `ctx` holds: the first page of a walk writes, the
/// others accumulate. `stride` is the row pitch, so a head's columns of an
/// exact V page are the slice from the head's first column.
///
/// Each element sees an unfused multiply then add per row, in row order, on
/// every path: the portable loop is the spec, the test oracle and the path
/// on CPUs without AVX2; on x86-64 with AVX2 (detected at run time) each
/// context stays in registers across the run, 64 lanes at a time, instead
/// of a load and a store per row. This is the accumulate half of
/// [`axpy_codes_tile`], and on an exact page the whole V sum.
///
/// # Panics
///
/// Panics if a row a nonzero weight selects runs past `tile`.
pub fn axpy_tile<'a>(
    tile: &[f32],
    stride: usize,
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
    fresh: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::codes_available() {
        crate::simd::axpy_tile(tile, stride, rows, fresh);
        return;
    }
    axpy_tile_portable(tile, stride, rows, fresh);
}

/// The loop of [`axpy_tile`] as portable code.
pub(crate) fn axpy_tile_portable<'a>(
    tile: &[f32],
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
                *c += w * x;
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

    fn first_difference(what: &str, got: &[f32], want: &[f32]) -> Result<(), String> {
        match got.iter().zip(want).position(|(g, w)| g.to_bits() != w.to_bits()) {
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
                    let (mut got, mut want) = (vec![SENTINEL; m * n], vec![SENTINEL; m * n]);
                    dot_codes_tile(codes, stride, q_rows().zip(got.chunks_mut(n.max(1))));
                    dot_codes_tile_portable(codes, stride, q_rows().zip(want.chunks_mut(n.max(1))));
                    first_difference(&format!("dot_codes_tile {what}"), &got, &want)?;

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
    /// from `cached` at a pitch wider than the row, as a head's columns of
    /// an exact page are. Outputs start from a sentinel, so an element one
    /// side skips shows.
    fn exact_tiles_against_portable(values: &[f32], cached: &[f32]) -> Result<(), String> {
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
