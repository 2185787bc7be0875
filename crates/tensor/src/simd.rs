//! The wide (x86-64 AVX / FMA / AVX2) instantiations of the portable
//! kernels, chosen at run time and bit-identical to them.
//!
//! **The [`crate::ops::dot`] lane schedule as a register tile over widened
//! rows** (AVX + FMA) — the wide path of [`crate::Matrix::matvec_into`],
//! [`crate::Matrix::matmul_t_into`] and [`crate::ops::dot_tile`]. One
//! `ops::dot` is one 4-wide `f64` dependency chain, so a row-at-a-time
//! product is bound by the latency of that chain. Every entry point is one
//! driver, [`dot_rows`]: left-hand rows (activations, query rows, the GEMV's
//! vector) against right-hand rows at a stride (weight rows, a page's cached
//! K rows). It takes up to eight left-hand rows of one shape at a time,
//! widens them to `f64` once into this thread's panel (a fixed 32 KiB array
//! in thread-local storage: it stays in L1 and never touches the heap), and
//! walks the right-hand rows in register tiles: eight panel rows against one
//! right-hand row (one weight-chunk conversion, then eight load-FMAs), three
//! to six against two (at least eight accumulator chains; seven go as four
//! and three). A lone row — or
//! each of two, or any row too wide for the panel to hold three — goes
//! against eight right-hand rows at a time without the panel, converting its
//! own chunk once per eight weight chunks: the GEMV's shape. Each
//! accumulator holds the four lanes of one pair (lane `k` is `ops::dot`'s
//! `acc_k`), so every output element still sees the addends of its own
//! `ops::dot` in the same order. The multiply-add is fused, and that is
//! bitwise the spec's unfused pair: an `f32 × f32` product has at most 48
//! significant bits and an exponent well inside `f64`'s range, so the `f64`
//! multiply is exact and the one rounding of `fma(a, b, acc)` is the add's
//! rounding. The portable loops stay the spec, the test oracle and the path
//! on every other CPU, a CPU with AVX but no FMA included. The right-hand
//! rows are `f32` or bfloat16 ([`Lane`]), one instantiation each: a
//! bfloat16 chunk is loaded as four 16-bit lanes and interleaved above
//! zeros into the `f32` it is, then converted like an `f32` chunk — the
//! bf16 model's weights and K pages take the same tiles at half the bytes.
//!
//! **The attention tile kernels** (AVX2): [`crate::ops::dot_codes_tile`]
//! for query rows whose sums are exact in `f32` (AVX2 + FMA: up to eight
//! query rows of one shape a block, against the code rows in register
//! tiles on `f32` lanes with fused multiply-adds, each code chunk converted
//! once for the block — every partial sum is exact, so any order gives the
//! one sum the portable `f64` lanes reach), and [`crate::ops::axpy_tile`]
//! with each context held in registers, 64 lanes at a time, across a
//! page's rows (a bfloat16 page's eight lanes at a time widened in those
//! registers by one byte shuffle) — behind [`crate::ops::axpy_codes_tile`] after it
//! dequantizes a page eight codes at a time. The V kernels perform the
//! portable loop's operations per element in its order, none fused.
//!
//! **The W×A integer product** (AVX2 + FMA): [`crate::ops::matmul_codes`]
//! up to four activation rows at a time against each 16-channel panel of
//! the weight codes. A panel stores two input channels per byte pair, so
//! one 32-byte load is two inputs × sixteen channels and one `vpmaddubsw`
//! against a row's broadcast input pair leaves sixteen `i16` pair sums; the
//! sums stay `i16` for as many pairs as the operands' widths allow without
//! overflow, then widen to `i32`, and each block's `i32` sums meet the
//! row's step in `f64` (exact). The activation outliers and the epilogue
//! run sixteen channels at a time in `f64`, in the spec's order, so every
//! output is bitwise the portable loop's.
//!
//! **The MX-OPAL encoder** (AVX2): [`crate::ops::bf16_image`],
//! [`crate::ops::top_magnitudes`], [`crate::ops::shift_codes`] and
//! [`crate::ops::shift_values`], the per-element loops both scratch
//! encoders of `opal_quant` run per row and per block. The bfloat16 image
//! is `Bf16::from_f32`'s integer rounding on eight lanes, two vectors
//! packed into sixteen `u16` per store. The outlier picks build a block's
//! selection keys eight at a time and take each pick as the largest key
//! below the previous one, four `max` chains over the block (no key is
//! written after it is built). The shift is `shift_quantize`'s body, which
//! is written lane by lane: the exponent field moved by `bits − 2 − scale`
//! and clamped to the normal range, `min` with `q_max`, rounding by adding
//! `2^23` (or truncating), zero and subnormal lanes masked, the sign
//! restored — then packed to `i8` codes, or converted and multiplied by
//! the block's step. Each lane does what the scalar body does, so every
//! output is bitwise the portable loop's; the tails go through the scalar
//! functions themselves.
//!
//! A `#[target_feature]` fn calls value-taking intrinsics safely, so the
//! `unsafe` operations are two kinds only: calling such a fn from ordinary
//! code, once per driver behind the runtime detection; and the vector loads
//! and stores of the helpers at the end of this file (and `widen4`,
//! `widen_bf16x4`), each through a pointer taken from a fixed-size array
//! reference.

use std::arch::x86_64::{
    __m128, __m128i, __m256, __m256d, __m256i, _mm256_add_epi16, _mm256_add_epi32, _mm256_add_pd,
    _mm256_add_ps, _mm256_and_si256, _mm256_andnot_si256, _mm256_blendv_epi8,
    _mm256_broadcastsi128_si256, _mm256_castpd256_pd128, _mm256_castps256_ps128,
    _mm256_castps_si256, _mm256_castsi256_ps, _mm256_castsi256_si128, _mm256_cmp_ps,
    _mm256_cmpeq_epi32, _mm256_cmpgt_epi32, _mm256_cvtepi16_epi32, _mm256_cvtepi32_pd,
    _mm256_cvtepi32_ps, _mm256_cvtepi8_epi32, _mm256_cvtepu16_epi32, _mm256_cvtpd_ps,
    _mm256_cvtps_pd, _mm256_cvttps_epi32, _mm256_extractf128_pd, _mm256_extractf128_ps,
    _mm256_extracti128_si256, _mm256_fmadd_pd, _mm256_fmadd_ps, _mm256_loadu_pd, _mm256_loadu_ps,
    _mm256_loadu_si256, _mm256_maddubs_epi16, _mm256_max_epi32, _mm256_min_epi32, _mm256_min_ps,
    _mm256_mul_pd, _mm256_mul_ps, _mm256_or_si256, _mm256_packs_epi32, _mm256_packus_epi32,
    _mm256_permute4x64_epi64, _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_pd, _mm256_set1_ps,
    _mm256_setr_epi32, _mm256_setr_epi8, _mm256_setzero_pd, _mm256_setzero_ps,
    _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_sign_epi32, _mm256_slli_epi32,
    _mm256_srli_epi16, _mm256_srli_epi32, _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_epi32,
    _mm256_zeroupper, _mm_add_ps, _mm_add_ss, _mm_castsi128_ps, _mm_cvtsd_f64, _mm_cvtsi128_si32,
    _mm_cvtss_f32, _mm_loadl_epi64, _mm_loadu_ps, _mm_loadu_si128, _mm_max_epi32, _mm_movehdup_ps,
    _mm_movehl_ps, _mm_packs_epi16, _mm_setzero_si128, _mm_shuffle_epi32, _mm_storeu_ps,
    _mm_storeu_si128, _mm_unpackhi_pd, _mm_unpacklo_epi16, _CMP_UNORD_Q,
};
use std::cell::RefCell;

use opal_numerics::shift::step_size;
use opal_numerics::{shift_quantize, Bf16, Rounding};

use crate::codes::{CodeActs, CodeRow, CodeWeights, PANEL_WIDTH};
use crate::ops::{
    check_tile_row, code_row_sum, key_index, magnitude_key, sums_exactly_in_f32, tile_width,
};
use crate::sealed::Chunk;
use crate::{KernelPath, Lane};

/// Left-hand rows per full block: eight accumulators, the shared chunk and
/// one product fit the sixteen `ymm` registers without spilling.
const BLOCK: usize = 8;

/// The panel's length in `f64`: a full block of rows up to 512 wide.
const PANEL_LEN: usize = BLOCK * 512;

thread_local! {
    /// This thread's activation panel: one block's left-hand rows widened
    /// to `f64` ([`widen_rows`]). A fixed array rather than a growable
    /// buffer, so that no step ever allocates for it and it never moves the
    /// heap under anything else.
    static PANEL: RefCell<[f64; PANEL_LEN]> = const { RefCell::new([0.0; PANEL_LEN]) };
}

/// `out[i] = ops::dot(row i of w, v)` for the `out.len()` rows of the flat
/// row-major `w`. Returns `false`, writing nothing, when the CPU lacks AVX
/// and FMA or `v` is empty (the portable loop's zero-width behaviour is
/// kept).
pub(crate) fn matvec(w: &[f32], v: &[f32], out: &mut [f32]) -> bool {
    if v.is_empty() || !KernelPath::detect().wide_dot {
        return false;
    }
    assert_eq!(w.len(), out.len() * v.len(), "matrix size mismatch");
    dot_rows(w, v.len(), [(v, out)]);
    true
}

/// `out[i * n + j] = ops::dot(row i of a, row j of b)` for flat row-major
/// `a` and `b` of row width `d > 0`, `n` the row count of `b` (`b` widened
/// to `f32`). Returns `false`, writing nothing, when the CPU lacks AVX and
/// FMA.
pub(crate) fn matmul_t<T: Lane>(a: &[f32], b: &[T], d: usize, out: &mut [f32]) -> bool {
    if !KernelPath::detect().wide_dot {
        return false;
    }
    assert!(d > 0 && a.len().is_multiple_of(d) && b.len().is_multiple_of(d), "row width mismatch");
    let n = b.len() / d;
    assert_eq!(out.len(), (a.len() / d) * n, "output size mismatch");
    dot_rows(b, d, a.chunks_exact(d).zip(out.chunks_exact_mut(n.max(1))));
    true
}

/// For every `(x, out)` of `lhs`, `out[j] = ops::dot(x, &rhs[j * stride..][..x.len()])`
/// for `j` in `0..out.len()`, the right-hand rows widened to `f32`: the one
/// driver behind [`matvec`], [`matmul_t`] and [`crate::ops::dot_tile`] (the
/// caller checks [`KernelPath::wide_dot`]; this asserts it), one
/// instantiation per right-hand lane type.
#[allow(unsafe_code)]
pub(crate) fn dot_rows<'a, T: Lane>(
    rhs: &[T],
    stride: usize,
    lhs: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
) {
    assert!(KernelPath::detect().wide_dot, "the wide dot kernel needs AVX and FMA");
    PANEL.with_borrow_mut(|panel| {
        // SAFETY: `dot_rows_avx`'s only requirement of its caller is the
        // `avx` and `fma` target features, asserted just above.
        unsafe { dot_rows_avx(rhs, stride, lhs.into_iter(), panel) };
    });
}

/// Left-hand rows a block at a time — up to [`BLOCK`] consecutive rows of
/// one shape, as many as the panel holds at their width — each block
/// widened into `panel` once and walked over every right-hand row in
/// register tiles: eight rows against one right-hand row per tile, three to
/// six against two (seven as four, then three); a block of one or two goes
/// row by row through [`lone_row`], so that at least eight chains are in
/// flight whatever the block's height.
#[target_feature(enable = "avx,fma")]
fn dot_rows_avx<'a, T: Lane>(
    rhs: &[T],
    stride: usize,
    mut lhs: impl Iterator<Item = (&'a [f32], &'a mut [f32])>,
    panel: &mut [f64; PANEL_LEN],
) {
    let mut next = lhs.next();
    while let Some((x, out)) = next.take() {
        let (d, n) = (x.len(), out.len());
        let height = BLOCK.min(PANEL_LEN / d.max(1));
        let mut xs: [&[f32]; BLOCK] = [&[]; BLOCK];
        let mut outs: [&mut [f32]; BLOCK] = Default::default();
        (xs[0], outs[0]) = (x, out);
        let mut k = 1;
        next = lhs.next();
        while k < height {
            let Some((x, out)) = next.take_if(|(x, o)| x.len() == d && o.len() == n) else {
                break;
            };
            (xs[k], outs[k]) = (x, out);
            k += 1;
            next = lhs.next();
        }
        let (xs, outs) = (&xs[..k], &mut outs[..k]);
        match k {
            8 => by_rhs_rows::<8, 1, _>(xs, panel, rhs, stride, outs),
            // Seven rows against two would want seventeen registers.
            7 => {
                let (head, tail) = outs.split_at_mut(4);
                by_rhs_rows::<4, 2, _>(&xs[..4], panel, rhs, stride, head);
                by_rhs_rows::<3, 2, _>(&xs[4..], panel, rhs, stride, tail);
            }
            6 => by_rhs_rows::<6, 2, _>(xs, panel, rhs, stride, outs),
            5 => by_rhs_rows::<5, 2, _>(xs, panel, rhs, stride, outs),
            4 => by_rhs_rows::<4, 2, _>(xs, panel, rhs, stride, outs),
            3 => by_rhs_rows::<3, 2, _>(xs, panel, rhs, stride, outs),
            _ => {
                for (x, out) in xs.iter().zip(outs) {
                    lone_row(x, rhs, stride, out);
                }
            }
        }
    }
}

/// The `R` equal-width rows `xs` widened to `f64` into `panel`, 4-chunk
/// interleaved — chunk `c` of every row side by side, so a tile loads a
/// block's chunks from one pointer — then each row's sub-4 tail: returns
/// the `d / 4` interleaved chunk groups and the `R` tails.
#[inline]
#[target_feature(enable = "avx,fma")]
fn widen_rows<'p, const R: usize>(
    xs: &[&[f32]],
    panel: &'p mut [f64],
) -> (&'p [[[f64; 4]; R]], [&'p [f64]; R]) {
    let d = xs[0].len();
    let (n4, tail) = (d / 4, d % 4);
    let (body, tails) = panel[..R * d].split_at_mut(n4 * 4 * R);
    let (body, _) = body.as_chunks_mut::<4>();
    for (i, x) in xs[..R].iter().enumerate() {
        let (x4, x_tail) = x.as_chunks::<4>();
        for (c, x4) in x4.iter().enumerate() {
            for (p, &v) in body[c * R + i].iter_mut().zip(x4) {
                *p = f64::from(v);
            }
        }
        for (p, &v) in tails[i * tail..(i + 1) * tail].iter_mut().zip(x_tail) {
            *p = f64::from(v);
        }
    }
    let (body, tails) = (&*body, &*tails);
    let mut x_tails: [&[f64]; R] = [&[]; R];
    for (i, t) in x_tails.iter_mut().enumerate() {
        *t = &tails[i * tail..(i + 1) * tail];
    }
    (body.as_chunks::<R>().0, x_tails)
}

/// The `C` right-hand rows (`f32` rows or code rows) from row `j`, each
/// `d` wide.
#[inline]
fn rhs_rows<T, const C: usize>(rhs: &[T], stride: usize, j: usize, d: usize) -> [&[T]; C] {
    let mut rows: [&[T]; C] = [&[]; C];
    for (c, row) in rows.iter_mut().enumerate() {
        let at = (j + c) * stride;
        *row = &rhs[at..at + d];
    }
    rows
}

/// `outs[i][j] = ops::dot(xs[i], rhs row j)` for a block of `R` rows,
/// widened once, against the right-hand rows `C` at a time; with `C = 2`,
/// an odd last row goes alone.
#[inline]
#[target_feature(enable = "avx,fma")]
fn by_rhs_rows<const R: usize, const C: usize, T: Lane>(
    xs: &[&[f32]],
    panel: &mut [f64],
    rhs: &[T],
    stride: usize,
    outs: &mut [&mut [f32]],
) {
    let d = xs[0].len();
    let (x4, x_tails) = widen_rows::<R>(xs, panel);
    let n = outs[0].len();
    let mut j = 0;
    while j + C <= n {
        let ws = rhs_rows::<_, C>(rhs, stride, j, d);
        tile::<R, C, _>(x4, x_tails, ws, |r, c, x| outs[r][j + c] = x);
        j += C;
    }
    if j < n {
        let ws = rhs_rows::<_, 1>(rhs, stride, j, d);
        tile::<R, 1, _>(x4, x_tails, ws, |r, _, x| outs[r][j] = x);
    }
}

/// `out[j] = ops::dot(x, rhs row j)` for one row against the right-hand rows
/// eight at a time (the GEMV's shape), the rows left over as one narrower
/// tile.
#[inline]
#[target_feature(enable = "avx,fma")]
fn lone_row<T: Lane>(x: &[f32], rhs: &[T], stride: usize, out: &mut [f32]) {
    let d = x.len();
    let mut j = 0;
    while j + BLOCK <= out.len() {
        row_tile::<BLOCK, _>(x, rhs_rows::<_, BLOCK>(rhs, stride, j, d), |c, v| out[j + c] = v);
        j += BLOCK;
    }
    let left = out.len() - j;
    let mut store = |c: usize, v: f32| out[j + c] = v;
    match left {
        1 => row_tile::<1, _>(x, rhs_rows::<_, 1>(rhs, stride, j, d), &mut store),
        2 => row_tile::<2, _>(x, rhs_rows::<_, 2>(rhs, stride, j, d), &mut store),
        3 => row_tile::<3, _>(x, rhs_rows::<_, 3>(rhs, stride, j, d), &mut store),
        4 => row_tile::<4, _>(x, rhs_rows::<_, 4>(rhs, stride, j, d), &mut store),
        5 => row_tile::<5, _>(x, rhs_rows::<_, 5>(rhs, stride, j, d), &mut store),
        6 => row_tile::<6, _>(x, rhs_rows::<_, 6>(rhs, stride, j, d), &mut store),
        7 => row_tile::<7, _>(x, rhs_rows::<_, 7>(rhs, stride, j, d), &mut store),
        _ => {}
    }
}

/// `store(c, ops::dot(x, ws[c]))` for one row against `C` equal-width rows:
/// per 4-chunk, `x`'s chunk is converted once and each `ws` chunk once, and
/// the `C` accumulators advance together.
#[inline]
#[target_feature(enable = "avx,fma")]
fn row_tile<const C: usize, T: Lane>(x: &[f32], ws: [&[T]; C], mut store: impl FnMut(usize, f32)) {
    let (x4, x_tail) = x.as_chunks::<4>();
    let n4 = x4.len();
    let mut w4: [&[[T; 4]]; C] = [&[]; C];
    for (w4, w) in w4.iter_mut().zip(&ws) {
        *w4 = &w.as_chunks::<4>().0[..n4];
    }
    let mut acc = [_mm256_set1_pd(-0.0); C];
    // Index loops, not iterator zips: with those LLVM rotates the eight
    // accumulators through the registers every chunk (eight extra moves).
    for c in 0..n4 {
        let x = widen4(&x4[c]);
        for k in 0..C {
            // `acc + w · x` with one rounding: the product is exact in f64.
            acc[k] = _mm256_fmadd_pd(widen_lanes4(&w4[k][c]), x, acc[k]);
        }
    }
    let tail = n4 * 4;
    for (c, (&acc, w)) in acc.iter().zip(&ws).enumerate() {
        let [mut l0, l1, l2, l3] = lanes(acc);
        for (&w, &x) in w[tail..].iter().zip(x_tail) {
            l0 += f64::from(w.to_f32()) * f64::from(x);
        }
        store(c, ((l0 + l1) + (l2 + l3)) as f32);
    }
}

/// `store(r, c, ops::dot(row r, ws[c]))` for the `R × C` pairs of
/// equal-width rows, the `R` rows already widened ([`widen_rows`]): per
/// 4-chunk, each `ws` chunk is converted once and each row's chunk loaded
/// once, and the `R × C` accumulators advance together.
#[inline]
#[target_feature(enable = "avx,fma")]
fn tile<const R: usize, const C: usize, T: Lane>(
    x4: &[[[f64; 4]; R]],
    x_tails: [&[f64]; R],
    ws: [&[T]; C],
    mut store: impl FnMut(usize, usize, f32),
) {
    let n4 = x4.len();
    // Plain loops, not `array::from_fn`: a closure handed to a generic `std`
    // fn keeps this fn's target feature while the `std` fn has none, which
    // stops the inliner and leaves a call per row.
    let mut w4: [&[[T; 4]]; C] = [&[]; C];
    for (w4, w) in w4.iter_mut().zip(&ws) {
        // Same length as `x4` by construction; saying so here lets the
        // chunk loop index without bounds checks.
        *w4 = &w.as_chunks::<4>().0[..n4];
    }
    let mut acc = [[_mm256_set1_pd(-0.0); C]; R];
    for c in 0..n4 {
        let mut w = [_mm256_setzero_pd(); C];
        for k in 0..C {
            w[k] = widen_lanes4(&w4[k][c]);
        }
        for r in 0..R {
            let x = load4(&x4[c][r]);
            for k in 0..C {
                // `acc + w · x` with one rounding: the product is exact in
                // f64.
                acc[r][k] = _mm256_fmadd_pd(w[k], x, acc[r][k]);
            }
        }
    }
    let tail = n4 * 4;
    for (r, (acc, x_tail)) in acc.iter().zip(&x_tails).enumerate() {
        for (c, (&acc, w)) in acc.iter().zip(&ws).enumerate() {
            let [mut l0, l1, l2, l3] = lanes(acc);
            for (&w, &x) in w[tail..].iter().zip(*x_tail) {
                l0 += f64::from(w.to_f32()) * x;
            }
            store(r, c, ((l0 + l1) + (l2 + l3)) as f32);
        }
    }
}

/// Four right-hand lanes widened to `f64` (exact): [`widen4`] or
/// [`widen_bf16x4`], picked per instantiation.
#[inline]
#[target_feature(enable = "avx")]
fn widen_lanes4<T: Lane>(x: &[T; 4]) -> __m256d {
    match T::chunk(x) {
        Chunk::F32(x) => widen4(x),
        Chunk::Bf16(x) => widen_bf16x4(x),
    }
}

/// Four `f32` from an array reference, widened to `f64` (exact).
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx")]
fn widen4(x: &[f32; 4]) -> __m256d {
    // SAFETY: `x` is a `&[f32; 4]`, so the 16 bytes the unaligned load
    // reads are in bounds.
    _mm256_cvtps_pd(unsafe { _mm_loadu_ps(x.as_ptr()) })
}

/// Four bfloat16 values from an array reference, widened to `f64` (exact):
/// each 16-bit lane interleaved above a zero one, which puts it in the high
/// half of a 32-bit lane — the `f32` a bfloat16 value is — then converted
/// as [`widen4`]. One shuffle: a zero-extension and a shift would be two,
/// and the shift takes an FMA port.
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx")]
fn widen_bf16x4(x: &[Bf16; 4]) -> __m256d {
    // SAFETY: `x` is a `&[Bf16; 4]` and `Bf16` is a `repr(transparent)`
    // `u16`, so the 8 bytes `_mm_loadl_epi64` reads are in bounds; it has
    // no alignment requirement.
    let raw: __m128i = unsafe { _mm_loadl_epi64(x.as_ptr().cast()) };
    _mm256_cvtps_pd(_mm_castsi128_ps(_mm_unpacklo_epi16(_mm_setzero_si128(), raw)))
}

/// The four `f64` lanes of `x`, lowest first.
#[inline]
#[target_feature(enable = "avx")]
fn lanes(x: __m256d) -> [f64; 4] {
    let (lo, hi) = (_mm256_castpd256_pd128(x), _mm256_extractf128_pd::<1>(x));
    [
        _mm_cvtsd_f64(lo),
        _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)),
        _mm_cvtsd_f64(hi),
        _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)),
    ]
}

/// [`crate::ops::dot_codes_tile`] on a CPU with AVX2 and FMA, for query
/// rows whose sums are exact in `f32` (the caller checks [`KernelPath`] and
/// `ops::ExactInF32`; this asserts the first): through
/// [`exact_code_rows`].
#[allow(unsafe_code)]
pub(crate) fn dot_codes_tile<'a>(
    codes: &[i8],
    stride: usize,
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f64])>,
) {
    let path = KernelPath::detect();
    assert!(path.wide_dot && path.wide_codes, "dot_codes_tile's wide path needs AVX2 and FMA");
    // SAFETY: `exact_code_rows`'s only requirement of its caller is the
    // `avx2` and `fma` target features, asserted just above.
    unsafe { exact_code_rows(codes, stride, rows.into_iter()) };
}

/// `out[t] = ops::dot_codes(q, code row t)` for every `(q, out)` of `rows`,
/// each `q` a query row whose every sum against codes is exact in `f32`
/// (`ops::ExactInF32`): query rows a block at a time — up to eight of one
/// shape, as [`dot_rows_avx`] groups them — against the code rows in
/// register tiles ([`code_tile`]) on `f32` lanes with fused multiply-adds,
/// each code chunk converted once for the whole block. Every product and
/// partial sum is exact, so this order gives the one exact sum, which
/// `dot_codes`'s `f64` lanes also reach.
#[target_feature(enable = "avx2,fma")]
fn exact_code_rows<'a>(
    codes: &[i8],
    stride: usize,
    mut rows: impl Iterator<Item = (&'a [f32], &'a mut [f64])>,
) {
    let mut next = rows.next();
    while let Some((q, out)) = next.take() {
        let (d, n) = (q.len(), out.len());
        let mut qs: [&[f32]; BLOCK] = [&[]; BLOCK];
        let mut outs: [&mut [f64]; BLOCK] = Default::default();
        (qs[0], outs[0]) = (q, out);
        let mut k = 1;
        next = rows.next();
        while k < BLOCK {
            let Some((q, out)) = next.take_if(|(q, o)| q.len() == d && o.len() == n) else {
                break;
            };
            (qs[k], outs[k]) = (q, out);
            k += 1;
            next = rows.next();
        }
        for q in &qs[..k] {
            debug_assert!(sums_exactly_in_f32(q), "a query row checked exact in f32 is not");
        }
        let (qs, outs) = (&qs[..k], &mut outs[..k]);
        // The `R × C` accumulators, the `C` converted code chunks and one
        // query chunk fit the sixteen `ymm` registers.
        match k {
            8 => by_code_rows::<8, 1>(qs, codes, stride, outs),
            7 => {
                let (head, tail) = outs.split_at_mut(4);
                by_code_rows::<4, 3>(&qs[..4], codes, stride, head);
                by_code_rows::<3, 3>(&qs[4..], codes, stride, tail);
            }
            6 => by_code_rows::<6, 2>(qs, codes, stride, outs),
            5 => by_code_rows::<5, 2>(qs, codes, stride, outs),
            4 => by_code_rows::<4, 3>(qs, codes, stride, outs),
            3 => by_code_rows::<3, 3>(qs, codes, stride, outs),
            2 => by_code_rows::<2, 4>(qs, codes, stride, outs),
            _ => by_code_rows::<1, 8>(qs, codes, stride, outs),
        }
    }
}

/// `outs[r][t] = ops::dot_codes(qs[r], code row t)` for a block of `R`
/// equal-width query rows against the code rows `C` at a time, the rows
/// left over one at a time.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn by_code_rows<const R: usize, const C: usize>(
    qs: &[&[f32]],
    codes: &[i8],
    stride: usize,
    outs: &mut [&mut [f64]],
) {
    let d = qs[0].len();
    let n = outs[0].len();
    let mut x: [&[f32]; R] = [&[]; R];
    x.copy_from_slice(&qs[..R]);
    let mut t = 0;
    while t + C <= n {
        let sums = code_tile::<R, C>(x, rhs_rows::<_, C>(codes, stride, t, d));
        for (out, sums) in outs.iter_mut().zip(sums) {
            for (o, s) in out[t..t + C].iter_mut().zip(sums) {
                *o = f64::from(s);
            }
        }
        t += C;
    }
    for t in t..n {
        let sums = code_tile::<R, 1>(x, rhs_rows::<_, 1>(codes, stride, t, d));
        for (out, [s]) in outs.iter_mut().zip(sums) {
            out[t] = f64::from(s);
        }
    }
}

/// `Σ qs[r] · codes[c]` for the `R × C` pairs on eight `f32` lanes each
/// (see [`exact_code_rows`]): per 8-chunk, each code chunk is converted
/// once and each query chunk loaded once; the lanes are then summed in a
/// tree, which is exact like every other order.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn code_tile<const R: usize, const C: usize>(qs: [&[f32]; R], codes: [&[i8]; C]) -> [[f32; C]; R] {
    let n8 = qs[0].len() / 8;
    // Plain loops and sub-slices of one length, so that the chunk loop
    // indexes without bounds checks.
    let mut q8: [&[[f32; 8]]; R] = [&[]; R];
    for (q8, q) in q8.iter_mut().zip(&qs) {
        *q8 = &q.as_chunks::<8>().0[..n8];
    }
    let mut c8: [&[[i8; 8]]; C] = [&[]; C];
    for (c8, c) in c8.iter_mut().zip(&codes) {
        *c8 = &c.as_chunks::<8>().0[..n8];
    }
    // From `-0.0`, as `dot_codes`'s lanes: an exact sum of zeros is `-0.0`
    // only when every term is, in any order.
    let mut acc = [[_mm256_set1_ps(-0.0); C]; R];
    for i in 0..n8 {
        if R == 1 {
            // One query row: each code chunk is used once, so it is
            // converted where it is used rather than held.
            let x = load8(&q8[0][i]);
            for k in 0..C {
                acc[0][k] = _mm256_fmadd_ps(codes8_ps(&c8[k][i]), x, acc[0][k]);
            }
            continue;
        }
        let mut cv = [_mm256_setzero_ps(); C];
        for k in 0..C {
            cv[k] = codes8_ps(&c8[k][i]);
        }
        for r in 0..R {
            let x = load8(&q8[r][i]);
            for k in 0..C {
                acc[r][k] = _mm256_fmadd_ps(cv[k], x, acc[r][k]);
            }
        }
    }
    let mut sums = [[0.0f32; C]; R];
    for r in 0..R {
        for k in 0..C {
            let mut s = lane_sum(acc[r][k]);
            for (&x, &code) in qs[r][n8 * 8..].iter().zip(&codes[k][n8 * 8..]) {
                s += x * f32::from(code);
            }
            sums[r][k] = s;
        }
    }
    sums
}

/// The sum of the eight lanes of `v`, halves first.
#[inline]
#[target_feature(enable = "avx")]
fn lane_sum(v: __m256) -> f32 {
    let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    _mm_cvtss_f32(_mm_add_ss(s, _mm_movehdup_ps(s)))
}

/// [`crate::ops::axpy_codes_tile`] on a CPU with AVX2 (the caller checks
/// [`KernelPath::wide_codes`]; this asserts it).
#[allow(unsafe_code)]
pub(crate) fn axpy_codes_tile<'a>(
    codes: &[i8],
    stride: usize,
    steps: &[f32],
    patch: impl FnOnce(&mut [f32]),
    tile: &mut [f32],
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
    fresh: bool,
) {
    assert!(KernelPath::detect().wide_codes, "axpy_codes_tile's wide path needs AVX2");
    let rows = rows.into_iter();
    // SAFETY: `axpy_codes_tile_avx2`'s only requirement of its caller is
    // the `avx2` target feature, asserted just above.
    unsafe { axpy_codes_tile_avx2(codes, stride, steps, patch, tile, rows, fresh) };
}

/// Dequantizes eight codes per step (sign-extend, convert, multiply by the
/// row's step: the portable loop's one rounding), lets `patch` write the
/// outliers, then accumulates every query row over the tile as
/// [`axpy_tile_avx2`].
#[target_feature(enable = "avx2")]
fn axpy_codes_tile_avx2<'a>(
    codes: &[i8],
    stride: usize,
    steps: &[f32],
    patch: impl FnOnce(&mut [f32]),
    tile: &mut [f32],
    rows: impl Iterator<Item = (&'a [f32], &'a mut [f32])>,
    fresh: bool,
) {
    let n = steps.len();
    let width = tile_width(n, tile.len());
    if width > 0 {
        for (t, (x, &step)) in tile.chunks_exact_mut(width).zip(steps).enumerate() {
            let (c8, c_tail) = codes[t * stride..t * stride + width].as_chunks::<8>();
            let (x8, x_tail) = x.as_chunks_mut::<8>();
            let stepv = _mm256_set1_ps(step);
            for (c, x) in c8.iter().zip(x8) {
                store8(x, _mm256_mul_ps(codes8_ps(c), stepv));
            }
            for (x, &c) in x_tail.iter_mut().zip(c_tail) {
                *x = f32::from(c) * step;
            }
        }
    }
    patch(tile);
    let rows = rows.inspect(|(weights, ctx)| check_tile_row(n, width, weights, ctx));
    axpy_tile_avx2(tile, width, rows, fresh);
}

/// [`crate::ops::axpy_tile`] on a CPU with AVX2 (the caller checks
/// [`KernelPath::wide_codes`]; this asserts it).
#[allow(unsafe_code)]
pub(crate) fn axpy_tile<'a, T: Lane>(
    tile: &[T],
    stride: usize,
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
    fresh: bool,
) {
    assert!(KernelPath::detect().wide_codes, "axpy_tile's wide path needs AVX2");
    // SAFETY: `axpy_tile_avx2`'s only requirement of its caller is the
    // `avx2` target feature, asserted just above.
    unsafe { axpy_tile_avx2(tile, stride, rows.into_iter(), fresh) };
}

/// Walks each query row's context in groups of up to 64 lanes held in
/// registers across all the tile's rows, widening bfloat16 rows as they
/// are loaded.
#[inline]
#[target_feature(enable = "avx2")]
fn axpy_tile_avx2<'a, T: Lane>(
    tile: &[T],
    stride: usize,
    rows: impl Iterator<Item = (&'a [f32], &'a mut [f32])>,
    fresh: bool,
) {
    for (weights, ctx) in rows {
        let (ctx8, ctx_tail) = ctx.as_chunks_mut::<8>();
        let (groups, rest) = ctx8.as_chunks_mut::<8>();
        for (g, lanes) in groups.iter_mut().enumerate() {
            accumulate::<8, _>(weights, tile, stride, g * 64, lanes, fresh);
        }
        let col = groups.len() * 64;
        match rest.len() {
            1 => accumulate::<1, _>(weights, tile, stride, col, rest, fresh),
            2 => accumulate::<2, _>(weights, tile, stride, col, rest, fresh),
            3 => accumulate::<3, _>(weights, tile, stride, col, rest, fresh),
            4 => accumulate::<4, _>(weights, tile, stride, col, rest, fresh),
            5 => accumulate::<5, _>(weights, tile, stride, col, rest, fresh),
            6 => accumulate::<6, _>(weights, tile, stride, col, rest, fresh),
            7 => accumulate::<7, _>(weights, tile, stride, col, rest, fresh),
            _ => {}
        }
        let col = col + rest.len() * 8;
        for (j, c) in (col..).zip(ctx_tail) {
            if fresh {
                *c = 0.0;
            }
            for (t, &w) in weights.iter().enumerate() {
                if w != 0.0 {
                    *c += w * tile[t * stride + j].to_f32();
                }
            }
        }
    }
}

/// `lanes` (the `K` eight-lane chunks of a context from column `col`)
/// `+= Σ_t weights[t] · tile[t * stride + col..][..8K]`, `t` ascending, zero
/// weights skipped, starting from `+0.0` when `fresh`.
#[inline]
#[target_feature(enable = "avx2")]
fn accumulate<const K: usize, T: Lane>(
    weights: &[f32],
    tile: &[T],
    stride: usize,
    col: usize,
    lanes: &mut [[f32; 8]],
    fresh: bool,
) {
    let lanes = &mut lanes[..K];
    let mut acc = [_mm256_setzero_ps(); K];
    if !fresh {
        for (acc, x) in acc.iter_mut().zip(lanes.iter()) {
            *acc = load8(x);
        }
    }
    for (t, &w) in weights.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        let wv = _mm256_set1_ps(w);
        let at = t * stride + col;
        let (row, _) = tile[at..at + K * 8].as_chunks::<8>();
        for (acc, x) in acc.iter_mut().zip(row) {
            *acc = _mm256_add_ps(*acc, _mm256_mul_ps(wv, load_lanes8(x)));
        }
    }
    for (x, &acc) in lanes.iter_mut().zip(&acc) {
        store8(x, acc);
    }
}

/// Activation rows that share each weight load of [`matmul_codes`]: four
/// rows' `i16` and `i32` sums, the weight pair and a broadcast fit the
/// sixteen `ymm` registers.
const CODE_ROWS: usize = 4;

/// [`crate::ops::matmul_codes`] on a CPU with AVX2 and FMA. Returns
/// `false`, writing nothing, when the CPU lacks them, when a block is odd
/// (an input pair would straddle two steps), or when one `vpmaddubsw`
/// could saturate (`2·q_max·|m|_max` past `i16::MAX`: 8-bit weights with
/// 8-bit activations).
#[allow(unsafe_code)]
pub(crate) fn matmul_codes(x: &CodeActs, w: &CodeWeights, out: &mut [f32]) -> bool {
    let m_max = (1i32 << (x.bits() - 1)) - 1;
    let pair_max = 2 * ((1i32 << w.bits()) - 1) * m_max;
    if !x.block().is_multiple_of(2) || pair_max > i32::from(i16::MAX) {
        return false;
    }
    let path = KernelPath::detect();
    if !(path.wide_dot && path.wide_codes) {
        return false;
    }
    debug_assert!(
        (0..x.rows()).all(|r| x.row(r).codes.iter().all(|&m| i32::from(m).abs() <= m_max)),
        "an activation code exceeds {} bits",
        x.bits()
    );
    // Pairs whose `i16` sums cannot overflow: `flush · pair_max <= i16::MAX`.
    let flush = (i32::from(i16::MAX) / pair_max) as usize;
    // SAFETY: `matmul_codes_avx2`'s only requirement of its caller is the
    // `avx2` and `fma` target features, detected just above.
    unsafe { matmul_codes_avx2(x, w, out, flush) };
    true
}

/// The activation rows [`CODE_ROWS`] at a time, the leftover rows as one
/// narrower group.
#[target_feature(enable = "avx2,fma")]
fn matmul_codes_avx2(x: &CodeActs, w: &CodeWeights, out: &mut [f32], flush: usize) {
    let d_out = w.d_out();
    let mut r = 0;
    while r < x.rows() {
        let n = CODE_ROWS.min(x.rows() - r);
        let out = &mut out[r * d_out..(r + n) * d_out];
        match n {
            4 => code_rows::<4>(x, r, w, out, flush),
            3 => code_rows::<3>(x, r, w, out, flush),
            2 => code_rows::<2>(x, r, w, out, flush),
            _ => code_rows::<1>(x, r, w, out, flush),
        }
        r += n;
    }
    // Leave the upper halves of the vector registers clean for the scalar
    // and SSE code that follows (`libm`'s `expf` in the FFN's SiLU ran ~30x
    // slower after this kernel without it on the Xeon host measured).
    _mm256_zeroupper();
}

/// `R` activation rows from `r0` against every panel of `w`: per block,
/// each 32-byte load of two inputs × sixteen channels meets every row's
/// broadcast input pair in one `vpmaddubsw` and one `i16` add; every
/// `flush` pairs the `i16` sums widen into `i32`, and at the block's end
/// the `i32` sums times the row's step go into `f64` (exact, so the fused
/// multiply-add is the spec's add). Then the outlier terms, sixteen
/// channels at a time, and the epilogue in the spec's order.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn code_rows<const R: usize>(
    x: &CodeActs,
    r0: usize,
    w: &CodeWeights,
    out: &mut [f32],
    flush: usize,
) {
    let (block, width, d_out) = (x.block(), x.width(), w.d_out());
    let npairs = width.div_ceil(2);
    let mut rows: [CodeRow<'_>; R] = [x.row(r0); R];
    let mut pairs: [&[[i8; 2]]; R] = [&[]; R];
    let mut sums = [0.0f64; R];
    for i in 0..R {
        rows[i] = x.row(r0 + i);
        pairs[i] = &rows[i].codes.as_chunks::<2>().0[..npairs];
        sums[i] = code_row_sum(rows[i], block, width, w.outlier_rows());
    }
    for p in 0..w.panels() {
        let panel = &w.panel(p)[..npairs];
        let mut acc = [[_mm256_setzero_pd(); 4]; R];
        for (b, k0) in (0..npairs).step_by(block / 2).enumerate() {
            let k1 = (k0 + block / 2).min(npairs);
            let mut s32 = [[_mm256_setzero_si256(); 2]; R];
            let mut k = k0;
            while k < k1 {
                let end = (k + flush).min(k1);
                let mut s16 = [_mm256_setzero_si256(); R];
                for kk in k..end {
                    let wv = load_codes32(&panel[kk]);
                    for i in 0..R {
                        let [m0, m1] = pairs[i][kk];
                        let a = _mm256_set1_epi16(i16::from_le_bytes([m0 as u8, m1 as u8]));
                        s16[i] = _mm256_add_epi16(s16[i], _mm256_maddubs_epi16(wv, a));
                    }
                }
                for i in 0..R {
                    let (lo, hi) = halves(s16[i]);
                    s32[i][0] = _mm256_add_epi32(s32[i][0], _mm256_cvtepi16_epi32(lo));
                    s32[i][1] = _mm256_add_epi32(s32[i][1], _mm256_cvtepi16_epi32(hi));
                }
                k = end;
            }
            for i in 0..R {
                let step = _mm256_set1_pd(rows[i].steps[b]);
                let ((q0, q1), (q2, q3)) = (halves(s32[i][0]), halves(s32[i][1]));
                for (acc, q) in acc[i].iter_mut().zip([q0, q1, q2, q3]) {
                    *acc = _mm256_fmadd_pd(step, _mm256_cvtepi32_pd(q), *acc);
                }
            }
        }
        // The activation outliers: each one's sixteen weight codes are the
        // low (even input) or high (odd input) byte of every lane of its
        // pair's load, widened to `f64`.
        for i in 0..R {
            for (&j, &o) in rows[i].out_idx.iter().zip(rows[i].out_val) {
                let j = j as usize;
                let wv = load_codes32(&panel[j / 2]);
                let q16 = if j.is_multiple_of(2) {
                    _mm256_and_si256(wv, _mm256_set1_epi16(0xFF))
                } else {
                    _mm256_srli_epi16::<8>(wv)
                };
                let ov = _mm256_set1_pd(o);
                for (acc, q) in acc[i].iter_mut().zip(widen_codes16(q16)) {
                    *acc = _mm256_fmadd_pd(ov, q, *acc);
                }
            }
        }
        // The epilogue: `s·acc + lo·X`, then the bfloat16 rows in order.
        let (scale, lo) = w.panel_grid(p);
        let mut y = [[_mm256_setzero_pd(); 4]; R];
        for i in 0..R {
            let xs = _mm256_set1_pd(sums[i]);
            for q in 0..4 {
                let s = _mm256_mul_pd(load4(&scale[q]), acc[i][q]);
                y[i][q] = _mm256_add_pd(s, _mm256_mul_pd(load4(&lo[q]), xs));
            }
        }
        for (k, &row) in w.outlier_rows().iter().enumerate() {
            let mut wf = [[0.0f64; 4]; 4];
            for (j, &v) in w.panel_outlier_w(k, p).iter().enumerate() {
                wf[j / 4][j % 4] = f64::from(v.to_f32());
            }
            for i in 0..R {
                let xv = _mm256_set1_pd(rows[i].value(row, block));
                for q in 0..4 {
                    y[i][q] = _mm256_fmadd_pd(xv, load4(&wf[q]), y[i][q]);
                }
            }
        }
        let (c0, n) = (p * PANEL_WIDTH, (d_out - p * PANEL_WIDTH).min(PANEL_WIDTH));
        for i in 0..R {
            let mut lanes = [[0.0f32; 4]; 4];
            for q in 0..4 {
                store4(&mut lanes[q], _mm256_cvtpd_ps(y[i][q]));
            }
            let lanes = lanes.as_flattened();
            out[i * d_out + c0..i * d_out + c0 + n].copy_from_slice(&lanes[..n]);
        }
    }
}

/// The low and high 128-bit halves of `v`.
#[inline]
#[target_feature(enable = "avx2")]
fn halves(v: __m256i) -> (__m128i, __m128i) {
    (_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v))
}

/// Sixteen `u16` codes as four vectors of four `f64` (exact), lowest first.
#[inline]
#[target_feature(enable = "avx2")]
fn widen_codes16(q: __m256i) -> [__m256d; 4] {
    let (lo, hi) = halves(q);
    let (a, b) = halves(_mm256_cvtepu16_epi32(lo));
    let (c, d) = halves(_mm256_cvtepu16_epi32(hi));
    [_mm256_cvtepi32_pd(a), _mm256_cvtepi32_pd(b), _mm256_cvtepi32_pd(c), _mm256_cvtepi32_pd(d)]
}

/// [`crate::ops::bf16_image`] on a CPU with AVX2 (the caller checks
/// [`KernelPath::wide_codes`] and the lengths; this asserts the first).
#[allow(unsafe_code)]
pub(crate) fn bf16_image(x: &[f32], out: &mut [Bf16]) {
    assert!(KernelPath::detect().wide_codes, "bf16_image's wide path needs AVX2");
    // SAFETY: `bf16_image_avx2`'s only requirement of its caller is the
    // `avx2` target feature, asserted just above.
    unsafe { bf16_image_avx2(x, out) };
}

/// Sixteen elements a step: two vectors rounded, packed to `u16` and put
/// back in order (the pack interleaves its inputs by 128-bit half).
#[target_feature(enable = "avx2")]
fn bf16_image_avx2(x: &[f32], out: &mut [Bf16]) {
    let (x16, x_tail) = x.as_chunks::<16>();
    let (o16, o_tail) = out.as_chunks_mut::<16>();
    for (x, o) in x16.iter().zip(o16) {
        let [lo, hi] = load16(x);
        let packed = _mm256_packus_epi32(bf16_round8(lo), bf16_round8(hi));
        store_bf16x16(o, _mm256_permute4x64_epi64::<0b11_01_10_00>(packed));
    }
    for (o, &v) in o_tail.iter_mut().zip(x_tail) {
        *o = Bf16::from_f32(v);
    }
    _mm256_zeroupper();
}

/// `Bf16::from_f32` of eight lanes, each in the low half of its `i32` lane:
/// `(bits + 0x7FFF + lsb) >> 16`, or the sign over `0x7FC0` for a NaN.
#[inline]
#[target_feature(enable = "avx2")]
fn bf16_round8(v: __m256) -> __m256i {
    let bits = _mm256_castps_si256(v);
    let high = _mm256_srli_epi32::<16>(bits);
    let lsb = _mm256_and_si256(high, _mm256_set1_epi32(1));
    let bias = _mm256_add_epi32(lsb, _mm256_set1_epi32(0x7FFF));
    let rounded = _mm256_srli_epi32::<16>(_mm256_add_epi32(bits, bias));
    let sign = _mm256_and_si256(high, _mm256_set1_epi32(0x8000));
    let quiet = _mm256_or_si256(sign, _mm256_set1_epi32(0x7FC0));
    let nan = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v));
    _mm256_blendv_epi8(rounded, quiet, nan)
}

/// [`crate::ops::top_magnitudes`] on a CPU with AVX2 (the caller checks
/// [`KernelPath::wide_codes`] and the shapes; this asserts the first).
#[allow(unsafe_code)]
pub(crate) fn top_magnitudes(block: &[Bf16], keys: &mut [u32], top: &mut [usize]) {
    assert!(KernelPath::detect().wide_codes, "top_magnitudes' wide path needs AVX2");
    // SAFETY: `top_magnitudes_avx2`'s only requirement of its caller is the
    // `avx2` target feature, asserted just above.
    unsafe { top_magnitudes_avx2(block, keys, top) };
}

/// The keys eight at a time, then each pick as four `max` chains over the
/// keys below the previous pick. Every key is below `2^31` (`0x8000 << 15`
/// plus an index), so signed compares and maxima order them as unsigned.
#[target_feature(enable = "avx2")]
fn top_magnitudes_avx2(block: &[Bf16], keys: &mut [u32], top: &mut [usize]) {
    let (b8, b_tail) = block.as_chunks::<8>();
    let (k8, k_tail) = keys.as_chunks_mut::<8>();
    let mut low = _mm256_setr_epi32(0x7FFF, 0x7FFE, 0x7FFD, 0x7FFC, 0x7FFB, 0x7FFA, 0x7FF9, 0x7FF8);
    for (b, k) in b8.iter().zip(k8.iter_mut()) {
        let mag =
            _mm256_and_si256(_mm256_cvtepu16_epi32(load_bf16x8(b)), _mm256_set1_epi32(0x7FFF));
        let nan = _mm256_cmpgt_epi32(mag, _mm256_set1_epi32(0x7F80));
        let mag = _mm256_blendv_epi8(mag, _mm256_set1_epi32(0x8000), nan);
        store_keys8(k, _mm256_or_si256(_mm256_slli_epi32::<15>(mag), low));
        low = _mm256_sub_epi32(low, _mm256_set1_epi32(8));
    }
    for (j, (k, &v)) in (b8.len() * 8..).zip(k_tail.iter_mut().zip(b_tail)) {
        *k = magnitude_key(v, j);
    }

    let (k8, k_tail) = keys.as_chunks::<8>();
    let (k32, k8_rest) = k8.as_chunks::<4>();
    let mut prev = i32::MAX as u32;
    for slot in top {
        let below = _mm256_set1_epi32(prev as i32);
        let kept = |k: &[u32; 8]| {
            let k = load_keys8(k);
            _mm256_and_si256(k, _mm256_cmpgt_epi32(below, k))
        };
        let mut m = [_mm256_setzero_si256(); 4];
        for k in k32 {
            for i in 0..4 {
                m[i] = _mm256_max_epi32(m[i], kept(&k[i]));
            }
        }
        for k in k8_rest {
            m[0] = _mm256_max_epi32(m[0], kept(k));
        }
        let m = _mm256_max_epi32(_mm256_max_epi32(m[0], m[1]), _mm256_max_epi32(m[2], m[3]));
        let mut best = max_lane(m);
        for &k in k_tail {
            if k < prev {
                best = best.max(k);
            }
        }
        prev = best;
        *slot = key_index(best);
    }
    _mm256_zeroupper();
}

/// The largest of eight non-negative `i32` lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn max_lane(v: __m256i) -> u32 {
    let (lo, hi) = halves(v);
    let m = _mm_max_epi32(lo, hi);
    let m = _mm_max_epi32(m, _mm_shuffle_epi32::<0b01_00_11_10>(m));
    let m = _mm_max_epi32(m, _mm_shuffle_epi32::<0b10_11_00_01>(m));
    _mm_cvtsi128_si32(m) as u32
}

/// [`crate::ops::shift_codes`] on a CPU with AVX2 (the caller checks
/// [`KernelPath::wide_codes`], the lengths and `bits`; this asserts the first).
#[allow(unsafe_code)]
pub(crate) fn shift_codes(
    bf: &[Bf16],
    scale: i32,
    bits: u32,
    rounding: Rounding,
    codes: &mut [i8],
) {
    assert!(KernelPath::detect().wide_codes, "shift_codes' wide path needs AVX2");
    // SAFETY: `shift_codes_avx2`'s only requirement of its caller is the
    // `avx2` target feature, asserted just above.
    unsafe {
        match rounding {
            Rounding::NearestEven => shift_codes_avx2::<true>(bf, scale, bits, codes),
            Rounding::Truncate => shift_codes_avx2::<false>(bf, scale, bits, codes),
        }
    }
}

/// Sixteen codes a step: two vectors of [`shift8`], packed to `i16` and to
/// `i8` (exact: `|q| <= 127`) and put back in order.
#[target_feature(enable = "avx2")]
fn shift_codes_avx2<const NEAREST: bool>(bf: &[Bf16], scale: i32, bits: u32, codes: &mut [i8]) {
    let lanes = ShiftLanes::new(scale, bits);
    let (b16, b_tail) = bf.as_chunks::<16>();
    let (c16, c_tail) = codes.as_chunks_mut::<16>();
    for (b, c) in b16.iter().zip(c16) {
        let (b8, _) = b.as_chunks::<8>();
        let lo = shift8::<NEAREST>(load_bf16x8(&b8[0]), lanes);
        let hi = shift8::<NEAREST>(load_bf16x8(&b8[1]), lanes);
        let (lo, hi) =
            halves(_mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_packs_epi32(lo, hi)));
        store_codes16(c, _mm_packs_epi16(lo, hi));
    }
    let rounding = if NEAREST { Rounding::NearestEven } else { Rounding::Truncate };
    for (c, &v) in c_tail.iter_mut().zip(b_tail) {
        *c = shift_quantize(v, scale, bits, rounding) as i8;
    }
    _mm256_zeroupper();
}

/// [`crate::ops::shift_values`] on a CPU with AVX2 (the caller checks
/// [`KernelPath::wide_codes`], the lengths and `bits`; this asserts the first).
#[allow(unsafe_code)]
pub(crate) fn shift_values(
    bf: &[Bf16],
    scale: i32,
    bits: u32,
    rounding: Rounding,
    out: &mut [f32],
) {
    assert!(KernelPath::detect().wide_codes, "shift_values' wide path needs AVX2");
    // SAFETY: `shift_values_avx2`'s only requirement of its caller is the
    // `avx2` target feature, asserted just above.
    unsafe {
        match rounding {
            Rounding::NearestEven => shift_values_avx2::<true>(bf, scale, bits, out),
            Rounding::Truncate => shift_values_avx2::<false>(bf, scale, bits, out),
        }
    }
}

/// Eight values a step: [`shift8`]'s codes converted to `f32` (exact) and
/// multiplied by the block's step, the portable loop's one rounding.
#[target_feature(enable = "avx2")]
fn shift_values_avx2<const NEAREST: bool>(bf: &[Bf16], scale: i32, bits: u32, out: &mut [f32]) {
    let lanes = ShiftLanes::new(scale, bits);
    let step = step_size(scale, bits);
    let stepv = _mm256_set1_ps(step);
    let (b8, b_tail) = bf.as_chunks::<8>();
    let (o8, o_tail) = out.as_chunks_mut::<8>();
    for (b, o) in b8.iter().zip(o8) {
        let q = shift8::<NEAREST>(load_bf16x8(b), lanes);
        store8(o, _mm256_mul_ps(_mm256_cvtepi32_ps(q), stepv));
    }
    let rounding = if NEAREST { Rounding::NearestEven } else { Rounding::Truncate };
    for (o, &v) in o_tail.iter_mut().zip(b_tail) {
        *o = shift_quantize(v, scale, bits, rounding) as f32 * step;
    }
    _mm256_zeroupper();
}

/// The per-block operands of [`shift8`]: how far the exponent field moves
/// (`bits − 2 − scale`) and `q_max` as a float.
#[derive(Clone, Copy)]
struct ShiftLanes {
    moved_by: __m256i,
    qmax: __m256,
}

impl ShiftLanes {
    #[inline]
    #[target_feature(enable = "avx2")]
    fn new(scale: i32, bits: u32) -> Self {
        let qmax = (1i32 << (bits - 1)) - 1;
        ShiftLanes {
            moved_by: _mm256_set1_epi32(bits as i32 - 2 - scale),
            qmax: _mm256_set1_ps(qmax as f32),
        }
    }
}

/// `shift_quantize` of eight bfloat16 lanes, as `i32`: its body step for
/// step, a lane each.
#[inline]
#[target_feature(enable = "avx2")]
fn shift8<const NEAREST: bool>(raw: __m128i, lanes: ShiftLanes) -> __m256i {
    let raw = _mm256_cvtepu16_epi32(raw);
    let field = _mm256_and_si256(_mm256_srli_epi32::<7>(raw), _mm256_set1_epi32(0xFF));
    let moved = _mm256_add_epi32(field, lanes.moved_by);
    let moved =
        _mm256_min_epi32(_mm256_max_epi32(moved, _mm256_set1_epi32(1)), _mm256_set1_epi32(254));
    let mantissa = _mm256_slli_epi32::<16>(_mm256_and_si256(raw, _mm256_set1_epi32(0x7F)));
    let scaled = _mm256_castsi256_ps(_mm256_or_si256(_mm256_slli_epi32::<23>(moved), mantissa));
    let scaled = _mm256_min_ps(scaled, lanes.qmax);
    let magnitude = if NEAREST {
        let rounded = _mm256_castps_si256(_mm256_add_ps(scaled, _mm256_set1_ps(8_388_608.0)));
        _mm256_and_si256(rounded, _mm256_set1_epi32(0x7F_FFFF))
    } else {
        _mm256_cvttps_epi32(scaled)
    };
    let flushed = _mm256_cmpeq_epi32(field, _mm256_setzero_si256());
    let magnitude = _mm256_andnot_si256(flushed, magnitude);
    // Negated where the sign bit is set; `raw << 16` is zero only for +0.0,
    // whose magnitude is already 0.
    _mm256_sign_epi32(magnitude, _mm256_slli_epi32::<16>(raw))
}

/// Four `f64` from an array reference.
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx")]
fn load4(x: &[f64; 4]) -> __m256d {
    // SAFETY: `x` is a `&[f64; 4]`, so the 32 bytes the unaligned load
    // reads are in bounds.
    unsafe { _mm256_loadu_pd(x.as_ptr()) }
}

/// Eight `f32` from an array reference.
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx")]
fn load8(x: &[f32; 8]) -> __m256 {
    // SAFETY: `x` is a `&[f32; 8]`, so the 32 bytes the unaligned load
    // reads are in bounds.
    unsafe { _mm256_loadu_ps(x.as_ptr()) }
}

/// Eight lanes as `f32` (exact): [`load8`] or [`widen_bf16x8`], picked per
/// instantiation.
#[inline]
#[target_feature(enable = "avx2")]
fn load_lanes8<T: Lane>(x: &[T; 8]) -> __m256 {
    match T::chunk(x) {
        Chunk::F32(x) => load8(x),
        Chunk::Bf16(x) => widen_bf16x8(x),
    }
}

/// Eight bfloat16 values as `f32` (exact): the sixteen bytes broadcast to
/// both halves (a load, no shuffle), then one byte shuffle that moves
/// lanes 0-3 (low half) and 4-7 (high half) into the high half of each
/// 32-bit lane over zeros.
#[inline]
#[target_feature(enable = "avx2")]
fn widen_bf16x8(x: &[Bf16; 8]) -> __m256 {
    let z = -128i8;
    let high_halves = _mm256_setr_epi8(
        z, z, 0, 1, z, z, 2, 3, z, z, 4, 5, z, z, 6, 7, //
        z, z, 8, 9, z, z, 10, 11, z, z, 12, 13, z, z, 14, 15,
    );
    let both = _mm256_broadcastsi128_si256(load_bf16x8(x));
    _mm256_castsi256_ps(_mm256_shuffle_epi8(both, high_halves))
}

/// Eight `f32` into an array reference.
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx")]
fn store8(x: &mut [f32; 8], v: __m256) {
    // SAFETY: `x` is a `&mut [f32; 8]`, exclusively borrowed, so the 32
    // bytes the unaligned store writes are in bounds and unaliased.
    unsafe { _mm256_storeu_ps(x.as_mut_ptr(), v) }
}

/// Thirty-two weight codes (two inputs × sixteen channels) from an array
/// reference.
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx")]
fn load_codes32(x: &[u8; 32]) -> __m256i {
    // SAFETY: `x` is a `&[u8; 32]`, so the 32 bytes the unaligned load
    // reads are in bounds.
    unsafe { _mm256_loadu_si256(x.as_ptr().cast()) }
}

/// Four `f32` into an array reference.
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx")]
fn store4(x: &mut [f32; 4], v: __m128) {
    // SAFETY: `x` is a `&mut [f32; 4]`, exclusively borrowed, so the 16
    // bytes the unaligned store writes are in bounds and unaliased.
    unsafe { _mm_storeu_ps(x.as_mut_ptr(), v) }
}

/// Sixteen `f32` from an array reference, lowest eight first.
#[inline]
#[target_feature(enable = "avx")]
fn load16(x: &[f32; 16]) -> [__m256; 2] {
    let (x8, _) = x.as_chunks::<8>();
    [load8(&x8[0]), load8(&x8[1])]
}

/// Eight codes, sign-extended and converted to `f32` (exact).
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
fn codes8_ps(c: &[i8; 8]) -> __m256 {
    // SAFETY: `c` is a `&[i8; 8]`, so the 8 bytes `_mm_loadl_epi64` reads
    // are in bounds; it has no alignment requirement.
    let raw: __m128i = unsafe { _mm_loadl_epi64(c.as_ptr().cast()) };
    _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw))
}

/// Eight bfloat16 values from an array reference, as eight `u16`.
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
fn load_bf16x8(x: &[Bf16; 8]) -> __m128i {
    // SAFETY: `x` is a `&[Bf16; 8]` and `Bf16` is a `repr(transparent)`
    // `u16`, so the 16 bytes the unaligned load reads are in bounds.
    unsafe { _mm_loadu_si128(x.as_ptr().cast()) }
}

/// Sixteen bfloat16 values (the sixteen `u16` of `v`, lowest first) into an
/// array reference.
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
fn store_bf16x16(x: &mut [Bf16; 16], v: __m256i) {
    // SAFETY: `x` is a `&mut [Bf16; 16]`, exclusively borrowed, and `Bf16`
    // is a `repr(transparent)` `u16` (every bit pattern is a value), so the
    // 32 bytes the unaligned store writes are in bounds and unaliased.
    unsafe { _mm256_storeu_si256(x.as_mut_ptr().cast(), v) }
}

/// Eight selection keys from an array reference.
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
fn load_keys8(x: &[u32; 8]) -> __m256i {
    // SAFETY: `x` is a `&[u32; 8]`, so the 32 bytes the unaligned load
    // reads are in bounds.
    unsafe { _mm256_loadu_si256(x.as_ptr().cast()) }
}

/// Eight selection keys into an array reference.
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
fn store_keys8(x: &mut [u32; 8], v: __m256i) {
    // SAFETY: `x` is a `&mut [u32; 8]`, exclusively borrowed, so the 32
    // bytes the unaligned store writes are in bounds and unaliased.
    unsafe { _mm256_storeu_si256(x.as_mut_ptr().cast(), v) }
}

/// Sixteen `i8` codes into an array reference.
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
fn store_codes16(x: &mut [i8; 16], v: __m128i) {
    // SAFETY: `x` is a `&mut [i8; 16]`, exclusively borrowed, so the 16
    // bytes the unaligned store writes are in bounds and unaliased.
    unsafe { _mm_storeu_si128(x.as_mut_ptr().cast(), v) }
}
