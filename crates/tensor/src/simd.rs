//! The wide (x86-64 AVX / FMA / AVX2) instantiations of the portable
//! kernels, chosen at run time and bit-identical to them.
//!
//! **The [`crate::ops::dot`] lane schedule, eight rows at once** (AVX +
//! FMA) — the wide path of [`crate::Matrix::matvec_into`] and
//! [`crate::Matrix::matmul_t_into`]. One `ops::dot` is one 4-wide `f64`
//! dependency chain, so a row-at-a-time GEMV is bound by the latency of that
//! chain. Rows are independent: a block keeps the four accumulators of each
//! of up to eight rows in one `__m256d` (lane `k` is `ops::dot`'s `acc_k`)
//! and walks them together, so eight chains are in flight against one
//! conversion of the shared vector. Every output element still sees the
//! addends of its own `ops::dot` in the same order. The multiply-add is
//! fused, and that is bitwise the spec's unfused pair: an `f32 × f32`
//! product has at most 48 significant bits and an exponent well inside
//! `f64`'s range, so the `f64` multiply is exact and the one rounding of
//! `fma(a, b, acc)` is the add's rounding. The portable loops stay the
//! spec, the test oracle and the path on every other CPU, a CPU with AVX
//! but no FMA included.
//!
//! **The quantized-KV code kernels** (AVX2): [`crate::ops::axpy_codes`]
//! eight codes at once, [`crate::ops::dot_codes_tile`] as blocks of two
//! query rows × two code rows or one × four (each code chunk converted once
//! per block, four `dot_codes` chains in flight, their in-order lane sums
//! interleaved), and [`crate::ops::axpy_codes_tile`] with each context held
//! in registers, 64 lanes at a time, across a page. Each performs the
//! portable loop's operations per element in its order, none fused.
//!
//! A `#[target_feature]` fn calls value-taking intrinsics safely, so the
//! `unsafe` operations are two kinds only: calling such a fn from ordinary
//! code, once per driver behind the runtime detection; and the vector loads
//! and stores of the four helpers at the end of this file, each through a
//! pointer taken from a fixed-size array reference.

use std::arch::x86_64::{
    __m128i, __m256, __m256d, _mm256_add_ps, _mm256_castpd256_pd128, _mm256_cvtepi32_ps,
    _mm256_cvtepi8_epi32, _mm256_cvtps_pd, _mm256_extractf128_pd, _mm256_fmadd_pd, _mm256_loadu_ps,
    _mm256_mul_ps, _mm256_set1_pd, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    _mm_cvtsd_f64, _mm_loadl_epi64, _mm_set_ps, _mm_unpackhi_pd,
};

use crate::ops::{check_tile_row, tile_width};

/// Rows per full block: eight accumulators, the shared chunk and one
/// product fit the sixteen `ymm` registers without spilling.
const BLOCK: usize = 8;

/// Whether the wide GEMV / GEMM path runs on this CPU (cached by `std`
/// after the first call). `bench_decode`'s `kernel_path()` restates this
/// rule to label `BENCH_decode.json`, because the crate exposes no query:
/// change the two together.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx") && is_x86_feature_detected!("fma")
}

/// `out[i] = ops::dot(row i of w, v)` for the `out.len()` rows of the flat
/// row-major `w`. Returns `false`, writing nothing, when the CPU lacks AVX
/// and FMA or `v` is empty (the portable loop's zero-width behaviour is
/// kept).
#[allow(unsafe_code)]
pub(crate) fn matvec(w: &[f32], v: &[f32], out: &mut [f32]) -> bool {
    if v.is_empty() || !available() {
        return false;
    }
    assert_eq!(w.len(), out.len() * v.len(), "matrix size mismatch");
    // SAFETY: `matvec_avx` is a safe fn whose only requirement is the `avx`
    // and `fma` target features, which `available()` has just detected on
    // this CPU.
    unsafe { matvec_avx(w, v, out) };
    true
}

/// `out[i * n + j] = ops::dot(row i of a, row j of b)` for flat row-major
/// `a` and `b` of row width `d > 0`, `n` the row count of `b`. Returns
/// `false`, writing nothing, when the CPU lacks AVX and FMA.
#[allow(unsafe_code)]
pub(crate) fn matmul_t(a: &[f32], b: &[f32], d: usize, out: &mut [f32]) -> bool {
    if !available() {
        return false;
    }
    assert!(d > 0 && a.len().is_multiple_of(d) && b.len().is_multiple_of(d), "row width mismatch");
    assert_eq!(out.len(), (a.len() / d) * (b.len() / d), "output size mismatch");
    // SAFETY: `matmul_t_avx` is a safe fn whose only requirement is the
    // `avx` and `fma` target features, which `available()` has just
    // detected on this CPU.
    unsafe { matmul_t_avx(a, b, d, out) };
    true
}

/// Eight weight rows share the vector; the rows left over go through one
/// narrower block.
#[target_feature(enable = "avx,fma")]
fn matvec_avx(w: &[f32], v: &[f32], out: &mut [f32]) {
    let mut rows = w.chunks_exact(BLOCK * v.len());
    let mut outs = out.chunks_exact_mut(BLOCK);
    for (rows, o) in rows.by_ref().zip(outs.by_ref()) {
        block::<BLOCK>(rows, v, |r, x| o[r] = x);
    }
    let o = outs.into_remainder();
    remainder(rows.remainder(), v, |r, x| o[r] = x);
}

/// `b`-row-major like the portable loop: each `b` row (a transposed weight
/// row) is loaded once and shared by eight `a` rows (activations) at a time.
///
/// The `a` rows left over after the eight-row blocks are one narrower block
/// per `b` row when there are three or more (that many chains cover the add
/// latency). One or two would be one or two chains per `b` row, about half
/// the GEMV's rate — and a one-row product is what every decode step of a
/// lone sequence is — so each of those goes through the [`matvec_avx`]
/// driver instead, where eight `b` rows share it (`ops::dot` is bitwise
/// commutative, so which operand is "the vector" does not show).
#[target_feature(enable = "avx,fma")]
fn matmul_t_avx(a: &[f32], b: &[f32], d: usize, out: &mut [f32]) {
    let n = b.len() / d;
    let rows = a.len() / d;
    let lone = if rows % BLOCK <= 2 { rows % BLOCK } else { 0 };
    let (a_blocks, a_lone) = a.split_at((rows - lone) * d);
    if !a_blocks.is_empty() {
        for (j, b_row) in b.chunks_exact(d).enumerate() {
            let mut rows = a_blocks.chunks_exact(BLOCK * d);
            let mut i0 = 0;
            for rows in rows.by_ref() {
                block::<BLOCK>(rows, b_row, |r, x| out[(i0 + r) * n + j] = x);
                i0 += BLOCK;
            }
            remainder(rows.remainder(), b_row, |r, x| out[(i0 + r) * n + j] = x);
        }
    }
    let out_lone = out[(rows - lone) * n..].chunks_exact_mut(n);
    for (a_row, o) in a_lone.chunks_exact(d).zip(out_lone) {
        matvec_avx(b, a_row, o);
    }
}

/// The `rows.len() / v.len()` (fewer than [`BLOCK`]) rows a driver has left
/// over, as one block of exactly that many rows: 5 rows is the speculative
/// verify pass and 1-7 rows are prefill tails, so a one-row loop here would
/// put them back on a single chain.
#[inline]
#[target_feature(enable = "avx,fma")]
fn remainder(rows: &[f32], v: &[f32], store: impl FnMut(usize, f32)) {
    match rows.len() / v.len() {
        1 => block::<1>(rows, v, store),
        2 => block::<2>(rows, v, store),
        3 => block::<3>(rows, v, store),
        4 => block::<4>(rows, v, store),
        5 => block::<5>(rows, v, store),
        6 => block::<6>(rows, v, store),
        7 => block::<7>(rows, v, store),
        left => debug_assert_eq!(left, 0, "remainder of chunks_exact(BLOCK * d)"),
    }
}

/// `store(r, ops::dot(row r, v))` for the `N` rows of width `v.len()` laid
/// end to end in `rows`.
#[inline]
#[target_feature(enable = "avx,fma")]
fn block<const N: usize>(rows: &[f32], v: &[f32], mut store: impl FnMut(usize, f32)) {
    let d = v.len();
    assert_eq!(rows.len(), N * d, "block shape mismatch");
    let (v4, v_tail) = v.as_chunks::<4>();
    // Plain loops, not `array::from_fn`: a closure handed to a generic `std`
    // fn keeps this fn's target feature while the `std` fn has none, which
    // stops the inliner and leaves a call per row.
    let mut body: [&[[f32; 4]]; N] = [&[]; N];
    let mut tail: [&[f32]; N] = [&[]; N];
    for ((body, tail), row) in body.iter_mut().zip(&mut tail).zip(rows.chunks_exact(d)) {
        let (chunks, rest) = row.as_chunks::<4>();
        // Same length as `v4` by construction; saying so here lets the
        // chunk loop index without bounds checks.
        (*body, *tail) = (&chunks[..v4.len()], rest);
    }
    let widen = |x: &[f32; 4]| _mm256_cvtps_pd(_mm_set_ps(x[3], x[2], x[1], x[0]));

    let mut acc = [_mm256_set1_pd(-0.0); N];
    for (c, x) in v4.iter().enumerate() {
        let x = widen(x);
        for (acc, body) in acc.iter_mut().zip(&body) {
            // `acc + w · x` with one rounding: the product is exact in f64.
            *acc = _mm256_fmadd_pd(widen(&body[c]), x, *acc);
        }
    }
    for (r, (&acc, tail)) in acc.iter().zip(tail).enumerate() {
        let [mut l0, l1, l2, l3] = lanes(acc);
        for (&w, &x) in tail.iter().zip(v_tail) {
            l0 += f64::from(w) * f64::from(x);
        }
        store(r, ((l0 + l1) + (l2 + l3)) as f32);
    }
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

/// Whether the code kernels ([`axpy_codes`], [`dot_codes_tile`],
/// [`axpy_codes_tile`]) run their wide paths on this CPU.
pub(crate) fn codes_available() -> bool {
    is_x86_feature_detected!("avx2")
}

/// [`crate::ops::axpy_codes`] for equal-length `codes` and `ctx`. Returns
/// `false`, writing nothing, when the CPU lacks AVX2.
#[inline]
#[allow(unsafe_code)]
pub(crate) fn axpy_codes(w: f32, step: f32, codes: &[i8], ctx: &mut [f32]) -> bool {
    if !codes_available() {
        return false;
    }
    // SAFETY: `axpy_codes_avx2`'s only requirement of its caller is the
    // `avx2` target feature, which `codes_available()` has just detected on
    // this CPU.
    unsafe { axpy_codes_avx2(w, step, codes, ctx) };
    true
}

/// Eight codes per step: sign-extend to `i32`, convert (exact), multiply by
/// `step`, multiply by `w`, add to the context — the portable loop's three
/// operations in its association, none fused. The sub-8 tail is that loop.
#[target_feature(enable = "avx2")]
fn axpy_codes_avx2(w: f32, step: f32, codes: &[i8], ctx: &mut [f32]) {
    let (codes8, codes_tail) = codes.as_chunks::<8>();
    let (ctx8, ctx_tail) = ctx.as_chunks_mut::<8>();
    let (wv, stepv) = (_mm256_set1_ps(w), _mm256_set1_ps(step));
    for (c, x) in codes8.iter().zip(ctx8) {
        let v = _mm256_mul_ps(codes8_ps(c), stepv);
        let sum = _mm256_add_ps(load8(x), _mm256_mul_ps(wv, v));
        store8(x, sum);
    }
    crate::ops::axpy_codes_portable(w, step, codes_tail, ctx_tail);
}

/// [`crate::ops::dot_codes_tile`] on a CPU with AVX2 (the caller checks
/// [`codes_available`]; this asserts it).
#[allow(unsafe_code)]
pub(crate) fn dot_codes_tile<'a>(
    codes: &[i8],
    stride: usize,
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
) {
    assert!(codes_available(), "dot_codes_tile's wide path needs AVX2");
    // SAFETY: `dot_codes_tile_avx2`'s only requirement of its caller is the
    // `avx2` target feature, asserted just above.
    unsafe { dot_codes_tile_avx2(codes, stride, rows.into_iter()) };
}

/// Query rows two at a time while the next row has the same shape, each
/// pair against two code rows per block; a lone query row against four.
#[target_feature(enable = "avx2")]
fn dot_codes_tile_avx2<'a>(
    codes: &[i8],
    stride: usize,
    mut rows: impl Iterator<Item = (&'a [f32], &'a mut [f32])>,
) {
    let mut next = rows.next();
    while let Some((qa, oa)) = next.take() {
        next = rows.next();
        let n = oa.len();
        if let Some((qb, ob)) = next.take_if(|(qb, ob)| qb.len() == qa.len() && ob.len() == n) {
            let mut outs = [oa, ob];
            let mut t = 0;
            while t + 2 <= n {
                dot_codes_run::<2, 2>(codes, stride, [qa, qb], &mut outs, t);
                t += 2;
            }
            if t < n {
                dot_codes_run::<2, 1>(codes, stride, [qa, qb], &mut outs, t);
            }
            next = rows.next();
        } else {
            let mut outs = [oa];
            let mut t = 0;
            while t + 4 <= n {
                dot_codes_run::<1, 4>(codes, stride, [qa], &mut outs, t);
                t += 4;
            }
            match n - t {
                1 => dot_codes_run::<1, 1>(codes, stride, [qa], &mut outs, t),
                2 => dot_codes_run::<1, 2>(codes, stride, [qa], &mut outs, t),
                3 => dot_codes_run::<1, 3>(codes, stride, [qa], &mut outs, t),
                _ => {}
            }
        }
    }
}

/// `outs[i][t + k] = dot_codes(qs[i], code row t + k)` for `k < T`.
#[inline]
#[target_feature(enable = "avx2")]
fn dot_codes_run<const Q: usize, const T: usize>(
    codes: &[i8],
    stride: usize,
    qs: [&[f32]; Q],
    outs: &mut [&mut [f32]; Q],
    t: usize,
) {
    let width = qs[0].len();
    let mut rows: [&[i8]; T] = [&[]; T];
    for (k, row) in rows.iter_mut().enumerate() {
        let at = (t + k) * stride;
        *row = &codes[at..at + width];
    }
    let sums = dot_codes_block::<Q, T>(qs, rows);
    for (out, sums) in outs.iter_mut().zip(&sums) {
        out[t..t + T].copy_from_slice(sums);
    }
}

/// `dot_codes(qs[i], codes[t])` for the `Q × T` pairs of equal-width rows:
/// each code chunk is converted once and used by every query row, the
/// pairs' sixteen-lane accumulators advance together, and their in-order
/// lane sums run interleaved, one chain per pair.
#[inline]
#[target_feature(enable = "avx2")]
fn dot_codes_block<const Q: usize, const T: usize>(
    qs: [&[f32]; Q],
    codes: [&[i8]; T],
) -> [[f32; T]; Q] {
    let width = qs[0].len();
    let n16 = width / 16;
    let mut q16: [&[[f32; 16]]; Q] = [&[]; Q];
    for (q16, q) in q16.iter_mut().zip(&qs) {
        *q16 = &q.as_chunks::<16>().0[..n16];
    }
    let mut c16: [&[[i8; 16]]; T] = [&[]; T];
    for (c16, c) in c16.iter_mut().zip(&codes) {
        *c16 = &c.as_chunks::<16>().0[..n16];
    }

    let mut acc = [[[_mm256_set1_ps(-0.0); 2]; T]; Q];
    for c in 0..n16 {
        let mut k = [[_mm256_setzero_ps(); 2]; T];
        for (k, c16) in k.iter_mut().zip(&c16) {
            *k = codes16_ps(&c16[c]);
        }
        for (acc, q16) in acc.iter_mut().zip(&q16) {
            let x = load16(&q16[c]);
            for (acc, k) in acc.iter_mut().zip(&k) {
                acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(x[0], k[0]));
                acc[1] = _mm256_add_ps(acc[1], _mm256_mul_ps(x[1], k[1]));
            }
        }
    }

    let mut lanes = [[[0.0f32; 16]; T]; Q];
    for (lanes, acc) in lanes.iter_mut().zip(&acc) {
        for (lanes, &acc) in lanes.iter_mut().zip(acc) {
            store16(lanes, acc);
        }
    }
    let mut sums = [[-0.0f32; T]; Q];
    for k in 0..16 {
        for (sums, lanes) in sums.iter_mut().zip(&lanes) {
            for (s, lanes) in sums.iter_mut().zip(lanes) {
                *s += lanes[k];
            }
        }
    }
    let tail = n16 * 16;
    for (sums, q) in sums.iter_mut().zip(&qs) {
        for (s, c) in sums.iter_mut().zip(&codes) {
            for (&x, &code) in q[tail..].iter().zip(&c[tail..]) {
                *s += x * f32::from(code);
            }
        }
    }
    sums
}

/// [`crate::ops::axpy_codes_tile`] on a CPU with AVX2 (the caller checks
/// [`codes_available`]; this asserts it).
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
    assert!(codes_available(), "axpy_codes_tile's wide path needs AVX2");
    let rows = rows.into_iter();
    // SAFETY: `axpy_codes_tile_avx2`'s only requirement of its caller is
    // the `avx2` target feature, asserted just above.
    unsafe { axpy_codes_tile_avx2(codes, stride, steps, patch, tile, rows, fresh) };
}

/// Dequantizes eight codes per step (sign-extend, convert, multiply by the
/// row's step: the portable loop's one rounding), lets `patch` write the
/// outliers, then walks each query row's context in groups of up to 64
/// lanes held in registers across all the tile's rows.
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
    let tile: &[f32] = tile;
    for (weights, ctx) in rows {
        check_tile_row(n, width, weights, ctx);
        let (ctx8, ctx_tail) = ctx.as_chunks_mut::<8>();
        let (groups, rest) = ctx8.as_chunks_mut::<8>();
        for (g, lanes) in groups.iter_mut().enumerate() {
            accumulate::<8>(weights, tile, width, g * 64, lanes, fresh);
        }
        let col = groups.len() * 64;
        match rest.len() {
            1 => accumulate::<1>(weights, tile, width, col, rest, fresh),
            2 => accumulate::<2>(weights, tile, width, col, rest, fresh),
            3 => accumulate::<3>(weights, tile, width, col, rest, fresh),
            4 => accumulate::<4>(weights, tile, width, col, rest, fresh),
            5 => accumulate::<5>(weights, tile, width, col, rest, fresh),
            6 => accumulate::<6>(weights, tile, width, col, rest, fresh),
            7 => accumulate::<7>(weights, tile, width, col, rest, fresh),
            _ => {}
        }
        let col = col + rest.len() * 8;
        for (j, c) in (col..).zip(ctx_tail) {
            if fresh {
                *c = 0.0;
            }
            for (t, &w) in weights.iter().enumerate() {
                if w != 0.0 {
                    *c += w * tile[t * width + j];
                }
            }
        }
    }
}

/// `lanes` (the `K` eight-lane chunks of a context from column `col`)
/// `+= Σ_t weights[t] · tile[t][col..col + 8K]`, `t` ascending, zero
/// weights skipped, starting from `+0.0` when `fresh`.
#[inline]
#[target_feature(enable = "avx2")]
fn accumulate<const K: usize>(
    weights: &[f32],
    tile: &[f32],
    width: usize,
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
        let at = t * width + col;
        let (row, _) = tile[at..at + K * 8].as_chunks::<8>();
        for (acc, x) in acc.iter_mut().zip(row) {
            *acc = _mm256_add_ps(*acc, _mm256_mul_ps(wv, load8(x)));
        }
    }
    for (x, &acc) in lanes.iter_mut().zip(&acc) {
        store8(x, acc);
    }
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

/// Eight `f32` into an array reference.
#[inline]
#[allow(unsafe_code)]
#[target_feature(enable = "avx")]
fn store8(x: &mut [f32; 8], v: __m256) {
    // SAFETY: `x` is a `&mut [f32; 8]`, exclusively borrowed, so the 32
    // bytes the unaligned store writes are in bounds and unaliased.
    unsafe { _mm256_storeu_ps(x.as_mut_ptr(), v) }
}

/// Sixteen `f32` from an array reference, lowest eight first.
#[inline]
#[target_feature(enable = "avx")]
fn load16(x: &[f32; 16]) -> [__m256; 2] {
    let (x8, _) = x.as_chunks::<8>();
    [load8(&x8[0]), load8(&x8[1])]
}

/// Sixteen `f32` into an array reference, lowest eight first.
#[inline]
#[target_feature(enable = "avx")]
fn store16(x: &mut [f32; 16], v: [__m256; 2]) {
    let (x8, _) = x.as_chunks_mut::<8>();
    store8(&mut x8[0], v[0]);
    store8(&mut x8[1], v[1]);
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

/// Sixteen codes as [`codes8_ps`] does eight, lowest eight first.
#[inline]
#[target_feature(enable = "avx2")]
fn codes16_ps(c: &[i8; 16]) -> [__m256; 2] {
    let (c8, _) = c.as_chunks::<8>();
    [codes8_ps(&c8[0]), codes8_ps(&c8[1])]
}
