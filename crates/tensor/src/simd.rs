//! The wide (x86-64 AVX / AVX2) instantiations of two portable kernels,
//! chosen at run time and bit-identical to them.
//!
//! **The [`crate::ops::dot`] lane schedule, eight rows at once** — the wide
//! path of [`crate::Matrix::matvec_into`] and
//! [`crate::Matrix::matmul_t_into`]. One `ops::dot` is one 4-wide `f64`
//! dependency chain, so a row-at-a-time GEMV is bound by the latency of that
//! chain. Rows are independent: a block keeps the four accumulators of each
//! of up to eight rows in one `__m256d` (lane `k` is `ops::dot`'s `acc_k`)
//! and walks them together, so eight chains are in flight against one
//! conversion of the shared vector. Every output element still sees the
//! addends of its own `ops::dot` in the same order, with an unfused multiply
//! and add, so results are bit-identical to the portable loops — which stay
//! the spec, the test oracle and the path on every other CPU.
//!
//! **[`crate::ops::axpy_codes`], eight codes at once** (AVX2): the same two
//! unfused multiplies and one add per element as the portable loop.
//!
//! A `#[target_feature]` fn calls value-taking intrinsics safely, so the
//! `unsafe` operations are two kinds only: calling such a fn from ordinary
//! code, once per driver behind the runtime detection; and the vector loads
//! and stores of `axpy_codes_avx2`, each through a pointer taken from a
//! fixed-size array reference out of `as_chunks` / `as_chunks_mut`.

use std::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_add_ps, _mm256_castpd256_pd128, _mm256_cvtepi32_ps,
    _mm256_cvtepi8_epi32, _mm256_cvtps_pd, _mm256_extractf128_pd, _mm256_loadu_ps, _mm256_mul_pd,
    _mm256_mul_ps, _mm256_set1_pd, _mm256_set1_ps, _mm256_storeu_ps, _mm_cvtsd_f64,
    _mm_loadl_epi64, _mm_set_ps, _mm_unpackhi_pd,
};

/// Rows per full block: eight accumulators, the shared chunk and one
/// product fit the sixteen `ymm` registers without spilling.
const BLOCK: usize = 8;

/// Whether the wide path runs on this CPU (cached by `std` after the first
/// call). `bench_decode`'s `kernel_path()` restates this rule to label
/// `BENCH_decode.json`, because the crate exposes no query: change the two
/// together.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx")
}

/// `out[i] = ops::dot(row i of w, v)` for the `out.len()` rows of the flat
/// row-major `w`. Returns `false`, writing nothing, when the CPU lacks AVX
/// or `v` is empty (the portable loop's zero-width behaviour is kept).
#[allow(unsafe_code)]
pub(crate) fn matvec(w: &[f32], v: &[f32], out: &mut [f32]) -> bool {
    if v.is_empty() || !available() {
        return false;
    }
    assert_eq!(w.len(), out.len() * v.len(), "matrix size mismatch");
    // SAFETY: `matvec_avx` is a safe fn whose only requirement is the `avx`
    // target feature, which `available()` has just detected on this CPU.
    unsafe { matvec_avx(w, v, out) };
    true
}

/// `out[i * n + j] = ops::dot(row i of a, row j of b)` for flat row-major
/// `a` and `b` of row width `d > 0`, `n` the row count of `b`. Returns
/// `false`, writing nothing, when the CPU lacks AVX.
#[allow(unsafe_code)]
pub(crate) fn matmul_t(a: &[f32], b: &[f32], d: usize, out: &mut [f32]) -> bool {
    if !available() {
        return false;
    }
    assert!(d > 0 && a.len().is_multiple_of(d) && b.len().is_multiple_of(d), "row width mismatch");
    assert_eq!(out.len(), (a.len() / d) * (b.len() / d), "output size mismatch");
    // SAFETY: `matmul_t_avx` is a safe fn whose only requirement is the
    // `avx` target feature, which `available()` has just detected on this CPU.
    unsafe { matmul_t_avx(a, b, d, out) };
    true
}

/// Eight weight rows share the vector; the rows left over go through one
/// narrower block.
#[target_feature(enable = "avx")]
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
#[target_feature(enable = "avx")]
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
#[target_feature(enable = "avx")]
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
#[target_feature(enable = "avx")]
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
            *acc = _mm256_add_pd(*acc, _mm256_mul_pd(widen(&body[c]), x));
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

/// Whether [`axpy_codes`] runs its wide path on this CPU.
pub(crate) fn axpy_codes_available() -> bool {
    is_x86_feature_detected!("avx2")
}

/// [`crate::ops::axpy_codes`] for equal-length `codes` and `ctx`. Returns
/// `false`, writing nothing, when the CPU lacks AVX2.
#[inline]
#[allow(unsafe_code)]
pub(crate) fn axpy_codes(w: f32, step: f32, codes: &[i8], ctx: &mut [f32]) -> bool {
    if !axpy_codes_available() {
        return false;
    }
    // SAFETY: `axpy_codes_avx2`'s only requirement of its caller is the
    // `avx2` target feature, which `axpy_codes_available()` has just
    // detected on this CPU.
    unsafe { axpy_codes_avx2(w, step, codes, ctx) };
    true
}

/// Eight codes per step: sign-extend to `i32`, convert (exact), multiply by
/// `step`, multiply by `w`, add to the context — the portable loop's three
/// operations in its association, none fused. The sub-8 tail is that loop.
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
fn axpy_codes_avx2(w: f32, step: f32, codes: &[i8], ctx: &mut [f32]) {
    let (codes8, codes_tail) = codes.as_chunks::<8>();
    let (ctx8, ctx_tail) = ctx.as_chunks_mut::<8>();
    let (wv, stepv) = (_mm256_set1_ps(w), _mm256_set1_ps(step));
    for (c, x) in codes8.iter().zip(ctx8) {
        // SAFETY: `c` is a `&[i8; 8]`, so the 8 bytes `_mm_loadl_epi64`
        // reads are in bounds; it has no alignment requirement.
        let raw = unsafe { _mm_loadl_epi64(c.as_ptr().cast()) };
        let v = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw)), stepv);
        // SAFETY: `x` is a `&mut [f32; 8]`, so the 8 floats the unaligned
        // load reads are in bounds.
        let acc = unsafe { _mm256_loadu_ps(x.as_ptr()) };
        let sum = _mm256_add_ps(acc, _mm256_mul_ps(wv, v));
        // SAFETY: `x` is a `&mut [f32; 8]`, exclusively borrowed, so the 8
        // floats the unaligned store writes are in bounds and unaliased.
        unsafe { _mm256_storeu_ps(x.as_mut_ptr(), sum) };
    }
    crate::ops::axpy_codes_portable(w, step, codes_tail, ctx_tail);
}
