//! The [`crate::ops::dot`] lane schedule run for eight rows at once in
//! 256-bit lanes (x86-64 with AVX) — the wide path of
//! [`crate::Matrix::matvec_into`] and [`crate::Matrix::matmul_t_into`].
//!
//! One `ops::dot` is one 4-wide `f64` dependency chain, so a row-at-a-time
//! GEMV is bound by the latency of that chain. Rows are independent: a block
//! keeps the four accumulators of each of up to eight rows in one `__m256d`
//! (lane `k` is `ops::dot`'s `acc_k`) and walks them together, so eight
//! chains are in flight against one conversion of the shared vector. Every
//! output element still sees the addends of its own `ops::dot` in the same
//! order, with an unfused multiply and add, so results are bit-identical to
//! the portable loops — which stay the spec, the test oracle and the path on
//! every other CPU.
//!
//! Only value-taking intrinsics are used, which a `#[target_feature]` fn
//! calls safely; the one `unsafe` operation is calling such a fn from
//! ordinary code, done once per driver behind the runtime detection.

use std::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_cvtps_pd, _mm256_extractf128_pd,
    _mm256_mul_pd, _mm256_set1_pd, _mm_cvtsd_f64, _mm_set_ps, _mm_unpackhi_pd,
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
#[target_feature(enable = "avx")]
fn matmul_t_avx(a: &[f32], b: &[f32], d: usize, out: &mut [f32]) {
    let n = b.len() / d;
    for (j, b_row) in b.chunks_exact(d).enumerate() {
        let mut rows = a.chunks_exact(BLOCK * d);
        let mut i0 = 0;
        for rows in rows.by_ref() {
            block::<BLOCK>(rows, b_row, |r, x| out[(i0 + r) * n + j] = x);
            i0 += BLOCK;
        }
        remainder(rows.remainder(), b_row, |r, x| out[(i0 + r) * n + j] = x);
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
