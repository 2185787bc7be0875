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
//! on every other CPU, a CPU with AVX but no FMA included.
//!
//! **The attention tile kernels** (AVX2): [`crate::ops::dot_codes_tile`]
//! as blocks of two query rows × two code rows or one × four (each code
//! chunk converted once per block, four `dot_codes` chains in flight, their
//! in-order lane sums interleaved), and [`crate::ops::axpy_tile`] with each
//! context held in registers, 64 lanes at a time, across a page's rows —
//! behind [`crate::ops::axpy_codes_tile`] after it dequantizes a page eight
//! codes at a time. Each performs the portable loop's operations per
//! element in its order, none fused.
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
//! A `#[target_feature]` fn calls value-taking intrinsics safely, so the
//! `unsafe` operations are two kinds only: calling such a fn from ordinary
//! code, once per driver behind the runtime detection; and the vector loads
//! and stores of seven helpers (`widen4`, and the six at the end of this
//! file), each through a pointer taken from a fixed-size array reference.

use std::arch::x86_64::{
    __m128, __m128i, __m256, __m256d, __m256i, _mm256_add_epi16, _mm256_add_epi32, _mm256_add_pd,
    _mm256_add_ps, _mm256_and_si256, _mm256_castpd256_pd128, _mm256_castsi256_si128,
    _mm256_cvtepi16_epi32, _mm256_cvtepi32_pd, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi32,
    _mm256_cvtepu16_epi32, _mm256_cvtpd_ps, _mm256_cvtps_pd, _mm256_extractf128_pd,
    _mm256_extracti128_si256, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_loadu_ps,
    _mm256_loadu_si256, _mm256_maddubs_epi16, _mm256_mul_pd, _mm256_mul_ps, _mm256_set1_epi16,
    _mm256_set1_pd, _mm256_set1_ps, _mm256_setzero_pd, _mm256_setzero_ps, _mm256_setzero_si256,
    _mm256_srli_epi16, _mm256_storeu_ps, _mm256_zeroupper, _mm_cvtsd_f64, _mm_loadl_epi64,
    _mm_loadu_ps, _mm_storeu_ps, _mm_unpackhi_pd,
};
use std::cell::RefCell;

use crate::codes::{CodeActs, CodeRow, CodeWeights, PANEL_WIDTH};
use crate::ops::{check_tile_row, code_row_sum, tile_width};

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
pub(crate) fn matvec(w: &[f32], v: &[f32], out: &mut [f32]) -> bool {
    if v.is_empty() || !available() {
        return false;
    }
    assert_eq!(w.len(), out.len() * v.len(), "matrix size mismatch");
    dot_rows(w, v.len(), [(v, out)]);
    true
}

/// `out[i * n + j] = ops::dot(row i of a, row j of b)` for flat row-major
/// `a` and `b` of row width `d > 0`, `n` the row count of `b`. Returns
/// `false`, writing nothing, when the CPU lacks AVX and FMA.
pub(crate) fn matmul_t(a: &[f32], b: &[f32], d: usize, out: &mut [f32]) -> bool {
    if !available() {
        return false;
    }
    assert!(d > 0 && a.len().is_multiple_of(d) && b.len().is_multiple_of(d), "row width mismatch");
    let n = b.len() / d;
    assert_eq!(out.len(), (a.len() / d) * n, "output size mismatch");
    dot_rows(b, d, a.chunks_exact(d).zip(out.chunks_exact_mut(n.max(1))));
    true
}

/// For every `(x, out)` of `lhs`, `out[j] = ops::dot(x, &rhs[j * stride..][..x.len()])`
/// for `j` in `0..out.len()`: the one driver behind [`matvec`], [`matmul_t`]
/// and [`crate::ops::dot_tile`] (the caller checks [`available`]; this
/// asserts it).
#[allow(unsafe_code)]
pub(crate) fn dot_rows<'a>(
    rhs: &[f32],
    stride: usize,
    lhs: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
) {
    assert!(available(), "the wide dot kernel needs AVX and FMA");
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
fn dot_rows_avx<'a>(
    rhs: &[f32],
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
            8 => by_rhs_rows::<8, 1>(xs, panel, rhs, stride, outs),
            // Seven rows against two would want seventeen registers.
            7 => {
                let (head, tail) = outs.split_at_mut(4);
                by_rhs_rows::<4, 2>(&xs[..4], panel, rhs, stride, head);
                by_rhs_rows::<3, 2>(&xs[4..], panel, rhs, stride, tail);
            }
            6 => by_rhs_rows::<6, 2>(xs, panel, rhs, stride, outs),
            5 => by_rhs_rows::<5, 2>(xs, panel, rhs, stride, outs),
            4 => by_rhs_rows::<4, 2>(xs, panel, rhs, stride, outs),
            3 => by_rhs_rows::<3, 2>(xs, panel, rhs, stride, outs),
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

/// The `C` right-hand rows from row `j`, each `d` wide.
#[inline]
fn rhs_rows<const C: usize>(rhs: &[f32], stride: usize, j: usize, d: usize) -> [&[f32]; C] {
    let mut rows: [&[f32]; C] = [&[]; C];
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
fn by_rhs_rows<const R: usize, const C: usize>(
    xs: &[&[f32]],
    panel: &mut [f64],
    rhs: &[f32],
    stride: usize,
    outs: &mut [&mut [f32]],
) {
    let d = xs[0].len();
    let (x4, x_tails) = widen_rows::<R>(xs, panel);
    let n = outs[0].len();
    let mut j = 0;
    while j + C <= n {
        let ws = rhs_rows::<C>(rhs, stride, j, d);
        tile::<R, C>(x4, x_tails, ws, |r, c, x| outs[r][j + c] = x);
        j += C;
    }
    if j < n {
        let ws = rhs_rows::<1>(rhs, stride, j, d);
        tile::<R, 1>(x4, x_tails, ws, |r, _, x| outs[r][j] = x);
    }
}

/// `out[j] = ops::dot(x, rhs row j)` for one row against the right-hand rows
/// eight at a time (the GEMV's shape), the rows left over as one narrower
/// tile.
#[inline]
#[target_feature(enable = "avx,fma")]
fn lone_row(x: &[f32], rhs: &[f32], stride: usize, out: &mut [f32]) {
    let d = x.len();
    let mut j = 0;
    while j + BLOCK <= out.len() {
        row_tile::<BLOCK>(x, rhs_rows::<BLOCK>(rhs, stride, j, d), |c, v| out[j + c] = v);
        j += BLOCK;
    }
    let left = out.len() - j;
    let mut store = |c: usize, v: f32| out[j + c] = v;
    match left {
        1 => row_tile::<1>(x, rhs_rows::<1>(rhs, stride, j, d), &mut store),
        2 => row_tile::<2>(x, rhs_rows::<2>(rhs, stride, j, d), &mut store),
        3 => row_tile::<3>(x, rhs_rows::<3>(rhs, stride, j, d), &mut store),
        4 => row_tile::<4>(x, rhs_rows::<4>(rhs, stride, j, d), &mut store),
        5 => row_tile::<5>(x, rhs_rows::<5>(rhs, stride, j, d), &mut store),
        6 => row_tile::<6>(x, rhs_rows::<6>(rhs, stride, j, d), &mut store),
        7 => row_tile::<7>(x, rhs_rows::<7>(rhs, stride, j, d), &mut store),
        _ => {}
    }
}

/// `store(c, ops::dot(x, ws[c]))` for one row against `C` equal-width rows:
/// per 4-chunk, `x`'s chunk is converted once and each `ws` chunk once, and
/// the `C` accumulators advance together.
#[inline]
#[target_feature(enable = "avx,fma")]
fn row_tile<const C: usize>(x: &[f32], ws: [&[f32]; C], mut store: impl FnMut(usize, f32)) {
    let (x4, x_tail) = x.as_chunks::<4>();
    let n4 = x4.len();
    let mut w4: [&[[f32; 4]]; C] = [&[]; C];
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
            acc[k] = _mm256_fmadd_pd(widen4(&w4[k][c]), x, acc[k]);
        }
    }
    let tail = n4 * 4;
    for (c, (&acc, w)) in acc.iter().zip(&ws).enumerate() {
        let [mut l0, l1, l2, l3] = lanes(acc);
        for (&w, &x) in w[tail..].iter().zip(x_tail) {
            l0 += f64::from(w) * f64::from(x);
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
fn tile<const R: usize, const C: usize>(
    x4: &[[[f64; 4]; R]],
    x_tails: [&[f64]; R],
    ws: [&[f32]; C],
    mut store: impl FnMut(usize, usize, f32),
) {
    let n4 = x4.len();
    // Plain loops, not `array::from_fn`: a closure handed to a generic `std`
    // fn keeps this fn's target feature while the `std` fn has none, which
    // stops the inliner and leaves a call per row.
    let mut w4: [&[[f32; 4]]; C] = [&[]; C];
    for (w4, w) in w4.iter_mut().zip(&ws) {
        // Same length as `x4` by construction; saying so here lets the
        // chunk loop index without bounds checks.
        *w4 = &w.as_chunks::<4>().0[..n4];
    }
    let mut acc = [[_mm256_set1_pd(-0.0); C]; R];
    for c in 0..n4 {
        let mut w = [_mm256_setzero_pd(); C];
        for k in 0..C {
            w[k] = widen4(&w4[k][c]);
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
                l0 += f64::from(w) * x;
            }
            store(r, c, ((l0 + l1) + (l2 + l3)) as f32);
        }
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

/// Whether the attention tile kernels ([`dot_codes_tile`], [`axpy_tile`],
/// [`axpy_codes_tile`]) run their wide paths on this CPU.
pub(crate) fn codes_available() -> bool {
    is_x86_feature_detected!("avx2")
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
/// [`codes_available`]; this asserts it).
#[allow(unsafe_code)]
pub(crate) fn axpy_tile<'a>(
    tile: &[f32],
    stride: usize,
    rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
    fresh: bool,
) {
    assert!(codes_available(), "axpy_tile's wide path needs AVX2");
    // SAFETY: `axpy_tile_avx2`'s only requirement of its caller is the
    // `avx2` target feature, asserted just above.
    unsafe { axpy_tile_avx2(tile, stride, rows.into_iter(), fresh) };
}

/// Walks each query row's context in groups of up to 64 lanes held in
/// registers across all the tile's rows.
#[inline]
#[target_feature(enable = "avx2")]
fn axpy_tile_avx2<'a>(
    tile: &[f32],
    stride: usize,
    rows: impl Iterator<Item = (&'a [f32], &'a mut [f32])>,
    fresh: bool,
) {
    for (weights, ctx) in rows {
        let (ctx8, ctx_tail) = ctx.as_chunks_mut::<8>();
        let (groups, rest) = ctx8.as_chunks_mut::<8>();
        for (g, lanes) in groups.iter_mut().enumerate() {
            accumulate::<8>(weights, tile, stride, g * 64, lanes, fresh);
        }
        let col = groups.len() * 64;
        match rest.len() {
            1 => accumulate::<1>(weights, tile, stride, col, rest, fresh),
            2 => accumulate::<2>(weights, tile, stride, col, rest, fresh),
            3 => accumulate::<3>(weights, tile, stride, col, rest, fresh),
            4 => accumulate::<4>(weights, tile, stride, col, rest, fresh),
            5 => accumulate::<5>(weights, tile, stride, col, rest, fresh),
            6 => accumulate::<6>(weights, tile, stride, col, rest, fresh),
            7 => accumulate::<7>(weights, tile, stride, col, rest, fresh),
            _ => {}
        }
        let col = col + rest.len() * 8;
        for (j, c) in (col..).zip(ctx_tail) {
            if fresh {
                *c = 0.0;
            }
            for (t, &w) in weights.iter().enumerate() {
                if w != 0.0 {
                    *c += w * tile[t * stride + j];
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
fn accumulate<const K: usize>(
    weights: &[f32],
    tile: &[f32],
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
            *acc = _mm256_add_ps(*acc, _mm256_mul_ps(wv, load8(x)));
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
    if !(available() && codes_available()) {
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
