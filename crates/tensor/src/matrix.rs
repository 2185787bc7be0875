//! Row-major dense matrix: `f32`, or bfloat16 weights read as `f32`.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::Lane;

/// A dense row-major matrix, of `f32` unless said otherwise.
///
/// This is the single tensor type of the workspace: vectors are `1 × n` or
/// `n × 1` matrices, activations for a token sequence are `seq_len × d_model`.
/// A `Matrix<Bf16>` is a weight matrix stored as the bfloat16 values it
/// holds (half the bytes of their `f32` images), built by
/// [`Matrix::transpose_with`] and multiplied by [`Matrix::matmul_t_into`],
/// which reads each element as the `f32` it widens to ([`Lane`]).
///
/// # Example
///
/// ```
/// use opal_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<T = f32> {
    data: Vec<T>,
    rows: usize,
    cols: usize,
}

impl<T: Lane> Matrix<T> {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols.max(1))
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Creates a matrix from a generator function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { data, rows, cols }
    }

    /// Creates a matrix from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { data, rows: rows.len(), cols }
    }

    /// Creates a matrix taking ownership of a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { data, rows, cols }
    }

    /// Creates a single-row matrix from a slice.
    pub fn from_row_slice(row: &[f32]) -> Self {
        Matrix { data: row.to_vec(), rows: 1, cols: row.len() }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds ({})", self.cols);
        self.data.chunks_exact(self.cols).map(|row| row[c]).collect()
    }

    /// Matrix transpose.
    ///
    /// Iterates in write-major order: each output row (one input column) is
    /// filled left to right, so every store is sequential and only the
    /// strided loads pay for the layout change.
    pub fn transpose(&self) -> Matrix {
        self.transpose_with(|x| x)
    }

    /// The transpose with `f` applied to every element, in the same order
    /// as [`Matrix::transpose`]: `w.transpose_with(Bf16::from_f32)` is a
    /// weight matrix stored transposed as the bfloat16 values it rounds to,
    /// without an `f32` copy in between.
    pub fn transpose_with<U>(&self, mut f: impl FnMut(f32) -> U) -> Matrix<U> {
        let mut data = Vec::with_capacity(self.data.len());
        if self.rows > 0 {
            for c in 0..self.cols {
                data.extend(self.data[c..].iter().step_by(self.cols).map(|&x| f(x)));
            }
        }
        Matrix { data, rows: self.cols, cols: self.rows }
    }

    /// Inner GEMM update `acc[j] += a * b_row[j]`, unrolled 4-wide — the
    /// kernel of [`Matrix::matmul_into`]. The
    /// per-`j` addend sequence over `k` is untouched (unrolling spans
    /// independent `j` lanes, never reassociates within one), so this is
    /// bit-identical to the scalar loop while exposing four independent
    /// f64 FMAs per iteration to the vectorizer.
    #[inline]
    fn axpy_acc(acc: &mut [f64], a: f64, b_row: &[f32]) {
        let mut a4 = acc.chunks_exact_mut(4);
        let mut b4 = b_row.chunks_exact(4);
        for (o, b) in a4.by_ref().zip(b4.by_ref()) {
            o[0] += a * f64::from(b[0]);
            o[1] += a * f64::from(b[1]);
            o[2] += a * f64::from(b[2]);
            o[3] += a * f64::from(b[3]);
        }
        for (o, &b) in a4.into_remainder().iter_mut().zip(b4.remainder()) {
            *o += a * f64::from(b);
        }
    }

    /// Matrix product `self · rhs` — the allocating twin of
    /// [`Matrix::matmul_into`], bit-identical to it.
    ///
    /// Accumulates in `f64` per output element so quantization-error studies
    /// are not polluted by accumulation error.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self · rhs` written into a caller-provided `out`
    /// matrix: each output element accumulates its nonzero `self` terms in
    /// `f64`, `k` ascending, and is cast to `f32` once (one `f64`
    /// accumulator row is allocated per call, reused across output rows).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows` or `out` is not
    /// `self.rows × rhs.cols`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!((out.rows, out.cols), (self.rows, rhs.cols), "output shape mismatch");
        let mut acc = vec![0.0f64; rhs.cols];
        for r in 0..self.rows {
            let a_row = &self.data[r * self.cols..(r + 1) * self.cols];
            acc.fill(0.0);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                Self::axpy_acc(&mut acc, f64::from(a), b_row);
            }
            let out_row = &mut out.data[r * rhs.cols..(r + 1) * rhs.cols];
            for (o, a) in out_row.iter_mut().zip(&acc) {
                *o = *a as f32;
            }
        }
    }

    /// Matrix product with the transpose of `rhs`: `self · rhsᵀ` — the
    /// allocating twin of [`Matrix::matmul_t_into`], bit-identical to it.
    ///
    /// Used for `Q · Kᵀ` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_t_into(rhs, &mut out);
        out
    }

    /// Matrix product with the transpose of `rhs` written into `out`:
    /// `out = self · rhsᵀ`, every element bitwise the 4-lane
    /// [`crate::ops::dot`] of its two rows (element `i` of the inner product
    /// into `f64` lane `i % 4`, sub-4 tail into lane 0,
    /// `((a0 + a1) + (a2 + a3))` cast to `f32`) — the fused GEMM of the
    /// multi-token prefill path.
    ///
    /// Both operands are read row-major, so every inner product runs over
    /// two contiguous rows. The loop is ordered `rhs`-row-major: each `rhs`
    /// row (a transposed weight row) is loaded once and dotted against every
    /// row of `self` while hot, which is where the fused prefill gains its
    /// weight-locality over a matvec per token.
    ///
    /// The schedule is the spec, not the loop. On x86-64 with AVX and FMA
    /// (detected at run time) each block of up to eight rows of `self` is
    /// widened to `f64` once and shares every converted chunk of an `rhs`
    /// row: eight rows against one `rhs` row per register tile, three to
    /// seven left over against two, and one or two left over each against
    /// eight `rhs` rows at once like [`Matrix::matvec_into`] (so a one-row
    /// product costs what the matvec does); elsewhere, one `ops::dot` call
    /// per element (`matmul_t_portable`). The paths agree bit for bit, which
    /// the crate's unit proptests pin.
    ///
    /// Because `ops::dot` is bitwise commutative in its arguments (each
    /// `f32×f32` product is exact in `f64` and the accumulator schedule is
    /// symmetric), row `i` of the output is bit-identical to
    /// `rhs.matvec_into(self.row(i), ..)` — the single-token projection this
    /// GEMM replaces.
    ///
    /// `rhs` may hold bfloat16 values (`Matrix<Bf16>`, a bf16 model's
    /// weights): every element is then the product with `rhs` widened to
    /// `f32`, which is exact, so the output is bitwise that of the `f32`
    /// matrix of the same values. The portable loop widens each element;
    /// the wide one loads four 16-bit lanes where it loaded four `f32`,
    /// zero-extends them and shifts them into the high half of each `f32`
    /// lane, and runs the same tiles on half the weight bytes.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols` or `out` is not
    /// `self.rows × rhs.rows`.
    pub fn matmul_t_into<T: Lane>(&self, rhs: &Matrix<T>, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!((out.rows, out.cols), (self.rows, rhs.rows), "output shape mismatch");
        if self.cols == 0 {
            // Zero-width operands: every output element is the empty dot
            // reduction (numerically zero), matching `matmul` on the same
            // degenerate shapes instead of leaving `out` stale.
            out.data.fill(crate::ops::dot(&[], &[]));
            return;
        }
        if self.rows == 0 || rhs.rows == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if crate::simd::matmul_t(&self.data, &rhs.data, self.cols, &mut out.data) {
            return;
        }
        self.matmul_t_portable(rhs, out);
    }

    /// The loop of [`Matrix::matmul_t_into`] as portable code, one
    /// [`crate::ops::dot`] per output element (of the widened `rhs` row):
    /// the spec the wide path is tested against, and the path on CPUs
    /// without it. Shapes are the caller's to check.
    pub(crate) fn matmul_t_portable<T: Lane>(&self, rhs: &Matrix<T>, out: &mut Matrix) {
        let width = self.cols.max(1);
        for (j, b_row) in rhs.data.chunks_exact(rhs.cols.max(1)).enumerate() {
            for (a_row, out_row) in
                self.data.chunks_exact(width).zip(out.data.chunks_exact_mut(rhs.rows))
            {
                out_row[j] = crate::ops::dot_widened(a_row, b_row);
            }
        }
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols`.
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out);
        out
    }

    /// Matrix–vector product `self · v` written into `out` — the
    /// allocation-free kernel behind [`Matrix::matvec`], used by the token
    /// decode hot path.
    ///
    /// Each output element is bitwise `ops::dot(row, v)`: the products of
    /// `f32` inputs are exact in `f64` and are summed on
    /// [`crate::ops::dot`]'s 4-lane schedule (element `i` into lane `i % 4`,
    /// sub-4 tail into lane 0), so results are bit-identical to
    /// [`Matrix::matvec`] and to the matching row of
    /// [`Matrix::matmul_t_into`]. On x86-64 with AVX and FMA (detected at
    /// run time) the schedule runs for eight rows at once in 256-bit lanes,
    /// which is what lifts a row-at-a-time GEMV off the latency of one
    /// accumulator chain; elsewhere it is one `ops::dot` call per row
    /// (`matvec_portable`), the spec the wide path is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols` or `out.len() != self.rows`.
    pub fn matvec_into(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        #[cfg(target_arch = "x86_64")]
        if crate::simd::matvec(&self.data, v, out) {
            return;
        }
        self.matvec_portable(v, out);
    }

    /// The loop of [`Matrix::matvec_into`] as portable code, one
    /// [`crate::ops::dot`] per output element: the spec the wide path is
    /// tested against, and the path on CPUs without it. Lengths are the
    /// caller's to check.
    pub(crate) fn matvec_portable(&self, v: &[f32], out: &mut [f32]) {
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols.max(1))) {
            *o = crate::ops::dot(row, v);
        }
    }

    /// Resizes the matrix to `rows` rows in place, keeping the column
    /// width; new rows are zeroed, and shrinking keeps the allocation.
    ///
    /// This is the row-block helper behind the chunked-prefill scratch
    /// buffers: a scratch matrix is resized to the live chunk length each
    /// pass, so kernels like [`Matrix::matmul_t_into`] see exactly the rows
    /// in flight while the backing `Vec` is reused across chunks
    /// (allocation-free once grown to the largest chunk).
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.cols, 0.0);
        self.rows = rows;
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { data: self.data.iter().map(|&x| f(x)).collect(), rows: self.rows, cols: self.cols }
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        Matrix {
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Horizontal slice: rows `[start, end)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn rows_range(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "bad row range {start}..{end}");
        Matrix {
            data: self.data[start * self.cols..end * self.cols].to_vec(),
            rows: end - start,
            cols: self.cols,
        }
    }

    /// Appends the rows of `rhs` below `self`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ (unless `self` is empty).
    pub fn vcat(&self, rhs: &Matrix) -> Matrix {
        if self.is_empty() && self.rows == 0 {
            return rhs.clone();
        }
        assert_eq!(self.cols, rhs.cols, "column count mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&rhs.data);
        Matrix { data, rows: self.rows + rhs.rows, cols: self.cols }
    }
}

impl Default for Matrix {
    /// The empty `0 × 0` matrix (no allocation).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Lane> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            let row = self.row(r);
            let head: Vec<String> =
                row.iter().take(8).map(|v| format!("{:.4}", v.to_f32())).collect();
            writeln!(f, "  [{}{}]", head.join(", "), if self.cols > 8 { ", …" } else { "" })?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use opal_numerics::Bf16;
    use proptest::prelude::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.col(1), vec![1.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_t_equals_matmul_of_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r as f32 - c as f32) * 0.5);
        let b = Matrix::from_fn(5, 4, |r, c| (r * c) as f32 * 0.1 - 0.3);
        let direct = a.matmul_t(&b);
        let via_t = a.matmul(&b.transpose());
        for (x, y) in direct.as_slice().iter().zip(via_t.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        let v = [1.0, 2.0, 3.0];
        let got = a.matvec(&v);
        let expect = a.matmul(&Matrix::from_vec(3, 1, v.to_vec()));
        assert_eq!(got, expect.as_slice());
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let a = Matrix::from_fn(5, 7, |r, c| (r as f32 - c as f32) * 0.31 + 0.07);
        let v: Vec<f32> = (0..7).map(|i| (i as f32 - 3.0) * 1.7).collect();
        let mut out = vec![0.0f32; 5];
        a.matvec_into(&v, &mut out);
        let reference = a.matvec(&v);
        for (x, y) in out.iter().zip(&reference) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn matvec_into_rejects_bad_output_len() {
        let a = Matrix::zeros(2, 2);
        let mut out = vec![0.0f32; 3];
        a.matvec_into(&[1.0, 2.0], &mut out);
    }

    #[test]
    fn matmul_into_matches_matmul_bitwise() {
        let a = Matrix::from_fn(4, 6, |r, c| (r as f32 - c as f32) * 0.37 + 0.11);
        let b = Matrix::from_fn(6, 3, |r, c| ((r * 3 + c) as f32).sin());
        let mut out = Matrix::zeros(4, 3);
        a.matmul_into(&b, &mut out);
        let reference = a.matmul(&b);
        for (x, y) in out.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn matmul_t_into_rows_match_matvec_bitwise() {
        // The fused-prefill contract: row i of X · Wᵀ must be bit-identical
        // to the matvec W · xᵢ it replaces, for widths around the dot
        // kernel's 4-wide unroll boundary.
        for width in [1usize, 3, 4, 5, 8, 17] {
            let x = Matrix::from_fn(5, width, |r, c| ((r * 7 + c * 3) as f32).cos() * 1.3);
            let w = Matrix::from_fn(9, width, |r, c| ((r + c * 5) as f32).sin() * 0.7);
            let mut out = Matrix::zeros(5, 9);
            x.matmul_t_into(&w, &mut out);
            let mut row = vec![0.0f32; 9];
            for r in 0..5 {
                w.matvec_into(x.row(r), &mut row);
                for (got, want) in out.row(r).iter().zip(&row) {
                    assert_eq!(got.to_bits(), want.to_bits(), "width {width} row {r}");
                }
            }
        }
    }

    /// Widths around the 4-wide chunk (every `d % 4` tail) plus the proxy
    /// model's projection widths; with rows `0..=20` every remainder block
    /// `1..=7` and the 8-row boundary is crossed at each of them.
    fn kernel_widths() -> impl Iterator<Item = usize> {
        (0..=40).chain([128, 130, 344])
    }
    const MAX_ROWS: usize = 20;
    const MAX_WIDTH: usize = 344;
    const RHS_ROWS: usize = 3;
    /// The row counts that leave `matmul_t_into` one or two rows after its
    /// eight-row blocks: those go through the GEMV driver, whose own blocks
    /// are eight *rhs* rows, so they are also run against a rhs tall enough
    /// to fill them (the proxy model's `d_ff`) at a few widths.
    const LONE_ROWS: [usize; 6] = [1, 2, 9, 10, 17, 18];
    const TALL_RHS_ROWS: usize = 344;
    const TALL_RHS_WIDTHS: [usize; 3] = [1, 5, 128];
    /// The block heights the wide path tiles against two rhs rows at a
    /// time (an odd last rhs row alone), each met with every rhs height up
    /// to one past a lone row's eight-row block.
    const LEFTOVER_ROWS: std::ops::RangeInclusive<usize> = 3..=7;
    const LEFTOVER_RHS_ROWS: usize = 9;
    /// A page-like rhs for `ops::dot_tile`: rows `width + 3` apart, read
    /// from a head offset, against lhs heights that cross every block shape.
    const PAGE_HEAD_OFFSET: usize = 2;
    const PAGE_LHS_ROWS: [usize; 9] = [1, 2, 3, 5, 7, 8, 9, 12, 17];
    /// Rows wider than the wide path's panel holds eight of: blocks of six,
    /// three, and none (each row alone).
    const WIDE_WIDTHS: [usize; 3] = [520, 1100, 1400];
    const WIDE_ROWS: [usize; 3] = [3, 8, 9];
    const A_POOL: usize = 9 * 1400;
    const B_POOL: usize = TALL_RHS_ROWS * 128;

    /// On a host where the dispatching kernels have no wide path the
    /// comparisons below hold trivially; say so, once, past the test
    /// harness's capture instead of passing silently.
    fn note_if_only_portable() {
        static NOTE: std::sync::Once = std::sync::Once::new();
        let wide = crate::KernelPath::detect().wide_dot;
        if !wide {
            NOTE.call_once(|| {
                use std::io::Write;
                let _ = writeln!(
                    std::io::stderr(),
                    "note: opal-tensor kernel equivalence tests: no AVX on this host, \
                     both sides ran the portable path"
                );
            });
        }
    }

    /// Whether two outputs are the same bits, any NaN counting as every
    /// NaN: where two NaN operands meet, x86 keeps whichever comes first,
    /// and a register tile may meet them in another order than the loop.
    pub(crate) fn same_bits_or_nans(got: f32, want: f32) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    /// The first element whose bit pattern differs, as a failure message.
    fn same_bits(
        kernel: &str,
        rows: usize,
        width: usize,
        got: &[f32],
        want: &[f32],
    ) -> Result<(), String> {
        match got.iter().zip(want).position(|(&g, &w)| !same_bits_or_nans(g, w)) {
            None => Ok(()),
            Some(i) => Err(format!(
                "{kernel} {rows}x{width}: element {i} is {:e}, portable {:e}",
                got[i], want[i]
            )),
        }
    }

    /// A `rows × cols` matrix of any lane type over `data`.
    fn lanes<T: Lane>(rows: usize, cols: usize, data: &[T]) -> Matrix<T> {
        Matrix { data: data[..rows * cols].to_vec(), rows, cols }
    }

    /// Runs the dispatching `matvec_into` / `matmul_t_into` and the portable
    /// loops over every shape drawn from the front of the two value pools
    /// and compares bit patterns, with the weight (`rhs`) operand of the
    /// pool's lane type (`matvec_into` takes its vector widened). Outputs
    /// start from a sentinel, so an element one side skips shows as a
    /// difference.
    fn dispatch_against_portable<T: Lane>(a_pool: &[f32], b_pool: &[T]) -> Result<(), String> {
        const SENTINEL: f32 = 7.0;
        note_if_only_portable();
        for width in kernel_widths() {
            let b = lanes(RHS_ROWS, width, b_pool);
            let v: Vec<f32> = b.row(0).iter().map(|x| x.to_f32()).collect();
            for rows in 0..=MAX_ROWS {
                let a = Matrix::from_vec(rows, width, a_pool[..rows * width].to_vec());

                let (mut got, mut want) = (vec![SENTINEL; rows], vec![SENTINEL; rows]);
                a.matvec_into(&v, &mut got);
                a.matvec_portable(&v, &mut want);
                same_bits("matvec", rows, width, &got, &want)?;

                let mut got = Matrix::from_vec(rows, RHS_ROWS, vec![SENTINEL; rows * RHS_ROWS]);
                let mut want = got.clone();
                a.matmul_t_into(&b, &mut got);
                if width == 0 {
                    // Never reaches either loop: `matmul_t_into` writes the
                    // empty reduction itself.
                    want.as_mut_slice().fill(crate::ops::dot(&[], &[]));
                } else {
                    a.matmul_t_portable(&b, &mut want);
                }
                same_bits("matmul_t", rows, width, got.as_slice(), want.as_slice())?;
            }
        }
        for width in TALL_RHS_WIDTHS {
            let b = lanes(TALL_RHS_ROWS, width, b_pool);
            for rows in LONE_ROWS {
                let a = Matrix::from_vec(rows, width, a_pool[..rows * width].to_vec());
                let mut got = Matrix::from_vec(rows, b.rows(), vec![SENTINEL; rows * b.rows()]);
                let mut want = got.clone();
                a.matmul_t_into(&b, &mut got);
                a.matmul_t_portable(&b, &mut want);
                same_bits("matmul_t (tall rhs)", rows, width, got.as_slice(), want.as_slice())?;
            }
        }
        for width in kernel_widths().filter(|&w| w > 0) {
            for n in 1..=LEFTOVER_RHS_ROWS {
                let b = lanes(n, width, b_pool);
                for rows in LEFTOVER_ROWS {
                    let a = Matrix::from_vec(rows, width, a_pool[..rows * width].to_vec());
                    let mut got = Matrix::from_vec(rows, n, vec![SENTINEL; rows * n]);
                    let mut want = got.clone();
                    a.matmul_t_into(&b, &mut got);
                    a.matmul_t_portable(&b, &mut want);
                    let what = format!("matmul_t (rhs {n} rows)");
                    same_bits(&what, rows, width, got.as_slice(), want.as_slice())?;
                }
            }
        }
        for width in WIDE_WIDTHS {
            let b = lanes(RHS_ROWS, width, b_pool);
            for rows in WIDE_ROWS {
                let a = Matrix::from_vec(rows, width, a_pool[..rows * width].to_vec());
                let mut got = Matrix::from_vec(rows, RHS_ROWS, vec![SENTINEL; rows * RHS_ROWS]);
                let mut want = got.clone();
                a.matmul_t_into(&b, &mut got);
                a.matmul_t_portable(&b, &mut want);
                same_bits("matmul_t (wide rows)", rows, width, got.as_slice(), want.as_slice())?;
            }
        }
        for width in kernel_widths() {
            let (stride, rhs) = (width + 3, &b_pool[PAGE_HEAD_OFFSET..]);
            let n = LEFTOVER_RHS_ROWS;
            for rows in PAGE_LHS_ROWS {
                let lhs = || (0..rows).map(|i| &a_pool[i * width..(i + 1) * width]);
                let mut got = vec![SENTINEL; rows * n];
                crate::ops::dot_tile(rhs, stride, lhs().zip(got.chunks_mut(n)));
                let mut want = vec![SENTINEL; rows * n];
                crate::ops::dot_tile_portable(rhs, stride, lhs().zip(want.chunks_mut(n)));
                same_bits("dot_tile (page-like rhs)", rows, width, &got, &want)?;
            }
        }
        Ok(())
    }

    #[test]
    fn dispatch_keeps_the_sign_of_an_all_negative_zero_operand() {
        let zeros = vec![-0.0f32; A_POOL.max(B_POOL)];
        let ones = vec![1.5f32; A_POOL.max(B_POOL)];
        dispatch_against_portable(&zeros, &ones).unwrap();
        dispatch_against_portable(&ones, &zeros).unwrap();
        let a = Matrix::from_vec(MAX_ROWS, MAX_WIDTH, zeros[..MAX_ROWS * MAX_WIDTH].to_vec());
        let mut out = vec![0.0f32; MAX_ROWS];
        a.matvec_into(&ones[..MAX_WIDTH], &mut out);
        assert!(out.iter().all(|x| x.to_bits() == (-0.0f32).to_bits()), "{out:?}");
    }

    /// A pool of operand values, in one of two flavours per pool.
    ///
    /// *Edge*: ordinary values mixed with the ones the spec's arithmetic
    /// treats specially — signed zeros, subnormals, and magnitudes whose
    /// products are finite in `f64` but overflow the final `f32` cast.
    ///
    /// *Ladder*: small integers times `2^0`, `2^26` or `2^52`. Products then
    /// sit on rungs 26 bits apart, so a lane holding a high rung rounds the
    /// low ones as they arrive, and the high rungs cancel often enough
    /// (small integer multipliers) to leave that rounding as the whole
    /// result. Which addend met which partial sum then shows in the `f32`:
    /// this is what makes a wrong lane, tail or reduction order visible,
    /// where ordinary values would hide it 29 bits below `f32` precision.
    pub(crate) fn value_pool(len: usize) -> impl Strategy<Value = Vec<f32>> {
        let raw = proptest::collection::vec((0u32..8, -1.0f32..1.0), len);
        (0u32..3, raw).prop_map(|(flavour, raw)| {
            let edge = |class, x: f32| match class {
                0 => 0.0f32.copysign(x),
                1 => x * 1.0e-40,
                2 => x * 3.0e38,
                _ => x * 4.0,
            };
            let ladder =
                |class: u32, x: f32| (x * 8.0).trunc() * 2.0f32.powi(26 * (class % 3) as i32);
            raw.into_iter()
                .map(|(c, x)| if flavour == 0 { edge(c, x) } else { ladder(c, x) })
                .collect()
        })
    }

    /// A pool of bfloat16 operands: [`value_pool`]'s values rounded to
    /// bfloat16 (ladder values exactly; edge values to signed zeros,
    /// subnormals and infinities among others), with none, a few (one lane
    /// in 256) or many (one in 32) lanes replaced by a value the widening
    /// must carry bit for bit: a signed zero, the smallest subnormal of
    /// either sign, an infinity of either sign, or a NaN (quiet or
    /// signalling, either sign).
    pub(crate) fn bf16_pool(len: usize) -> impl Strategy<Value = Vec<Bf16>> {
        let picks = proptest::collection::vec((0usize..256, 0usize..9), len);
        (value_pool(len), 0usize..3, picks).prop_map(|(values, density, picks)| {
            const SPECIAL: [u16; 9] =
                [0x0000, 0x8000, 0x0001, 0x8001, 0x7F80, 0xFF80, 0x7FC0, 0xFFC1, 0x7F81];
            let every = [0, 1, 8][density];
            values
                .iter()
                .zip(picks)
                .map(|(&v, (pick, special))| match pick < every {
                    true => Bf16::from_bits(SPECIAL[special]),
                    false => Bf16::from_f32(v),
                })
                .collect()
        })
    }

    proptest! {
        // Each case walks all 3282 shapes, so a few cases go a long way.
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn dispatch_is_bitwise_the_portable_loops(
            a_pool in value_pool(A_POOL),
            b_pool in value_pool(B_POOL),
        ) {
            let outcome = dispatch_against_portable(&a_pool, &b_pool);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }

        /// The same shapes with bfloat16 weights: the `matmul_t_into` and
        /// `ops::dot_tile` instantiations that widen 16-bit lanes in
        /// registers against the portable loops, which widen each element
        /// and run the `f32` spec.
        #[test]
        fn bf16_dispatch_is_bitwise_the_portable_loops(
            a_pool in value_pool(A_POOL),
            b_pool in bf16_pool(B_POOL),
        ) {
            let outcome = dispatch_against_portable(&a_pool, &b_pool);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn matmul_t_into_rejects_bad_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 3);
        let mut out = Matrix::zeros(2, 3);
        a.matmul_t_into(&b, &mut out);
    }

    #[test]
    fn resize_rows_zeroes_new_rows_and_keeps_content() {
        let mut m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32 + 1.0);
        m.resize_rows(4);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.row(3), &[0.0, 0.0, 0.0]);
        m.resize_rows(1);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        // Regrowing reuses the zeroed tail.
        m.resize_rows(2);
        assert_eq!(m.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(4, 7, |r, c| (r * 7 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn slices_and_concat() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let top = m.rows_range(0, 2);
        let bottom = m.rows_range(2, 4);
        assert_eq!(top.vcat(&bottom), m);
    }

    #[test]
    fn identity_is_neutral() {
        let m = Matrix::from_fn(3, 3, |r, c| (r as f32) * 1.5 - c as f32);
        assert_eq!(m.matmul(&Matrix::identity(3)), m);
        assert_eq!(Matrix::identity(3).matmul(&m), m);
    }

    #[test]
    fn map_add_hadamard_scale() {
        let m = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(m.map(f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(m.add(&m).as_slice(), &[2.0, -4.0]);
        assert_eq!(m.scale(-1.0).as_slice(), &[-1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
