//! Property-based tests of the tensor substrate.

use opal_tensor::ops;
use opal_tensor::Matrix;
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// The `ops::dot` lane schedule written as plainly as possible: four `f64`
/// accumulators from `-0.0`, element `i` of the whole 4-chunks into lane
/// `i % 4`, the sub-4 tail into lane 0, `((a0 + a1) + (a2 + a3)) as f32`.
fn dot_4lane_reference(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [-0.0f64; 4];
    let body = a.len() - a.len() % 4;
    for i in 0..a.len() {
        let lane = if i < body { i % 4 } else { 0 };
        acc[lane] += f64::from(a[i]) * f64::from(b[i]);
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) as f32
}

/// Values in `(-4, 4)` with the middle eighth collapsed onto signed zeros.
fn value_or_signed_zero() -> impl Strategy<Value = f32> {
    (-4.0f32..4.0).prop_map(|v| if v.abs() < 0.25 { 0.0f32.copysign(v) } else { v })
}

#[test]
fn dot_of_negative_zeros_keeps_the_sign_at_every_length() {
    let a = [-0.0f32; 520];
    let b = [1.5f32; 520];
    for len in 0..=520 {
        let got = ops::dot(&a[..len], &b[..len]);
        assert_eq!(got.to_bits(), (-0.0f32).to_bits(), "len {len}");
    }
}

proptest! {
    // Every prefix length 0..=520 of every case, so each `len % 8` (the
    // residues 4..=7 took a different tail path in the 8-wide body this
    // schedule replaced) and each sub-4 tail is hit with signed zeros mixed in.
    #[test]
    fn dot_is_bitwise_the_4lane_schedule(
        a in proptest::collection::vec(value_or_signed_zero(), 520),
        b in proptest::collection::vec(value_or_signed_zero(), 520),
    ) {
        for len in 0..=520 {
            let (x, y) = (&a[..len], &b[..len]);
            prop_assert_eq!(ops::dot(x, y).to_bits(), dot_4lane_reference(x, y).to_bits(), "len {}", len);
        }
    }

    #[test]
    fn matvec_and_matmul_t_rows_are_bitwise_dot(
        // Past 8 on both sides: the wide path blocks weight rows (matvec)
        // and activation rows (GEMM) eight at a time, remainder 1..=7.
        rows in 1usize..20,
        out_dim in 1usize..20,
        cols in 1usize..41,
        x in proptest::collection::vec(value_or_signed_zero(), 19 * 40),
        w in proptest::collection::vec(value_or_signed_zero(), 19 * 40),
    ) {
        let x = Matrix::from_vec(rows, cols, x[..rows * cols].to_vec());
        let w = Matrix::from_vec(out_dim, cols, w[..out_dim * cols].to_vec());
        let mut gemm = Matrix::zeros(rows, out_dim);
        x.matmul_t_into(&w, &mut gemm);
        let mut gemv = vec![0.0f32; out_dim];
        for i in 0..rows {
            w.matvec_into(x.row(i), &mut gemv);
            for j in 0..out_dim {
                let want = dot_4lane_reference(w.row(j), x.row(i)).to_bits();
                prop_assert_eq!(gemv[j].to_bits(), want, "matvec row {} of {}x{}", j, out_dim, cols);
                prop_assert_eq!(gemm[(i, j)].to_bits(), want, "gemm ({}, {}) width {}", i, j, cols);
            }
        }
    }

    #[test]
    fn transpose_is_involutive(m in small_matrix(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn identity_is_matmul_neutral(m in small_matrix(10)) {
        let i_right = Matrix::identity(m.cols());
        let i_left = Matrix::identity(m.rows());
        let r = m.matmul(&i_right);
        let l = i_left.matmul(&m);
        for (a, b) in m.as_slice().iter().zip(r.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
        for (a, b) in m.as_slice().iter().zip(l.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in small_matrix(8),
        seed in 0u64..1000,
    ) {
        // (B + C)·A == B·A + C·A with B, C derived from `a`'s shape.
        let rows = 4usize;
        let b = Matrix::from_fn(rows, a.rows(), |r, c| ((r * 7 + c * 3 + seed as usize) % 11) as f32 - 5.0);
        let c = Matrix::from_fn(rows, a.rows(), |r, c| ((r * 5 + c * 2 + seed as usize) % 13) as f32 - 6.0);
        let lhs = b.add(&c).matmul(&a);
        let rhs = b.matmul(&a).add(&c.matmul(&a));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_t_consistent_with_transpose(a in small_matrix(8), cols in 1usize..6) {
        let b = Matrix::from_fn(cols, a.cols(), |r, c| (r as f32 - c as f32) * 0.3);
        let direct = a.matmul_t(&b);
        let via = a.matmul(&b.transpose());
        for (x, y) in direct.as_slice().iter().zip(via.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        // The allocating twin is the `_into` kernel, not a second loop.
        let mut into = Matrix::zeros(a.rows(), b.rows());
        a.matmul_t_into(&b, &mut into);
        for (x, y) in direct.as_slice().iter().zip(into.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn softmax_rows_shift_invariant(
        row in proptest::collection::vec(-8.0f32..8.0, 1..32),
        shift in -100.0f32..100.0,
    ) {
        let m = Matrix::from_row_slice(&row);
        let shifted = m.map(|v| v + shift);
        let p1 = ops::softmax_rows(&m);
        let p2 = ops::softmax_rows(&shifted);
        for (a, b) in p1.as_slice().iter().zip(p2.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn rms_norm_output_has_unit_rms(
        row in proptest::collection::vec(-50.0f32..50.0, 2..64),
    ) {
        prop_assume!(row.iter().any(|&v| v.abs() > 1e-3));
        let m = Matrix::from_row_slice(&row);
        let g = vec![1.0; row.len()];
        let y = ops::rms_norm(&m, &g, 0.0);
        let rms: f64 = y.row(0).iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>()
            / row.len() as f64;
        prop_assert!((rms - 1.0).abs() < 1e-3, "rms {rms}");
    }

    #[test]
    fn rope_preserves_vector_norm(
        row in proptest::collection::vec(-5.0f32..5.0, 2..32),
        pos in 0usize..2048,
    ) {
        prop_assume!(row.len() % 2 == 0);
        let mut v = row.clone();
        let before: f64 = v.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        ops::rope_row(&mut v, pos, 10000.0);
        let after: f64 = v.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        prop_assert!((before - after).abs() <= before * 1e-4 + 1e-6);
    }

    #[test]
    fn log_sum_exp_bounds(row in proptest::collection::vec(-30.0f32..30.0, 1..40)) {
        let lse = ops::log_sum_exp(&row);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(lse >= max - 1e-4);
        prop_assert!(lse <= max + (row.len() as f32).ln() + 1e-4);
    }

    #[test]
    fn slicing_roundtrips(m in small_matrix(10), split_frac in 0.0f64..1.0) {
        let split = ((m.rows() as f64 * split_frac) as usize).min(m.rows());
        let top = m.rows_range(0, split);
        let bottom = m.rows_range(split, m.rows());
        prop_assert_eq!(top.vcat(&bottom), m);
    }
}
