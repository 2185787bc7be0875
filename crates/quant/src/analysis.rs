//! Quantization-error analysis helpers behind Fig. 3 and Fig. 4.

use opal_tensor::stats::mse;

use crate::{MinMaxQuantizer, MxIntQuantizer, MxOpalQuantizer, QuantError, Quantizer};

/// MSE of a quantizer on a tensor.
pub fn quantization_mse(q: &dyn Quantizer, x: &[f32]) -> f64 {
    mse(x, &q.quantize_dequantize(x))
}

/// One row of the Fig. 4 study: the MSE of every compared format on a single
/// activation tensor, normalized to the MinMax baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct RelativeMseRow {
    /// Label of the activation tensor (e.g. `"query"`).
    pub label: String,
    /// MinMax baseline MSE (absolute).
    pub minmax_mse: f64,
    /// MXINT MSE relative to MinMax.
    pub mxint_rel: f64,
    /// MX-OPAL MSE relative to MinMax, for each preserved-outlier count
    /// requested (same order as the `outlier_counts` argument).
    pub mxopal_rel: Vec<f64>,
}

/// Computes the Fig. 4 relative-MSE comparison for one labelled tensor.
///
/// `bits` is the shared element width (8 for Fig. 4(a), 4 for Fig. 4(b)),
/// `block` the microscaling block size (128 in the paper), and
/// `outlier_counts` the MX-OPAL `n` values to sweep (1, 2, 4, 8).
///
/// Uses round-to-nearest shifts (one extra adder in hardware), which is
/// what reproduces the paper's "n = 4 reaches MinMax parity" observation;
/// with the bare truncating shifter of Fig. 2(b) (`with_rounding` on the
/// quantizers) n = 4 reads about 3× MinMax's error.
///
/// # Errors
///
/// Propagates configuration errors from the underlying quantizers.
pub fn relative_mse_row(
    label: &str,
    x: &[f32],
    bits: u32,
    block: usize,
    outlier_counts: &[usize],
) -> Result<RelativeMseRow, QuantError> {
    let minmax = MinMaxQuantizer::new(bits, block)?;
    let base = quantization_mse(&minmax, x).max(f64::MIN_POSITIVE);
    let mxint_rel = quantization_mse(&MxIntQuantizer::new(bits, block)?, x) / base;
    let mut mxopal_rel = Vec::with_capacity(outlier_counts.len());
    for &n in outlier_counts {
        let q = MxOpalQuantizer::new(bits, block, n)?;
        mxopal_rel.push(quantization_mse(&q, x) / base);
    }
    Ok(RelativeMseRow { label: label.to_owned(), minmax_mse: base, mxint_rel, mxopal_rel })
}

/// Average of relative MSEs across rows (the "Avg." column of Fig. 4).
///
/// Returns `(mxint_avg, mxopal_avgs)`; `mxopal_avgs[i]` averages the i-th
/// outlier count across rows.
///
/// # Panics
///
/// Panics if `rows` is empty or rows have inconsistent sweep lengths.
pub fn average_rows(rows: &[RelativeMseRow]) -> (f64, Vec<f64>) {
    assert!(!rows.is_empty(), "no rows to average");
    let n_sweep = rows[0].mxopal_rel.len();
    let mut mxint = 0.0;
    let mut mxopal = vec![0.0; n_sweep];
    for row in rows {
        assert_eq!(row.mxopal_rel.len(), n_sweep, "inconsistent sweep lengths");
        mxint += row.mxint_rel;
        for (acc, v) in mxopal.iter_mut().zip(&row.mxopal_rel) {
            *acc += v;
        }
    }
    let k = rows.len() as f64;
    (mxint / k, mxopal.into_iter().map(|v| v / k).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use opal_tensor::rng::TensorRng;

    fn outlier_tensor(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = TensorRng::seed(seed);
        let channels = rng.distinct_indices(len, len / 100 + 1);
        rng.outlier_vector(len, 1.0, &channels, 60.0)
    }

    #[test]
    fn mxopal_relative_error_decreases_with_n() {
        let x = outlier_tensor(1024, 3);
        let row = relative_mse_row("t", &x, 4, 128, &[1, 2, 4, 8]).unwrap();
        for w in row.mxopal_rel.windows(2) {
            assert!(w[1] <= w[0] * 1.05, "monotone-ish decrease: {:?}", row.mxopal_rel);
        }
        assert!(row.mxint_rel > row.mxopal_rel[2], "MXINT worse than n=4");
    }

    #[test]
    fn n4_reaches_baseline_parity() {
        // The paper: "quantization error becomes similar to the baseline …
        // when four outliers among 128 elements are preserved."
        let x = outlier_tensor(4096, 9);
        let row = relative_mse_row("t", &x, 8, 128, &[4]).unwrap();
        assert!(row.mxopal_rel[0] < 2.0, "n=4 near MinMax parity: {}", row.mxopal_rel[0]);
    }

    #[test]
    fn averages() {
        let x1 = outlier_tensor(512, 1);
        let x2 = outlier_tensor(512, 2);
        let r1 = relative_mse_row("a", &x1, 4, 128, &[1, 4]).unwrap();
        let r2 = relative_mse_row("b", &x2, 4, 128, &[1, 4]).unwrap();
        let (mi, mo) = average_rows(&[r1.clone(), r2.clone()]);
        assert!((mi - (r1.mxint_rel + r2.mxint_rel) / 2.0).abs() < 1e-12);
        assert_eq!(mo.len(), 2);
    }

    #[test]
    #[should_panic(expected = "no rows")]
    fn average_of_nothing_panics() {
        average_rows(&[]);
    }
}
