//! Deterministic random tensor generation.
//!
//! All experiments in this reproduction are seeded: the same seed produces
//! the same synthetic weights, activations and token streams on every run,
//! so benchmark tables are reproducible bit-for-bit.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Matrix;

/// A deterministic tensor generator wrapping a seeded [`StdRng`].
///
/// # Example
///
/// ```
/// use opal_tensor::rng::TensorRng;
///
/// let mut a = TensorRng::seed(42);
/// let mut b = TensorRng::seed(42);
/// assert_eq!(a.normal_matrix(2, 3, 0.0, 1.0).as_slice(),
///            b.normal_matrix(2, 3, 0.0, 1.0).as_slice());
/// ```
#[derive(Clone, Debug)]
pub struct TensorRng {
    rng: StdRng,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        TensorRng { rng: StdRng::seed_from_u64(seed) }
    }

    /// Derives an independent child generator; `label` separates streams.
    pub fn child(&mut self, label: u64) -> TensorRng {
        let s: u64 = self.rng.gen::<u64>() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        TensorRng::seed(s)
    }

    /// One sample from `N(mean, std²)` (Box–Muller via `rand`).
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        // Box-Muller on two uniforms; avoids depending on rand_distr.
        let u1: f32 = self.rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
        mean + std * z
    }

    /// A `rows × cols` matrix of i.i.d. `N(mean, std²)` samples.
    pub fn normal_matrix(&mut self, rows: usize, cols: usize, mean: f32, std: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.normal(mean, std))
    }

    /// A uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        self.rng.gen_range(lo..hi)
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.rng.gen_range(0..n)
    }

    /// Samples an index from an unnormalized non-negative weight slice.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty or sum to zero.
    pub fn weighted_index(&mut self, weights: &[f32]) -> usize {
        let total: f64 = weights.iter().map(|&w| f64::from(w.max(0.0))).sum();
        assert!(total > 0.0, "weights must have positive mass");
        let mut t = self.rng.gen_range(0.0..total);
        for (i, &w) in weights.iter().enumerate() {
            t -= f64::from(w.max(0.0));
            if t <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Log-normal sample: `exp(N(mu, sigma²))`.
    pub fn log_normal(&mut self, mu: f32, sigma: f32) -> f32 {
        self.normal(mu, sigma).exp()
    }

    /// Chooses `k` distinct indices from `0..n` (Floyd's algorithm order not
    /// needed; simple partial shuffle), sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn distinct_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot choose {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.rng.gen_range(i..n);
            idx.swap(i, j);
        }
        let mut out = idx[..k].to_vec();
        out.sort_unstable();
        out
    }

    /// Generates an activation-like vector with *channel-persistent outliers*:
    /// baseline `N(0, base_std²)` values, with the channels in
    /// `outlier_channels` scaled by `outlier_gain` (the structure observed in
    /// LLM activations by LLM.int8(), OWQ, and the OPAL paper itself —
    /// a few input channels consistently carry 10–100× magnitudes).
    pub fn outlier_vector(
        &mut self,
        len: usize,
        base_std: f32,
        outlier_channels: &[usize],
        outlier_gain: f32,
    ) -> Vec<f32> {
        let mut v: Vec<f32> = (0..len).map(|_| self.normal(0.0, base_std)).collect();
        for &c in outlier_channels {
            if c < len {
                // Outliers keep a consistent sign bias per channel in real
                // LLMs; a deterministic sign per channel index models that.
                let sign = if c % 2 == 0 { 1.0 } else { -1.0 };
                v[c] = sign * outlier_gain * base_std * (1.0 + self.uniform(-0.25, 0.25));
            }
        }
        v
    }

    /// Samples from any `rand` distribution.
    pub fn sample<T, D: Distribution<T>>(&mut self, dist: &D) -> T {
        dist.sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = TensorRng::seed(7);
        let mut b = TensorRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TensorRng::seed(1);
        let mut b = TensorRng::seed(2);
        let va: Vec<f32> = (0..8).map(|_| a.normal(0.0, 1.0)).collect();
        let vb: Vec<f32> = (0..8).map(|_| b.normal(0.0, 1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn normal_moments() {
        let mut r = TensorRng::seed(99);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| r.normal(2.0, 3.0)).collect();
        let mean: f64 = samples.iter().map(|&v| f64::from(v)).sum::<f64>() / n as f64;
        let var: f64 =
            samples.iter().map(|&v| (f64::from(v) - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn distinct_indices_are_distinct_and_sorted() {
        let mut r = TensorRng::seed(5);
        for _ in 0..20 {
            let idx = r.distinct_indices(50, 10);
            assert_eq!(idx.len(), 10);
            for w in idx.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn outlier_vector_has_outliers() {
        let mut r = TensorRng::seed(11);
        let chans = [3usize, 40];
        let v = r.outlier_vector(128, 1.0, &chans, 50.0);
        let max_regular = v
            .iter()
            .enumerate()
            .filter(|(i, _)| !chans.contains(i))
            .map(|(_, &x)| x.abs())
            .fold(0.0f32, f32::max);
        for &c in &chans {
            assert!(v[c].abs() > 5.0 * max_regular, "channel {c} not an outlier");
        }
    }

    #[test]
    fn weighted_index_respects_mass() {
        let mut r = TensorRng::seed(3);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[r.weighted_index(&[0.0, 1.0, 9.0])] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[2] > counts[1] * 5);
    }
}
