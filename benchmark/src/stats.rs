//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(p/100 × n)`. Returns `NaN` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match rank(sorted.len(), p) {
        Some(r) => sorted[r - 1],
        None => f64::NAN,
    }
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// Whether a percentile above the median is *supported* by `n` samples:
/// at least ten samples lie beyond its nearest rank. An unsupported
/// percentile is still printed, flagged, because it is close to the
/// sample maximum and swings run to run.
pub fn supported(n: usize, p: f64) -> bool {
    rank(n, p).is_some_and(|r| n - r >= 10)
}

/// Sorts a sample ascending (timings are never NaN).
pub fn sort(sample: &mut [f64]) {
    sample.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample (nearest rank); `NaN` when empty.
pub fn median(sample: &[f64]) -> f64 {
    let mut s = sample.to_vec();
    sort(&mut s);
    percentile(&s, 50.0)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method:
/// position `i × (n + 1) / 4`, linearly interpolated, clamped to the
/// sample). `compare` uses them so that its spread is the driver's.
pub fn quartiles(sample: &[f64]) -> Option<[f64; 3]> {
    let n = sample.len();
    if n < 2 {
        return None;
    }
    let mut s = sample.to_vec();
    sort(&mut s);
    let at = |i: usize| {
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    Some([at(1), at(2), at(3)])
}

/// Interquartile distance as a share of the median.
pub fn spread(sample: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(sample)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_sample_values() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 95.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples has rank 90: exactly ten beyond.
        assert!(supported(100, 90.0));
        assert!(!supported(99, 90.0));
        // p95 needs 200, p99 needs 1000.
        assert!(supported(200, 95.0));
        assert!(!supported(199, 95.0));
        assert!(supported(1000, 99.0));
        assert!(!supported(16, 90.0));
        assert!(!supported(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&s), Some(1.0));
    }

    #[test]
    fn median_of_unsorted_sample() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
