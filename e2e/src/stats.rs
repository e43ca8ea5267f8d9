//! Order statistics the benchmark reports: nearest-rank percentiles
//! that are suppressed when the sample cannot support them, medians,
//! and the quartile spread `compare` judges repeatability by.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the sample at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples that must lie beyond a percentile before it is reported: a
/// p99 from a hundred samples is the maximum, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// [`nearest_rank`], or `None` unless at least [`MIN_BEYOND`] samples
/// lie strictly beyond the percentile's rank.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Whether a percentile read from a histogram of `count` samples has
/// [`MIN_BEYOND`] samples beyond it.
pub fn histogram_supports(count: u64, q: f64) -> bool {
    (count as f64 * (1.0 - q)).floor() >= MIN_BEYOND as f64
}

/// Sorts in place (total order; the harness never records NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median (mean of the two middle samples for even counts); sorts.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    sort(samples);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method: position `i·(n+1)/4`, linear interpolation, clamped to the
/// sample). Needs at least two samples; sorts.
pub fn quartiles(samples: &mut [f64]) -> Option<[f64; 3]> {
    if samples.len() < 2 {
        return None;
    }
    sort(samples);
    let n = samples.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        samples[j - 1] + (samples[j] - samples[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Interquartile range as a share of the median — the run-to-run
/// spread the benchmark contract bounds.
pub fn spread(samples: &mut [f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Failed operations as a share of those attempted (0 when nothing was
/// attempted: nothing can have failed).
pub fn fail_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.50), 500.0);
        assert_eq!(nearest_rank(&s, 0.99), 990.0);
        assert_eq!(nearest_rank(&s, 0.999), 999.0);
        assert_eq!(nearest_rank(&s, 1.0), 1000.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 0.99), Some(990.0));
        assert_eq!(supported_percentile(&s, 0.999), None);
        assert_eq!(supported_percentile(&s[..999], 0.99), None);
        assert_eq!(supported_percentile(&s[..20], 0.5), Some(10.0));
        assert_eq!(supported_percentile(&s[..19], 0.5), None);
        assert!(histogram_supports(1000, 0.99));
        assert!(!histogram_supports(999, 0.99));
    }

    #[test]
    fn quartiles_follow_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&mut v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&mut [1.0]), None);
        let s = spread(&mut v).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fail_share_arithmetic() {
        assert_eq!(fail_share(0, 0), 0.0);
        assert_eq!(fail_share(0, 1000), 0.0);
        assert_eq!(fail_share(5, 1000), 0.005);
        assert_eq!(fail_share(10, 10), 1.0);
    }
}
