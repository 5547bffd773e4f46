//! Order statistics of a handful of timed passes.

/// The values in ascending order (timings are never NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median: the middle value, or the mean of the two middle values.
/// 0 for an empty slice, so a workload that ran nothing reports 0, not NaN.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) — the rule
/// the benchmark contract states its spreads in.  `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let m = sorted.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median: how noisy a series of
/// passes was.  0 when there are too few values to say.
pub fn spread(values: &[f64]) -> f64 {
    let median = median(values);
    match quartiles(values) {
        Some((q1, q3)) if median > 0.0 => (q3 - q1) / median,
        _ => 0.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of the values; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&values) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
