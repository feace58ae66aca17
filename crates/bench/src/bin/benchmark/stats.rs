//! Order statistics for the benchmark's reported numbers.

/// Percentiles the summary may report as a latency tail, highest first.
const TAIL_LADDER: [f64; 3] = [0.999, 0.99, 0.9];

/// Samples that must lie beyond a reported percentile for it to mean
/// anything: with fewer, the "tail" is one or two outliers.
pub const BEYOND_MIN: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `sorted` (ascending,
/// non-empty): the smallest sample with at least `p·n` samples at or
/// below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The slack
/// keeps `0.9 × 110 = 99.00000000000001` at rank 99.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 - 1e-9).ceil() as usize
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p).max(1))
}

/// Samples needed before percentile `p` has [`BEYOND_MIN`] beyond it.
pub fn samples_for(p: f64) -> usize {
    (1..).find(|&n| beyond(n, p) >= BEYOND_MIN).expect("finite")
}

/// The highest percentile of the ladder with at least [`BEYOND_MIN`]
/// samples beyond it, or `None` when even p90 is not resolvable.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= BEYOND_MIN)
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles with the interpolation of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
/// spread computed here matches one computed from the same numbers
/// there. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let q = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_for(0.9), 100);
        assert_eq!(samples_for(0.99), 1000);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(0), None);
        // The reported p90 of 100 samples is the 90th: exactly ten above.
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.9), 90.0);
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
