//! Summary statistics for repeated timings.

/// The samples, sorted ascending. NaNs sort last (they never occur in
/// timings, but `total_cmp` keeps the sort total).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method) so the spread this benchmark reports is the
/// spread its acceptance check computes. A single sample is its own
/// quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The highest of the percentiles 50, 75, 90, 95, 99 and 99.9 with at
/// least ten samples strictly beyond it, as `(percentile, value)` by the
/// nearest-rank rule; `None` below twenty samples, where no percentile
/// has ten samples past it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    // Per mille, so the nearest rank is exact integer arithmetic.
    const CANDIDATES: [usize; 6] = [999, 990, 950, 900, 750, 500];
    let v = sorted(values);
    let n = v.len();
    CANDIDATES.into_iter().find_map(|per_mille| {
        let rank = (n * per_mille).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (per_mille as f64 / 10.0, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&v(19)), None);
        assert_eq!(tail_percentile(&v(20)), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&v(40)), Some((75.0, 30.0)));
        assert_eq!(tail_percentile(&v(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&v(200)), Some((95.0, 190.0)));
        assert_eq!(tail_percentile(&v(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&v(10_000)), Some((99.9, 9990.0)));
    }
}
