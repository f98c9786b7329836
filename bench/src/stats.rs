//! Order statistics over exact samples.

/// Nearest-rank percentile of nanosecond samples, returned in µs. The
/// samples are sorted in place. 0 for an empty set.
pub fn percentile_us(ns: &mut [u64], q: f64) -> f64 {
    ns.sort_unstable();
    v6fleet::nearest_rank(ns, q) as f64 / 1_000.0
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    if ld < 2 {
        return None;
    }
    let n = 4i64;
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (v[(j - 1) as usize] * (n - delta) as f64 + v[j as usize] * delta as f64) / n as f64
    };
    Some((q(1), q(3)))
}

/// Arithmetic mean (0 for an empty set).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let mut ns: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(percentile_us(&mut ns, 0.99), 99.0);
        assert_eq!(percentile_us(&mut ns, 0.50), 50.0);
    }
}
