//! Order statistics over latency samples.

/// Nearest-rank percentile of `sorted` (ascending), `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (`values` non-empty).
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The tail rule: the highest percentile that keeps at least ten samples
/// beyond it — p99 from 1000 samples, p90 from 100. Below 100 samples (only
/// in shortened runs) the maximum is reported. Returns the label and value.
pub fn tail(sorted: &[f64]) -> (&'static str, f64) {
    let n = sorted.len();
    if n >= 1000 {
        ("p99", percentile(sorted, 0.99))
    } else if n >= 100 {
        ("p90", percentile(sorted, 0.90))
    } else {
        ("max", sorted[n - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(tail(&v), ("p90", 90.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
