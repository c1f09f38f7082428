//! Order statistics used by every metric.

/// Percentiles the benchmark may report, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// 1-based nearest rank of the `p` percentile among `n` samples. The
/// epsilon keeps decimal percentiles such as 99.9 from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it, or `None` when even the median has fewer.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().rev().find(|&p| beyond(n, p) >= 10)
}

/// A tail percentile as reported: the wanted one when the sample supports
/// it, else the highest it does support. Returns (percentile used, value).
pub fn tail(sorted: &[f64], wanted: f64) -> Option<(f64, f64)> {
    let p = if beyond(sorted.len(), wanted) >= 10 {
        wanted
    } else {
        highest_supported(sorted.len())?
    };
    Some((p, percentile(sorted, p)))
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_highest_percentile_with_ten_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        let s: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(tail(&s, 99.0), Some((99.0, 990.0)));
        assert_eq!(beyond(s.len(), 99.0), 10);
        // Too few samples for a p99: fall back to p90 and say so.
        let s: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&s, 99.0), Some((90.0, 450.0)));
        assert_eq!(tail(&s[..5], 99.0), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
