//! Order statistics for the report: nearest-rank percentiles, the
//! "highest percentile with enough samples beyond it" picker, medians
//! and the quartile spread `--compare` judges noise by.

/// How many samples must lie beyond a percentile for it to be reported
/// as a tail figure (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// The percentiles the report knows, lowest first.
pub const LADDER: [(&str, f64); 5] = [
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
    ("p999", 0.999),
    ("p9999", 0.9999),
];

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    // The epsilon keeps products like 0.999 × 10 000 = 9990.000000000002
    // from rounding up a rank.
    let r = (q * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Nearest-rank percentile of an ascending-sorted sample; `None` when
/// it is empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    sorted.get(rank(sorted.len(), q)).copied()
}

/// Samples strictly beyond the nearest-rank position of `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The highest percentile of [`LADDER`] that still has at least
/// [`MIN_BEYOND`] samples beyond it; `None` when not even the median
/// does.
pub fn highest_supported(n: usize) -> Option<&'static str> {
    LADDER
        .iter()
        .rev()
        .find(|(_, q)| samples_beyond(n, *q) >= MIN_BEYOND)
        .map(|(name, _)| *name)
}

/// Median of a sample (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the estimator the acceptance driver uses. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 when it cannot
/// be formed (fewer than two samples, or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 0.50), Some(50));
        assert_eq!(percentile(&sample, 0.99), Some(99));
        assert_eq!(percentile(&sample, 0.999), Some(100));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.999), Some(7));
    }

    #[test]
    fn picker_wants_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990 with exactly 10 beyond;
        // p999 at rank 999 has one beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1000, 0.999), 1);
        assert_eq!(highest_supported(1000), Some("p99"));
        assert_eq!(highest_supported(999), Some("p90"));
        assert_eq!(highest_supported(10_000), Some("p999"));
        assert_eq!(highest_supported(100_000), Some("p9999"));
        assert_eq!(highest_supported(21), Some("p50"));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn median_and_python_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
