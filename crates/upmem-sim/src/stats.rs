//! Small numeric helpers used across reports: means, geometric means,
//! load-imbalance factors.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of strictly positive values; 0 for an empty slice.
///
/// The paper reports geomean speedups (e.g. 1.89x on SIFT100M, Fig. 7).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Max value of a slice; `f64::NEG_INFINITY` for an empty slice (the
/// identity of `max`, so all-negative inputs fold correctly).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Normalize a slice into fractions of its sum; all zeros when the sum is
/// not positive. Used by the latency and energy breakdown reports.
pub fn fractions<const N: usize>(xs: &[f64; N]) -> [f64; N] {
    let total: f64 = xs.iter().sum();
    if total > 0.0 {
        xs.map(|x| x / total)
    } else {
        [0.0; N]
    }
}

/// Load-imbalance factor `max / mean`; 1.0 means perfectly balanced work and
/// equals the slowdown suffered by a synchronous all-DPU barrier relative to
/// ideal balancing.
pub fn imbalance(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        1.0
    } else {
        max(xs) / m
    }
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Percentile of an unsorted slice with linear interpolation between the
/// two closest order statistics, `p` in [0, 100]. 0 for an empty slice.
///
/// This is the estimator latency scoreboards expect (numpy's default):
/// `p50` of `[1, 2, 3, 4]` is 2.5, and tail quantiles of small samples
/// move smoothly with `p` instead of snapping to the nearest rank. For
/// the classic step-function definition use [`percentile_nearest_rank`].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let h = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        v[lo] + (h - lo as f64) * (v[hi] - v[lo])
    }
}

/// Nearest-rank percentile of an unsorted slice, `p` in (0, 100]: the
/// smallest sample with at least `p`% of the distribution at or below it
/// (rank `ceil(p/100 * n)`). Always returns an observed sample; 0 for an
/// empty slice. The fault bench pins its hedging criterion to this
/// definition so its p99 is an actual measured batch time.
pub fn percentile_nearest_rank(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_leq_mean() {
        let xs = [1.0, 2.0, 3.0, 10.0];
        assert!(geomean(&xs) <= mean(&xs));
    }

    #[test]
    fn max_handles_all_negative_and_empty() {
        assert_eq!(max(&[3.0, 7.0, 2.0]), 7.0);
        // folding from 0.0 would wrongly return 0 here
        assert_eq!(max(&[-5.0, -2.0, -9.0]), -2.0);
        assert_eq!(max(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn imbalance_balanced_is_one() {
        assert!((imbalance(&[2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
        let i = imbalance(&[1.0, 1.0, 4.0]);
        assert!((i - 2.0).abs() < 1e-12);
        assert_eq!(imbalance(&[]), 1.0);
    }

    #[test]
    fn fractions_normalize_or_zero() {
        let fr = fractions(&[1.0, 3.0]);
        assert_eq!(fr, [0.25, 0.75]);
        assert_eq!(fractions(&[0.0, 0.0]), [0.0, 0.0]);
    }

    #[test]
    fn stddev_basic() {
        assert_eq!(stddev(&[5.0, 5.0]), 0.0);
        assert!((stddev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_basic() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        // even-length sample: the median falls between two samples
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 25.0) - 1.75).abs() < 1e-12);
        // p99 of 50 samples 1..=50: h = 0.99 * 49 = 48.51
        let xs: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        assert!((percentile(&xs, 99.0) - 49.51).abs() < 1e-12);
        // monotone in p, bounded by the extremes
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let v = percentile(&xs, p);
            assert!(v >= prev && (1.0..=50.0).contains(&v));
            prev = v;
        }
    }

    #[test]
    fn percentile_nearest_rank_returns_observed_samples() {
        let xs: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        // rank ceil(0.99 * 50) = 50 -> the 50th order statistic
        assert_eq!(percentile_nearest_rank(&xs, 99.0), 50.0);
        assert_eq!(percentile_nearest_rank(&xs, 50.0), 25.0);
        assert_eq!(percentile_nearest_rank(&xs, 100.0), 50.0);
        // tiny p clamps to the first order statistic
        assert_eq!(percentile_nearest_rank(&xs, 0.0), 1.0);
        assert_eq!(percentile_nearest_rank(&[], 99.0), 0.0);
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_nearest_rank(&xs, 50.0), 2.0);
    }
}
