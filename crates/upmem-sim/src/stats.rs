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
}
