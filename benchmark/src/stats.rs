//! Sample statistics: the percentile rule, medians, the quartile spread
//! and the bound comparison used by `--check`.

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (timings are never NaN).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    xs
}

pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples a percentile needs so that at least ten lie beyond it — the
/// rule every tail metric of this benchmark follows.
pub fn min_samples_for(p: f64) -> usize {
    // a hair under before rounding up: 10 / (1 - 0.9) is 100.00000000000001
    (1000.0 / (100.0 - p) - 1e-6).ceil() as usize
}

/// The highest of the usual percentiles that `n` samples support under the
/// ten-beyond rule, or `None` below 20 samples (not even a median).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n >= min_samples_for(p))
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so the spreads this benchmark
/// reports are the spreads its driver computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is worse than the parent's by more than the bound.
    Regressed,
    /// No worse than the bound allows, and both sides are steadier than it.
    WithinBound,
    /// A side's own run-to-run spread exceeds the bound: the comparison
    /// cannot tell a regression from noise.
    Unresolved,
}

/// How much worse `change` is than `parent`, as a share of the parent's
/// median (negative = better).
pub fn worsening(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let (p, c) = (median(parent), median(change));
    match better {
        Better::Lower => (c - p) / p.abs(),
        Better::Higher => (p - c) / p.abs(),
    }
}

/// The rule of `--check`: regression beats noise, noise beats "fine".
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    if worsening(parent, change, better) > bound {
        return Verdict::Regressed;
    }
    let noisy = |xs: &[f64]| xs.len() >= 2 && spread(xs) > bound;
    if noisy(parent) || noisy(change) {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(75.0), 40);
        assert_eq!(highest_supported_percentile(8000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(160), Some(90.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(39), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        // ten samples lie strictly beyond p90 of 100
        assert_eq!(
            s.iter()
                .filter(|&&x| x > percentile_sorted(&s, 90.0))
                .count(),
            10
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn bound_comparison_orders_regression_over_noise() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        // latency up 20% against a 10% bound
        assert_eq!(
            compare(&steady, &slower, Better::Lower, 0.10),
            Verdict::Regressed
        );
        // the same numbers as a throughput are an improvement
        assert_eq!(
            compare(&steady, &slower, Better::Higher, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            compare(&slower, &steady, Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            compare(&steady, &steady, Better::Lower, 0.10),
            Verdict::WithinBound
        );
        // equal medians but a spread wider than the bound proves nothing
        assert_eq!(
            compare(&steady, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // exactly at the bound is still within it
        assert_eq!(
            compare(&[100.0], &[110.0], Better::Lower, 0.10),
            Verdict::WithinBound
        );
        assert!((worsening(&steady, &slower, Better::Lower) - 0.2).abs() < 1e-12);
    }
}
