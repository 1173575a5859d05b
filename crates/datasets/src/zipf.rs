//! Zipf distribution: the skew model for cluster mass and query heat.
//!
//! Real ANNS workloads are skewed — "some of the clusters can be hot in many
//! practical application scenarios" (paper Section 3.2) — and cluster sizes
//! produced by k-means over natural data are themselves uneven. A Zipf law
//! with exponent `s` captures both; `s = 0` degenerates to uniform.

use rand::Rng;

/// Normalized Zipf weights over `n` ranks: `w_i ∝ 1 / (i+1)^s`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0);
    let raw: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(s)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// A sampler drawing ranks `0..n` with Zipf(`s`) probabilities via a
/// precomputed CDF (O(log n) per draw).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler.
    pub fn new(n: usize, s: f64) -> Self {
        let w = zipf_weights(n, s);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for wi in w {
            acc += wi;
            cdf.push(acc);
        }
        // guard against accumulated floating error
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the distribution has no ranks (never constructible).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw one rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).unwrap())
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability of rank `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

/// A sampler over arbitrary non-negative weights (generalizes [`Zipf`]).
///
/// A draw is expected O(1): a guide table of `n + 1` start indices, one
/// per bucket `floor(u * n)` of the uniform draw `u`, points at the first
/// CDF entry that bucket can land on, and the draw walks forward from
/// there (expected fewer than two steps, since the `n` entries spread over
/// `n` buckets). It returns the index a binary search of the CDF returns.
#[derive(Debug, Clone)]
pub struct Discrete {
    cdf: Vec<f64>,
    /// `guide[b]`: the first index whose CDF entry falls in bucket `>= b`.
    guide: Vec<u32>,
}

impl Discrete {
    /// Build from weights (need not be normalized; at least one positive).
    /// Every weight must be finite and non-negative: anything else would
    /// make the CDF non-monotone and every draw after it wrong.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty());
        assert!(
            u32::try_from(weights.len()).is_ok(),
            "at most u32::MAX weights"
        );
        if let Some((i, w)) = weights
            .iter()
            .enumerate()
            .find(|(_, w)| !(w.is_finite() && **w >= 0.0))
        {
            panic!("weight {i} is {w}: weights must be finite and >= 0");
        }
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not be all zero");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        // The bucket function is monotone in its argument, so an entry in
        // a lower bucket than `u`'s is below `u`: the walk from `guide[b]`
        // skips nothing it could return. The last entry is 1.0, in bucket
        // `n`, so every guide entry is a valid index.
        let n = cdf.len();
        let mut guide = Vec::with_capacity(n + 1);
        let mut i = 0;
        for b in 0..=n {
            while bucket(cdf[i], n) < b {
                i += 1;
            }
            guide.push(i as u32);
        }
        Discrete { cdf, guide }
    }

    /// Draw one index.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let mut i = self.guide[bucket(u, self.cdf.len())] as usize;
        // u < 1.0 = the last entry, so the walk stops in bounds
        while self.cdf[i] < u {
            i += 1;
        }
        // `i` is the first entry >= u. Only where u hits an entry exactly
        // and zero weights repeat it could the binary search choose
        // another copy; let it choose.
        if self.cdf[i] == u {
            return self.bisect(u);
        }
        i
    }

    /// The binary search of the CDF: the rule every draw follows.
    fn bisect(&self, u: f64) -> usize {
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).unwrap())
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// The guide-table bucket of `x` in `[0, 1]` over `n` entries: `floor(x *
/// n)`, at most `n`.
#[inline]
fn bucket(x: f64, n: usize) -> usize {
    ((x * n as f64) as usize).min(n)
}

/// Split `total` items into `n` bucket sizes proportional to Zipf(`s`)
/// weights; sizes sum exactly to `total` and every bucket gets >= 1 when
/// `total >= n`.
pub fn zipf_partition(total: usize, n: usize, s: f64) -> Vec<usize> {
    assert!(n > 0);
    let w = zipf_weights(n, s);
    let mut sizes: Vec<usize> = w.iter().map(|&wi| (wi * total as f64) as usize).collect();
    if total >= n {
        for sz in sizes.iter_mut() {
            if *sz == 0 {
                *sz = 1;
            }
        }
    }
    // fix rounding drift by adjusting the largest bucket
    let sum: usize = sizes.iter().sum();
    if sum < total {
        sizes[0] += total - sum;
    } else {
        let mut excess = sum - total;
        for sz in sizes.iter_mut() {
            let take = excess.min(sz.saturating_sub(1));
            *sz -= take;
            excess -= take;
            if excess == 0 {
                break;
            }
        }
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weights_sum_to_one() {
        let w = zipf_weights(100, 1.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn s_zero_is_uniform() {
        let w = zipf_weights(10, 0.0);
        for &wi in &w {
            assert!((wi - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_decrease_with_rank() {
        let w = zipf_weights(50, 1.2);
        for pair in w.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        assert!(w[0] > 5.0 * w[49]);
    }

    #[test]
    fn sampler_matches_pmf_roughly() {
        let z = Zipf::new(5, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.pmf(i)).abs() < 0.01,
                "rank {i}: empirical {emp} vs pmf {}",
                z.pmf(i)
            );
        }
    }

    /// The inputs the guide table is checked on: Zipf-skewed weights, runs
    /// of zero weights (repeated CDF entries), one weight, and weights whose
    /// accumulated CDF ends just below 1.0 before it is forced there.
    fn discrete_inputs() -> Vec<(&'static str, Vec<f64>)> {
        let zeros = (0..200)
            .map(|i| {
                if i % 3 == 0 || (50..90).contains(&i) {
                    0.0
                } else {
                    (i % 7) as f64 + 0.5
                }
            })
            .collect();
        vec![
            ("zipf", zipf_weights(4096, 1.1)),
            ("zeros", zeros),
            ("single", vec![2.5]),
            ("short sum", vec![1.0; 10]),
        ]
    }

    #[test]
    fn discrete_draws_what_the_binary_search_draws() {
        let (_, short) = &discrete_inputs()[3];
        let acc = short
            .iter()
            .fold(0.0, |a, w| a + w / short.iter().sum::<f64>());
        assert!(acc < 1.0, "the short-sum input must accumulate below 1.0");
        for (name, w) in discrete_inputs() {
            let d = Discrete::new(&w);
            let mut rng = StdRng::seed_from_u64(11);
            let mut oracle = rng.clone();
            for draw in 0..1_000_000 {
                let want = d.bisect(oracle.gen());
                assert_eq!(d.sample(&mut rng), want, "{name}: draw {draw}");
            }
        }
    }

    #[test]
    fn discrete_matches_its_weights_roughly() {
        for (name, w) in discrete_inputs() {
            let d = Discrete::new(&w);
            let total: f64 = w.iter().sum();
            let mut rng = StdRng::seed_from_u64(3);
            let mut counts = vec![0usize; w.len()];
            let n = 200_000;
            for _ in 0..n {
                counts[d.sample(&mut rng)] += 1;
            }
            for (i, (&count, &wi)) in counts.iter().zip(&w).enumerate() {
                let emp = count as f64 / n as f64;
                let pmf = wi / total;
                assert!((emp - pmf).abs() < 0.01, "{name} {i}: {emp} vs {pmf}");
                assert!(wi > 0.0 || count == 0, "{name}: zero weight {i} drawn");
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn discrete_rejects_a_negative_weight() {
        Discrete::new(&[1.0, -0.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn discrete_rejects_a_nan_weight() {
        Discrete::new(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn discrete_rejects_an_infinite_weight() {
        Discrete::new(&[f64::INFINITY, 1.0]);
    }

    #[test]
    fn partition_sums_exactly() {
        for (total, n, s) in [
            (1000usize, 7usize, 1.0f64),
            (100, 100, 0.8),
            (5000, 64, 1.5),
        ] {
            let sizes = zipf_partition(total, n, s);
            assert_eq!(sizes.len(), n);
            assert_eq!(sizes.iter().sum::<usize>(), total, "total={total} n={n}");
            assert!(sizes.iter().all(|&x| x >= 1));
        }
    }

    #[test]
    fn partition_is_skewed() {
        let sizes = zipf_partition(10_000, 10, 1.0);
        assert!(sizes[0] > 3 * sizes[9]);
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(20, 0.9);
        let total: f64 = (0..20).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.len(), 20);
        assert!(!z.is_empty());
    }
}
