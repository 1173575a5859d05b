//! Query-set generation.
//!
//! Two regimes matter for the paper's experiments:
//!
//! * **In-distribution** queries — drawn near the corpus' mixture
//!   components with the *same* component probabilities (the default for
//!   recall/QPS runs);
//! * **Skewed** queries — component choice re-weighted by an extra Zipf
//!   factor, concentrating load on a few hot clusters. This is the regime
//!   where naive layouts collapse and DRIM-ANN's duplication + scheduling
//!   recover 4.8–6.2x (paper Fig. 13).

use crate::synth::{component_centers, gaussian, SynthSpec};
use crate::zipf::Zipf;
use ann_core::vector::VecSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How query load is spread over the corpus' latent components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuerySkew {
    /// Component probabilities equal to the corpus mass (in-distribution).
    InDistribution,
    /// Components re-ranked by an independent Zipf(`s`): a few become hot.
    Hot {
        /// Zipf exponent of query heat (1.0–1.5 are realistic web skews).
        s: f64,
    },
}

/// Generate `n_queries` queries for the corpus described by `spec`.
///
/// Queries are points near component centers with the same jitter scale as
/// the corpus, so they have in-distribution nearest neighbors.
pub fn generate_queries(
    spec: &SynthSpec,
    n_queries: usize,
    skew: QuerySkew,
    seed: u64,
) -> VecSet<f32> {
    // Re-derive the corpus component centers from the corpus seed.
    let mut corpus_rng = StdRng::seed_from_u64(spec.seed);
    let centers = component_centers(spec, &mut corpus_rng);

    let mut rng = StdRng::seed_from_u64(seed ^ 0xD9E5);
    let sampler = match skew {
        QuerySkew::InDistribution => Zipf::new(spec.n_components, spec.zipf_s),
        QuerySkew::Hot { s } => Zipf::new(spec.n_components, s),
    };

    let (lo, hi) = spec.value_range;
    let mut out = VecSet::with_capacity(spec.dim, n_queries);
    let mut v = vec![0.0f32; spec.dim];
    for _ in 0..n_queries {
        let c = sampler.sample(&mut rng);
        let center = centers.get(c);
        for (d, slot) in v.iter_mut().enumerate() {
            *slot = (center[d] + gaussian(&mut rng) * spec.cluster_std).clamp(lo, hi);
        }
        out.push(&v);
    }
    out
}

/// Rejected query-trace request — returned instead of panicking so callers
/// can surface the misconfiguration (same convention as
/// `drim_ann::config::ConfigError`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// The sampled pool must contain at least one entry.
    EmptyPool,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::EmptyPool => write!(f, "trace pool must be non-empty"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Seeded Zipfian index trace: `len` draws from `0..pool`, where a random
/// (seeded) permutation assigns each index a Zipf(`s`) rank. Popularity is
/// thus uncorrelated with index order — the realistic shape of production
/// query traffic, where a few queries repeat very often.
///
/// `s = 0` degenerates to uniform sampling with repetition. An empty pool
/// is rejected with [`TraceError::EmptyPool`].
pub fn zipfian_indices(
    pool: usize,
    len: usize,
    s: f64,
    seed: u64,
) -> Result<Vec<usize>, TraceError> {
    if pool == 0 {
        return Err(TraceError::EmptyPool);
    }
    // SplitMix64 is bit-compatible with the StdRng stream this generator
    // originally used, so existing seeded traces replay unchanged
    // (pinned by `zipfian_trace_matches_legacy_stdrng_stream` below).
    let mut rng = ann_core::hash::SplitMix64::seed_from_u64(seed ^ 0x21BF_1A2E);
    // rank -> index permutation (Fisher-Yates over the pool)
    let mut rank_to_idx: Vec<usize> = (0..pool).collect();
    for i in (1..pool).rev() {
        let j = rand::Rng::gen_range(&mut rng, 0..=i);
        rank_to_idx.swap(i, j);
    }
    let sampler = Zipf::new(pool, s);
    Ok((0..len)
        .map(|_| rank_to_idx[sampler.sample(&mut rng)])
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::generate;

    fn spec() -> SynthSpec {
        SynthSpec::small("q", 8, 1000, 77)
    }

    #[test]
    fn shapes_and_determinism() {
        let s = spec();
        let a = generate_queries(&s, 100, QuerySkew::InDistribution, 1);
        let b = generate_queries(&s, 100, QuerySkew::InDistribution, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert_eq!(a.dim(), 8);
        let c = generate_queries(&s, 100, QuerySkew::InDistribution, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn queries_have_close_neighbors_in_corpus() {
        let s = spec();
        let corpus = generate(&s);
        let queries = generate_queries(&s, 20, QuerySkew::InDistribution, 5);
        // each query's nearest corpus point should be within a few cluster
        // radii, far below the uniform-random expectation
        for qi in 0..queries.len() {
            let res = ann_core::flat::exact_search(queries.get(qi), &corpus, 1);
            let d = res[0].dist;
            let radius = 8.0 * s.cluster_std * s.cluster_std * s.dim as f32;
            assert!(d < radius, "query {qi} nearest dist {d} radius {radius}");
        }
    }

    #[test]
    fn zipfian_trace_is_seeded_and_skewed() {
        // determinism
        let a = zipfian_indices(100, 2000, 1.2, 7).unwrap();
        let b = zipfian_indices(100, 2000, 1.2, 7).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, zipfian_indices(100, 2000, 1.2, 8).unwrap());
        assert!(a.iter().all(|&i| i < 100));

        // skew: the hottest index dominates a uniform draw's expectation
        let mut counts = vec![0usize; 100];
        for &i in &a {
            counts[i] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max > 5 * (a.len() / 100), "hottest count {max}");
        // s = 0 degenerates to roughly uniform
        let u = zipfian_indices(100, 2000, 0.0, 7).unwrap();
        let mut ucounts = vec![0usize; 100];
        for &i in &u {
            ucounts[i] += 1;
        }
        let umax = *ucounts.iter().max().unwrap();
        assert!(umax < 3 * (u.len() / 100), "uniform hottest {umax}");
    }

    #[test]
    fn zipfian_trace_matches_legacy_stdrng_stream() {
        // The trace generator moved from the rand shim's StdRng to the
        // shared ann_core::hash::SplitMix64; the streams are bit-compatible,
        // so seeded traces must replay exactly what the old code produced.
        for (pool, len, s, seed) in [
            (100, 500, 1.2, 7u64),
            (16, 64, 0.0, 9),
            (1000, 200, 0.8, 42),
        ] {
            let got = zipfian_indices(pool, len, s, seed).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x21BF_1A2E);
            let mut rank_to_idx: Vec<usize> = (0..pool).collect();
            for i in (1..pool).rev() {
                let j = rand::Rng::gen_range(&mut rng, 0..=i);
                rank_to_idx.swap(i, j);
            }
            let sampler = Zipf::new(pool, s);
            let want: Vec<usize> = (0..len)
                .map(|_| rank_to_idx[sampler.sample(&mut rng)])
                .collect();
            assert_eq!(got, want, "pool {pool} len {len} s {s} seed {seed}");
        }
    }

    #[test]
    fn empty_pool_is_a_typed_error() {
        assert_eq!(zipfian_indices(0, 10, 1.0, 1), Err(TraceError::EmptyPool));
        assert!(TraceError::EmptyPool.to_string().contains("non-empty"));
    }

    #[test]
    fn values_respect_range() {
        let s = spec();
        let q = generate_queries(&s, 50, QuerySkew::Hot { s: 1.2 }, 9);
        for &x in q.as_flat() {
            assert!((0.0..=255.0).contains(&x));
        }
    }
}
