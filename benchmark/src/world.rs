//! The system under test: corpus, index, engine, evaluation set.
//!
//! Everything here is a pure function of `--seed`. The corpus is generated
//! in this file rather than by `datasets::SynthSpec`: that generator is
//! isotropic, and at dim 96 an isotropic corpus is PQ-limited (recall@10
//! 0.07–0.43 at m=16), which would make the recall check meaningless. A
//! latent-12 Gaussian mixture pushed through a fixed random projection has
//! the low intrinsic dimension of real descriptor data; recall@10 lands
//! near 0.8 at the configuration below.

use std::time::Instant;

use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use ann_core::vector::VecSet;
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upmem_sim::PimArch;

use crate::spans::{SpanLog, NONE};

pub const DIM: usize = 96;
pub const NDPUS: usize = 64;
pub const K: usize = 10;
/// Queries whose served results are checked and scored in every workload.
pub const EVAL_QUERIES: usize = 256;

const LATENT: usize = 12;
const COMPONENTS: usize = 256;

/// `k=10, nlist=64, nprobe=8, m=32, cb=256`: dim 96 and CB 256 as in the
/// paper, C ≈ 1,560 points per cluster at 10^5 points.
pub const INDEX: IndexConfig = IndexConfig {
    k: K,
    nprobe: 8,
    nlist: 64,
    m: 32,
    cb: 256,
};

/// Independent RNG stream `tag` of run seed `seed`.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

fn gauss(rng: &mut StdRng) -> f32 {
    let u1 = rng.gen::<f64>().max(1e-12);
    let u2 = rng.gen::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// The generating distribution of corpus points and queries alike
/// (in-distribution traffic).
pub struct Mixture {
    /// `LATENT x DIM` projection.
    proj: Vec<f32>,
    /// `COMPONENTS x LATENT` component centers.
    centers: Vec<f32>,
}

impl Mixture {
    pub fn new(seed: u64) -> Self {
        let mut rng = stream(seed, 1);
        let proj = (0..LATENT * DIM).map(|_| gauss(&mut rng)).collect();
        let centers = (0..COMPONENTS * LATENT)
            .map(|_| gauss(&mut rng) * 2.0)
            .collect();
        Mixture { proj, centers }
    }

    /// `n` fresh points in `[0, 255]^DIM`.
    pub fn sample(&self, rng: &mut StdRng, n: usize) -> VecSet<f32> {
        let mut out = VecSet::with_capacity(DIM, n);
        let mut z = [0f32; LATENT];
        let mut v = [0f32; DIM];
        for _ in 0..n {
            let c = rng.gen_range(0..COMPONENTS);
            for (l, zl) in z.iter_mut().enumerate() {
                *zl = self.centers[c * LATENT + l] + gauss(rng) * 0.6;
            }
            for (d, vd) in v.iter_mut().enumerate() {
                let acc: f32 = (0..LATENT).map(|l| z[l] * self.proj[l * DIM + d]).sum();
                *vd = (128.0 + 9.0 * acc + gauss(rng) * 2.0).clamp(0.0, 255.0);
            }
            out.push(&v);
        }
        out
    }
}

/// Wall seconds of each set-up stage (the `setup.*` layer metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub corpus_s: f64,
    pub ivf_build_s: f64,
    pub from_index_s: f64,
    pub ground_truth_s: f64,
    pub server_start_s: f64,
}

pub struct World {
    pub mixture: Mixture,
    pub data: VecSet<f32>,
    /// The evaluation queries every workload routes through its own path.
    pub eval: VecSet<f32>,
    /// Exact top-k ids of `eval` over `data`.
    pub truth: Vec<Vec<u64>>,
    pub times: SetupTimes,
}

/// Build corpus, index, engine and ground truth for `seed`.
///
/// The index is trained with a smaller sample and fewer Lloyd iterations
/// than `IvfPqParams::new` defaults to (8,192 residuals x 4 iterations
/// against 65,536 x 10): set-up runs several times per invocation, and the
/// full training buys about 0.03 recall@10 on this corpus for 7 s more.
pub fn build_world(
    seed: u64,
    n_points: usize,
    log: &mut SpanLog,
) -> Result<(World, DrimEngine), String> {
    let mut times = SetupTimes::default();
    let root = NONE;

    let t = Instant::now();
    let mixture = Mixture::new(seed);
    let data = mixture.sample(&mut stream(seed, 2), n_points);
    let eval = mixture.sample(&mut stream(seed, 3), EVAL_QUERIES);
    times.corpus_s = t.elapsed().as_secs_f64();
    log.push("setup.corpus", t, Instant::now(), root, NONE);

    let t = Instant::now();
    let mut params = IvfPqParams::new(INDEX.nlist).m(INDEX.m).cb(INDEX.cb);
    params.train_sample = 8192;
    params.kmeans_iters = 4;
    let ivf = IvfPqIndex::build(&data, &params);
    times.ivf_build_s = t.elapsed().as_secs_f64();
    log.push("setup.ivf_build", t, Instant::now(), root, NONE);

    let t = Instant::now();
    let mut engine = DrimEngine::from_index(
        ivf,
        &data,
        EngineConfig::drim(INDEX),
        PimArch::upmem_sc25(),
        NDPUS,
        None,
    )
    .map_err(|e| format!("engine build failed: {e}"))?;
    // The CI fault-env matrix (DRIM_ANN_FAULT_SEED) arms every engine at
    // build; the benchmark measures reliable hardware.
    engine.clear_faults();
    times.from_index_s = t.elapsed().as_secs_f64();
    log.push("setup.from_index", t, Instant::now(), root, NONE);

    let t = Instant::now();
    let truth = ann_core::flat::ground_truth(&eval, &data, K);
    times.ground_truth_s = t.elapsed().as_secs_f64();
    log.push("setup.ground_truth", t, Instant::now(), root, NONE);

    let world = World {
        mixture,
        data,
        eval,
        truth,
        times,
    };
    Ok((world, engine))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        let a = Mixture::new(7).sample(&mut stream(7, 2), 50);
        let b = Mixture::new(7).sample(&mut stream(7, 2), 50);
        let c = Mixture::new(8).sample(&mut stream(8, 2), 50);
        assert_eq!(a.as_flat(), b.as_flat());
        assert_ne!(a.as_flat(), c.as_flat());
        assert!(a.as_flat().iter().all(|v| (0.0..=255.0).contains(v)));
    }
}
