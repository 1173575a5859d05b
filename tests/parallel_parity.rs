//! Bit-identical results at every host thread count.
//!
//! The rayon shim runs every parallel region on scoped threads per region;
//! its determinism contract is `out[i] = f(i)` with no combining step, so
//! the thread count can never change a result. These tests pin that contract down on the
//! actual hot paths: pooled IVF-PQ batch search, the engine's per-DPU
//! dispatch loop, cluster locating, flat ground truth, and k-means — at
//! 1/2/4/8 threads, including batch sizes that don't divide evenly into
//! chunks, and empty batches.

use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use ann_core::topk::Neighbor;
use ann_core::vector::VecSet;
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use drim_ann::kernels::cl;
use drim_ann::perf_model::{BitWidths, WorkloadShape};
use rayon::with_num_threads;
use upmem_sim::PimArch;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn workload(n: usize, nq: usize) -> (VecSet<f32>, VecSet<f32>) {
    let spec = datasets::SynthSpec::small("parallel-parity", 16, n, 23);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        nq,
        datasets::queries::QuerySkew::InDistribution,
        4,
    );
    (data, queries)
}

/// Bit-exact key for a result set: ids plus raw f32 distance bits.
fn result_bits(rs: &[Vec<Neighbor>]) -> Vec<Vec<(u64, u32)>> {
    rs.iter()
        .map(|l| l.iter().map(|n| (n.id, n.dist.to_bits())).collect())
        .collect()
}

fn subset(queries: &VecSet<f32>, n: usize) -> VecSet<f32> {
    queries.select(&(0..n).collect::<Vec<_>>())
}

#[test]
fn cpu_search_batch_bit_identical_across_thread_counts() {
    let (data, queries) = workload(2000, 64);
    let index = with_num_threads(1, || {
        IvfPqIndex::build(&data, &IvfPqParams::new(48).m(8).cb(32))
    });
    let search = |qs: &VecSet<f32>| rayon::par_map(qs.len(), |qi| index.search(qs.get(qi), 8, 10));
    // batch sizes chosen to not divide evenly into pool chunks, plus a
    // single-query batch
    for nq in [1usize, 7, 33, 64] {
        let qs = subset(&queries, nq);
        let baseline = result_bits(&with_num_threads(1, || search(&qs)));
        for threads in THREAD_COUNTS {
            let got = result_bits(&with_num_threads(threads, || search(&qs)));
            assert_eq!(got, baseline, "nq = {nq}, threads = {threads}");
        }
    }
}

#[test]
fn cpu_search_batch_handles_empty_batch() {
    let (data, _) = workload(600, 4);
    let index = IvfPqIndex::build(&data, &IvfPqParams::new(16).m(4).cb(16));
    let empty = VecSet::new(data.dim());
    for threads in [1, 4] {
        let out = with_num_threads(threads, || {
            rayon::par_map(empty.len(), |qi| index.search(empty.get(qi), 4, 5))
        });
        assert!(out.is_empty(), "threads = {threads}");
    }
}

#[test]
fn flat_ground_truth_bit_identical_across_thread_counts() {
    let (data, queries) = workload(1500, 33);
    let baseline = result_bits(&with_num_threads(1, || {
        ann_core::flat::exact_search_batch(&queries, &data, 10)
    }));
    for threads in THREAD_COUNTS {
        let got = result_bits(&with_num_threads(threads, || {
            ann_core::flat::exact_search_batch(&queries, &data, 10)
        }));
        assert_eq!(got, baseline, "threads = {threads}");
    }
    // empty query set
    let empty = VecSet::new(data.dim());
    assert!(
        with_num_threads(4, || ann_core::flat::exact_search_batch(&empty, &data, 10)).is_empty()
    );
}

#[test]
fn cluster_locating_probes_bit_identical_across_thread_counts() {
    let (data, queries) = workload(1200, 37);
    let params = IvfPqParams::new(32).m(8).cb(32);
    let idx = with_num_threads(1, || ann_core::ivf::IvfPqIndex::build(&data, &params));
    let shape = WorkloadShape::new(
        data.len() as u64,
        queries.len(),
        data.dim(),
        &IndexConfig {
            k: 10,
            nprobe: 6,
            nlist: 32,
            m: 8,
            cb: 32,
        },
        BitWidths::u8_regime(),
    );
    let host = upmem_sim::platform::procs::xeon_silver_4216();
    let baseline = with_num_threads(1, || {
        cl::run(&queries, &idx.coarse, &idx.coarse_norms, 6, &shape, &host)
    });
    for threads in THREAD_COUNTS {
        let got = with_num_threads(threads, || {
            cl::run(&queries, &idx.coarse, &idx.coarse_norms, 6, &shape, &host)
        });
        // probed cluster ids, their order, and the per-query probe counts
        assert_eq!(got.probes, baseline.probes, "threads = {threads}");
        assert_eq!(got.host_s.to_bits(), baseline.host_s.to_bits());
    }
}

#[test]
fn kmeans_bit_identical_across_thread_counts() {
    let (data, _) = workload(3000, 1);
    let params = ann_core::kmeans::KMeansParams::new(24).iters(8).seed(7);
    let baseline = with_num_threads(1, || ann_core::kmeans::kmeans(&data, &params));
    for threads in THREAD_COUNTS {
        let got = with_num_threads(threads, || ann_core::kmeans::kmeans(&data, &params));
        assert_eq!(got.centroids, baseline.centroids, "threads = {threads}");
        assert_eq!(got.assignments, baseline.assignments);
        assert_eq!(got.sizes, baseline.sizes);
        assert_eq!(got.inertia.to_bits(), baseline.inertia.to_bits());
    }
    // standalone assignment entry point too
    let base_assign = with_num_threads(1, || ann_core::kmeans::assign(&data, &baseline.centroids));
    for threads in THREAD_COUNTS {
        let got = with_num_threads(threads, || {
            ann_core::kmeans::assign(&data, &baseline.centroids)
        });
        assert_eq!(got, base_assign, "threads = {threads}");
    }
}

#[test]
fn tiled_gemm_bit_identical_across_thread_counts_and_batch_splits() {
    // the GEMM itself never reads the pool width, and its per-element
    // accumulation order is invariant to how callers split the batch —
    // the two properties every consumer's thread parity rests on
    use ann_core::linalg::{Matrix, MatrixView};
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
    };
    let (m, k, n) = (130usize, 96usize, 33usize);
    let a = Matrix::from_rows(m, k, (0..m * k).map(|_| next()).collect());
    let b = Matrix::from_rows(n, k, (0..n * k).map(|_| next()).collect());
    let baseline = with_num_threads(1, || a.view().matmul_t(&b.view()));
    for threads in THREAD_COUNTS {
        let got = with_num_threads(threads, || a.view().matmul_t(&b.view()));
        let bits = |mtx: &Matrix| -> Vec<u32> { mtx.data.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&got), bits(&baseline), "threads = {threads}");
    }
    // batch-split invariance: computing the product 5 columns at a time
    // reproduces the full product bit-for-bit
    for lo in (0..n).step_by(5) {
        let hi = (lo + 5).min(n);
        let sub = MatrixView::new(hi - lo, k, &b.data[lo * k..hi * k]);
        let part = a.view().matmul_t(&sub);
        for i in 0..m {
            for j in lo..hi {
                assert_eq!(part.get(i, j - lo).to_bits(), baseline.get(i, j).to_bits());
            }
        }
    }
}

#[test]
fn batched_lut_and_locate_bit_identical_across_thread_counts() {
    // lut_batch and locate_batch are sequential per call, but they sit on
    // hot paths whose callers parallelize — pin their outputs at every
    // pool width (and, transitively, the GEMM under them)
    let (data, queries) = workload(1500, 33);
    let params = IvfPqParams::new(24).m(8).cb(16);
    let idx = with_num_threads(1, || ann_core::ivf::IvfPqIndex::build(&data, &params));
    let lut_bits = |luts: &[f32]| -> Vec<u32> { luts.iter().map(|x| x.to_bits()).collect() };
    let base_lut = with_num_threads(1, || idx.quant.lut_batch(&queries));
    let base_probes = with_num_threads(1, || idx.locate_batch(&queries, 5));
    for threads in THREAD_COUNTS {
        let lut = with_num_threads(threads, || idx.quant.lut_batch(&queries));
        assert_eq!(lut_bits(&lut), lut_bits(&base_lut), "threads = {threads}");
        let probes = with_num_threads(threads, || idx.locate_batch(&queries, 5));
        let key = |ps: &Vec<Vec<(u32, f32)>>| -> Vec<Vec<(u32, u32)>> {
            ps.iter()
                .map(|p| p.iter().map(|&(c, d)| (c, d.to_bits())).collect())
                .collect()
        };
        assert_eq!(key(&probes), key(&base_probes), "threads = {threads}");
    }
}

#[test]
fn engine_batch_bit_identical_across_thread_counts() {
    let (data, queries) = workload(2500, 24);
    let cfg = EngineConfig::drim(IndexConfig {
        k: 10,
        nprobe: 12,
        nlist: 48,
        m: 8,
        cb: 32,
    });
    let mut engine = with_num_threads(1, || {
        DrimEngine::build(&data, cfg, PimArch::upmem_sc25(), 8, None).unwrap()
    });
    let (r0, rep0) = with_num_threads(1, || engine.search_batch(&queries));
    let baseline = result_bits(&r0);
    for threads in THREAD_COUNTS {
        let (r, rep) = with_num_threads(threads, || engine.search_batch(&queries));
        assert_eq!(result_bits(&r), baseline, "threads = {threads}");
        assert_eq!(rep.postponed, rep0.postponed, "threads = {threads}");
        assert_eq!(rep.queries, rep0.queries);
    }
}

#[test]
fn engine_built_under_different_thread_counts_is_identical() {
    // index construction itself (k-means, PQ encode, layout) must be
    // thread-count-invariant, not just the search path
    let (data, queries) = workload(1500, 16);
    let cfg = || {
        EngineConfig::drim(IndexConfig {
            k: 10,
            nprobe: 8,
            nlist: 32,
            m: 8,
            cb: 32,
        })
    };
    let mut e1 = with_num_threads(1, || {
        DrimEngine::build(&data, cfg(), PimArch::upmem_sc25(), 4, None).unwrap()
    });
    let mut e4 = with_num_threads(4, || {
        DrimEngine::build(&data, cfg(), PimArch::upmem_sc25(), 4, None).unwrap()
    });
    let (r1, _) = with_num_threads(1, || e1.search_batch(&queries));
    let (r4, _) = with_num_threads(4, || e4.search_batch(&queries));
    assert_eq!(result_bits(&r1), result_bits(&r4));
}
