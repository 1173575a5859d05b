//! Baseline parity: the CPU reference scan, the engine, and the exact
//! search must agree on quality, and the cross-platform models must keep
//! the paper's ordering.

use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use baselines::cpu::CpuModel;
use baselines::gpu::GpuModel;
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use drim_ann::perf_model::{BitWidths, WorkloadShape};
use upmem_sim::PimArch;

#[test]
fn cpu_reference_equals_index_search_exactly() {
    let spec = datasets::SynthSpec::small("parity", 16, 3_000, 21);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        16,
        datasets::queries::QuerySkew::InDistribution,
        5,
    );
    let params = IvfPqParams::new(64).m(8).cb(32);
    let index = IvfPqIndex::build(&data, &params);
    let direct = IvfPqIndex::build(&data, &params);
    let batch = rayon::par_map(queries.len(), |qi| index.search(queries.get(qi), 8, 10));
    for (qi, batch_result) in batch.iter().enumerate() {
        let single = direct.search(queries.get(qi), 8, 10);
        let a: Vec<u64> = batch_result.iter().map(|n| n.id).collect();
        let b: Vec<u64> = single.iter().map(|n| n.id).collect();
        assert_eq!(a, b, "query {qi}");
    }
}

#[test]
fn engine_recall_close_to_cpu_baseline_recall() {
    let spec = datasets::SynthSpec::small("parity2", 24, 8_000, 23);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        32,
        datasets::queries::QuerySkew::InDistribution,
        9,
    );
    let truth = ann_core::flat::ground_truth(&queries, &data, 10);
    let index = IndexConfig {
        k: 10,
        nprobe: 16,
        nlist: 64,
        m: 8,
        cb: 64,
    };
    let ivf = IvfPqIndex::build(
        &data,
        &IvfPqParams::new(index.nlist).m(index.m).cb(index.cb),
    );
    let cpu_recall = ann_core::recall::mean_recall(
        &rayon::par_map(queries.len(), |qi| {
            ivf.search(queries.get(qi), index.nprobe, index.k)
        }),
        &truth,
        10,
    );
    let mut engine = DrimEngine::from_index(
        ivf,
        &data,
        EngineConfig::drim(index),
        PimArch::upmem_sc25(),
        16,
        None,
    )
    .unwrap();
    let (results, _) = engine.search_batch(&queries);
    let engine_recall = ann_core::recall::mean_recall(&results, &truth, 10);
    assert!(
        (engine_recall - cpu_recall).abs() < 0.12,
        "engine {engine_recall} vs cpu {cpu_recall}"
    );
}

#[test]
fn platform_ordering_matches_the_paper() {
    // Paper Section 5.4 on SIFT100M-class workloads:
    //   Faiss-CPU < DRIM-ANN/UPMEM < Faiss-GPU
    let index = IndexConfig {
        k: 10,
        nprobe: 96,
        nlist: 1 << 14,
        m: 16,
        cb: 256,
    };
    let shape_f32 = WorkloadShape::new(100_000_000, 2000, 128, &index, BitWidths::f32_regime());
    let cpu_qps = CpuModel::xeon_gold_5218().qps(&shape_f32);
    let gpu_qps = GpuModel::a100().qps(&shape_f32, 100_000_000 * 128).unwrap();
    assert!(
        gpu_qps > 8.0 * cpu_qps,
        "GPU {gpu_qps} should dwarf CPU {cpu_qps}"
    );
}

#[test]
fn gpu_oom_mirrors_capacity() {
    let gpu = GpuModel::a100();
    assert!(gpu.fits(datasets::catalog::sift100m().raw_bytes()));
    assert!(!gpu.fits(datasets::catalog::sift1b().raw_bytes()));
    assert!(!gpu.fits(datasets::catalog::t2i1b().raw_bytes()));
}
