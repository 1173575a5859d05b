//! End-to-end integration: corpus -> index -> layout -> simulated PIM
//! search -> recall, across engine configurations.

use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use upmem_sim::PimArch;

fn workload(
    n: usize,
    dim: usize,
    nq: usize,
    seed: u64,
) -> (ann_core::VecSet<f32>, ann_core::VecSet<f32>, Vec<Vec<u64>>) {
    let spec = datasets::SynthSpec::small("e2e", dim, n, seed);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        nq,
        datasets::queries::QuerySkew::InDistribution,
        seed ^ 0xFF,
    );
    let truth = ann_core::flat::ground_truth(&queries, &data, 10);
    (data, queries, truth)
}

fn index() -> IndexConfig {
    IndexConfig {
        k: 10,
        nprobe: 24,
        nlist: 96,
        m: 8,
        cb: 64,
    }
}

#[test]
fn drim_engine_meets_the_paper_accuracy_constraint() {
    // the paper's evaluation constraint: recall@10 >= 0.8, met with a
    // PQ strong enough for this synthetic geometry (m=16 over 16 dims)
    let (data, queries, truth) = workload(12_000, 16, 48, 1);
    let strong = IndexConfig {
        k: 10,
        nprobe: 24,
        nlist: 96,
        m: 16,
        cb: 64,
    };
    let mut engine = DrimEngine::build(
        &data,
        EngineConfig::drim(strong),
        PimArch::upmem_sc25(),
        32,
        Some(&queries),
    )
    .unwrap();
    let (results, report) = engine.search_batch(&queries);
    let recall = ann_core::recall::mean_recall(&results, &truth, 10);
    assert!(recall >= 0.8, "recall@10 = {recall}");
    assert!(report.qps > 0.0);
}

#[test]
fn layout_and_scheduling_do_not_change_results() {
    // The load-balance machinery moves work around; the answer must not
    // move with it. Same index seed => same codes => identical neighbor
    // sets between the naive and fully-optimized engines.
    let (data, queries, _) = workload(6_000, 16, 24, 3);
    let ivf = ann_core::ivf::IvfPqIndex::build(
        &data,
        &ann_core::ivf::IvfPqParams::new(index().nlist)
            .m(index().m)
            .cb(index().cb),
    );
    let mut naive = DrimEngine::from_index(
        ivf.clone(),
        &data,
        EngineConfig::naive(index()),
        PimArch::upmem_sc25(),
        16,
        None,
    )
    .unwrap();
    let mut drim = DrimEngine::from_index(
        ivf,
        &data,
        EngineConfig::drim(index()),
        PimArch::upmem_sc25(),
        16,
        Some(&queries),
    )
    .unwrap();
    let (r_naive, rep_naive) = naive.search_batch(&queries);
    let (r_drim, rep_drim) = drim.search_batch(&queries);
    let ids = |rs: &[Vec<ann_core::Neighbor>]| -> Vec<Vec<u64>> {
        rs.iter()
            .map(|l| {
                let mut v: Vec<u64> = l.iter().map(|n| n.id).collect();
                v.sort_unstable();
                v
            })
            .collect()
    };
    assert_eq!(ids(&r_naive), ids(&r_drim));
    // and the optimized engine must not be slower
    assert!(
        rep_drim.timing.pim_s() <= rep_naive.timing.pim_s() * 1.05,
        "drim {} naive {}",
        rep_drim.timing.pim_s(),
        rep_naive.timing.pim_s()
    );
}

#[test]
fn results_are_deterministic_across_runs() {
    let (data, queries, _) = workload(4_000, 16, 16, 7);
    let run = || {
        let mut e = DrimEngine::build(
            &data,
            EngineConfig::drim(index()),
            PimArch::upmem_sc25(),
            8,
            None,
        )
        .unwrap();
        let (r, rep) = e.search_batch(&queries);
        (
            r.iter()
                .map(|l| l.iter().map(|n| n.id).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
            rep.timing.pim_s(),
        )
    };
    let (r1, t1) = run();
    let (r2, t2) = run();
    assert_eq!(r1, r2);
    assert_eq!(t1, t2);
}

#[test]
fn more_dpus_reduce_batch_latency() {
    let (data, queries, _) = workload(10_000, 16, 32, 11);
    let time_with = |ndpus: usize| {
        let mut e = DrimEngine::build(
            &data,
            EngineConfig::drim(index()),
            PimArch::upmem_sc25(),
            ndpus,
            Some(&queries),
        )
        .unwrap();
        let (_, rep) = e.search_batch(&queries);
        rep.timing.pim_s()
    };
    let t8 = time_with(8);
    let t64 = time_with(64);
    assert!(
        t64 < t8 / 2.0,
        "64 DPUs ({t64}s) should be well under half of 8 DPUs ({t8}s)"
    );
}
