//! Quickstart: index a synthetic corpus, search it on the simulated UPMEM
//! system, and check recall against exact ground truth.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use upmem_sim::PimArch;

fn main() {
    // 1. A corpus: 20k vectors of 32 dims, SIFT-like value range, plus 64
    //    in-distribution queries.
    let spec = datasets::SynthSpec::small("quickstart", 32, 20_000, 42);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        64,
        datasets::queries::QuerySkew::InDistribution,
        7,
    );
    println!(
        "corpus: {} x {}d, {} queries",
        data.len(),
        data.dim(),
        queries.len()
    );

    // 2. An engine: IVF-PQ index parameters plus the full DRIM-ANN
    //    optimization stack (SQT, WRAM buffers, partition/duplication/
    //    balanced allocation, greedy scheduling, lock pruning).
    // m = 16 / cb = 256 is the paper's end-to-end PQ configuration; at
    // 32 dims anything much coarser leaves ADC quantization error (not
    // cluster pruning) as the recall limiter.
    let index = IndexConfig {
        k: 10,
        nprobe: 16,
        nlist: 128,
        m: 16,
        cb: 256,
    };
    let cfg = EngineConfig::drim(index);
    let mut engine = DrimEngine::build(&data, cfg, PimArch::upmem_sc25(), 64, Some(&queries))
        .expect("engine build");
    println!(
        "engine: {} DPUs, {} slices, th1 = {} points/slice",
        engine.ndpus(),
        engine.layout.slices.len(),
        engine.layout.th1
    );

    // 3. Search a batch.
    let (results, report) = engine.search_batch(&queries);
    println!("batch:  {}", report.summary());

    // 4. Recall against exact ground truth.
    let truth = ann_core::flat::ground_truth(&queries, &data, 10);
    let recall = ann_core::recall::mean_recall(&results, &truth, 10);
    println!("recall@10 = {recall:.3}");
    println!(
        "energy    = {:.3} J  |  DPU utilization = {:.0}%  |  SQT WRAM hit rate = {:.0}%",
        report.energy_j,
        report.timing.dpu_utilization() * 100.0,
        report.sqt_wram_hit_rate * 100.0
    );

    let q0 = &results[0];
    println!(
        "query 0 top-3: {:?}",
        q0.iter()
            .take(3)
            .map(|n| (n.id, n.dist))
            .collect::<Vec<_>>()
    );
    assert!(recall > 0.5, "unexpectedly poor recall");
}
