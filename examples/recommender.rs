//! Recommendation retrieval: item-to-item candidate generation with a
//! capacity-planning twist.
//!
//! Recommenders hold catalogues far larger than GPU memory — the paper's
//! other motivating application. This example sizes a (simulated) UPMEM
//! deployment for a growing catalogue using the roofline and the
//! performance model, then validates the chosen configuration functionally
//! at reduced scale.
//!
//! ```text
//! cargo run --release --example recommender
//! ```

use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use drim_ann::perf_model::{predict, BitWidths, WorkloadShape};
use upmem_sim::platform::procs;
use upmem_sim::PimArch;

fn main() {
    // --- capacity planning at full scale (model only) ---------------------
    println!("Catalogue growth plan (96-d item embeddings, IVF-PQ m=16):\n");
    println!(
        "{:>12} {:>10} {:>12} {:>14} {:>12}",
        "items", "PQ bytes", "DIMMs needed", "model QPS", "A100 fits?"
    );
    let index = IndexConfig {
        k: 10,
        nprobe: 64,
        nlist: 1 << 14,
        m: 16,
        cb: 256,
    };
    let host = procs::xeon_silver_4216();
    let gpu = procs::a100_80gb();
    for n_items in [100e6 as u64, 300e6 as u64, 1000e6 as u64] {
        let payload = n_items * (16 + 4); // codes + ids
                                          // a DIMM is 128 DPUs x 64 MiB; keep 25 % headroom for duplication
        let dimms = ((payload as f64 * 1.25) / (128.0 * 64.0 * 1024.0 * 1024.0)).ceil() as usize;
        let arch = PimArch::upmem_dimms(dimms.max(8));
        let shape = WorkloadShape::new(n_items, 10_000, 96, &index, BitWidths::u8_regime());
        let p = predict(&shape, &EngineConfig::drim(index), &arch, &host);
        let raw = n_items * 96;
        println!(
            "{:>12} {:>9}M {:>12} {:>14.0} {:>12}",
            n_items,
            payload / 1_000_000,
            dimms.max(8),
            p.qps,
            if gpu.fits(raw) { "yes" } else { "OOM" }
        );
    }

    // --- functional validation at reduced scale ---------------------------
    println!("\nFunctional check at 25k items:");
    let spec = datasets::SynthSpec::small("items", 96, 25_000, 7);
    let items = datasets::generate(&spec);
    // "user context" queries = items the user just interacted with
    let contexts = datasets::queries::generate_queries(
        &spec,
        64,
        datasets::queries::QuerySkew::Hot { s: 1.2 },
        11,
    );
    let small_index = IndexConfig {
        k: 10,
        nprobe: 16,
        nlist: 128,
        m: 16,
        cb: 64,
    };
    let mut engine = DrimEngine::build(
        &items,
        EngineConfig::drim(small_index),
        PimArch::upmem_sc25(),
        64,
        Some(&contexts),
    )
    .expect("engine build");
    let (recs, report) = engine.search_batch(&contexts);
    let truth = ann_core::flat::ground_truth(&contexts, &items, 10);
    let recall = ann_core::recall::mean_recall(&recs, &truth, 10);
    println!("  {}", report.summary());
    println!("  recall@10 = {recall:.3}");
    println!(
        "  user 0 gets items {:?}",
        recs[0].iter().take(5).map(|n| n.id).collect::<Vec<_>>()
    );
}
