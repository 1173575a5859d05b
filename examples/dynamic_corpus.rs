//! Dynamic corpora: the operational story around the engine.
//!
//! Cluster-based indices are "especially friendly to dynamic vector data"
//! (paper Section 7.1 citing SPFresh) — items arrive and expire without
//! retraining. This example trains on half of a stream, ingests the rest,
//! expires a batch, then serves the live index on the simulated PIM machine
//! and checks its recall@10 against exact search over the live corpus.
//!
//! ```text
//! cargo run --release --example dynamic_corpus
//! ```

use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use upmem_sim::PimArch;

fn main() {
    let spec = datasets::SynthSpec::small("stream", 24, 16_000, 77);
    let all = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        32,
        datasets::queries::QuerySkew::InDistribution,
        5,
    );

    // Day 0: train on the first half of the stream.
    let half = all.len() / 2;
    let initial = all.select(&(0..half).collect::<Vec<_>>());
    let mut index = IvfPqIndex::build(&initial, &IvfPqParams::new(128).m(8).cb(64));
    println!("day 0: trained on {} items", index.len());

    // Days 1..n: items stream in; no retraining.
    for i in half..all.len() {
        index.insert(i as u32, all.get(i));
    }
    println!("ingest: index now holds {} items", index.len());

    // Expire a batch (say, the oldest thousand).
    for id in 0..1000u32 {
        assert!(index.remove(id));
    }
    println!("expiry: removed 1000 items -> {}", index.len());

    // Serve the live index on the simulated PIM machine.
    let cfg = EngineConfig::drim(IndexConfig {
        k: 10,
        nprobe: 16,
        nlist: 128,
        m: 8,
        cb: 64,
    });
    let mut engine =
        DrimEngine::from_index(index, &all, cfg, PimArch::upmem_sc25(), 64, Some(&queries))
            .expect("engine build");
    let (results, report) = engine.search_batch(&queries);
    println!("serve:  {}", report.summary());

    // Quality check against exact ground truth over the *live* corpus
    // (minus the expired items).
    let live_ids: Vec<usize> = (1000..all.len()).collect();
    let live = all.select(&live_ids);
    let truth = ann_core::flat::ground_truth(&queries, &live, 10);
    // map live-relative truth ids back to corpus ids (+1000 offset)
    let truth: Vec<Vec<u64>> = truth
        .into_iter()
        .map(|t| t.into_iter().map(|id| id + 1000).collect())
        .collect();
    let recall = ann_core::recall::mean_recall(&results, &truth, 10);
    println!("recall@10 over the live corpus = {recall:.3}");
    assert!(recall > 0.5);
}
