//! Larger-scale recall harness (ROADMAP item): a ~10^5-point synthetic
//! corpus through the dynamic-stream path, plus an fvecs round-trip of the
//! corpus through a real temp file.
//!
//! Ignored by default — roughly a minute of single-core work — so tier-1
//! `cargo test -q` stays fast. Run with:
//!
//! ```text
//! cargo test --release --test scale_recall -- --ignored
//! ```

use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;

const N: usize = 100_000;
const K: usize = 10;

#[test]
#[ignore = "10^5-point harness (~1 min); run with --ignored (CI does, in release)"]
fn dynamic_stream_keeps_recall_at_scale() {
    let spec = datasets::SynthSpec::small("scale-100k", 16, N, 77);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        32,
        datasets::queries::QuerySkew::InDistribution,
        9,
    );

    // fvecs round-trip through an actual file: the readers must hand back
    // the exact corpus at this scale
    let path = std::env::temp_dir().join("drim_ann_scale_recall.fvecs");
    {
        let f = std::fs::File::create(&path).unwrap();
        datasets::io::write_fvecs(std::io::BufWriter::new(f), &data).unwrap();
    }
    let reread = {
        let f = std::fs::File::open(&path).unwrap();
        datasets::io::read_fvecs(std::io::BufReader::new(f)).unwrap()
    };
    std::fs::remove_file(&path).ok();
    assert_eq!(reread.len(), N);
    assert_eq!(reread, data, "fvecs round-trip must be lossless");

    // dynamic-stream path: index the first half, stream in the second
    let half = data.len() / 2;
    let initial = data.select(&(0..half).collect::<Vec<_>>());
    let mut idx = IvfPqIndex::build(&initial, &IvfPqParams::new(128).m(16).cb(64));
    for i in half..data.len() {
        idx.insert(i as u32, data.get(i));
    }
    assert_eq!(idx.len(), data.len());

    let truth = ann_core::flat::ground_truth(&queries, &data, K);
    let results: Vec<_> = (0..queries.len())
        .map(|qi| idx.search(queries.get(qi), 24, K))
        .collect();
    let recall = ann_core::recall::mean_recall(&results, &truth, K);
    eprintln!("scale harness: recall@{K} = {recall} over {N} points");
    // the seed's small-scale dynamic-stream test reached 0.81; the 10^5
    // corpus must hold that line
    assert!(recall >= 0.81, "recall@{K} = {recall} at {N} points");
}

/// Churn variant of the dynamic-stream harness: a live engine under
/// sustained insert+delete turnover (1% of the corpus per round, five
/// rounds, maintenance after each) must keep recall@10 over the *current
/// logical corpus* within 0.05 of the pre-churn level.
#[test]
#[ignore = "30k-point churn harness (~1 min); run with --ignored (CI does, in release)"]
fn churn_stream_bounds_recall_degradation_at_scale() {
    const NC: usize = 30_000;
    const ROUNDS: usize = 5;
    let turnover = NC / 100; // 1% per round

    let spec = datasets::SynthSpec::small("scale-churn", 16, NC, 78);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        32,
        datasets::queries::QuerySkew::InDistribution,
        9,
    );
    let fresh = datasets::generate(&datasets::SynthSpec::small(
        "scale-churn-new",
        16,
        ROUNDS * turnover,
        79,
    ));

    let mut cfg = EngineConfig::drim(IndexConfig {
        k: K,
        nprobe: 24,
        nlist: 128,
        m: 16,
        cb: 64,
    });
    // Aggressive compaction so every round's tombstones are reclaimed —
    // the harness then doubles as a check that repeated maintenance under
    // churn stays results-sane.
    cfg.maintenance.compact_tombstone_frac = 1e-6;
    let mut engine = DrimEngine::build(&data, cfg, Default::default(), 16, None).unwrap();

    // Mirror of the logical corpus: (engine id, vector), kept in sync
    // with every mutation so ground truth is always exact over what the
    // engine is supposed to hold.
    let mut corpus: Vec<(u32, Vec<f32>)> =
        (0..NC).map(|i| (i as u32, data.get(i).to_vec())).collect();
    let recall_over_corpus = |engine: &mut DrimEngine, corpus: &[(u32, Vec<f32>)]| -> f64 {
        let mut set = ann_core::VecSet::with_capacity(16, corpus.len());
        for (_, v) in corpus {
            set.push(v);
        }
        let truth: Vec<Vec<u64>> = ann_core::flat::ground_truth(&queries, &set, K)
            .into_iter()
            .map(|t| {
                t.into_iter()
                    .map(|pos| corpus[pos as usize].0 as u64)
                    .collect()
            })
            .collect();
        let (results, _) = engine.search_batch(&queries);
        ann_core::recall::mean_recall(&results, &truth, K)
    };

    let recall0 = recall_over_corpus(&mut engine, &corpus);
    eprintln!("churn harness: pre-churn recall@{K} = {recall0} over {NC} points");

    let mut next_id = 1_000_000u32;
    let mut cursor = 0usize;
    for round in 0..ROUNDS {
        // Delete a deterministic spread of the current corpus…
        let step = corpus.len() / turnover;
        let victims: Vec<u32> = (0..turnover).map(|i| corpus[i * step].0).collect();
        for &id in &victims {
            assert!(engine.delete(id), "victim {id} must be live");
        }
        corpus.retain(|(id, _)| !victims.contains(id));
        // …and stream in the same number of fresh points.
        for _ in 0..turnover {
            let v = fresh.get(cursor).to_vec();
            cursor += 1;
            engine.insert(next_id, &v).unwrap();
            corpus.push((next_id, v));
            next_id += 1;
        }
        let rep = engine.maintain();
        assert_eq!(engine.live_len(), corpus.len());

        let recall = recall_over_corpus(&mut engine, &corpus);
        eprintln!(
            "churn harness: round {} recall@{K} = {recall} (maintenance: {rep:?})",
            round + 1
        );
        assert!(
            recall >= recall0 - 0.05,
            "round {}: recall@{K} degraded beyond bound: {recall} vs pre-churn {recall0}",
            round + 1
        );
    }
    assert_eq!(engine.pending_tombstones(), 0, "maintenance must compact");
}
