//! Dynamic-update integration on `IvfPqIndex`: a corpus streamed in after a
//! half-size build keeps its recall, and remove/re-insert churn leaves every
//! id in exactly one list with its codes.

use ann_core::ivf::{IvfPqIndex, IvfPqParams};

fn workload() -> (ann_core::VecSet<f32>, ann_core::VecSet<f32>) {
    let spec = datasets::SynthSpec::small("persist", 16, 5_000, 51);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        16,
        datasets::queries::QuerySkew::InDistribution,
        3,
    );
    (data, queries)
}

#[test]
fn dynamic_stream_keeps_recall() {
    // start with half the corpus, stream in the rest, verify search quality
    // over the grown index
    let (data, queries) = workload();
    let half = data.len() / 2;
    let initial = data.select(&(0..half).collect::<Vec<_>>());
    let mut idx = IvfPqIndex::build(&initial, &IvfPqParams::new(64).m(8).cb(32));
    for i in half..data.len() {
        idx.insert(i as u32, data.get(i));
    }
    assert_eq!(idx.len(), data.len());

    let truth = ann_core::flat::ground_truth(&queries, &data, 10);
    let results: Vec<_> = (0..queries.len())
        .map(|qi| idx.search(queries.get(qi), 12, 10))
        .collect();
    let recall = ann_core::recall::mean_recall(&results, &truth, 10);
    assert!(recall > 0.6, "streamed-in index recall {recall}");
}

#[test]
fn churn_conserves_index_invariants() {
    let (data, _) = workload();
    let mut idx = IvfPqIndex::build(&data, &IvfPqParams::new(32).m(4).cb(16));
    // remove 100, re-insert them, repeatedly
    for round in 0..3 {
        for id in 0..100u32 {
            assert!(idx.remove(id), "round {round}, id {id}");
        }
        assert_eq!(idx.len(), data.len() - 100);
        for id in 0..100u32 {
            idx.insert(id, data.get(id as usize));
        }
        assert_eq!(idx.len(), data.len());
        for l in &idx.lists {
            assert_eq!(l.codes.len(), l.ids.len() * idx.params.m);
        }
    }
    // every id present exactly once
    let mut seen = vec![0u8; data.len()];
    for l in &idx.lists {
        for &id in &l.ids {
            seen[id as usize] += 1;
        }
    }
    assert!(seen.iter().all(|&c| c == 1));
}
