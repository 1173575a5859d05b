//! Batch composition at the lane-block boundaries of the engine's batch
//! pass, and the degenerate inputs that pass must survive.
//!
//! The engine computes each probed cluster's LUTs and distances once per
//! batch, its probing queries `L` at a time as the lanes of one interleaved
//! build and scan, the last block ragged. Where a query lands — which
//! batch, which block, which lane — must not change its answer: every query
//! of a batch of 1, L - 1, L, L + 1, 2L + 1 or 256 near-copies of a few rows
//! (so that many queries share every probed cluster) returns bit for bit
//! what it returns alone, and the batch's report is the same at 1 and 4
//! host threads. The same harness then runs over an empty slice, a fully
//! tombstoned probed cluster and `k` above the live points probed: fewer
//! than `k` neighbours, each of them live, distinct and in order.

use ann_core::topk::Neighbor;
use ann_core::vector::VecSet;
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use drim_ann::kernels::cl;
use rayon::with_num_threads;
use std::collections::HashSet;
use upmem_sim::PimArch;

/// Queries per lane block: `drim_ann::kernels::LANES`, private to the crate.
const L: usize = 16;

fn engine(k: usize, nprobe: usize) -> (VecSet<f32>, DrimEngine) {
    let spec = datasets::SynthSpec::small("lane-blocks", 16, 3000, 41);
    let data = datasets::generate(&spec);
    let cfg = EngineConfig::drim(IndexConfig {
        k,
        nprobe,
        nlist: 32,
        m: 8,
        cb: 32,
    });
    let engine = DrimEngine::build(&data, cfg, PimArch::upmem_sc25(), 8, None).expect("engine");
    (data, engine)
}

/// `n` near-copies of the first `rows` rows of `bases`, round robin: copy
/// `i` moves one coordinate by a residual quantization step or more, so no
/// two copies share their LUTs, but the copies of a row probe the same
/// clusters.
fn near_copies(bases: &VecSet<f32>, rows: usize, n: usize) -> VecSet<f32> {
    let dim = bases.dim();
    let mut out = VecSet::with_capacity(dim, n);
    for i in 0..n {
        let mut v = bases.get(i % rows).to_vec();
        v[i % dim] += 0.5 * (1 + i / dim) as f32;
        out.push(&v);
    }
    out
}

fn probes(engine: &DrimEngine, queries: &VecSet<f32>) -> Vec<Vec<u32>> {
    let ivf = &engine.ivf;
    let nprobe = engine.effective_nprobe();
    cl::run(
        queries,
        &ivf.coarse,
        &ivf.coarse_norms,
        nprobe,
        &engine.shape,
        &engine.host,
    )
    .probes
}

/// Bit-exact key for a result set: ids plus raw f32 distance bits.
fn bits(rs: &[Vec<Neighbor>]) -> Vec<Vec<(u64, u32)>> {
    rs.iter()
        .map(|l| l.iter().map(|n| (n.id, n.dist.to_bits())).collect())
        .collect()
}

/// Every query of `queries` answers in the batch as it does alone, at 1
/// and at 4 host threads, and the batch's report does not depend on the
/// thread count. Returns the batch's results.
fn assert_composition_free(engine: &mut DrimEngine, queries: &VecSet<f32>) -> Vec<Vec<Neighbor>> {
    let n = queries.len();
    let solo: Vec<Vec<Neighbor>> = (0..n)
        .map(|i| engine.search_batch(&queries.select(&[i])).0.remove(0))
        .collect();
    let (one, report_one) = with_num_threads(1, || engine.search_batch(queries));
    let (four, report_four) = with_num_threads(4, || engine.search_batch(queries));
    // no two queries are equal, so dedup merges nothing: the batch under
    // test is the batch the engine runs
    assert_eq!(report_one.deduped, 0);
    assert_eq!(bits(&one), bits(&solo), "batch of {n} vs its queries alone");
    assert_eq!(
        bits(&four),
        bits(&solo),
        "batch of {n} at 4 threads vs alone"
    );
    assert_eq!(
        format!("{report_one:?}"),
        format!("{report_four:?}"),
        "batch of {n}: report at 1 vs 4 host threads"
    );
    one
}

#[test]
fn a_query_answers_alike_in_every_lane_block() {
    let (data, mut engine) = engine(10, 4);
    for n in [1, L - 1, L, L + 1, 2 * L + 1] {
        let queries = near_copies(&data, 1, n);
        // every probed cluster is probed by the whole batch, so its blocks
        // are exactly L, L, ..., n mod L wide
        let probed = probes(&engine, &queries);
        assert!(probed.iter().all(|p| *p == probed[0]), "a copy strayed");
        assert_composition_free(&mut engine, &queries);
    }
    assert_composition_free(&mut engine, &near_copies(&data, 8, 256));
}

/// Every query gets the live points its probed clusters hold, `k` at most:
/// each live, none twice, in (distance, id) order.
fn assert_sane(
    engine: &DrimEngine,
    queries: &VecSet<f32>,
    results: &[Vec<Neighbor>],
    live: &HashSet<u64>,
) {
    let k = engine.k();
    for (q, (list, probed)) in results.iter().zip(probes(engine, queries)).enumerate() {
        let reachable = probed
            .iter()
            .flat_map(|&c| &engine.ivf.lists[c as usize].ids)
            .filter(|&&id| live.contains(&(id as u64)))
            .count();
        assert_eq!(list.len(), reachable.min(k), "query {q}: neighbour count");
        let distinct: HashSet<u64> = list.iter().map(|n| n.id).collect();
        assert_eq!(distinct.len(), list.len(), "query {q}: an id twice");
        assert!(
            list.iter()
                .all(|n| live.contains(&n.id) && n.dist.is_finite()),
            "query {q}: a dead or garbage neighbour in {list:?}"
        );
        assert!(
            list.windows(2)
                .all(|w| (w[0].dist, w[0].id) <= (w[1].dist, w[1].id)),
            "query {q}: out of order"
        );
    }
}

#[test]
fn empty_slices_tombstoned_clusters_and_k_above_the_live_points() {
    // two probed clusters of ~94 points each: never 400 live neighbours
    let (_, mut engine) = engine(400, 2);
    let mut live: HashSet<u64> = engine
        .ivf
        .lists
        .iter()
        .flat_map(|l| l.ids.iter().map(|&id| id as u64))
        .collect();
    let mut by_size: Vec<usize> = (0..engine.ivf.lists.len()).collect();
    by_size.sort_by_key(|&c| std::cmp::Reverse(engine.ivf.lists[c].len()));
    let (emptied, tombstoned) = (by_size[0], by_size[1]);

    // one cluster deleted and compacted down to empty slices ...
    engine.cfg.maintenance.compact_tombstone_frac = 1e-9;
    for id in engine.ivf.lists[emptied].ids.clone() {
        assert!(engine.delete(id));
        live.remove(&(id as u64));
    }
    engine.maintain();
    assert!(engine.ivf.lists[emptied].is_empty());
    let slices = &engine.layout.cluster_slices[emptied];
    assert!(!slices.is_empty() && slices.iter().all(|&si| engine.layout.slices[si].len == 0));
    // ... and one deleted but left in place, every point a tombstone
    for id in engine.ivf.lists[tombstoned].ids.clone() {
        assert!(engine.delete(id));
        live.remove(&(id as u64));
    }
    assert_eq!(
        engine.pending_tombstones(),
        engine.ivf.lists[tombstoned].len()
    );

    // near-copies of both clusters' centroids probe them first
    let centroids = engine.ivf.coarse.select(&[emptied, tombstoned]);
    let queries = near_copies(&centroids, 2, 2 * L + 1);
    for (i, probed) in probes(&engine, &queries).iter().enumerate() {
        assert_eq!(probed[0] as usize, [emptied, tombstoned][i % 2]);
    }
    let results = assert_composition_free(&mut engine, &queries);
    assert_sane(&engine, &queries, &results, &live);
    assert!(results.iter().all(|r| r.len() < engine.k()));
}
