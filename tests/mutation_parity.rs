//! Epoch-boundary mutation parity: after ANY sequence of streaming
//! inserts, deletes, and maintenance passes, an engine must return
//! results bit-identical to a from-scratch build over the same logical
//! corpus — at every host thread count.
//!
//! This is the strongest statement of the streaming design's contract:
//! tombstones, tail-slice appends, compaction, overgrown-list splits and
//! cross-DPU migrations all change the *physical* layout, but the TS
//! Forwarding prune is tie-inclusive and `dc::run` scans every candidate,
//! so per-DPU top-k is a pure function of the candidate *set* and the
//! global merge is partition-invariant. The fresh baseline replays the
//! same logical ops against a plain `IvfPqIndex` (whose `insert`/`remove`
//! are order-preserving and use the same centroid-assignment path), so
//! both sides hold the same logical corpus in the same per-cluster order.

use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use ann_core::topk::Neighbor;
use ann_core::vector::VecSet;
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use drim_ann::layout::heat::cluster_heat;
use rayon::with_num_threads;
use upmem_sim::PimArch;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const NDPUS: usize = 8;

fn index_cfg() -> IndexConfig {
    IndexConfig {
        k: 10,
        nprobe: 8,
        nlist: 32,
        m: 8,
        cb: 16,
    }
}

fn workload() -> (VecSet<f32>, VecSet<f32>, VecSet<f32>) {
    let spec = datasets::SynthSpec::small("mutation-parity", 16, 1500, 31);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        24,
        datasets::queries::QuerySkew::InDistribution,
        4,
    );
    // Fresh points to stream in, drawn from the same distribution but a
    // different seed so they are genuinely new vectors.
    let fresh = datasets::generate(&datasets::SynthSpec::small(
        "mutation-parity-new",
        16,
        64,
        77,
    ));
    (data, queries, fresh)
}

/// One logical mutation, replayable against both a live engine and a
/// plain index.
#[derive(Clone)]
enum Op {
    Insert(u32, Vec<f32>),
    Delete(u32),
}

fn apply_to_engine(engine: &mut DrimEngine, ops: &[Op]) {
    for op in ops {
        let before = engine.epoch();
        match op {
            Op::Insert(id, v) => engine.insert(*id, v).expect("engine insert"),
            Op::Delete(id) => assert!(engine.delete(*id), "delete of a live id"),
        }
        assert!(engine.epoch() > before, "every mutation bumps the epoch");
        assert_tiled(engine);
    }
}

/// The slices of every cluster tile its inverted list exactly — they are
/// windows into it, so a gap or an overlap is a lost or a doubled point.
fn assert_tiled(engine: &DrimEngine) {
    let lists = cluster_heat(&engine.ivf.cluster_sizes(), None, engine.cfg.index.nprobe);
    engine
        .layout
        .validate(&lists)
        .expect("slices tile the lists");
}

/// From-scratch build over the post-mutation logical corpus: rebuild the
/// index over the ORIGINAL data (identical coarse centroids and PQ
/// codebooks — training is deterministic and sees the same input), then
/// replay the logical ops through the index's own order-preserving
/// `insert`/`remove`.
fn fresh_baseline(data0: &VecSet<f32>, ops: &[Op], cfg: EngineConfig) -> DrimEngine {
    let params = IvfPqParams::new(cfg.index.nlist)
        .m(cfg.index.m)
        .cb(cfg.index.cb);
    let mut idx = IvfPqIndex::build(data0, &params);
    for op in ops {
        match op {
            Op::Insert(id, v) => idx.insert(*id, v),
            Op::Delete(id) => assert!(idx.remove(*id), "baseline replay of a live id"),
        }
    }
    DrimEngine::from_index(idx, data0, cfg, PimArch::upmem_sc25(), NDPUS, None)
        .expect("baseline engine")
}

/// Bit-exact key for a result set: ids plus raw f32 distance bits.
fn result_bits(rs: &[Vec<Neighbor>]) -> Vec<Vec<(u64, u32)>> {
    rs.iter()
        .map(|l| l.iter().map(|n| (n.id, n.dist.to_bits())).collect())
        .collect()
}

fn assert_parity(mutated: &mut DrimEngine, baseline: &mut DrimEngine, queries: &VecSet<f32>) {
    let (b, _) = with_num_threads(1, || baseline.search_batch(queries));
    let want = result_bits(&b);
    for threads in THREAD_COUNTS {
        let (m, _) = with_num_threads(threads, || mutated.search_batch(queries));
        assert_eq!(
            result_bits(&m),
            want,
            "mutated engine diverged from fresh build at host_threads={threads}"
        );
        // The baseline itself is thread-invariant too (guards against a
        // parity "pass" where both sides drift identically with threads).
        let (b_t, _) = with_num_threads(threads, || baseline.search_batch(queries));
        assert_eq!(result_bits(&b_t), want, "baseline drifted at {threads}");
    }
}

/// Deletes spread across clusters plus fresh inserts: the mutated engine
/// (tombstones + tail appends) matches a from-scratch build replaying the
/// same logical ops, at 1/2/4/8 host threads.
#[test]
fn insert_delete_sequence_matches_fresh_build() {
    let (data, queries, fresh) = workload();
    let cfg = EngineConfig::drim(index_cfg());
    let mut engine =
        DrimEngine::build(&data, cfg.clone(), PimArch::upmem_sc25(), NDPUS, None).unwrap();

    // Interleave: delete every 90th base id, insert fresh points at new
    // ids — the interleaving exercises tombstone-then-append on the same
    // clusters.
    let mut ops = Vec::new();
    for i in 0..16u32 {
        ops.push(Op::Delete(i * 90));
        ops.push(Op::Insert(1_000_000 + i, fresh.get(i as usize).to_vec()));
    }
    apply_to_engine(&mut engine, &ops);
    assert_eq!(engine.live_len(), data.len(), "16 in, 16 out");

    let mut baseline = fresh_baseline(&data, &ops, cfg);
    assert_parity(&mut engine, &mut baseline, &queries);
}

/// Compaction and maintenance are results-neutral: after churn, forcing a
/// maintenance pass (aggressive compaction threshold) physically rewrites
/// lists and frees MRAM but must not move a single result bit relative to
/// the fresh build.
#[test]
fn maintenance_after_churn_preserves_parity() {
    let (data, queries, fresh) = workload();
    let mut cfg = EngineConfig::drim(index_cfg());
    cfg.maintenance.compact_tombstone_frac = 1e-9; // compact on any tombstone
    let mut engine =
        DrimEngine::build(&data, cfg.clone(), PimArch::upmem_sc25(), NDPUS, None).unwrap();

    let mut ops = Vec::new();
    for i in 0..40u32 {
        ops.push(Op::Delete(i * 37));
    }
    for i in 0..8u32 {
        ops.push(Op::Insert(2_000_000 + i, fresh.get(i as usize).to_vec()));
    }
    apply_to_engine(&mut engine, &ops);

    assert_eq!(engine.pending_tombstones(), 40);
    let epoch_before = engine.epoch();
    let rep = engine.maintain();
    assert_tiled(&engine);
    assert_eq!(rep.purged_points, 40);
    // Compaction alone never bumps the epoch; only splits/migrations do,
    // and each swap bumps it exactly once.
    assert_eq!(engine.epoch(), epoch_before + rep.epoch_swaps as u64);
    assert_eq!(engine.pending_tombstones(), 0);

    let mut baseline = fresh_baseline(&data, &ops, cfg);
    assert_parity(&mut engine, &mut baseline, &queries);
}

/// Delete-then-reinsert of the same id: the engine compacts the stale
/// code before appending, the baseline's `remove` + `insert` lands the
/// point at its cluster's tail — both sides converge on the same logical
/// order and the same bits.
#[test]
fn reinsert_after_delete_matches_fresh_build() {
    let (data, queries, _) = workload();
    let cfg = EngineConfig::drim(index_cfg());
    let mut engine =
        DrimEngine::build(&data, cfg.clone(), PimArch::upmem_sc25(), NDPUS, None).unwrap();

    let mut ops = Vec::new();
    for id in [3u32, 500, 777, 1200] {
        ops.push(Op::Delete(id));
        ops.push(Op::Insert(id, data.get(id as usize).to_vec()));
    }
    apply_to_engine(&mut engine, &ops);
    assert_eq!(engine.live_len(), data.len());

    let mut baseline = fresh_baseline(&data, &ops, cfg);
    assert_parity(&mut engine, &mut baseline, &queries);
}

/// Hammering one cluster with near-identical inserts forces overgrown-
/// list splits and (under the byte-balance trigger) a cross-DPU
/// migration; the double-buffered epoch swap must leave results
/// bit-identical to a fresh build that never split anything.
#[test]
fn split_and_migration_preserve_parity() {
    let (data, queries, _) = workload();
    let mut cfg = EngineConfig::drim(index_cfg());
    cfg.maintenance.overgrown_factor = 1.5;
    cfg.maintenance.max_migrations = 2;
    let mut engine =
        DrimEngine::build(&data, cfg.clone(), PimArch::upmem_sc25(), NDPUS, None).unwrap();

    // Pile ~300 near-duplicates of one base point into a single cluster.
    let anchor = data.get(10).to_vec();
    let mut ops = Vec::new();
    for i in 0..300u32 {
        let mut v = anchor.clone();
        // Tiny deterministic jitter keeps them distinct but co-clustered.
        v[(i % 16) as usize] += 1e-4 * (i as f32 + 1.0);
        ops.push(Op::Insert(3_000_000 + i, v));
    }
    apply_to_engine(&mut engine, &ops);

    let epoch_before = engine.epoch();
    let rep = engine.maintain();
    assert_tiled(&engine);
    assert!(
        rep.split_slices + rep.migrated_slices > 0,
        "skewed load must trigger a split or migration: {rep:?}"
    );
    assert_eq!(engine.epoch(), epoch_before + rep.epoch_swaps as u64);
    assert!(rep.epoch_swaps > 0, "every split/migration swaps the epoch");

    let mut baseline = fresh_baseline(&data, &ops, cfg);
    assert_parity(&mut engine, &mut baseline, &queries);
}
