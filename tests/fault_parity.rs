//! Determinism contract of the fault-injection + recovery layer.
//!
//! Three bit-identity guarantees (see `docs/FAULT_MODEL.md`):
//!
//! 1. **Thread parity under faults** — a fixed fault seed produces
//!    bit-identical results *and* bit-identical `BatchReport`s at any host
//!    thread count: every fault draw is a stateless hash, never a shared
//!    RNG stream. The engine's half is checked at every step of the seeded
//!    model in `tests/mutation_parity.rs`; trace mode's is checked here.
//! 2. **Disabled-layer parity** — no injector, an inert injector
//!    (`FaultConfig::none()`), and a cleared injector are all bit-identical
//!    to each other: the fault layer costs nothing when off.
//! 3. **Purity** — `search_batch` is a pure function of
//!    `(engine, queries, fault_batch)`: repeated calls replay the same
//!    faults and the same recovery, bit-for-bit; advancing `fault_batch`
//!    redraws the transient faults.

use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use ann_core::topk::Neighbor;
use ann_core::vector::VecSet;
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use drim_ann::trace::{TraceRunner, TraceSpec};
use rayon::with_num_threads;
use std::sync::OnceLock;
use upmem_sim::fault::{FaultConfig, FaultInjector, SlowdownDist};
use upmem_sim::PimArch;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const FAULT_SEED: u64 = 0xFA17_5EED;

/// The corpus, its queries and the index trained once over it: every
/// engine is built from a clone of what `DrimEngine::build` would train.
fn world() -> &'static (VecSet<f32>, VecSet<f32>, IvfPqIndex) {
    static WORLD: OnceLock<(VecSet<f32>, VecSet<f32>, IvfPqIndex)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let spec = datasets::SynthSpec::small("fault-parity", 16, 3000, 31);
        let data = datasets::generate(&spec);
        let skew = datasets::queries::QuerySkew::InDistribution;
        let queries = datasets::queries::generate_queries(&spec, 32, skew, 6);
        let c = cfg().index;
        let index = IvfPqIndex::build(&data, &IvfPqParams::new(c.nlist).m(c.m).cb(c.cb));
        (data, queries, index)
    })
}

fn build(cfg: EngineConfig) -> DrimEngine {
    let (data, _, index) = world();
    DrimEngine::from_index(index.clone(), data, cfg, PimArch::upmem_sc25(), 8, None).unwrap()
}

fn cfg() -> EngineConfig {
    let mut cfg = EngineConfig::drim(IndexConfig {
        k: 10,
        nprobe: 12,
        nlist: 64,
        m: 8,
        cb: 32,
    });
    cfg.batch = 32;
    cfg
}

/// Bit-exact key for a result set: ids plus raw f32 distance bits.
fn result_bits(rs: &[Vec<Neighbor>]) -> Vec<Vec<(u64, u32)>> {
    rs.iter()
        .map(|l| l.iter().map(|n| (n.id, n.dist.to_bits())).collect())
        .collect()
}

#[test]
fn disabled_fault_layer_is_bit_identical_to_no_injector() {
    let (_, queries, _) = world();
    // no injector at all
    let mut plain = build(cfg());
    let (r0, rep0) = plain.search_batch(queries);
    // wired but inert injector
    let mut inert = build(cfg());
    inert.inject_faults(FaultConfig::none()).unwrap();
    assert!(!inert.fault_active());
    let (r1, rep1) = inert.search_batch(queries);
    assert_eq!(result_bits(&r0), result_bits(&r1));
    assert_eq!(format!("{rep0:?}"), format!("{rep1:?}"));
    // armed then cleared
    let mut cleared = build(cfg());
    cleared
        .inject_faults(FaultConfig::uniform(FAULT_SEED, 0.2))
        .unwrap();
    let _ = cleared.search_batch(queries);
    cleared.clear_faults();
    let (r2, rep2) = cleared.search_batch(queries);
    assert_eq!(result_bits(&r0), result_bits(&r2));
    assert_eq!(format!("{rep0:?}"), format!("{rep2:?}"));
}

#[test]
fn search_batch_is_pure_in_engine_queries_and_fault_batch() {
    let (_, queries, _) = world();
    let mut e = build(cfg());
    e.inject_faults(FaultConfig::uniform(FAULT_SEED, 0.15))
        .unwrap();
    // repeated calls at a fixed fault_batch replay the same faults
    let (r1, rep1) = e.search_batch(queries);
    let (r2, rep2) = e.search_batch(queries);
    assert_eq!(result_bits(&r1), result_bits(&r2));
    assert_eq!(format!("{rep1:?}"), format!("{rep2:?}"));
    // advancing fault_batch redraws the transient faults: across enough
    // batches the accounting must vary (the dead set stays fixed)
    let mut transient_signatures = std::collections::HashSet::new();
    let mut dead = std::collections::HashSet::new();
    for b in 0..12 {
        e.set_fault_batch(b);
        let (_, rep) = e.search_batch(queries);
        transient_signatures.insert((
            rep.fault.stragglers,
            rep.fault.corruptions,
            rep.fault.hedged_tasks,
            rep.fault.retried_tasks,
        ));
        dead.insert(rep.fault.dead_dpus);
    }
    assert!(
        transient_signatures.len() > 1,
        "transient faults must vary across batches: {transient_signatures:?}"
    );
    assert_eq!(dead.len(), 1, "the fail-stop set is static across batches");
}

#[test]
fn hedging_caps_straggler_tail_latency() {
    let (_, queries, _) = world();
    // straggler-heavy, brutal slowdowns, no fail-stop/corruption noise
    let mut fc = FaultConfig::none();
    fc.seed = 0x57A6;
    fc.straggler_rate = 0.3;
    fc.slowdown = SlowdownDist::Pareto {
        scale: 4.0,
        alpha: 1.1,
        cap: 64.0,
    };
    // the cap itself (every hedged DPU stops at the one deadline) is held
    // by `dispatch`'s `hedged_dpu_never_gets_its_own_work_back`
    let (r0, _) = build(cfg()).search_batch(queries);
    let mut e = build(cfg());
    e.inject_faults(fc).unwrap();

    let mut total_hedged = 0usize;
    for b in 0..24 {
        e.set_fault_batch(b);
        let (r, rep) = e.search_batch(queries);
        // hedging changes *when* results arrive, never *what* they are
        assert_eq!(result_bits(&r), result_bits(&r0), "batch {b}");
        total_hedged += rep.fault.hedged_tasks;
    }
    assert!(total_hedged > 0, "Pareto tail at 30% must trigger hedging");
}

#[test]
fn rank_coverage_absorbs_a_rank_kill_without_the_host_fallback() {
    let (_, queries, _) = world();
    // replication (not the host fallback) must absorb the rank loss
    let mut cfg = cfg();
    cfg.ranks = Some(4);
    cfg.host_fallback = false;
    let fresh = || build(cfg.clone());
    let (r0, _) = fresh().search_batch(queries);

    // 8 DPUs in 4 ranks of 2: a draw that takes exactly one rank, so the
    // >= 2-rank slice coverage guarantees every slice a surviving home
    let kill_from = 2;
    let kill = (0u64..256)
        .map(|s| FaultConfig::rank_kill(0xD100 + s, 0.3, 2, kill_from))
        .find(|fc| FaultInjector::new(*fc).unwrap().dead_ranks_at(8, kill_from) == 1)
        .expect("some seed kills exactly one rank at 30%");
    let mut killed = fresh();
    killed.inject_faults(kill).unwrap();
    for b in 0..6 {
        killed.set_fault_batch(b);
        let (r, rep) = killed.search_batch(queries);
        assert_eq!(rep.fault.dead_ranks, usize::from(b >= kill_from));
        assert_eq!(rep.fault.dropped_tasks, 0, "batch {b}: {:?}", rep.fault);
        assert_eq!(rep.fault.degraded_queries, 0, "batch {b}: {:?}", rep.fault);
        assert_eq!(result_bits(&r), result_bits(&r0), "batch {b}");
    }
}

#[test]
fn trace_runner_fault_reports_are_thread_invariant() {
    let spec = TraceSpec {
        name: "fault-parity-trace".into(),
        n_points: 400_000,
        dim: 32,
        batch: 64,
        cluster_size_zipf: 0.35,
        heat_zipf: 1.1,
        seed: 77,
    };
    let mut cfg = EngineConfig::drim(IndexConfig {
        k: 10,
        nprobe: 8,
        nlist: 128,
        m: 8,
        cb: 64,
    });
    cfg.batch = 64;
    let mut reference: Option<String> = None;
    for threads in THREAD_COUNTS {
        let report = with_num_threads(threads, || {
            let mut runner =
                TraceRunner::build(spec.clone(), cfg.clone(), PimArch::upmem_sc25(), 32);
            runner
                .inject_faults(FaultConfig::uniform(FAULT_SEED, 0.1))
                .unwrap();
            format!("{:?}", runner.run_batch(9))
        });
        match &reference {
            None => reference = Some(report),
            Some(r) => assert_eq!(&report, r, "trace report differs at {threads} threads"),
        }
    }
}
