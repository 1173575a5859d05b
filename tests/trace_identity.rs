//! Trace mode is the functional engine's cost path.
//!
//! A `TraceRunner` built from a functional engine's cluster descriptors
//! (its list sizes under `cluster_heat`) and its workload shape, and fed
//! the engine's own cluster-locating probe lists, must place the index
//! and book RC, LC and DC exactly as the engine does: the same layout, the
//! same schedule (hence the same postponed count), the same SQT hit rate
//! and bit-identical RC, LC and DC phase meters on every DPU. Both modes
//! deploy through one function and book a wave through one charge table,
//! so this holds by construction; this suite keeps it that way.
//!
//! What differs by design: TS, the lock statistics and the gather bytes.
//! The engine runs the top-k selection over real distances, so how many
//! candidates update the queue and how long each returned list is depend
//! on the data; trace mode charges their closed-form expectation. The
//! host-side CL time differs too (measured against modelled).

use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use drim_ann::kernels::cl;
use drim_ann::layout::heat::cluster_heat;
use drim_ann::trace::{TraceRunner, TraceSpec};
use drim_ann::Phase;
use upmem_sim::PimArch;

const NDPUS: usize = 8;

/// Run the check under `tweak`; returns the (common) SQT hit rate.
fn check(tweak: impl Fn(&mut EngineConfig)) -> f64 {
    let spec = datasets::SynthSpec::small("trace-identity", 16, 3000, 47);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        32,
        datasets::queries::QuerySkew::InDistribution,
        9,
    );
    let mut cfg = EngineConfig::drim(IndexConfig {
        k: 10,
        nprobe: 12,
        nlist: 64,
        m: 8,
        cb: 32,
    });
    cfg.batch = queries.len();
    tweak(&mut cfg);
    let arch = PimArch::upmem_sc25();
    let mut engine = DrimEngine::build(&data, cfg.clone(), arch.clone(), NDPUS, None).unwrap();

    let clusters = cluster_heat(&engine.ivf.cluster_sizes(), None, cfg.index.nprobe);
    let tspec = TraceSpec {
        name: "trace-identity".into(),
        n_points: engine.ivf.len() as u64,
        dim: data.dim(),
        batch: cfg.batch,
        cluster_size_zipf: 0.0,
        heat_zipf: 0.0,
        seed: 1,
    };
    let mut runner =
        TraceRunner::from_clusters(tspec, cfg.clone(), arch, NDPUS, &clusters).unwrap();

    let (l, t) = (&engine.layout, &runner.layout);
    assert_eq!(l.slices, t.slices);
    assert_eq!(l.slice_homes, t.slice_homes);
    assert_eq!(l.dpu_slices, t.dpu_slices);
    assert_eq!(l.th1, t.th1);
    if cfg.ranks.is_some() {
        assert!(l.slice_homes.iter().all(|h| h.len() >= 2), "rank pass ran");
    }

    let probes = cl::run(
        &queries,
        &engine.ivf.coarse,
        &engine.ivf.coarse_norms,
        cfg.index.nprobe,
        &engine.shape,
        &engine.host,
    )
    .probes;
    let (_, eng) = engine.search_batch(&queries);
    let trace = runner.run_probes(&probes, 0);

    assert_eq!(eng.queries, trace.queries);
    assert_eq!(eng.postponed, trace.postponed);
    assert_eq!(
        eng.sqt_wram_hit_rate.to_bits(),
        trace.sqt_wram_hit_rate.to_bits(),
        "{} vs {}",
        eng.sqt_wram_hit_rate,
        trace.sqt_wram_hit_rate
    );
    let mut booked = 0;
    for (d, (e, t)) in engine
        .system
        .dpus
        .iter()
        .zip(&runner.system.dpus)
        .enumerate()
    {
        for phase in [Phase::Rc, Phase::Lc, Phase::Dc] {
            assert_eq!(
                e.meter.phase(phase),
                t.meter.phase(phase),
                "DPU {d} {phase:?}"
            );
        }
        booked += e.meter.phase(Phase::Dc).cycles;
    }
    assert!(booked > 0, "the batch booked work");
    eng.sqt_wram_hit_rate
}

#[test]
fn trace_books_the_engines_rc_lc_dc() {
    assert_eq!(check(|_| {}), 1.0);
}

#[test]
fn trace_books_the_engines_rc_lc_dc_without_wram_buffers() {
    // the SQT spills with the buffers: every lookup misses WRAM
    assert_eq!(check(|c| c.wram_buffers = false), 0.0);
}

#[test]
fn trace_deploys_the_engines_rank_topology() {
    // without duplication every slice has one home until the rank pass
    // adds a second on another rank
    check(|c| {
        c.duplication = false;
        c.ranks = Some(4);
    });
}
