//! Fault tolerance: inject DPU faults into the simulated system and watch
//! the engine recover — losslessly with the host fallback, gracefully
//! degraded without it, and with hedged re-dispatch capping straggler
//! tails. See `docs/FAULT_MODEL.md` for the model and its determinism
//! contract.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use upmem_sim::fault::{FaultConfig, SlowdownDist};
use upmem_sim::PimArch;

fn main() {
    let spec = datasets::SynthSpec::small("fault-demo", 32, 20_000, 42);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        64,
        datasets::queries::QuerySkew::InDistribution,
        7,
    );
    let truth = ann_core::flat::ground_truth(&queries, &data, 10);
    let index = IndexConfig {
        k: 10,
        nprobe: 16,
        nlist: 128,
        m: 16,
        cb: 256,
    };
    let ndpus = 32;

    // 1. Zero-fault baseline.
    let mut engine = DrimEngine::build(
        &data,
        EngineConfig::drim(index),
        PimArch::upmem_sc25(),
        ndpus,
        None,
    )
    .unwrap();
    let (r_clean, rep_clean) = engine.search_batch(&queries);
    let recall = ann_core::recall::mean_recall(&r_clean, &truth, 10);
    println!("clean:    recall@10 {recall:.3}  {}", rep_clean.summary());

    // 2. 5% of everything: fail-stop DPUs, Pareto stragglers, corrupted
    //    gathers. With the host fallback on (the default), recovery is
    //    lossless — the results are bit-identical, the faults only cost
    //    time and energy.
    let mut fc = FaultConfig::uniform(0xD1A6, 0.05);
    fc.slowdown = SlowdownDist::Pareto {
        scale: 2.0,
        alpha: 1.2,
        cap: 24.0,
    };
    engine.inject_faults(fc).unwrap();
    let (r_faulted, rep) = engine.search_batch(&queries);
    assert_eq!(
        format!("{r_clean:?}"),
        format!("{r_faulted:?}"),
        "host-fallback recovery reproduces the zero-fault answer bit-for-bit"
    );
    println!("faulted:  lossless recovery  {}", rep.summary());

    // 3. The host fallback off, on a layout without duplication, and 40%
    //    of the DPUs fail-stopped: every slice has one home, so the slices
    //    on dead DPUs are dropped, and the report carries a recall-loss
    //    bound for the degradation. (The default layout copies every
    //    slice of this small index onto all 32 DPUs, so under it no
    //    fail-stop rate short of all 32 drops anything.)
    let mut cfg = EngineConfig::drim(index);
    cfg.host_fallback = false;
    cfg.duplication = false;
    let mut degraded = DrimEngine::build(&data, cfg, PimArch::upmem_sc25(), ndpus, None).unwrap();
    assert!(degraded.layout.slice_homes.iter().all(|h| h.len() == 1));
    let mut harsh = fc;
    harsh.fail_stop_rate = 0.4;
    degraded.inject_faults(harsh).unwrap();
    let (r_deg, rep_deg) = degraded.search_batch(&queries);
    let deg_recall = ann_core::recall::mean_recall(&r_deg, &truth, 10);
    let bound = rep_deg.fault.recall_loss_bound();
    println!(
        "degraded: recall@10 {deg_recall:.3} (bound on loss {bound:.4})  {}",
        rep_deg.summary()
    );
    assert!(
        rep_deg.fault.dropped_tasks > 0,
        "the degraded leg must drop work"
    );
    assert!(bound > 0.0);
    assert!(recall - deg_recall <= bound);

    // 4. The same fault seed replays the same story, bit-for-bit — at any
    //    host thread count (tests/fault_parity.rs pins this at 1/2/4/8).
    let (_, rep_again) = engine.search_batch(&queries);
    assert_eq!(format!("{rep:?}"), format!("{rep_again:?}"));
    println!("replayed: bit-identical report (deterministic fault layer)");
}
