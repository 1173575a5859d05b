//! Functional kernels and closed-form (trace-mode) charge functions must
//! account identical costs — this is what makes trace-mode timing
//! trustworthy at scales the functional engine cannot reach.

use drim_ann::config::DataBits;
use drim_ann::kernels::{dc, lc, rc, ts, KernelCtx};
use drim_ann::sqt::Sqt;
use drim_ann::wram::{plan, WramCandidate, WramPlacement};
use upmem_sim::meter::PhaseMeter;
use upmem_sim::tasklet::LockPolicy;
use upmem_sim::IsaCosts;

fn ctx<'a>(placement: &'a WramPlacement, costs: &'a IsaCosts) -> KernelCtx<'a> {
    KernelCtx {
        costs,
        dma_burst: 8,
        bits: DataBits::B8,
        placement,
    }
}

fn wram_everything() -> WramPlacement {
    plan(
        &["sqt", "lut", "codebook", "residual", "topk", "codes"]
            .iter()
            .map(|n| WramCandidate {
                name: n,
                bytes: 1,
                accesses: 1.0,
            })
            .collect::<Vec<_>>(),
        1 << 20,
    )
}

#[test]
fn rc_charge_matches_run() {
    for placement in [WramPlacement::none(), wram_everything()] {
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let rq = ann_core::quantize::ScalarQuantizer {
            lo: -128.0,
            scale: 1.0,
            levels: 256,
        };
        let mut functional = PhaseMeter::default();
        let mut out = Vec::new();
        let q: Vec<f32> = (0..96).map(|i| i as f32).collect();
        let cent = vec![1.5f32; 96];
        rc::run(&c, &mut functional, &q, &cent, &rq, &mut out);

        let mut bulk = PhaseMeter::default();
        rc::charge(&c, &mut bulk, 96);
        assert_eq!(functional, bulk, "placement {placement:?}");
    }
}

#[test]
fn lc_charge_matches_run_with_sqt() {
    for placement in [WramPlacement::none(), wram_everything()] {
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let (m, cb, dsub) = (8usize, 16usize, 4usize);
        let residual: Vec<u8> = (0..m * dsub).map(|i| (i * 7 % 256) as u8).collect();
        let codebooks: Vec<u8> = (0..m * cb * dsub).map(|i| (i * 13 % 256) as u8).collect();

        let mut functional = PhaseMeter::default();
        let mut sqt = Sqt::for_u8();
        let mut lut = Vec::new();
        lc::run_bulk(
            &c,
            &mut functional,
            &residual,
            1,
            &codebooks,
            m,
            cb,
            dsub,
            Some(&mut sqt),
            &mut lut,
        );

        let mut bulk = PhaseMeter::default();
        lc::charge(
            &c,
            &mut bulk,
            m,
            cb,
            dsub,
            lc::SquareCost::SqtLookup { wram_hit_rate: 1.0 },
        );
        assert_eq!(functional, bulk, "placement {placement:?}");
    }
}

#[test]
fn lc_charge_matches_run_with_multiply() {
    let placement = WramPlacement::none();
    let costs = IsaCosts::upmem();
    let c = ctx(&placement, &costs);
    let (m, cb, dsub) = (4usize, 8usize, 6usize);
    let residual = vec![100u8; m * dsub];
    let codebooks = vec![50u8; m * cb * dsub];

    let mut functional = PhaseMeter::default();
    let mut lut = Vec::new();
    lc::run_bulk(
        &c,
        &mut functional,
        &residual,
        1,
        &codebooks,
        m,
        cb,
        dsub,
        None,
        &mut lut,
    );

    let mut bulk = PhaseMeter::default();
    lc::charge(&c, &mut bulk, m, cb, dsub, lc::SquareCost::Multiply);
    assert_eq!(functional, bulk);
}

#[test]
fn dc_charge_matches_run() {
    for placement in [WramPlacement::none(), wram_everything()] {
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let (m, cb, n) = (8usize, 16usize, 137usize);
        let codes: Vec<u16> = (0..n * m).map(|i| (i % cb) as u16).collect();
        let lut: Vec<u32> = (0..m * cb).map(|i| i as u32).collect();

        let mut functional = PhaseMeter::default();
        let mut out = Vec::new();
        dc::run(&c, &mut functional, &codes, m, cb, &lut, u64::MAX, &mut out);

        let mut bulk = PhaseMeter::default();
        dc::charge(&c, &mut bulk, n as u64, m, cb);
        assert_eq!(functional, bulk, "placement {placement:?}");
    }
}

#[test]
fn ts_charge_matches_run_lock_always_descending() {
    // strictly decreasing distances: every candidate locks AND retains,
    // making the bulk parameters exact
    let placement = WramPlacement::none();
    let costs = IsaCosts::upmem();
    let c = ctx(&placement, &costs);
    let n = 300usize;
    let k = 10usize;
    let cands: Vec<(u32, u64)> = (0..n).map(|i| (i as u32, (n - i) as u64)).collect();
    let ids: Vec<u32> = (0..n as u32).collect();

    let mut functional = PhaseMeter::default();
    let mut heap = ann_core::topk::BoundedMaxHeap::new(k);
    ts::run(
        &c,
        &mut functional,
        &cands,
        &ids,
        &mut heap,
        k,
        LockPolicy::LockAlways,
    );

    let mut bulk = PhaseMeter::default();
    ts::charge(
        &c,
        &mut bulk,
        n as u64,
        k,
        LockPolicy::LockAlways,
        n as u64,
        n as u64, // descending: every push retained
    );
    assert_eq!(functional, bulk);
}

#[test]
fn ts_charge_matches_run_forwarding_with_observed_stats() {
    let placement = WramPlacement::none();
    let costs = IsaCosts::upmem();
    let c = ctx(&placement, &costs);
    let n = 400usize;
    let k = 7usize;
    // pseudo-random distances
    let cands: Vec<(u32, u64)> = (0..n as u32)
        .map(|i| (i, ((i as u64).wrapping_mul(2654435761) % 10_000) + 1))
        .collect();
    let ids: Vec<u32> = (0..n as u32).collect();

    let mut functional = PhaseMeter::default();
    let mut heap = ann_core::topk::BoundedMaxHeap::new(k);
    let stats = ts::run(
        &c,
        &mut functional,
        &cands,
        &ids,
        &mut heap,
        k,
        LockPolicy::Forwarding,
    );

    // count retained by replaying pushes
    let mut replay = ann_core::topk::BoundedMaxHeap::new(k);
    let mut retained = 0u64;
    let mut fwd = replay.bound();
    for (i, &(slot, d)) in cands.iter().enumerate() {
        if (d as f32) < fwd && replay.push(ann_core::topk::Neighbor::new(slot as u64, d as f32)) {
            retained += 1;
        } else if (d as f32) < fwd {
            // locked but not retained: nothing written
        }
        if i % 32 == 31 {
            fwd = replay.bound();
        }
    }

    let mut bulk = PhaseMeter::default();
    ts::charge(
        &c,
        &mut bulk,
        n as u64,
        k,
        LockPolicy::Forwarding,
        stats.locked_updates,
        retained,
    );
    assert_eq!(functional, bulk);
}

#[test]
fn simulator_costs_invariant_to_host_thread_count() {
    // Costs are booked per work item (per DPU, per task) and folded back
    // into the system in DPU order, so the *simulated* wall clock, energy
    // and lock statistics must not depend on how many host threads execute
    // the per-DPU loop. Bit-compare the whole report via its Debug
    // rendering (f64 Debug round-trips, so any bit drift shows).
    use drim_ann::config::{EngineConfig, IndexConfig};
    use drim_ann::engine::DrimEngine;

    let spec = datasets::SynthSpec::small("charge-threads", 16, 2000, 31);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        24,
        datasets::queries::QuerySkew::InDistribution,
        6,
    );
    let cfg = EngineConfig::drim(IndexConfig {
        k: 10,
        nprobe: 10,
        nlist: 48,
        m: 8,
        cb: 32,
    });
    let mut engine = rayon::with_num_threads(1, || {
        DrimEngine::build(&data, cfg, upmem_sim::PimArch::upmem_sc25(), 8, None).unwrap()
    });
    let (_, baseline) = rayon::with_num_threads(1, || engine.search_batch(&queries));
    let baseline = format!("{baseline:?}");
    for threads in [2usize, 4, 8] {
        let (_, report) = rayon::with_num_threads(threads, || engine.search_batch(&queries));
        assert_eq!(
            format!("{report:?}"),
            baseline,
            "simulated cost report drifted at {threads} host threads"
        );
    }
}

#[test]
fn energy_breakdown_invariant_to_host_thread_count() {
    // The phase-resolved energy breakdown is a closed-form function of the
    // merged meters and batch timing, both of which are thread-invariant,
    // so every component (and the per-phase split) must be bit-identical
    // at any host thread count — in the functional engine AND in trace
    // mode. This extends the charge-parity contract to the energy layer.
    use drim_ann::config::{EngineConfig, IndexConfig};
    use drim_ann::engine::DrimEngine;
    use drim_ann::trace::{TraceRunner, TraceSpec};

    // functional engine
    let spec = datasets::SynthSpec::small("energy-threads", 16, 2000, 77);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        24,
        datasets::queries::QuerySkew::InDistribution,
        9,
    );
    let cfg = EngineConfig::drim(IndexConfig {
        k: 10,
        nprobe: 10,
        nlist: 48,
        m: 8,
        cb: 32,
    });
    let mut engine = rayon::with_num_threads(1, || {
        DrimEngine::build(
            &data,
            cfg.clone(),
            upmem_sim::PimArch::upmem_sc25(),
            8,
            None,
        )
        .unwrap()
    });
    let (_, base) = rayon::with_num_threads(1, || engine.search_batch(&queries));
    let base_energy = format!("{:?}", base.energy);
    assert_eq!(base.energy_j.to_bits(), base.energy.total_j().to_bits());
    for threads in [2usize, 4, 8] {
        let (_, rep) = rayon::with_num_threads(threads, || engine.search_batch(&queries));
        assert_eq!(
            format!("{:?}", rep.energy),
            base_energy,
            "engine energy breakdown drifted at {threads} host threads"
        );
    }

    // trace mode
    let tspec = TraceSpec {
        name: "energy-threads-trace".into(),
        n_points: 500_000,
        dim: 32,
        batch: 64,
        cluster_size_zipf: 0.35,
        heat_zipf: 1.0,
        seed: 11,
    };
    let tcfg = EngineConfig::drim(IndexConfig {
        k: 10,
        nprobe: 8,
        nlist: 256,
        m: 8,
        cb: 64,
    });
    let mut runner = TraceRunner::build(tspec, tcfg, upmem_sim::PimArch::upmem_sc25(), 32);
    let tbase = format!(
        "{:?}",
        rayon::with_num_threads(1, || runner.run_batch(5)).energy
    );
    for threads in [2usize, 4, 8] {
        let rep = rayon::with_num_threads(threads, || runner.run_batch(5));
        assert_eq!(
            format!("{:?}", rep.energy),
            tbase,
            "trace energy breakdown drifted at {threads} host threads"
        );
    }
}

#[test]
fn expected_updates_matches_random_stream_order_of_magnitude() {
    // harmonic estimate vs an actual random stream
    let n = 10_000u64;
    let k = 10usize;
    let mut heap = ann_core::topk::BoundedMaxHeap::new(k);
    let mut updates = 0u64;
    for i in 0..n {
        let d = ((i.wrapping_mul(6364136223846793005) >> 33) % 1_000_000) as f32;
        if heap.push(ann_core::topk::Neighbor::new(i, d)) {
            updates += 1;
        }
    }
    let est = ts::expected_updates(n, k);
    assert!(
        (est as f64) > updates as f64 * 0.3 && (est as f64) < updates as f64 * 3.0,
        "estimate {est} vs actual {updates}"
    );
}
