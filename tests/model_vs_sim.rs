//! Simulator-vs-analytic-model agreement (the property paper Fig. 11b
//! validates: the real engine achieves 71.8–99.9 % of the model's
//! prediction).
//!
//! `predict` and trace mode book work through the same
//! `kernels::GroupCost::charge`, so in the uniform regime what separates
//! them is what the model leaves out on purpose: the scheduler's residual
//! imbalance and the result lists a query gathers from more than one DPU.

use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::perf_model::{predict, BitWidths, Prediction, WorkloadShape};
use drim_ann::trace::{TraceRunner, TraceSpec};
use upmem_sim::platform::procs;
use upmem_sim::PimArch;

/// The model rounds the mean cluster population `C` to whole points while
/// the trace scans integer-sized clusters around it: half a point in the
/// smallest `C` used here (2,441) bounds how far the "ideal" can sit below
/// a perfectly balanced run.
const C_ROUND_OFF: f64 = 0.5 / 2441.0;

/// The paper's floor on actual / predicted throughput (Fig. 11b).
const PAPER_FLOOR: f64 = 0.70;

fn sift_index(nprobe: usize, nlist: usize) -> IndexConfig {
    IndexConfig {
        k: 10,
        nprobe,
        nlist,
        m: 16,
        cb: 256,
    }
}

/// The model's prediction and a trace runner for the DRIM configuration of
/// `index` — one machine of `ndpus` DPUs, described to both.
///
/// Uniform cluster sizes and heat: the regime where the perfectly-balanced
/// analytic model and the simulator should coincide. (Skewed regimes
/// intentionally diverge — that gap *is* the load-imbalance signal the
/// paper's optimizations close; see `tests/load_balance.rs`.)
fn model_and_sim(
    index: IndexConfig,
    n: u64,
    dim: usize,
    batch: usize,
    ndpus: usize,
) -> (Prediction, TraceRunner) {
    let mut arch = PimArch::upmem_sc25();
    arch.num_dpus = ndpus;
    let cfg = EngineConfig::drim(index);
    let shape = WorkloadShape::new(n, batch, dim, &index, BitWidths::u8_regime());
    let model = predict(&shape, &cfg, &arch, &procs::xeon_silver_4216());
    let spec = TraceSpec {
        name: "model-vs-sim".into(),
        n_points: n,
        dim,
        batch,
        cluster_size_zipf: 0.0,
        heat_zipf: 0.0,
        seed: 99,
    };
    (model, TraceRunner::build(spec, cfg, arch, ndpus))
}

#[test]
fn trace_qps_tracks_model_prediction() {
    for nlist in [1usize << 10, 1 << 12] {
        let (model, mut runner) = model_and_sim(sift_index(32, nlist), 10_000_000, 128, 512, 512);
        let actual = runner.mean_qps(2);
        let ratio = actual / model.qps;
        // the model is an *ideal* (perfect balance, fewest gathers): the
        // simulator comes in below it, within the paper's band (measured:
        // 0.966 and 0.964)
        assert!(
            (PAPER_FLOOR..=1.0 + C_ROUND_OFF).contains(&ratio),
            "nlist {nlist}: actual {actual:.0} / ideal {:.0} = {ratio:.4}",
            model.qps
        );
    }
}

#[test]
fn model_and_sim_agree_on_sweep_direction() {
    // if the model says nprobe=128 is slower than nprobe=32, the simulator
    // must agree (and vice versa) — directional consistency is what makes
    // the model a usable DSE surrogate
    let qps_pair = |nprobe: usize| {
        let (model, mut runner) =
            model_and_sim(sift_index(nprobe, 1 << 10), 5_000_000, 96, 256, 256);
        (model.qps, runner.mean_qps(1))
    };
    let (m32, s32) = qps_pair(32);
    let (m128, s128) = qps_pair(128);
    assert!(m32 > m128, "model: fewer probes must be faster");
    assert!(s32 > s128, "sim: fewer probes must be faster");
    // and the *magnitude* of the slowdown should be comparable (measured:
    // 4.00x in the model, 3.91x in the simulator)
    let model_ratio = m32 / m128;
    let sim_ratio = s32 / s128;
    assert!(
        (model_ratio / sim_ratio) < 1.05 && (sim_ratio / model_ratio) < 1.05,
        "model ratio {model_ratio:.2} vs sim ratio {sim_ratio:.2}"
    );
}

#[test]
fn simulated_energy_grows_with_nprobe() {
    // more probes cost the simulator more energy per batch and per query,
    // and its metered dynamic phases are visible in the accounting
    let report_for = |nprobe: usize| {
        let (_, mut runner) = model_and_sim(sift_index(nprobe, 1 << 12), 10_000_000, 128, 512, 512);
        runner.run_batch(1)
    };
    let s32 = report_for(32);
    let s96 = report_for(96);
    for s in [&s32, &s96] {
        assert!(s.energy.dynamic_j() > 0.0);
    }
    assert!(
        s96.energy_j > s32.energy_j,
        "simulated energy must grow with nprobe"
    );
    assert!(s96.queries_per_joule() < s32.queries_per_joule());
}

#[test]
fn c2io_predicts_which_phase_dominates() {
    // the model's DC-vs-LC bottleneck shift with nlist (paper Fig. 9) must
    // appear in the simulator's phase breakdown
    let report_for = |nlist: usize| {
        let (_, mut runner) = model_and_sim(sift_index(32, nlist), 10_000_000, 128, 256, 256);
        runner.run_batch(1)
    };
    use drim_ann::Phase;
    let small = report_for(1 << 9); // C ~ 19.5k points: DC-heavy
    let large = report_for(1 << 14); // C ~ 610: LC-heavy
    assert!(
        small.fraction(Phase::Dc) > small.fraction(Phase::Lc),
        "small nlist: DC {} LC {}",
        small.fraction(Phase::Dc),
        small.fraction(Phase::Lc)
    );
    assert!(
        large.fraction(Phase::Lc) > large.fraction(Phase::Dc),
        "large nlist: LC {} DC {}",
        large.fraction(Phase::Lc),
        large.fraction(Phase::Dc)
    );
}
