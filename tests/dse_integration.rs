//! DSE integration: the Bayesian loop with a *measured* accuracy oracle on
//! a real (scaled) workload, plus calibration checks of the analytic proxy.

use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use drim_ann::dse::{optimize, ParamSpace, ProxyAccuracy};
use drim_ann::IndexConfig;
use upmem_sim::platform::procs;
use upmem_sim::PimArch;

struct Fixture {
    data: ann_core::VecSet<f32>,
    queries: ann_core::VecSet<f32>,
    truth: Vec<Vec<u64>>,
}

fn fixture() -> Fixture {
    let spec = datasets::SynthSpec::small("dse", 16, 6_000, 31);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        24,
        datasets::queries::QuerySkew::InDistribution,
        17,
    );
    let truth = ann_core::flat::ground_truth(&queries, &data, 10);
    Fixture {
        data,
        queries,
        truth,
    }
}

fn measured_recall(
    fx: &Fixture,
    cfg: &IndexConfig,
    cache: &mut std::collections::HashMap<(usize, usize, usize), IvfPqIndex>,
) -> f64 {
    let index = cache.entry((cfg.nlist, cfg.m, cfg.cb)).or_insert_with(|| {
        IvfPqIndex::build(&fx.data, &IvfPqParams::new(cfg.nlist).m(cfg.m).cb(cfg.cb))
    });
    let results: Vec<_> = (0..fx.queries.len())
        .map(|qi| index.search(fx.queries.get(qi), cfg.nprobe, 10))
        .collect();
    ann_core::recall::mean_recall(&results, &fx.truth, 10)
}

#[test]
fn dse_with_measured_accuracy_meets_constraint() {
    let fx = fixture();
    let mut cache = Default::default();
    let mut oracle = |cfg: &IndexConfig| measured_recall(&fx, cfg, &mut cache);
    let space = ParamSpace {
        k: vec![10],
        nprobe: vec![4, 8, 16],
        nlist: vec![32, 64],
        m: vec![4, 8],
        cb: vec![16, 32],
        sqt_window: vec![2 << 10, 4 << 10, 8 << 10],
        objective: drim_ann::dse::DseObjective::Throughput,
    };
    let res = optimize(
        &space,
        fx.data.len() as u64,
        fx.data.dim(),
        64,
        &PimArch::upmem_sc25(),
        &procs::xeon_silver_4216(),
        &mut oracle,
        0.7,
        8,
    );
    assert!(
        res.best_recall >= 0.7,
        "constraint violated: {}",
        res.best_recall
    );
    // the chosen config should not be the most expensive corner when a
    // cheaper feasible one was observed
    let cheaper_feasible = res
        .evaluations
        .iter()
        .filter(|e| e.recall >= 0.7)
        .any(|e| e.qps > res.best_qps * 0.999);
    assert!(cheaper_feasible);
}

#[test]
fn proxy_and_measured_recall_agree_on_direction() {
    // calibration property recorded in EXPERIMENTS.md: the proxy need not
    // match measured recall absolutely, but must order configurations the
    // same way along each axis
    let fx = fixture();
    let mut cache = Default::default();
    let mut proxy = ProxyAccuracy::for_dim(fx.data.dim());
    use drim_ann::dse::bayes::AccuracyEval;

    let base = IndexConfig {
        k: 10,
        nprobe: 8,
        nlist: 64,
        m: 4,
        cb: 16,
    };
    let richer = [
        IndexConfig { nprobe: 16, ..base },
        IndexConfig { m: 8, ..base },
        IndexConfig { cb: 32, ..base },
    ];
    let m_base = measured_recall(&fx, &base, &mut cache);
    let p_base = proxy.eval(&base);
    for cfg in richer {
        let m = measured_recall(&fx, &cfg, &mut cache);
        let p = proxy.eval(&cfg);
        assert!(
            (m >= m_base - 0.03) == (p >= p_base - 1e-9),
            "direction mismatch at {cfg:?}: measured {m_base}->{m}, proxy {p_base}->{p}"
        );
    }
}

#[test]
fn dse_beats_the_default_config_on_throughput() {
    // Table 3's "with DSE" effect: the tuned configuration should out-run
    // the Faiss-compatible default at the same constraint
    let space = ParamSpace::paper_default();
    let mut proxy = ProxyAccuracy::for_dim(128);
    let res = optimize(
        &space,
        1_000_000_000,
        128,
        2000,
        &PimArch::upmem_sc25(),
        &procs::xeon_silver_4216(),
        &mut proxy,
        0.8,
        16,
    );
    use drim_ann::dse::bayes::AccuracyEval;
    use drim_ann::perf_model::{predict, BitWidths, WorkloadShape};
    let default_cfg = IndexConfig {
        k: 10,
        nprobe: 96,
        nlist: 1 << 14,
        m: 16,
        cb: 256,
    };
    let default_qps = predict(
        &WorkloadShape::new(
            1_000_000_000,
            2000,
            128,
            &default_cfg,
            BitWidths::u8_regime(),
        ),
        &drim_ann::config::EngineConfig::drim(default_cfg),
        &PimArch::upmem_sc25(),
        &procs::xeon_silver_4216(),
    )
    .qps;
    assert!(proxy.eval(&res.best) >= 0.8);
    assert!(
        res.best_qps > default_qps,
        "DSE {:.0} should beat default {:.0}",
        res.best_qps,
        default_qps
    );
}
