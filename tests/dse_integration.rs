//! DSE integration: the exact scan with a *measured* accuracy oracle on a
//! real (scaled) workload, its pick checked against a brute force over the
//! whole space, plus direction checks of the analytic proxy.

use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use drim_ann::config::EngineConfig;
use drim_ann::dse::{optimize, AccuracyEval, ParamSpace, ProxyAccuracy};
use drim_ann::perf_model::{predict, BitWidths, WorkloadShape};
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
        nlist: vec![32, 64],
        ..ParamSpace::small()
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
    // the proxy need not match measured recall absolutely, but must order
    // configurations the same way along each axis
    let fx = fixture();
    let mut cache = Default::default();
    let mut proxy = ProxyAccuracy::for_dim(fx.data.dim());

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
    );
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
        &EngineConfig::drim(default_cfg),
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

/// The scalar `optimize` maximizes: predicted QPS, recomputed from the
/// analytic model.
fn model_score(n: u64, dim: usize, batch: usize, cfg: &IndexConfig) -> f64 {
    predict(
        &WorkloadShape::new(n, batch, dim, cfg, BitWidths::u8_regime()),
        &EngineConfig::drim(*cfg),
        &PimArch::upmem_sc25(),
        &procs::xeon_silver_4216(),
    )
    .qps
}

/// Brute-forces every candidate of `space` (model score and accuracy) and
/// checks that `optimize` picks the first feasible candidate, in
/// enumeration order, with the maximal score.
fn assert_exact_argmax(
    case: &str,
    space: &ParamSpace,
    (n, dim, batch): (u64, usize, usize),
    accuracy: &mut dyn AccuracyEval,
    floor: f64,
) {
    let scored: Vec<(IndexConfig, f64, f64)> = space
        .enumerate()
        .into_iter()
        .map(|cfg| {
            let score = model_score(n, dim, batch, &cfg);
            (cfg, score, accuracy.eval(&cfg))
        })
        .collect();
    let top = scored
        .iter()
        .filter(|c| c.2 >= floor)
        .map(|c| c.1)
        .fold(f64::NEG_INFINITY, f64::max);
    let winner = scored
        .iter()
        .position(|c| c.2 >= floor && c.1 == top)
        .unwrap_or_else(|| panic!("{case}: no feasible candidate"));

    let res = optimize(
        space,
        n,
        dim,
        batch,
        &PimArch::upmem_sc25(),
        &procs::xeon_silver_4216(),
        accuracy,
        floor,
    );
    assert_eq!(res.best, scored[winner].0, "{case}: not the exact argmax");

    // minimality: every evaluation before the winner is infeasible and
    // scores at least as high, and nothing else was evaluated
    let (last, ahead) = res.evaluations.split_last().unwrap();
    assert_eq!(
        last.cfg, res.best,
        "{case}: the winner is not the last evaluation"
    );
    for e in ahead {
        assert!(
            e.recall < floor,
            "{case}: feasible {:?} evaluated ahead",
            e.cfg
        );
        let score = model_score(n, dim, batch, &e.cfg);
        assert!(score >= top, "{case}: {:?} scores below the winner", e.cfg);
    }
    let ordered_ahead = scored
        .iter()
        .enumerate()
        .filter(|&(i, c)| c.1 > top || (c.1 == top && i < winner))
        .count();
    assert_eq!(res.evaluations.len(), ordered_ahead + 1, "{case}");
}

#[test]
fn optimize_picks_the_exact_feasible_argmax() {
    use datasets::catalog;
    for batch in [256, 2_000] {
        for desc in [
            catalog::sift100m(),
            catalog::deep100m(),
            catalog::spacev100m(),
        ] {
            for floor in [0.65, 0.70, 0.75, 0.80] {
                assert_exact_argmax(
                    &format!("{} floor {floor} batch {batch}", desc.name),
                    &ParamSpace::paper_default(),
                    (desc.n_full, desc.dim, batch),
                    &mut ProxyAccuracy::for_dim(desc.dim),
                    floor,
                );
            }
        }
        let sift1b = catalog::sift1b();
        assert_exact_argmax(
            &format!("SIFT1B floor 0.8 batch {batch}"),
            &ParamSpace::paper_default(),
            (sift1b.n_full, sift1b.dim, batch),
            &mut ProxyAccuracy::for_dim(sift1b.dim),
            0.8,
        );
    }
    assert_exact_argmax(
        "1e9 x 128-d, batch 2000, floor 0.8",
        &ParamSpace::paper_default(),
        (1_000_000_000, 128, 2_000),
        &mut ProxyAccuracy::for_dim(128),
        0.8,
    );
    for floor in [0.4, 0.5] {
        assert_exact_argmax(
            &format!("small floor {floor}"),
            &ParamSpace::small(),
            (1_000_000, 32, 256),
            &mut ProxyAccuracy::for_dim(32),
            floor,
        );
    }
    let fx = fixture();
    let mut cache = Default::default();
    let mut oracle = |cfg: &IndexConfig| measured_recall(&fx, cfg, &mut cache);
    // the space of `dse_with_measured_accuracy_meets_constraint`
    assert_exact_argmax(
        "measured fixture floor 0.7",
        &ParamSpace {
            nlist: vec![32, 64],
            ..ParamSpace::small()
        },
        (fx.data.len() as u64, fx.data.dim(), 64),
        &mut oracle,
        0.7,
    );
}
