//! The Bayesian-optimization loop (paper Section 4.1).
//!
//! Performance is evaluated by the analytic model (cheap, deterministic);
//! accuracy by a pluggable evaluator — measured recall on a scaled
//! functional workload, or the calibrated analytic proxy for full-scale
//! trace studies. A greedy feasible seed starts the search ("we select a
//! group ... within the accuracy constraint through greedy search as the
//! initial index"), then constrained expected improvement picks each next
//! configuration.

use super::gp::{normal_pdf, Gp};
use super::space::{DseObjective, ParamSpace};
use crate::config::{EngineConfig, IndexConfig};
use crate::perf_model::{predict, BitWidths, Prediction, WorkloadShape};
use upmem_sim::proc::ProcModel;
use upmem_sim::PimArch;

/// Pluggable accuracy oracle: recall@k in `[0, 1]` for a configuration.
pub trait AccuracyEval {
    /// Evaluate (or estimate) recall for `cfg`. May be expensive.
    fn eval(&mut self, cfg: &IndexConfig) -> f64;
}

impl<F: FnMut(&IndexConfig) -> f64> AccuracyEval for F {
    fn eval(&mut self, cfg: &IndexConfig) -> f64 {
        self(cfg)
    }
}

/// Calibrated analytic recall proxy for full-scale studies where measuring
/// recall is impossible (SIFT1B in Table 3).
///
/// `recall ~ cluster_hit(nprobe) x code_quality(m log2 cb / d)`:
/// the first factor saturates as more clusters are probed, the second as
/// the PQ code carries more bits per dimension. Coefficients are fitted
/// against measured scaled-down runs (see `tests/dse.rs`) and recorded in
/// EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct ProxyAccuracy {
    /// Dataset dimension (code quality depends on bits *per dimension*).
    pub dim: f64,
    /// Cluster-hit saturation rate.
    pub alpha: f64,
    /// Code-quality saturation rate.
    pub beta: f64,
}

impl ProxyAccuracy {
    /// Defaults calibrated so the paper's empirical optimum (nprobe=96,
    /// nlist=2^14, M=16, CB=256 on 128-d data) sits just above the 0.8
    /// recall floor, and cheaper corners fall below it — matching where
    /// the paper's Fig. 7 configurations live (see tests/dse_integration).
    pub fn for_dim(dim: usize) -> Self {
        ProxyAccuracy {
            dim: dim as f64,
            alpha: 0.235,
            beta: 2.4,
        }
    }
}

impl AccuracyEval for ProxyAccuracy {
    fn eval(&mut self, cfg: &IndexConfig) -> f64 {
        // coverage term: diminishing returns in nprobe, sharper when the
        // index has fewer, larger clusters
        let frac = cfg.nprobe as f64 / cfg.nlist as f64;
        let cluster_hit =
            1.0 - (-self.alpha * (cfg.nprobe as f64).sqrt() * (1.0 + 20.0 * frac)).exp();
        // quality term: bits per dimension of the PQ code
        let bits_per_dim = cfg.m as f64 * (cfg.cb as f64).log2() / self.dim;
        let quality = 1.0 - (-self.beta * bits_per_dim).exp();
        (cluster_hit * quality).clamp(0.0, 1.0)
    }
}

/// One DSE evaluation record.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The configuration evaluated.
    pub cfg: IndexConfig,
    /// Model-predicted throughput (QPS).
    pub qps: f64,
    /// Model-predicted batch energy, joules.
    pub energy_j: f64,
    /// Measured/estimated recall.
    pub recall: f64,
}

/// DSE outcome.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Best feasible configuration found (under the space's
    /// [`DseObjective`]).
    pub best: IndexConfig,
    /// Its predicted QPS.
    pub best_qps: f64,
    /// Its recall.
    pub best_recall: f64,
    /// Its predicted batch energy, joules.
    pub best_energy_j: f64,
    /// Its predicted queries per joule (co-reported regardless of the
    /// objective, as Fig. 10 reads energy off the latency winner too).
    pub best_qpj: f64,
    /// The 16-bit SQT WRAM window (entries) co-optimized with the buffer
    /// planner for the winning configuration — feed it to
    /// `EngineConfig::sqt_window`.
    pub best_sqt_window: usize,
    /// Every evaluation performed, in order.
    pub evaluations: Vec<Evaluation>,
}

impl DseResult {
    /// Hypervolume of the attained (qps, recall) front w.r.t. the origin,
    /// with QPS normalized by the best observed — the metric EHVI grows.
    pub fn hypervolume(&self) -> f64 {
        let max_qps = self
            .evaluations
            .iter()
            .map(|e| e.qps)
            .fold(f64::MIN_POSITIVE, f64::max);
        let pts: Vec<(f64, f64)> = self
            .evaluations
            .iter()
            .map(|e| (e.qps / max_qps, e.recall))
            .collect();
        hypervolume_2d(&pts)
    }
}

/// Hypervolume dominated by a 2-D maximization front w.r.t. `(0, 0)`.
pub fn hypervolume_2d(points: &[(f64, f64)]) -> f64 {
    let mut pts: Vec<(f64, f64)> = points.to_vec();
    pts.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap()); // qps descending
    let mut hv = 0.0;
    let mut best_recall = 0.0f64;
    let mut prev_q = None::<f64>;
    for (q, r) in pts {
        if r > best_recall {
            if let Some(pq) = prev_q {
                hv += best_recall * (pq - q).max(0.0);
            }
            // wait until the next qps step to account area; track corner
            prev_q = Some(q);
            best_recall = r;
        }
        if prev_q.is_none() {
            prev_q = Some(q);
            best_recall = r;
        }
    }
    if let Some(q) = prev_q {
        hv += best_recall * q;
    }
    hv
}

/// Run the DSE: returns the best configuration meeting
/// `recall >= accuracy_constraint`, or the highest-recall one when nothing
/// is feasible.
#[allow(clippy::too_many_arguments)]
pub fn optimize(
    space: &ParamSpace,
    n_points: u64,
    dim: usize,
    batch: usize,
    arch: &PimArch,
    host: &ProcModel,
    accuracy: &mut dyn AccuracyEval,
    accuracy_constraint: f64,
    iters: usize,
) -> DseResult {
    let candidates = space.enumerate();
    assert!(!candidates.is_empty(), "empty design space");

    let pred_of = |cfg: &IndexConfig| -> Prediction {
        let shape = WorkloadShape::new(n_points, batch, dim, cfg, BitWidths::u8_regime());
        predict(&shape, &EngineConfig::drim(*cfg), arch, host)
    };
    // One scalar to maximize among feasible configurations: QPS,
    // queries-per-joule, or inverse EDP depending on the space's objective.
    let score_of = |cfg: &IndexConfig| -> f64 {
        let p = pred_of(cfg);
        match space.objective {
            DseObjective::Throughput => p.qps,
            DseObjective::QueriesPerJoule => p.queries_per_joule(batch as f64),
            DseObjective::EnergyDelayProduct => 1.0 / p.edp_js().max(1e-18),
        }
    };

    // Score of an already-recorded evaluation (same scalar as `score_of`,
    // derived from the stored prediction: `t = batch / qps`).
    let eval_score = |e: &Evaluation| -> f64 {
        match space.objective {
            DseObjective::Throughput => e.qps,
            DseObjective::QueriesPerJoule => batch as f64 / e.energy_j.max(1e-12),
            DseObjective::EnergyDelayProduct => e.qps / (e.energy_j.max(1e-18) * batch as f64),
        }
    };

    // The model is deterministic, so every candidate's score is computed
    // exactly once up front (seeding, the per-iteration acquisition scan
    // and the final sort all read this cache instead of re-running the
    // analytic model).
    let scores: Vec<f64> = candidates.iter().map(&score_of).collect();

    let mut evals: Vec<Evaluation> = Vec::new();
    let mut evaluated = std::collections::HashSet::new();

    // --- greedy seeding: the accuracy-maximizing corner plus the
    // model-best candidate under the objective — both ends of the frontier
    let mut seeds = Vec::new();
    if let Some(max_acc) = candidates.iter().max_by(|a, b| {
        (a.nprobe * a.m * a.cb)
            .partial_cmp(&(b.nprobe * b.m * b.cb))
            .unwrap()
    }) {
        seeds.push(*max_acc);
    }
    if let Some(fastest) = candidates
        .iter()
        .zip(&scores)
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(c, _)| *c)
    {
        seeds.push(fastest);
    }
    // a mid-space sample for GP conditioning
    seeds.push(candidates[candidates.len() / 2]);

    for cfg in seeds {
        if evaluated.insert(key(&cfg)) {
            let recall = accuracy.eval(&cfg);
            let p = pred_of(&cfg);
            evals.push(Evaluation {
                cfg,
                qps: p.qps,
                energy_j: p.energy_j,
                recall,
            });
        }
    }

    // --- BO iterations with constrained EI
    for _ in 0..iters {
        let xs: Vec<Vec<f64>> = evals
            .iter()
            .map(|e| space.normalize(&e.cfg).to_vec())
            .collect();
        let ys: Vec<f64> = evals.iter().map(|e| e.recall).collect();
        let gp = match Gp::fit(&xs, &ys, 0.4, 1e-4) {
            Some(g) => g,
            None => break,
        };

        // incumbent: best feasible score so far
        let incumbent = evals
            .iter()
            .filter(|e| e.recall >= accuracy_constraint)
            .map(&eval_score)
            .fold(0.0f64, f64::max);

        let mut best_next: Option<(f64, IndexConfig)> = None;
        for (cfg, &s) in candidates.iter().zip(&scores) {
            if evaluated.contains(&key(cfg)) {
                continue;
            }
            let x = space.normalize(cfg);
            let p_feasible = gp.prob_at_least(&x, accuracy_constraint);
            // deterministic-objective EI degenerates to the plain
            // improvement, smoothed by feasibility probability; add an
            // exploration bonus from the accuracy variance
            let (_, var) = gp.predict(&x);
            let improvement = (s - incumbent).max(0.0);
            let z = if incumbent > 0.0 {
                improvement / incumbent
            } else {
                1.0
            };
            let acq = p_feasible * (improvement + 0.01 * incumbent * normal_pdf(1.0 - z))
                + 0.001 * var.sqrt() * s;
            if acq > best_next.as_ref().map(|(a, _)| *a).unwrap_or(f64::MIN) {
                best_next = Some((acq, *cfg));
            }
        }
        let Some((_, next)) = best_next else { break };
        evaluated.insert(key(&next));
        let recall = accuracy.eval(&next);
        let p = pred_of(&next);
        evals.push(Evaluation {
            cfg: next,
            qps: p.qps,
            energy_j: p.energy_j,
            recall,
        });
    }

    // --- greedy completion (the paper's "greedy search" leg): walk the
    // unevaluated candidates in descending predicted score, stopping once
    // nothing scoring above the feasible incumbent remains. The first
    // feasible hit in this order is provably the best feasible
    // configuration the oracle admits, so the result can never degenerate
    // to the slow accuracy-corner seed.
    let best_feasible_score = evals
        .iter()
        .filter(|e| e.recall >= accuracy_constraint)
        .map(&eval_score)
        .fold(0.0f64, f64::max);
    let mut by_score: Vec<(&IndexConfig, f64)> = candidates
        .iter()
        .zip(&scores)
        .filter(|(c, _)| !evaluated.contains(&key(c)))
        .map(|(c, &s)| (c, s))
        .collect();
    by_score.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (cfg, s) in by_score {
        if s <= best_feasible_score {
            break; // nothing left can improve on the incumbent
        }
        let recall = accuracy.eval(cfg);
        evaluated.insert(key(cfg));
        let p = pred_of(cfg);
        evals.push(Evaluation {
            cfg: *cfg,
            qps: p.qps,
            energy_j: p.energy_j,
            recall,
        });
        if recall >= accuracy_constraint {
            break; // first feasible in score-descending order is optimal
        }
    }

    // --- pick the winner
    let feasible_best = evals
        .iter()
        .filter(|e| e.recall >= accuracy_constraint)
        .max_by(|a, b| eval_score(a).partial_cmp(&eval_score(b)).unwrap());
    let chosen = feasible_best
        .or_else(|| {
            evals
                .iter()
                .max_by(|a, b| a.recall.partial_cmp(&b.recall).unwrap())
        })
        .expect("at least one evaluation");

    // Co-optimize the 16-bit SQT window with the buffer planner for the
    // winner: the window is orthogonal to recall and to the analytic phase
    // charges, so it is swept once here rather than multiplying the GP's
    // search space. This is a *pre-layout* estimate (slice metadata and
    // the DPU census are layout facts the DSE never sees — hence
    // local_clusters = 0, ndpus = 1, and the default engine tasklet
    // count); the engine's planner re-runs the greedy placement with the
    // real layout at build time and, if the estimate no longer fits
    // there, the window spills to MRAM rather than evicting anything.
    let shape = WorkloadShape::new(n_points, batch, dim, &chosen.cfg, BitWidths::u8_regime());
    let capacity = arch
        .wram_bytes
        .saturating_sub(EngineConfig::drim(chosen.cfg).tasklets as u64 * 1024);
    let best_sqt_window = crate::wram::choose_sqt_window(&shape, &space.sqt_window, capacity, 0, 1);

    DseResult {
        best: chosen.cfg,
        best_qps: chosen.qps,
        best_recall: chosen.recall,
        best_energy_j: chosen.energy_j,
        best_qpj: batch as f64 / chosen.energy_j.max(1e-12),
        best_sqt_window,
        evaluations: evals.clone(),
    }
}

fn key(cfg: &IndexConfig) -> (usize, usize, usize, usize, usize) {
    (cfg.k, cfg.nprobe, cfg.nlist, cfg.m, cfg.cb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use upmem_sim::platform::procs;

    #[test]
    fn proxy_recall_is_monotone_in_each_knob() {
        let mut p = ProxyAccuracy::for_dim(128);
        let base = IndexConfig {
            k: 10,
            nprobe: 32,
            nlist: 1 << 14,
            m: 16,
            cb: 256,
        };
        let r0 = p.eval(&base);
        for (field, cfg) in [
            ("nprobe", IndexConfig { nprobe: 64, ..base }),
            ("m", IndexConfig { m: 32, ..base }),
            ("cb", IndexConfig { cb: 1024, ..base }),
        ] {
            let r = p.eval(&cfg);
            assert!(r >= r0, "{field}: {r} < {r0}");
        }
        // fewer probes must hurt
        let r_less = p.eval(&IndexConfig { nprobe: 8, ..base });
        assert!(r_less < r0);
    }

    #[test]
    fn dse_respects_the_constraint() {
        let space = ParamSpace::small();
        let mut proxy = ProxyAccuracy::for_dim(32);
        let res = optimize(
            &space,
            1_000_000,
            32,
            256,
            &PimArch::upmem_sc25(),
            &procs::xeon_silver_4216(),
            &mut proxy,
            0.5,
            10,
        );
        assert!(
            res.best_recall >= 0.5,
            "best recall {} below constraint",
            res.best_recall
        );
        assert!(res.best_qps > 0.0);
        assert!(res.evaluations.len() >= 3);
    }

    #[test]
    fn dse_improves_over_the_accuracy_corner() {
        // the seed maximizing accuracy is usually slow; DSE must find a
        // feasible config at least as fast
        let space = ParamSpace::small();
        let mut proxy = ProxyAccuracy::for_dim(32);
        let res = optimize(
            &space,
            1_000_000,
            32,
            256,
            &PimArch::upmem_sc25(),
            &procs::xeon_silver_4216(),
            &mut proxy,
            0.4,
            12,
        );
        let corner = res.evaluations[0].clone(); // accuracy-max seed
        assert!(
            res.best_qps >= corner.qps,
            "best {} should beat corner {}",
            res.best_qps,
            corner.qps
        );
    }

    #[test]
    fn dse_sweeps_the_sqt_window_from_the_space() {
        let mut space = ParamSpace::small();
        space.sqt_window = vec![1 << 10, 2 << 10, 4 << 10];
        let mut proxy = ProxyAccuracy::for_dim(32);
        let res = optimize(
            &space,
            1_000_000,
            32,
            256,
            &PimArch::upmem_sc25(),
            &procs::xeon_silver_4216(),
            &mut proxy,
            0.5,
            5,
        );
        assert!(
            space.sqt_window.contains(&res.best_sqt_window),
            "window {} not from the sweep",
            res.best_sqt_window
        );
        // UPMEM-sized WRAM fits the 4Ki-entry (16 KiB) window alongside
        // the hot set, so the co-optimizer should take the largest
        assert_eq!(res.best_sqt_window, 4 << 10);
    }

    #[test]
    fn energy_objectives_respect_constraint_and_report_energy() {
        for objective in [
            DseObjective::QueriesPerJoule,
            DseObjective::EnergyDelayProduct,
        ] {
            let mut space = ParamSpace::small();
            space.objective = objective;
            let mut proxy = ProxyAccuracy::for_dim(32);
            let res = optimize(
                &space,
                1_000_000,
                32,
                256,
                &PimArch::upmem_sc25(),
                &procs::xeon_silver_4216(),
                &mut proxy,
                0.5,
                10,
            );
            assert!(res.best_recall >= 0.5, "{objective:?}: infeasible winner");
            assert!(res.best_energy_j > 0.0);
            assert!(
                (res.best_qpj - 256.0 / res.best_energy_j).abs() / res.best_qpj < 1e-9,
                "{objective:?}: qpj inconsistent"
            );
            // the winner is the qpj-best feasible *evaluation* (for the
            // EDP objective the check is the analogous EDP ordering)
            for e in res.evaluations.iter().filter(|e| e.recall >= 0.5) {
                match objective {
                    DseObjective::QueriesPerJoule => assert!(
                        256.0 / e.energy_j <= res.best_qpj * (1.0 + 1e-9),
                        "feasible eval beats winner on qpj"
                    ),
                    DseObjective::EnergyDelayProduct => {
                        let edp = |qps: f64, energy: f64| energy * 256.0 / qps;
                        assert!(
                            edp(e.qps, e.energy_j)
                                >= edp(res.best_qps, res.best_energy_j) * (1.0 - 1e-9),
                            "feasible eval beats winner on EDP"
                        );
                    }
                    DseObjective::Throughput => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn qpj_objective_never_picks_a_feasible_config_with_worse_qpj_than_throughput_winner() {
        // queries-per-joule and throughput mostly agree on this model
        // (energy is time-dominated), but the qpj winner must be at least
        // as energy-efficient as the throughput winner.
        let mut thr_space = ParamSpace::small();
        thr_space.objective = DseObjective::Throughput;
        let mut qpj_space = ParamSpace::small();
        qpj_space.objective = DseObjective::QueriesPerJoule;
        let run = |space: &ParamSpace| {
            let mut proxy = ProxyAccuracy::for_dim(32);
            optimize(
                space,
                1_000_000,
                32,
                256,
                &PimArch::upmem_sc25(),
                &procs::xeon_silver_4216(),
                &mut proxy,
                0.5,
                10,
            )
        };
        let thr = run(&thr_space);
        let qpj = run(&qpj_space);
        assert!(
            qpj.best_qpj >= thr.best_qpj * (1.0 - 1e-9),
            "qpj winner {} less efficient than throughput winner {}",
            qpj.best_qpj,
            thr.best_qpj
        );
    }

    #[test]
    fn infeasible_constraint_returns_highest_recall() {
        let space = ParamSpace::small();
        let mut proxy = ProxyAccuracy::for_dim(32);
        let res = optimize(
            &space,
            1_000_000,
            32,
            256,
            &PimArch::upmem_sc25(),
            &procs::xeon_silver_4216(),
            &mut proxy,
            0.9999,
            5,
        );
        let max_recall = res
            .evaluations
            .iter()
            .map(|e| e.recall)
            .fold(0.0f64, f64::max);
        assert!((res.best_recall - max_recall).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_of_single_point() {
        assert!((hypervolume_2d(&[(1.0, 0.8)]) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn hypervolume_dominated_point_adds_nothing() {
        let hv1 = hypervolume_2d(&[(1.0, 0.8)]);
        let hv2 = hypervolume_2d(&[(1.0, 0.8), (0.5, 0.5)]);
        assert!((hv1 - hv2).abs() < 1e-9);
    }

    #[test]
    fn hypervolume_grows_with_frontier() {
        let hv1 = hypervolume_2d(&[(1.0, 0.5)]);
        let hv2 = hypervolume_2d(&[(1.0, 0.5), (0.5, 0.9)]);
        assert!(hv2 > hv1);
    }
}
