//! PIM-aware algorithm tuning: design-space exploration over the index
//! parameters `(K, P, C, M, CB)` under an accuracy constraint (paper
//! Section 4).
//!
//! The objective (paper Eq. 14) is to maximize predicted throughput
//! subject to `accuracy >= constraint`. Performance comes from the analytic
//! model ([`crate::perf_model`]) exactly as in the paper ("the proposed
//! performance model serves as the performance estimation part of the
//! kernel function"); accuracy from a pluggable oracle ([`AccuracyEval`]):
//! measured recall on a scaled workload, or the analytic
//! [`ProxyAccuracy`] for full-scale studies.
//!
//! The search is an exact scan. Every candidate is scored once by the
//! model (cheap and deterministic); accuracy, the expensive half (possibly
//! an index build), is then evaluated in descending score order and the
//! scan stops at the first candidate meeting the constraint, which is the
//! feasible argmax. This departs from the paper, which runs Bayesian
//! optimization (a Gaussian-process accuracy surrogate driven by EHVI):
//! with performance deterministic under the model the scan is exact for
//! any oracle, and no exact method evaluates
//! fewer candidates — every candidate scoring above the winner must be
//! shown infeasible before the winner is known to be best. The paper notes
//! itself that "when the design space is small, the DSE process is similar
//! to exhaustive search".

pub mod space;

pub use space::ParamSpace;

use crate::config::{EngineConfig, IndexConfig};
use crate::perf_model::{predict, BitWidths, WorkloadShape};
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

/// Analytic recall proxy for full-scale studies where measuring recall is
/// impossible (SIFT1B in Table 3).
///
/// `recall ~ cluster_hit(nprobe) x code_quality(m log2 cb / d)`:
/// the first factor saturates as more clusters are probed, the second as
/// the PQ code carries more bits per dimension. The coefficients are set
/// by hand, not fitted against measured runs.
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
    /// Hand-set defaults that put the paper's empirical optimum
    /// (nprobe=96, nlist=2^14, M=16, CB=256 on 128-d data) just above the
    /// 0.8 recall floor and cheaper corners below it — matching where the
    /// paper's Fig. 7 configurations live (see tests/dse_integration.rs).
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
    /// Measured/estimated recall.
    pub recall: f64,
}

/// DSE outcome.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Best feasible configuration found.
    pub best: IndexConfig,
    /// Its predicted QPS.
    pub best_qps: f64,
    /// Its recall.
    pub best_recall: f64,
    /// Every evaluation performed, in order.
    pub evaluations: Vec<Evaluation>,
}

/// Run the DSE: returns the best configuration meeting
/// `recall >= accuracy_constraint`, or the highest-recall one when nothing
/// is feasible.
///
/// Accuracy is evaluated in descending predicted QPS (ties in enumeration
/// order) up to the first feasible candidate, so `evaluations` ends with
/// the winner and holds exactly the candidates ordered ahead of it; when
/// nothing is feasible it holds the whole space.
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
) -> DseResult {
    let candidates = space.enumerate();
    assert!(!candidates.is_empty(), "empty design space");

    // The model is deterministic, so every candidate is predicted once.
    let qps: Vec<f64> = candidates
        .iter()
        .map(|cfg| {
            let shape = WorkloadShape::new(n_points, batch, dim, cfg, BitWidths::u8_regime());
            predict(&shape, &EngineConfig::drim(*cfg), arch, host).qps
        })
        .collect();
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| qps[b].total_cmp(&qps[a])); // stable: ties keep enumeration order

    let mut evals: Vec<Evaluation> = Vec::new();
    for i in order {
        let recall = accuracy.eval(&candidates[i]);
        evals.push(Evaluation {
            cfg: candidates[i],
            qps: qps[i],
            recall,
        });
        if recall >= accuracy_constraint {
            break;
        }
    }
    let chosen = match evals.last() {
        Some(e) if e.recall >= accuracy_constraint => e.clone(),
        // nothing feasible, so every candidate was evaluated
        _ => evals
            .iter()
            .reduce(|best, e| if e.recall > best.recall { e } else { best })
            .cloned()
            .expect("at least one evaluation"),
    };

    DseResult {
        best: chosen.cfg,
        best_qps: chosen.qps,
        best_recall: chosen.recall,
        evaluations: evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upmem_sim::platform::procs;

    /// `optimize` over `space` for 1M 32-d points, batch 256, with the
    /// proxy oracle.
    fn run(space: &ParamSpace, floor: f64) -> DseResult {
        optimize(
            space,
            1_000_000,
            32,
            256,
            &PimArch::upmem_sc25(),
            &procs::xeon_silver_4216(),
            &mut ProxyAccuracy::for_dim(32),
            floor,
        )
    }

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
        let res = run(&ParamSpace::small(), 0.5);
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
        // the accuracy-maximizing corner (largest nprobe·m·cb) is usually
        // slow; DSE must find a feasible config at least as fast
        let space = ParamSpace::small();
        let res = run(&space, 0.4);
        let corner = space
            .enumerate()
            .into_iter()
            .max_by_key(|c| c.nprobe * c.m * c.cb)
            .unwrap();
        let corner_qps = predict(
            &WorkloadShape::new(1_000_000, 256, 32, &corner, BitWidths::u8_regime()),
            &EngineConfig::drim(corner),
            &PimArch::upmem_sc25(),
            &procs::xeon_silver_4216(),
        )
        .qps;
        assert!(
            res.best_qps >= corner_qps,
            "best {} should beat corner {}",
            res.best_qps,
            corner_qps
        );
    }

    #[test]
    fn infeasible_constraint_returns_highest_recall() {
        let res = run(&ParamSpace::small(), 0.9999);
        let max_recall = res
            .evaluations
            .iter()
            .map(|e| e.recall)
            .fold(0.0f64, f64::max);
        assert!((res.best_recall - max_recall).abs() < 1e-12);
        // nothing is feasible, so the scan evaluated the whole space
        assert_eq!(res.evaluations.len(), ParamSpace::small().len());
    }
}
