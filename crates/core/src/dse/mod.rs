//! PIM-aware algorithm tuning: design-space exploration over the index
//! parameters `(K, P, C, M, CB)` under an accuracy constraint (paper
//! Section 4).
//!
//! The objective (paper Eq. 14) is to minimize the overlapped host/PIM
//! batch time subject to `accuracy >= constraint`. Performance comes from
//! the analytic model ([`crate::perf_model`]) exactly as in the paper ("the
//! proposed performance model serves as the performance estimation part of
//! the kernel function"); accuracy is learned online by a Gaussian process
//! with a Matérn-5/2 kernel ([`gp`]). The acquisition function is
//! constrained expected improvement — EI on throughput weighted by the
//! GP's probability of meeting the recall constraint. (The paper uses
//! expected hypervolume improvement over the two objectives; with
//! performance deterministic under the model, constrained EI explores the
//! same frontier, and [`bayes::hypervolume_2d`] reports the attained front
//! either way.)

pub mod bayes;
pub mod gp;
pub mod space;

pub use bayes::{optimize, AccuracyEval, DseResult, ProxyAccuracy};
pub use space::{DseObjective, ParamSpace};
