//! # datasets
//!
//! Workload substrate for the DRIM-ANN reproduction.
//!
//! The paper evaluates on SIFT100M, DEEP100M, SPACEV100M and billion-scale
//! variants (its Table 1) — corpora far beyond what this environment can
//! host. In their place, this crate provides:
//!
//! * [`synth`] — deterministic synthetic corpora with the structural
//!   properties that matter to ANNS cost (dimension, dtype, clustered
//!   geometry with Zipf-skewed cluster mass);
//! * [`catalog`] — descriptors of the paper's datasets (full-scale shapes
//!   for the analytic/trace experiments) plus scaled synthetic stand-ins
//!   for functional runs;
//! * [`queries`] — query generators, including the skewed ("hot topic")
//!   distributions that trigger the load imbalance DRIM-ANN's layout
//!   optimizer targets;
//! * [`zipf`] — the Zipf sampler behind both;
//! * [`io`] — readers/writers for the standard `fvecs`/`bvecs`/`ivecs`
//!   formats so real SIFT/DEEP data can be dropped in when available;
//! * [`groundtruth`] — exact top-k answers for recall measurement.

pub mod catalog;
pub mod groundtruth;
pub mod io;
pub mod queries;
pub mod synth;
pub mod zipf;

pub use catalog::{DatasetDescriptor, Dtype};
pub use synth::{generate, SynthSpec};
