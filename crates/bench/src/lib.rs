//! # bench
//!
//! The figure/table regeneration harness: one runner per experiment of the
//! DRIM-ANN paper. The `repro` binary drives these and prints paper-style
//! rows; `tests/paper_shapes.rs` gates the figures' shape claims.
//! Performance is measured elsewhere, by `benchmark/` (`BENCHMARK.json`).
//!
//! Scale notes: paper-scale experiments run in *trace
//! mode* — real layout/scheduling/cost code over statistical workload
//! shapes — on the full 2,543-DPU UPMEM configuration. Accuracy
//! experiments run functionally on scaled synthetic corpora.

pub mod experiments;
pub mod table;

pub use experiments::*;
