//! # drim-ann-repro
//!
//! Integration surface of the DRIM-ANN reproduction workspace: re-exports
//! the member crates so the examples under `examples/` and the cross-crate
//! tests under `tests/` have one import root.
//!
//! The interesting code lives in the member crates:
//!
//! * [`upmem_sim`] — the UPMEM-class DRAM-PIM simulator;
//! * [`ann_core`] — k-means / PQ / IVF-PQ / top-k machinery;
//! * [`datasets`] — synthetic corpora, query skew models, fvecs I/O;
//! * [`drim_ann`] — the paper's engine: SQT, perf model, DSE, layout,
//!   scheduling, fault-tolerant dispatch (`docs/FAULT_MODEL.md`);
//! * [`baselines`] — Faiss-CPU/GPU models and the MemANNS datapoints.

pub use ann_core;
pub use baselines;
pub use datasets;
pub use drim_ann;
pub use upmem_sim;

/// Workspace version (kept in sync across member crates).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }

    #[test]
    fn reexports_resolve() {
        // touch one symbol per crate so the re-export surface stays wired
        let _ = super::upmem_sim::PimArch::upmem_sc25();
        let _ = super::ann_core::topk::Neighbor::new(0, 0.0);
        let _ = super::datasets::catalog::sift100m();
        let _ = super::drim_ann::IndexConfig::paper_default();
        let _ = super::baselines::memanns::sift1b_reported();
    }
}
