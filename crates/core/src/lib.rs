//! # drim-ann
//!
//! A reproduction of **DRIM-ANN: An Approximate Nearest Neighbor Search
//! Engine based on Commercial DRAM-PIMs** (Chen et al., SC '25): a
//! cluster-based (IVF-PQ) ANNS engine co-designed for UPMEM-class DRAM
//! processing-in-memory hardware, running here on the functional + timing
//! simulator of the [`upmem_sim`] crate.
//!
//! The paper's four contributions map to modules:
//!
//! * **Multiplier-less conversion** — [`sqt`]: squarings in L2 distances
//!   become lossless lookups sized to the 64 KiB WRAM scratchpad.
//! * **PIM-aware algorithm tuning** — [`perf_model`] (the paper's Eq. 1-13)
//!   and [`dse`] (an exact scan over `(K, P, C, M, CB)` maximizing
//!   predicted QPS under a recall constraint, in place of the paper's
//!   Bayesian optimization).
//! * **Load-balanced data layout** — [`layout`]: cluster partition,
//!   heat-proportional duplication, and heat-balanced allocation with
//!   co-location exchange.
//! * **Runtime scheduling** — [`sched`]: greedy coldest-replica assignment
//!   with `th3` postponement.
//!
//! Every batch — clean, faulted, or trace — runs through one crate-private
//! `dispatch` loop: schedule, per-DPU waves, host-side accounting. On top
//! of the paper's design it carries one fixed recovery policy — a ban on
//! dead DPUs, hedging, one retry wave, then the host fallback — that
//! tolerates fail-stop DPUs, stragglers, and result corruption injected by
//! [`upmem_sim::fault`] — see `docs/FAULT_MODEL.md`.
//!
//! [`engine::DrimEngine`] assembles everything for functional runs on real
//! vectors (`engine/mutate.rs` holds its streaming insert/delete and
//! maintenance half); [`trace`] drives the identical
//! layout/scheduling/dispatch code with full-scale statistical workloads
//! (100M–1B points) that no test machine could materialize, charging
//! closed-form costs where the engine runs kernels.
//!
//! ```
//! use drim_ann::config::{EngineConfig, IndexConfig};
//! use drim_ann::engine::DrimEngine;
//! use upmem_sim::PimArch;
//!
//! let spec = datasets::SynthSpec::small("quick", 16, 2000, 7);
//! let data = datasets::generate(&spec);
//! let queries = datasets::queries::generate_queries(
//!     &spec, 8, datasets::queries::QuerySkew::InDistribution, 1);
//!
//! let cfg = EngineConfig::drim(IndexConfig { k: 5, nprobe: 8, nlist: 32, m: 4, cb: 16 });
//! let mut engine = DrimEngine::build(&data, cfg, PimArch::upmem_sc25(), 8, None).unwrap();
//! let (results, report) = engine.search_batch(&queries);
//! assert_eq!(results.len(), 8);
//! assert!(report.qps > 0.0);
//! ```

pub mod config;
mod deploy;
mod dispatch;
pub mod dse;
pub mod engine;
pub mod kernels;
pub mod layout;
pub mod perf_model;
pub mod report;
pub mod sched;
pub mod sqt;
pub mod trace;
pub mod wram;

pub use config::{ConfigError, EngineConfig, IndexConfig, MaintenanceConfig};
pub use engine::{DrimEngine, MaintenanceReport, MutationError};
pub use report::{BatchReport, FaultStats};
pub use upmem_sim::meter::Phase;
