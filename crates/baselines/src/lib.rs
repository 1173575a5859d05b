//! # baselines
//!
//! The comparison systems of the DRIM-ANN evaluation:
//!
//! * [`cpu`] — the Faiss-CPU baseline: a calibrated roofline timing model
//!   of the paper's Xeon Gold 5218 used for cross-platform QPS ratios
//!   (comparing this host's wall clock to a simulated PIM would be
//!   meaningless);
//! * [`gpu`] — the Faiss-GPU baseline on an A100 80GB model, with
//!   out-of-memory detection for billion-scale corpora;
//! * [`roofline`] — the roofline analysis of paper Fig. 2;
//! * [`memanns`] — reported numbers of the contemporaneous MemANNS system
//!   (closed source; the paper also compares against its published
//!   figures, Table 3).

pub mod cpu;
pub mod gpu;
pub mod memanns;
pub mod roofline;

pub use cpu::CpuModel;
pub use gpu::GpuModel;
