//! # ann-core
//!
//! Algorithmic substrate for the DRIM-ANN reproduction: everything a
//! cluster-based approximate-nearest-neighbor engine needs, implemented from
//! scratch:
//!
//! * dense vector containers for `f32` and quantized `u8` corpora
//!   ([`vector`]);
//! * distance kernels ([`distance`]) including the asymmetric
//!   query-vs-quantized form used by IVF-PQ, plus their blocked,
//!   SIMD-friendly forms ([`kernels`]) that every hot path routes through;
//! * k-means with k-means++ seeding and empty-cluster repair ([`kmeans`]);
//! * product quantization ([`pq`]), the residual quantizer;
//! * the IVF-PQ index itself ([`ivf`]): coarse clustering, residual
//!   encoding, nprobe search;
//! * exact brute-force search for ground truth ([`flat`]);
//! * top-k machinery ([`topk`]): the bounded max-heap DRIM-ANN's TS phase
//!   keeps per DPU (the paper's alternative, a bitonic network, is not
//!   used), and the merge of sorted partial lists;
//! * scalar quantization to 8/16-bit integers ([`quantize`]), the data
//!   width regime where DRIM-ANN's squaring lookup table applies;
//! * recall metrics ([`recall`]).
//!
//! The crate is deliberately independent of the PIM simulator: it is the
//! "algorithm" half of the co-design, reusable on any host.

pub mod blockscan;
pub mod distance;
pub mod flat;
pub mod hash;
pub mod ivf;
pub mod kernels;
pub mod kmeans;
pub mod linalg;
pub mod pq;
pub mod quantize;
pub mod recall;
pub mod topk;
pub mod vector;

pub use ivf::{IvfPqIndex, IvfPqParams};
pub use pq::ProductQuantizer;
pub use topk::Neighbor;
pub use vector::VecSet;
