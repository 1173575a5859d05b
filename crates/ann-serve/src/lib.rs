//! Online serving layer for the DRIM-ANN engine: deadline-aware
//! micro-batching over the offline batch path.
//!
//! The engine's native interface is [`DrimEngine::search_batch`] — hand
//! it a batch, get per-query results. Online traffic does not arrive in
//! batches: it arrives as single queries on many producer threads, and
//! serving it well means trading a bounded coalescing delay for batch
//! efficiency. This crate implements that front-end:
//!
//! * **Admission** — producers call [`ServeHandle::submit`] (or the
//!   blocking [`ServeHandle::search`]) with a query. Admission is
//!   validated (dimensionality, finite coordinates) and bounded: the
//!   queue is a `queue_cap`-deep FIFO, and a submit that would overflow
//!   it is rejected immediately with [`ServeError::QueueFull`] rather
//!   than blocking — backpressure is typed and explicit.
//! * **Micro-batching** — a single driver thread closes a batch when
//!   `max_batch` queries are queued **or** `max_delay` has elapsed since
//!   the oldest one arrived, whichever comes first, and fills it from the
//!   queue front in admission order.
//! * **Demultiplexing** — per-query results are deposited into per-request
//!   [`rayon::sync::OneShot`] slots where producers park ([`Ticket`]).
//! * **Hot-query caching** (opt-in via [`ServeConfig::cache`]) — an
//!   exact-match result cache answers repeated queries at admission,
//!   single-flight collapsing parks duplicate submits on one computation,
//!   and the engine dedups identical rows inside each micro-batch. All
//!   three levels are invalidated by the engine's result-validity epoch,
//!   so cached answers stay bit-identical to uncached ones (see
//!   [`cache`] and `docs/CACHING.md`).
//!
//! Everything is futures-free: producers park on condvars, the driver
//! parks on the inbox condvar with a deadline timeout, and the engine
//! runs on the host pool's scoped threads per region. No async runtime,
//! no spinning.
//!
//! # Determinism
//!
//! Served results are **bit-identical** to offline
//! [`DrimEngine::search_batch`] over the same queries, regardless of how
//! arrivals were grouped into micro-batches, of the host thread count and
//! of every other [`ServeConfig`] knob: overload protection
//! ([`OverloadPolicy::Shed`]) rejects submits but never changes an
//! answer, and the engine probes its configured `nprobe` for its whole
//! life. The engine's per-query work is independent of its batch-mates
//! (GEMM-backed phases compute per-element values that do not depend on
//! the batch composition, and top-k selection breaks ties by id), so
//! batch composition — which *is* timing-dependent online — cannot leak
//! into results. `docs/SERVING.md` spells out the full contract.
//!
//! # Example
//!
//! ```
//! use ann_serve::{AnnServer, ServeConfig};
//! use drim_ann::config::{EngineConfig, IndexConfig};
//! use drim_ann::engine::DrimEngine;
//! use datasets::synth::{generate, SynthSpec};
//! use std::time::Duration;
//!
//! let data = generate(&SynthSpec::small("doc", 16, 256, 7));
//! let index = IndexConfig { k: 4, nprobe: 4, nlist: 8, m: 4, cb: 16 };
//! let cfg = EngineConfig::drim(index);
//! let engine = DrimEngine::build(&data, cfg, Default::default(), 4, None).unwrap();
//!
//! let cfg = ServeConfig {
//!     max_batch: 8,
//!     max_delay: Duration::from_millis(1),
//!     ..ServeConfig::default()
//! };
//! let server = AnnServer::start(engine, cfg).unwrap();
//! let handle = server.handle();
//! let neighbors = handle.search(data.get(0)).unwrap();
//! assert_eq!(neighbors.len(), 4);
//! let (_engine, stats) = server.shutdown();
//! assert_eq!(stats.served, 1);
//! ```
//!
//! [`DrimEngine::search_batch`]: drim_ann::engine::DrimEngine::search_batch

pub mod cache;
pub mod config;
pub mod error;
mod inbox;
pub mod server;
pub mod stats;

pub use cache::{CacheConfig, CacheKey, ResultCache};
pub use config::{OverloadPolicy, ServeConfig, ServeConfigError};
pub use error::ServeError;
pub use server::{AnnServer, ServeHandle, Ticket};
pub use stats::ServeStats;
