//! Serving-layer configuration.

use std::fmt;
use std::time::Duration;

use crate::cache::CacheConfig;

/// What the server does when the backlog projects past the batching
/// deadline — i.e. when queued-but-undispatched queries exceed what the
/// next [`max_queue_batches`](ServeConfig::max_queue_batches) dispatches
/// can absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// No overload protection: admit until `queue_cap` (the default).
    #[default]
    None,
    /// Shed load: the queue is capped at the projected backlog budget
    /// (`max_queue_batches * max_batch`), and a submit beyond it is
    /// rejected with
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded).
    Shed,
}

/// Configuration of the micro-batching server.
///
/// The two-knob batching rule: a forming batch closes as soon as
/// [`max_batch`](Self::max_batch) queries are queued **or**
/// [`max_delay`](Self::max_delay) has elapsed since the oldest queued
/// query arrived, whichever comes first. `max_delay` therefore bounds the
/// coalescing latency any admitted query can pay before dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Size trigger: close the batch once this many queries are queued.
    pub max_batch: usize,
    /// Deadline trigger: close the batch this long after its oldest query
    /// arrived, even if fewer than `max_batch` queries are queued.
    /// `Duration::ZERO` is valid and means "dispatch immediately"
    /// (pure latency mode, batches of whatever is present); a delay too
    /// large for `Instant` to add means the deadline never fires.
    pub max_delay: Duration,
    /// Bounded-queue backpressure: cap on queued-but-undispatched
    /// queries. A submit that would exceed it is rejected with
    /// [`ServeError::QueueFull`](crate::ServeError::QueueFull) instead of
    /// blocking the producer.
    pub queue_cap: usize,
    /// Host threads the driver uses for each `search_batch` call.
    /// `None` inherits the process-wide setting (`DRIM_ANN_THREADS`).
    /// The pool's thread override is
    /// thread-local, so the driver re-applies this on its own thread —
    /// callers cannot use `rayon::with_num_threads` around `start` and
    /// expect it to propagate.
    pub host_threads: Option<usize>,
    /// Overload protection: what to do when the backlog projects past the
    /// batching deadline. See [`OverloadPolicy`].
    pub overload: OverloadPolicy,
    /// Backlog budget in batches: the queue is considered overloaded once
    /// it holds more than this many `max_batch`-sized dispatches' worth of
    /// queries. Sets the backlog cap of [`OverloadPolicy::Shed`].
    /// Must be at least 1.
    pub max_queue_batches: usize,
    /// Hot-query result cache: `Some(..)` enables exact-match caching and
    /// single-flight collapsing of bit-identical queries (see
    /// [`crate::cache`] and `docs/CACHING.md`). `None` (the default)
    /// serves every submit through the engine — bit-identical to the
    /// pre-cache behavior.
    pub cache: Option<CacheConfig>,
    /// Background index maintenance: `Some(n)` makes the driver run
    /// [`DrimEngine::maintain`](drim_ann::engine::DrimEngine::maintain)
    /// (tombstone compaction, slice splitting, migration — see
    /// `docs/MUTATION.md`) after every `n` dispatched batches. `None`
    /// (the default) never maintains; callers with streaming mutation
    /// should either set this or maintain between serving sessions.
    pub maintain_every: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            max_delay: Duration::from_micros(500),
            queue_cap: 1024,
            host_threads: None,
            overload: OverloadPolicy::None,
            max_queue_batches: 8,
            cache: None,
            maintain_every: None,
        }
    }
}

impl ServeConfig {
    /// Validate the configuration. Called by
    /// [`AnnServer::start`](crate::AnnServer::start).
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.max_batch == 0 {
            return Err(ServeConfigError::ZeroMaxBatch);
        }
        if self.queue_cap == 0 {
            return Err(ServeConfigError::ZeroQueueCap);
        }
        if self.host_threads == Some(0) {
            return Err(ServeConfigError::ZeroHostThreads);
        }
        if self.max_queue_batches == 0 {
            return Err(ServeConfigError::ZeroQueueBatches);
        }
        if let Some(c) = &self.cache {
            if c.capacity == 0 {
                return Err(ServeConfigError::ZeroCacheCapacity);
            }
            if c.shards == 0 {
                return Err(ServeConfigError::ZeroCacheShards);
            }
        }
        if self.maintain_every == Some(0) {
            return Err(ServeConfigError::ZeroMaintainEvery);
        }
        Ok(())
    }
}

/// A rejected [`ServeConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `max_batch` was 0 — no batch could ever close.
    ZeroMaxBatch,
    /// `queue_cap` was 0 — every submit would be rejected.
    ZeroQueueCap,
    /// `host_threads` was `Some(0)`; the pool needs at least one thread.
    ZeroHostThreads,
    /// `max_queue_batches` was 0 — the overload budget would be empty and
    /// every admission decision degenerate.
    ZeroQueueBatches,
    /// The cache was enabled with `capacity: 0` — nothing could ever be
    /// stored.
    ZeroCacheCapacity,
    /// The cache was enabled with `shards: 0` — no shard to store into.
    ZeroCacheShards,
    /// `maintain_every` was `Some(0)` — maintenance cannot run more often
    /// than every batch.
    ZeroMaintainEvery,
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::ZeroMaxBatch => write!(f, "max_batch must be at least 1"),
            ServeConfigError::ZeroQueueCap => write!(f, "queue_cap must be at least 1"),
            ServeConfigError::ZeroHostThreads => {
                write!(f, "host_threads must be at least 1 when set")
            }
            ServeConfigError::ZeroQueueBatches => {
                write!(f, "max_queue_batches must be at least 1")
            }
            ServeConfigError::ZeroCacheCapacity => {
                write!(f, "cache capacity must be at least 1 when enabled")
            }
            ServeConfigError::ZeroCacheShards => {
                write!(f, "cache shard count must be at least 1 when enabled")
            }
            ServeConfigError::ZeroMaintainEvery => {
                write!(f, "maintain_every must be at least 1 when set")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(ServeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_knobs_are_rejected() {
        let with = |f: &dyn Fn(&mut ServeConfig)| {
            let mut c = ServeConfig::default();
            f(&mut c);
            c
        };
        assert_eq!(
            with(&|c| c.max_batch = 0).validate(),
            Err(ServeConfigError::ZeroMaxBatch)
        );
        assert_eq!(
            with(&|c| c.queue_cap = 0).validate(),
            Err(ServeConfigError::ZeroQueueCap)
        );
        assert_eq!(
            with(&|c| c.host_threads = Some(0)).validate(),
            Err(ServeConfigError::ZeroHostThreads)
        );
        assert_eq!(
            with(&|c| c.max_queue_batches = 0).validate(),
            Err(ServeConfigError::ZeroQueueBatches)
        );
        assert_eq!(
            with(&|c| c.cache = Some(CacheConfig {
                capacity: 0,
                shards: 8
            }))
            .validate(),
            Err(ServeConfigError::ZeroCacheCapacity)
        );
        assert_eq!(
            with(&|c| c.cache = Some(CacheConfig {
                capacity: 64,
                shards: 0
            }))
            .validate(),
            Err(ServeConfigError::ZeroCacheShards)
        );
        assert_eq!(
            with(&|c| c.cache = Some(CacheConfig::default())).validate(),
            Ok(())
        );
        assert_eq!(
            with(&|c| c.maintain_every = Some(0)).validate(),
            Err(ServeConfigError::ZeroMaintainEvery)
        );
        assert_eq!(with(&|c| c.maintain_every = Some(16)).validate(), Ok(()));
    }

    #[test]
    fn overload_defaults_to_none_and_policies_validate() {
        assert_eq!(ServeConfig::default().overload, OverloadPolicy::None);
        let c = ServeConfig {
            overload: OverloadPolicy::Shed,
            ..ServeConfig::default()
        };
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn zero_delay_is_valid_latency_mode() {
        let c = ServeConfig {
            max_batch: 8,
            max_delay: Duration::ZERO,
            ..ServeConfig::default()
        };
        assert_eq!(c.validate(), Ok(()));
    }
}
