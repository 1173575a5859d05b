//! Serving counters.

/// Counters accumulated by the batch driver, snapshotted via
/// [`ServeHandle::stats`](crate::ServeHandle::stats) and returned by
/// [`AnnServer::shutdown`](crate::AnnServer::shutdown).
///
/// `closed_by_size + closed_by_deadline + closed_by_drain == batches`,
/// which is what the batch-close tests pin down: a size-triggered run
/// must show `closed_by_size` batches and zero deadline closes, and vice
/// versa.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Micro-batches dispatched to the engine.
    pub batches: u64,
    /// Queries served (results delivered to producers).
    pub served: u64,
    /// Submits rejected with `QueueFull` (backpressure).
    pub rejected: u64,
    /// Submits rejected with `Overloaded` by the shed policy.
    pub shed: u64,
    /// Batches closed by the size trigger (`max_batch` queued).
    pub closed_by_size: u64,
    /// Batches closed by the deadline trigger (`max_delay` elapsed).
    pub closed_by_deadline: u64,
    /// Batches closed by the shutdown flush.
    pub closed_by_drain: u64,
    /// Largest micro-batch dispatched (0 if none).
    pub largest_batch: usize,
    /// Smallest micro-batch dispatched (0 if none).
    pub smallest_batch: usize,
    /// Accumulated *simulated* DPU batch time across all dispatches, in
    /// seconds (sum of each batch report's phase-total).
    pub sim_time_s: f64,
    /// Accumulated simulated energy across all dispatches, in joules.
    pub sim_energy_j: f64,
    /// Submits answered from the hot-query result cache at admission
    /// (never dispatched; not counted in `served`).
    pub cache_hits: u64,
    /// Cache-enabled submits that missed the cache. Every *admitted*
    /// cache-enabled submit counts exactly one hit or one miss; rejected
    /// submits count neither. 0 with the cache off.
    pub cache_misses: u64,
    /// Misses that collapsed onto an identical already-queued or
    /// in-flight query (single-flight followers; a subset of
    /// `cache_misses`, not counted in `served`).
    pub collapsed: u64,
    /// Queries the engine skipped by in-batch dedup across all dispatches
    /// (sum of `BatchReport::deduped`).
    pub deduped_in_batch: u64,
    /// Entries the cache's CLOCK policy evicted to make room.
    pub evictions: u64,
    /// Streaming inserts the driver applied at batch boundaries.
    pub inserts_applied: u64,
    /// Streaming deletes the driver applied at batch boundaries.
    pub deletes_applied: u64,
    /// Mutations that failed at apply time (duplicate insert id, delete of
    /// an unknown id, MRAM exhaustion). Mutation enqueue is
    /// fire-and-forget, so failures surface here rather than at the
    /// producer.
    pub mutations_failed: u64,
    /// Background [`maintain`](drim_ann::engine::DrimEngine::maintain)
    /// calls the driver ran (`ServeConfig::maintain_every`).
    pub maintenance_runs: u64,
    /// Bytes moved by maintenance (splits to non-home DPUs plus
    /// migrations), summed over all driver-run maintenance passes.
    pub maintenance_moved_bytes: u64,
    /// Simulated seconds of CPU–DPU link time those moves cost — the
    /// honest price of background re-balancing while serving.
    pub maintenance_transfer_s: f64,
}

impl ServeStats {
    /// Mean micro-batch size (0.0 if nothing was dispatched).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served as f64 / self.batches as f64
        }
    }

    /// Cache hit rate: `cache_hits / (cache_hits + cache_misses)`, or
    /// 0.0 before any cache-enabled submit (and always with the cache
    /// off).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} queries in {} batches (mean {:.1}, min {}, max {}; \
             closes: {} size / {} deadline / {} drain; \
             {} rejected / {} shed; \
             cache: {} hit / {} miss (rate {:.2}), {} collapsed, \
             {} deduped, {} evicted; \
             mutations: {} inserted / {} deleted / {} failed, \
             {} maintenance runs)",
            self.served,
            self.batches,
            self.mean_batch(),
            self.smallest_batch,
            self.largest_batch,
            self.closed_by_size,
            self.closed_by_deadline,
            self.closed_by_drain,
            self.rejected,
            self.shed,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate(),
            self.collapsed,
            self.deduped_in_batch,
            self.evictions,
            self.inserts_applied,
            self.deletes_applied,
            self.mutations_failed,
            self.maintenance_runs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_batch_handles_zero_batches() {
        assert_eq!(ServeStats::default().mean_batch(), 0.0);
    }

    #[test]
    fn summary_mentions_close_reasons() {
        let s = ServeStats {
            batches: 3,
            served: 10,
            closed_by_size: 2,
            closed_by_deadline: 1,
            ..ServeStats::default()
        };
        let line = s.summary();
        assert!(line.contains("2 size"), "{line}");
        assert!(line.contains("1 deadline"), "{line}");
    }

    #[test]
    fn hit_rate_handles_empty_and_counts() {
        let mut s = ServeStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        s.collapsed = 1;
        s.deduped_in_batch = 2;
        s.evictions = 5;
        let line = s.summary();
        assert!(line.contains("3 hit / 1 miss (rate 0.75)"), "{line}");
        assert!(line.contains("1 collapsed"), "{line}");
        assert!(line.contains("2 deduped"), "{line}");
        assert!(line.contains("5 evicted"), "{line}");
    }

    #[test]
    fn summary_mentions_mutation_counters() {
        let s = ServeStats {
            inserts_applied: 7,
            deletes_applied: 3,
            mutations_failed: 1,
            maintenance_runs: 2,
            ..ServeStats::default()
        };
        let line = s.summary();
        assert!(line.contains("7 inserted / 3 deleted / 1 failed"), "{line}");
        assert!(line.contains("2 maintenance runs"), "{line}");
    }

    #[test]
    fn summary_mentions_overload_counters() {
        let s = ServeStats {
            shed: 4,
            ..ServeStats::default()
        };
        let line = s.summary();
        assert!(line.contains("4 shed"), "{line}");
    }
}
