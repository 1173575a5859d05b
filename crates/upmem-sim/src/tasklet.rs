//! Tasklet (hardware thread) occupancy and the shared top-k lock model.
//!
//! Each UPMEM DPU runs up to 24 *tasklets* through an 11-stage in-order
//! pipeline; a single tasklet therefore achieves at best 1/11 IPC, and full
//! throughput requires at least 11 resident tasklets (Gómez-Luna et al.,
//! IEEE Access 2022). DRIM-ANN assigns work over codebook entries / cluster
//! points to tasklets, so the model here is occupancy plus a synchronisation
//! cost on the shared per-DPU top-k priority queue. Section 6 of the paper
//! ("Lock pruning") reports that the naive locked queue costs up to ~50 % of
//! total latency, removed by forwarding the current k-th distance into the
//! distance-calculation loop.

/// Outcome statistics of the shared top-k queue under a given locking policy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LockStats {
    /// Candidates that took the lock and updated the queue.
    pub locked_updates: u64,
    /// Candidates rejected without locking thanks to the forwarded bound.
    pub pruned: u64,
}

impl LockStats {
    /// Fraction of candidates that avoided the lock.
    pub fn prune_rate(&self) -> f64 {
        let total = self.locked_updates + self.pruned;
        if total == 0 {
            0.0
        } else {
            self.pruned as f64 / total as f64
        }
    }
}

/// Locking policy for the shared top-k priority queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockPolicy {
    /// Every candidate insertion takes the shared lock (baseline).
    LockAlways,
    /// DRIM-ANN's lock pruning: the current k-th best distance is forwarded
    /// to the distance loop; candidates not beating it never lock. The
    /// forwarded bound may be stale, which is safe (it only admits extra
    /// candidates, never drops true ones).
    #[default]
    Forwarding,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_rate() {
        let s = LockStats {
            locked_updates: 10,
            pruned: 90,
        };
        assert!((s.prune_rate() - 0.9).abs() < 1e-12);
        assert_eq!(LockStats::default().prune_rate(), 0.0);
    }

    #[test]
    fn default_policy_is_forwarding() {
        assert_eq!(LockPolicy::default(), LockPolicy::Forwarding);
    }
}
