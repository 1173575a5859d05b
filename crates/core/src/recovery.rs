//! Per-DPU health tracking for the fault-tolerant dispatch layer.
//!
//! The engine's recovery pipeline (see `docs/FAULT_MODEL.md`) walks a small
//! state machine per DPU:
//!
//! ```text
//!            transient fault            strikes == quarantine_after
//!  HEALTHY ------------------> SUSPECT ----------------------------> QUARANTINED
//!     ^                           |
//!     +--------- healthy wave ----+
//!
//!  any state --- fail-stop --> DEAD   (terminal)
//! ```
//!
//! Dead and quarantined DPUs form the *ban mask* consumed by
//! [`crate::sched::schedule_filtered`]; work whose every replica home is
//! banned escalates to the host fallback or degrades.
//!
//! **Determinism contract.** Health state is rebuilt at the start of every
//! batch ([`DpuHealth::from_injector`] seeds the dead set from the
//! injector's static fail-stop draw — the driver's allocation-time rank
//! scan), and strikes accumulate only within a batch. `search_batch` is
//! therefore a pure function of `(engine, queries, fault_batch)`: repeated
//! calls, any host thread count, and any call order produce bit-identical
//! reports.

use upmem_sim::fault::FaultInjector;

/// Per-DPU health state, scoped to one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpuHealth {
    /// Consecutive transient-fault strikes per DPU (reset by a healthy wave).
    strikes: Vec<u32>,
    /// Quarantined after `quarantine_after` strikes.
    quarantined: Vec<bool>,
    /// Known fail-stopped (allocation-time scan or runtime discovery).
    dead: Vec<bool>,
}

impl DpuHealth {
    /// All-healthy state for `ndpus` DPUs.
    pub fn new(ndpus: usize) -> Self {
        DpuHealth {
            strikes: vec![0; ndpus],
            quarantined: vec![false; ndpus],
            dead: vec![false; ndpus],
        }
    }

    /// Health state after the driver's allocation-time scan: the injector's
    /// static fail-stop set is marked dead up front, so dispatch routes
    /// around dead DPUs instead of discovering them by timeout.
    pub fn from_injector(inj: &FaultInjector, ndpus: usize) -> Self {
        Self::from_injector_at(inj, ndpus, 0)
    }

    /// [`Self::from_injector`] evaluated at batch `batch`: additionally
    /// marks every DPU of a rank the injector's rank fail-stop draw has
    /// killed by that batch (`rank_kill_from_batch` gates when drawn rank
    /// deaths take effect, so a mid-run kill shows up here from its
    /// activation batch onward).
    pub fn from_injector_at(inj: &FaultInjector, ndpus: usize, batch: u64) -> Self {
        let mut h = Self::new(ndpus);
        for d in 0..ndpus {
            h.dead[d] = inj.is_fail_stop_at(d, batch);
        }
        h
    }

    /// Record a fail-stop discovered at runtime (terminal).
    pub fn record_fail_stop(&mut self, d: usize) {
        self.dead[d] = true;
    }

    /// Record a transient fault (straggler or corruption); quarantines the
    /// DPU once `quarantine_after` consecutive strikes accumulate.
    pub fn record_transient(&mut self, d: usize, quarantine_after: u32) {
        self.strikes[d] += 1;
        if self.strikes[d] >= quarantine_after {
            self.quarantined[d] = true;
        }
    }

    /// Record a healthy completion (clears the strike counter).
    pub fn record_healthy(&mut self, d: usize) {
        self.strikes[d] = 0;
    }

    /// True when `d` must not receive work.
    pub fn is_banned(&self, d: usize) -> bool {
        self.dead[d] || self.quarantined[d]
    }

    /// The ban mask consumed by [`crate::sched::schedule_filtered`].
    pub fn banned(&self) -> Vec<bool> {
        self.dead
            .iter()
            .zip(&self.quarantined)
            .map(|(&d, &q)| d || q)
            .collect()
    }

    /// Known-dead DPU count.
    pub fn dead_count(&self) -> usize {
        self.dead.iter().filter(|&&d| d).count()
    }

    /// Quarantined DPU count.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upmem_sim::fault::FaultConfig;

    #[test]
    fn quarantine_after_repeated_strikes() {
        let mut h = DpuHealth::new(4);
        h.record_transient(2, 3);
        h.record_transient(2, 3);
        assert!(!h.is_banned(2));
        h.record_transient(2, 3);
        assert!(h.is_banned(2));
        assert_eq!(h.quarantined_count(), 1);
    }

    #[test]
    fn healthy_wave_clears_strikes() {
        let mut h = DpuHealth::new(2);
        h.record_transient(0, 3);
        h.record_transient(0, 3);
        h.record_healthy(0);
        h.record_transient(0, 3);
        assert!(!h.is_banned(0), "strikes must reset on a healthy wave");
    }

    #[test]
    fn fail_stop_is_terminal_and_scanned_up_front() {
        let mut h = DpuHealth::new(3);
        h.record_fail_stop(1);
        h.record_healthy(1);
        assert!(h.is_banned(1), "dead DPUs never come back");
        assert_eq!(h.dead_count(), 1);

        let inj = FaultInjector::new(FaultConfig::uniform(0xDEAD, 0.3)).unwrap();
        let scanned = DpuHealth::from_injector(&inj, 64);
        let dead: Vec<usize> = (0..64).filter(|&d| inj.is_fail_stop(d)).collect();
        assert!(!dead.is_empty(), "seed should kill some of 64 DPUs at 30%");
        for d in 0..64 {
            assert_eq!(scanned.is_banned(d), dead.contains(&d));
        }
    }

    #[test]
    fn rank_kill_bans_the_whole_rank_from_its_batch() {
        // 8 DPUs in 4 ranks of 2; kill takes effect at batch 2
        let inj = FaultInjector::new(FaultConfig::rank_kill(0xD1, 0.5, 2, 2)).unwrap();
        let dead_ranks: Vec<usize> = (0..4).filter(|&r| inj.is_rank_fail_stop(r, 2)).collect();
        assert!(!dead_ranks.is_empty() && dead_ranks.len() < 4);
        let before = DpuHealth::from_injector_at(&inj, 8, 1);
        assert_eq!(before.dead_count(), 0, "no deaths before the kill batch");
        let after = DpuHealth::from_injector_at(&inj, 8, 2);
        assert_eq!(after.dead_count(), 2 * dead_ranks.len());
        for d in 0..8 {
            assert_eq!(after.is_banned(d), dead_ranks.contains(&(d / 2)));
        }
        // batch 0 form is the batch-0 evaluation
        assert_eq!(
            DpuHealth::from_injector(&inj, 8),
            DpuHealth::from_injector_at(&inj, 8, 0)
        );
    }

    #[test]
    fn ban_mask_combines_dead_and_quarantined() {
        let mut h = DpuHealth::new(4);
        h.record_fail_stop(0);
        h.record_transient(3, 1);
        assert_eq!(h.banned(), vec![true, false, false, true]);
    }
}
