//! Batch execution reports: everything the paper's figures read off a run.

use upmem_sim::energy::EnergyBreakdown;
use upmem_sim::meter::Phase;
use upmem_sim::system::BatchTiming;
use upmem_sim::tasklet::LockStats;

/// Fault and recovery accounting for one batch (all-zero when the fault
/// layer is disabled or nothing fired).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Fail-stopped DPUs: the injector's dead set at this batch, banned
    /// before dispatch.
    pub dead_dpus: usize,
    /// Whole ranks dead under the injector's rank topology this batch
    /// (their DPUs are included in `dead_dpus`). 0 without a topology.
    pub dead_ranks: usize,
    /// Straggler faults observed.
    pub stragglers: usize,
    /// Corruption faults detected by the result checksum.
    pub corruptions: usize,
    /// Tasks of every discarded (corrupt) wave. Each is re-dispatched to a
    /// replica, or, after the last wave, replayed on the host or dropped;
    /// so a task corrupted in both waves counts twice.
    pub retried_tasks: usize,
    /// Straggler tasks the host re-issued before completion (hedging).
    pub hedged_tasks: usize,
    /// Tasks replayed on the host through the exact DPU kernel path.
    pub host_fallback_tasks: usize,
    /// Tasks dropped because no replica survived and the host fallback is
    /// off — the source of recall degradation.
    pub dropped_tasks: usize,
    /// Queries that lost at least one probe task.
    pub degraded_queries: usize,
    /// Candidate points in dropped tasks.
    pub dropped_points: u64,
    /// Candidate points across all scheduled tasks (the degradation
    /// denominator).
    pub scheduled_points: u64,
}

impl FaultStats {
    /// Did anything fault-related happen this batch?
    pub fn active(&self) -> bool {
        *self != FaultStats::default()
    }

    /// True when results were completed on a reduced probe set.
    pub fn degraded(&self) -> bool {
        self.dropped_tasks > 0
    }

    /// Upper bound on the expected recall loss of this batch: the fraction
    /// of scheduled candidate mass that was dropped. A true neighbor is
    /// lost only if it lived in a dropped slice, so the expected recall@k
    /// drop cannot exceed the dropped candidate fraction (measured recall
    /// typically sits well below the bound because probe ranks correlate
    /// with neighbor mass).
    pub fn recall_loss_bound(&self) -> f64 {
        if self.scheduled_points == 0 {
            0.0
        } else {
            self.dropped_points as f64 / self.scheduled_points as f64
        }
    }
}

/// Summary of one executed query batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Queries in the batch.
    pub queries: usize,
    /// Detailed timing (host, per-DPU, transfers).
    pub timing: BatchTiming,
    /// Throughput in queries per second.
    pub qps: f64,
    /// Total system energy for the batch, joules
    /// (`energy.total_j()`, cached for figure readers).
    pub energy_j: f64,
    /// Phase- and component-resolved energy accounting (Fig. 9/10).
    pub energy: EnergyBreakdown,
    /// Fraction of critical-DPU time per phase, `Phase::ALL` order.
    pub phase_fraction: [f64; 6],
    /// Load imbalance (max/mean DPU time).
    pub imbalance: f64,
    /// Tasks postponed by the th3 rule (executed in a follow-up wave).
    pub postponed: usize,
    /// Submitted queries that were bit-identical to another query of the
    /// same batch and therefore computed only once (in-batch dedup;
    /// `queries` still counts every submitted query).
    pub deduped: usize,
    /// Candidates dropped between scan and top-k because their id was
    /// tombstoned by a streaming delete (not yet compacted away). 0 on a
    /// corpus with no pending deletes.
    pub tombstone_filtered: u64,
    /// Top-k lock statistics.
    pub lock: LockStats,
    /// Fraction of LC's SQT lookups served from WRAM under the batch's
    /// configuration: 1.0 for a resident 8-bit table (or no SQT), 0.0 for
    /// a spilled one, the window's rate for trace mode's 16-bit operands.
    pub sqt_wram_hit_rate: f64,
    /// Fault/recovery accounting (all-zero without injected faults).
    pub fault: FaultStats,
}

impl BatchReport {
    /// Assemble from timing + counters.
    pub fn new(
        queries: usize,
        timing: BatchTiming,
        energy: EnergyBreakdown,
        postponed: usize,
        lock: LockStats,
        sqt_wram_hit_rate: f64,
    ) -> Self {
        let phase_fraction = upmem_sim::stats::fractions(&timing.phase_s);
        let qps = queries as f64 / timing.total_s().max(1e-12);
        let imbalance = timing.imbalance();
        BatchReport {
            queries,
            timing,
            qps,
            energy_j: energy.total_j(),
            energy,
            phase_fraction,
            imbalance,
            postponed,
            deduped: 0,
            tombstone_filtered: 0,
            lock,
            sqt_wram_hit_rate,
            fault: FaultStats::default(),
        }
    }

    /// Re-account a report computed over the distinct queries of a deduped
    /// batch as a report over the full submission: `queries` becomes the
    /// submitted count (and `qps` follows), while timing/energy stay what
    /// the distinct-query execution actually cost — which is exactly how
    /// the dedup win shows up as throughput.
    pub fn with_dedup(mut self, submitted: usize, deduped: usize) -> Self {
        self.queries = submitted;
        self.deduped = deduped;
        self.qps = submitted as f64 / self.timing.total_s().max(1e-12);
        self
    }

    /// Attach fault/recovery accounting (builder-style, keeps [`Self::new`]
    /// signature stable for fault-free callers).
    pub fn with_fault_stats(mut self, fault: FaultStats) -> Self {
        self.fault = fault;
        self
    }

    /// Attach the tombstone-filter count (builder-style; engines with
    /// pending streaming deletes report how many scanned candidates were
    /// dropped before top-k).
    pub fn with_tombstones(mut self, filtered: u64) -> Self {
        self.tombstone_filtered = filtered;
        self
    }

    /// Fraction of the critical DPU's time spent in `p`.
    pub fn fraction(&self, p: Phase) -> f64 {
        self.phase_fraction[p.idx()]
    }

    /// Queries served per joule of total batch energy.
    pub fn queries_per_joule(&self) -> f64 {
        self.energy.queries_per_joule(self.queries)
    }

    /// Energy-delay product of the batch, J·s.
    pub fn edp_js(&self) -> f64 {
        self.energy.edp_js(self.timing.total_s())
    }

    /// Pretty single-line summary for harness output.
    pub fn summary(&self) -> String {
        let fault = if self.fault.active() {
            format!(
                " faults[dead={} ranks={} straggle={} corrupt={} retried={} hedged={} fallback={} dropped={} loss<={:.4}]",
                self.fault.dead_dpus,
                self.fault.dead_ranks,
                self.fault.stragglers,
                self.fault.corruptions,
                self.fault.retried_tasks,
                self.fault.hedged_tasks,
                self.fault.host_fallback_tasks,
                self.fault.dropped_tasks,
                self.fault.recall_loss_bound(),
            )
        } else {
            String::new()
        };
        let dedup = if self.deduped > 0 {
            format!(" dedup={}", self.deduped)
        } else {
            String::new()
        };
        let tomb = if self.tombstone_filtered > 0 {
            format!(" tomb={}", self.tombstone_filtered)
        } else {
            String::new()
        };
        format!(
            "q={} qps={:.0} total={:.3}ms pim={:.3}ms host={:.3}ms imb={:.2} postponed={}{dedup}{tomb} RC/LC/DC/TS = {:.0}%/{:.0}%/{:.0}%/{:.0}% E={:.2}J qpj={:.1}{fault}",
            self.queries,
            self.qps,
            self.timing.total_s() * 1e3,
            self.timing.pim_s() * 1e3,
            self.timing.host_s * 1e3,
            self.imbalance,
            self.postponed,
            self.fraction(Phase::Rc) * 100.0,
            self.fraction(Phase::Lc) * 100.0,
            self.fraction(Phase::Dc) * 100.0,
            self.fraction(Phase::Ts) * 100.0,
            self.energy_j,
            self.queries_per_joule(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> BatchTiming {
        BatchTiming {
            host_s: 0.001,
            dpu_s: vec![0.004, 0.002],
            push_s: 0.0001,
            gather_s: 0.0001,
            push_bytes: 4096,
            gather_bytes: 1024,
            phase_s: [0.0, 0.001, 0.001, 0.0015, 0.0005, 0.0],
        }
    }

    fn energy() -> EnergyBreakdown {
        EnergyBreakdown {
            dpu_pipeline_j: 0.4,
            dpu_mram_j: 0.3,
            dpu_wram_j: 0.1,
            transfer_j: 0.05,
            host_busy_j: 0.05,
            static_j: 0.1,
            phase_dynamic_j: [0.0, 0.1, 0.2, 0.4, 0.1, 0.0],
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let r = BatchReport::new(64, timing(), energy(), 0, LockStats::default(), 1.0);
        let total: f64 = r.phase_fraction.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(r.fraction(Phase::Dc) > r.fraction(Phase::Ts));
    }

    #[test]
    fn qps_is_queries_over_total() {
        let r = BatchReport::new(64, timing(), energy(), 0, LockStats::default(), 1.0);
        let expect = 64.0 / r.timing.total_s();
        assert!((r.qps - expect).abs() < 1e-6);
    }

    #[test]
    fn energy_total_is_cached_from_breakdown() {
        let r = BatchReport::new(64, timing(), energy(), 0, LockStats::default(), 1.0);
        assert_eq!(r.energy_j.to_bits(), r.energy.total_j().to_bits());
        assert!((r.energy_j - 1.0).abs() < 1e-12);
        assert!((r.queries_per_joule() - 64.0).abs() < 1e-9);
        assert!((r.edp_js() - r.timing.total_s()).abs() < 1e-12);
    }

    #[test]
    fn summary_contains_key_numbers() {
        let r = BatchReport::new(64, timing(), energy(), 3, LockStats::default(), 1.0);
        let s = r.summary();
        assert!(s.contains("q=64"));
        assert!(s.contains("postponed=3"));
        assert!(s.contains("qpj="));
        // no fault layer: no fault clutter in the summary
        assert!(!s.contains("faults["));
    }

    #[test]
    fn with_dedup_restores_submitted_count() {
        // a 64-query submission that collapsed to 16 distinct queries:
        // the inner run reports 16, re-accounting restores 64
        let r = BatchReport::new(16, timing(), energy(), 0, LockStats::default(), 1.0)
            .with_dedup(64, 48);
        assert_eq!(r.queries, 64);
        assert_eq!(r.deduped, 48);
        let expect = 64.0 / r.timing.total_s();
        assert!((r.qps - expect).abs() < 1e-6);
        assert!(r.summary().contains("dedup=48"), "{}", r.summary());
        // an all-distinct batch keeps the summary clean
        let r0 = BatchReport::new(64, timing(), energy(), 0, LockStats::default(), 1.0);
        assert!(!r0.summary().contains("dedup="));
    }

    #[test]
    fn with_tombstones_surfaces_in_summary() {
        let r = BatchReport::new(64, timing(), energy(), 0, LockStats::default(), 1.0)
            .with_tombstones(7);
        assert_eq!(r.tombstone_filtered, 7);
        assert!(r.summary().contains("tomb=7"), "{}", r.summary());
        // a delete-free batch keeps the summary clean
        let r0 = BatchReport::new(64, timing(), energy(), 0, LockStats::default(), 1.0);
        assert_eq!(r0.tombstone_filtered, 0);
        assert!(!r0.summary().contains("tomb="));
    }

    #[test]
    fn fault_stats_default_is_inert() {
        let f = FaultStats::default();
        assert!(!f.active());
        assert!(!f.degraded());
        assert_eq!(f.recall_loss_bound(), 0.0);
        let r = BatchReport::new(64, timing(), energy(), 0, LockStats::default(), 1.0);
        assert_eq!(r.fault, FaultStats::default());
    }

    #[test]
    fn fault_stats_bound_and_summary() {
        let f = FaultStats {
            dead_dpus: 1,
            stragglers: 2,
            corruptions: 1,
            retried_tasks: 4,
            hedged_tasks: 3,
            dropped_tasks: 2,
            degraded_queries: 2,
            dropped_points: 250,
            scheduled_points: 10_000,
            ..FaultStats::default()
        };
        assert!(f.active());
        assert!(f.degraded());
        assert!((f.recall_loss_bound() - 0.025).abs() < 1e-12);
        let r = BatchReport::new(64, timing(), energy(), 0, LockStats::default(), 1.0)
            .with_fault_stats(f);
        let s = r.summary();
        assert!(s.contains("faults["), "summary: {s}");
        assert!(s.contains("dead=1"));
        assert!(s.contains("hedged=3"));
        assert!(s.contains("loss<=0.0250"));
    }
}
