//! Whole-system assembly: a set of DPUs plus the host link, and the timing
//! of one batch ([`BatchTiming::total_s`], also a batch stream's period).
//!
//! DRIM-ANN's execution model (paper Fig. 4): per batch, the host runs
//! cluster locating and pushes tasks; all DPUs are triggered synchronously
//! and run RC/LC/DC/TS; the host gathers the per-DPU top-k lists and merges.
//! Host work and host<->PIM transfers overlap DPU execution across batches,
//! so batch time is `max(host_time, pim_time)` with `pim_time = max over
//! DPUs` (the synchronous barrier is what makes load balance critical).

use crate::config::{PimArch, SimConfigError};
use crate::energy::EnergyModel;
use crate::fault::FaultInjector;
use crate::host::HostLink;
use crate::memory::MemTracker;
use crate::meter::DpuMeter;
use crate::stats;

/// One simulated DPU: capacity trackers plus the op/IO meter.
///
/// Application data (cluster slices, codebooks, LUTs) lives in the embedding
/// application, keyed by DPU id; the simulator tracks capacity and cost.
#[derive(Debug, Clone)]
pub struct Dpu {
    /// Index within the system.
    pub id: usize,
    /// 64 MiB DRAM bank.
    pub mram: MemTracker,
    /// 64 KiB scratchpad.
    pub wram: MemTracker,
    /// Cost accounting for the current batch.
    pub meter: DpuMeter,
}

impl Dpu {
    /// Fresh DPU for the given architecture.
    pub fn new(id: usize, arch: &PimArch) -> Self {
        Dpu {
            id,
            mram: MemTracker::new(arch.mram_bytes),
            wram: MemTracker::new(arch.wram_bytes),
            meter: DpuMeter::new(),
        }
    }
}

/// Timing summary of one executed batch.
#[derive(Debug, Clone, Default)]
pub struct BatchTiming {
    /// Host-side time (CL phase and merge), seconds.
    pub host_s: f64,
    /// Per-DPU total times, seconds.
    pub dpu_s: Vec<f64>,
    /// Host->PIM push time, seconds.
    pub push_s: f64,
    /// PIM->host gather time, seconds.
    pub gather_s: f64,
    /// Total host->PIM push bytes (all DPUs) — feeds the transfer leg of
    /// the energy breakdown.
    pub push_bytes: u64,
    /// Total PIM->host gather bytes (all DPUs).
    pub gather_bytes: u64,
    /// Aggregated per-phase PIM times (of the *critical* DPU), seconds.
    pub phase_s: [f64; 6],
}

impl BatchTiming {
    /// PIM-side makespan: slowest DPU (synchronous trigger and barrier).
    pub fn pim_s(&self) -> f64 {
        stats::max(&self.dpu_s)
    }

    /// End-to-end batch latency. Host execution and transfers overlap DPU
    /// execution (pipelined across batches), as measured in the paper
    /// ("the latency of host execution and data transfer ... is fully
    /// overlapped with that of DPU execution").
    pub fn total_s(&self) -> f64 {
        let xfer = self.push_s + self.gather_s;
        self.host_s.max(self.pim_s() + xfer)
    }

    /// Load imbalance across DPUs (max/mean); the headroom the paper's
    /// layout + scheduling optimizations reclaim.
    pub fn imbalance(&self) -> f64 {
        stats::imbalance(&self.dpu_s)
    }

    /// Mean DPU utilization relative to the slowest DPU, in \[0,1\].
    pub fn dpu_utilization(&self) -> f64 {
        let m = self.pim_s();
        if m == 0.0 {
            1.0
        } else {
            stats::mean(&self.dpu_s) / m
        }
    }
}

/// A complete PIM system: architecture + DPUs + host link.
#[derive(Debug, Clone)]
pub struct PimSystem {
    /// Architecture parameters.
    pub arch: PimArch,
    /// The DPUs. May be fewer than `arch.num_dpus` for scaled-down runs;
    /// timing laws use per-DPU quantities so ratios are preserved.
    pub dpus: Vec<Dpu>,
    /// Host<->PIM link.
    pub link: HostLink,
    /// Tasklets resident per DPU for the current kernels.
    pub tasklets: usize,
    /// Fault injector applied at dispatch (`None` = perfectly reliable
    /// hardware, today's default).
    pub fault: Option<FaultInjector>,
    /// Per-DPU straggler slowdown factors for the current batch; empty when
    /// no straggler fired (the common case takes no extra work).
    slowdown: Vec<f64>,
    /// Per-DPU barrier-time caps for the current batch (hedged stragglers:
    /// the host stops waiting at the cap); empty when nothing was hedged.
    time_cap: Vec<f64>,
}

impl PimSystem {
    /// Build a system with `ndpus` DPUs of the given architecture.
    pub fn new(arch: PimArch, ndpus: usize) -> Self {
        let link = HostLink::for_arch(&arch);
        let dpus = (0..ndpus).map(|i| Dpu::new(i, &arch)).collect();
        let tasklets = arch.pipeline_depth.max(16).min(arch.max_tasklets);
        PimSystem {
            arch,
            dpus,
            link,
            tasklets,
            fault: None,
            slowdown: Vec::new(),
            time_cap: Vec::new(),
        }
    }

    /// [`Self::new`] with the misconfiguration checks callers can recover
    /// from: at least one DPU, and an architecture whose parameters are
    /// physically meaningful.
    pub fn try_new(arch: PimArch, ndpus: usize) -> Result<Self, SimConfigError> {
        if ndpus == 0 {
            return Err(SimConfigError::ZeroDpus);
        }
        arch.validate()?;
        Ok(Self::new(arch, ndpus))
    }

    /// Number of instantiated DPUs.
    pub fn len(&self) -> usize {
        self.dpus.len()
    }

    /// True when no DPUs are instantiated.
    pub fn is_empty(&self) -> bool {
        self.dpus.is_empty()
    }

    /// Reset all meters and per-batch fault modifiers (start of batch).
    pub fn reset_meters(&mut self) {
        for d in &mut self.dpus {
            d.meter.reset();
        }
        self.slowdown.clear();
        self.time_cap.clear();
    }

    /// Record a straggler: DPU `i`'s batch time is multiplied by `factor`.
    pub fn set_dpu_slowdown(&mut self, i: usize, factor: f64) {
        if self.slowdown.is_empty() {
            self.slowdown = vec![1.0; self.dpus.len()];
        }
        self.slowdown[i] = self.slowdown[i].max(factor);
    }

    /// Cap DPU `i`'s contribution to the batch barrier at `seconds` — the
    /// host stopped waiting (hedged re-dispatch) at that point. The DPU's
    /// dynamic energy is still charged in full through its meter.
    pub fn cap_dpu_time(&mut self, i: usize, seconds: f64) {
        if self.time_cap.is_empty() {
            self.time_cap = vec![f64::INFINITY; self.dpus.len()];
        }
        self.time_cap[i] = self.time_cap[i].min(seconds);
    }

    /// Time of DPU `i` for the current batch.
    pub fn dpu_time(&self, i: usize, tasklets: usize) -> f64 {
        self.dpus[i].meter.time(&self.arch, tasklets)
    }

    /// Collect the batch timing given host time and the *total* push and
    /// gather bytes across all DPUs (exact tallies, no per-DPU rounding).
    pub fn batch_timing(&self, host_s: f64, push_bytes: u64, gather_bytes: u64) -> BatchTiming {
        let mut dpu_s: Vec<f64> = self
            .dpus
            .iter()
            .map(|d| d.meter.time(&self.arch, self.tasklets))
            .collect();
        // Fault modifiers: straggler slowdowns stretch a DPU's barrier
        // contribution, hedging caps it (the host stopped waiting). Both
        // vectors are empty in the zero-fault case, leaving the times
        // bit-identical to the unmodified path.
        if !self.slowdown.is_empty() {
            for (t, &f) in dpu_s.iter_mut().zip(&self.slowdown) {
                *t *= f;
            }
        }
        if !self.time_cap.is_empty() {
            for (t, &cap) in dpu_s.iter_mut().zip(&self.time_cap) {
                *t = t.min(cap);
            }
        }
        let push_s = self.link.time_total(push_bytes);
        let gather_s = self.link.time_total(gather_bytes);
        // phase breakdown of the critical (slowest) DPU
        let critical = dpu_s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let phase_s = if self.dpus.is_empty() {
            [0.0; 6]
        } else {
            self.dpus[critical]
                .meter
                .phase_times(&self.arch, self.tasklets)
        };
        BatchTiming {
            host_s,
            dpu_s,
            push_s,
            gather_s,
            push_bytes,
            gather_bytes,
            phase_s,
        }
    }

    /// Energy model of this system.
    pub fn energy_model(&self) -> EnergyModel {
        // When running scaled-down (fewer instantiated DPUs than the real
        // machine), power still reflects the full configured system: the
        // real machine cannot power-gate unused MRAM (paper Section 5.2).
        EnergyModel::for_arch(&self.arch)
    }

    /// Phase-resolved energy of the batch described by `timing`: dynamic
    /// DPU energy from the aggregated meters, transfer energy from the
    /// recorded link bytes, host-busy energy at `host_power_w` above idle,
    /// and static energy over the batch wall clock (full configured
    /// system — see [`Self::energy_model`]).
    pub fn batch_energy(
        &self,
        timing: &BatchTiming,
        host_power_w: f64,
    ) -> crate::energy::EnergyBreakdown {
        self.energy_model().breakdown(
            &self.aggregate_meter(),
            &self.arch.costs,
            timing.total_s(),
            timing.host_s,
            host_power_w,
            timing.push_bytes + timing.gather_bytes,
        )
    }

    /// Aggregate per-phase meter over all DPUs (for C2IO diagnostics).
    pub fn aggregate_meter(&self) -> DpuMeter {
        let mut total = DpuMeter::new();
        for d in &self.dpus {
            total.merge(&d.meter);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::IsaCosts;
    use crate::meter::Phase;

    const ISA: IsaCosts = IsaCosts::upmem();

    fn small_sys() -> PimSystem {
        PimSystem::new(PimArch::upmem_sc25(), 4)
    }

    #[test]
    fn batch_total_is_max_of_host_and_pim() {
        let mut sys = small_sys();
        sys.dpus[2]
            .meter
            .phase_mut(Phase::Dc)
            .charge_add_c(350_000_000, &ISA); // 1 s on DPU 2
        let t = sys.batch_timing(0.5, 0, 0);
        assert!((t.pim_s() - 1.0).abs() < 1e-9);
        assert!(t.total_s() >= 1.0);
        // host-dominated case
        let t2 = sys.batch_timing(3.0, 0, 0);
        assert!((t2.total_s() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_detected() {
        let mut sys = small_sys();
        for d in &mut sys.dpus {
            d.meter.phase_mut(Phase::Dc).charge_add_c(1_000_000, &ISA);
        }
        sys.dpus[0]
            .meter
            .phase_mut(Phase::Dc)
            .charge_add_c(3_000_000, &ISA);
        let t = sys.batch_timing(0.0, 0, 0);
        assert!(t.imbalance() > 1.5, "imbalance {}", t.imbalance());
        assert!(t.dpu_utilization() < 0.7);
    }

    #[test]
    fn balanced_system_has_unit_imbalance() {
        let mut sys = small_sys();
        for d in &mut sys.dpus {
            d.meter.phase_mut(Phase::Lc).charge_add_c(42_000, &ISA);
        }
        let t = sys.batch_timing(0.0, 0, 0);
        assert!((t.imbalance() - 1.0).abs() < 1e-9);
        assert!((t.dpu_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transfers_add_to_pim_side() {
        let mut sys = small_sys();
        sys.dpus[0]
            .meter
            .phase_mut(Phase::Dc)
            .charge_add_c(1000, &ISA);
        let t0 = sys.batch_timing(0.0, 0, 0);
        let t1 = sys.batch_timing(0.0, 1 << 20, 1 << 16);
        assert!(t1.total_s() > t0.total_s());
        assert!(t1.push_s > 0.0 && t1.gather_s > 0.0);
    }

    #[test]
    fn reset_meters_clears_times() {
        let mut sys = small_sys();
        sys.dpus[1]
            .meter
            .phase_mut(Phase::Ts)
            .charge_add_c(1000, &ISA);
        sys.reset_meters();
        let t = sys.batch_timing(0.0, 0, 0);
        assert_eq!(t.pim_s(), 0.0);
    }

    #[test]
    fn phase_breakdown_comes_from_critical_dpu() {
        let mut sys = small_sys();
        sys.dpus[1]
            .meter
            .phase_mut(Phase::Lc)
            .charge_add_c(350_000_000, &ISA);
        sys.dpus[2]
            .meter
            .phase_mut(Phase::Dc)
            .charge_add_c(35_000_000, &ISA);
        let t = sys.batch_timing(0.0, 0, 0);
        // DPU 1 is critical; its breakdown is all LC.
        assert!(t.phase_s[Phase::Lc.idx()] > 0.9);
        assert_eq!(t.phase_s[Phase::Dc.idx()], 0.0);
    }

    #[test]
    fn batch_energy_tracks_work_and_transfers() {
        let mut sys = small_sys();
        sys.dpus[0]
            .meter
            .phase_mut(Phase::Dc)
            .charge_add_c(10_000_000, &ISA);
        let t = sys.batch_timing(0.001, 1 << 16, 1 << 12);
        let e = sys.batch_energy(&t, 100.0);
        assert!(e.dpu_pipeline_j > 0.0);
        assert!(e.transfer_j > 0.0);
        assert!(e.host_busy_j > 0.0);
        assert!(e.static_j > 0.0);
        assert!(e.phase_dynamic_j[Phase::Dc.idx()] > 0.0);
        assert_eq!(e.phase_dynamic_j[Phase::Lc.idx()], 0.0);
        // recorded link bytes are the exact totals the caller tallied
        assert_eq!(t.push_bytes, 1u64 << 16);
        assert_eq!(t.gather_bytes, 1u64 << 12);
        // phase-resolved total stays below the flat upper bound
        assert!(e.total_j() <= sys.energy_model().energy_j(t.total_s()));
    }

    #[test]
    fn slowdown_and_cap_reshape_the_barrier() {
        let mut sys = small_sys();
        for d in &mut sys.dpus {
            d.meter.phase_mut(Phase::Dc).charge_add_c(350_000_000, &ISA); // ~1 s each
        }
        let base = sys.batch_timing(0.0, 0, 0);
        assert!((base.pim_s() - 1.0).abs() < 1e-6);
        // straggler: DPU 1 runs 3x slower
        sys.set_dpu_slowdown(1, 3.0);
        let slowed = sys.batch_timing(0.0, 0, 0);
        assert!((slowed.pim_s() - 3.0 * base.dpu_s[1]).abs() < 1e-9);
        // hedged: the host stops waiting for DPU 1 at 1.5x the base time
        let cap = 1.5 * base.dpu_s[1];
        sys.cap_dpu_time(1, cap);
        let hedged = sys.batch_timing(0.0, 0, 0);
        assert!((hedged.dpu_s[1] - cap).abs() < 1e-12);
        // reset clears both modifiers
        sys.reset_meters();
        let t = sys.batch_timing(0.0, 0, 0);
        assert_eq!(t.pim_s(), 0.0);
        for d in &mut sys.dpus {
            d.meter.phase_mut(Phase::Dc).charge_add_c(1000, &ISA);
        }
        let clean = sys.batch_timing(0.0, 0, 0);
        assert!((clean.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn try_new_rejects_misconfiguration() {
        assert_eq!(
            PimSystem::try_new(PimArch::upmem_sc25(), 0).err(),
            Some(SimConfigError::ZeroDpus)
        );
        let mut arch = PimArch::upmem_sc25();
        arch.freq_hz = 0.0;
        assert!(matches!(
            PimSystem::try_new(arch, 4),
            Err(SimConfigError::BadArch(_))
        ));
        assert!(PimSystem::try_new(PimArch::upmem_sc25(), 4).is_ok());
    }

    #[test]
    fn aggregate_meter_merges_all() {
        let mut sys = small_sys();
        for d in &mut sys.dpus {
            d.meter.phase_mut(Phase::Rc).charge_add_c(10, &ISA);
        }
        let agg = sys.aggregate_meter();
        assert_eq!(agg.phase(Phase::Rc).cycles, 40);
    }
}
