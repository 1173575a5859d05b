//! Per-DPU instruction and memory-traffic accounting.
//!
//! Kernels running inside the simulator charge every arithmetic operation and
//! every byte moved to a [`PhaseMeter`], keyed by the ANNS processing phase it
//! belongs to. Timing is then derived with the overlap law of the DRIM-ANN
//! performance model (paper Eq. 12): per phase,
//! `t = max(compute_time, io_time)`, because the DPU's DMA engine runs
//! concurrently with the pipeline.

use crate::config::PimArch;

/// The five ANNS processing phases of the paper (Fig. 1) plus a catch-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Cluster locating: query vs. coarse centroid distances (host side).
    Cl,
    /// Residual calculation: query minus centroid.
    Rc,
    /// Lookup-table construction: residual vs. PQ codebook distances.
    Lc,
    /// Distance calculation: LUT gathers accumulated over cluster points.
    Dc,
    /// Top-k sorting / priority-queue maintenance.
    Ts,
    /// Anything else (framework overheads, metadata handling).
    Other,
}

impl Phase {
    /// All phases in canonical order.
    pub const ALL: [Phase; 6] = [
        Phase::Cl,
        Phase::Rc,
        Phase::Lc,
        Phase::Dc,
        Phase::Ts,
        Phase::Other,
    ];

    /// Stable index into dense per-phase arrays.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            Phase::Cl => 0,
            Phase::Rc => 1,
            Phase::Lc => 2,
            Phase::Dc => 3,
            Phase::Ts => 4,
            Phase::Other => 5,
        }
    }

    /// Short display label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Cl => "CL",
            Phase::Rc => "RC",
            Phase::Lc => "LC",
            Phase::Dc => "DC",
            Phase::Ts => "TS",
            Phase::Other => "Others",
        }
    }
}

/// Cycle and byte counters for a single phase on a single DPU.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseMeter {
    /// Pipeline issue slots consumed (already weighted by the ISA cost table).
    pub cycles: u64,
    /// Bytes streamed from MRAM (sequential DMA).
    pub mram_read: u64,
    /// Bytes written back to MRAM.
    pub mram_write: u64,
    /// Bytes read from WRAM.
    pub wram_read: u64,
    /// Bytes written to WRAM.
    pub wram_write: u64,
    /// Number of discrete MRAM DMA transfers issued (for setup-cost/bandwidth
    /// derating of fine-grained access).
    pub mram_transfers: u64,
    /// Mutex acquisitions on shared per-DPU state (the top-k queue).
    pub lock_acquires: u64,
}

impl PhaseMeter {
    /// Merge another meter into this one.
    pub fn merge(&mut self, other: &PhaseMeter) {
        self.cycles += other.cycles;
        self.mram_read += other.mram_read;
        self.mram_write += other.mram_write;
        self.wram_read += other.wram_read;
        self.wram_write += other.wram_write;
        self.mram_transfers += other.mram_transfers;
        self.lock_acquires += other.lock_acquires;
    }

    /// This meter's counters `n` times over — `n` merges of it.
    pub fn scaled(&self, n: u64) -> PhaseMeter {
        PhaseMeter {
            cycles: self.cycles * n,
            mram_read: self.mram_read * n,
            mram_write: self.mram_write * n,
            wram_read: self.wram_read * n,
            wram_write: self.wram_write * n,
            mram_transfers: self.mram_transfers * n,
            lock_acquires: self.lock_acquires * n,
        }
    }

    /// Total MRAM traffic in bytes.
    #[inline]
    pub fn mram_bytes(&self) -> u64 {
        self.mram_read + self.mram_write
    }

    /// Total WRAM traffic in bytes.
    #[inline]
    pub fn wram_bytes(&self) -> u64 {
        self.wram_read + self.wram_write
    }

    /// Total bytes moved at any level of the hierarchy.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.mram_bytes() + self.wram_bytes()
    }

    /// Total pipeline issue slots including lock serialisation — the
    /// compute-side quantity both the timing law and the energy model
    /// consume.
    #[inline]
    pub fn compute_cycles(&self, costs: &crate::isa::IsaCosts) -> u64 {
        self.cycles + self.lock_acquires * costs.lock
    }

    /// Wall-clock seconds this phase takes on `arch` with `tasklets` resident
    /// threads, applying the compute/IO overlap law (paper Eq. 12).
    ///
    /// Compute time covers pipeline slots plus lock serialisation; IO time
    /// covers MRAM streaming at the derated DMA bandwidth plus WRAM traffic
    /// at the amplified scratchpad bandwidth.
    pub fn time(&self, arch: &PimArch, tasklets: usize) -> f64 {
        let eff = arch.pipeline_eff(tasklets);
        // SIMD platforms (HBM-PIM, AiM) retire `simd_lanes` element
        // operations per issue slot; UPMEM is SISD (lanes = 1)
        let ips = arch.freq_hz * eff * arch.simd_lanes as f64;
        let compute = self.compute_cycles(&arch.costs) as f64 / ips;

        let dma_setup = self.mram_transfers * arch.dma_setup_cycles;
        let io = self.mram_bytes() as f64 / arch.mram_bw_per_dpu
            + self.wram_bytes() as f64 / arch.wram_bw_per_dpu()
            + dma_setup as f64 / arch.freq_hz;
        compute.max(io)
    }
}

/// A full per-DPU meter: one [`PhaseMeter`] per ANNS phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DpuMeter {
    phases: [PhaseMeter; 6],
}

impl DpuMeter {
    /// Fresh meter with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to a phase's counters.
    #[inline]
    pub fn phase_mut(&mut self, p: Phase) -> &mut PhaseMeter {
        &mut self.phases[p.idx()]
    }

    /// Read access to a phase's counters.
    #[inline]
    pub fn phase(&self, p: Phase) -> &PhaseMeter {
        &self.phases[p.idx()]
    }

    /// Reset all counters (start of a new batch).
    pub fn reset(&mut self) {
        self.phases = Default::default();
    }

    /// Merge another meter phase-by-phase.
    pub fn merge(&mut self, other: &DpuMeter) {
        for p in Phase::ALL {
            self.phases[p.idx()].merge(other.phase(p));
        }
    }

    /// Every phase `n` times over — the meter of `n` identical work items.
    pub fn scaled(&self, n: u64) -> DpuMeter {
        DpuMeter {
            phases: self.phases.map(|p| p.scaled(n)),
        }
    }

    /// Sum of all phases into one meter.
    pub fn total(&self) -> PhaseMeter {
        let mut t = PhaseMeter::default();
        for p in &self.phases {
            t.merge(p);
        }
        t
    }

    /// Total wall-clock time: the sum over phases of the per-phase overlap
    /// law (phases execute back-to-back on a DPU).
    pub fn time(&self, arch: &PimArch, tasklets: usize) -> f64 {
        Phase::ALL
            .iter()
            .map(|&p| self.phase(p).time(arch, tasklets))
            .sum()
    }

    /// Per-phase times in [`Phase::ALL`] order.
    pub fn phase_times(&self, arch: &PimArch, tasklets: usize) -> [f64; 6] {
        let mut out = [0.0; 6];
        for (i, &p) in Phase::ALL.iter().enumerate() {
            out[i] = self.phase(p).time(arch, tasklets);
        }
        out
    }
}

/// Charging helpers: thin wrappers over the cost table so kernels read like
/// the operations they model.
impl PhaseMeter {
    /// Charge `n` additions/subtractions.
    #[inline]
    pub fn charge_add_c(&mut self, n: u64, costs: &crate::isa::IsaCosts) {
        self.cycles += n * costs.add;
    }

    /// Charge `n` multiplications with the platform cost table (32 cycles
    /// each on UPMEM).
    #[inline]
    pub fn charge_mul(&mut self, n: u64, costs: &crate::isa::IsaCosts) {
        self.cycles += n * costs.mul;
    }

    /// Charge `n` comparisons/branches.
    #[inline]
    pub fn charge_cmp(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Charge `n` generic ALU ops (address arithmetic, shifts).
    #[inline]
    pub fn charge_alu(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Stream `bytes` sequentially from MRAM (one large DMA).
    #[inline]
    pub fn mram_stream_read(&mut self, bytes: u64) {
        self.mram_read += bytes;
        self.mram_transfers += 1;
    }

    /// Stream `bytes` sequentially to MRAM.
    #[inline]
    pub fn mram_stream_write(&mut self, bytes: u64) {
        self.mram_write += bytes;
        self.mram_transfers += 1;
    }

    /// Perform `n` random MRAM reads of `bytes_each`; each access is rounded
    /// up to the DMA burst size and pays one transfer setup.
    #[inline]
    pub fn mram_random_read(&mut self, n: u64, bytes_each: u64, burst: u64) {
        let per = bytes_each.div_ceil(burst) * burst;
        self.mram_read += n * per;
        self.mram_transfers += n;
    }

    /// Bulk equivalent of `n` calls to [`Self::mram_stream_read`] moving
    /// `total_bytes` in aggregate — used by closed-form (trace-mode) charge
    /// functions that must match elementwise kernels exactly.
    #[inline]
    pub fn mram_stream_read_chunks(&mut self, n_transfers: u64, total_bytes: u64) {
        self.mram_read += total_bytes;
        self.mram_transfers += n_transfers;
    }

    /// Bulk equivalent of `n` streamed writes totalling `total_bytes`.
    #[inline]
    pub fn mram_stream_write_chunks(&mut self, n_transfers: u64, total_bytes: u64) {
        self.mram_write += total_bytes;
        self.mram_transfers += n_transfers;
    }

    /// Acquire the shared-state lock `n` times.
    #[inline]
    pub fn lock_n(&mut self, n: u64) {
        self.lock_acquires += n;
    }

    /// Read `bytes` from WRAM.
    #[inline]
    pub fn wram_read_bytes(&mut self, bytes: u64) {
        self.wram_read += bytes;
    }

    /// Write `bytes` to WRAM.
    #[inline]
    pub fn wram_write_bytes(&mut self, bytes: u64) {
        self.wram_write += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::IsaCosts;

    const ISA: IsaCosts = IsaCosts::upmem();

    fn arch() -> PimArch {
        PimArch::upmem_sc25()
    }

    #[test]
    fn phase_indices_are_dense_and_unique() {
        let mut seen = [false; 6];
        for p in Phase::ALL {
            assert!(!seen[p.idx()]);
            seen[p.idx()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn compute_bound_phase_time() {
        let a = arch();
        let mut m = PhaseMeter::default();
        m.charge_add_c(350_000_000, &ISA); // exactly one second of adds at 1 IPC
        let t = m.time(&a, 16);
        assert!((t - 1.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn io_bound_phase_time() {
        let a = arch();
        let mut m = PhaseMeter::default();
        m.mram_stream_read(a.mram_bw_per_dpu as u64); // one second of MRAM streaming
        let t = m.time(&a, 16);
        assert!((t - 1.0).abs() < 1e-3, "t = {t}");
    }

    #[test]
    fn overlap_takes_max_not_sum() {
        let a = arch();
        let mut m = PhaseMeter::default();
        m.charge_add_c(350_000_000, &ISA); // one second of adds at 350 MHz
        m.mram_stream_read(a.mram_bw_per_dpu as u64); // one second of IO
        let t = m.time(&a, 16);
        assert!((t - 1.0).abs() < 1e-3, "t = {t}");
    }

    #[test]
    fn few_tasklets_slow_compute() {
        let a = arch();
        let mut m = PhaseMeter::default();
        m.charge_add_c(1_000_000, &ISA);
        let t1 = m.time(&a, 1);
        let t11 = m.time(&a, 11);
        assert!(t1 > 10.0 * t11, "t1={t1} t11={t11}");
    }

    #[test]
    fn random_reads_round_to_burst() {
        let mut m = PhaseMeter::default();
        m.mram_random_read(10, 1, 8); // 10 one-byte reads
        assert_eq!(m.mram_read, 80); // each costs a full 8-byte burst
        assert_eq!(m.mram_transfers, 10);
    }

    #[test]
    fn wram_is_faster_than_mram() {
        let a = arch();
        let mut via_mram = PhaseMeter::default();
        via_mram.mram_stream_read(1 << 20);
        let mut via_wram = PhaseMeter::default();
        via_wram.wram_read_bytes(1 << 20);
        let tm = via_mram.time(&a, 16);
        let tw = via_wram.time(&a, 16);
        assert!(
            (tm / tw - a.wram_amplification).abs() / a.wram_amplification < 0.2,
            "ratio {}",
            tm / tw
        );
    }

    #[test]
    fn lock_acquires_add_compute_time() {
        let a = arch();
        let mut m = PhaseMeter::default();
        m.charge_add_c(1000, &ISA);
        let t0 = m.time(&a, 16);
        for _ in 0..1000 {
            m.lock_n(1);
        }
        let t1 = m.time(&a, 16);
        assert!(t1 > t0);
    }

    #[test]
    fn dpu_meter_sums_phases() {
        let a = arch();
        let mut m = DpuMeter::new();
        m.phase_mut(Phase::Lc).charge_add_c(350_000_000, &ISA);
        m.phase_mut(Phase::Dc).charge_add_c(350_000_000, &ISA);
        let t = m.time(&a, 16);
        assert!((t - 2.0).abs() < 1e-9);
        let times = m.phase_times(&a, 16);
        assert!((times[Phase::Lc.idx()] - 1.0).abs() < 1e-9);
        assert!((times[Phase::Dc.idx()] - 1.0).abs() < 1e-9);
        assert_eq!(times[Phase::Cl.idx()], 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DpuMeter::new();
        a.phase_mut(Phase::Dc).charge_add_c(10, &ISA);
        let mut b = DpuMeter::new();
        b.phase_mut(Phase::Dc).charge_add_c(5, &ISA);
        b.phase_mut(Phase::Dc).mram_stream_read(64);
        a.merge(&b);
        assert_eq!(a.phase(Phase::Dc).cycles, 15);
        assert_eq!(a.phase(Phase::Dc).mram_read, 64);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut m = DpuMeter::new();
        m.phase_mut(Phase::Ts).lock_n(1);
        m.reset();
        assert_eq!(m.total(), PhaseMeter::default());
    }
}
