//! Phase-resolved energy accounting for a PIM server.
//!
//! The paper obtains energy from Intel RAPL package counters plus the
//! per-DIMM power specification (13.92 W per UPMEM PIM-DIMM, Section 5.2),
//! and its core efficiency claim (Fig. 10) is that the PIM server wins on
//! energy *despite* higher power because execution time divides into
//! phases with very different energy costs. A flat `P × t` product cannot
//! reproduce that story, so this module meters energy per component from
//! the counters the simulator already keeps:
//!
//! * **DPU pipeline** — issue slots (plus lock serialisation) charged to
//!   the [`crate::meter::DpuMeter`], at an energy-per-cycle derived from
//!   the DIMM power budget;
//! * **MRAM** — streamed/random bytes plus a per-DMA-transfer activation
//!   cost (row activation + DMA setup);
//! * **WRAM** — scratchpad traffic at SRAM-class cost per byte;
//! * **CPU↔DPU transfer** — push/gather bytes over the DDR bus at DDR4
//!   I/O energy per byte;
//! * **host busy** — package power above idle while the host runs CL and
//!   the merge;
//! * **static** — background power (host idle + DIMM static/refresh) over
//!   the batch wall clock, for the *full configured* system: a real
//!   machine cannot power-gate unused MRAM, so scaled-down simulations
//!   still pay full static power (paper Section 5.2).
//!
//! The per-phase dynamic split ([`EnergyBreakdown::phase_dynamic_j`])
//! follows the same `Phase` axis as the latency breakdown of Fig. 9, so
//! the energy story can be read phase-by-phase next to the time story.
//!
//! **Determinism contract:** every component is a closed-form function of
//! merged meter counters and batch timing — no wall-clock measurement —
//! and [`EnergyBreakdown::total_j`] sums the components in one fixed
//! order. Breakdowns are therefore bit-identical at any host thread count
//! (extending the `charge_parity` contract).

use crate::config::PimArch;
use crate::meter::{DpuMeter, Phase};

/// Fraction of a PIM DIMM's power budget that is static (refresh, PHY,
/// leakage) rather than activity-proportional. DRAM background power is a
/// large share of DIMM power; UPMEM DIMMs additionally keep DPU clocks
/// running. The 55 % split keeps full-load totals at the measured DIMM
/// budget while letting idle phases show up as cheap.
pub const DIMM_STATIC_FRACTION: f64 = 0.55;

/// Split of the *dynamic* per-DPU budget across pipeline, MRAM and WRAM
/// when compute and both memory levels run flat out together (the
/// calibration point: a fully-busy DPU must not exceed its share of the
/// DIMM budget).
const PIPELINE_DYN_SHARE: f64 = 0.40;
const MRAM_DYN_SHARE: f64 = 0.45;
const WRAM_DYN_SHARE: f64 = 0.15;

/// Extra MRAM bursts' worth of energy charged per discrete DMA transfer
/// (row activation + DMA engine setup).
const ACTIVATION_BURSTS: f64 = 2.0;

/// DDR4 bus I/O energy per byte moved between host and PIM DIMMs
/// (~15 pJ/bit at the channel level).
pub const LINK_PJ_PER_BYTE: f64 = 120.0;

/// Activity-proportional share of the host package power charged while
/// the host runs CL/merge. The package's idle baseline
/// (`PimArch::host_base_power_w`) is already accrued in
/// [`EnergyBreakdown::static_j`] over the whole batch, so only the
/// dynamic (above-idle) share of the busy package is billed to
/// [`EnergyBreakdown::host_busy_j`] — charging the full package power
/// there would double-count idle.
pub const HOST_ACTIVE_FRACTION: f64 = 0.6;

/// Per-operation energy coefficients of one DPU plus the host link,
/// derived from an architecture description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyCosts {
    /// Joules per pipeline issue slot (includes lock-serialisation slots).
    pub pipeline_j_per_cycle: f64,
    /// Joules per MRAM byte moved (either direction).
    pub mram_j_per_byte: f64,
    /// Joules per discrete MRAM DMA transfer (activation + setup).
    pub mram_j_per_transfer: f64,
    /// Joules per WRAM byte moved.
    pub wram_j_per_byte: f64,
    /// Joules per byte crossing the host↔PIM DDR bus.
    pub link_j_per_byte: f64,
    /// Static power of one PIM DIMM, watts.
    pub dimm_static_w: f64,
}

impl EnergyCosts {
    /// Coefficients calibrated against `arch`'s DIMM power budget: a DPU
    /// saturating its pipeline, MRAM stream and WRAM stream simultaneously
    /// draws exactly the dynamic share of `dimm_power_w / dpus_per_dimm`,
    /// and the static share accrues regardless of activity.
    pub fn for_arch(arch: &PimArch) -> Self {
        let dpu_w = arch.dpu_power_w();
        let dyn_w = (1.0 - DIMM_STATIC_FRACTION) * dpu_w;
        let mram_j_per_byte = MRAM_DYN_SHARE * dyn_w / arch.mram_bw_per_dpu;
        EnergyCosts {
            pipeline_j_per_cycle: PIPELINE_DYN_SHARE * dyn_w / arch.freq_hz,
            mram_j_per_byte,
            mram_j_per_transfer: ACTIVATION_BURSTS * arch.dma_burst_bytes as f64 * mram_j_per_byte,
            wram_j_per_byte: WRAM_DYN_SHARE * dyn_w / arch.wram_bw_per_dpu(),
            link_j_per_byte: LINK_PJ_PER_BYTE * 1e-12,
            dimm_static_w: DIMM_STATIC_FRACTION * arch.dimm_power_w,
        }
    }
}

/// Phase- and component-resolved energy of one executed batch, joules.
///
/// The six components partition the total: [`Self::total_j`] is their sum
/// in declaration order (a fixed-order `f64` chain, so the identity
/// `total == pipeline + mram + wram + transfer + host_busy + static` holds
/// *bit-exactly* — pinned by unit tests).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// DPU pipeline issue slots (incl. lock serialisation), all DPUs.
    pub dpu_pipeline_j: f64,
    /// MRAM traffic + row activations, all DPUs.
    pub dpu_mram_j: f64,
    /// WRAM traffic, all DPUs.
    pub dpu_wram_j: f64,
    /// Host↔DPU push + gather bytes over the DDR bus.
    pub transfer_j: f64,
    /// The active (above-idle, [`HOST_ACTIVE_FRACTION`]) share of the
    /// host package while CL/merge runs; the idle baseline is in
    /// `static_j`.
    pub host_busy_j: f64,
    /// Background power (host idle + DIMM static) over the batch wall
    /// clock, full configured system.
    pub static_j: f64,
    /// Dynamic DPU energy split by ANNS phase, [`Phase::ALL`] order
    /// (sums to `dpu_pipeline_j + dpu_mram_j + dpu_wram_j` up to
    /// reassociation; each entry is itself a fixed-order sum).
    pub phase_dynamic_j: [f64; 6],
}

impl EnergyBreakdown {
    /// Total batch energy: the six components summed in declaration order.
    pub fn total_j(&self) -> f64 {
        self.dpu_pipeline_j
            + self.dpu_mram_j
            + self.dpu_wram_j
            + self.transfer_j
            + self.host_busy_j
            + self.static_j
    }

    /// Activity-proportional energy (everything except `static_j`).
    pub fn dynamic_j(&self) -> f64 {
        self.dpu_pipeline_j + self.dpu_mram_j + self.dpu_wram_j + self.transfer_j + self.host_busy_j
    }

    /// Fraction of the dynamic DPU energy spent in `p`; 0 when no dynamic
    /// DPU energy was spent.
    pub fn phase_fraction(&self, p: Phase) -> f64 {
        crate::stats::fractions(&self.phase_dynamic_j)[p.idx()]
    }

    /// Queries per joule for a batch of `queries`.
    pub fn queries_per_joule(&self, queries: usize) -> f64 {
        queries as f64 / self.total_j().max(1e-12)
    }
}

/// System-level power/energy model for a PIM server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Host base power (CPU package idle + board), watts.
    pub host_w: f64,
    /// Power per PIM DIMM, watts (full-load budget).
    pub dimm_w: f64,
    /// Installed PIM DIMMs.
    pub n_dimms: usize,
    /// Per-operation energy coefficients.
    pub costs: EnergyCosts,
}

impl EnergyModel {
    /// Model derived from an architecture description.
    pub fn for_arch(arch: &PimArch) -> Self {
        EnergyModel {
            host_w: arch.host_base_power_w,
            dimm_w: arch.dimm_power_w,
            n_dimms: arch.num_dimms(),
            costs: EnergyCosts::for_arch(arch),
        }
    }

    /// Peak system power in watts (full-load DIMM budget; the flat-model
    /// upper reference).
    pub fn power_w(&self) -> f64 {
        self.host_w + self.dimm_w * self.n_dimms as f64
    }

    /// Background (static) power in watts: host idle plus DIMM static for
    /// every installed DIMM.
    pub fn static_power_w(&self) -> f64 {
        self.host_w + self.costs.dimm_static_w * self.n_dimms as f64
    }

    /// Flat upper-bound energy in joules for a run of `seconds` (every
    /// DIMM at full-load power for the whole run). The phase-resolved
    /// [`Self::breakdown`] always comes in at or below this.
    pub fn energy_j(&self, seconds: f64) -> f64 {
        self.power_w() * seconds
    }

    /// Phase-resolved energy of one batch.
    ///
    /// * `agg` — the per-phase meter aggregated over all instantiated DPUs;
    /// * `isa` — the cost table (converts lock acquisitions to slots);
    /// * `total_s` — batch wall clock (static energy window);
    /// * `host_s` — host busy time (CL + merge);
    /// * `host_power_w` — host *package* power while busy; only its
    ///   [`HOST_ACTIVE_FRACTION`] is billed here (idle stays in
    ///   `static_j`, so a full-package charge would double-count);
    /// * `xfer_bytes` — total push + gather bytes across the link.
    pub fn breakdown(
        &self,
        agg: &DpuMeter,
        isa: &crate::isa::IsaCosts,
        total_s: f64,
        host_s: f64,
        host_power_w: f64,
        xfer_bytes: u64,
    ) -> EnergyBreakdown {
        let c = &self.costs;
        let mut pipeline = 0.0f64;
        let mut mram = 0.0f64;
        let mut wram = 0.0f64;
        let mut phase_dynamic_j = [0.0f64; 6];
        for p in Phase::ALL {
            let m = agg.phase(p);
            let pj = m.compute_cycles(isa) as f64 * c.pipeline_j_per_cycle;
            let mj = m.mram_bytes() as f64 * c.mram_j_per_byte
                + m.mram_transfers as f64 * c.mram_j_per_transfer;
            let wj = m.wram_bytes() as f64 * c.wram_j_per_byte;
            pipeline += pj;
            mram += mj;
            wram += wj;
            phase_dynamic_j[p.idx()] = pj + mj + wj;
        }
        EnergyBreakdown {
            dpu_pipeline_j: pipeline,
            dpu_mram_j: mram,
            dpu_wram_j: wram,
            transfer_j: xfer_bytes as f64 * c.link_j_per_byte,
            host_busy_j: HOST_ACTIVE_FRACTION * host_power_w * host_s,
            static_j: self.static_power_w() * total_s,
            phase_dynamic_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::IsaCosts;

    const ISA: IsaCosts = IsaCosts::upmem();

    fn model() -> EnergyModel {
        EnergyModel::for_arch(&PimArch::upmem_sc25())
    }

    #[test]
    fn sc25_server_power_above_cpu_alone() {
        let e = model();
        // 20 DIMMs x 13.92 W on top of the host: the paper notes the UPMEM
        // server draws more power than the CPU server yet still wins on
        // energy thanks to speed.
        assert!(e.power_w() > 300.0, "power {}", e.power_w());
        assert_eq!(e.n_dimms, PimArch::upmem_sc25().num_dimms());
        // static power is a strict fraction of peak
        assert!(e.static_power_w() < e.power_w());
        assert!(e.static_power_w() > e.host_w);
    }

    #[test]
    fn energy_linear_in_time() {
        let mut e = model();
        e.host_w = 100.0;
        e.dimm_w = 10.0;
        e.n_dimms = 5;
        assert!((e.energy_j(2.0) - 300.0).abs() < 1e-12);
    }

    #[test]
    fn fully_busy_dpu_stays_within_dimm_budget() {
        // A DPU saturating pipeline + MRAM + WRAM for one second draws the
        // dynamic share of its DIMM budget — never more.
        let arch = PimArch::upmem_sc25();
        let c = EnergyCosts::for_arch(&arch);
        let sec_pipeline = arch.freq_hz * c.pipeline_j_per_cycle;
        let sec_mram = arch.mram_bw_per_dpu * c.mram_j_per_byte;
        let sec_wram = arch.wram_bw_per_dpu() * c.wram_j_per_byte;
        let dyn_w = sec_pipeline + sec_mram + sec_wram;
        let budget = (1.0 - DIMM_STATIC_FRACTION) * arch.dpu_power_w();
        assert!(
            (dyn_w - budget).abs() / budget < 1e-9,
            "dyn {dyn_w} vs budget {budget}"
        );
    }

    #[test]
    fn components_sum_bit_exactly_to_total() {
        let e = model();
        let isa = IsaCosts::upmem();
        let mut agg = DpuMeter::new();
        agg.phase_mut(Phase::Lc).charge_add_c(1_234_567, &ISA);
        agg.phase_mut(Phase::Lc).mram_stream_read(98_765);
        agg.phase_mut(Phase::Dc).wram_read_bytes(55_555);
        agg.phase_mut(Phase::Ts).lock_n(321);
        let b = e.breakdown(&agg, &isa, 0.0123, 0.0045, 100.0, 1 << 20);
        let resum = b.dpu_pipeline_j
            + b.dpu_mram_j
            + b.dpu_wram_j
            + b.transfer_j
            + b.host_busy_j
            + b.static_j;
        assert_eq!(b.total_j().to_bits(), resum.to_bits());
        // and the phase split re-sums to the DPU dynamic components
        let phase_sum: f64 = b.phase_dynamic_j.iter().sum();
        let dpu_dyn = b.dpu_pipeline_j + b.dpu_mram_j + b.dpu_wram_j;
        assert!((phase_sum - dpu_dyn).abs() < 1e-12 * dpu_dyn.max(1.0));
    }

    #[test]
    fn zero_work_batch_has_zero_dynamic_energy() {
        let e = model();
        let isa = IsaCosts::upmem();
        let b = e.breakdown(&DpuMeter::new(), &isa, 0.0, 0.0, 100.0, 0);
        assert_eq!(b.dynamic_j(), 0.0);
        assert_eq!(b.total_j(), 0.0);
        assert_eq!(b.phase_dynamic_j, [0.0; 6]);
        // with a nonzero wall clock, only static energy accrues
        let b2 = e.breakdown(&DpuMeter::new(), &isa, 1.0, 0.0, 100.0, 0);
        assert_eq!(b2.dynamic_j(), 0.0);
        assert!((b2.total_j() - e.static_power_w()).abs() < 1e-9);
    }

    #[test]
    fn breakdown_stays_below_flat_upper_bound() {
        // one second of full-tilt work on 4 of 2543 DPUs: phase-resolved
        // total must come in below the flat every-DIMM-at-full-power bound
        let arch = PimArch::upmem_sc25();
        let e = EnergyModel::for_arch(&arch);
        let isa = IsaCosts::upmem();
        let mut agg = DpuMeter::new();
        for _ in 0..4 {
            let mut one = DpuMeter::new();
            one.phase_mut(Phase::Dc)
                .charge_add_c(arch.freq_hz as u64, &ISA);
            one.phase_mut(Phase::Dc)
                .mram_stream_read(arch.mram_bw_per_dpu as u64);
            agg.merge(&one);
        }
        let b = e.breakdown(&agg, &isa, 1.0, 0.5, 100.0, 1 << 24);
        assert!(
            b.total_j() < e.energy_j(1.0),
            "{} vs {}",
            b.total_j(),
            e.energy_j(1.0)
        );
    }

    #[test]
    fn phase_fractions_follow_work() {
        let e = model();
        let isa = IsaCosts::upmem();
        let mut agg = DpuMeter::new();
        agg.phase_mut(Phase::Dc).charge_add_c(3_000_000, &ISA);
        agg.phase_mut(Phase::Lc).charge_add_c(1_000_000, &ISA);
        let b = e.breakdown(&agg, &isa, 0.001, 0.0, 0.0, 0);
        assert!(b.phase_fraction(Phase::Dc) > b.phase_fraction(Phase::Lc));
        assert!((b.phase_fraction(Phase::Dc) - 0.75).abs() < 1e-9);
        assert_eq!(b.phase_fraction(Phase::Rc), 0.0);
    }

    #[test]
    fn locks_add_pipeline_energy() {
        let e = model();
        let isa = IsaCosts::upmem();
        let mut a = DpuMeter::new();
        a.phase_mut(Phase::Ts).charge_add_c(1000, &ISA);
        let mut b = DpuMeter::new();
        b.phase_mut(Phase::Ts).charge_add_c(1000, &ISA);
        b.phase_mut(Phase::Ts).lock_n(100);
        let ea = e.breakdown(&a, &isa, 0.0, 0.0, 0.0, 0);
        let eb = e.breakdown(&b, &isa, 0.0, 0.0, 0.0, 0);
        assert!(eb.dpu_pipeline_j > ea.dpu_pipeline_j);
    }

    #[test]
    fn random_access_costs_more_energy_than_streaming() {
        // same bytes, many transfers: activations make random access pay
        let e = model();
        let isa = IsaCosts::upmem();
        let mut stream = DpuMeter::new();
        stream.phase_mut(Phase::Dc).mram_stream_read(1 << 16);
        let mut random = DpuMeter::new();
        random.phase_mut(Phase::Dc).mram_random_read(1 << 13, 8, 8);
        let es = e.breakdown(&stream, &isa, 0.0, 0.0, 0.0, 0);
        let er = e.breakdown(&random, &isa, 0.0, 0.0, 0.0, 0);
        assert_eq!(
            stream.phase(Phase::Dc).mram_bytes(),
            random.phase(Phase::Dc).mram_bytes()
        );
        assert!(er.dpu_mram_j > 2.0 * es.dpu_mram_j);
    }

    #[test]
    fn qpj_reads_off_the_breakdown() {
        let b = EnergyBreakdown {
            dpu_pipeline_j: 1.0,
            dpu_mram_j: 1.0,
            dpu_wram_j: 0.5,
            transfer_j: 0.25,
            host_busy_j: 0.25,
            static_j: 2.0,
            phase_dynamic_j: [0.0; 6],
        };
        assert!((b.total_j() - 5.0).abs() < 1e-12);
        assert!((b.queries_per_joule(100) - 20.0).abs() < 1e-9);
    }
}
