//! # upmem-sim
//!
//! A functional **and** timing simulator of UPMEM-class DRAM Processing-in-Memory
//! (DRAM-PIM) systems, built as the hardware substrate for the DRIM-ANN
//! reproduction (Chen et al., SC '25).
//!
//! A real UPMEM system consists of DDR4 DIMMs whose DRAM banks each embed a
//! small in-order RISC processor (a *DPU*). The properties that drive every
//! result in the paper are architectural *ratios*, all of which this crate
//! models explicitly:
//!
//! * each DPU owns 64 MiB of DRAM (**MRAM**) and a 64 KiB scratchpad
//!   (**WRAM**) with roughly 4.72x the streaming bandwidth of MRAM;
//! * the DPU pipeline is 11 stages deep and in-order: at least 11 resident
//!   hardware threads (*tasklets*) are required to sustain ~1 instruction
//!   per cycle;
//! * there is **no hardware multiplier** — a 32-bit multiply costs ~32 cycles
//!   (shift-add), the motivation for DRIM-ANN's squaring lookup table;
//! * MRAM is reached through a DMA engine with an 8-byte burst granularity
//!   and a fixed per-transfer setup cost, so fine-grained random access wastes
//!   bandwidth;
//! * the host CPU communicates with DPUs over the ordinary DDR bus at roughly
//!   0.75 % of the aggregate in-memory bandwidth, and DPUs cannot talk to each
//!   other at all — which is why load balance dominates end-to-end throughput.
//!
//! The simulator is *functional*: user kernels execute real computation over
//! per-DPU storage while charging an instruction/IO [`meter`]. Timing and
//! results come from the same execution, so effects like load imbalance or
//! lookup-table substitution show up in both the returned data and the clock.
//! The same per-phase counters also feed a phase-resolved [`energy`] model
//! (pipeline/MRAM/WRAM/transfer/host/static components, calibrated against
//! the 13.92 W DIMM budget of paper Section 5.2), so the energy story of
//! Figs. 9/10 reads off the identical execution as the latency story.
//!
//! ```
//! use upmem_sim::{PimArch, system::PimSystem, meter::Phase};
//!
//! let arch = PimArch::upmem_sc25();
//! let costs = arch.costs.clone();
//! let mut sys = PimSystem::new(arch, 4); // 4 DPUs for the example
//! // run a toy kernel on DPU 0: 1000 additions + 1 KiB streamed from MRAM
//! let dpu = &mut sys.dpus[0];
//! dpu.meter.phase_mut(Phase::Dc).charge_add_c(1000, &costs);
//! dpu.meter.phase_mut(Phase::Dc).mram_stream_read(1024);
//! let t = sys.dpu_time(0, 16);
//! assert!(t > 0.0);
//! ```

pub mod config;
pub mod energy;
pub mod fault;
pub mod host;
pub mod isa;
pub mod memory;
pub mod meter;
pub mod platform;
pub mod proc;
pub mod stats;
pub mod system;
pub mod tasklet;

pub use config::{PimArch, SimConfigError};
pub use energy::{EnergyBreakdown, EnergyCosts, EnergyModel};
pub use fault::{FaultConfig, FaultInjector, FaultOutcome, SlowdownDist};
pub use host::HostLink;
pub use isa::IsaCosts;
pub use memory::MemTracker;
pub use meter::{DpuMeter, Phase, PhaseMeter};
pub use platform::Platform;
pub use proc::ProcModel;
pub use system::{Dpu, PimSystem};
