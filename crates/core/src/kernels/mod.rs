//! The five ANNS processing phases (paper Fig. 1), implemented as
//! functional-plus-metered kernels.
//!
//! Every kernel both *computes the real result* on real data and *charges*
//! the per-DPU meter with the instruction and traffic costs the operation
//! would incur on the target PIM architecture. The two are decoupled: the
//! result comes from a plain host loop, the cost from a closed-form charge
//! function called once per invocation with the counts the loop observed.
//! The full-scale trace mode (no data, statistical shapes only) calls the
//! same charge functions — keeping functional and trace timings mutually
//! consistent, and letting the host loops be as fast as the host allows
//! without moving a simulated number.
//!
//! Phase placement follows the paper: CL runs on the host ([`cl`]);
//! RC, LC, DC and TS run on the DPUs ([`rc`], [`lc`], [`dc`], [`ts`]).

pub mod cl;
pub mod dc;
pub mod lc;
pub mod rc;
pub mod ts;

use crate::config::DataBits;
use crate::wram::WramPlacement;
use upmem_sim::IsaCosts;

/// Shared kernel context: cost table, DMA shape, operand width and the WRAM
/// residency decisions.
#[derive(Debug, Clone)]
pub struct KernelCtx<'a> {
    /// Platform cost table.
    pub costs: &'a IsaCosts,
    /// MRAM DMA burst size in bytes.
    pub dma_burst: u64,
    /// Operand width.
    pub bits: DataBits,
    /// WRAM residency plan (empty = everything at MRAM cost).
    pub placement: &'a WramPlacement,
}

impl<'a> KernelCtx<'a> {
    /// Charge a read of `bytes` belonging to data class `class`: WRAM cost
    /// when resident, fine-grained MRAM DMA otherwise.
    #[inline]
    pub fn read(
        &self,
        meter: &mut upmem_sim::meter::PhaseMeter,
        class: &str,
        bytes: u64,
        random: bool,
    ) {
        if self.placement.is_resident(class) {
            meter.wram_read_bytes(bytes);
        } else if random {
            meter.mram_random_read(1, bytes, self.dma_burst);
        } else {
            meter.mram_stream_read(bytes);
        }
    }

    /// Charge a write of `bytes` to data class `class`.
    #[inline]
    pub fn write(&self, meter: &mut upmem_sim::meter::PhaseMeter, class: &str, bytes: u64) {
        if self.placement.is_resident(class) {
            meter.wram_write_bytes(bytes);
        } else {
            meter.mram_stream_write(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wram::{plan, WramCandidate};
    use upmem_sim::meter::PhaseMeter;

    #[test]
    fn resident_class_charges_wram() {
        let placement = plan(
            &[WramCandidate {
                name: "lut",
                bytes: 64,
                accesses: 100.0,
            }],
            1024,
        );
        let costs = IsaCosts::upmem();
        let ctx = KernelCtx {
            costs: &costs,
            dma_burst: 8,
            bits: DataBits::B8,
            placement: &placement,
        };
        let mut m = PhaseMeter::default();
        ctx.read(&mut m, "lut", 4, true);
        assert_eq!(m.wram_read, 4);
        assert_eq!(m.mram_read, 0);
    }

    #[test]
    fn nonresident_random_read_rounds_to_burst() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let ctx = KernelCtx {
            costs: &costs,
            dma_burst: 8,
            bits: DataBits::B8,
            placement: &placement,
        };
        let mut m = PhaseMeter::default();
        ctx.read(&mut m, "lut", 4, true);
        assert_eq!(m.mram_read, 8, "4-byte random read pays a full burst");
        ctx.read(&mut m, "codes", 100, false);
        assert_eq!(m.mram_read, 108, "streaming read is exact");
    }
}
