//! Instruction cost table for the DPU's in-order RISC pipeline.
//!
//! UPMEM DPUs execute roughly one instruction per cycle once the pipeline is
//! full, *except* for multiplication and division: there is no hardware
//! multiplier, so `mul` is expanded into a shift-add sequence of ~32 steps and
//! `div` is even slower (UPMEM SDK documentation; Gómez-Luna et al., IEEE
//! Access 2022). These asymmetric costs are the reason DRIM-ANN replaces
//! squaring with a lookup table.

/// Per-operation cycle costs of a single DPU lane.
///
/// All costs are expressed in pipeline-issue slots; the surrounding
/// [`crate::meter`] machinery converts slots into wall-clock time given the
/// clock frequency and tasklet occupancy.
#[derive(Debug, Clone, PartialEq)]
pub struct IsaCosts {
    /// Integer addition / subtraction.
    pub add: u64,
    /// Integer multiplication (software shift-add on UPMEM: ~32 cycles).
    pub mul: u64,
    /// Comparison / branch.
    pub cmp: u64,
    /// Generic ALU op (shift, mask, address arithmetic).
    pub alu: u64,
    /// Cost of acquiring an uncontended mutex guarding shared WRAM state.
    pub lock: u64,
    /// Effective cost of one squaring-table lookup: |diff|, address
    /// arithmetic, the dependent WRAM load (pipeline stall) and bank
    /// contention among tasklets sharing the table. Calibrated so the
    /// LC-phase conversion speedup lands at the paper's measured ~1.9x
    /// (Fig. 11a) instead of the naive 32x.
    pub sqt_lookup: u64,
}

impl IsaCosts {
    /// Costs of the shipped UPMEM DPU (v1.4 silicon, as characterised by the
    /// PrIM benchmark study and the DRIM-ANN paper: mul is ~32x an add).
    pub const fn upmem() -> Self {
        IsaCosts {
            add: 1,
            mul: 32,
            cmp: 1,
            alu: 1,
            lock: 16,
            sqt_lookup: 14,
        }
    }

    /// Costs of a PIM platform with a hardware multiplier (e.g. the MAC units
    /// of Samsung HBM-PIM or SK Hynix AiM): multiply costs the same as add.
    pub const fn with_hw_multiplier() -> Self {
        IsaCosts {
            add: 1,
            mul: 1,
            cmp: 1,
            alu: 1,
            lock: 16,
            sqt_lookup: 2,
        }
    }
}

impl Default for IsaCosts {
    fn default() -> Self {
        Self::upmem()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upmem_mul_is_32x_add() {
        let c = IsaCosts::upmem();
        assert_eq!(c.mul, 32 * c.add);
    }

    #[test]
    fn hw_multiplier_makes_mul_cheap() {
        let c = IsaCosts::with_hw_multiplier();
        assert_eq!(c.mul, c.add);
    }

    #[test]
    fn default_is_upmem() {
        assert_eq!(IsaCosts::default(), IsaCosts::upmem());
    }
}
