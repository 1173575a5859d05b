//! The squaring lookup table (SQT): DRIM-ANN's multiplier-less conversion.
//!
//! L2-distance multiplications are all *squarings* of element differences.
//! On UPMEM a multiply costs ~32 cycles; a table lookup costs one WRAM access
//! (or one fine-grained MRAM DMA when the entry spilled). The substitution
//! is **lossless** — `SQT[|a-b|] == (a-b)^2` exactly — trading compute for a
//! modest increase in memory traffic (paper Section 3.1, evaluated in
//! Fig. 11a).
//!
//! * 8-bit operands: differences lie in `[-255, 255]`, so 256 entries of
//!   `|d|^2` suffice — 1 KiB of `u32`, entirely WRAM-resident.
//! * 16-bit operands: 64Ki entries exceed WRAM; the hot low-difference
//!   window stays in WRAM and the tail spills to MRAM. Residuals are small
//!   by construction ("the squaring operands are the residuals between
//!   vectors, their values typically fall within a narrow range"), so the
//!   window absorbs most lookups.
//!
//! Because the table is lossless, the simulator never needs to *perform* a
//! lookup to get a kernel's result — only to know what it costs. [`Sqt`]
//! therefore carries the placement (which `|diff|` hit WRAM) and the
//! lookup counters; the LC kernel squares with a host multiply, splits its
//! lookups into hits and spills from the window, and advances
//! `hits_wram` / `hits_mram` once per call.

use crate::config::DataBits;
#[cfg(test)]
use upmem_sim::{meter::PhaseMeter, IsaCosts};

/// Default 16-bit WRAM window: 8Ki entries = 32 KiB, half the scratchpad
/// (16Ki entries = 64 KiB would exceed WRAM). Every `EngineConfig` preset
/// sets `EngineConfig::sqt_window` to it; nothing tunes the window.
pub const DEFAULT_U16_WINDOW: usize = 8 << 10;

/// A squaring lookup table with WRAM/MRAM placement awareness.
#[derive(Debug, Clone)]
pub struct Sqt {
    bits: DataBits,
    /// Entries resident in WRAM (all 256 for 8-bit; a prefix window for
    /// 16-bit).
    wram_entries: usize,
    /// Bytes of one entry (u32 squares).
    entry_bytes: u64,
    /// Lookup counters for diagnostics.
    pub hits_wram: u64,
    /// Lookups that had to reach MRAM.
    pub hits_mram: u64,
}

impl Sqt {
    /// Table for 8-bit operands: 256 entries, fully WRAM-resident.
    pub fn for_u8() -> Self {
        Sqt {
            bits: DataBits::B8,
            wram_entries: 256,
            entry_bytes: 4,
            hits_wram: 0,
            hits_mram: 0,
        }
    }

    /// Table for 16-bit operands with a WRAM window of `wram_entries`
    /// (clamped to the 64Ki domain).
    pub fn for_u16(wram_entries: usize) -> Self {
        Sqt {
            bits: DataBits::B16,
            wram_entries: wram_entries.min(1 << 16),
            entry_bytes: 4,
            hits_wram: 0,
            hits_mram: 0,
        }
    }

    /// Build for a bit regime with an explicit 16-bit WRAM window (in
    /// table entries, `EngineConfig::sqt_window`); 8-bit tables always
    /// hold the full 256 entries regardless, so the parameter is inert in
    /// the 8-bit regime.
    pub fn for_bits_windowed(bits: DataBits, window_entries: usize) -> Self {
        match bits {
            DataBits::B8 => Self::for_u8(),
            DataBits::B16 => Self::for_u16(window_entries),
        }
    }

    /// Build honoring a WRAM-residency decision: when the buffer planner
    /// could not (or was configured not to) keep the table in WRAM, every
    /// lookup spills to MRAM — the regime the paper's Fig. 12b ablates.
    pub fn for_bits_resident(bits: DataBits, wram_resident: bool) -> Self {
        Self::for_bits_resident_windowed(bits, DEFAULT_U16_WINDOW, wram_resident)
    }

    /// [`Self::for_bits_resident`] with an explicit 16-bit window.
    pub fn for_bits_resident_windowed(
        bits: DataBits,
        window_entries: usize,
        wram_resident: bool,
    ) -> Self {
        let mut sqt = Self::for_bits_windowed(bits, window_entries);
        if !wram_resident {
            sqt.wram_entries = 0;
        }
        sqt
    }

    /// Domain size (number of representable |differences|).
    pub fn domain(&self) -> usize {
        match self.bits {
            DataBits::B8 => 256,
            DataBits::B16 => 1 << 16,
        }
    }

    /// Entries resident in WRAM: lookups of `|diff|` below this hit WRAM,
    /// the rest spill to MRAM.
    pub(crate) fn wram_window(&self) -> usize {
        self.wram_entries
    }

    /// WRAM bytes this table occupies.
    pub fn wram_bytes(&self) -> u64 {
        self.wram_entries as u64 * self.entry_bytes
    }

    /// MRAM bytes for the spilled tail (0 for 8-bit).
    pub fn mram_bytes(&self) -> u64 {
        (self.domain() as u64 - self.wram_entries as u64) * self.entry_bytes
    }

    /// Functional + metered lookup: returns `diff^2` while charging the
    /// access to `meter`. `diff` may be negative; `|diff|` must be within
    /// the domain.
    ///
    /// This is the *definition* of what one lookup costs. The LC kernel
    /// never calls it per element: it counts its lookups' (hits, spills)
    /// exactly and books them in bulk (`kernels::lc`), and its tests hold
    /// that bulk form to a loop over this function.
    #[cfg(test)]
    pub(crate) fn square(
        &mut self,
        diff: i32,
        meter: &mut PhaseMeter,
        costs: &IsaCosts,
        dma_burst: u64,
    ) -> u64 {
        let a = diff.unsigned_abs() as usize;
        debug_assert!(a < self.domain(), "diff {diff} outside SQT domain");
        if a < self.wram_entries {
            self.hits_wram += 1;
            meter.wram_read_bytes(self.entry_bytes);
            // |diff| + address arithmetic + dependent load + bank
            // contention: the calibrated per-lookup cost (see IsaCosts)
            meter.charge_alu(costs.sqt_lookup);
        } else {
            self.hits_mram += 1;
            // the pipeline only issues the DMA (other tasklets hide the
            // wait): |diff| + address + issue + resume
            meter.charge_alu(4 * costs.alu);
            // ...and the entry itself is a fine-grained random DMA, rounded
            // to a full burst — this granularity loss is why the paper's
            // measured LC speedup (1.93x) is far below the naive 32x bound.
            meter.mram_random_read(1, self.entry_bytes, dma_burst);
        }
        (a as u64) * (a as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> PhaseMeter {
        PhaseMeter::default()
    }

    #[test]
    fn lossless_over_full_u8_domain() {
        let mut sqt = Sqt::for_u8();
        let mut m = meter();
        let costs = IsaCosts::upmem();
        for a in 0i32..=255 {
            for b in [0i32, 17, 128, 255] {
                let d = a - b;
                assert_eq!(
                    sqt.square(d, &mut m, &costs, 8),
                    (d as i64 * d as i64) as u64
                );
            }
        }
    }

    #[test]
    fn u8_lookups_never_touch_mram() {
        let mut sqt = Sqt::for_u8();
        let mut m = meter();
        let costs = IsaCosts::upmem();
        for d in -255i32..=255 {
            sqt.square(d, &mut m, &costs, 8);
        }
        assert_eq!(sqt.hits_mram, 0);
        assert_eq!(m.mram_read, 0);
        assert!(m.wram_read > 0);
        assert_eq!(sqt.hits_wram, 511);
    }

    #[test]
    fn u16_window_splits_traffic() {
        let mut sqt = Sqt::for_u16(1024);
        let mut m = meter();
        let costs = IsaCosts::upmem();
        sqt.square(100, &mut m, &costs, 8); // in window
        sqt.square(5000, &mut m, &costs, 8); // spilled
        assert_eq!(sqt.hits_wram, 1);
        assert_eq!(sqt.hits_mram, 1);
        assert!(m.mram_read >= 8, "spill rounds up to a DMA burst");
    }

    #[test]
    fn lookup_is_cheaper_than_multiply() {
        // The whole point: one WRAM lookup (calibrated ~12 cycles including
        // dependent-load stalls) vs a 32-cycle software multiply. The gap
        // is ~2.7x, matching the paper's measured LC speedup of ~1.93x once
        // the non-multiply work is included.
        let costs = IsaCosts::upmem();
        let mut sqt = Sqt::for_u8();
        let mut m_lut = meter();
        sqt.square(57, &mut m_lut, &costs, 8);
        let mut m_mul = meter();
        m_mul.charge_mul(1, &costs);
        assert!(
            m_lut.cycles < m_mul.cycles / 2,
            "{} vs {}",
            m_lut.cycles,
            m_mul.cycles
        );
    }

    #[test]
    fn wram_footprints() {
        assert_eq!(Sqt::for_u8().wram_bytes(), 1024); // 256 x 4B
        assert_eq!(Sqt::for_u8().mram_bytes(), 0);
        let s16 = Sqt::for_u16(8192);
        assert_eq!(s16.wram_bytes(), 32 << 10);
        assert_eq!(s16.mram_bytes(), (65536 - 8192) * 4);
        // the default 16-bit window must fit in 64 KiB WRAM
        assert!(Sqt::for_u16(DEFAULT_U16_WINDOW).wram_bytes() < 64 << 10);
    }
}
