//! Distance calculation (DC) — the scan phase.
//!
//! For every encoded point of a cluster slice, gathers its `M` LUT entries
//! and accumulates them into the ADC distance (paper Eq. 8-9). The gathers
//! are data-dependent random accesses — the reason the LUT's WRAM residency
//! is worth ~4x end-to-end (Fig. 12b).
//!
//! To support the paper's *lock pruning* (Section 6), the kernel takes the
//! current top-k bound forwarded from the TS engine and reports, per point,
//! whether the distance beats it.

use super::KernelCtx;
use upmem_sim::meter::PhaseMeter;

/// Per-gather pipeline overhead beyond the accumulate itself: code-byte
/// load, LUT address arithmetic, and loop bookkeeping. Real DPU ADC loops
/// are several instructions per element (PrIM's scan kernels run 4-6), and
/// the paper's 71.8–99.9 % model-accuracy gap (Fig. 11b) is exactly this
/// kind of overhead.
const GATHER_OVERHEAD_ALU: u64 = 3;

/// Sub-codes gathered per straight-line block of the scan (see [`run`]).
/// In isolation at `m = 32, cb = 256`, over seven code placements, blocks
/// of 4 scan a point in 12.1-13.3 ns, of 2 in 13.3-14.5, of 8 in 14.9-15.7,
/// of 16 in 23.5.
const GATHER_BLOCK: usize = 4;

/// Largest padded dimension (`m * dsub`) whose worst-case ADC distance,
/// `m * dsub * 255^2`, still fits the scan's `u32` accumulators.
pub(crate) const MAX_PADDED_DIM: usize = (u32::MAX / (255 * 255)) as usize;

/// Closed-form cost of scanning `n_points` codes — identical totals to
/// [`run`]. Used by trace mode.
pub fn charge(ctx: &KernelCtx<'_>, meter: &mut PhaseMeter, n_points: u64, m: usize, cb: usize) {
    let code_bytes = if cb <= 256 { 1u64 } else { 2u64 };
    let gathers = n_points * m as u64;
    if ctx.placement.is_resident("lut") {
        meter.wram_read_bytes(4 * gathers);
    } else {
        meter.mram_random_read(gathers, 4, ctx.dma_burst);
    }
    meter.charge_alu(gathers * GATHER_OVERHEAD_ALU * ctx.costs.alu);
    meter.charge_add_c(n_points * (m as u64).saturating_sub(1), ctx.costs);
    meter.charge_cmp(n_points * ctx.costs.cmp);
    if n_points > 0 {
        if ctx.placement.is_resident("codes") {
            meter.wram_read_bytes(n_points * m as u64 * code_bytes);
        } else {
            meter.mram_stream_read_chunks(1, n_points * m as u64 * code_bytes);
        }
    }
}

/// Scan `codes` (`n x m` flat) against `lut` (`m x cb`), appending
/// `(slot, distance)` for every point to `out`.
///
/// Returns the number of candidates whose distance is below `bound`
/// (candidates the TS phase will actually consider).
///
/// The scan is point-major, one `u32` sum per point over the LUT's rows:
/// a point's `m` gathers land in `m` different rows however the loop is
/// blocked, so on the host the scan is bound by its two loads per gather
/// (blocking points per row, splitting the sum over several accumulators
/// and subspace-major codes were all measured slower). A point's sub-codes
/// are taken `GATHER_BLOCK` at a time as straight-line gathers, which is
/// not for speed but for a speed that does not depend on where the linker
/// puts this function: as one `m`-trip loop per point the same machine
/// code read 14.3 or 23.0 ns per point from one build directory to the
/// next, and with every loop aligned to a cache line (`.cargo/config.toml`)
/// still 13.9 or 17.4 from one edit elsewhere to the next (the likely
/// cause, unverified without performance counters: its exit branch, taken
/// once in `m`, is predicted or not by address bits no alignment
/// controls). In blocks, loops aligned, it reads 13.2-13.7 ns in every
/// build tried.
/// `u32` sums are exact while `m * dsub * 255^2` fits (padded dimension at
/// most 66,051, enforced when an engine is built). Costs are booked through
/// [`charge`] — how the host adds the entries up never changes what the
/// scan is charged.
#[allow(clippy::too_many_arguments)]
pub fn run(
    ctx: &KernelCtx<'_>,
    meter: &mut PhaseMeter,
    codes: &[u16],
    m: usize,
    cb: usize,
    lut: &[u32],
    bound: u64,
    out: &mut Vec<(u32, u64)>,
) -> u64 {
    debug_assert_eq!(codes.len() % m, 0);
    assert_eq!(lut.len(), m * cb);
    let n = codes.len() / m;

    out.clear();
    out.reserve(n);
    let mut below = 0u64;
    // the LUT entries of a run of sub-codes, `rows` starting at the first one's row
    let gather = |block: &[u16], rows: &[u32]| -> u32 {
        let entry = |(u, &c): (usize, &u16)| rows[u * cb..(u + 1) * cb][c as usize];
        block.iter().enumerate().map(entry).sum()
    };
    for (slot, code) in codes.chunks_exact(m).enumerate() {
        let (blocks, tail) = code.as_chunks::<GATHER_BLOCK>();
        let mut dist = 0u32;
        let mut rest = lut;
        for block in blocks {
            let (rows, after) = rest.split_at(GATHER_BLOCK * cb);
            dist += gather(block, rows);
            rest = after;
        }
        let dist = (dist + gather(tail, rest)) as u64;
        if dist < bound {
            below += 1;
        }
        out.push((slot as u32, dist));
    }

    charge(ctx, meter, n as u64, m, cb);
    below
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DataBits;
    use crate::wram::{plan, WramCandidate, WramPlacement};
    use upmem_sim::IsaCosts;

    fn ctx<'a>(placement: &'a WramPlacement, costs: &'a IsaCosts) -> KernelCtx<'a> {
        KernelCtx {
            costs,
            dma_burst: 8,
            bits: DataBits::B8,
            placement,
        }
    }

    /// m=2, cb=4; lut[s][j] = 10*s + j
    fn toy_lut() -> Vec<u32> {
        vec![0, 1, 2, 3, 10, 11, 12, 13]
    }

    #[test]
    fn distances_are_lut_sums() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let codes = vec![0u16, 0, 3, 2]; // p0: lut[0][0]+lut[1][0]=10; p1: 3+12=15
        let mut m = PhaseMeter::default();
        let mut out = Vec::new();
        run(&c, &mut m, &codes, 2, 4, &toy_lut(), u64::MAX, &mut out);
        assert_eq!(out, vec![(0, 10), (1, 15)]);
    }

    #[test]
    fn bound_counts_passing_candidates() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let codes = vec![0u16, 0, 3, 2, 1, 1];
        let mut m = PhaseMeter::default();
        let mut out = Vec::new();
        let below = run(&c, &mut m, &codes, 2, 4, &toy_lut(), 13, &mut out);
        // distances: 10, 15, 12 -> two below 13
        assert_eq!(below, 2);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn wram_lut_cuts_mram_traffic() {
        let costs = IsaCosts::upmem();
        let codes: Vec<u16> = (0..400).map(|i| (i % 4) as u16).collect();
        let none = WramPlacement::none();
        let c1 = ctx(&none, &costs);
        let mut m1 = PhaseMeter::default();
        let mut out = Vec::new();
        run(&c1, &mut m1, &codes, 2, 4, &toy_lut(), u64::MAX, &mut out);

        let resident = plan(
            &[WramCandidate {
                name: "lut",
                bytes: 32,
                accesses: 1e9,
            }],
            1024,
        );
        let c2 = ctx(&resident, &costs);
        let mut m2 = PhaseMeter::default();
        run(&c2, &mut m2, &codes, 2, 4, &toy_lut(), u64::MAX, &mut out);

        assert!(m2.mram_read < m1.mram_read / 2);
        assert!(m2.wram_read > 0);
        // same arithmetic either way
        assert_eq!(m1.cycles, m2.cycles);
    }

    #[test]
    fn scan_matches_a_scalar_u64_reference() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        // the largest entry LC can produce at dsub = 8, so sums of several
        // rows leave the u16 range a narrower accumulator would wrap in
        let max_entry = 8 * 255 * 255u32;
        let mut out = Vec::new();
        for m in [1usize, 5, 7] {
            // cb = 1024 stores codes above 255: the u16 path
            for cb in [16usize, 256, 1024] {
                let lut: Vec<u32> = (0..m * cb)
                    .map(|i| max_entry - (i as u32).wrapping_mul(2654435761) % 1000)
                    .collect();
                for n in [0usize, 1, 7, 8, 9] {
                    let codes: Vec<u16> = (0..n * m)
                        .map(|i| (i.wrapping_mul(40503) % cb) as u16)
                        .collect();
                    if cb > 256 && n * m >= 7 {
                        assert!(codes.iter().any(|&j| j > 255), "no wide code generated");
                    }
                    let want: Vec<(u32, u64)> = codes
                        .chunks_exact(m)
                        .enumerate()
                        .map(|(p, code)| {
                            let dist = code
                                .iter()
                                .enumerate()
                                .map(|(s, &j)| lut[s * cb + j as usize] as u64)
                                .sum();
                            (p as u32, dist)
                        })
                        .collect();
                    let bound = want.get(n / 2).map_or(0, |w| w.1);

                    let mut functional = PhaseMeter::default();
                    let below = run(&c, &mut functional, &codes, m, cb, &lut, bound, &mut out);
                    assert_eq!(out, want, "m={m} cb={cb} n={n}");
                    let want_below = want.iter().filter(|w| w.1 < bound).count() as u64;
                    assert_eq!(below, want_below, "m={m} cb={cb} n={n}");
                    let mut bulk = PhaseMeter::default();
                    charge(&c, &mut bulk, n as u64, m, cb);
                    assert_eq!(functional, bulk, "m={m} cb={cb} n={n}");
                }
            }
        }
    }

    #[test]
    fn widest_legal_shape_fits_the_accumulator() {
        let worst = MAX_PADDED_DIM as u64 * 255 * 255;
        assert!(worst <= u32::MAX as u64);
        assert!(worst + 255 * 255 > u32::MAX as u64);
    }

    #[test]
    fn empty_codes_is_a_noop() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let mut m = PhaseMeter::default();
        let mut out = vec![(9u32, 9u64)];
        let below = run(&c, &mut m, &[], 2, 4, &toy_lut(), u64::MAX, &mut out);
        assert_eq!(below, 0);
        assert!(out.is_empty());
    }
}
