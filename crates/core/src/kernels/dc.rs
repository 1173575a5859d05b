//! Distance calculation (DC) — the scan phase.
//!
//! For every encoded point of a cluster slice, gathers its `M` LUT entries
//! and accumulates them into the ADC distance (paper Eq. 8-9). The gathers
//! are data-dependent random accesses — the reason the LUT's WRAM residency
//! is worth ~4x end-to-end (Fig. 12b).
//!
//! A distance is a function of the (query, point) pair alone, not of the
//! DPU that computes it. So the engine scans each probed cluster once per
//! batch, for up to `LANES` of its queries at a time (`scan_lanes`, over
//! the interleaved LUTs of `lc::build`), and a DPU only books
//! [`charge`] for each slice it serves. [`run`] is the one-lane, one-call
//! form: the same loop body, then the charge.
//!
//! The paper's *lock pruning* (Section 6) is TS's business: [`super::ts::run`]
//! applies the forwarded top-k bound to the scanned stream.

use super::KernelCtx;
use upmem_sim::meter::PhaseMeter;

/// Per-gather pipeline overhead beyond the accumulate itself: code-byte
/// load, LUT address arithmetic, and loop bookkeeping. Real DPU ADC loops
/// are several instructions per element (PrIM's scan kernels run 4-6), and
/// the paper's 71.8–99.9 % model-accuracy gap (Fig. 11b) is exactly this
/// kind of overhead.
const GATHER_OVERHEAD_ALU: u64 = 3;

/// Sub-codes gathered per straight-line block of the scan (see [`scan`]).
/// In isolation at `m = 32, cb = 256`, over seven code placements, blocks
/// of 4 scan a point in 12.1-13.3 ns, of 2 in 13.3-14.5, of 8 in 14.9-15.7,
/// of 16 in 23.5.
const GATHER_BLOCK: usize = 4;

/// Largest padded dimension (`m * dsub`) whose worst-case ADC distance,
/// `m * dsub * 255^2`, still fits the scan's `u32` accumulators.
pub(crate) const MAX_PADDED_DIM: usize = (u32::MAX / (255 * 255)) as usize;

/// Closed-form cost of scanning `n_points` codes — identical totals to
/// [`run`]. What both modes book a slice's DC with.
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
/// `(slot, distance)` for every point to `out`: the one-lane case of the
/// scan loop, then [`charge`].
///
/// Returns the number of candidates whose distance is below `bound`. The
/// engine no longer asks — TS applies the forwarded bound itself — but
/// `benchmark/` and `tests/charge_parity.rs` call this signature, so
/// `bound` and the count stay.
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
    let n = codes.len() / m;
    out.clear();
    out.reserve(n);
    let mut below = 0u64;
    scan::<1>(codes, m, cb, lut, |slot, &[dist]| {
        let dist = dist as u64;
        below += u64::from(dist < bound);
        out.push((slot as u32, dist));
    });
    charge(ctx, meter, n as u64, m, cb);
    below
}

/// Scan `codes` (`n x m` flat) for the `lanes` queries whose LUTs
/// [`super::lc::build`] interleaved into `luts`, writing query `l`'s
/// distance to point `slot` at `out[l * n + slot]`. Charges nothing: a
/// DPU books each slice it serves through [`charge`]. Give it 64-byte
/// aligned `luts`: a 16-lane entry is then one cache line, and one that
/// straddles two scans at half the speed.
pub(crate) fn scan_lanes(
    codes: &[u16],
    m: usize,
    cb: usize,
    luts: &[u32],
    lanes: usize,
    out: &mut [u32],
) {
    // One function per width, never inlined: inlined into its caller, the
    // 16-lane loop lost its vectorisation in some builds and not in others
    // (a 256-query batch took 20 or 70 ms with one arm of the `match`
    // below more or less).
    #[inline(never)]
    fn scan_into<const W: usize>(
        codes: &[u16],
        m: usize,
        cb: usize,
        luts: &[u32],
        lanes: usize,
        out: &mut [u32],
    ) {
        let n = codes.len() / m;
        assert_eq!(out.len(), lanes * n);
        scan::<W>(codes, m, cb, luts, |slot, dists| {
            for (l, &d) in dists[..lanes].iter().enumerate() {
                out[l * n + slot] = d;
            }
        });
    }
    match super::lane_width(lanes) {
        1 => scan_into::<1>(codes, m, cb, luts, lanes, out),
        2 => scan_into::<2>(codes, m, cb, luts, lanes, out),
        4 => scan_into::<4>(codes, m, cb, luts, lanes, out),
        8 => scan_into::<8>(codes, m, cb, luts, lanes, out),
        _ => scan_into::<16>(codes, m, cb, luts, lanes, out),
    }
}

/// The one scan loop: for every point of `codes` (`n x m` flat), hand
/// `emit(slot, sums)` the sums of its `m` entries in each of `W` LUTs
/// interleaved `[s][j][lane]` (`luts` is `m * cb * W`).
///
/// The scan is point-major: a point's `m` gathers land in `m` different
/// rows however the loop is blocked, so on the host it is bound by its two
/// loads per gather (blocking points per row, splitting the sum over
/// several accumulators and subspace-major codes were all measured slower
/// at one lane), and a gather fetches all `W` lanes' entries at once —
/// at 16 lanes one 64-byte line, which is what makes a shared scan
/// cheaper per query than `W` one-lane scans. A point's sub-codes are taken
/// `GATHER_BLOCK` at a time as straight-line gathers, which is not for
/// speed but for a speed that does not depend on where the linker puts
/// this function: as one `m`-trip loop per point the same one-lane machine
/// code read 14.3 or 23.0 ns per point from one build directory to the
/// next, and with every loop aligned to a cache line (`.cargo/config.toml`)
/// still 13.9 or 17.4 from one edit elsewhere to the next (the likely
/// cause, unverified without performance counters: its exit branch, taken
/// once in `m`, is predicted or not by address bits no alignment
/// controls). In blocks, loops aligned, it read 13.2-13.7 ns in every
/// build tried.
/// `u32` sums are exact while `m * dsub * 255^2` fits (padded dimension at
/// most 66,051, enforced when an engine is built).
fn scan<const W: usize>(
    codes: &[u16],
    m: usize,
    cb: usize,
    luts: &[u32],
    mut emit: impl FnMut(usize, &[u32; W]),
) {
    assert_eq!(luts.len(), m * cb * W);
    let (entries, _) = luts.as_chunks::<W>();
    // the sums of a run of sub-codes' entries, `rows` starting at the first
    // one's row, in a fresh accumulator, so the point's running sums take
    // one add per run, not one per gather: one chain of `m` dependent adds
    // per point scanned 32 lanes at 9.3-10.3 ns per point·query in
    // isolation, this shape at 2.3-2.5
    let gather = |block: &[u16], rows: &[[u32; W]]| -> [u32; W] {
        let mut sums = [0u32; W];
        for (u, &c) in block.iter().enumerate() {
            let entry = &rows[u * cb..(u + 1) * cb][c as usize];
            for (sum, &e) in sums.iter_mut().zip(entry) {
                *sum += e;
            }
        }
        sums
    };
    let add = |sums: &mut [u32; W], run: [u32; W]| {
        for (sum, run) in sums.iter_mut().zip(run) {
            *sum += run;
        }
    };
    for (slot, code) in codes.chunks_exact(m).enumerate() {
        let (blocks, tail) = code.as_chunks::<GATHER_BLOCK>();
        let mut sums = [0u32; W];
        let mut rest = entries;
        for block in blocks {
            let (rows, after) = rest.split_at(GATHER_BLOCK * cb);
            add(&mut sums, gather(block, rows));
            rest = after;
        }
        add(&mut sums, gather(tail, rest));
        emit(slot, &sums);
    }
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
        let l = crate::kernels::LANES;
        let mut out = Vec::new();
        for m in [1usize, 5, 7, 32] {
            // cb = 1024 stores codes above 255: the u16 path
            for cb in [16usize, 256, 1024] {
                // one table per query, each different
                let luts: Vec<Vec<u32>> = (0..2 * l + 1)
                    .map(|q| {
                        (0..m * cb)
                            .map(|i| {
                                max_entry - ((i + 7919 * q) as u32).wrapping_mul(2654435761) % 1000
                            })
                            .collect()
                    })
                    .collect();
                // the lane scan's inputs: `lanes` queries in blocks of at
                // most LANES, the last one ragged, each block interleaved
                // as `lc::build` lays it out — (lanes, the block's first
                // query, its tables)
                let mut blocks: Vec<(usize, usize, Vec<u32>)> = Vec::new();
                for lanes in [1, 2, l - 1, l, l + 1, 2 * l + 1] {
                    for (b, block) in luts[..lanes].chunks(l).enumerate() {
                        let w = crate::kernels::lane_width(block.len());
                        let mut interleaved = vec![0u32; m * cb * w];
                        for (lane, lut) in block.iter().enumerate() {
                            for (e, &v) in lut.iter().enumerate() {
                                interleaved[e * w + lane] = v;
                            }
                        }
                        blocks.push((lanes, b * l, interleaved));
                    }
                }
                for n in [0usize, 1, 7, 8, 9] {
                    let codes: Vec<u16> = (0..n * m)
                        .map(|i| (i.wrapping_mul(40503) % cb) as u16)
                        .collect();
                    if cb > 256 && n * m >= 7 {
                        assert!(codes.iter().any(|&j| j > 255), "no wide code generated");
                    }
                    let reference = |lut: &[u32]| -> Vec<u64> {
                        codes
                            .chunks_exact(m)
                            .map(|code| {
                                code.iter()
                                    .enumerate()
                                    .map(|(s, &j)| lut[s * cb + j as usize] as u64)
                                    .sum()
                            })
                            .collect()
                    };

                    // one lane, one call: `run`
                    let want: Vec<(u32, u64)> = reference(&luts[0])
                        .into_iter()
                        .enumerate()
                        .map(|(p, d)| (p as u32, d))
                        .collect();
                    let bound = want.get(n / 2).map_or(0, |w| w.1);
                    let mut functional = PhaseMeter::default();
                    let below = run(
                        &c,
                        &mut functional,
                        &codes,
                        m,
                        cb,
                        &luts[0],
                        bound,
                        &mut out,
                    );
                    assert_eq!(out, want, "m={m} cb={cb} n={n}");
                    let want_below = want.iter().filter(|w| w.1 < bound).count() as u64;
                    assert_eq!(below, want_below, "m={m} cb={cb} n={n}");
                    let mut bulk = PhaseMeter::default();
                    charge(&c, &mut bulk, n as u64, m, cb);
                    assert_eq!(functional, bulk, "m={m} cb={cb} n={n}");

                    // every lane of every block of the lane scan
                    for (lanes, first, interleaved) in &blocks {
                        let block = (lanes - first).min(l);
                        let mut dists = vec![u32::MAX; block * n];
                        scan_lanes(&codes, m, cb, interleaved, block, &mut dists);
                        for (lane, got) in dists.chunks(n.max(1)).enumerate().take(block) {
                            let got: Vec<u64> = got.iter().map(|&d| d as u64).collect();
                            let want = reference(&luts[first + lane]);
                            assert_eq!(
                                got,
                                want,
                                "m={m} cb={cb} n={n} lanes={lanes} query {}",
                                first + lane
                            );
                        }
                    }
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
