//! LUT construction (LC) — the compute-heaviest DPU phase.
//!
//! For each subspace `s` and codebook entry `j`, accumulates
//! `sum_d (r[d] - cb[s][j][d])^2` into a `M x CB` distance lookup table.
//! The squaring is where UPMEM's missing multiplier bites (32 cycles each);
//! DRIM-ANN's SQT turns it into one table lookup (paper Section 3.1).
//! Cost model: paper Eq. 6-7.
//!
//! The SQT is lossless, so the multiply and SQT arms differ only in what a
//! squaring *costs* — never in the table they build. Building and charging
//! are therefore apart: `build` is the one integer build loop, shaped for
//! the host's vector units, and the closed-form [`charge`] books one
//! group's LC at the hit rate the configuration gives. The engine builds
//! each probed cluster's LUTs once per batch, several queries interleaved,
//! and every DPU books its groups through [`charge`] (by way of the batch's
//! charge table). [`run_bulk`] is the one-call form, a one-lane build per
//! group and then its private charge half, which counts a partial SQT
//! window's hits exactly (`sqt_split`) and books them through the same
//! helpers [`charge`] uses. How fast the host simulates LC says nothing
//! about what LC is charged.

use super::KernelCtx;
use crate::sqt::Sqt;
use upmem_sim::meter::PhaseMeter;

/// How squarings are costed in the closed-form [`charge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SquareCost {
    /// Native multiply (32 cycles on UPMEM).
    Multiply,
    /// SQT lookup with the given WRAM hit rate (1.0 for the 8-bit table).
    SqtLookup {
        /// Fraction of lookups served from WRAM.
        wram_hit_rate: f64,
    },
}

/// Closed-form cost of one LC invocation — identical totals to a one-group
/// [`run_bulk`] for the given hit rate (exactly 1.0 in the 8-bit regime).
/// What both modes book a group's LC with.
pub fn charge(
    ctx: &KernelCtx<'_>,
    meter: &mut PhaseMeter,
    m: usize,
    cb: usize,
    dsub: usize,
    square: SquareCost,
) {
    let elems = (m * cb * dsub) as u64;
    match square {
        SquareCost::Multiply => meter.charge_mul(elems, ctx.costs),
        SquareCost::SqtLookup { wram_hit_rate } => {
            let hits = (elems as f64 * wram_hit_rate.clamp(0.0, 1.0)).round() as u64;
            let hits = hits.min(elems);
            charge_sqt_lookups(ctx, meter, hits, elems - hits);
        }
    }
    charge_nonsquare(ctx, meter, m, cb, dsub);
}

/// `hits` SQT lookups served from WRAM plus `misses` spilled to MRAM —
/// the bulk form of that many `Sqt::square` calls.
fn charge_sqt_lookups(ctx: &KernelCtx<'_>, meter: &mut PhaseMeter, hits: u64, misses: u64) {
    // WRAM hits pay the calibrated pipeline cost (|diff|, addressing,
    // dependent load, bank contention) plus the entry read ...
    meter.charge_alu(hits * ctx.costs.sqt_lookup);
    meter.wram_read_bytes(hits * 4);
    // ... spills only issue the DMA (4 ALU) and pay in bandwidth
    meter.charge_alu(misses * 4 * ctx.costs.alu);
    meter.mram_random_read(misses, 4, ctx.dma_burst);
}

/// Everything LC costs *besides* the squarings: subtract/accumulate ALU
/// work, codebook + residual reads, and the LUT write. Shared verbatim by
/// [`charge`] and [`run_bulk`], which is what keeps functional and
/// closed-form totals identical by construction.
fn charge_nonsquare(ctx: &KernelCtx<'_>, meter: &mut PhaseMeter, m: usize, cb: usize, dsub: usize) {
    let b = ctx.bits.bytes();
    let entries = (m * cb) as u64;
    let elems = entries * dsub as u64;
    // subtract + accumulate per element
    meter.charge_add_c(2 * elems, ctx.costs);
    // codebook + residual reads per entry, LUT written once
    if ctx.placement.is_resident("codebook") {
        meter.wram_read_bytes(elems * b);
    } else {
        meter.mram_stream_read_chunks(entries, elems * b);
    }
    if ctx.placement.is_resident("residual") {
        meter.wram_read_bytes(elems * b);
    } else {
        meter.mram_stream_read_chunks(entries, elems * b);
    }
    ctx.write(meter, "lut", entries * 4);
}

/// Exact `(WRAM hits, MRAM spills)` of the `ngroups * m * cb * dsub` SQT
/// lookups one [`run_bulk`] call performs, against transposed codewords
/// (`[s][d][j]`). Operands are `u8`, so `|diff| <= 255`: a window of 256 or
/// more entries serves every lookup, an empty one (table not resident)
/// none, and only a window in between needs the differences counted.
fn sqt_split(
    window: usize,
    residuals: &[u8],
    ngroups: usize,
    codebooks_t: &[u8],
    m: usize,
    cb: usize,
    dsub: usize,
) -> (u64, u64) {
    let lookups = (ngroups * m * cb * dsub) as u64;
    let hits = if window >= 256 {
        lookups
    } else if window == 0 {
        0
    } else {
        let mut hits = 0u64;
        for residual in residuals.chunks_exact(m * dsub).take(ngroups) {
            for (&r, components) in residual.iter().zip(codebooks_t.chunks_exact(cb)) {
                hits += components
                    .iter()
                    .filter(|&&c| (r.abs_diff(c) as usize) < window)
                    .count() as u64;
            }
        }
        hits
    };
    (hits, lookups - hits)
}

/// Bulk LUT construction for `ngroups` residuals against one codebook: the
/// one-lane build of each group in turn, then their charge, with a partial
/// SQT window's hits counted exactly.
///
/// `residuals` is `ngroups * m * dsub` flat (one padded residual per
/// group); `luts` receives `ngroups * m * cb` entries, group-major. The
/// charges are exactly `ngroups` times one [`charge`] at the call's
/// measured hit rate.
#[allow(clippy::too_many_arguments)]
pub fn run_bulk(
    ctx: &KernelCtx<'_>,
    meter: &mut PhaseMeter,
    residuals: &[u8],
    ngroups: usize,
    codebooks: &[u8],
    m: usize,
    cb: usize,
    dsub: usize,
    sqt: Option<&mut Sqt>,
    luts: &mut Vec<u32>,
) {
    assert!(residuals.len() >= ngroups * m * dsub);
    let codebooks_t = transpose(codebooks, m, cb, dsub);
    luts.resize(ngroups * m * cb, 0);
    // a one-lane table is a plain `[s][j]` one, so group-major output is
    // one-lane builds back to back
    for (residual, lut) in residuals
        .chunks_exact(m * dsub)
        .zip(luts.chunks_exact_mut(m * cb))
    {
        fill::<1, 32>(residual, &codebooks_t, cb, dsub, lut);
    }
    match sqt {
        None => meter.charge_mul((ngroups * m * cb * dsub) as u64, ctx.costs),
        Some(table) => {
            let window = table.wram_window();
            let (hits, misses) = sqt_split(window, residuals, ngroups, &codebooks_t, m, cb, dsub);
            table.hits_wram += hits;
            table.hits_mram += misses;
            charge_sqt_lookups(ctx, meter, hits, misses);
        }
    }
    for _ in 0..ngroups {
        charge_nonsquare(ctx, meter, m, cb, dsub);
    }
}

/// `codebooks` (`[s][j][d]`, `m * cb * dsub` quantized codewords) as
/// [`build`] reads them: `[s][d][j]`, so the `cb` codewords' `d`-th
/// components are contiguous.
pub(crate) fn transpose(codebooks: &[u8], m: usize, cb: usize, dsub: usize) -> Vec<u8> {
    assert_eq!(codebooks.len(), m * cb * dsub);
    let mut t = vec![0u8; codebooks.len()];
    for (block, t_s) in codebooks
        .chunks_exact(cb * dsub)
        .zip(t.chunks_exact_mut(cb * dsub))
    {
        for (d, row) in t_s.chunks_exact_mut(cb).enumerate() {
            for (dst, &c) in row.iter_mut().zip(block[d..].iter().step_by(dsub)) {
                *dst = c;
            }
        }
    }
    t
}

/// Build the integer ADC lookup tables of `lanes` residuals at once,
/// interleaved: entry `(s, j)` of lane `l` lands at
/// `luts[(s * cb + j) * w + l]`, where the lane stride `w` is
/// `lane_width(lanes)` and `luts` is `m * cb * w` long; the padding lanes
/// hold the tables of an all-zero residual.
///
/// `residuals` is `lanes * m * dsub` flat (one padded residual per lane);
/// `codebooks_t` is the [`transpose`] of the `m * cb * dsub` quantized
/// codewords. Charges nothing — a DPU books the groups it serves through
/// [`charge`]. Integer sums are associative, so every entry is
/// bit-identical to a one-lane build of the same residual.
pub(crate) fn build(
    residuals: &[u8],
    lanes: usize,
    codebooks_t: &[u8],
    m: usize,
    cb: usize,
    dsub: usize,
    luts: &mut [u32],
) {
    let w = super::lane_width(lanes);
    let width = m * dsub;
    assert!(residuals.len() >= lanes * width);
    assert_eq!(luts.len(), m * cb * w);
    // the residuals `[s][d][lane]`, so one codeword term serves every lane
    let mut rt = vec![0u8; width * w];
    for (l, residual) in residuals.chunks_exact(width).take(lanes).enumerate() {
        for (e, &r) in residual.iter().enumerate() {
            rt[e * w + l] = r;
        }
    }
    // `J = 32 / W` codewords per register block (see `fill`)
    match w {
        1 => fill::<1, 32>(&rt, codebooks_t, cb, dsub, luts),
        2 => fill::<2, 16>(&rt, codebooks_t, cb, dsub, luts),
        4 => fill::<4, 8>(&rt, codebooks_t, cb, dsub, luts),
        8 => fill::<8, 4>(&rt, codebooks_t, cb, dsub, luts),
        _ => fill::<16, 2>(&rt, codebooks_t, cb, dsub, luts),
    }
}

/// The one LUT build loop, over `W` lanes whose residuals `rt` are laid
/// out `[s][d][lane]`, against transposed codewords (`[s][d][j]`). Entries
/// are built `J` codewords x `W` lanes at a time (callers keep `J * W` at
/// 32 `u32` accumulators): per residual component `d`, `J` contiguous
/// codeword bytes against the `W` lanes' bytes, so the vector lanes are
/// codewords at one lane and queries at 16 alike. Each entry is stored
/// once, so reused `luts` storage needs no zero-fill. Never inlined, for
/// the reason `dc::scan_lanes` gives: a loop like this one vectorises on
/// its own, and in some callers' bodies not.
#[inline(never)]
fn fill<const W: usize, const J: usize>(
    rt: &[u8],
    codebooks_t: &[u8],
    cb: usize,
    dsub: usize,
    luts: &mut [u32],
) {
    assert!(dsub > 0, "a LUT entry needs at least one squared term");
    let (rt, _) = rt.as_chunks::<W>();
    let (rows, _) = luts.as_chunks_mut::<W>();
    for ((lut_s, t_s), r_s) in rows
        .chunks_exact_mut(cb)
        .zip(codebooks_t.chunks_exact(dsub * cb))
        .zip(rt.chunks_exact(dsub))
    {
        let full = cb / J * J;
        for j0 in (0..full).step_by(J) {
            fill_block::<W, J>(r_s, t_s, cb, j0, lut_s);
        }
        for j0 in full..cb {
            fill_block::<W, 1>(r_s, t_s, cb, j0, lut_s);
        }
    }
}

/// Entries `j0..j0 + J` of one subspace's table `lut_s`.
#[inline(always)]
fn fill_block<const W: usize, const J: usize>(
    r_s: &[[u8; W]],
    t_s: &[u8],
    cb: usize,
    j0: usize,
    lut_s: &mut [[u32; W]],
) {
    let square = |r: u8, c: u8| {
        let diff = r.abs_diff(c) as u32;
        diff * diff
    };
    let mut acc = [[0u32; W]; J];
    for (r, components) in r_s.iter().zip(t_s.chunks_exact(cb)) {
        let c: &[u8; J] = components[j0..j0 + J].try_into().expect("J codewords");
        for (a, &c) in acc.iter_mut().zip(c) {
            for (a, &r) in a.iter_mut().zip(r) {
                *a += square(r, c);
            }
        }
    }
    lut_s[j0..j0 + J].copy_from_slice(&acc);
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

    /// 2 subspaces x 2 entries x 2 dims
    fn toy() -> (Vec<u8>, Vec<u8>) {
        let residual = vec![10u8, 20, 30, 40];
        let codebooks = vec![
            10u8, 20, // s0 j0 -> dist 0
            0, 0, // s0 j1 -> 100 + 400 = 500
            30, 40, // s1 j0 -> 0
            50, 10, // s1 j1 -> 400 + 900 = 1300
        ];
        (residual, codebooks)
    }

    #[test]
    fn lut_values_are_exact_squared_distances() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let (r, cbk) = toy();
        let mut m = PhaseMeter::default();
        let mut lut = Vec::new();
        run_bulk(&c, &mut m, &r, 1, &cbk, 2, 2, 2, None, &mut lut);
        assert_eq!(lut, vec![0, 500, 0, 1300]);
    }

    #[test]
    fn sqt_gives_identical_lut() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let (r, cbk) = toy();
        let mut m1 = PhaseMeter::default();
        let mut lut_mul = Vec::new();
        run_bulk(&c, &mut m1, &r, 1, &cbk, 2, 2, 2, None, &mut lut_mul);
        let mut m2 = PhaseMeter::default();
        let mut sqt = Sqt::for_u8();
        let mut lut_sqt = Vec::new();
        run_bulk(
            &c,
            &mut m2,
            &r,
            1,
            &cbk,
            2,
            2,
            2,
            Some(&mut sqt),
            &mut lut_sqt,
        );
        assert_eq!(lut_mul, lut_sqt, "SQT must be lossless");
    }

    #[test]
    fn sqt_reduces_cycles_but_adds_traffic() {
        let placement = plan(
            &[WramCandidate {
                name: "sqt",
                bytes: 1024,
                accesses: 1e9,
            }],
            2048,
        );
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let (r, cbk) = toy();
        let mut with_mul = PhaseMeter::default();
        let mut lut = Vec::new();
        run_bulk(&c, &mut with_mul, &r, 1, &cbk, 2, 2, 2, None, &mut lut);
        let mut with_sqt = PhaseMeter::default();
        let mut sqt = Sqt::for_u8();
        run_bulk(
            &c,
            &mut with_sqt,
            &r,
            1,
            &cbk,
            2,
            2,
            2,
            Some(&mut sqt),
            &mut lut,
        );
        assert!(
            with_sqt.cycles < with_mul.cycles,
            "sqt {} mul {}",
            with_sqt.cycles,
            with_mul.cycles
        );
        assert!(with_sqt.wram_read > with_mul.wram_read);
    }

    /// The per-element LC the bulk kernel replaced, kept as its oracle:
    /// one metered `Sqt::square` (or one charged multiply) per element.
    #[allow(clippy::too_many_arguments)]
    fn per_element_reference(
        c: &KernelCtx<'_>,
        meter: &mut PhaseMeter,
        residuals: &[u8],
        ngroups: usize,
        codebooks: &[u8],
        m: usize,
        cb: usize,
        dsub: usize,
        mut sqt: Option<&mut Sqt>,
    ) -> Vec<u32> {
        let mut luts = Vec::with_capacity(ngroups * m * cb);
        for g in 0..ngroups {
            for s in 0..m {
                let r_sub = &residuals[(g * m + s) * dsub..][..dsub];
                for j in 0..cb {
                    let cw = &codebooks[(s * cb + j) * dsub..][..dsub];
                    let mut acc = 0u64;
                    for (&r, &cv) in r_sub.iter().zip(cw) {
                        let diff = r as i32 - cv as i32;
                        acc += match sqt.as_deref_mut() {
                            Some(table) => table.square(diff, meter, c.costs, c.dma_burst),
                            None => {
                                meter.charge_mul(1, c.costs);
                                (diff * diff) as u64
                            }
                        };
                    }
                    luts.push(acc as u32);
                }
            }
            charge_nonsquare(c, meter, m, cb, dsub);
        }
        luts
    }

    #[test]
    fn bulk_build_matches_the_per_element_reference() {
        let costs = IsaCosts::upmem();
        let none = WramPlacement::none();
        let all = plan(
            &["codebook", "residual", "lut"].map(|name| WramCandidate {
                name,
                bytes: 1,
                accesses: 1.0,
            }),
            1 << 10,
        );
        // no SQT, every lookup a WRAM hit, every lookup a spill, and a
        // 64-entry window that splits u8 differences into both
        let tables: [(DataBits, Option<Sqt>); 4] = [
            (DataBits::B8, None),
            (DataBits::B8, Some(Sqt::for_u8())),
            (
                DataBits::B8,
                Some(Sqt::for_bits_resident(DataBits::B8, false)),
            ),
            (DataBits::B16, Some(Sqt::for_u16(64))),
        ];
        let m = 3usize;
        let mut state = 0x5eedu64;
        let mut bytes = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 56) as u8
                })
                .collect()
        };
        // one LUT buffer across every shape: stale entries from a larger
        // earlier call must never leak into a later one
        let mut luts = Vec::new();
        for (bits, table) in tables {
            for placement in [&none, &all] {
                let c = KernelCtx {
                    costs: &costs,
                    dma_burst: 8,
                    bits,
                    placement,
                };
                for dsub in [1usize, 3, 4, 8] {
                    for cb in [16usize, 256] {
                        for ngroups in [1usize, 3, 8, 9, crate::kernels::LANES] {
                            let codebooks = bytes(m * cb * dsub);
                            let residuals = bytes(ngroups * m * dsub);
                            let case = format!("{table:?} dsub={dsub} cb={cb} groups={ngroups}");

                            let mut want_sqt = table.clone();
                            let mut want_meter = PhaseMeter::default();
                            let want = per_element_reference(
                                &c,
                                &mut want_meter,
                                &residuals,
                                ngroups,
                                &codebooks,
                                m,
                                cb,
                                dsub,
                                want_sqt.as_mut(),
                            );

                            let mut got_sqt = table.clone();
                            let mut got_meter = PhaseMeter::default();
                            run_bulk(
                                &c,
                                &mut got_meter,
                                &residuals,
                                ngroups,
                                &codebooks,
                                m,
                                cb,
                                dsub,
                                got_sqt.as_mut(),
                                &mut luts,
                            );

                            assert_eq!(luts, want, "{case}");
                            assert_eq!(got_meter, want_meter, "{case}");
                            let hits =
                                |t: &Option<Sqt>| t.as_ref().map(|t| (t.hits_wram, t.hits_mram));
                            assert_eq!(hits(&got_sqt), hits(&want_sqt), "{case}");
                            if let Some((wram, mram)) = hits(&got_sqt) {
                                assert_eq!(wram + mram, (ngroups * m * cb * dsub) as u64);
                                if bits == DataBits::B16 {
                                    assert!(wram > 0 && mram > 0, "{case}: window must split");
                                }
                            }

                            // the engine's build: the groups as the lanes of
                            // one interleaved build, entry for entry
                            let w = crate::kernels::lane_width(ngroups);
                            let mut interleaved = vec![u32::MAX; m * cb * w];
                            let codebooks_t = transpose(&codebooks, m, cb, dsub);
                            build(
                                &residuals,
                                ngroups,
                                &codebooks_t,
                                m,
                                cb,
                                dsub,
                                &mut interleaved,
                            );
                            for (g, lut) in luts.chunks_exact(m * cb).enumerate() {
                                for (e, &want) in lut.iter().enumerate() {
                                    assert_eq!(
                                        interleaved[e * w + g],
                                        want,
                                        "{case}: group {g} entry {e}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lut_size_is_m_times_cb() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let residual = vec![0u8; 4 * 3];
        let codebooks = vec![0u8; 4 * 8 * 3];
        let mut m = PhaseMeter::default();
        let mut lut = Vec::new();
        run_bulk(
            &c, &mut m, &residual, 1, &codebooks, 4, 8, 3, None, &mut lut,
        );
        assert_eq!(lut.len(), 32);
        assert!(lut.iter().all(|&v| v == 0));
    }
}
