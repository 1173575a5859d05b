//! LUT construction (LC) — the compute-heaviest DPU phase.
//!
//! For each subspace `s` and codebook entry `j`, accumulates
//! `sum_d (r[d] - cb[s][j][d])^2` into a `M x CB` distance lookup table.
//! The squaring is where UPMEM's missing multiplier bites (32 cycles each);
//! DRIM-ANN's SQT turns it into one table lookup (paper Section 3.1).
//! Cost model: paper Eq. 6-7.
//!
//! The SQT is lossless, so the multiply and SQT arms differ only in what a
//! squaring *costs* — never in the table they build. [`run_bulk`] therefore
//! has one integer build loop for both, shaped for the host's vector units,
//! and books the squarings once per call from an exact `(hits, misses)`
//! count (`sqt_split`) through the same helpers the closed-form [`charge`]
//! uses. How fast the host simulates LC says nothing about what LC is
//! charged.

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

/// Closed-form cost of one LC invocation — identical totals to [`run`] for
/// the given hit rate (exactly 1.0 in the 8-bit regime). Used by trace mode.
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
/// lookups one [`run_bulk`] call performs. Operands are `u8`, so
/// `|diff| <= 255`: a window of 256 or more entries serves every lookup, an
/// empty one (table not resident) none, and only a window in between needs
/// the differences counted.
fn sqt_split(
    window: usize,
    residuals: &[u8],
    ngroups: usize,
    codebooks: &[u8],
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
            for (r_sub, block) in residual
                .chunks_exact(dsub)
                .zip(codebooks.chunks_exact(cb * dsub))
            {
                for cw in block.chunks_exact(dsub) {
                    hits += r_sub
                        .iter()
                        .zip(cw)
                        .filter(|&(&r, &c)| (r.abs_diff(c) as usize) < window)
                        .count() as u64;
                }
            }
        }
        hits
    };
    (hits, lookups - hits)
}

/// Build the integer ADC lookup table for one (query, cluster) residual.
///
/// `residual` is the quantized residual (`dsub * m` elements after
/// zero-padding); `codebooks` is `m * cb * dsub` quantized codewords.
/// When `sqt` is `Some`, squarings are charged as table lookups; otherwise
/// as native multiplies.
///
/// One-group wrapper around [`run_bulk`] (identical output and charges).
#[allow(clippy::too_many_arguments)]
pub fn run(
    ctx: &KernelCtx<'_>,
    meter: &mut PhaseMeter,
    residual: &[u8],
    codebooks: &[u8],
    m: usize,
    cb: usize,
    dsub: usize,
    sqt: Option<&mut Sqt>,
    lut: &mut Vec<u32>,
) {
    run_bulk(ctx, meter, residual, 1, codebooks, m, cb, dsub, sqt, lut);
}

/// Bulk LUT construction for `ngroups` residuals against one codebook —
/// the batched form of [`run`] the engine uses for its per-DPU (query,
/// cluster) groups.
///
/// `residuals` is `ngroups * m * dsub` flat (one padded residual per
/// group); `luts` receives `ngroups * m * cb` entries, group-major.
///
/// Each subspace's codewords are transposed once per call into a `[d][j]`
/// block (`dsub * cb` bytes), so the `cb` entries of a LUT row are
/// contiguous vector lanes and the block stays hot across the whole group
/// wave. Integer sums are associative, so entries are bit-identical to any
/// other summation order, and the charges are exactly `ngroups` times one
/// [`charge`] at the call's measured hit rate (the accounting trace mode
/// replays).
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
    debug_assert_eq!(codebooks.len(), m * cb * dsub);
    debug_assert!(residuals.len() >= ngroups * m * dsub);
    assert!(dsub > 0, "a LUT entry needs at least one squared term");

    let lut_w = m * cb;
    // no zero-fill of reused storage: the first `d` term of every entry
    // is a plain store, the remaining terms accumulate onto it
    luts.resize(ngroups * lut_w, 0);
    let mut lanes = vec![0u8; dsub * cb];
    let square = |r: u8, c: u8| {
        let diff = r.abs_diff(c) as u32;
        diff * diff
    };
    for (s, block) in codebooks.chunks_exact(cb * dsub).enumerate() {
        for (d, lane) in lanes.chunks_exact_mut(cb).enumerate() {
            for (dst, &c) in lane.iter_mut().zip(block[d..].iter().step_by(dsub)) {
                *dst = c;
            }
        }
        for g in 0..ngroups {
            let r_sub = &residuals[(g * m + s) * dsub..][..dsub];
            let row = &mut luts[g * lut_w + s * cb..][..cb];
            let mut terms = r_sub.iter().zip(lanes.chunks_exact(cb));
            if let Some((&r, lane)) = terms.next() {
                for (entry, &c) in row.iter_mut().zip(lane) {
                    *entry = square(r, c);
                }
            }
            for (&r, lane) in terms {
                for (entry, &c) in row.iter_mut().zip(lane) {
                    *entry += square(r, c);
                }
            }
        }
    }

    match sqt {
        None => meter.charge_mul((ngroups * lut_w * dsub) as u64, ctx.costs),
        Some(table) => {
            let (hits, misses) = sqt_split(
                table.wram_window(),
                residuals,
                ngroups,
                codebooks,
                m,
                cb,
                dsub,
            );
            table.hits_wram += hits;
            table.hits_mram += misses;
            charge_sqt_lookups(ctx, meter, hits, misses);
        }
    }
    for _ in 0..ngroups {
        charge_nonsquare(ctx, meter, m, cb, dsub);
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
        run(&c, &mut m, &r, &cbk, 2, 2, 2, None, &mut lut);
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
        run(&c, &mut m1, &r, &cbk, 2, 2, 2, None, &mut lut_mul);
        let mut m2 = PhaseMeter::default();
        let mut sqt = Sqt::for_u8();
        let mut lut_sqt = Vec::new();
        run(&c, &mut m2, &r, &cbk, 2, 2, 2, Some(&mut sqt), &mut lut_sqt);
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
        run(&c, &mut with_mul, &r, &cbk, 2, 2, 2, None, &mut lut);
        let mut with_sqt = PhaseMeter::default();
        let mut sqt = Sqt::for_u8();
        run(
            &c,
            &mut with_sqt,
            &r,
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
                        for ngroups in [1usize, 3, 8, 9] {
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
        run(&c, &mut m, &residual, &codebooks, 4, 8, 3, None, &mut lut);
        assert_eq!(lut.len(), 32);
        assert!(lut.iter().all(|&v| v == 0));
    }
}
