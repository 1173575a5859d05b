//! Blocked, auto-vectorization-friendly distance kernels.
//!
//! The scalar kernels in [`crate::distance`] are written as a single
//! fold (`acc += d * d`), which forms one serial dependency chain: without
//! `-ffast-math` the compiler may not reassociate float adds, so the loop
//! retires one accumulation per FP-add latency and never vectorizes. The
//! kernels here restructure the same arithmetic three ways:
//!
//! 1. **Multi-accumulator unrolling** — [`l2_sq_f32`] and [`dot_f32`]
//!    keep [`LANES`] independent partial sums, one per vector lane, so
//!    LLVM can map the loop body onto SIMD registers and the dependency
//!    chain shrinks by `LANES` times. The final reduction is a pairwise
//!    tree (better numerics than left-fold, and lane-order independent).
//! 2. **Norm decomposition** — [`l2_sq_batch`] computes one-query-vs-N-rows
//!    distances as `‖q‖² − 2·q·c + ‖c‖²`. With row norms precomputed once
//!    (they are reused across every query of a batch, every Lloyd
//!    iteration, or every probe), the per-row work drops from
//!    subtract+square+add to a pure dot product — and a dot product is the
//!    kernel matrix-multiply hardware and autovectorizers are best at.
//!    The same decomposition is what lets cluster locating be formulated
//!    as a blocked GEMM (`Q · Cᵀ` plus rank-1 norm corrections) in
//!    `drim-ann`'s CL phase.
//! 3. **Register-blocked ADC scans** — [`adc_scan_f32`] walks PQ codes
//!    eight points at a time with the subspace loop outermost, so one LUT
//!    row (`cb` entries, subspace-major layout) stays hot in L1 across
//!    eight gathers and the eight accumulators are independent.
//!
//! Numerical contract: the `f32` kernels agree with the scalar reference
//! to within a few ULPs of reassociation error (tested at 1e-4 relative).
//! [`l2_sq_batch`] additionally carries the cancellation error of the
//! decomposition (clamped at zero), which is why PQ encoding's
//! nearest-codeword argmin ([`crate::pq::ProductQuantizer::encode_into`])
//! does not use it: its codeword-blocked kernel computes every distance
//! with exactly [`l2_sq_f32`]'s expression tree, and the contract is
//! stated there. The ADC LUT build uses the
//! decomposition too (GEMM-formulated in `pq`'s `lut_batch` against cached
//! codeword norms), trading a few ULPs of cancellation for a
//! reduction-free, batch-amortized construction.

/// Unroll width of the f32 kernels: 8 lanes = one AVX register or two
/// SSE/NEON registers of `f32`.
pub const LANES: usize = 8;

/// Pairwise tree reduction of the lane accumulators.
#[inline]
pub(crate) fn reduce8(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// Squared L2 distance between two `f32` slices (multi-accumulator form).
///
/// Same arithmetic as [`crate::distance::l2_sq_f32`], reassociated across
/// [`LANES`] independent partial sums.
#[inline]
pub fn l2_sq_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let a_chunks = a.chunks_exact(LANES);
    let b_chunks = b.chunks_exact(LANES);
    let a_rem = a_chunks.remainder();
    let b_rem = b_chunks.remainder();
    for (ca, cb) in a_chunks.zip(b_chunks) {
        for l in 0..LANES {
            let d = ca[l] - cb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a_rem.iter().zip(b_rem.iter()) {
        let d = x - y;
        tail += d * d;
    }
    reduce8(acc) + tail
}

/// Inner product of two `f32` slices (multi-accumulator form).
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let a_chunks = a.chunks_exact(LANES);
    let b_chunks = b.chunks_exact(LANES);
    let a_rem = a_chunks.remainder();
    let b_rem = b_chunks.remainder();
    for (ca, cb) in a_chunks.zip(b_chunks) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a_rem.iter().zip(b_rem.iter()) {
        tail += x * y;
    }
    reduce8(acc) + tail
}

/// Squared L2 norm (unrolled).
#[inline]
pub fn norm_sq_f32(a: &[f32]) -> f32 {
    dot_f32(a, a)
}

/// Squared norms of every `dim`-wide row of `rows_flat`.
///
/// These are the cached `‖c‖²` terms of the decomposition; compute them
/// once per table (centroid set, codebook, training set) and reuse across
/// queries / iterations.
pub fn row_norms_f32(rows_flat: &[f32], dim: usize) -> Vec<f32> {
    debug_assert!(dim > 0 && rows_flat.len().is_multiple_of(dim));
    rows_flat.chunks_exact(dim).map(norm_sq_f32).collect()
}

/// [`row_norms_f32`] into a caller-owned scratch buffer (cleared and
/// refilled) — per-row bits identical to [`norm_sq_f32`] on each row, so
/// hoisting per-row norm calls into one per-block pass (as
/// `ann_core::blockscan` does) cannot change any downstream result.
pub fn row_norms_into(rows_flat: &[f32], dim: usize, out: &mut Vec<f32>) {
    debug_assert!(dim > 0 && rows_flat.len().is_multiple_of(dim));
    out.clear();
    out.extend(rows_flat.chunks_exact(dim).map(norm_sq_f32));
}

/// Fused one-query-vs-N-rows squared distances via the
/// `‖q‖² − 2·q·c + ‖c‖²` decomposition with cached row norms.
///
/// `row_norms` must be `row_norms_f32(rows_flat, dim)` (or equal). Results
/// are clamped at zero (cancellation can produce tiny negatives for rows
/// nearly equal to the query). `out` is cleared and refilled.
pub fn l2_sq_batch(
    q: &[f32],
    rows_flat: &[f32],
    dim: usize,
    row_norms: &[f32],
    out: &mut Vec<f32>,
) {
    debug_assert!(dim > 0 && rows_flat.len().is_multiple_of(dim));
    debug_assert_eq!(q.len(), dim);
    debug_assert_eq!(row_norms.len(), rows_flat.len() / dim);
    let qn = norm_sq_f32(q);
    out.clear();
    out.extend(
        rows_flat
            .chunks_exact(dim)
            .zip(row_norms.iter())
            .map(|(row, &rn)| (qn + rn - 2.0 * dot_f32(q, row)).max(0.0)),
    );
}

/// Fused nearest-row search: index and squared distance of the row of
/// `rows_flat` closest to `q`, using the decomposition with cached norms.
///
/// The constant `‖q‖²` term is skipped during the argmin and added back
/// only for the winner. Returns `None` for an empty row set.
pub fn nearest_row(
    q: &[f32],
    rows_flat: &[f32],
    dim: usize,
    row_norms: &[f32],
) -> Option<(usize, f32)> {
    debug_assert!(dim > 0 && rows_flat.len().is_multiple_of(dim));
    debug_assert_eq!(row_norms.len(), rows_flat.len() / dim);
    if rows_flat.is_empty() {
        return None;
    }
    let mut best = (0usize, f32::INFINITY);
    for (i, (row, &rn)) in rows_flat
        .chunks_exact(dim)
        .zip(row_norms.iter())
        .enumerate()
    {
        let score = rn - 2.0 * dot_f32(q, row);
        if score < best.1 {
            best = (i, score);
        }
    }
    Some((best.0, (best.1 + norm_sq_f32(q)).max(0.0)))
}

/// Points-per-block of the register-blocked ADC scan.
pub const ADC_BLOCK: usize = 8;

/// Blocked ADC scan: accumulate the `m` gathered LUT entries of every
/// encoded point into `out` (one `f32` distance per point).
///
/// `codes` is `n * m` flat (point-major); `lut` is `m * cb` flat
/// (subspace-major). Points are processed [`ADC_BLOCK`] at a time with the
/// subspace loop outermost, so each LUT row is touched once per block of
/// eight points instead of once per point.
pub fn adc_scan_f32(codes: &[u16], m: usize, cb: usize, lut: &[f32], out: &mut Vec<f32>) {
    debug_assert!(m > 0);
    debug_assert_eq!(codes.len() % m, 0);
    debug_assert_eq!(lut.len(), m * cb);
    let n = codes.len() / m;
    out.clear();
    out.reserve(n);

    let mut blocks = codes.chunks_exact(ADC_BLOCK * m);
    for block in &mut blocks {
        // independent per-point code slices: sequential loads per point,
        // eight dependency-free accumulators across points
        let (c0, r) = block.split_at(m);
        let (c1, r) = r.split_at(m);
        let (c2, r) = r.split_at(m);
        let (c3, r) = r.split_at(m);
        let (c4, r) = r.split_at(m);
        let (c5, r) = r.split_at(m);
        let (c6, c7) = r.split_at(m);
        let mut acc = [0.0f32; ADC_BLOCK];
        for s in 0..m {
            let lut_row = &lut[s * cb..(s + 1) * cb];
            acc[0] += lut_row[c0[s] as usize];
            acc[1] += lut_row[c1[s] as usize];
            acc[2] += lut_row[c2[s] as usize];
            acc[3] += lut_row[c3[s] as usize];
            acc[4] += lut_row[c4[s] as usize];
            acc[5] += lut_row[c5[s] as usize];
            acc[6] += lut_row[c6[s] as usize];
            acc[7] += lut_row[c7[s] as usize];
        }
        out.extend_from_slice(&acc);
    }
    for code in blocks.remainder().chunks_exact(m) {
        let mut acc = 0.0f32;
        for (s, &c) in code.iter().enumerate() {
            acc += lut[s * cb + c as usize];
        }
        out.push(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance;

    /// Deterministic pseudo-random f32 stream in [-1, 1).
    fn prand_f32(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn prand_u8(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    fn assert_rel_close(a: f32, b: f32, tol: f32) {
        let denom = a.abs().max(b.abs()).max(1e-12);
        assert!((a - b).abs() / denom <= tol, "{a} vs {b}");
    }

    /// Lengths covering empty slices, odd lengths, and non-multiple-of-8
    /// dims — the shapes the unroll's remainder path must get right.
    const LENGTHS: [usize; 10] = [0, 1, 2, 3, 7, 8, 9, 15, 96, 131];

    #[test]
    fn l2_f32_matches_scalar_reference() {
        for &len in &LENGTHS {
            let a = prand_f32(len, 11);
            let b = prand_f32(len, 23);
            assert_rel_close(l2_sq_f32(&a, &b), distance::l2_sq_f32(&a, &b), 1e-4);
        }
    }

    #[test]
    fn dot_matches_scalar_reference() {
        for &len in &LENGTHS {
            let a = prand_f32(len, 3);
            let b = prand_f32(len, 5);
            assert_rel_close(dot_f32(&a, &b), distance::dot_f32(&a, &b), 1e-4);
        }
    }

    #[test]
    fn row_norms_match_per_row_norm() {
        for dim in [1usize, 3, 8, 17, 96] {
            let rows = prand_f32(dim * 9, 7);
            let norms = row_norms_f32(&rows, dim);
            for (i, row) in rows.chunks_exact(dim).enumerate() {
                assert_rel_close(norms[i], distance::norm_sq_f32(row), 1e-4);
            }
        }
    }

    #[test]
    fn batch_matches_scalar_per_pair() {
        for dim in [1usize, 3, 8, 17, 96, 100] {
            let q = prand_f32(dim, 13);
            let rows = prand_f32(dim * 33, 17);
            let norms = row_norms_f32(&rows, dim);
            let mut fused = Vec::new();
            l2_sq_batch(&q, &rows, dim, &norms, &mut fused);
            assert_eq!(fused.len(), 33);
            for (i, row) in rows.chunks_exact(dim).enumerate() {
                let reference = distance::l2_sq_f32(&q, row);
                // the decomposition may cancel; compare against the scale
                // of the operands rather than the (possibly tiny) result
                let scale = (norms[i] + reference).max(1.0);
                assert!(
                    (fused[i] - reference).abs() / scale <= 1e-4,
                    "dim {dim} row {i}: fused {} vs {}",
                    fused[i],
                    reference
                );
            }
        }
    }

    #[test]
    fn batch_on_empty_rows_yields_empty() {
        let mut out = vec![1.0f32];
        l2_sq_batch(&[1.0, 2.0], &[], 2, &[], &mut out);
        assert!(out.is_empty());
        assert!(nearest_row(&[1.0, 2.0], &[], 2, &[]).is_none());
    }

    #[test]
    fn batch_self_distance_is_zero_not_negative() {
        let q = prand_f32(96, 19);
        let mut rows = q.clone();
        rows.extend_from_slice(&prand_f32(96, 21));
        let norms = row_norms_f32(&rows, 96);
        let mut out = Vec::new();
        l2_sq_batch(&q, &rows, 96, &norms, &mut out);
        assert!(out[0] >= 0.0, "clamped, not negative: {}", out[0]);
        assert!(out[0] < 1e-3, "self distance ~0: {}", out[0]);
        assert!(out[1] > 1.0);
    }

    #[test]
    fn nearest_row_agrees_with_exhaustive_argmin() {
        for dim in [2usize, 7, 16, 33] {
            let rows = prand_f32(dim * 50, 29);
            let norms = row_norms_f32(&rows, dim);
            for qseed in [1u64, 2, 3] {
                let q = prand_f32(dim, 100 + qseed);
                let (gi, gd) = nearest_row(&q, &rows, dim, &norms).unwrap();
                let mut fused = Vec::new();
                l2_sq_batch(&q, &rows, dim, &norms, &mut fused);
                let bi = fused
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                assert_eq!(gi, bi);
                assert_rel_close(gd, fused[bi], 1e-4);
            }
        }
    }

    #[test]
    fn adc_scan_matches_pointwise_gather() {
        let (m, cb) = (8usize, 32usize);
        let lut: Vec<f32> = prand_f32(m * cb, 41);
        // n = 21 exercises two full blocks + a 5-point remainder
        let n = 21usize;
        let codes: Vec<u16> = {
            let raw = prand_u8(n * m, 43);
            raw.into_iter().map(|x| (x as usize % cb) as u16).collect()
        };
        let mut got = Vec::new();
        adc_scan_f32(&codes, m, cb, &lut, &mut got);
        assert_eq!(got.len(), n);
        for (i, code) in codes.chunks_exact(m).enumerate() {
            let want: f32 = code
                .iter()
                .enumerate()
                .map(|(s, &c)| lut[s * cb + c as usize])
                .sum();
            assert_rel_close(got[i], want, 1e-5);
        }
    }

    #[test]
    fn adc_scan_empty_is_noop() {
        let mut out = vec![9.0f32];
        adc_scan_f32(&[], 4, 8, &[0.0; 32], &mut out);
        assert!(out.is_empty());
    }
}
