//! Blocked, auto-vectorization-friendly distance kernels.
//!
//! The scalar kernels in [`crate::distance`] are written as a single
//! fold (`acc += d * d`), which forms one serial dependency chain: without
//! `-ffast-math` the compiler may not reassociate float adds, so the loop
//! retires one accumulation per FP-add latency and never vectorizes. The
//! kernels here restructure the same arithmetic four ways:
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
//! 4. **Transposed row groups** — [`l2_sq_group`] computes [`l2_sq_f32`]
//!    for 16 rows at once over a copy transposed by [`to_groups`], with the
//!    loops running across the rows, so each row keeps the per-row
//!    kernel's exact expression tree. k-means++ seeding (rows = training
//!    points), exact search (rows = a block's queries) and PQ encoding
//!    (rows = 16 residuals' subvectors, or one subspace's codewords for a
//!    single row) use it; `first_min` is the matching argmin over
//!    16-wide blocks of scores.
//!
//! Numerical contract: the `f32` kernels agree with the scalar reference
//! to within a few ULPs of reassociation error (tested at 1e-4 relative).
//! [`l2_sq_batch`] additionally carries the cancellation error of the
//! decomposition (clamped at zero), which is why PQ encoding's
//! nearest-codeword argmin
//! ([`crate::pq::ProductQuantizer::encode_batch_into`]) does not use it:
//! it computes every distance with [`l2_sq_group`], [`l2_sq_f32`]'s exact
//! expression tree, and the contract is stated there. The ADC LUT build
//! uses the decomposition too (GEMM-formulated in `pq`'s `lut_batch` against cached
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

/// Rows per group of the transposed layout that [`to_groups`] writes and
/// [`l2_sq_group`] reads: the width their loops are vectorised across.
pub const GROUP: usize = 16;

/// Rows of `dim` floats (`rows_flat`, row-major) transposed per group of
/// [`GROUP`] rows: element `g·dim·GROUP + j·GROUP + p` is coordinate `j` of
/// row `g·GROUP + p`. The last group is padded with zero rows.
pub fn to_groups(rows_flat: &[f32], dim: usize) -> Vec<f32> {
    let span = dim * GROUP;
    let mut out = vec![0.0f32; (rows_flat.len() / dim).div_ceil(GROUP) * span];
    for (i, row) in rows_flat.chunks_exact(dim).enumerate() {
        let group = &mut out[i / GROUP * span..][..span];
        for (j, &x) in row.iter().enumerate() {
            group[j * GROUP + i % GROUP] = x;
        }
    }
    out
}

/// `l2_sq_f32(row, v)` for each of the [`GROUP`] rows of one group of
/// [`to_groups`]' layout, vectorised across the rows: the same bits for
/// every result that is not NaN, and NaN where that is NaN (Rust leaves a
/// NaN result's payload unspecified, and it follows the operand order the
/// compiler picks at each call site).
///
/// **Exact-tree contract.** Each row keeps [`l2_sq_f32`]'s expression
/// tree: with `d = row[j] − v[j]`, lane `l` sums `d²` over dims `l, l + 8,
/// …` below the last multiple of [`LANES`], in order, from `+0.0`; the
/// lanes meet in `reduce8`'s pairwise tree; the tail dims fold left from
/// `+0.0` and are added last (below 8 dims the lanes are all `+0.0` and the
/// distance is `+0.0 + tail`, the same bits as the tail). No sum is
/// reassociated, so the bits do not depend on the vector width, and ties
/// and ±∞ come out exactly as the per-row kernel's.
///
/// `#[inline(always)]`: a call per row group through memory costs more
/// than the distances themselves at narrow widths (PQ encoding's
/// 3-dimensional subspaces ran 2× slower once a fourth caller tipped
/// LLVM's inliner), so every caller gets its own copy of the loops.
#[inline(always)]
pub fn l2_sq_group(group: &[f32], v: &[f32]) -> [f32; GROUP] {
    let group = &group[..v.len() * GROUP];
    let column = |j: usize| -> &[f32; GROUP] {
        group[j * GROUP..][..GROUP]
            .try_into()
            .expect("a slice of GROUP floats is a [f32; GROUP]")
    };
    let full = v.len() - v.len() % LANES;
    let mut lanes = [0.0f32; GROUP];
    if full > 0 {
        let mut acc = [[0.0f32; GROUP]; LANES];
        for chunk in (0..full).step_by(LANES) {
            for (l, a) in acc.iter_mut().enumerate() {
                let (x, s) = (column(chunk + l), v[chunk + l]);
                for p in 0..GROUP {
                    let d = x[p] - s;
                    a[p] += d * d;
                }
            }
        }
        for (p, s) in lanes.iter_mut().enumerate() {
            let a = &acc;
            *s = reduce8([
                a[0][p], a[1][p], a[2][p], a[3][p], a[4][p], a[5][p], a[6][p], a[7][p],
            ]);
        }
    }
    let mut tail = [0.0f32; GROUP];
    for (j, &s) in v.iter().enumerate().skip(full) {
        let x = column(j);
        for p in 0..GROUP {
            let d = x[p] - s;
            tail[p] += d * d;
        }
    }
    // index loops, not `array::from_fn`: unoptimised test builds call this
    // once per codeword of every encoded 16-row block
    for p in 0..GROUP {
        lanes[p] += tail[p];
    }
    lanes
}

/// Index and value of the first strict minimum of `n` scores: what the
/// sequential scan `if score(j) < best.1 { best = (j, score(j)) }` from
/// `(0, ∞)` returns, bit for bit, for every input.
///
/// `block(j0)` gives the scores `j0 .. j0 + GROUP` of each whole block and
/// `one(j)` each score of the ragged tail. Each block position keeps its
/// own first strict-`<` minimum with a branch-free select, so the block
/// loop vectorises across positions. **Exactness:** the sequential scan
/// returns the lowest index whose score equals (`==`) the smallest
/// non-NaN score below `∞`; each position holds the lowest such index of
/// its own subsequence, so taking the smallest position value, ties to
/// the lowest index, recovers it, and the tail (all higher indices) then
/// continues the scan with strict `<`. NaN never compares below anything,
/// `−0.0 == +0.0` is a tie settled by index (the winner's own bits are
/// returned), and with no score below `∞` every position still holds `∞`,
/// so the tie goes to position 0's index 0 and the result is `(0, ∞)`.
#[inline]
pub(crate) fn first_min(
    n: usize,
    mut block: impl FnMut(usize) -> [f32; GROUP],
    mut one: impl FnMut(usize) -> f32,
) -> (usize, f32) {
    let full = n - n % GROUP;
    // per position: its smallest value and the start of the block it
    // came from (a broadcast, not a per-lane index, keeps the select one
    // vector blend)
    let mut best_v = [f32::INFINITY; GROUP];
    let mut best_j0 = [0u32; GROUP];
    for j0 in (0..full).step_by(GROUP) {
        let v = block(j0);
        for p in 0..GROUP {
            let lt = v[p] < best_v[p];
            best_v[p] = if lt { v[p] } else { best_v[p] };
            best_j0[p] = if lt { j0 as u32 } else { best_j0[p] };
        }
    }
    let mut best = first_of_positions(&best_v, &best_j0);
    for j in full..n {
        let v = one(j);
        if v < best.1 {
            best = (j, v);
        }
    }
    best
}

/// [`first_min`]'s merge of its positions: the smallest value, ties to the
/// lowest index `j0[p] + p`. A position that never took a value reads
/// `(p, ∞)`, which can only tie an `∞` best, where position 0's index 0 is
/// lower. Out of line, so the scalar walk over the lanes does not leak into
/// how the block loop before it vectorises.
#[inline(never)]
fn first_of_positions(best_v: &[f32; GROUP], best_j0: &[u32; GROUP]) -> (usize, f32) {
    let mut best = (best_j0[0] as usize, best_v[0]);
    for p in 1..GROUP {
        let (v, i) = (best_v[p], best_j0[p] as usize + p);
        if v < best.1 || (v == best.1 && i < best.0) {
            best = (i, v);
        }
    }
    best
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

    #[test]
    fn l2_sq_group_is_l2_sq_f32_bit_for_bit() {
        // magnitudes from 1e-3 to 1e3 in one vector, so summing the
        // squares in any other association rounds differently; 37 rows,
        // so the last group is padded
        let mut lcg = 0x5EED_u64;
        let mut val = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (lcg >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            unit * 10f32.powi(((lcg >> 20) % 7) as i32 - 3)
        };
        for dim in [1usize, 2, 3, 7, 8, 9, 11, 16, 17, 19, 26, 96, 99] {
            for _ in 0..4 {
                let rows: Vec<f32> = (0..37 * dim).map(|_| val()).collect();
                let v: Vec<f32> = (0..dim).map(|_| val()).collect();
                let groups = to_groups(&rows, dim);
                assert_eq!(groups.len(), 3 * GROUP * dim);
                for (i, row) in rows.chunks_exact(dim).enumerate() {
                    let got = l2_sq_group(&groups[i / GROUP * GROUP * dim..][..GROUP * dim], &v);
                    assert_eq!(
                        got[i % GROUP].to_bits(),
                        l2_sq_f32(row, &v).to_bits(),
                        "dim {dim} row {i}"
                    );
                }
            }
        }
    }

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
