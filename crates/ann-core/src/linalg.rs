//! Dense linear algebra for the host-side hot path: a tiled micro-kernel
//! GEMM.
//!
//! # The tiled GEMM
//!
//! Every product the host computes is `A·Bᵀ` with both operands stored
//! row-major — queries against centroids (CL, k-means assignment,
//! `blockscan`) and residuals against codewords (the LUT build).
//! [`MatrixView::matmul_t`] and its strided ([`MatrixView::matmul_t_into`])
//! and pool-backed ([`MatrixView::matmul_t_into_par`]) forms run it as a
//! real blocked GEMM rather than a naive triple loop:
//!
//! * **Packing** — A is repacked into [`GEMM_MR`]-row panels (k-major,
//!   row-interleaved) and Bᵀ into [`GEMM_NR`]-column panels (k-major,
//!   column-interleaved), so the micro-kernel reads both operands as
//!   contiguous streams. The transpose is absorbed here: Bᵀ's panels are
//!   packed straight from B's row-major storage, so callers never
//!   materialize a transposed copy.
//! * **Micro-kernel** — an `MR x NR` ([`GEMM_MR`] x [`GEMM_NR`] = 4 x 16, exactly one 16-register SIMD file of accumulators) register tile of C
//!   accumulates over the packed panels: `MR * NR` independent
//!   multiply-add chains that LLVM maps onto SIMD registers (the same
//!   multi-accumulator discipline as `kernels::l2_sq_batch`), with zero
//!   loads/stores of C inside the k loop.
//! * **Cache tiling** — `KC`/`MC`/`NC` blocking keeps the packed A block
//!   L2-resident and each packed B panel L1-resident while C streams.
//!
//! # Determinism contract
//!
//! Every output element is accumulated strictly in **ascending-`k`
//! order** (sequentially within each `KC` block, blocks in order), and
//! tile edges are handled by zero-padding panels rather than by switching
//! kernels. An element's value is therefore a pure function of its A row,
//! its B column and `K` — independent of where the element falls in the
//! tiling and of how many other rows/columns are computed alongside it.
//! Batched products are bit-identical to one-column products, which is
//! what lets `ProductQuantizer::lut_batch` promise bit-parity with
//! per-query `lut()`.
//!
//! The parallel entry point [`MatrixView::matmul_t_into_par`] preserves
//! the contract across thread counts: it splits the M dimension into
//! **fixed 1024-row stripes** ([`GEMM_PAR_M_TILE`]) — chunk geometry a
//! pure function of the matrix shape, never of the pool width — and each
//! stripe runs the identical serial kernel, so the product is
//! **bit-identical at any thread count** (pinned by `parallel_parity` and
//! `driver_parity` at 1/2/4/8 threads).

/// Dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wrap a row-major buffer.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Borrowed view of this matrix (no copy).
    #[inline]
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            rows: self.rows,
            cols: self.cols,
            data: &self.data,
        }
    }
}

/// Borrowed row-major `f32` matrix view: lets hot paths run the tiled GEMM
/// over slabs they already own (centroid tables, query blocks, codebooks)
/// without cloning into a [`Matrix`] first.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a> {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: &'a [f32],
}

impl<'a> MatrixView<'a> {
    /// Wrap a row-major slice.
    #[inline]
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "view shape mismatch");
        MatrixView { rows, cols, data }
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Tiled product `self * otherᵀ` (`other` is `n x k` row-major). The
    /// transpose is absorbed into the packing pass — no transposed copy of
    /// `other` is ever materialized.
    pub fn matmul_t(&self, other: &MatrixView<'_>) -> Matrix {
        assert_eq!(self.cols, other.cols, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_t_into(other, &mut out.data, other.rows);
        out
    }

    /// `out[i * ldc + j] += (self * otherᵀ)[i][j]` — accumulate the tiled
    /// product of [`Self::matmul_t`] into a caller-owned strided buffer
    /// (`out` must cover row `self.rows - 1` up to column `other.rows`, and
    /// the touched slots must start zeroed for a plain product).
    pub fn matmul_t_into(&self, other: &MatrixView<'_>, out: &mut [f32], ldc: usize) {
        assert_eq!(self.cols, other.cols, "inner dimensions must agree");
        gemm(
            self.rows, other.rows, self.cols, self.data, self.cols, other.data, other.cols, out,
            ldc,
        );
    }

    /// Pool-backed M-split form of [`Self::matmul_t_into`]: the left
    /// operand's rows are cut into fixed [`GEMM_PAR_M_TILE`]-row stripes and
    /// the stripes are dispatched over the worker pool, each running the
    /// serial tiled GEMM into its own (contiguous, disjoint) row range of
    /// `out`.
    ///
    /// **Bit purity:** stripe boundaries are a pure function of `self.rows`
    /// (never of the thread count), and the tiled GEMM's per-element
    /// arithmetic is a pure function of (A row, B column, K) — see the
    /// module docs — so the split output is bit-identical to one serial
    /// [`Self::matmul_t_into`] call at any pool width, including width 1.
    ///
    /// Intended for single huge products where the caller has no outer
    /// parallelism left to exploit — e.g. `ann_core::blockscan` scanning a
    /// trace-scale centroid table (nlist ≥ 2^16) against one micro-batch
    /// query block.
    pub fn matmul_t_into_par(&self, other: &MatrixView<'_>, out: &mut [f32], ldc: usize) {
        assert_eq!(self.cols, other.cols, "inner dimensions must agree");
        let n = other.rows;
        if self.rows == 0 || n == 0 {
            return;
        }
        assert!(ldc >= n, "output stride must cover the result row");
        assert!(
            out.len() >= (self.rows - 1) * ldc + n,
            "output buffer too small"
        );
        if self.rows <= GEMM_PAR_M_TILE {
            self.matmul_t_into(other, out, ldc);
            return;
        }
        // out rows are contiguous, so a GEMM_PAR_M_TILE-row stripe of the
        // product owns an exclusive `tile * ldc` sub-slice of `out` (the
        // last stripe is whatever remains, possibly short of a full row
        // stride — gemm only requires coverage of its final row's columns).
        // Trimming to the touched extent keeps the chunk count equal to the
        // stripe count even when the caller's buffer is oversized.
        let touched = (self.rows - 1) * ldc + n;
        rayon::par_chunks_mut(&mut out[..touched], GEMM_PAR_M_TILE * ldc, |t, chunk| {
            let i0 = t * GEMM_PAR_M_TILE;
            let rows = GEMM_PAR_M_TILE.min(self.rows - i0);
            let stripe = MatrixView::new(
                rows,
                self.cols,
                &self.data[i0 * self.cols..(i0 + rows) * self.cols],
            );
            stripe.matmul_t_into(other, chunk, ldc);
        });
    }
}

/// Row-stripe height of the pool-backed M-split GEMM
/// ([`MatrixView::matmul_t_into_par`]). Fixed — never derived from the
/// thread count — so the stripe geometry, and with it every output bit, is
/// a pure function of the product shape.
pub const GEMM_PAR_M_TILE: usize = 1024;

/// Micro-kernel tile height (rows of A per register tile).
pub const GEMM_MR: usize = 4;
/// Micro-kernel tile width (columns of B per register tile; two 8-lane
/// vectors of `f32`).
pub const GEMM_NR: usize = 16;
/// K-dimension cache block: one packed `KC x NR` B panel (~16 KiB) stays
/// L1-resident across a whole column sweep.
const GEMM_KC: usize = 256;
/// M-dimension cache block: the packed `MC x KC` A block (~128 KiB) stays
/// L2-resident across all B panels of the current column block.
const GEMM_MC: usize = 128;
/// N-dimension cache block.
const GEMM_NC: usize = 512;

thread_local! {
    /// Per-thread pack-buffer scratch reused across [`gemm`] calls: the
    /// packing pass overwrites every slot the micro-kernel reads (padding
    /// lanes included), so stale contents from a previous product are
    /// harmless and hot callers (per-block CL / assignment, per-subspace
    /// LUT GEMMs) pay no per-call allocation or zero-fill.
    static PACK_SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// The packed, register-blocked GEMM body: `out[i*ldc + j] += Σ_k a[i][k]
/// b[j][k]`, with `b` stored `n x k` row-major at stride `ldb`. See the
/// module docs for the tiling scheme and the determinism contract
/// (ascending-`k` accumulation, zero-padded tile edges).
#[allow(clippy::too_many_arguments)]
fn gemm(
    m: usize,
    n: usize,
    kk: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
) {
    if m == 0 || n == 0 || kk == 0 {
        return;
    }
    debug_assert!(a.len() >= (m - 1) * lda + kk);
    debug_assert!(out.len() >= (m - 1) * ldc + n);

    let kc_max = kk.min(GEMM_KC);
    let a_need = m.min(GEMM_MC).div_ceil(GEMM_MR) * GEMM_MR * kc_max;
    let b_need = n.min(GEMM_NC).div_ceil(GEMM_NR) * GEMM_NR * kc_max;
    PACK_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let (apack, bpack) = (&mut scratch.0, &mut scratch.1);
        if apack.len() < a_need {
            apack.resize(a_need, 0.0);
        }
        if bpack.len() < b_need {
            bpack.resize(b_need, 0.0);
        }
        gemm_body(m, n, kk, a, lda, b, ldb, out, ldc, apack, bpack);
    });
}

/// [`gemm`] with caller-provided (already sized) pack buffers.
#[allow(clippy::too_many_arguments)]
fn gemm_body(
    m: usize,
    n: usize,
    kk: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
    apack: &mut [f32],
    bpack: &mut [f32],
) {
    for jc in (0..n).step_by(GEMM_NC) {
        let nc = (n - jc).min(GEMM_NC);
        let nc_panels = nc.div_ceil(GEMM_NR);
        for pc in (0..kk).step_by(GEMM_KC) {
            let kc = (kk - pc).min(GEMM_KC);
            // pack Bᵀ: NR-column panels, k-major, zero-padded at the edge
            for (p, dstp) in bpack.chunks_mut(kc * GEMM_NR).take(nc_panels).enumerate() {
                let j0 = jc + p * GEMM_NR;
                let jw = (n - j0).min(GEMM_NR);
                for (k, dstk) in dstp.chunks_exact_mut(GEMM_NR).enumerate() {
                    for (jj, dst) in dstk.iter_mut().enumerate() {
                        *dst = if jj < jw {
                            b[(j0 + jj) * ldb + pc + k]
                        } else {
                            0.0
                        };
                    }
                }
            }
            for ic in (0..m).step_by(GEMM_MC) {
                let mc = (m - ic).min(GEMM_MC);
                let mc_panels = mc.div_ceil(GEMM_MR);
                // pack A: MR-row panels, k-major, zero-padded at the edge
                for (q, dstp) in apack.chunks_mut(kc * GEMM_MR).take(mc_panels).enumerate() {
                    let i0 = ic + q * GEMM_MR;
                    let iw = (m - i0).min(GEMM_MR);
                    for (k, dstk) in dstp.chunks_exact_mut(GEMM_MR).enumerate() {
                        for (ii, dst) in dstk.iter_mut().enumerate() {
                            *dst = if ii < iw {
                                a[(i0 + ii) * lda + pc + k]
                            } else {
                                0.0
                            };
                        }
                    }
                }
                for (p, bp) in bpack.chunks(kc * GEMM_NR).take(nc_panels).enumerate() {
                    let j0 = jc + p * GEMM_NR;
                    let jw = (n - j0).min(GEMM_NR);
                    for (q, ap) in apack.chunks(kc * GEMM_MR).take(mc_panels).enumerate() {
                        let i0 = ic + q * GEMM_MR;
                        let iw = (m - i0).min(GEMM_MR);
                        microkernel(ap, bp, &mut out[i0 * ldc + j0..], ldc, iw, jw);
                    }
                }
            }
        }
    }
}

/// `MR x NR` register-tile update: `c[i*ldc + j] += Σ_k ap[k][i] bp[k][j]`
/// over one packed panel pair; only the `iw x jw` valid corner is written
/// back (padded lanes accumulate zeros and are discarded).
///
/// The four tile rows are named, not looped over. With a loop over rows,
/// LLVM could vectorise across the rows instead of along them, keeping
/// the tile on the stack behind a gather and a scatter per `k`, and which
/// of the two it chose changed with edits elsewhere in the crate. On an
/// AVX-512 Xeon (2 vCPUs) that choice moved k-means assignment of 100k
/// points to 64 centroids between 0.03 and 0.27 s, and a 256-query CL
/// pass between 0.2 and 0.7 ms.
#[inline]
fn microkernel(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, iw: usize, jw: usize) {
    /// `row += a * b`, one vector lane per column.
    #[inline(always)]
    fn axpy(row: &mut [f32; GEMM_NR], a: f32, b: &[f32; GEMM_NR]) {
        for (dst, &bj) in row.iter_mut().zip(b) {
            *dst += a * bj;
        }
    }
    let mut acc = [[0.0f32; GEMM_NR]; GEMM_MR];
    let [r0, r1, r2, r3] = &mut acc;
    for (a, b) in ap.chunks_exact(GEMM_MR).zip(bp.chunks_exact(GEMM_NR)) {
        let b: &[f32; GEMM_NR] = b.try_into().unwrap();
        axpy(r0, a[0], b);
        axpy(r1, a[1], b);
        axpy(r2, a[2], b);
        axpy(r3, a[3], b);
    }
    for (i, acc_row) in acc.iter().enumerate().take(iw) {
        let base = i * ldc;
        for (dst, &v) in c[base..base + jw].iter_mut().zip(acc_row.iter()) {
            *dst += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, 2, vec![5.0, 7.0, 6.0, 8.0]);
        let c = a.view().matmul_t(&b.view());
        assert_eq!(c.data, vec![19.0, 22.0, 43.0, 50.0]);
        assert_eq!(matmul_t_naive(&a, &b).data, c.data);
    }

    /// Reference dot-product `A·Bᵀ` (`b` is `n x k`): the parity baseline
    /// for the tiled GEMM.
    fn matmul_t_naive(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.cols, "inner dimensions must agree");
        let mut out = Matrix::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            for j in 0..b.rows {
                let (ar, br) = (a.view().row(i), b.view().row(j));
                out.data[i * b.rows + j] = ar.iter().zip(br).map(|(x, y)| x * y).sum();
            }
        }
        out
    }

    /// Deterministic pseudo-random matrix.
    fn prand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect();
        Matrix::from_rows(rows, cols, data)
    }

    /// Element-wise closeness against a cancellation-aware scale: the
    /// tiled and naive products associate sums differently, so compare
    /// relative to `Σ_k |a||b|`, not the (possibly cancelled) result.
    fn assert_products_close(a: &Matrix, b: &Matrix, got: &Matrix, want: &Matrix) {
        assert_eq!(got.rows, want.rows);
        assert_eq!(got.cols, want.cols);
        let abs = |m: &Matrix| {
            Matrix::from_rows(m.rows, m.cols, m.data.iter().map(|x| x.abs()).collect())
        };
        let scale = matmul_t_naive(&abs(a), &abs(b));
        for i in 0..got.data.len() {
            let s = scale.data[i].max(1.0);
            assert!(
                (got.data[i] - want.data[i]).abs() / s <= 1e-5,
                "elem {i}: {} vs {}",
                got.data[i],
                want.data[i]
            );
        }
    }

    #[test]
    fn tiled_matches_naive_on_ragged_shapes() {
        // 1xN, Nx1, non-multiple-of-tile dims, and shapes crossing the
        // MC (128), KC (256) and NR (16) block boundaries
        let shapes = [
            (1usize, 7usize, 1usize),
            (5, 1, 9),
            (1, 1, 1),
            (3, 5, 4),
            (17, 33, 9),
            (130, 300, 18),
            (129, 257, 31),
            (64, 96, 32),
        ];
        for (si, &(m, k, n)) in shapes.iter().enumerate() {
            let a = prand_matrix(m, k, 11 + si as u64);
            let b = prand_matrix(n, k, 97 + si as u64);
            let tiled = a.view().matmul_t(&b.view());
            let naive = matmul_t_naive(&a, &b);
            assert_products_close(&a, &b, &tiled, &naive);
        }
    }

    #[test]
    fn tiled_handles_empty_shapes() {
        let a = prand_matrix(3, 4, 1);
        let b = Matrix::zeros(0, 4);
        let c = a.view().matmul_t(&b.view());
        assert_eq!((c.rows, c.cols), (3, 0));
        let a0 = Matrix::zeros(0, 4);
        let b4 = prand_matrix(5, 4, 2);
        let c0 = a0.view().matmul_t(&b4.view());
        assert_eq!((c0.rows, c0.cols), (0, 5));
        assert!(c0.data.is_empty());
        // zero inner dimension: well-defined all-zeros product
        let az = Matrix::zeros(3, 0);
        let bz = Matrix::zeros(2, 0);
        assert_eq!(az.view().matmul_t(&bz.view()).data, vec![0.0; 6]);
    }

    #[test]
    fn gemm_results_are_independent_of_batch_width() {
        // the determinism contract: an output column's bits are a pure
        // function of (A, that column of B, K) — computing it alone, in a
        // 7-wide batch, or in the full product gives identical bits
        let (m, k, n) = (67usize, 131usize, 33usize);
        let a = prand_matrix(m, k, 21);
        let b = prand_matrix(n, k, 23); // columns of Bᵀ = rows of b
        let full = a.view().matmul_t(&b.view());
        for lo in [0usize, 1, 7, 16, 32] {
            for width in [1usize, 7] {
                let hi = (lo + width).min(n);
                if lo >= hi {
                    continue;
                }
                let sub = MatrixView::new(hi - lo, k, &b.data[lo * k..hi * k]);
                let part = a.view().matmul_t(&sub);
                for i in 0..m {
                    for j in lo..hi {
                        assert_eq!(
                            part.get(i, j - lo).to_bits(),
                            full.get(i, j).to_bits(),
                            "row {i} col {j} lo {lo} width {width}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn msplit_gemm_bit_identical_to_serial_across_stripes_and_threads() {
        // shapes straddling the GEMM_PAR_M_TILE stripe boundary, plus a
        // multi-stripe shape; the split product must match the serial tiled
        // product bit-for-bit at every pool width
        let (k, n) = (24usize, 8usize);
        for &m in &[
            GEMM_PAR_M_TILE - 1,
            GEMM_PAR_M_TILE,
            GEMM_PAR_M_TILE + 1,
            2 * GEMM_PAR_M_TILE + 333,
        ] {
            let a = prand_matrix(m, k, 41 + m as u64);
            let b = prand_matrix(n, k, 43);
            let mut serial = vec![0.0f32; m * n];
            a.view().matmul_t_into(&b.view(), &mut serial, n);
            for threads in [1usize, 4] {
                let mut par = vec![0.0f32; m * n];
                rayon::with_num_threads(threads, || {
                    a.view().matmul_t_into_par(&b.view(), &mut par, n);
                });
                for i in 0..m * n {
                    assert_eq!(
                        par[i].to_bits(),
                        serial[i].to_bits(),
                        "m {m} threads {threads} elem {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn msplit_gemm_respects_output_stride() {
        // gutter columns between result rows must stay untouched
        let m = GEMM_PAR_M_TILE + 7;
        let (k, n, ldc) = (5usize, 3usize, 6usize);
        let a = prand_matrix(m, k, 51);
        let b = prand_matrix(n, k, 53);
        let want = a.view().matmul_t(&b.view());
        let mut out = vec![0.0f32; m * ldc];
        a.view().matmul_t_into_par(&b.view(), &mut out, ldc);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(out[i * ldc + j].to_bits(), want.get(i, j).to_bits());
            }
            for j in n..ldc {
                if i * ldc + j < out.len() {
                    assert_eq!(out[i * ldc + j], 0.0, "gutter touched at {i},{j}");
                }
            }
        }
    }

    #[test]
    fn matmul_t_into_accumulates_with_stride() {
        let a = prand_matrix(3, 4, 31);
        let b = prand_matrix(2, 4, 33);
        let want = matmul_t_naive(&a, &b);
        // strided output buffer with untouched gutter columns
        let ldc = 5;
        let mut out = vec![0.0f32; 3 * ldc];
        a.view().matmul_t_into(&b.view(), &mut out, ldc);
        for i in 0..3 {
            for j in 0..2 {
                let got = out[i * ldc + j];
                assert!((got - want.get(i, j)).abs() <= 1e-5, "{i},{j}: {got}");
            }
            for j in 2..ldc {
                assert_eq!(out[i * ldc + j], 0.0, "gutter touched at {i},{j}");
            }
        }
    }
}
