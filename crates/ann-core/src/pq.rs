//! Product quantization (Jégou et al., TPAMI 2011).
//!
//! A vector is split into `m` sub-vectors; each subspace is clustered into
//! `cb` codewords; a vector is stored as its `m` codeword indices. Query
//! time uses the *asymmetric distance computation* (ADC): a per-query lookup
//! table of `m x cb` partial squared distances is built once (the paper's LC
//! phase), then each point's distance is the sum of `m` gathered entries
//! (the DC phase).
//!
//! Dimensions that are not a multiple of `m` are zero-padded, which leaves
//! L2 distances unchanged and frees the design-space exploration to vary `m`
//! independently of the dataset dimension.

use crate::distance::l2_sq_f32;
use crate::kernels::{self, GROUP};
use crate::kmeans::{kmeans, KMeansParams};
use crate::vector::VecSet;

/// Training parameters for a product quantizer.
#[derive(Debug, Clone)]
pub struct PqParams {
    /// Number of sub-quantizers (the paper's `M`).
    pub m: usize,
    /// Codebook entries per subspace (the paper's `CB`; Faiss fixes 256,
    /// DRIM-ANN supports more).
    pub cb: usize,
    /// k-means iterations per subspace.
    pub iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl PqParams {
    /// The common 16x256 configuration used in the paper's end-to-end runs.
    pub fn new(m: usize, cb: usize) -> Self {
        PqParams {
            m,
            cb,
            iters: 10,
            seed: 0x9A7,
        }
    }
}

/// A trained product quantizer.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    /// Original vector dimension.
    pub dim: usize,
    /// Sub-quantizer count.
    pub m: usize,
    /// Codewords per subspace.
    pub cb: usize,
    /// Sub-vector dimension after padding: `dsub = ceil(dim / m)`.
    pub dsub: usize,
    /// Codebooks, `m * cb * dsub` flat (subspace-major).
    codebooks: Vec<f32>,
    /// Cached squared norms of every codeword (`m * cb`, subspace-major) —
    /// the `‖c‖²` terms of the GEMM-formulated LUT build. Computed once at
    /// construction: the codebooks are private and never change after
    /// [`ProductQuantizer::train`] / [`ProductQuantizer::from_codebooks`],
    /// so no cache can go stale.
    cb_norms: Vec<f32>,
    /// Each subspace's codebook in [`kernels::to_groups`]' layout (16
    /// codewords per group, the last zero-padded), for the one-row encode
    /// path. Computed once, like `cb_norms`.
    codebook_groups: Vec<f32>,
}

/// Largest codebook a quantizer accepts: codes are stored as `u16`.
pub const MAX_CB: usize = 1 << 16;

impl ProductQuantizer {
    /// The quantizer itself, for callers that reach the index's residual
    /// quantizer as `ivf.quant.pq()` (the end-to-end benchmark's layer
    /// probes read `dsub` that way).
    pub fn pq(&self) -> &Self {
        self
    }

    /// Train on `data` (typically IVF residuals). The `m` subspaces are
    /// independent k-means runs, one pool item each; k-means' own
    /// regions run inline inside them and never read the pool width, so
    /// the codebooks are identical at every thread count.
    pub fn train(data: &VecSet<f32>, params: &PqParams) -> Self {
        assert!(params.m > 0 && params.cb > 1);
        assert!(params.cb <= MAX_CB, "cb {} exceeds {MAX_CB}", params.cb);
        assert!(!data.is_empty(), "cannot train PQ on empty data");
        let dim = data.dim();
        let dsub = dim.div_ceil(params.m);
        let per_subspace = rayon::par_map(params.m, |s| {
            // gather the s-th (zero-padded) subvector of every training point
            let mut sub = VecSet::with_capacity(dsub, data.len());
            let mut buf = vec![0.0f32; dsub];
            for v in data.iter() {
                extract_sub(v, s, dsub, &mut buf);
                sub.push(&buf);
            }
            kmeans(
                &sub,
                &KMeansParams::new(params.cb)
                    .iters(params.iters)
                    .seed(params.seed ^ (s as u64).wrapping_mul(0x9E37)),
            )
            .centroids
        });
        let codebooks = per_subspace
            .iter()
            .flat_map(|c| c.as_flat().iter().copied())
            .collect();
        Self::from_codebooks(dim, params.m, params.cb, codebooks)
    }

    /// Construct directly from trained codebooks (`m * cb * dsub` flat,
    /// subspace-major), computing the codeword norms and the 16-lane
    /// codeword groups the encoding kernels read.
    pub fn from_codebooks(dim: usize, m: usize, cb: usize, codebooks: Vec<f32>) -> Self {
        assert!(cb <= MAX_CB, "cb {cb} exceeds {MAX_CB}");
        let dsub = dim.div_ceil(m);
        assert_eq!(codebooks.len(), m * cb * dsub);
        let cb_norms = kernels::row_norms_f32(&codebooks, dsub);
        let codebook_groups = codebooks
            .chunks_exact(cb * dsub)
            .flat_map(|book| kernels::to_groups(book, dsub))
            .collect();
        ProductQuantizer {
            dim,
            m,
            cb,
            dsub,
            codebooks,
            cb_norms,
            codebook_groups,
        }
    }

    /// Codebook of subspace `s`: `cb * dsub` flat.
    #[inline]
    pub fn codebook(&self, s: usize) -> &[f32] {
        &self.codebooks[s * self.cb * self.dsub..(s + 1) * self.cb * self.dsub]
    }

    /// All codebooks flat (`m * cb * dsub`).
    pub fn codebooks_flat(&self) -> &[f32] {
        &self.codebooks
    }

    /// Bytes per stored code element (1 if `cb <= 256`, else 2) — the
    /// quantity the paper's I/O model calls `B_a`.
    pub fn code_bytes(&self) -> usize {
        if self.cb <= 256 {
            1
        } else {
            2
        }
    }

    /// Encode one vector into `m` codeword indices ([`Self::encode_into`]
    /// into a fresh buffer).
    pub fn encode(&self, v: &[f32]) -> Vec<u16> {
        let mut code = vec![0u16; self.m];
        self.encode_into(v, &mut code);
        code
    }

    /// Encode one vector into the `m` slots of `out`, with the same code
    /// bits as [`Self::encode_batch_into`] on that row.
    ///
    /// Each slot is exactly what a sequential strict-`<` scan from
    /// `(0, ∞)` over `kernels::l2_sq_f32(sub_s, codeword_j)` returns (see
    /// [`Self::encode_batch_into`]). One row leaves no rows to vectorise
    /// across, so here the codewords are the lanes: each group of 16
    /// codewords of the cached [`kernels::to_groups`] copy gets its
    /// distances from [`kernels::l2_sq_group`], which are
    /// `l2_sq_f32(codeword, sub)`'s exact tree, and `(c − x)²` is
    /// `(x − c)²` bit for bit. The position-blocked `kernels::first_min`
    /// then returns the sequential scan's first strict minimum over the
    /// `cb` real codewords (its docs give the argument); the zero padding
    /// of the last group is never read. Running the 16-row kernel for one
    /// row instead would compute 15 lanes for nothing: on the 96-dim,
    /// `m` 32, `cb` 256 benchmark index that made an insert ≈ 10× slower.
    pub fn encode_into(&self, v: &[f32], out: &mut [u16]) {
        assert_eq!(v.len(), self.dim);
        assert_eq!(out.len(), self.m);
        let (cb, dsub) = (self.cb, self.dsub);
        let span = cb.div_ceil(GROUP) * GROUP * dsub;
        let mut sub = vec![0.0f32; dsub];
        let mut dists = vec![0.0f32; span / dsub];
        for ((s, slot), groups) in out
            .iter_mut()
            .enumerate()
            .zip(self.codebook_groups.chunks_exact(span))
        {
            extract_sub(v, s, dsub, &mut sub);
            *slot = nearest_codeword(&sub, groups, cb, &mut dists);
        }
    }

    /// Encode `rows_flat` (`n * dim`, row-major) into `out` (`n * m`, one
    /// code per row), [`GROUP`] rows at a time.
    ///
    /// Each slot is exactly what a sequential strict-`<` scan from
    /// `(0, ∞)` over `kernels::l2_sq_f32(sub_s, codeword_j)` returns — the
    /// lowest index among the smallest non-NaN distances, or 0 when none is
    /// below `∞` — for every input, ties and non-finite values included.
    /// A block of rows is transposed once into [`kernels::to_groups`]'
    /// layout, zero-padded to `m * dsub` coordinates, so subspace `s` of
    /// all its rows is one contiguous `dsub × GROUP` slab; the private
    /// `nearest_codewords` kernel documents how it keeps the contract for
    /// every row of the slab. Distances are exact, not the norm
    /// decomposition: its cancellation could flip the argmin on near-ties.
    pub fn encode_batch_into(&self, rows_flat: &[f32], out: &mut [u16]) {
        let (dim, m, dsub) = (self.dim, self.m, self.dsub);
        assert_eq!(rows_flat.len() % dim, 0);
        assert_eq!(out.len(), rows_flat.len() / dim * m);
        let span = dsub * GROUP;
        let mut group = vec![0.0f32; m * span];
        for (rows, codes) in rows_flat.chunks(GROUP * dim).zip(out.chunks_mut(GROUP * m)) {
            // lanes past the block's rows keep the previous block's values;
            // their codes are never read
            for (p, row) in rows.chunks_exact(dim).enumerate() {
                for (j, &x) in row.iter().enumerate() {
                    group[j * GROUP + p] = x;
                }
            }
            for (s, slab) in group.chunks_exact(span).enumerate() {
                let nearest = nearest_codewords(slab, self.codebook(s), dsub);
                for (code, &c) in codes.chunks_exact_mut(m).zip(&nearest) {
                    code[s] = c;
                }
            }
        }
    }

    /// Decode a code back to the reconstructed vector.
    pub fn decode(&self, code: &[u16]) -> Vec<f32> {
        assert_eq!(code.len(), self.m);
        let mut out = vec![0.0f32; self.dim];
        for (s, &c) in code.iter().enumerate() {
            let cw = &self.codebook(s)[c as usize * self.dsub..(c as usize + 1) * self.dsub];
            let start = s * self.dsub;
            for (d, &x) in cw.iter().enumerate() {
                if start + d < self.dim {
                    out[start + d] = x;
                }
            }
        }
        out
    }

    /// Build the ADC lookup table for a query (or residual): `m * cb`
    /// partial squared distances. This is the LC phase.
    ///
    /// Delegates to the same GEMM-formulated core as [`Self::lut_batch`]
    /// with a one-query block, so a `lut()` row is bit-identical to the
    /// corresponding `lut_batch` row by construction.
    pub fn lut(&self, q: &[f32]) -> Vec<f32> {
        assert_eq!(q.len(), self.dim);
        let mut out = Vec::new();
        self.lut_batch_into(q, 1, &mut out);
        out
    }

    /// Batched LUT construction: one `m * cb` row per query, `nq * m * cb`
    /// flat. The paper's LC phase for a whole query (or residual) block.
    ///
    /// Formulated as per-subspace GEMMs against the codebook: for subspace
    /// `s`, the cross terms for all queries are one `Q_s · C_sᵀ` product
    /// (tiled `linalg` micro-kernel over the borrowed codebook), corrected
    /// by the cached codeword norms and the per-query subvector norms —
    /// `‖q_s − c_j‖² = ‖q_s‖² − 2·q_s·c_j + ‖c_j‖²`. The codebook streams
    /// once per *block* instead of once per query, amortizing exactly like
    /// cluster locating amortizes the centroid table.
    ///
    /// Because the tiled GEMM's per-element accumulation order is
    /// independent of the batch width (see `linalg` docs), every row is
    /// bit-identical to a per-query [`Self::lut`] call.
    pub fn lut_batch(&self, queries: &VecSet<f32>) -> Vec<f32> {
        assert_eq!(queries.dim(), self.dim);
        let mut out = Vec::new();
        self.lut_batch_into(queries.as_flat(), queries.len(), &mut out);
        out
    }

    /// Shared core of [`Self::lut`] / [`Self::lut_batch`]: `nq` queries in
    /// a flat `nq * dim` slab, LUT rows written to `out` (`nq * m * cb`).
    fn lut_batch_into(&self, qs_flat: &[f32], nq: usize, out: &mut Vec<f32>) {
        debug_assert_eq!(qs_flat.len(), nq * self.dim);
        let (m, cb, dsub) = (self.m, self.cb, self.dsub);
        let lut_w = m * cb;
        out.clear();
        out.resize(nq * lut_w, 0.0);
        if nq == 0 {
            return;
        }
        let mut qsub = vec![0.0f32; nq * dsub];
        let mut qnorm = vec![0.0f32; nq];
        for s in 0..m {
            // subvector slab of this subspace (zero-padded) + its norms
            for (qi, q) in qs_flat.chunks_exact(self.dim).enumerate() {
                extract_sub(q, s, dsub, &mut qsub[qi * dsub..(qi + 1) * dsub]);
            }
            for (n, sub) in qnorm.iter_mut().zip(qsub.chunks_exact(dsub)) {
                *n = kernels::norm_sq_f32(sub);
            }
            // cross terms: Q_s (nq x dsub) · C_sᵀ (dsub x cb) straight into
            // the LUT slots of subspace s (row stride = whole LUT row)
            let qv = crate::linalg::MatrixView::new(nq, dsub, &qsub);
            let cv = crate::linalg::MatrixView::new(cb, dsub, self.codebook(s));
            qv.matmul_t_into(&cv, &mut out[s * cb..], lut_w);
            // norm corrections, clamped at zero (cancellation can produce
            // tiny negatives for codewords nearly equal to the subvector)
            let cn = &self.cb_norms[s * cb..(s + 1) * cb];
            for (qi, &qn) in qnorm.iter().enumerate() {
                let row = &mut out[qi * lut_w + s * cb..qi * lut_w + (s + 1) * cb];
                for (slot, &cnj) in row.iter_mut().zip(cn.iter()) {
                    *slot = (qn + cnj - 2.0 * *slot).max(0.0);
                }
            }
        }
    }

    /// ADC distance: sum of `m` gathered LUT entries. This is the DC phase.
    #[inline]
    pub fn adc(&self, lut: &[f32], code: &[u16]) -> f32 {
        debug_assert_eq!(code.len(), self.m);
        let mut acc = 0.0f32;
        for (s, &c) in code.iter().enumerate() {
            acc += lut[s * self.cb + c as usize];
        }
        acc
    }

    /// Mean squared reconstruction error over a set.
    pub fn quantization_error(&self, data: &VecSet<f32>) -> f64 {
        let mut total = 0.0f64;
        for v in data.iter() {
            let rec = self.decode(&self.encode(v));
            total += l2_sq_f32(v, &rec) as f64;
        }
        total / data.len().max(1) as f64
    }
}

/// Copy the `s`-th subvector of `v` into `buf`, zero-padding past `v.len()`.
#[inline]
fn extract_sub(v: &[f32], s: usize, dsub: usize, buf: &mut [f32]) {
    let start = s * dsub;
    for (d, slot) in buf.iter_mut().enumerate() {
        *slot = if start + d < v.len() {
            v[start + d]
        } else {
            0.0
        };
    }
}

/// Index of the codeword nearest to the subvector `sub` among the `cb`
/// codewords of `groups` (one codebook in [`kernels::to_groups`]' layout),
/// with `dists` as scratch for one distance per group slot.
/// [`ProductQuantizer::encode_into`] states the contract.
///
/// The distances are computed for every group first and the argmin runs
/// over them after, so each loop vectorises on its own. `#[inline(never)]`,
/// like `nearest_codewords`.
#[inline(never)]
fn nearest_codeword(sub: &[f32], groups: &[f32], cb: usize, dists: &mut [f32]) -> u16 {
    for (d, group) in dists
        .chunks_exact_mut(GROUP)
        .zip(groups.chunks_exact(GROUP * sub.len()))
    {
        d.copy_from_slice(&kernels::l2_sq_group(group, sub));
    }
    let (j, _) = kernels::first_min(
        cb,
        |j0| {
            dists[j0..j0 + GROUP]
                .try_into()
                .expect("a slice of GROUP floats is a [f32; GROUP]")
        },
        |j| dists[j],
    );
    j as u16
}

/// Index of the codeword of `codebook` (`cb × dsub`, codeword-major)
/// nearest to each of the [`GROUP`] subvectors of `slab` (`dsub × GROUP`,
/// [`kernels::to_groups`]' layout).
///
/// Codewords go one at a time, and each one's distances are computed for
/// the whole slab by [`kernels::l2_sq_group`], vectorised across the rows
/// and never across `d`. Each row therefore keeps
/// [`kernels::l2_sq_f32`]'s exact expression tree: dimension `d` below the
/// last whole multiple of 8 accumulates into lane `d % 8`, the lanes meet
/// in `reduce8`'s pairwise tree, and the left-folded tail of the remaining
/// dimensions is added last (below 8 dimensions the distance is
/// `+0.0 + tail`, the same bits as the tail). `(x − c)²` and `(c − x)²`
/// are the same bits, so the operand order does not matter either. Each
/// row then keeps its own sequential strict-`<` argmin over the codewords
/// in index order, with a branch-free select, from `(0, ∞)`: every code is
/// the reference scan's, ties to the lowest index, NaN never winning.
///
/// `#[inline(never)]` like the engine's lane loops (`dc::scan_lanes`,
/// `lc::fill`): one compiled body, so an edit elsewhere cannot re-roll
/// how its loops vectorise.
#[inline(never)]
fn nearest_codewords(slab: &[f32], codebook: &[f32], dsub: usize) -> [u16; GROUP] {
    let mut best_v = [f32::INFINITY; GROUP];
    let mut best_i = [0u32; GROUP];
    for (j, codeword) in codebook.chunks_exact(dsub).enumerate() {
        let dist = kernels::l2_sq_group(slab, codeword);
        for p in 0..GROUP {
            let lt = dist[p] < best_v[p];
            best_v[p] = if lt { dist[p] } else { best_v[p] };
            best_i[p] = if lt { j as u32 } else { best_i[p] };
        }
    }
    best_i.map(|i| i as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data(n: usize, dim: usize) -> VecSet<f32> {
        let mut s = VecSet::new(dim);
        let mut lcg = 7u64;
        for _ in 0..n {
            let v: Vec<f32> = (0..dim)
                .map(|_| {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((lcg >> 33) as f32 / u32::MAX as f32) * 10.0
                })
                .collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn encode_decode_shapes() {
        let data = toy_data(200, 8);
        let pq = ProductQuantizer::train(&data, &PqParams::new(4, 16));
        let code = pq.encode(data.get(0));
        assert_eq!(code.len(), 4);
        assert!(code.iter().all(|&c| (c as usize) < 16));
        assert_eq!(pq.decode(&code).len(), 8);
    }

    #[test]
    fn adc_equals_decoded_distance() {
        // ADC(q, code) must equal l2(q, decode(code)) exactly (same math).
        let data = toy_data(300, 8);
        let pq = ProductQuantizer::train(&data, &PqParams::new(4, 8));
        let q = data.get(1);
        let lut = pq.lut(q);
        for i in [0usize, 5, 99] {
            let code = pq.encode(data.get(i));
            let adc = pq.adc(&lut, &code);
            let exact = l2_sq_f32(q, &pq.decode(&code));
            assert!((adc - exact).abs() < 1e-3, "adc {adc} exact {exact}");
        }
    }

    #[test]
    fn reconstruction_error_reasonable() {
        let data = toy_data(500, 16);
        let pq = ProductQuantizer::train(&data, &PqParams::new(8, 32));
        let err = pq.quantization_error(&data);
        // data values span [0,10); per-dim variance ~8.3; with 32 codewords
        // per 2-dim subspace the error must be far below the raw variance.
        let raw: f64 = 16.0 * 8.3;
        assert!(err < raw / 4.0, "err {err} vs raw {raw}");
    }

    #[test]
    fn more_codewords_reduce_error() {
        let data = toy_data(600, 8);
        let e_small =
            ProductQuantizer::train(&data, &PqParams::new(4, 4)).quantization_error(&data);
        let e_large =
            ProductQuantizer::train(&data, &PqParams::new(4, 64)).quantization_error(&data);
        assert!(e_large < e_small, "{e_large} !< {e_small}");
    }

    #[test]
    fn non_divisible_dim_is_padded() {
        let data = toy_data(200, 10); // 10 dims, m=4 -> dsub=3 (padded to 12)
        let pq = ProductQuantizer::train(&data, &PqParams::new(4, 8));
        assert_eq!(pq.dsub, 3);
        let code = pq.encode(data.get(0));
        let rec = pq.decode(&code);
        assert_eq!(rec.len(), 10);
        // ADC still matches decoded distance with padding in play
        let lut = pq.lut(data.get(3));
        let adc = pq.adc(&lut, &code);
        let exact = l2_sq_f32(data.get(3), &rec);
        assert!((adc - exact).abs() < 1e-3);
    }

    #[test]
    fn code_bytes_depends_on_cb() {
        let data = toy_data(300, 8);
        let small = ProductQuantizer::train(&data, &PqParams::new(4, 16));
        assert_eq!(small.code_bytes(), 1);
        let big = ProductQuantizer::from_codebooks(8, 4, 300, vec![0.0; 4 * 300 * 2]);
        assert_eq!(big.code_bytes(), 2);
    }

    #[test]
    fn largest_codebook_keeps_every_code() {
        // one 1-dim subspace, codeword j at j: the last code is MAX_CB - 1
        let codebooks = (0..MAX_CB).map(|j| j as f32).collect();
        let pq = ProductQuantizer::from_codebooks(1, 1, MAX_CB, codebooks);
        assert_eq!(pq.encode(&[(MAX_CB - 1) as f32]), [(MAX_CB - 1) as u16]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn codebook_past_u16_codes_is_rejected() {
        let data = toy_data(10, 2);
        ProductQuantizer::train(&data, &PqParams::new(1, MAX_CB + 1));
    }

    #[test]
    fn encoding_is_nearest_codeword() {
        let data = toy_data(100, 4);
        let pq = ProductQuantizer::train(&data, &PqParams::new(2, 8));
        let v = data.get(7);
        let code = pq.encode(v);
        // check subspace 0 optimality
        let cbk = pq.codebook(0);
        let sub = &v[0..2];
        let chosen = &cbk[code[0] as usize * 2..code[0] as usize * 2 + 2];
        let d_chosen = l2_sq_f32(sub, chosen);
        for row in cbk.chunks_exact(2) {
            assert!(d_chosen <= l2_sq_f32(sub, row) + 1e-6);
        }
    }
}
