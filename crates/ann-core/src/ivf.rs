//! The IVF-PQ index: inverted file over coarse clusters with
//! product-quantized residuals — the cluster-based index family DRIM-ANN
//! targets (paper Section 2.1, Fig. 1).
//!
//! Build: coarse k-means into `nlist` clusters; every vector is stored in
//! its nearest cluster's inverted list as PQ codes of the *residual*
//! `x - centroid`. Search: locate the `nprobe` nearest clusters (CL),
//! compute the query residual per cluster (RC), build the ADC lookup table
//! (LC), accumulate code distances (DC), and keep the top-k (TS).
//!
//! The residual quantizer is plain PQ ([`ProductQuantizer`]), the one the
//! paper's design-space search tunes through `(M, CB)`. Its codebooks are
//! frozen once the build trains them: inserts encode against them, and
//! nothing retrains them in place.

use crate::kmeans::{assign, kmeans, KMeansParams};
use crate::pq::{PqParams, ProductQuantizer};
use crate::topk::{BoundedMaxHeap, Neighbor};
use crate::vector::VecSet;

/// Points per pool item when [`IvfPqIndex::build`] encodes the corpus. A
/// constant, never derived from the thread count; every code is the same
/// however the points are blocked, so the chunking only sets the grain of
/// the parallel loop.
const ENCODE_CHUNK: usize = 4096;

/// Index construction parameters.
#[derive(Debug, Clone)]
pub struct IvfPqParams {
    /// Number of coarse clusters (the paper's `nlist`).
    pub nlist: usize,
    /// PQ sub-quantizers (the paper's `M`; 16 in the end-to-end runs).
    pub m: usize,
    /// Codebook entries per subspace (the paper's `CB`; 256 for Faiss).
    pub cb: usize,
    /// Cap on residuals used for PQ training.
    pub train_sample: usize,
    /// k-means iterations (coarse and PQ).
    pub kmeans_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl IvfPqParams {
    /// Paper-style defaults for a given `nlist`.
    pub fn new(nlist: usize) -> Self {
        IvfPqParams {
            nlist,
            m: 16,
            cb: 256,
            train_sample: 65_536,
            kmeans_iters: 10,
            seed: 0x5C25,
        }
    }

    /// Builder: sub-quantizer count.
    pub fn m(mut self, m: usize) -> Self {
        self.m = m;
        self
    }

    /// Builder: codebook entries.
    pub fn cb(mut self, cb: usize) -> Self {
        self.cb = cb;
        self
    }

    /// Builder: seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One inverted list: ids plus flat `n * m` codes.
#[derive(Debug, Clone, Default)]
pub struct IvfList {
    /// Database ids of the vectors in this cluster.
    pub ids: Vec<u32>,
    /// PQ codes, `ids.len() * m` flat.
    pub codes: Vec<u16>,
}

impl IvfList {
    /// Number of vectors in the list.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A fully built IVF-PQ index.
#[derive(Debug, Clone)]
pub struct IvfPqIndex {
    /// Construction parameters.
    pub params: IvfPqParams,
    /// Vector dimension.
    pub dim: usize,
    /// Coarse centroids (`nlist x dim`).
    pub coarse: VecSet<f32>,
    /// Cached squared norms of the coarse centroids (`‖c‖²` terms of the
    /// fused cluster-locating kernel). Kept in sync with `coarse`; rebuild
    /// with [`IvfPqIndex::refresh_coarse_norms`] after mutating centroids.
    pub coarse_norms: Vec<f32>,
    /// Inverted lists, one per cluster.
    pub lists: Vec<IvfList>,
    /// Residual quantizer: plain PQ, codebooks frozen after training.
    pub quant: ProductQuantizer,
}

impl IvfPqIndex {
    /// Build the index over `data`.
    pub fn build(data: &VecSet<f32>, params: &IvfPqParams) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert!(params.train_sample > 0, "train_sample must be positive");
        let dim = data.dim();

        // 1. coarse clustering
        let km = kmeans(
            data,
            &KMeansParams::new(params.nlist)
                .iters(params.kmeans_iters)
                .seed(params.seed),
        );
        let coarse = km.centroids;
        let assignments = assign(data, &coarse);

        // 2. residuals (sampled) for PQ training
        let cap = params.train_sample.min(data.len());
        let stride = (data.len() / cap).max(1);
        let mut train = VecSet::with_capacity(dim, cap);
        let mut buf = vec![0.0f32; dim];
        for i in (0..data.len()).step_by(stride).take(cap) {
            residual_into(data.get(i), coarse.get(assignments[i] as usize), &mut buf);
            train.push(&buf);
        }

        // 3. train the residual quantizer
        let quant = ProductQuantizer::train(
            &train,
            &PqParams {
                m: params.m,
                cb: params.cb,
                iters: params.kmeans_iters,
                seed: params.seed ^ 0xBEEF,
            },
        );

        // 4. encode every residual on the pool, ENCODE_CHUNK points per
        // item (16 at a time within it, `encode_batch_into`), then append
        // to the inverted lists in point order
        let m = params.m;
        let mut codes = vec![0u16; data.len() * m];
        rayon::par_chunks_mut(&mut codes, ENCODE_CHUNK * m, |ci, out| {
            let lo = ci * ENCODE_CHUNK;
            let mut residuals = vec![0.0f32; out.len() / m * dim];
            for (k, r) in residuals.chunks_exact_mut(dim).enumerate() {
                let i = lo + k;
                residual_into(data.get(i), coarse.get(assignments[i] as usize), r);
            }
            quant.encode_batch_into(&residuals, out);
        });
        let mut lists: Vec<IvfList> = (0..params.nlist).map(|_| IvfList::default()).collect();
        for ((i, &a), code) in assignments.iter().enumerate().zip(codes.chunks_exact(m)) {
            let list = &mut lists[a as usize];
            list.ids.push(i as u32);
            list.codes.extend_from_slice(code);
        }

        let coarse_norms = crate::kernels::row_norms_f32(coarse.as_flat(), dim);
        IvfPqIndex {
            params: params.clone(),
            dim,
            coarse,
            coarse_norms,
            lists,
            quant,
        }
    }

    /// Recompute the cached centroid norms (call after mutating `coarse`).
    pub fn refresh_coarse_norms(&mut self) {
        self.coarse_norms = crate::kernels::row_norms_f32(self.coarse.as_flat(), self.dim);
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.lists.iter().map(|l| l.len()).sum()
    }

    /// True when the index holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.lists.iter().all(|l| l.is_empty())
    }

    /// Cluster-locating phase: the `nprobe` nearest coarse centroids,
    /// ascending by distance. Distances come from the fused batch kernel
    /// with the cached centroid norms.
    pub fn locate(&self, query: &[f32], nprobe: usize) -> Vec<(u32, f32)> {
        self.locate_with_scratch(query, nprobe, &mut Vec::new())
    }

    /// [`Self::locate`] with a caller-owned distance scratch buffer, so
    /// per-query callers (the search loop, batch scans) pay no allocation.
    fn locate_with_scratch(
        &self,
        query: &[f32],
        nprobe: usize,
        dists: &mut Vec<f32>,
    ) -> Vec<(u32, f32)> {
        crate::kernels::l2_sq_batch(
            query,
            self.coarse.as_flat(),
            self.dim,
            &self.coarse_norms,
            dists,
        );
        let mut heap = BoundedMaxHeap::new(nprobe.min(self.params.nlist).max(1));
        for (c, &d) in dists.iter().enumerate() {
            heap.push(Neighbor::new(c as u64, d));
        }
        heap.into_sorted()
            .into_iter()
            .map(|n| (n.id as u32, n.dist))
            .collect()
    }

    /// Batched cluster locating: the `nprobe` nearest coarse centroids for
    /// every query of a block, ascending by distance.
    ///
    /// One pass of the shared blocked-distance driver
    /// ([`crate::blockscan::scan`]) with the [`TopN`] consumer over the
    /// borrowed centroid table and the cached centroid norms — the same
    /// driver the engine's host-side CL phase and k-means assignment run,
    /// so block geometry, scratch handling and the `qn + cn − 2·dot`
    /// correction are shared by construction. Results are deterministic at
    /// any thread count and batch split (see the driver's module docs).
    ///
    /// [`TopN`]: crate::blockscan::TopN
    pub fn locate_batch(&self, queries: &VecSet<f32>, nprobe: usize) -> Vec<Vec<(u32, f32)>> {
        assert_eq!(queries.dim(), self.dim);
        let nprobe = nprobe.min(self.params.nlist).max(1);
        let nlist = self.coarse.len();
        let cmat = crate::linalg::MatrixView::new(nlist, self.dim, self.coarse.as_flat());
        let mut out = Vec::with_capacity(queries.len());
        crate::blockscan::scan(
            queries,
            cmat,
            &self.coarse_norms,
            &mut crate::blockscan::TopN {
                n: nprobe,
                out: &mut out,
            },
        );
        out
    }

    /// Full search: returns the `k` nearest neighbors by ADC distance.
    ///
    /// LUTs for all probed (non-empty) clusters of the query are built in
    /// one batched, GEMM-formulated pass over the codebook
    /// ([`ProductQuantizer::lut_batch`]); the per-list scan is the blocked
    /// 8-wide ADC kernel, and candidates are pruned against the running
    /// top-k bound before touching the heap (the host-side analogue of the
    /// paper's forwarded-record pruning).
    pub fn search(&self, query: &[f32], nprobe: usize, k: usize) -> Vec<Neighbor> {
        // one scratch buffer serves both the CL distances and the per-list
        // ADC distances
        let mut dists = Vec::new();
        let probes = self.locate_with_scratch(query, nprobe, &mut dists);
        let m = self.params.m;
        let cb = self.params.cb;
        // residuals of every probed non-empty cluster, in probe order —
        // their LUTs amortize one codebook stream across the whole probe set
        let mut residuals = VecSet::with_capacity(self.dim, probes.len());
        let mut scanned: Vec<u32> = Vec::with_capacity(probes.len());
        let mut residual = vec![0.0f32; self.dim];
        for &(c, _) in &probes {
            if self.lists[c as usize].is_empty() {
                continue;
            }
            residual_into(query, self.coarse.get(c as usize), &mut residual);
            residuals.push(&residual);
            scanned.push(c);
        }
        let luts = self.quant.lut_batch(&residuals);
        let lut_w = m * cb;
        let mut heap = BoundedMaxHeap::new(k);
        for (pi, &c) in scanned.iter().enumerate() {
            let list = &self.lists[c as usize];
            let lut = &luts[pi * lut_w..(pi + 1) * lut_w];
            crate::kernels::adc_scan_f32(&list.codes, m, cb, lut, &mut dists);
            // `<=` so candidates tying the k-th distance still reach the
            // heap, which breaks ties by id exactly like the unpruned
            // scalar path; only strictly-worse candidates are skipped
            let mut bound = heap.bound();
            for (slot, &d) in dists.iter().enumerate() {
                if d <= bound {
                    heap.push(Neighbor::new(list.ids[slot] as u64, d));
                    bound = heap.bound();
                }
            }
        }
        heap.into_sorted()
    }

    /// Nearest coarse cluster of `v`, with `residual = v - centroid` left in
    /// the caller's buffer: the assignment every point takes on its way
    /// into a list, whoever appends it.
    pub fn assign_residual(&self, v: &[f32], residual: &mut [f32]) -> usize {
        let (c, _) =
            crate::kmeans::nearest_centroid_with_norms(v, &self.coarse, &self.coarse_norms);
        residual_into(v, self.coarse.get(c as usize), residual);
        c as usize
    }

    /// Where a new vector goes and what is stored for it: its nearest
    /// cluster and the PQ code of its residual against the frozen
    /// codebooks. [`Self::insert`] appends the pair; an owner that must
    /// check capacity first (the engine's MRAM headroom) calls this, checks,
    /// then appends to `lists[cluster]` itself.
    pub fn assign_encode(&self, v: &[f32]) -> (usize, Vec<u16>) {
        assert_eq!(v.len(), self.dim, "inserted vector has wrong dimension");
        let mut residual = vec![0.0f32; self.dim];
        let c = self.assign_residual(v, &mut residual);
        (c, self.quant.encode(&residual))
    }

    /// Insert one vector with the given id (dynamic corpora — the paper
    /// notes cluster-based indices are "especially friendly to dynamic
    /// vector data"). The vector is assigned to its nearest coarse centroid
    /// and PQ-encoded; centroids and codebooks are not retrained.
    pub fn insert(&mut self, id: u32, v: &[f32]) {
        let (c, code) = self.assign_encode(v);
        self.lists[c].ids.push(id);
        self.lists[c].codes.extend_from_slice(&code);
    }

    /// Remove a vector by id; returns `true` when found. O(n) over the
    /// owning list (ids are not indexed).
    ///
    /// Order-preserving: the survivors keep their relative list order.
    /// This is a *contract*, not an implementation detail — the engine's
    /// streaming-mutation parity argument (docs/MUTATION.md) relies on a
    /// from-scratch replay of inserts/removes producing the same candidate
    /// stream order as tombstone filtering over the original lists.
    pub fn remove(&mut self, id: u32) -> bool {
        let m = self.params.m;
        for list in &mut self.lists {
            if let Some(slot) = list.ids.iter().position(|&x| x == id) {
                list.ids.remove(slot);
                list.codes.drain(slot * m..(slot + 1) * m);
                return true;
            }
        }
        false
    }

    /// Average points per cluster — the paper's `C = N / nlist`.
    pub fn mean_cluster_size(&self) -> f64 {
        self.len() as f64 / self.params.nlist as f64
    }

    /// Cluster size distribution.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(|l| l.len()).collect()
    }
}

/// `out = a - b` element-wise.
#[inline]
pub fn residual_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x - y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::exact_search;

    fn clustered_data(n: usize, dim: usize, seed: u64) -> VecSet<f32> {
        // 8 Gaussian-ish blobs via LCG jitter
        let mut s = VecSet::new(dim);
        let mut lcg = seed | 1;
        let mut next = move || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            (lcg >> 33) as f32 / u32::MAX as f32
        };
        let centers: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..dim).map(|_| next() * 100.0).collect())
            .collect();
        for i in 0..n {
            let c = &centers[i % 8];
            let v: Vec<f32> = c.iter().map(|&x| x + (next() - 0.5) * 8.0).collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn index_covers_all_points_once() {
        let data = clustered_data(1000, 8, 3);
        let idx = IvfPqIndex::build(&data, &IvfPqParams::new(16));
        assert_eq!(idx.len(), 1000);
        let mut seen = vec![false; 1000];
        for l in &idx.lists {
            assert_eq!(l.codes.len(), l.ids.len() * idx.params.m);
            for &id in &l.ids {
                assert!(!seen[id as usize], "id {id} appears twice");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn locate_returns_sorted_clusters() {
        let data = clustered_data(500, 8, 9);
        let idx = IvfPqIndex::build(&data, &IvfPqParams::new(16));
        let probes = idx.locate(data.get(0), 5);
        assert_eq!(probes.len(), 5);
        for w in probes.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn search_finds_exact_neighbors_with_high_recall() {
        let data = clustered_data(2000, 8, 5);
        let params = IvfPqParams::new(16).m(4).cb(64);
        let idx = IvfPqIndex::build(&data, &params);
        let mut hits = 0usize;
        let mut total = 0usize;
        for qi in 0..20 {
            let q = data.get(qi * 7);
            let approx = idx.search(q, 8, 10);
            let exact = exact_search(q, &data, 10);
            let exact_ids: std::collections::HashSet<u64> = exact.iter().map(|n| n.id).collect();
            hits += approx.iter().filter(|n| exact_ids.contains(&n.id)).count();
            total += 10;
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.7, "recall@10 = {recall}");
    }

    #[test]
    fn more_probes_never_reduce_quality() {
        let data = clustered_data(1000, 8, 11);
        let idx = IvfPqIndex::build(&data, &IvfPqParams::new(16).m(4).cb(32));
        let q = data.get(3);
        let d1 = idx
            .search(q, 1, 5)
            .last()
            .map(|n| n.dist)
            .unwrap_or(f32::MAX);
        let d16 = idx
            .search(q, 16, 5)
            .last()
            .map(|n| n.dist)
            .unwrap_or(f32::MAX);
        assert!(d16 <= d1 + 1e-6);
    }

    #[test]
    fn mean_cluster_size_is_n_over_nlist() {
        let data = clustered_data(800, 8, 23);
        let idx = IvfPqIndex::build(&data, &IvfPqParams::new(16));
        assert!((idx.mean_cluster_size() - 50.0).abs() < 1e-9);
        assert_eq!(idx.cluster_sizes().iter().sum::<usize>(), 800);
    }

    #[test]
    fn residual_into_subtracts() {
        let mut out = [0.0f32; 3];
        residual_into(&[5.0, 3.0, 1.0], &[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, [4.0, 2.0, 0.0]);
    }

    #[test]
    fn insert_makes_vector_findable() {
        let data = clustered_data(800, 8, 29);
        let mut idx = IvfPqIndex::build(&data, &IvfPqParams::new(16).m(4).cb(32));
        let novel: Vec<f32> = data.get(0).iter().map(|&x| x + 1.0).collect();
        idx.insert(9999, &novel);
        assert_eq!(idx.len(), 801);
        let res = idx.search(&novel, 4, 3);
        assert!(
            res.iter().any(|n| n.id == 9999),
            "inserted vector should be its own near-neighbor: {res:?}"
        );
    }

    #[test]
    fn remove_deletes_exactly_one() {
        let data = clustered_data(500, 8, 31);
        let mut idx = IvfPqIndex::build(&data, &IvfPqParams::new(8).m(4).cb(16));
        assert!(idx.remove(123));
        assert_eq!(idx.len(), 499);
        assert!(!idx.remove(123), "second removal must fail");
        // codes stay aligned with ids
        for l in &idx.lists {
            assert_eq!(l.codes.len(), l.ids.len() * idx.params.m);
        }
        // the removed id never comes back from search
        let res = idx.search(data.get(123), 8, 20);
        assert!(res.iter().all(|n| n.id != 123));
    }

    #[test]
    fn insert_remove_roundtrip_preserves_results() {
        let data = clustered_data(400, 8, 37);
        let idx0 = IvfPqIndex::build(&data, &IvfPqParams::new(8).m(4).cb(16));
        let mut idx = idx0.clone();
        idx.insert(7777, data.get(5));
        assert!(idx.remove(7777));
        let q = data.get(9);
        let a: Vec<u64> = idx0.search(q, 4, 5).iter().map(|n| n.id).collect();
        let b: Vec<u64> = idx.search(q, 4, 5).iter().map(|n| n.id).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "train_sample must be positive")]
    fn zero_train_sample_is_rejected() {
        let data = clustered_data(100, 8, 43);
        let mut params = IvfPqParams::new(4).m(4).cb(8);
        params.train_sample = 0;
        IvfPqIndex::build(&data, &params);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn insert_checks_dimension() {
        let data = clustered_data(100, 8, 41);
        let mut idx = IvfPqIndex::build(&data, &IvfPqParams::new(4).m(4).cb(8));
        idx.insert(1, &[0.0; 3]);
    }
}
