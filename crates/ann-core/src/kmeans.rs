//! k-means clustering: k-means++ seeding, parallel Lloyd iterations, and
//! empty-cluster repair.
//!
//! Used twice in IVF-PQ index construction: once for the coarse `nlist`
//! clustering, once per PQ subspace for the codebooks. Both are exactly the
//! procedures Faiss runs, so recall comparisons against the baseline are
//! apples-to-apples.

use crate::kernels::{self, l2_sq_f32};
use crate::vector::VecSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// k-means configuration.
#[derive(Debug, Clone)]
pub struct KMeansParams {
    /// Number of clusters.
    pub k: usize,
    /// Lloyd iterations.
    pub iters: usize,
    /// RNG seed (fully deterministic given the data).
    pub seed: u64,
    /// Optional cap on training points; above it the data is subsampled
    /// (Faiss-style `max_points_per_centroid` behaviour).
    pub max_train_points: Option<usize>,
}

impl KMeansParams {
    /// Sensible defaults for `k` clusters.
    pub fn new(k: usize) -> Self {
        KMeansParams {
            k,
            iters: 12,
            seed: 0xD81A,
            max_train_points: Some(k * 256),
        }
    }

    /// Builder: iteration count.
    pub fn iters(mut self, iters: usize) -> Self {
        self.iters = iters;
        self
    }

    /// Builder: seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of a k-means fit.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// `k` centroids.
    pub centroids: VecSet<f32>,
    /// Assignment of every *training* point to its centroid.
    pub assignments: Vec<u32>,
    /// Number of training points per centroid.
    pub sizes: Vec<usize>,
    /// Final total squared quantization error.
    pub inertia: f64,
}

/// Fit k-means on `data`, returning centroids/assignments/sizes.
///
/// Panics if `data` is empty or `k == 0`; if `k >= len`, every point becomes
/// its own centroid (plus duplicated fill for the remainder).
pub fn kmeans(data: &VecSet<f32>, params: &KMeansParams) -> KMeansResult {
    assert!(params.k > 0, "k must be positive");
    assert!(!data.is_empty(), "cannot cluster an empty dataset");
    let dim = data.dim();

    // Subsample for training if requested.
    let mut rng = StdRng::seed_from_u64(params.seed);
    let train: VecSet<f32> = match params.max_train_points {
        Some(cap) if data.len() > cap => {
            let rows: Vec<usize> = sample_without_replacement(&mut rng, data.len(), cap);
            data.select(&rows)
        }
        _ => data.clone(),
    };

    if params.k >= train.len() {
        // degenerate: centroids = points (cycled)
        let mut centroids = VecSet::with_capacity(dim, params.k);
        for i in 0..params.k {
            centroids.push(train.get(i % train.len()));
        }
        let assignments: Vec<u32> = (0..train.len()).map(|i| i as u32).collect();
        let mut sizes = vec![0usize; params.k];
        for &a in &assignments {
            sizes[a as usize] += 1;
        }
        return KMeansResult {
            centroids,
            assignments,
            sizes,
            inertia: 0.0,
        };
    }

    let mut centroids = kmeanspp_init(&train, params.k, &mut rng);
    let mut assignments = vec![0u32; train.len()];
    let mut inertia = f64::INFINITY;

    for _ in 0..params.iters {
        // fused assignment + update accumulation, parallel over point
        // chunks: each chunk assigns its points through the blocked
        // `X · Cᵀ` GEMM with the norm decomposition (centroid norms
        // computed once per
        // iteration) and accumulates its own partial centroid sums /
        // counts / inertia. Chunk partials are then combined in ascending
        // chunk order — the chunk count is fixed (never a function of the
        // thread count), so the f64 sums are bit-identical at any pool
        // width. `tests/parallel_parity.rs` relies on exactly this.
        let cnorms = kernels::row_norms_f32(centroids.as_flat(), dim);
        let partials = assign_partials(&train, &centroids, &cnorms, params.k);

        let mut dists: Vec<(u32, f32)> = Vec::with_capacity(train.len());
        let mut sums = vec![0.0f64; params.k * dim];
        let mut counts = vec![0usize; params.k];
        inertia = 0.0;
        for p in partials {
            dists.extend(p.assign);
            for (dst, s) in sums.iter_mut().zip(p.sums) {
                *dst += s;
            }
            for (dst, c) in counts.iter_mut().zip(p.counts) {
                *dst += c;
            }
            inertia += p.inertia;
        }
        for (i, &(a, _)) in dists.iter().enumerate() {
            assignments[i] = a;
        }

        // empty-cluster repair: steal the point farthest from its centroid
        for c in 0..params.k {
            if counts[c] == 0 {
                let (far_idx, _) = dists
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
                    .map(|(i, &(_, d))| (i, d))
                    .unwrap();
                let donor = assignments[far_idx] as usize;
                if counts[donor] > 1 {
                    counts[donor] -= 1;
                    let v = train.get(far_idx);
                    let drow = &mut sums[donor * dim..(donor + 1) * dim];
                    for (s, &x) in drow.iter_mut().zip(v.iter()) {
                        *s -= x as f64;
                    }
                    assignments[far_idx] = c as u32;
                    counts[c] = 1;
                    let crow = &mut sums[c * dim..(c + 1) * dim];
                    for (s, &x) in crow.iter_mut().zip(v.iter()) {
                        *s += x as f64;
                    }
                }
            }
        }

        for c in 0..params.k {
            if counts[c] > 0 {
                let row = centroids.get_mut(c);
                let srow = &sums[c * dim..(c + 1) * dim];
                for (dst, &s) in row.iter_mut().zip(srow.iter()) {
                    *dst = (s / counts[c] as f64) as f32;
                }
            }
        }
    }

    let mut sizes = vec![0usize; params.k];
    for &a in &assignments {
        sizes[a as usize] += 1;
    }
    KMeansResult {
        centroids,
        assignments,
        sizes,
        inertia,
    }
}

/// Per-chunk output of one fused assignment pass: the chunk's assignments
/// (with distances, for empty-cluster repair) plus its partial centroid
/// sums, counts and inertia.
struct AssignPartial {
    assign: Vec<(u32, f32)>,
    sums: Vec<f64>,
    counts: Vec<usize>,
    inertia: f64,
}

/// Fixed number of chunk partials per Lloyd pass. Fixed — not derived from
/// the thread count — so the chunk-ordered f64 combine is deterministic;
/// small enough that the per-chunk `k * dim` sum buffers stay cheap even
/// for large coarse codebooks.
const LLOYD_CHUNKS: usize = 16;

/// One fused assignment-plus-accumulation pass over `data`, parallel over
/// [`LLOYD_CHUNKS`] contiguous point chunks. Returned in chunk order.
fn assign_partials(
    data: &VecSet<f32>,
    centroids: &VecSet<f32>,
    cnorms: &[f32],
    k: usize,
) -> Vec<AssignPartial> {
    let dim = data.dim();
    let chunk = data.len().div_ceil(LLOYD_CHUNKS).max(1);
    let nchunks = data.len().div_ceil(chunk);
    rayon::par_map(nchunks, |ci| {
        let s = ci * chunk;
        let e = (s + chunk).min(data.len());
        let mut part = AssignPartial {
            assign: Vec::with_capacity(e - s),
            sums: vec![0.0f64; k * dim],
            counts: vec![0usize; k],
            inertia: 0.0,
        };
        assign_range_gemm(data, s, e, centroids, cnorms, &mut part.assign);
        for (off, &(a, d)) in part.assign.iter().enumerate() {
            let v = data.get(s + off);
            part.inertia += d as f64;
            part.counts[a as usize] += 1;
            let row = &mut part.sums[a as usize * dim..(a as usize + 1) * dim];
            for (sm, &x) in row.iter_mut().zip(v.iter()) {
                *sm += x as f64;
            }
        }
        part
    })
}

/// Points per GEMM block of the blocked assignment path (the shared
/// driver's fixed block width).
const ASSIGN_BLOCK: usize = crate::blockscan::BLOCK;

/// GEMM-formulated assignment of points `[lo, hi)`: one
/// [`crate::blockscan::scan_range`] pass with the [`blockscan::Argmin`]
/// consumer. The driver owns the block geometry, the per-thread cross-term
/// scratch and the `qn + cn − 2·dot` correction (see its module docs for
/// the determinism contract); this function just binds it to the borrowed
/// centroid table. Pushes one `(assignment, squared distance)` pair per
/// point onto `out`.
///
/// Results are identical no matter how the caller chunks the range — which
/// keeps Lloyd chunks, the standalone [`assign`] entry point, and every
/// thread count bit-consistent.
///
/// [`blockscan::Argmin`]: crate::blockscan::Argmin
fn assign_range_gemm(
    data: &VecSet<f32>,
    lo: usize,
    hi: usize,
    centroids: &VecSet<f32>,
    cnorms: &[f32],
    out: &mut Vec<(u32, f32)>,
) {
    let cview =
        crate::linalg::MatrixView::new(centroids.len(), centroids.dim(), centroids.as_flat());
    crate::blockscan::scan_range(
        data,
        lo,
        hi,
        cview,
        cnorms,
        &mut crate::blockscan::Argmin { out },
    );
}

/// Assign every vector of `data` to its nearest centroid (parallel), through
/// the shared blocked-distance driver with centroid norms computed once.
///
/// Each parallel task covers a 32-block range so the driver's per-thread
/// cross-term scratch amortizes across blocks; per-point results are
/// invariant to the range split (GEMM geometry purity), so any task
/// granularity yields bit-identical assignments.
pub fn assign(data: &VecSet<f32>, centroids: &VecSet<f32>) -> Vec<u32> {
    let cnorms = kernels::row_norms_f32(centroids.as_flat(), centroids.dim());
    let task_points = 32 * ASSIGN_BLOCK;
    let ntasks = data.len().div_ceil(task_points);
    let per_task = rayon::par_map(ntasks, |t| {
        let lo = t * task_points;
        let hi = (lo + task_points).min(data.len());
        let mut out = Vec::with_capacity(hi - lo);
        assign_range_gemm(data, lo, hi, centroids, &cnorms, &mut out);
        out
    });
    per_task.iter().flatten().map(|&(a, _)| a).collect()
}

/// Nearest centroid via the `‖q‖² − 2·q·c + ‖c‖²` decomposition with cached
/// centroid norms (`cnorms` must match `centroids`).
#[inline]
pub fn nearest_centroid_with_norms(
    v: &[f32],
    centroids: &VecSet<f32>,
    cnorms: &[f32],
) -> (u32, f32) {
    let (i, d) = kernels::nearest_row(v, centroids.as_flat(), centroids.dim(), cnorms)
        .expect("centroid set must be non-empty");
    (i as u32, d)
}

/// Points per parallel task of the seeding's nearest-seed update.
const SEED_CHUNK: usize = 1024;

/// k-means++ seeding: first centroid uniform, then D²-weighted sampling.
fn kmeanspp_init(data: &VecSet<f32>, k: usize, rng: &mut StdRng) -> VecSet<f32> {
    let dim = data.dim();
    let n = data.len();
    let mut centroids = VecSet::with_capacity(dim, k);
    let first = rng.gen_range(0..n);
    centroids.push(data.get(first));

    let mut d2: Vec<f32> = rayon::par_map(n, |i| l2_sq_f32(data.get(i), centroids.get(0)));

    for _ in 1..k {
        let total: f64 = d2.iter().map(|&d| d as f64).sum();
        let choice = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut picked = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    picked = i;
                    break;
                }
            }
            picked
        };
        centroids.push(data.get(choice));
        let new_c = centroids.len() - 1;
        rayon::par_chunks_mut(&mut d2, SEED_CHUNK, |c, chunk| {
            for (o, d) in chunk.iter_mut().enumerate() {
                let nd = l2_sq_f32(data.get(c * SEED_CHUNK + o), centroids.get(new_c));
                if nd < *d {
                    *d = nd;
                }
            }
        });
    }
    centroids
}

/// Floyd's algorithm: `count` distinct indices in `[0, n)`.
fn sample_without_replacement(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    use std::collections::HashSet;
    let mut chosen = HashSet::with_capacity(count);
    for j in (n - count)..n {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut v: Vec<usize> = chosen.into_iter().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2-D.
    fn blobs() -> VecSet<f32> {
        let mut s = VecSet::new(2);
        let centers = [(0.0f32, 0.0f32), (10.0, 10.0), (-10.0, 8.0)];
        let mut lcg = 12345u64;
        for i in 0..300 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let jx = ((lcg >> 33) as f32 / u32::MAX as f32 - 0.5) * 0.5;
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let jy = ((lcg >> 33) as f32 / u32::MAX as f32 - 0.5) * 0.5;
            let (cx, cy) = centers[i % 3];
            s.push(&[cx + jx, cy + jy]);
        }
        s
    }

    #[test]
    fn finds_separated_blobs() {
        let data = blobs();
        let res = kmeans(&data, &KMeansParams::new(3).iters(10));
        assert_eq!(res.centroids.len(), 3);
        // every centroid should be near one of the true centers
        let truth = [(0.0f32, 0.0f32), (10.0, 10.0), (-10.0, 8.0)];
        for c in res.centroids.iter() {
            let ok = truth.iter().any(|&(x, y)| l2_sq_f32(c, &[x, y]) < 1.0);
            assert!(ok, "centroid {c:?} not near any blob center");
        }
        // inertia should be tiny relative to blob separation
        assert!(res.inertia < 300.0 * 1.0);
    }

    #[test]
    fn sizes_sum_to_train_points() {
        let data = blobs();
        let res = kmeans(&data, &KMeansParams::new(5).iters(5));
        assert_eq!(res.sizes.iter().sum::<usize>(), data.len());
        assert_eq!(res.assignments.len(), data.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs();
        let p = KMeansParams::new(4).seed(99);
        let a = kmeans(&data, &p);
        let b = kmeans(&data, &p);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn no_empty_clusters_on_reasonable_data() {
        let data = blobs();
        let res = kmeans(&data, &KMeansParams::new(8).iters(10));
        assert!(res.sizes.iter().all(|&s| s > 0), "sizes {:?}", res.sizes);
    }

    #[test]
    fn k_geq_n_degenerates_gracefully() {
        let mut data = VecSet::new(2);
        data.push(&[1.0, 1.0]);
        data.push(&[2.0, 2.0]);
        let res = kmeans(&data, &KMeansParams::new(5));
        assert_eq!(res.centroids.len(), 5);
        assert_eq!(res.inertia, 0.0);
    }

    #[test]
    fn assign_matches_nearest() {
        let data = blobs();
        let res = kmeans(&data, &KMeansParams::new(3).iters(8));
        let assigned = assign(&data, &res.centroids);
        let cnorms = kernels::row_norms_f32(res.centroids.as_flat(), res.centroids.dim());
        for (i, &a) in assigned.iter().enumerate() {
            let (c, _) = nearest_centroid_with_norms(data.get(i), &res.centroids, &cnorms);
            assert_eq!(a, c);
        }
    }

    #[test]
    fn subsampling_caps_training_set() {
        let data = blobs();
        let mut p = KMeansParams::new(2).iters(3);
        p.max_train_points = Some(50);
        let res = kmeans(&data, &p);
        assert_eq!(res.assignments.len(), 50);
        assert_eq!(res.centroids.len(), 2);
    }

    #[test]
    fn sample_without_replacement_is_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = sample_without_replacement(&mut rng, 100, 30);
        assert_eq!(s.len(), 30);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 30);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = blobs();
        let i2 = kmeans(&data, &KMeansParams::new(2).iters(10)).inertia;
        let i6 = kmeans(&data, &KMeansParams::new(6).iters(10)).inertia;
        assert!(i6 <= i2, "inertia k=6 {i6} should be <= k=2 {i2}");
    }
}
