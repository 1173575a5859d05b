//! The unified blocked-distance driver (`ann_core::blockscan`) against the
//! PR-3 hand-rolled loops, bit for bit.
//!
//! Before the driver existed, k-means assignment, `locate_batch` and
//! `cl::run` each rolled their own 32-wide block-GEMM +
//! `‖q‖² − 2·q·c + ‖c‖²` correction. These tests pin the ported consumers
//! to reference re-implementations of exactly those loops (per-row
//! `norm_sq_f32`, per-consumer scratch, `cl::run`'s old table-side-left
//! GEMM orientation) — at 1/2/4/8 threads, odd batch sizes, and tables
//! straddling the driver's M-split threshold
//! (`blockscan::M_SPLIT_MIN`), where the per-block product switches to the
//! pool-backed parallel GEMM.

use ann_core::blockscan;
use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use ann_core::kernels;
use ann_core::linalg::MatrixView;
use ann_core::topk::{BoundedMaxHeap, Neighbor};
use ann_core::vector::VecSet;
use drim_ann::config::IndexConfig;
use drim_ann::kernels::cl;
use drim_ann::perf_model::{BitWidths, WorkloadShape};
use rayon::with_num_threads;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Batch sizes that don't divide evenly into driver blocks, plus a
/// single-query batch and one block-aligned batch.
const BATCH_SIZES: [usize; 4] = [1, 7, 33, 64];

fn workload(n: usize, nq: usize) -> (VecSet<f32>, VecSet<f32>) {
    let spec = datasets::SynthSpec::small("driver-parity", 16, n, 71);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        nq,
        datasets::queries::QuerySkew::InDistribution,
        9,
    );
    (data, queries)
}

fn subset(queries: &VecSet<f32>, n: usize) -> VecSet<f32> {
    queries.select(&(0..n).collect::<Vec<_>>())
}

fn prand_set(n: usize, dim: usize, seed: u64) -> VecSet<f32> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
    };
    let mut s = VecSet::new(dim);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| next()).collect();
        s.push(&v);
    }
    s
}

/// PR-3 `kmeans::assign_range_gemm`, verbatim: per-block `X_blk · Cᵀ`
/// cross terms, per-row `norm_sq_f32`, argmin on `‖c‖² − 2·x·c`.
fn ref_assign(data: &VecSet<f32>, centroids: &VecSet<f32>, cnorms: &[f32]) -> Vec<(u32, f32)> {
    const BLOCK: usize = 32;
    let dim = data.dim();
    let k = centroids.len();
    let cview = MatrixView::new(k, dim, centroids.as_flat());
    let mut out = Vec::with_capacity(data.len());
    let mut dots = vec![0.0f32; BLOCK.min(data.len().max(1)) * k];
    for blo in (0..data.len()).step_by(BLOCK) {
        let bhi = (blo + BLOCK).min(data.len());
        let rows = bhi - blo;
        let xv = MatrixView::new(rows, dim, &data.as_flat()[blo * dim..bhi * dim]);
        dots[..rows * k].fill(0.0);
        xv.matmul_t_into(&cview, &mut dots[..rows * k], k);
        for r in 0..rows {
            let mut best = (0usize, f32::INFINITY);
            for (j, (&cn, &dp)) in cnorms.iter().zip(&dots[r * k..(r + 1) * k]).enumerate() {
                let score = cn - 2.0 * dp;
                if score < best.1 {
                    best = (j, score);
                }
            }
            let qn = kernels::norm_sq_f32(data.get(blo + r));
            out.push((best.0 as u32, (best.1 + qn).max(0.0)));
        }
    }
    out
}

/// PR-3 `IvfPqIndex::locate_batch`, verbatim: query-side-left blocked GEMM,
/// per-row norm, bounded heap of `nprobe`.
fn ref_locate(
    queries: &VecSet<f32>,
    table: &VecSet<f32>,
    cnorms: &[f32],
    nprobe: usize,
) -> Vec<Vec<(u32, f32)>> {
    const BLOCK: usize = 32;
    let dim = queries.dim();
    let nlist = table.len();
    let cmat = MatrixView::new(nlist, dim, table.as_flat());
    let mut out = Vec::with_capacity(queries.len());
    let mut dots = vec![0.0f32; BLOCK.min(queries.len().max(1)) * nlist];
    for lo in (0..queries.len()).step_by(BLOCK) {
        let hi = (lo + BLOCK).min(queries.len());
        let rows = hi - lo;
        let qv = MatrixView::new(rows, dim, &queries.as_flat()[lo * dim..hi * dim]);
        dots[..rows * nlist].fill(0.0);
        qv.matmul_t_into(&cmat, &mut dots[..rows * nlist], nlist);
        for r in 0..rows {
            let qn = kernels::norm_sq_f32(queries.get(lo + r));
            let drow = &dots[r * nlist..(r + 1) * nlist];
            let mut heap = BoundedMaxHeap::new(nprobe);
            for (c, (&cn, &dp)) in cnorms.iter().zip(drow).enumerate() {
                let d = (qn + cn - 2.0 * dp).max(0.0);
                heap.push(Neighbor::new(c as u64, d));
            }
            out.push(
                heap.into_sorted()
                    .into_iter()
                    .map(|n| (n.id as u32, n.dist))
                    .collect(),
            );
        }
    }
    out
}

/// PR-3 `cl::run`'s per-block compute, verbatim — including its
/// *table-side-left* GEMM orientation (`C · Q_blkᵀ`), which the driver
/// replaced with the query-side-left form for small tables. IEEE
/// multiplication commutes and both orientations accumulate in
/// ascending-k order, so the probe sets must still match bit-for-bit.
fn ref_cl_probes(
    queries: &VecSet<f32>,
    table: &VecSet<f32>,
    cnorms: &[f32],
    nprobe: usize,
) -> Vec<Vec<u32>> {
    const BLOCK: usize = 32;
    let dim = queries.dim();
    let nlist = table.len();
    let cmat = MatrixView::new(nlist, dim, table.as_flat());
    let mut probes = Vec::with_capacity(queries.len());
    for lo in (0..queries.len()).step_by(BLOCK) {
        let hi = (lo + BLOCK).min(queries.len());
        let rows = hi - lo;
        let qv = MatrixView::new(rows, dim, &queries.as_flat()[lo * dim..hi * dim]);
        let dots = cmat.matmul_t(&qv);
        for r in 0..rows {
            let qn = kernels::norm_sq_f32(queries.get(lo + r));
            let mut heap = BoundedMaxHeap::new(nprobe);
            for (c, &cn) in cnorms.iter().enumerate() {
                let d = (qn + cn - 2.0 * dots.get(c, r)).max(0.0);
                heap.push(Neighbor::new(c as u64, d));
            }
            probes.push(
                heap.into_sorted()
                    .into_iter()
                    .map(|n| n.id as u32)
                    .collect::<Vec<u32>>(),
            );
        }
    }
    probes
}

#[test]
fn assignment_bit_identical_to_pr3_loop_across_threads() {
    let (data, _) = workload(2000, 1);
    let centroids = prand_set(48, 16, 5);
    let cnorms = kernels::row_norms_f32(centroids.as_flat(), 16);
    let want = ref_assign(&data, &centroids, &cnorms);
    for threads in THREAD_COUNTS {
        let got: Vec<u32> =
            with_num_threads(threads, || ann_core::kmeans::assign(&data, &centroids));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(*g, w.0, "threads {threads}");
        }
        // and through the driver directly, distances included
        let mut pairs = Vec::new();
        with_num_threads(threads, || {
            blockscan::scan(
                &data,
                MatrixView::new(48, 16, centroids.as_flat()),
                &cnorms,
                &mut blockscan::Argmin { out: &mut pairs },
            )
        });
        for (g, w) in pairs.iter().zip(&want) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
    }
}

#[test]
fn locate_batch_bit_identical_to_pr3_loop_at_odd_batches() {
    let (data, queries) = workload(3000, 64);
    let idx = with_num_threads(1, || {
        IvfPqIndex::build(&data, &IvfPqParams::new(32).m(4).cb(16))
    });
    for nq in BATCH_SIZES {
        let qs = subset(&queries, nq);
        let want = ref_locate(&qs, &idx.coarse, &idx.coarse_norms, 7);
        for threads in THREAD_COUNTS {
            let got = with_num_threads(threads, || idx.locate_batch(&qs, 7));
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.len(), w.len(), "nq {nq} threads {threads}");
                for (a, b) in g.iter().zip(w) {
                    assert_eq!(a.0, b.0, "nq {nq} threads {threads}");
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "nq {nq} threads {threads}");
                }
            }
        }
    }
}

#[test]
fn cl_probes_and_charge_bit_identical_to_pr3_across_threads() {
    let (data, queries) = workload(3000, 64);
    let idx = with_num_threads(1, || {
        IvfPqIndex::build(&data, &IvfPqParams::new(32).m(4).cb(16))
    });
    let host = upmem_sim::platform::procs::xeon_silver_4216();
    for nq in BATCH_SIZES {
        let qs = subset(&queries, nq);
        let shape = WorkloadShape::new(
            data.len() as u64,
            nq,
            16,
            &IndexConfig {
                k: 10,
                nprobe: 6,
                nlist: 32,
                m: 4,
                cb: 16,
            },
            BitWidths::u8_regime(),
        );
        let want = ref_cl_probes(&qs, &idx.coarse, &idx.coarse_norms, 6);
        // the charge must be exactly the PR-3 whole-batch charge (the
        // driver tally sums to the query count)
        let want_host_s = cl::host_cl_time(nq, 32, &shape, &host);
        for threads in THREAD_COUNTS {
            let out = with_num_threads(threads, || {
                cl::run(&qs, &idx.coarse, &idx.coarse_norms, 6, &shape, &host)
            });
            assert_eq!(out.probes, want, "nq {nq} threads {threads}");
            assert_eq!(
                out.host_s.to_bits(),
                want_host_s.to_bits(),
                "nq {nq} threads {threads}"
            );
        }
    }
}

#[test]
fn msplit_threshold_boundary_is_bit_pure() {
    // tables just below, at, and above the driver's M-split threshold:
    // below it the per-block product is query-side-left and serial, at and
    // above it the product is table-side-left and pool-split — results
    // must be bitwise indistinguishable either way, at every thread count
    let dim = 8;
    let queries = prand_set(37, dim, 31);
    for nt in [
        blockscan::M_SPLIT_MIN - 1,
        blockscan::M_SPLIT_MIN,
        blockscan::M_SPLIT_MIN + 17,
    ] {
        let table = prand_set(nt, dim, 100 + nt as u64);
        let cnorms = kernels::row_norms_f32(table.as_flat(), dim);
        let want = ref_locate(&queries, &table, &cnorms, 5);
        for threads in THREAD_COUNTS {
            let mut got = Vec::new();
            with_num_threads(threads, || {
                blockscan::scan(
                    &queries,
                    MatrixView::new(nt, dim, table.as_flat()),
                    &cnorms,
                    &mut blockscan::TopN {
                        n: 5,
                        out: &mut got,
                    },
                )
            });
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                for (a, b) in g.iter().zip(w) {
                    assert_eq!(a.0, b.0, "nt {nt} threads {threads}");
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "nt {nt} threads {threads}");
                }
            }
        }
    }
}

#[test]
fn msplit_parallel_gemm_boundary_matches_serial_bitwise() {
    // the linalg M-split entry point at the stripe-boundary shapes the
    // driver feeds it (m = table rows, n = query block)
    use ann_core::linalg::GEMM_PAR_M_TILE;
    let dim = 8;
    let q = prand_set(32, dim, 7);
    let qv = MatrixView::new(32, dim, q.as_flat());
    for m in [
        GEMM_PAR_M_TILE,
        GEMM_PAR_M_TILE + 1,
        2 * GEMM_PAR_M_TILE + 5,
    ] {
        let t = prand_set(m, dim, 900 + m as u64);
        let tv = MatrixView::new(m, dim, t.as_flat());
        let mut serial = vec![0.0f32; m * 32];
        tv.matmul_t_into(&qv, &mut serial, 32);
        for threads in THREAD_COUNTS {
            let mut par = vec![0.0f32; m * 32];
            with_num_threads(threads, || {
                tv.matmul_t_into_par(&qv, &mut par, 32);
            });
            for i in 0..m * 32 {
                assert_eq!(
                    par[i].to_bits(),
                    serial[i].to_bits(),
                    "m {m} threads {threads} elem {i}"
                );
            }
        }
    }
}

/// `blockscan::Argmin` through the driver against `ref_assign`'s
/// sequential strict-`<` scan: index and distance bits per point.
fn assert_argmin_is_sequential(
    points: &VecSet<f32>,
    table: &VecSet<f32>,
    cnorms: &[f32],
    what: &str,
) {
    let want = ref_assign(points, table, cnorms);
    let mut got = Vec::new();
    blockscan::scan(
        points,
        MatrixView::new(table.len(), table.dim(), table.as_flat()),
        cnorms,
        &mut blockscan::Argmin { out: &mut got },
    );
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.0, w.0, "{what}: point {i}");
        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{what}: point {i}");
    }
}

#[test]
fn blocked_argmin_is_the_sequential_scan() {
    // Against an all-zero table every finite point's cross terms are +0.0,
    // so its scores are exactly the given centroid norms: ties, signed
    // zeros, NaN and ∞ land at chosen positions of the 16-wide blocks and
    // of the ragged tail. A NaN or ∞ point scores NaN everywhere, a row
    // with no finite score, which must give index 0.
    let dim = 5;
    let mut points = prand_set(24, dim, 77);
    points.push(&[0.0; 5]);
    points.push(&[f32::NAN, 0.5, 0.5, 0.5, 0.5]);
    points.push(&[0.5, f32::INFINITY, 0.5, 0.5, 0.5]);
    for nt in [1usize, 15, 16, 17, 33, 256] {
        let zeros = VecSet::from_flat(dim, vec![0.0; nt * dim]);
        let mut cases: Vec<(String, Vec<f32>)> = Vec::new();
        // the smallest value at period 7: its copies sit at every block
        // position, so only "lowest index" picks the right one
        for r in 0..7 {
            let norms = (0..nt).map(|j| ((j + r) * 5 % 7) as f32).collect();
            cases.push((format!("ties r {r}"), norms));
        }
        // −0.0 and +0.0 as the only zeros, in both orders, in one block,
        // across blocks and in the tail
        for (a, b) in [(0, 1), (1, 0), (3, 18), (18, 3), (20, 5), (5, 32), (32, 16)] {
            if a.max(b) < nt {
                let mut norms = vec![1.0f32; nt];
                norms[a] = -0.0;
                norms[b] = 0.0;
                cases.push((format!("signed zeros {a} {b}"), norms));
            }
        }
        // NaN scores around the minimum, index 0 included
        let norms = (0..nt)
            .map(|j| {
                if j % 3 == 0 {
                    f32::NAN
                } else {
                    2.0 + (j % 5) as f32
                }
            })
            .collect();
        cases.push(("NaN scores".into(), norms));
        // no score below ∞: every row gives index 0
        let norms = (0..nt)
            .map(|j| if j % 2 == 0 { f32::INFINITY } else { f32::NAN })
            .collect();
        cases.push(("none finite".into(), norms));
        for (what, norms) in &cases {
            assert_argmin_is_sequential(&points, &zeros, norms, &format!("nt {nt} {what}"));
        }
        let mut got = Vec::new();
        blockscan::scan(
            &points,
            MatrixView::new(nt, dim, zeros.as_flat()),
            &vec![f32::INFINITY; nt],
            &mut blockscan::Argmin { out: &mut got },
        );
        assert!(got.iter().all(|&(a, _)| a == 0), "nt {nt}: no finite score");

        // real tables: duplicated rows at period 7, and NaN in some rows
        let base = prand_set(nt, dim, 300 + nt as u64);
        let dup = VecSet::from_flat(
            dim,
            (0..nt).flat_map(|j| base.get(j % 7).to_vec()).collect(),
        );
        let mut nan = base.clone();
        for j in (0..nt).step_by(4) {
            nan.get_mut(j)[j % dim] = f32::NAN;
        }
        for (what, table) in [("random", &base), ("duplicates", &dup), ("NaN rows", &nan)] {
            let norms = kernels::row_norms_f32(table.as_flat(), dim);
            assert_argmin_is_sequential(&points, table, &norms, &format!("nt {nt} {what}"));
        }
    }
}
