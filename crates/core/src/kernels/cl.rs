//! Cluster locating (CL) — the host-side phase.
//!
//! DRIM-ANN keeps CL on the host CPU "to balance the amount of transferred
//! data and the utilization of both DPUs and the host CPU" (paper
//! Section 5.2): shipping raw queries to all DPUs over the 0.75 % link would
//! dwarf the savings. Functionally this is exact nearest-centroid search;
//! its cost is charged to the host roofline model with the CL equations.
//!
//! The compute is formulated exactly the way the cost model charges it: a
//! *blocked GEMM*, executed by the shared blocked-distance driver
//! `ann_core::blockscan` (see its module docs for the block geometry,
//! per-thread scratch, per-block norm hoist, `qn + cn − 2·dot` correction
//! and the trace-scale M-split path — the same driver `locate_batch` and
//! k-means assignment run, so all three stay in lockstep by construction).
//! Both operands are *borrowed* (`linalg::MatrixView` over the caller's
//! flat slabs): the centroid table is never cloned, and its norms arrive
//! precomputed from the index's `coarse_norms` cache. This module only
//! adds what is CL-specific: block-level parallelism over the host thread
//! pool and the host-time charge. The charge unit comes straight from the
//! driver's [`TopNWithCharge`] consumer tally, so the meter books exactly
//! the rows the driver scanned — the work and traffic the model books per
//! Eq. 1 are unchanged from the hand-rolled formulation, and measured host
//! work still matches the charge.
//!
//! [`TopNWithCharge`]: ann_core::blockscan::TopNWithCharge

use crate::perf_model::WorkloadShape;
use ann_core::blockscan::{self, TopNWithCharge};
use ann_core::linalg::MatrixView;
use ann_core::vector::VecSet;
use upmem_sim::proc::ProcModel;

/// Queries per GEMM block (the shared driver's fixed block width). A
/// `dim x 32` query slab (~12 KiB at dim 96) stays L1/L2-resident across
/// the whole centroid stream, so the table is read once per block — a 32x
/// stream amortization over query-at-a-time scanning.
pub const QUERY_BLOCK: usize = blockscan::BLOCK;

/// Result of cluster locating for one batch.
#[derive(Debug, Clone)]
pub struct ClOutput {
    /// Per query: the probed cluster ids, ascending by centroid distance.
    pub probes: Vec<Vec<u32>>,
    /// Host wall-clock seconds charged for the phase.
    pub host_s: f64,
}

/// Locate the `nprobe` nearest coarse centroids for every query.
///
/// `centroid_norms` are the cached `‖c‖²` terms (the index's
/// `coarse_norms` field) — they are *not* recomputed here, and the
/// centroid table is used in place through a borrowed view, so a batch
/// costs no per-call copies of index state.
pub fn run(
    queries: &VecSet<f32>,
    centroids: &VecSet<f32>,
    centroid_norms: &[f32],
    nprobe: usize,
    shape: &WorkloadShape,
    host: &ProcModel,
) -> ClOutput {
    assert_eq!(
        centroid_norms.len(),
        centroids.len(),
        "centroid norm cache out of sync with the centroid table"
    );
    let nprobe = nprobe.min(centroids.len()).max(1);
    let dim = centroids.dim();
    let nlist = centroids.len();

    let cmat = MatrixView::new(nlist, dim, centroids.as_flat());

    // One parallel task per driver block: each task scans its block-aligned
    // query range through the shared driver (per-row results are invariant
    // to the range split, so the parallel cut is invisible) and reports the
    // rows it scanned for the host-time charge.
    let nblocks = queries.len().div_ceil(QUERY_BLOCK);
    let per_block: Vec<(Vec<Vec<u32>>, u64)> = rayon::par_map(nblocks, |b| {
        let lo = b * QUERY_BLOCK;
        let hi = (lo + QUERY_BLOCK).min(queries.len());
        let mut ids = Vec::with_capacity(hi - lo);
        let mut consumer = TopNWithCharge {
            n: nprobe,
            out: &mut ids,
            rows_scanned: 0,
        };
        blockscan::scan_range(queries, lo, hi, cmat, centroid_norms, &mut consumer);
        let rows = consumer.rows_scanned;
        (ids, rows)
    });
    let mut probes: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
    let mut rows_scanned = 0u64;
    for (ids, rows) in per_block {
        probes.extend(ids);
        rows_scanned += rows;
    }

    // Charge the host with the matching blocked-GEMM cost for exactly the
    // rows the driver scanned: the centroid table streams once per query
    // block — not once per query as the DPU-oriented Eq. 3 would charge.
    // Compute follows Eq. 1.
    let host_s = host_cl_time(rows_scanned as usize, centroids.len(), shape, host);
    ClOutput { probes, host_s }
}

/// Blocked-GEMM host time for CL over `q` queries and `nlist` centroids:
/// compute follows Eq. 1, but the centroid table streams once per *batch*
/// (Faiss blocks the query-centroid distance computation), not once per
/// query. The engine, trace mode and the analytic model all charge CL
/// through here.
pub fn host_cl_time(q: usize, nlist: usize, shape: &WorkloadShape, host: &ProcModel) -> f64 {
    let (q, nlist) = (q as f64, nlist as f64);
    let ops = q * nlist * (WorkloadShape::dist_ops(shape.d) + (shape.p.log2() - 1.0).max(0.0));
    let bytes = nlist * shape.d * 4.0
        + q * shape.d * 4.0
        + q * (shape.bits.b_l + shape.bits.b_a) * (shape.p.log2() + 1.0);
    host.time(ops, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::perf_model::BitWidths;
    use ann_core::kernels;
    use upmem_sim::platform::procs;

    fn centroids() -> VecSet<f32> {
        VecSet::from_flat(2, vec![0.0, 0.0, 10.0, 0.0, 0.0, 10.0, 10.0, 10.0])
    }

    fn cnorms(c: &VecSet<f32>) -> Vec<f32> {
        kernels::row_norms_f32(c.as_flat(), c.dim())
    }

    fn shape(q: usize) -> WorkloadShape {
        WorkloadShape::new(
            1000,
            q,
            2,
            &IndexConfig {
                k: 1,
                nprobe: 2,
                nlist: 4,
                m: 1,
                cb: 4,
            },
            BitWidths::u8_regime(),
        )
    }

    #[test]
    fn finds_nearest_clusters_in_order() {
        let queries = VecSet::from_flat(2, vec![1.0f32, 1.0]);
        let cents = centroids();
        let out = run(
            &queries,
            &cents,
            &cnorms(&cents),
            2,
            &shape(1),
            &procs::xeon_silver_4216(),
        );
        assert_eq!(out.probes[0][0], 0); // (0,0) closest to (1,1)
        assert_eq!(out.probes[0].len(), 2);
        assert!(out.host_s > 0.0);
    }

    #[test]
    fn nprobe_clamped_to_nlist() {
        let queries = VecSet::from_flat(2, vec![5.0f32, 5.0]);
        let cents = centroids();
        let out = run(
            &queries,
            &cents,
            &cnorms(&cents),
            100,
            &shape(1),
            &procs::xeon_silver_4216(),
        );
        assert_eq!(out.probes[0].len(), 4);
    }

    #[test]
    fn host_time_grows_sublinearly_with_batch() {
        // blocked GEMM: the centroid-table stream amortizes over the batch
        let q1 = VecSet::from_flat(2, vec![1.0f32, 1.0]);
        let mut q64 = VecSet::new(2);
        for _ in 0..64 {
            q64.push(&[1.0, 1.0]);
        }
        let host = procs::xeon_silver_4216();
        let cents = centroids();
        let cn = cnorms(&cents);
        let t1 = run(&q1, &cents, &cn, 2, &shape(1), &host).host_s;
        let t64 = run(&q64, &cents, &cn, 2, &shape(1), &host).host_s;
        assert!(t64 > t1, "t64 {t64} t1 {t1}");
        assert!(t64 < 64.0 * t1, "amortization missing: {}", t64 / t1);
    }

    #[test]
    fn host_cl_time_scales_with_nlist_at_large_batch() {
        let host = procs::xeon_silver_4216();
        let s = shape(1);
        let t_small = host_cl_time(10_000, 1 << 13, &s, &host);
        let t_large = host_cl_time(10_000, 1 << 16, &s, &host);
        assert!(
            (t_large / t_small - 8.0).abs() < 1.0,
            "ratio {}",
            t_large / t_small
        );
    }
}
