//! The unified blocked-distance driver behind every host-side
//! query-vs-table scan.
//!
//! DRIM-ANN's host phases (cluster locating, heat profiling, k-means
//! assignment) are all the same streaming pattern: squared L2 distances
//! from a slab of query rows to a table of centroid rows, decomposed as
//! `‖q‖² − 2·q·c + ‖c‖²` so the cross terms of a [`BLOCK`]-query block are
//! one tiled GEMM over the borrowed table (`ann_core::linalg`) and the
//! norms are rank-1 corrections. Before this module the pattern was
//! hand-rolled three times — k-means assignment (argmin consumer), index
//! locate (top-nprobe consumer) and the engine's CL kernel (top-nprobe +
//! host-time charge) — each carrying its own copy of the block geometry,
//! scratch management and correction loop. [`scan_range`] now owns all of
//! it exactly once:
//!
//! * **Block geometry** — fixed [`BLOCK`]-row query blocks, stepping from
//!   the caller's range start. The block cut is a pure function of the
//!   range, and the GEMM's per-element arithmetic is invariant to batch
//!   width (see `linalg`'s determinism contract), so results are identical
//!   no matter how callers split a query set across parallel tasks.
//! * **Per-thread scratch** — the cross-term buffer (and the transposed
//!   buffer plus gather row of the M-split path) live in a thread-local
//!   slot reused across calls, so per-block work pays no allocation on the
//!   hot path; a region's helpers each hold their own slot until the
//!   region ends.
//! * **Per-block row norms** — query norms come from one
//!   [`kernels::row_norms_into`] pass per block instead of a
//!   [`kernels::norm_sq_f32`] call per row. Per-row bits are unchanged
//!   (the batch pass runs the identical per-row kernel), so the hoist is
//!   invisible to every consumer.
//! * **The M-split escape hatch** — when the table has at least
//!   [`M_SPLIT_MIN`] rows (trace-scale `nlist`, 2^16 and beyond), the
//!   per-block product is issued table-side-left (`T · Q_blkᵀ`, M = table
//!   rows) through the pool-backed
//!   [`MatrixView::matmul_t_into_par`], then each query's
//!   cross-term column is gathered into a contiguous row for the consumer.
//!   The orientation swap is bit-free: IEEE multiplication commutes and
//!   both orientations accumulate in ascending-k order, so `(T·Qᵀ)[c][r]`
//!   and `(Q·Tᵀ)[r][c]` are the same bits. The path switch is a pure
//!   function of the table shape — never of the thread count.
//!
//! Consumers implement [`RowConsumer`]; [`Argmin`], [`TopN`] and
//! [`TopNWithCharge`] cover the three ported call sites.
//!
//! # Determinism contract
//!
//! Driver results are **bit-identical at any host thread count, batch
//! split or table scale**, because every potentially-varying choice is a
//! pure function of the *input*, never of the execution environment:
//!
//! * **Block cuts** are a pure function of the caller's query range
//!   (fixed [`BLOCK`]-row steps from the range start), and the task
//!   ranges of any parallel region above the driver are a pure function
//!   of input length (callers cut them; the pool only maps task
//!   indices) — so splitting a query
//!   set across tasks cannot move a query to a different block phase.
//! * **Per-element GEMM accumulation is strictly ascending-k**
//!   (`linalg`'s contract), so a cross term's bits do not depend on the
//!   batch width or tiling it was computed under.
//! * **The M-split path switch** ([`M_SPLIT_MIN`]) and the parallel
//!   GEMM's fixed row stripes depend only on the table shape, and IEEE
//!   multiplication commutes, so the table-side-left orientation produces
//!   the same bits as the query-side-left one.
//!
//! `tests/driver_parity.rs` pins all of this end to end: driver-routed
//! assignment/locate/CL bit-equal to the hand-rolled reference loops at
//! 1/2/4/8 threads, odd batch sizes, and tables straddling both path
//! thresholds.

use crate::kernels::{self, GROUP};
use crate::linalg::MatrixView;
use crate::topk::{BoundedMaxHeap, Neighbor};
use crate::vector::VecSet;

/// Query rows per GEMM block. A `BLOCK x dim` query slab (~12-16 KiB at
/// the paper's dimensions) stays cache-resident across the whole table
/// stream, so the table is read once per block — the 32x stream
/// amortization every ported consumer relied on.
pub const BLOCK: usize = 32;

/// Table row count at (and above) which a block's product is issued
/// table-side-left and M-split across the worker pool
/// ([`MatrixView::matmul_t_into_par`]). Covers trace-scale
/// `nlist` (2^16+) where a micro-batch caller has no outer parallelism
/// left; a pure function of the table shape so the path choice can never
/// depend on the pool width.
pub const M_SPLIT_MIN: usize = 2048;

/// Per-row consumer of the driver's corrected cross terms.
pub trait RowConsumer {
    /// One query row: `row` is the query's index in the scanned set, `qn`
    /// its squared norm (from the per-block norm pass), `table_norms` the
    /// cached `‖c‖²` terms, and `dots[c]` the contiguous cross terms
    /// `q · table_c` for every table row.
    fn row(&mut self, row: usize, qn: f32, table_norms: &[f32], dots: &[f32]);
}

/// Argmin consumer — k-means assignment. Pushes one
/// `(nearest row, squared distance)` pair per query.
///
/// Same argmin semantics as [`kernels::nearest_row`]: the `‖q‖²` term is
/// constant per query, so the argmin runs on `‖c‖² − 2·q·c` and the winner
/// gets the norm added back (clamped at zero against cancellation).
///
/// The scan over the scores is position-blocked (`kernels::first_min`):
/// each position of a 16-wide block keeps its own first strict-`<`
/// minimum, vectorised across positions; the smallest position value wins,
/// ties to the lowest index, and the ragged tail finishes sequentially.
/// That is exactly the first strict minimum a sequential `score < best`
/// scan from `(0, ∞)` finds, so the pushed `(index, (best + qn).max(0.0))`
/// has the sequential scan's bits for every input: NaN scores never win,
/// `−0.0` and `+0.0` tie and go to the lower index, and a row with no
/// score below `∞` gives index 0.
pub struct Argmin<'a> {
    /// Destination for the per-query `(assignment, distance)` pairs.
    pub out: &'a mut Vec<(u32, f32)>,
}

impl RowConsumer for Argmin<'_> {
    fn row(&mut self, _row: usize, qn: f32, table_norms: &[f32], dots: &[f32]) {
        let n = table_norms.len().min(dots.len());
        let (best, score) = kernels::first_min(
            n,
            |j0| {
                let (cn, dp) = (&table_norms[j0..j0 + GROUP], &dots[j0..j0 + GROUP]);
                // an index loop, not `array::from_fn`, which unoptimised
                // test builds run as an iterator per block
                let mut scores = [0.0f32; GROUP];
                for p in 0..GROUP {
                    scores[p] = cn[p] - 2.0 * dp[p];
                }
                scores
            },
            |j| table_norms[j] - 2.0 * dots[j],
        );
        self.out.push((best as u32, (score + qn).max(0.0)));
    }
}

/// Top-N consumer — cluster locating. Pushes one list of the `n` nearest
/// table rows per query, ascending by distance (ties broken by id through
/// [`BoundedMaxHeap`], exactly like the pre-driver loops).
pub struct TopN<'a> {
    /// Rows kept per query (callers clamp to the table size).
    pub n: usize,
    /// Destination: one sorted `(row id, distance)` list per query.
    pub out: &'a mut Vec<Vec<(u32, f32)>>,
}

impl RowConsumer for TopN<'_> {
    fn row(&mut self, _row: usize, qn: f32, table_norms: &[f32], dots: &[f32]) {
        let mut heap = BoundedMaxHeap::new(self.n);
        for (c, (&cn, &dp)) in table_norms.iter().zip(dots).enumerate() {
            let d = (qn + cn - 2.0 * dp).max(0.0);
            heap.push(Neighbor::new(c as u64, d));
        }
        self.out.push(
            heap.into_sorted()
                .into_iter()
                .map(|n| (n.id as u32, n.dist))
                .collect(),
        );
    }
}

/// Top-N consumer for the engine's host-side CL phase: keeps only the
/// probe ids and tallies the scanned rows, so the caller charges the host
/// roofline meter for exactly the work the driver performed (one
/// table stream per query row) rather than re-deriving the count.
pub struct TopNWithCharge<'a> {
    /// Probes kept per query (callers clamp to the table size).
    pub n: usize,
    /// Destination: one probe-id list per query, ascending by distance.
    pub out: &'a mut Vec<Vec<u32>>,
    /// Query rows consumed so far — the host-time charge unit.
    pub rows_scanned: u64,
}

impl RowConsumer for TopNWithCharge<'_> {
    fn row(&mut self, _row: usize, qn: f32, table_norms: &[f32], dots: &[f32]) {
        let mut heap = BoundedMaxHeap::new(self.n);
        for (c, (&cn, &dp)) in table_norms.iter().zip(dots).enumerate() {
            let d = (qn + cn - 2.0 * dp).max(0.0);
            heap.push(Neighbor::new(c as u64, d));
        }
        self.out.push(
            heap.into_sorted()
                .into_iter()
                .map(|n| n.id as u32)
                .collect(),
        );
        self.rows_scanned += 1;
    }
}

/// Per-thread scratch reused across [`scan_range`] calls: cross terms,
/// query norms, and the transposed-product + gather-row buffers of the
/// M-split path. Taken out of the slot for the duration of a scan (a
/// reentrant scan simply allocates fresh) and returned afterwards.
struct Scratch {
    dots: Vec<f32>,
    qnorms: Vec<f32>,
    dots_t: Vec<f32>,
    row: Vec<f32>,
}

thread_local! {
    static SCRATCH: std::cell::Cell<Option<Box<Scratch>>> = const { std::cell::Cell::new(None) };
}

/// Scan query rows `[lo, hi)` of `queries` against `table`, feeding every
/// corrected cross-term row to `consumer` in ascending row order.
///
/// `table_norms` must be `kernels::row_norms_f32` of the table (callers
/// cache it — centroid tables live across many batches). Blocks step from
/// `lo` in [`BLOCK`]-row strides, so a caller that splits a query set into
/// block-aligned ranges (as the parallel CL and Lloyd paths do) gets
/// bit-identical per-row results to one whole-range scan.
pub fn scan_range(
    queries: &VecSet<f32>,
    lo: usize,
    hi: usize,
    table: MatrixView<'_>,
    table_norms: &[f32],
    consumer: &mut impl RowConsumer,
) {
    let dim = queries.dim();
    assert_eq!(dim, table.cols, "query/table dimension mismatch");
    assert_eq!(
        table.rows,
        table_norms.len(),
        "table norm cache out of sync with the table"
    );
    let n = table.rows;
    if lo >= hi || n == 0 {
        return;
    }
    let mut scratch = SCRATCH.with(|slot| slot.take()).unwrap_or_else(|| {
        Box::new(Scratch {
            dots: Vec::new(),
            qnorms: Vec::new(),
            dots_t: Vec::new(),
            row: Vec::new(),
        })
    });

    let split = n >= M_SPLIT_MIN;
    for blo in (lo..hi).step_by(BLOCK) {
        let bhi = (blo + BLOCK).min(hi);
        let rows = bhi - blo;
        let qslab = &queries.as_flat()[blo * dim..bhi * dim];
        let qv = MatrixView::new(rows, dim, qslab);
        kernels::row_norms_into(qslab, dim, &mut scratch.qnorms);
        if split {
            // table-side-left orientation: T (n x dim) · Q_blkᵀ, M-split
            // over the pool; cross terms land transposed (n x rows) and
            // each query's column is gathered into a contiguous row
            if scratch.dots_t.len() < n * rows {
                scratch.dots_t.resize(n * rows, 0.0);
            }
            if scratch.row.len() < n {
                scratch.row.resize(n, 0.0);
            }
            scratch.dots_t[..n * rows].fill(0.0);
            table.matmul_t_into_par(&qv, &mut scratch.dots_t[..n * rows], rows);
            for r in 0..rows {
                for (c, dst) in scratch.row[..n].iter_mut().enumerate() {
                    *dst = scratch.dots_t[c * rows + r];
                }
                consumer.row(blo + r, scratch.qnorms[r], table_norms, &scratch.row[..n]);
            }
        } else {
            // query-side-left orientation: Q_blk · Tᵀ, cross terms already
            // row-contiguous (matmul_t_into accumulates, so the touched
            // region is re-zeroed per block)
            if scratch.dots.len() < rows * n {
                scratch.dots.resize(rows * n, 0.0);
            }
            scratch.dots[..rows * n].fill(0.0);
            qv.matmul_t_into(&table, &mut scratch.dots[..rows * n], n);
            for r in 0..rows {
                consumer.row(
                    blo + r,
                    scratch.qnorms[r],
                    table_norms,
                    &scratch.dots[r * n..(r + 1) * n],
                );
            }
        }
    }

    SCRATCH.with(|slot| slot.set(Some(scratch)));
}

/// [`scan_range`] over every row of `queries`.
pub fn scan(
    queries: &VecSet<f32>,
    table: MatrixView<'_>,
    table_norms: &[f32],
    consumer: &mut impl RowConsumer,
) {
    scan_range(queries, 0, queries.len(), table, table_norms, consumer);
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The pre-driver reference: per-block GEMM + per-row norm + argmin,
    /// exactly as `kmeans::assign_range_gemm` rolled it by hand.
    fn ref_argmin(queries: &VecSet<f32>, table: &VecSet<f32>, cnorms: &[f32]) -> Vec<(u32, f32)> {
        let dim = queries.dim();
        let k = table.len();
        let tv = MatrixView::new(k, dim, table.as_flat());
        let mut out = Vec::new();
        let mut dots = vec![0.0f32; BLOCK.min(queries.len().max(1)) * k];
        for blo in (0..queries.len()).step_by(BLOCK) {
            let bhi = (blo + BLOCK).min(queries.len());
            let rows = bhi - blo;
            let qv = MatrixView::new(rows, dim, &queries.as_flat()[blo * dim..bhi * dim]);
            dots[..rows * k].fill(0.0);
            qv.matmul_t_into(&tv, &mut dots[..rows * k], k);
            for r in 0..rows {
                let mut best = (0usize, f32::INFINITY);
                for (j, (&cn, &dp)) in cnorms.iter().zip(&dots[r * k..(r + 1) * k]).enumerate() {
                    let score = cn - 2.0 * dp;
                    if score < best.1 {
                        best = (j, score);
                    }
                }
                let qn = kernels::norm_sq_f32(queries.get(blo + r));
                out.push((best.0 as u32, (best.1 + qn).max(0.0)));
            }
        }
        out
    }

    #[test]
    fn argmin_matches_hand_rolled_reference_bitwise() {
        for &(nq, nt) in &[(1usize, 5usize), (7, 33), (33, 64), (64, 100)] {
            let queries = prand_set(nq, 12, 3 + nq as u64);
            let table = prand_set(nt, 12, 17 + nt as u64);
            let cnorms = kernels::row_norms_f32(table.as_flat(), 12);
            let want = ref_argmin(&queries, &table, &cnorms);
            let mut got = Vec::new();
            scan(
                &queries,
                MatrixView::new(nt, 12, table.as_flat()),
                &cnorms,
                &mut Argmin { out: &mut got },
            );
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.0, w.0);
                assert_eq!(g.1.to_bits(), w.1.to_bits());
            }
        }
    }

    #[test]
    fn range_split_is_invisible() {
        // scanning [0, n) in one call vs arbitrary block-aligned splits
        // must feed identical rows (the contract Lloyd chunking relies on)
        let queries = prand_set(96, 8, 5);
        let table = prand_set(19, 8, 7);
        let cnorms = kernels::row_norms_f32(table.as_flat(), 8);
        let tv = MatrixView::new(19, 8, table.as_flat());
        let mut whole = Vec::new();
        scan(&queries, tv, &cnorms, &mut Argmin { out: &mut whole });
        let mut split = Vec::new();
        for (lo, hi) in [(0usize, 32usize), (32, 64), (64, 96)] {
            scan_range(
                &queries,
                lo,
                hi,
                tv,
                &cnorms,
                &mut Argmin { out: &mut split },
            );
        }
        assert_eq!(whole.len(), split.len());
        for (a, b) in whole.iter().zip(&split) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn topn_and_charge_consumers_agree() {
        let queries = prand_set(11, 8, 9);
        let table = prand_set(25, 8, 11);
        let cnorms = kernels::row_norms_f32(table.as_flat(), 8);
        let tv = MatrixView::new(25, 8, table.as_flat());
        let mut full = Vec::new();
        scan(
            &queries,
            tv,
            &cnorms,
            &mut TopN {
                n: 4,
                out: &mut full,
            },
        );
        let mut ids = Vec::new();
        let mut charged = TopNWithCharge {
            n: 4,
            out: &mut ids,
            rows_scanned: 0,
        };
        scan(&queries, tv, &cnorms, &mut charged);
        assert_eq!(charged.rows_scanned, 11);
        for (f, i) in full.iter().zip(&ids) {
            let f_ids: Vec<u32> = f.iter().map(|&(c, _)| c).collect();
            assert_eq!(&f_ids, i);
        }
    }

    #[test]
    fn msplit_path_bit_identical_to_small_table_path() {
        // tables straddling M_SPLIT_MIN: the table-side-left parallel
        // orientation must reproduce the query-side-left bits exactly
        let queries = prand_set(37, 6, 13);
        for &nt in &[M_SPLIT_MIN - 1, M_SPLIT_MIN, M_SPLIT_MIN + 9] {
            let table = prand_set(nt, 6, 15 + nt as u64);
            let cnorms = kernels::row_norms_f32(table.as_flat(), 6);
            let want = ref_argmin(&queries, &table, &cnorms);
            for threads in [1usize, 4] {
                let mut got = Vec::new();
                rayon::with_num_threads(threads, || {
                    scan(
                        &queries,
                        MatrixView::new(nt, 6, table.as_flat()),
                        &cnorms,
                        &mut Argmin { out: &mut got },
                    );
                });
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.0, w.0, "nt {nt} threads {threads}");
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "nt {nt} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn empty_inputs_are_noops() {
        let queries = prand_set(0, 4, 1);
        let table = prand_set(3, 4, 2);
        let cnorms = kernels::row_norms_f32(table.as_flat(), 4);
        let mut out = Vec::new();
        scan(
            &queries,
            MatrixView::new(3, 4, table.as_flat()),
            &cnorms,
            &mut Argmin { out: &mut out },
        );
        assert!(out.is_empty());
    }
}
