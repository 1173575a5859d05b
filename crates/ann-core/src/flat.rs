//! Exact (brute-force) nearest-neighbor search, used for ground truth and
//! recall measurement.
//!
//! [`exact_search`] is the reference: one query, every row in id order,
//! each offered to a [`BoundedMaxHeap`]. [`exact_search_batch`] returns
//! exactly its lists — ids, and the bits of every distance that is not NaN
//! — for every query, but reads the corpus once per block of
//! [`QUERY_BLOCK`] queries instead of once per query.
//!
//! **Tiling.** Blocks run in parallel on the host pool. A block copies its
//! queries into [`kernels::to_groups`]' layout (16 queries per group, one
//! coordinate of all 16 contiguous) and scans the corpus in row tiles of
//! about [`TILE_BYTES`], which stay in cache while every group of the
//! block passes over them. [`kernels::l2_sq_group`] computes one row's
//! distances to a group's 16 queries in a loop vectorised across the
//! queries; each is `kernels::l2_sq_f32(query, row)` to the bit, NaN
//! payloads aside (that kernel's expression tree, stated in its docs). Per
//! query the rows still arrive in ascending id order. A NaN compares the
//! same whatever its payload, so every heap makes the same choices.
//!
//! **The gate.** The batch path calls `push` only where
//! [`BoundedMaxHeap::admits_next`] says yes: while the heap is not full, or
//! when `d < heap.bound()`. That is `push`'s own acceptance test for
//! ascending ids: a full heap takes a candidate iff it orders before the
//! root by `(dist, id)`, and since the candidate's id is above every
//! retained id, an equal distance — or a NaN on either side, which the
//! order reads as equal — leaves the id to decide, and the id says no.
//! `d < bound` is false in exactly those cases. A skipped push is one that
//! would have returned `false` without touching the heap, so every heap
//! goes through the same states as in [`exact_search`].

use crate::kernels::{self, l2_sq_f32};
use crate::topk::{BoundedMaxHeap, Neighbor};
use crate::vector::VecSet;

/// Queries per parallel block of [`exact_search_batch`] (a multiple of
/// [`kernels::GROUP`]): the corpus is streamed once per block.
pub const QUERY_BLOCK: usize = 64;
const _: () = assert!(QUERY_BLOCK.is_multiple_of(kernels::GROUP));

/// Bytes of corpus rows per tile of [`exact_search_batch`], sized to stay
/// in a core's L2 while every query group of a block scans it.
pub const TILE_BYTES: usize = 128 * 1024;

/// Exact top-k of `query` against every vector in `data`.
pub fn exact_search(query: &[f32], data: &VecSet<f32>, k: usize) -> Vec<Neighbor> {
    let mut heap = BoundedMaxHeap::new(k);
    for (i, v) in data.iter().enumerate() {
        heap.push(Neighbor::new(i as u64, l2_sq_f32(query, v)));
    }
    heap.into_sorted()
}

/// Exact top-k for a whole query set: [`exact_search`]'s lists per query
/// (NaN payloads aside), parallel over query blocks, the corpus scanned in
/// row tiles (see the module docs).
pub fn exact_search_batch(
    queries: &VecSet<f32>,
    data: &VecSet<f32>,
    k: usize,
) -> Vec<Vec<Neighbor>> {
    assert_eq!(queries.dim(), data.dim(), "query and corpus dims differ");
    let dim = data.dim();
    let tile = (TILE_BYTES / (4 * dim)).max(1);
    let blocks = rayon::par_map(queries.len().div_ceil(QUERY_BLOCK), |b| {
        let qs = b * QUERY_BLOCK..((b + 1) * QUERY_BLOCK).min(queries.len());
        let groups = kernels::to_groups(&queries.as_flat()[qs.start * dim..qs.end * dim], dim);
        let mut heaps: Vec<BoundedMaxHeap> = qs.map(|_| BoundedMaxHeap::new(k)).collect();
        for lo in (0..data.len()).step_by(tile) {
            let rows = lo..(lo + tile).min(data.len());
            for (group, heaps) in groups
                .chunks_exact(kernels::GROUP * dim)
                .zip(heaps.chunks_mut(kernels::GROUP))
            {
                for i in rows.clone() {
                    let dists = kernels::l2_sq_group(group, data.get(i));
                    for (heap, &d) in heaps.iter_mut().zip(&dists) {
                        if heap.admits_next(d) {
                            heap.push(Neighbor::new(i as u64, d));
                        }
                    }
                }
            }
        }
        heaps
    });
    blocks
        .into_iter()
        .flatten()
        .map(BoundedMaxHeap::into_sorted)
        .collect()
}

/// Ground-truth id lists (`queries.len() x k`).
pub fn ground_truth(queries: &VecSet<f32>, data: &VecSet<f32>, k: usize) -> Vec<Vec<u64>> {
    exact_search_batch(queries, data, k)
        .into_iter()
        .map(|ns| ns.into_iter().map(|n| n.id).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_data() -> VecSet<f32> {
        // points at x = 0, 1, 2, ..., 9 on a line
        VecSet::from_flat(1, (0..10).map(|i| i as f32).collect())
    }

    #[test]
    fn exact_search_orders_by_distance() {
        let data = grid_data();
        let res = exact_search(&[3.2], &data, 3);
        let ids: Vec<u64> = res.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 4, 2]);
    }

    #[test]
    fn batch_matches_single() {
        let data = grid_data();
        let queries = VecSet::from_flat(1, vec![0.1f32, 8.9]);
        let batch = exact_search_batch(&queries, &data, 2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0][0].id, 0);
        assert_eq!(batch[1][0].id, 9);
    }

    #[test]
    fn ground_truth_strips_distances() {
        let data = grid_data();
        let queries = VecSet::from_flat(1, vec![5.4f32]);
        let gt = ground_truth(&queries, &data, 2);
        assert_eq!(gt, vec![vec![5u64, 6]]);
    }

    #[test]
    fn k_larger_than_dataset_returns_all() {
        let data = grid_data();
        let res = exact_search(&[0.0], &data, 100);
        assert_eq!(res.len(), 10);
    }
}
