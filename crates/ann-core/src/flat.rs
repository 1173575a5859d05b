//! Exact (brute-force) nearest-neighbor search, used for ground truth and
//! recall measurement. Parallelized over queries on the host pool.

use crate::kernels::l2_sq_f32;
use crate::topk::{BoundedMaxHeap, Neighbor};
use crate::vector::VecSet;

/// Exact top-k of `query` against every vector in `data`.
pub fn exact_search(query: &[f32], data: &VecSet<f32>, k: usize) -> Vec<Neighbor> {
    let mut heap = BoundedMaxHeap::new(k);
    for (i, v) in data.iter().enumerate() {
        heap.push(Neighbor::new(i as u64, l2_sq_f32(query, v)));
    }
    heap.into_sorted()
}

/// Exact top-k for a whole query set, parallel over queries.
pub fn exact_search_batch(
    queries: &VecSet<f32>,
    data: &VecSet<f32>,
    k: usize,
) -> Vec<Vec<Neighbor>> {
    rayon::par_map(queries.len(), |qi| exact_search(queries.get(qi), data, k))
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
