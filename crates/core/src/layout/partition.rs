//! Cluster partition: split oversized clusters into equal-capacity slices
//! (paper Fig. 5a).
//!
//! The threshold `th1` trades slice-metadata overhead against balance: "th1
//! is set as the size of the smallest cluster at the beginning and iterates
//! with a dynamic learning rate" under the constraint that slice metadata
//! fits WRAM. [`search_th1`] reproduces that search with an explicit
//! makespan objective: for each candidate threshold it asks "if these slices
//! were spread greedily over the DPUs, how long would the hottest DPU take,
//! and what does the extra metadata cost?".

use super::{ClusterInfo, Slice};

/// Split every cluster into slices of at most `th1` points.
///
/// Slices of one cluster are equal-capacity (`ceil(points / n_slices)`), in
/// offset order, and heat divides proportionally to length.
pub fn partition(clusters: &[ClusterInfo], th1: usize) -> Vec<Slice> {
    let th1 = th1.max(1);
    let mut out = Vec::with_capacity(clusters.len());
    for c in clusters {
        if c.points == 0 {
            out.push(Slice {
                cluster: c.id,
                start: 0,
                len: 0,
                heat: c.heat,
            });
            continue;
        }
        let n_slices = c.points.div_ceil(th1);
        let cap = c.points.div_ceil(n_slices);
        let mut start = 0usize;
        while start < c.points {
            let len = cap.min(c.points - start);
            out.push(Slice {
                cluster: c.id,
                start,
                len,
                heat: c.heat * len as f64 / c.points as f64,
            });
            start += len;
        }
    }
    out
}

/// Metadata bytes per slice kept in WRAM (cluster id, offsets, DPU map
/// entry; paper keeps "all of the metadata ... on WRAMs").
pub const SLICE_META_BYTES: u64 = 24;

/// Search the split threshold minimizing the predicted makespan, mirroring
/// the paper's iterative procedure ("th1 is set as the size of the smallest
/// cluster at the beginning and iterates with a dynamic learning rate").
///
/// `cost_of` is what one probe of a slice of the given length costs its DPU
/// (the scheduler's heat, [`crate::kernels::GroupCost::heat`]): besides the scan
/// of its points, every extra slice of a probed cluster re-runs LC, so fine
/// splits trade balance against duplicated LUT construction — which is why
/// the useful granularity sits in the 10^4-point range (paper Fig. 14a),
/// not at a few hundred points.
pub fn search_th1(clusters: &[ClusterInfo], ndpus: usize, cost_of: impl Fn(usize) -> f64) -> usize {
    let min_size = clusters
        .iter()
        .map(|c| c.points)
        .filter(|&p| p > 0)
        .min()
        .unwrap_or(1)
        .max(1);
    let max_size = clusters.iter().map(|c| c.points).max().unwrap_or(1).max(1);

    // candidate thresholds on a geometric grid from the smallest cluster
    // (paper's starting point) to the largest
    let mut candidates = Vec::new();
    let mut t = min_size as f64;
    while (t as usize) < max_size {
        candidates.push(t as usize);
        t *= 1.5; // the "dynamic learning rate" step
    }
    candidates.push(max_size);

    // metadata budget: slice metadata must fit alongside other WRAM buffers;
    // allow half of a 64 KiB WRAM for it
    let meta_budget = (32u64 << 10) * ndpus as u64;

    let mut best = (usize::MAX, f64::INFINITY);
    for &cand in &candidates {
        let slices = partition(clusters, cand);
        let meta_bytes = slices.len() as u64 * SLICE_META_BYTES;
        if meta_bytes > meta_budget {
            continue;
        }
        // Per-probe cost of one slice under *random* (uniform) query
        // distribution — the paper profiles th1 exactly this way; query
        // skew is duplication's job, not partition's.
        let weights: Vec<f64> = slices.iter().map(|s| cost_of(s.len)).collect();
        let makespan = lpt_makespan_weights(&weights, ndpus);
        if makespan < best.1 {
            best = (cand, makespan);
        }
    }
    best.0.min(max_size).max(1)
}

/// LPT makespan over raw weights.
pub fn lpt_makespan_weights(weights: &[f64], ndpus: usize) -> f64 {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct MinLoad(f64);
    impl Eq for MinLoad {}
    impl PartialOrd for MinLoad {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for MinLoad {
        fn cmp(&self, other: &Self) -> Ordering {
            other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal)
        }
    }

    let mut ws = weights.to_vec();
    ws.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let mut heap: BinaryHeap<MinLoad> = (0..ndpus.max(1)).map(|_| MinLoad(0.0)).collect();
    for w in ws {
        let MinLoad(min) = heap.pop().unwrap();
        heap.push(MinLoad(min + w));
    }
    heap.into_iter().map(|MinLoad(l)| l).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u32, points: usize, heat: f64) -> ClusterInfo {
        ClusterInfo { id, points, heat }
    }

    #[test]
    fn small_clusters_stay_whole() {
        let cs = vec![mk(0, 50, 1.0), mk(1, 99, 2.0)];
        let slices = partition(&cs, 100);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].len, 50);
        assert_eq!(slices[1].len, 99);
    }

    #[test]
    fn large_cluster_splits_evenly() {
        let cs = vec![mk(0, 250, 10.0)];
        let slices = partition(&cs, 100);
        assert_eq!(slices.len(), 3);
        let lens: Vec<usize> = slices.iter().map(|s| s.len).collect();
        assert_eq!(lens.iter().sum::<usize>(), 250);
        // equal-capacity: ceil(250/3) = 84 -> 84, 84, 82
        assert!(lens.iter().all(|&l| l <= 84));
        // offsets are contiguous
        assert_eq!(slices[0].start, 0);
        assert_eq!(slices[1].start, 84);
        assert_eq!(slices[2].start, 168);
    }

    #[test]
    fn heat_divides_proportionally() {
        let cs = vec![mk(0, 200, 10.0)];
        let slices = partition(&cs, 100);
        let total: f64 = slices.iter().map(|s| s.heat).sum();
        assert!((total - 10.0).abs() < 1e-9);
        assert!((slices[0].heat - 5.0).abs() < 1e-9);
    }

    #[test]
    fn th1_one_gives_single_point_slices() {
        let cs = vec![mk(0, 5, 1.0)];
        let slices = partition(&cs, 1);
        assert_eq!(slices.len(), 5);
        assert!(slices.iter().all(|s| s.len == 1));
    }

    #[test]
    fn empty_cluster_keeps_placeholder_slice() {
        let cs = vec![mk(0, 0, 0.0)];
        let slices = partition(&cs, 10);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].len, 0);
    }

    #[test]
    fn search_th1_splits_skewed_clusters() {
        // one giant hot cluster + many small ones: threshold must be below
        // the giant so its load can spread
        let mut cs: Vec<ClusterInfo> = (1..32).map(|i| mk(i, 100, 1.0)).collect();
        cs.push(mk(0, 10_000, 100.0));
        let th1 = search_th1(&cs, 8, |len| len as f64);
        assert!(th1 < 10_000, "th1 {th1} should split the giant cluster");
        // and the resulting makespan improves over no-split
        let makespan = |th1| {
            let heats: Vec<f64> = partition(&cs, th1).iter().map(|s| s.heat).collect();
            lpt_makespan_weights(&heats, 8)
        };
        let (split, whole) = (makespan(th1), makespan(usize::MAX));
        assert!(split < whole, "split {split} whole {whole}");
    }

    #[test]
    fn search_th1_keeps_uniform_clusters_whole() {
        let cs: Vec<ClusterInfo> = (0..64).map(|i| mk(i, 100, 1.0)).collect();
        let th1 = search_th1(&cs, 8, |len| len as f64);
        // uniform small clusters: no benefit from splitting below their size
        assert!(th1 >= 100, "th1 {th1}");
    }

    #[test]
    fn lpt_makespan_balances() {
        // 2 DPUs: LPT gives {4} and {3,3} -> makespan 6
        assert!((lpt_makespan_weights(&[4.0, 3.0, 3.0], 2) - 6.0).abs() < 1e-9);
    }
}
