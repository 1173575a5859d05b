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
//!
//! The search prices its candidates on the pool and picks among them in
//! candidate order, so `th1` is the same at every pool width. A candidate's
//! makespan is exact too: the LPT loop hands each weight, heaviest first,
//! to a least-loaded machine, and which of several equally loaded machines
//! takes it changes no load. The loads form the same multiset after every
//! step, so each machine's load is the same left fold of the same weights
//! whatever the queue's tie-break, and the makespan is the same maximum.

use super::{key, value, ClusterInfo, LayoutCounts, MinQueue, Slice};

/// The slice lengths of a cluster of `points` points cut at `th1`
/// (`th1 >= 1`), in offset order: slices of `ceil(points / n)` points for
/// `n = ceil(points / th1)`, the last one possibly shorter; one empty slice
/// for an empty cluster.
fn cut(points: usize, th1: usize) -> impl Iterator<Item = usize> {
    let cap = points.div_ceil(points.div_ceil(th1).max(1));
    let n = points.div_ceil(cap.max(1)).max(1);
    (0..n).map(move |i| cap.min(points - i * cap))
}

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
        let mut start = 0usize;
        for len in cut(c.points, th1) {
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
/// not at a few hundred points. Counts the candidates it prices and skips
/// in `counts`.
///
/// The candidates are priced on the pool, one item each, and the best is
/// taken in candidate order by strict `<`, as a sequential scan would:
/// the same `th1` at every pool width. A candidate's slices are priced
/// once per distinct length (`cost_of` is a function of the length alone)
/// and fed to [`lpt_makespan_weights`]' loop in descending order.
pub fn search_th1(
    clusters: &[ClusterInfo],
    ndpus: usize,
    cost_of: impl Fn(usize) -> f64 + Sync,
    counts: &mut LayoutCounts,
) -> usize {
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

    // A candidate's unsplit clusters are a prefix of the sizes in
    // ascending order, and one slice each.
    let mut sizes: Vec<usize> = clusters.iter().map(|c| c.points).collect();
    sizes.sort_unstable();
    // `None` for a candidate whose slice metadata is over the budget
    let makespans = rayon::par_map(candidates.len(), |c| {
        let th1 = candidates[c].max(1);
        let whole = sizes.partition_point(|&p| p <= th1);
        let mut pieces: Vec<usize> = sizes[whole..].iter().flat_map(|&p| cut(p, th1)).collect();
        if (whole + pieces.len()) as u64 * SLICE_META_BYTES > meta_budget {
            return None;
        }
        pieces.sort_unstable();
        // Per-probe cost of one slice under *random* (uniform) query
        // distribution — the paper profiles th1 exactly this way; query
        // skew is duplication's job, not partition's. Every slice length
        // in ascending order (the unsplit sizes merged with the pieces),
        // priced once per distinct length.
        let (sizes, mut i, mut j) = (&sizes[..whole], 0, 0);
        let mut keys = Vec::with_capacity(whole + pieces.len());
        let mut last = None;
        while i < sizes.len() || j < pieces.len() {
            let len = if j == pieces.len() || (i < sizes.len() && sizes[i] <= pieces[j]) {
                i += 1;
                sizes[i - 1]
            } else {
                j += 1;
                pieces[j - 1]
            };
            let k = match last {
                Some((l, k)) if l == len => k,
                _ => key(cost_of(len)),
            };
            last = Some((len, k));
            keys.push(k);
        }
        keys.sort_unstable(); // in order already where the cost grows with the length
        Some(lpt_makespan(&keys, ndpus))
    });
    let mut best = (usize::MAX, f64::INFINITY);
    for (&cand, makespan) in candidates.iter().zip(makespans) {
        let Some(makespan) = makespan else {
            counts.th1_skipped += 1;
            continue;
        };
        counts.th1_evaluated += 1;
        if makespan < best.1 {
            best = (cand, makespan);
        }
    }
    best.0.min(max_size).max(1)
}

/// LPT makespan over raw weights: heaviest first, each onto the machine
/// with the least load.
pub fn lpt_makespan_weights(weights: &[f64], ndpus: usize) -> f64 {
    let mut keys: Vec<u64> = weights.iter().map(|&w| key(w)).collect();
    keys.sort_unstable();
    lpt_makespan(&keys, ndpus)
}

/// The LPT loop over the [`key`]s of the weights in ascending order, taken
/// from the heaviest. Whichever of several equally loaded machines a
/// weight lands on, the loads form the same multiset after every step, so
/// the queue holds loads alone, and every load is the same left fold of
/// the same weights as under any other tie-break. While no weight is
/// negative, the heaviest `ndpus` land on one empty machine each.
fn lpt_makespan(asc: &[u64], ndpus: usize) -> f64 {
    let ndpus = ndpus.max(1);
    let split = asc.len().saturating_sub(ndpus);
    let (rest, heaviest) = if asc.get(split).is_none_or(|&k| k >= key(0.0)) {
        asc.split_at(split)
    } else {
        (asc, &[][..])
    };
    let mut loads = heaviest.to_vec();
    loads.resize(ndpus, key(0.0));
    let mut queue = MinQueue::new(loads);
    for &w in rest.iter().rev() {
        let least = queue.peek().expect("at least one machine");
        queue.replace_top(key(value(least) + value(w)));
    }
    queue.into_vec().into_iter().map(value).fold(0.0, f64::max)
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
        let th1 = search_th1(&cs, 8, |len| len as f64, &mut LayoutCounts::default());
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
        let th1 = search_th1(&cs, 8, |len| len as f64, &mut LayoutCounts::default());
        // uniform small clusters: no benefit from splitting below their size
        assert!(th1 >= 100, "th1 {th1}");
    }

    #[test]
    fn lpt_makespan_balances() {
        // 2 DPUs: LPT gives {4} and {3,3} -> makespan 6
        assert!((lpt_makespan_weights(&[4.0, 3.0, 3.0], 2) - 6.0).abs() < 1e-9);
    }
}
