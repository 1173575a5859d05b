//! Cluster allocation: place slice copies on DPUs (paper Fig. 5c).
//!
//! The heat-balanced policy allocates greedily — hottest slice first onto
//! the coldest DPU with capacity — then runs the paper's *exchange* pass:
//! slices of the same cluster scattered over different DPUs are swapped
//! toward co-location (so the residual, distance LUT and priority queue
//! computed for a (query, cluster) pair are reused), with swap partners
//! chosen to keep the heat balance intact. Copies of the *same* slice must
//! stay on distinct DPUs (they exist to give the scheduler alternatives).

use super::Slice;

/// Per-DPU byte budget tracking shared by both policies.
struct Capacity {
    bytes: Vec<u64>,
    budget: u64,
    bytes_per_point: u64,
}

impl Capacity {
    fn new(ndpus: usize, budget: u64, bytes_per_point: u64) -> Self {
        Capacity {
            bytes: vec![0; ndpus],
            budget,
            bytes_per_point,
        }
    }

    fn cost(&self, s: &Slice) -> u64 {
        s.len as u64 * self.bytes_per_point
    }

    fn fits(&self, dpu: usize, s: &Slice) -> bool {
        self.bytes[dpu] + self.cost(s) <= self.budget
    }

    fn place(&mut self, dpu: usize, s: &Slice) {
        self.bytes[dpu] += self.cost(s);
    }
}

/// Round-robin placement: slices in index order, copies to consecutive
/// DPUs, honoring capacity for duplicate copies. The imbalanced baseline
/// of Fig. 13.
pub fn round_robin(
    slices: &[Slice],
    copies: &[usize],
    ndpus: usize,
    bytes_per_point: u64,
    budget: u64,
) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut slice_homes = vec![Vec::new(); slices.len()];
    let mut cap = Capacity::new(ndpus, budget, bytes_per_point);
    let mut cursor = 0usize;
    for (i, &n) in copies.iter().enumerate() {
        let s = &slices[i];
        for c in 0..n.min(ndpus) {
            let d = (cursor + c) % ndpus;
            let mandatory = c == 0;
            if mandatory || cap.fits(d, s) {
                slice_homes[i].push(d);
                cap.place(d, s);
            }
        }
        cursor = (cursor + 1) % ndpus;
    }
    (slice_homes.clone(), invert(&slice_homes, ndpus))
}

/// Lazy min-heap over DPU loads: pop candidates cheapest-first, skipping
/// stale entries. Keeps greedy allocation at O(copies log ndpus) instead of
/// a linear scan per placement (which is hopeless at 65k slices x 2.5k
/// DPUs).
struct ColdHeap {
    heap: std::collections::BinaryHeap<HeapEntry>,
}

#[derive(PartialEq)]
struct HeapEntry {
    load: f64,
    dpu: usize,
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed on load: min-heap behaviour from BinaryHeap
        other
            .load
            .partial_cmp(&self.load)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(other.dpu.cmp(&self.dpu))
    }
}

impl ColdHeap {
    fn new(ndpus: usize) -> Self {
        ColdHeap {
            heap: (0..ndpus).map(|dpu| HeapEntry { load: 0.0, dpu }).collect(),
        }
    }

    /// Coldest DPU satisfying `ok`, given the authoritative `load` array.
    /// Stale heap entries are discarded; rejected-but-fresh entries are
    /// reinserted.
    fn pop_coldest(&mut self, load: &[f64], ok: impl Fn(usize) -> bool) -> Option<usize> {
        let mut stash = Vec::new();
        let mut found = None;
        while let Some(e) = self.heap.pop() {
            if (e.load - load[e.dpu]).abs() > 1e-12 {
                // stale: reinsert with the current load and keep looking
                self.heap.push(HeapEntry {
                    load: load[e.dpu],
                    dpu: e.dpu,
                });
                continue;
            }
            if ok(e.dpu) {
                found = Some(e.dpu);
                break;
            }
            stash.push(e);
            // bounded rejection: with `taken` of size <= ndpus this ends
        }
        for e in stash {
            self.heap.push(e);
        }
        found
    }

    /// Record the new load of `dpu` after a placement.
    fn update(&mut self, dpu: usize, load: f64) {
        self.heap.push(HeapEntry { load, dpu });
    }
}

/// Heat-balanced greedy allocation + co-location exchange.
pub fn heat_balanced(
    slices: &[Slice],
    copies: &[usize],
    ndpus: usize,
    bytes_per_point: u64,
    budget: u64,
) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut slice_homes = vec![Vec::new(); slices.len()];
    let mut load = vec![0.0f64; ndpus];
    let mut cap = Capacity::new(ndpus, budget, bytes_per_point);
    let mut cold = ColdHeap::new(ndpus);

    // Phase 1: every slice's mandatory copy, hottest first onto the coldest
    // feasible DPU — reserving capacity before any duplicate lands.
    let mut order: Vec<usize> = (0..slices.len()).collect();
    order.sort_by(|&a, &b| slices[b].heat.partial_cmp(&slices[a].heat).unwrap());
    for &i in &order {
        let s = &slices[i];
        let share = s.heat / copies[i].min(ndpus).max(1) as f64;
        let home = cold
            .pop_coldest(&load, |d| cap.fits(d, s))
            .or_else(|| {
                // capacity exhausted everywhere: least-loaded-in-bytes DPU
                // (the MRAM tracker reports genuine overflow at build time)
                (0..ndpus).min_by_key(|&d| cap.bytes[d])
            })
            .expect("at least one DPU");
        slice_homes[i].push(home);
        load[home] += share;
        cap.place(home, s);
        cold.update(home, load[home]);
    }

    // Phase 2: duplicates, dropped when no DPU has room.
    for &i in &order {
        let s = &slices[i];
        let n = copies[i].min(ndpus).max(1);
        let share = s.heat / n as f64;
        for _ in 1..n {
            let taken = slice_homes[i].clone();
            let Some(home) = cold.pop_coldest(&load, |d| !taken.contains(&d) && cap.fits(d, s))
            else {
                break; // out of capacity for this slice size
            };
            slice_homes[i].push(home);
            load[home] += share;
            cap.place(home, s);
            cold.update(home, load[home]);
        }
    }

    exchange_for_colocation(slices, &mut slice_homes, &mut load, &mut cap);

    (slice_homes.clone(), invert(&slice_homes, ndpus))
}

fn invert(slice_homes: &[Vec<usize>], ndpus: usize) -> Vec<Vec<usize>> {
    let mut dpu_slices = vec![Vec::new(); ndpus];
    for (i, homes) in slice_homes.iter().enumerate() {
        for &d in homes {
            dpu_slices[d].push(i);
        }
    }
    dpu_slices
}

/// The paper's iterative exchange: gather a cluster's slices onto a shared
/// DPU by *swapping* primary copies with similarly-hot slices of
/// single-slice clusters, which preserves both heat balance and capacity to
/// first order. Partner lookup is indexed per DPU so the pass stays linear
/// in the slice count.
fn exchange_for_colocation(
    slices: &[Slice],
    slice_homes: &mut [Vec<usize>],
    load: &mut [f64],
    cap: &mut Capacity,
) {
    // group canonical slices by cluster
    let mut by_cluster: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
    for (i, s) in slices.iter().enumerate() {
        by_cluster.entry(s.cluster).or_default().push(i);
    }
    let multi_slice: std::collections::HashSet<u32> = by_cluster
        .iter()
        .filter(|(_, m)| m.len() > 1)
        .map(|(&c, _)| c)
        .collect();

    // swap-candidate index: per DPU, the single-cluster slices whose
    // primary copy lives there
    let mut singles_by_dpu: Vec<Vec<usize>> = vec![Vec::new(); load.len()];
    for (i, s) in slices.iter().enumerate() {
        if !multi_slice.contains(&s.cluster) {
            singles_by_dpu[slice_homes[i][0]].push(i);
        }
    }

    for (&cluster, members) in by_cluster.iter().filter(|(_, m)| m.len() > 1) {
        // target: the DPU already hosting the most primary copies
        // (deterministic tie-break on the lowest DPU id)
        let mut counts: std::collections::BTreeMap<usize, usize> = Default::default();
        for &i in members {
            *counts.entry(slice_homes[i][0]).or_insert(0) += 1;
        }
        let (&target, _) = counts
            .iter()
            .max_by_key(|(&d, &c)| (c, std::cmp::Reverse(d)))
            .unwrap();

        for &i in members {
            let cur = slice_homes[i][0];
            if cur == target || slice_homes[i].iter().skip(1).any(|&d| d == target) {
                continue;
            }
            let share_i = slices[i].heat / slice_homes[i].len() as f64;
            // swap partner on the target: a primary copy of a single-slice
            // cluster with comparable heat, whose other copies don't sit on
            // `cur` (slice-copy distinctness must survive the swap)
            let partner = singles_by_dpu[target]
                .iter()
                .copied()
                .filter(|&j| {
                    j != i
                        && slice_homes[j][0] == target
                        && !slice_homes[j].iter().skip(1).any(|&d| d == cur)
                })
                .map(|j| {
                    let share_j = slices[j].heat / slice_homes[j].len() as f64;
                    (j, share_j)
                })
                .filter(|&(_, share_j)| {
                    (share_j - share_i).abs() <= 0.5 * share_i.max(share_j).max(1e-12)
                })
                .min_by(|a, b| {
                    ((a.1 - share_i).abs())
                        .partial_cmp(&(b.1 - share_i).abs())
                        .unwrap()
                })
                .map(|(j, _)| j);

            if let Some(j) = partner {
                let share_j = slices[j].heat / slice_homes[j].len() as f64;
                // byte feasibility of the swap
                let ci = cap.cost(&slices[i]) as i64;
                let cj = cap.cost(&slices[j]) as i64;
                let target_after = cap.bytes[target] as i64 + ci - cj;
                let cur_after = cap.bytes[cur] as i64 + cj - ci;
                if target_after < 0
                    || cur_after < 0
                    || target_after as u64 > cap.budget
                    || cur_after as u64 > cap.budget
                {
                    continue;
                }
                slice_homes[i][0] = target;
                slice_homes[j][0] = cur;
                load[cur] += share_j - share_i;
                load[target] += share_i - share_j;
                cap.bytes[cur] = cur_after as u64;
                cap.bytes[target] = target_after as u64;
                // keep the swap index consistent: j now lives on `cur`
                singles_by_dpu[target].retain(|&x| x != j);
                singles_by_dpu[cur].push(j);
                let _ = cluster;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(cluster: u32, len: usize, heat: f64) -> Slice {
        Slice {
            cluster,
            start: 0,
            len,
            heat,
        }
    }

    fn imbalance(load: &[f64]) -> f64 {
        let max = load.iter().cloned().fold(0.0, f64::max);
        let mean: f64 = load.iter().sum::<f64>() / load.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    fn loads(slices: &[Slice], homes: &[Vec<usize>], ndpus: usize) -> Vec<f64> {
        let mut load = vec![0.0; ndpus];
        for (i, hs) in homes.iter().enumerate() {
            for &d in hs {
                load[d] += slices[i].heat / hs.len() as f64;
            }
        }
        load
    }

    const BIG: u64 = 1 << 40;

    #[test]
    fn copies_land_on_distinct_dpus() {
        let slices = vec![mk(0, 10, 8.0), mk(1, 10, 4.0)];
        let copies = vec![3usize, 2];
        for (homes, _) in [
            heat_balanced(&slices, &copies, 4, 1, BIG),
            round_robin(&slices, &copies, 4, 1, BIG),
        ] {
            for h in &homes {
                let set: std::collections::HashSet<_> = h.iter().collect();
                assert_eq!(set.len(), h.len(), "homes {h:?}");
            }
        }
    }

    #[test]
    fn heat_balanced_spreads_skewed_heat() {
        // 1 hot slice + 7 cold: round-robin may stack them; balanced must not
        let mut slices = vec![mk(0, 100, 50.0)];
        for i in 1..8 {
            slices.push(mk(i, 100, 1.0));
        }
        let copies = vec![1usize; 8];
        let (hb, _) = heat_balanced(&slices, &copies, 4, 1, BIG);
        let (rr, _) = round_robin(&slices, &copies, 4, 1, BIG);
        let imb_hb = imbalance(&loads(&slices, &hb, 4));
        let imb_rr = imbalance(&loads(&slices, &rr, 4));
        assert!(imb_hb <= imb_rr + 1e-9, "hb {imb_hb} rr {imb_rr}");
    }

    #[test]
    fn exchange_colocates_cluster_slices() {
        // one cluster split in 3 + background singleton slices of equal heat
        let mut slices = vec![mk(0, 25, 1.0), mk(0, 25, 1.0), mk(0, 25, 1.0)];
        for i in 1..10 {
            slices.push(mk(i, 25, 1.0));
        }
        let copies = vec![1usize; slices.len()];
        let (homes, _) = heat_balanced(&slices, &copies, 4, 1, BIG);
        // swap-based exchange with equal-heat partners should gather most
        // of the cluster (slices 0..3) on one DPU
        let h = [homes[0][0], homes[1][0], homes[2][0]];
        assert!(h[0] == h[1] || h[1] == h[2] || h[0] == h[2], "homes {h:?}");
        // and balance must not be destroyed
        let imb = imbalance(&loads(&slices, &homes, 4));
        assert!(imb < 1.5, "imbalance {imb}");
    }

    #[test]
    fn capacity_bounds_duplicate_copies() {
        // budget fits 2 slices per DPU; the hot slice wants 4 copies
        let slices = vec![mk(0, 100, 50.0), mk(1, 100, 1.0), mk(2, 100, 1.0)];
        let copies = vec![4usize, 1, 1];
        let (homes, _) = heat_balanced(&slices, &copies, 2, 1, 200);
        let mut bytes = [0u64; 2];
        for (i, hs) in homes.iter().enumerate() {
            for &d in hs {
                bytes[d] += slices[i].len as u64;
            }
        }
        assert!(bytes.iter().all(|&b| b <= 200), "bytes {bytes:?}");
        // every slice still has at least one home
        assert!(homes.iter().all(|h| !h.is_empty()));
    }

    #[test]
    fn round_robin_covers_all_dpus() {
        let slices: Vec<Slice> = (0..8).map(|i| mk(i, 10, 1.0)).collect();
        let copies = vec![1usize; 8];
        let (_, dpu_slices) = round_robin(&slices, &copies, 4, 1, BIG);
        assert!(dpu_slices.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn more_copies_than_dpus_is_clamped() {
        let slices = vec![mk(0, 10, 5.0)];
        let (homes, _) = heat_balanced(&slices, &[10], 3, 1, BIG);
        assert_eq!(homes[0].len(), 3);
    }
}
