//! Cluster allocation: place slice copies on DPUs (paper Fig. 5c).
//!
//! The heat-balanced policy allocates greedily — hottest slice first onto
//! the coldest DPU with capacity — then runs the paper's *exchange* pass:
//! slices of the same cluster scattered over different DPUs are swapped
//! toward co-location (so the residual, distance LUT and priority queue
//! computed for a (query, cluster) pair are reused), with swap partners
//! chosen to keep the heat balance intact. Copies of the *same* slice must
//! stay on distinct DPUs (they exist to give the scheduler alternatives).
//!
//! The greedy placement keeps a lazy queue over DPU loads (`Cold`): an
//! entry records a DPU's load when it was queued, and an entry off from
//! the live load by more than `1e-12` is stale and re-queued at the live
//! load when it reaches the front. What the loop decides depends only on
//! the multiset of entries, which the queue orders totally by (load, DPU).
//! Placing on the front entry re-keys it in place; that is the same
//! multiset as popping it and pushing the new load. Entries rejected on the
//! way (a DPU full, or already holding the slice) go back unchanged, as a
//! pop and a push would leave them. A placement costs one sift of a
//! 2,543-entry heap at paper scale, `O(copies log ndpus)` in all.

use super::{key, pack, unpack, value, LayoutProfile, MinQueue, Slice, Stopwatch};

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
) -> Vec<Vec<usize>> {
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
    slice_homes
}

/// The lazy min-queue over DPU loads, with the stash of entries the
/// current search rejected.
struct Cold {
    /// [`pack`]ed `(key(load), dpu)` entries.
    queue: MinQueue<u128>,
    stash: Vec<u128>,
}

impl Cold {
    fn new(ndpus: usize) -> Self {
        Cold {
            queue: MinQueue::new((0..ndpus).map(|d| pack(key(0.0), d))),
            stash: Vec::new(),
        }
    }

    /// Coldest DPU satisfying `ok`, given the authoritative `load` array,
    /// left at the front for [`Self::place`]. Stale entries are re-keyed
    /// at the live load; fresh rejected ones wait in the stash. With no
    /// such DPU the stash goes back and `None` is returned.
    fn coldest(&mut self, load: &[f64], ok: impl Fn(usize) -> bool) -> Option<usize> {
        while let Some(e) = self.queue.peek() {
            let (k, d) = unpack(e);
            if (value(k) - load[d]).abs() > 1e-12 {
                self.queue.replace_top(pack(key(load[d]), d));
            } else if ok(d) {
                return Some(d);
            } else {
                self.stash.push(e);
                self.queue.pop();
            }
        }
        self.unstash();
        None
    }

    /// Re-key the DPU [`Self::coldest`] returned at its new `load`, and
    /// return the rejected entries.
    fn place(&mut self, dpu: usize, load: f64) {
        self.queue.replace_top(pack(key(load), dpu));
        self.unstash();
    }

    /// Queue one more entry for `dpu`: the capacity fallback's placement,
    /// whose DPU keeps its old entry too.
    fn push(&mut self, dpu: usize, load: f64) {
        self.queue.push(pack(key(load), dpu));
    }

    fn unstash(&mut self) {
        for e in self.stash.drain(..) {
            self.queue.push(e);
        }
    }
}

/// Heat-balanced greedy allocation + co-location exchange. Each of the
/// three steps takes a `clock` lap into `prof`'s times, and its decisions
/// go into `prof`'s counts.
pub(crate) fn heat_balanced(
    slices: &[Slice],
    copies: &[usize],
    ndpus: usize,
    bytes_per_point: u64,
    budget: u64,
    prof: &mut LayoutProfile,
    clock: &mut Stopwatch,
) -> Vec<Vec<usize>> {
    let mut slice_homes: Vec<Vec<usize>> = copies
        .iter()
        .map(|&n| Vec::with_capacity(n.min(ndpus).max(1)))
        .collect();
    let mut load = vec![0.0f64; ndpus];
    let mut cap = Capacity::new(ndpus, budget, bytes_per_point);
    let mut cold = Cold::new(ndpus);

    // Phase 1: every slice's mandatory copy, hottest first (ties by index)
    // onto the coldest feasible DPU — reserving capacity before any
    // duplicate lands.
    let mut order: Vec<(u64, usize)> = slices
        .iter()
        .enumerate()
        .map(|(i, s)| (!key(s.heat), i))
        .collect();
    order.sort_unstable();
    let order: Vec<usize> = order.into_iter().map(|(_, i)| i).collect();
    for &i in &order {
        let s = &slices[i];
        let share = s.heat / copies[i].min(ndpus).max(1) as f64;
        let home = match cold.coldest(&load, |d| cap.fits(d, s)) {
            Some(home) => {
                load[home] += share;
                cold.place(home, load[home]);
                home
            }
            None => {
                // capacity exhausted everywhere: least-loaded-in-bytes DPU
                // (the MRAM tracker reports genuine overflow at build time)
                prof.counts.capacity_fallbacks += 1;
                let home = (0..ndpus)
                    .min_by_key(|&d| cap.bytes[d])
                    .expect("at least one DPU");
                load[home] += share;
                cold.push(home, load[home]);
                home
            }
        };
        slice_homes[i].push(home);
        cap.place(home, s);
    }
    prof.times.alloc_primary_s = clock.lap();

    // Phase 2: duplicates, dropped when no DPU has room. `holder[d]` is
    // the last slice given a copy on DPU `d`.
    let mut holder = vec![usize::MAX; ndpus];
    for &i in &order {
        let s = &slices[i];
        let n = copies[i].min(ndpus).max(1);
        let share = s.heat / n as f64;
        holder[slice_homes[i][0]] = i;
        for _ in 1..n {
            let Some(home) = cold.coldest(&load, |d| holder[d] != i && cap.fits(d, s)) else {
                break; // out of capacity for this slice size
            };
            slice_homes[i].push(home);
            holder[home] = i;
            load[home] += share;
            cap.place(home, s);
            cold.place(home, load[home]);
        }
        prof.counts.dropped_copies += n - slice_homes[i].len();
    }
    prof.times.alloc_duplicates_s = clock.lap();

    prof.counts.swaps = exchange_for_colocation(slices, &mut slice_homes, &mut load, &mut cap);
    prof.times.exchange_s = clock.lap();
    slice_homes
}

/// The per-DPU slice lists of `slice_homes`, each ascending.
pub(super) fn invert(slice_homes: &[Vec<usize>], ndpus: usize) -> Vec<Vec<usize>> {
    let mut held = vec![0usize; ndpus];
    for &d in slice_homes.iter().flatten() {
        held[d] += 1;
    }
    let mut dpu_slices: Vec<Vec<usize>> = held.into_iter().map(Vec::with_capacity).collect();
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
/// in the slice count. Returns the number of swaps.
fn exchange_for_colocation(
    slices: &[Slice],
    slice_homes: &mut [Vec<usize>],
    load: &mut [f64],
    cap: &mut Capacity,
) -> usize {
    // canonical slices grouped by cluster: clusters ascending, each
    // cluster's slices in index order
    let mut by_cluster: Vec<(u32, usize)> = slices
        .iter()
        .enumerate()
        .map(|(i, s)| (s.cluster, i))
        .collect();
    by_cluster.sort_unstable();
    let multi_slice: Vec<&[(u32, usize)]> = by_cluster
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|m| m.len() > 1)
        .collect();
    let mut single = vec![true; slices.len()];
    for &(_, i) in multi_slice.iter().copied().flatten() {
        single[i] = false;
    }

    // swap-candidate index: per DPU, the single-cluster slices whose
    // primary copy lives there
    let mut singles_by_dpu: Vec<Vec<usize>> = vec![Vec::new(); load.len()];
    for (i, _) in single.iter().enumerate().filter(|(_, &one)| one) {
        singles_by_dpu[slice_homes[i][0]].push(i);
    }

    let mut swaps = 0;
    for members in multi_slice {
        // target: the DPU already hosting the most primary copies
        // (deterministic tie-break on the lowest DPU id)
        let mut counts: std::collections::BTreeMap<usize, usize> = Default::default();
        for &(_, i) in members {
            *counts.entry(slice_homes[i][0]).or_insert(0) += 1;
        }
        let (&target, _) = counts
            .iter()
            .max_by_key(|(&d, &c)| (c, std::cmp::Reverse(d)))
            .unwrap();

        for &(_, i) in members {
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
                swaps += 1;
            }
        }
    }
    swaps
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

    fn balanced(slices: &[Slice], copies: &[usize], ndpus: usize, budget: u64) -> Vec<Vec<usize>> {
        let mut prof = LayoutProfile::default();
        heat_balanced(
            slices,
            copies,
            ndpus,
            1,
            budget,
            &mut prof,
            &mut Stopwatch::start(),
        )
    }

    #[test]
    fn copies_land_on_distinct_dpus() {
        let slices = vec![mk(0, 10, 8.0), mk(1, 10, 4.0)];
        let copies = vec![3usize, 2];
        for homes in [
            balanced(&slices, &copies, 4, BIG),
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
        let hb = balanced(&slices, &copies, 4, BIG);
        let rr = round_robin(&slices, &copies, 4, 1, BIG);
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
        let homes = balanced(&slices, &copies, 4, BIG);
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
        let homes = balanced(&slices, &copies, 2, 200);
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
        let dpu_slices = invert(&round_robin(&slices, &copies, 4, 1, BIG), 4);
        assert!(dpu_slices.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn more_copies_than_dpus_is_clamped() {
        let slices = vec![mk(0, 10, 5.0)];
        let homes = balanced(&slices, &[10], 3, BIG);
        assert_eq!(homes[0].len(), 3);
    }
}
