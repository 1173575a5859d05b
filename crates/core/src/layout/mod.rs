//! Data-layout optimization across DPUs (paper Section 3.2, Fig. 5).
//!
//! Three passes transform the IVF clusters into a balanced placement:
//!
//! 1. [`partition`] — clusters larger than a searched threshold `th1` are
//!    split into equal-capacity *slices*, so one hot cluster's work can be
//!    spread over several DPUs;
//! 2. [`duplication`] — hot slices get extra copies (`th2[i]` proportional
//!    to cluster heat, inversely to its slice count), giving the runtime
//!    scheduler alternatives;
//! 3. [`allocation`] — slices are placed on DPUs balancing accumulated
//!    heat, then an exchange pass co-locates slices of the same cluster on
//!    the same DPU so the residual, LUT and priority queue can be reused
//!    (the "mixed layout").
//!
//! All passes operate on abstract `(size, heat)` descriptors, so the same
//! code drives both functional runs (real vectors) and full-scale trace
//! runs (statistical shapes only).

pub mod allocation;
pub mod duplication;
pub mod heat;
pub mod partition;

use crate::config::{AllocPolicy, EngineConfig};
use std::time::Instant;

/// Per-cluster workload descriptor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterInfo {
    /// Cluster id (index into the IVF lists).
    pub id: u32,
    /// Number of points in the cluster.
    pub points: usize,
    /// Profiled heat: expected probes x points scanned (see [`heat`]).
    pub heat: f64,
}

/// A contiguous slice of one cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Owning cluster.
    pub cluster: u32,
    /// First point offset within the cluster.
    pub start: usize,
    /// Points in this slice.
    pub len: usize,
    /// Heat attributed to this slice (cluster heat x len / points).
    pub heat: f64,
}

/// The complete placement decision.
#[derive(Debug, Clone)]
pub struct LayoutPlan {
    /// Canonical slices (each appears once regardless of copy count).
    pub slices: Vec<Slice>,
    /// For every slice, the DPUs hosting a copy (>= 1 entry each).
    pub slice_homes: Vec<Vec<usize>>,
    /// For every DPU, the slices (canonical indices) it hosts.
    pub dpu_slices: Vec<Vec<usize>>,
    /// For every cluster, its slice indices in offset order.
    pub cluster_slices: Vec<Vec<usize>>,
    /// The split threshold actually used (points per slice).
    pub th1: usize,
}

/// What one [`LayoutPlan::build`] decided and how long each of its steps
/// took on the host: the set-up side of the layout's profile. The counts
/// are exact, a pure function of the build's inputs; the times are wall
/// seconds, and reading them costs 8 `Instant::now()` calls per
/// heat-balanced build (6 under round-robin).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayoutProfile {
    /// Wall time of each step.
    pub times: LayoutTimes,
    /// Decisions taken.
    pub counts: LayoutCounts,
}

/// Wall seconds of each step of [`LayoutPlan::build`]; they sum to the
/// build. A step the configuration turns off reads the few nanoseconds
/// between its two clock reads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayoutTimes {
    /// The `th1` search ([`partition::search_th1`]).
    pub th1_search_s: f64,
    /// Cutting the clusters at `th1` ([`partition::partition`]).
    pub partition_s: f64,
    /// Copy counts ([`duplication::plan_copies`]).
    pub duplication_s: f64,
    /// Allocation of every slice's first copy (all of round-robin).
    pub alloc_primary_s: f64,
    /// Allocation of the duplicates.
    pub alloc_duplicates_s: f64,
    /// The co-location exchange.
    pub exchange_s: f64,
    /// The per-DPU and per-cluster slice tables.
    pub tables_s: f64,
}

/// Exact decision counts of one [`LayoutPlan::build`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutCounts {
    /// `th1` candidates priced by the search.
    pub th1_evaluated: usize,
    /// `th1` candidates skipped: their slice metadata exceeds the WRAM
    /// budget.
    pub th1_skipped: usize,
    /// Duplicate copies granted.
    pub copies_granted: usize,
    /// Slices whose duplication stopped on the duplicate budget.
    pub budget_stops: usize,
    /// Slices whose duplication stopped at a copy per DPU or at a score
    /// no larger than `f64::EPSILON`.
    pub saturated_stops: usize,
    /// Granted duplicates that allocation dropped: no DPU had room.
    pub dropped_copies: usize,
    /// First copies placed on the DPU with the fewest bytes because no
    /// DPU had room.
    pub capacity_fallbacks: usize,
    /// Swaps made by the co-location exchange.
    pub swaps: usize,
}

/// The order-preserving map of an `f64` onto a `u64`: `a < b` exactly
/// when `key(a) < key(b)`, and `-0.0` keys as `0.0`, so keys compare as
/// `partial_cmp` does on every non-NaN value.
pub(crate) fn key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The value [`key`] mapped (`0.0` for `-0.0`).
pub(crate) fn value(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// `(key, id)` packed into one `u128`, which orders by key, then by id.
pub(crate) fn pack(key: u64, id: usize) -> u128 {
    (key as u128) << 64 | id as u128
}

/// The `(key, id)` of [`pack`].
pub(crate) fn unpack(e: u128) -> (u64, usize) {
    ((e >> 64) as u64, e as u64 as usize)
}

/// A binary min-heap: the priority queue of the layout's three greedy
/// loops (the LPT makespan of the `th1` search over load [`key`]s,
/// duplication's tail and allocation's coldest DPU over [`pack`]ed pairs).
/// [`Self::replace_top`] re-keys the minimum with one sift instead of a pop
/// and a push. A sift walks the hole down to a leaf along the smaller
/// children, a select per level rather than a branch, and then back up to
/// where the new element belongs. The elements are integers, so equal ones
/// are identical and the loops' decisions depend only on the multiset
/// queued, not on how the heap lays it out.
pub(crate) struct MinQueue<T>(Vec<T>);

impl<T: Ord + Copy> MinQueue<T> {
    /// A queue holding `entries`.
    pub(crate) fn new(entries: impl IntoIterator<Item = T>) -> Self {
        let mut q = MinQueue(entries.into_iter().collect::<Vec<T>>());
        for pos in (0..q.0.len() / 2).rev() {
            q.sift_down(pos);
        }
        q
    }

    /// Elements queued.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The elements queued, in no particular order.
    pub(crate) fn into_vec(self) -> Vec<T> {
        self.0
    }

    /// The least element.
    pub(crate) fn peek(&self) -> Option<T> {
        self.0.first().copied()
    }

    /// Remove the least element.
    pub(crate) fn pop(&mut self) -> Option<T> {
        let last = self.0.pop()?;
        let Some(top) = self.0.first_mut() else {
            return Some(last);
        };
        let top = std::mem::replace(top, last);
        self.sift_down(0);
        Some(top)
    }

    /// Add an element.
    pub(crate) fn push(&mut self, e: T) {
        self.0.push(e);
        self.sift_up(0, self.0.len() - 1);
    }

    /// Replace the least element with `e`: a pop and a push in one sift.
    /// The queue must not be empty.
    pub(crate) fn replace_top(&mut self, e: T) {
        self.0[0] = e;
        self.sift_down(0);
    }

    fn sift_down(&mut self, pos: usize) {
        let h = &mut self.0;
        let e = h[pos];
        let mut hole = pos;
        let mut child = 2 * hole + 1;
        while child + 1 < h.len() {
            child += usize::from(h[child + 1] < h[child]);
            h[hole] = h[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child < h.len() {
            h[hole] = h[child];
            hole = child;
        }
        h[hole] = e;
        self.sift_up(pos, hole);
    }

    /// Move the element at `hole` up towards `top` to where it belongs.
    fn sift_up(&mut self, top: usize, mut hole: usize) {
        let h = &mut self.0;
        let e = h[hole];
        while hole > top {
            let parent = (hole - 1) / 2;
            if h[parent] <= e {
                break;
            }
            h[hole] = h[parent];
            hole = parent;
        }
        h[hole] = e;
    }
}

/// The layout's step clock.
pub(crate) struct Stopwatch(Instant);

impl Stopwatch {
    pub(crate) fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds since the previous lap, or since the start.
    pub(crate) fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let s = (now - self.0).as_secs_f64();
        self.0 = now;
        s
    }
}

impl LayoutPlan {
    /// Build the full plan from cluster descriptors under `cfg`, with the
    /// build's [`LayoutProfile`].
    ///
    /// `ndpus` is the DPU count; `bytes_per_point` converts slice sizes to
    /// MRAM footprints; `mram_budget` bounds per-DPU bytes. `slice_cost`
    /// prices the split-threshold search: every extra slice of a probed
    /// cluster re-runs LC on whichever DPU receives it, so a candidate
    /// slice of the given length weighs what the scheduler will charge for
    /// it — the heat of the configuration in force
    /// ([`crate::kernels::GroupCost::heat`]).
    pub fn build(
        clusters: &[ClusterInfo],
        ndpus: usize,
        cfg: &EngineConfig,
        bytes_per_point: u64,
        mram_budget: u64,
        slice_cost: impl Fn(usize) -> f64 + Sync,
    ) -> (LayoutPlan, LayoutProfile) {
        let mut prof = LayoutProfile::default();
        let mut clock = Stopwatch::start();
        // 1. partition
        let th1 = if cfg.partition {
            cfg.split_granularity.unwrap_or_else(|| {
                partition::search_th1(clusters, ndpus, slice_cost, &mut prof.counts)
            })
        } else {
            usize::MAX
        };
        prof.times.th1_search_s = clock.lap();
        let slices = partition::partition(clusters, th1);
        prof.times.partition_s = clock.lap();

        // 2. duplication
        let copies = if cfg.duplication {
            // Default duplicate budget: the paper duplicates "as much as PIM
            // memory allows". Simulating literally full 64 MiB MRAMs of
            // copies costs minutes for no extra signal — the benefit
            // saturates once the scheduler has enough alternatives (cf.
            // Fig. 14b) — so the default is the larger of 8 MiB or four
            // dataset shares per DPU, clamped by the actual headroom.
            // Sweeps override it explicitly.
            let dup_budget = cfg.dup_budget_bytes.or_else(|| {
                let total: u64 = slices.iter().map(|s| s.len as u64 * bytes_per_point).sum();
                let base_per_dpu = total / ndpus.max(1) as u64;
                let headroom = mram_budget.saturating_sub(base_per_dpu);
                Some((4 * base_per_dpu).max(8 << 20).min(headroom))
            });
            duplication::plan_copies(
                &slices,
                clusters,
                ndpus,
                bytes_per_point,
                mram_budget,
                dup_budget,
                &mut prof.counts,
            )
        } else {
            vec![1usize; slices.len()]
        };
        prof.times.duplication_s = clock.lap();

        // 3. allocation
        let slice_homes = match cfg.allocation {
            AllocPolicy::RoundRobin => {
                let homes =
                    allocation::round_robin(&slices, &copies, ndpus, bytes_per_point, mram_budget);
                prof.times.alloc_primary_s = clock.lap();
                homes
            }
            AllocPolicy::HeatBalanced => allocation::heat_balanced(
                &slices,
                &copies,
                ndpus,
                bytes_per_point,
                mram_budget,
                &mut prof,
                &mut clock,
            ),
        };
        let dpu_slices = allocation::invert(&slice_homes, ndpus);

        let n_clusters = clusters
            .iter()
            .map(|c| c.id as usize + 1)
            .max()
            .unwrap_or(0);
        let mut cluster_slices = vec![Vec::new(); n_clusters];
        for (i, s) in slices.iter().enumerate() {
            cluster_slices[s.cluster as usize].push(i);
        }
        prof.times.tables_s = clock.lap();

        let plan = LayoutPlan {
            slices,
            slice_homes,
            dpu_slices,
            cluster_slices,
            th1,
        };
        (plan, prof)
    }

    /// Rebuild the per-DPU slice lists from `slice_homes` — required after
    /// a post-pass (e.g. [`duplication::ensure_rank_coverage`]) rewrites
    /// homes in place. DPU count is preserved; slice order within a DPU is
    /// canonical (ascending slice index).
    pub fn recompute_dpu_slices(&mut self) {
        let ndpus = self.dpu_slices.len();
        let mut dpu_slices = vec![Vec::new(); ndpus];
        for (si, homes) in self.slice_homes.iter().enumerate() {
            for &d in homes {
                dpu_slices[d].push(si);
            }
        }
        self.dpu_slices = dpu_slices;
    }

    /// Cut slice `si` after its first `first` points: the rest becomes a
    /// new slice with one copy, on `home`, right after `si` in the cluster's
    /// offset order. Heat halves. Returns the new slice's index.
    pub fn split_slice(&mut self, si: usize, first: usize, home: usize) -> usize {
        let s = self.slices[si];
        self.slices[si].len = first;
        self.slices[si].heat = s.heat / 2.0;
        let new_si = self.slices.len();
        self.slices.push(Slice {
            cluster: s.cluster,
            start: s.start + first,
            len: s.len - first,
            heat: s.heat / 2.0,
        });
        self.slice_homes.push(vec![home]);
        // the new index is the maximum, so the DPU's list stays ascending
        self.dpu_slices[home].push(new_si);
        let cs = &mut self.cluster_slices[s.cluster as usize];
        let pos = cs.iter().position(|&x| x == si).expect("slice is owned");
        cs.insert(pos + 1, new_si);
        new_si
    }

    /// Move slice `si`'s copy on DPU `from` to DPU `to`.
    pub fn swap_home(&mut self, si: usize, from: usize, to: usize) {
        let homes = &mut self.slice_homes[si];
        let pos = homes
            .iter()
            .position(|&d| d == from)
            .expect("from hosts it");
        homes[pos] = to;
        self.recompute_dpu_slices();
    }

    /// Total copies across all slices.
    pub fn total_copies(&self) -> usize {
        self.slice_homes.iter().map(|h| h.len()).sum()
    }

    /// Per-DPU resident bytes given a per-point footprint.
    pub fn dpu_bytes(&self, bytes_per_point: u64) -> Vec<u64> {
        self.dpu_slices
            .iter()
            .map(|ss| {
                ss.iter()
                    .map(|&i| self.slices[i].len as u64 * bytes_per_point)
                    .sum()
            })
            .collect()
    }

    /// Sanity checks: every slice placed at least once, copies on distinct
    /// existing DPUs, the per-DPU lists name exactly the placed copies,
    /// slice coverage of every cluster is exact and disjoint. Linear in the
    /// copies, up to sorting a DPU's list that is out of order.
    pub fn validate(&self, clusters: &[ClusterInfo]) -> Result<(), String> {
        let ndpus = self.dpu_slices.len();
        // The per-DPU lists rebuilt from the homes, ascending, in one flat
        // array: DPU `d`'s is `held[start[d]..start[d + 1]]`. `last[d]` is
        // the last slice seen with a copy on `d`.
        let mut start = vec![0usize; ndpus + 1];
        let mut last = vec![usize::MAX; ndpus];
        for (i, homes) in self.slice_homes.iter().enumerate() {
            if homes.is_empty() {
                return Err(format!("slice {i} has no home"));
            }
            for &d in homes {
                if d >= ndpus {
                    return Err(format!("slice {i} has a copy on DPU {d} of {ndpus}"));
                }
                if last[d] == i {
                    return Err(format!("slice {i} has duplicate copies on one DPU"));
                }
                last[d] = i;
                start[d + 1] += 1;
            }
        }
        for d in 0..ndpus {
            start[d + 1] += start[d];
        }
        let mut held = vec![0usize; start[ndpus]];
        let mut next = start.clone();
        for (i, homes) in self.slice_homes.iter().enumerate() {
            for &d in homes {
                held[next[d]] = i;
                next[d] += 1;
            }
        }
        let mut listed = Vec::new();
        for (d, ss) in self.dpu_slices.iter().enumerate() {
            let held = &held[start[d]..start[d + 1]];
            if ss == held {
                continue;
            }
            listed.clone_from(ss);
            listed.sort_unstable();
            if listed != held {
                return Err(format!("DPU {d} lists slices {listed:?}, holds {held:?}"));
            }
        }
        for c in clusters {
            let mut covered = 0usize;
            let mut cursor = 0usize;
            for &si in &self.cluster_slices[c.id as usize] {
                let s = &self.slices[si];
                if s.start != cursor {
                    return Err(format!("cluster {} has a gap at {}", c.id, cursor));
                }
                cursor += s.len;
                covered += s.len;
            }
            if covered != c.points {
                return Err(format!(
                    "cluster {} covers {covered} of {} points",
                    c.id, c.points
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, IndexConfig};
    use upmem_sim::IsaCosts;

    fn clusters() -> Vec<ClusterInfo> {
        (0..32)
            .map(|i| ClusterInfo {
                id: i,
                points: 100 + (i as usize % 7) * 400,
                heat: 1.0 + (31 - i) as f64,
            })
            .collect()
    }

    fn cfg() -> EngineConfig {
        EngineConfig::drim(IndexConfig {
            k: 10,
            nprobe: 8,
            nlist: 32,
            m: 4,
            cb: 16,
        })
    }

    /// The scheduler's heat (in cycles) for `cfg`'s index over
    /// `dsub`-dimensional sub-vectors on `costs`.
    fn heat(cfg: &EngineConfig, dsub: usize, costs: &IsaCosts) -> impl Fn(usize) -> f64 {
        let (i, sqt, costs) = (cfg.index, cfg.sqt, costs.clone());
        move |len| crate::sched::task_cost_s(len, i.m, i.cb, dsub, i.k, sqt, &costs, 1.0)
    }

    /// The plan over 8 DPUs at 20 bytes per point, priced at `dsub = 8` on
    /// UPMEM costs.
    fn build(cs: &[ClusterInfo], cfg: &EngineConfig, budget: u64) -> LayoutPlan {
        LayoutPlan::build(cs, 8, cfg, 20, budget, heat(cfg, 8, &IsaCosts::upmem())).0
    }

    #[test]
    fn full_plan_validates() {
        let cs = clusters();
        let plan = build(&cs, &cfg(), 1 << 20);
        plan.validate(&cs).unwrap();
        assert!(plan.total_copies() >= plan.slices.len());
    }

    #[test]
    fn naive_plan_validates_too() {
        let cs = clusters();
        let naive = EngineConfig::naive(cfg().index);
        let plan = build(&cs, &naive, 1 << 20);
        plan.validate(&cs).unwrap();
        // no partition, no duplication: one slice per cluster, one copy
        assert_eq!(plan.slices.len(), cs.len());
        assert_eq!(plan.total_copies(), cs.len());
    }

    #[test]
    fn heat_balancing_beats_round_robin() {
        let cs = clusters();
        let balanced = build(&cs, &cfg(), 1 << 20);
        let naive = EngineConfig::naive(cfg().index);
        let rr = build(&cs, &naive, 1 << 20);
        // per-DPU heat, a slice's heat divided across its copies
        let dpu_heat = |plan: &LayoutPlan| {
            let mut heat = vec![0.0; plan.dpu_slices.len()];
            for (slice, homes) in plan.slices.iter().zip(&plan.slice_homes) {
                for &d in homes {
                    heat[d] += slice.heat / homes.len() as f64;
                }
            }
            heat
        };
        let imb = |heat: &[f64]| {
            let max = heat.iter().cloned().fold(0.0, f64::max);
            let mean = heat.iter().sum::<f64>() / heat.len() as f64;
            max / mean
        };
        let (balanced, rr) = (dpu_heat(&balanced), dpu_heat(&rr));
        assert!(
            imb(&balanced) <= imb(&rr) + 1e-9,
            "balanced {balanced:?} rr {rr:?}"
        );
    }

    #[test]
    fn rank_coverage_post_pass_keeps_the_plan_valid() {
        let cs = clusters();
        let mut plan = build(&cs, &cfg(), 1 << 20);
        // 8 DPUs = 4 ranks of 2: force every slice onto >= 2 ranks
        let rep = duplication::ensure_rank_coverage(
            &mut plan.slice_homes,
            &plan.slices,
            8,
            2,
            2,
            20,
            1 << 20,
        );
        assert_eq!(
            rep.uncovered, 0,
            "plenty of headroom: all slices repairable"
        );
        plan.recompute_dpu_slices();
        plan.validate(&cs).unwrap();
        assert!(duplication::min_rank_span(&plan.slice_homes, 2) >= 2);
    }

    #[test]
    fn split_and_home_swap_keep_the_tables_in_step() {
        let cs = clusters();
        let mut plan = build(&cs, &cfg(), 1 << 20);
        let si = (0..plan.slices.len())
            .max_by_key(|&i| plan.slices[i].len)
            .unwrap();
        let (old, n) = (plan.slices[si], plan.slices.len());
        let first = old.len / 3;
        let new_si = plan.split_slice(si, first, 5);
        assert_eq!(new_si, n);
        assert_eq!(
            (plan.slices[si].start, plan.slices[si].len),
            (old.start, first)
        );
        let tail = plan.slices[new_si];
        assert_eq!(
            (tail.cluster, tail.start, tail.len),
            (old.cluster, old.start + first, old.len - first)
        );
        assert_eq!(plan.slice_homes[new_si], [5]);
        plan.validate(&cs).unwrap();

        plan.swap_home(new_si, 5, 6);
        assert_eq!(plan.slice_homes[new_si], [6]);
        assert!(plan.dpu_slices[6].contains(&new_si) && !plan.dpu_slices[5].contains(&new_si));
        plan.validate(&cs).unwrap();
        // a home table edited behind the plan's back is caught
        plan.slice_homes[new_si][0] = 5;
        assert!(plan.validate(&cs).is_err());
    }

    #[test]
    fn validate_rejects_each_broken_rule() {
        let cs = clusters();
        // a duplicate budget too small for every DPU to hold every slice
        let mut c = cfg();
        c.dup_budget_bytes = Some(100_000);
        let plan = build(&cs, &c, 1 << 20);
        // a slice with copies on two DPUs, and a slice the first does not hold
        let si = (0..plan.slices.len())
            .find(|&i| plan.slice_homes[i].len() >= 2)
            .expect("duplication gave some slice two copies");
        let d = plan.slice_homes[si][0];
        let unheld = (0..plan.slices.len())
            .find(|&i| !plan.slice_homes[i].contains(&d))
            .expect("no DPU holds every slice");
        type Break = Box<dyn Fn(&mut LayoutPlan)>;
        let cases: Vec<(&str, Break)> = vec![
            ("no home", Box::new(move |p| p.slice_homes[si].clear())),
            (
                "duplicate copies",
                Box::new(move |p| p.slice_homes[si][1] = d),
            ),
            ("of 8", Box::new(move |p| p.slice_homes[si][0] = 8)),
            ("holds", Box::new(move |p| p.dpu_slices[d].push(unheld))),
            (
                "holds",
                Box::new(move |p| p.dpu_slices[d].retain(|&x| x != si)),
            ),
            (
                "has a gap",
                Box::new(|p| p.slices[p.cluster_slices[0][0]].start += 1),
            ),
            (
                "covers",
                Box::new(|p| p.slices[p.cluster_slices[0][0]].len += 1),
            ),
        ];
        for (want, brk) in cases {
            let mut broken = plan.clone();
            brk(&mut broken);
            let err = broken.validate(&cs).expect_err(want);
            assert!(err.contains(want), "{want}: {err}");
        }
    }

    #[test]
    fn split_threshold_follows_the_price_of_an_lc_rebuild() {
        // One giant cluster among small ones: how finely it pays to split
        // the giant depends on what each extra slice's LUT rebuild costs
        // against the scan it spreads — on `dsub` and on the cost table.
        let cluster = |id, points| ClusterInfo {
            id,
            points,
            heat: points as f64,
        };
        let mut cs = vec![cluster(0, 400_000)];
        cs.extend((1..64).map(|id| cluster(id, 2_000)));
        let mut cfg = cfg();
        (cfg.index.m, cfg.index.cb) = (16, 256);
        let th1 = |dsub, costs: &IsaCosts| {
            LayoutPlan::build(&cs, 16, &cfg, 20, u64::MAX / 2, heat(&cfg, dsub, costs))
                .0
                .th1
        };
        let (upmem, mac) = (IsaCosts::upmem(), IsaCosts::with_hw_multiplier());
        // a dsub-2 LUT is cheap to rebuild, so the giant splits finer ...
        assert!(th1(2, &upmem) < th1(16, &upmem));
        // ... and so is one built from 2-cycle SQT lookups
        assert!(th1(8, &mac) < th1(8, &upmem));
    }

    #[test]
    fn dpu_bytes_respect_budget() {
        let cs = clusters();
        let budget = 200_000u64;
        let plan = build(&cs, &cfg(), budget);
        for (d, &b) in plan.dpu_bytes(20).iter().enumerate() {
            assert!(b <= budget, "dpu {d} holds {b} > {budget}");
        }
    }
}
