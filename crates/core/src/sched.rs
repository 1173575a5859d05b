//! Runtime query scheduling (paper Section 3.3, Fig. 5d).
//!
//! Per batch, every (query, slice) pair the cluster-locating phase produced
//! becomes a task. The greedy scheduler assigns each task to the coldest
//! DPU holding a copy of that slice. Tasks that would push a DPU beyond
//! `(1 + th3) x` the mean heat are postponed to the next batch, bounding
//! the long tail.
//!
//! A task's heat is the compute cycles the kernels will book for it on its
//! DPU, at the DPU clock: the dispatch loop takes it from the batch's
//! [`GroupCost::heat`] — the kernels' own `charge` functions under the
//! configuration in force — as does the layout's split-threshold search,
//! and [`task_cost_s`] is the same evaluation for a caller that holds only
//! index parameters (the benchmark's scheduler probe).
//!
//! [`expand_tasks`] evaluates a task's cost once per probed slice per
//! call, so a cost function may be slow: [`task_cost_s`] re-derives the
//! heat rates (five unit charges) on every call, once per probed slice.
//!
//! Known limit, set by [`task_cost_s`]'s signature, which `benchmark/`
//! imports and which carries one slice length, no `PimArch` and no WRAM
//! placement: heat is compute-only. A configuration whose phases are bound
//! by MRAM traffic (the buffers-off ablation) is weighed by its cycles all
//! the same. Lifting it needs the benchmark's probe to change first.
//!
//! The greedy order is exact, and cheap on a trace batch (≈ 240k tasks):
//!
//! - *LPT key.* Tasks go heaviest first, ties in task order. A task's key
//!   is its cost's bit pattern: bit patterns of finite costs `>= 0` order
//!   as the values do, once `-0.0` is read as `+0.0` (the two compare
//!   equal, so they tie); any other cost panics.
//! - *Expanded in that order.* [`expand_tasks`] emits the batch's tasks
//!   already in LPT order over the query-major list (by query, then
//!   probe, then the cluster's slices): a stable counting sort over the
//!   distinct keys of the probed slices. The scheduler places input that
//!   is in LPT order as it stands, after one linear check of its keys
//!   (which also rejects a bad cost), and anything else from a stably
//!   sorted copy. Postponed work keeps the order; only re-issued work is
//!   sorted.
//! - *Coldest replica.* One pass over the task's homes, seeded with the
//!   first one not banned, takes a home only when it is strictly colder:
//!   of equally cold homes the first wins, `Iterator::min_by`'s rule. The
//!   homes come from a flat copy of [`LayoutPlan::slice_homes`], refilled
//!   per call, and with no DPU banned the pass reads no mask.
//! - *Placed where it goes.* Each task is pushed straight onto its DPU's
//!   list. The dispatch loop hands every plan's lists back to buffers it
//!   keeps across batches, so the lists keep their capacity and a steady
//!   stream of batches allocates none; [`schedule_filtered`] starts from
//!   empty lists.
//!
//! The static policy places tasks in the order given, so on
//! [`expand_tasks`]' output a DPU's list is in LPT order as well. Within a
//! `(query, cluster)` group, the unit the kernels charge, that is still
//! the cluster's slice order wherever costs do not grow along the
//! cluster: the kernels' heat grows with slice length, and a fresh
//! partition's slices never grow along a cluster.

use crate::config::DataBits;
use crate::kernels::{square_cost, GroupCost};
use crate::layout::LayoutPlan;
use crate::wram::WramPlacement;
use std::borrow::Cow;
use upmem_sim::tasklet::LockPolicy;

/// One unit of schedulable work: scan `slice` for `query`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Query index within the batch.
    pub query: u32,
    /// Canonical slice index into [`LayoutPlan::slices`].
    pub slice: u32,
    /// Predicted DPU seconds of the scan (see [`task_cost_s`]).
    pub cost: f64,
}

/// The batch assignment.
#[derive(Debug, Clone, Default)]
pub struct SchedulePlan {
    /// Tasks per DPU.
    pub per_dpu: Vec<Vec<Task>>,
    /// Tasks postponed to the next batch (th3 overflow).
    pub postponed: Vec<Task>,
    /// Tasks whose every home DPU is banned (dead or hedged) — the
    /// recovery layer routes these to the host fallback.
    /// Always empty when scheduling without a ban mask.
    pub unplaceable: Vec<Task>,
    /// Final predicted heat per DPU.
    pub heat: Vec<f64>,
}

impl SchedulePlan {
    /// Scheduled task count.
    pub fn scheduled(&self) -> usize {
        self.per_dpu.iter().map(|t| t.len()).sum()
    }

    /// Max/mean heat over DPUs that received work.
    pub fn imbalance(&self) -> f64 {
        upmem_sim::stats::imbalance(&self.heat)
    }
}

/// Scheduling policies.
#[derive(Debug, Clone, Copy)]
pub enum Policy {
    /// Each slice's tasks go to its first (primary) home — no runtime
    /// balancing; the baseline.
    Static,
    /// Greedy coldest-replica with `th3` postponement.
    Greedy {
        /// Overflow tolerance above mean heat; `INFINITY` disables
        /// postponement.
        th3: f64,
    },
}

/// Schedule `tasks` over the DPUs of `layout`.
pub fn schedule(tasks: &[Task], layout: &LayoutPlan, ndpus: usize, policy: Policy) -> SchedulePlan {
    schedule_filtered(tasks, layout, ndpus, policy, None, None)
}

/// [`schedule`] continuing from pre-existing per-DPU heat (`initial_heat`:
/// postponed and re-issued work lands on the DPUs still cold *after* the
/// main wave) and with an optional per-DPU ban mask: banned DPUs
/// (fail-stopped or hedged) receive no work, and tasks whose every
/// replica home is banned land in [`SchedulePlan::unplaceable`]. With
/// `banned = None` the arithmetic is identical to the unfiltered scheduler,
/// so the zero-fault path stays bit-for-bit unchanged.
pub fn schedule_filtered(
    tasks: &[Task],
    layout: &LayoutPlan,
    ndpus: usize,
    policy: Policy,
    initial_heat: Option<&[f64]>,
    banned: Option<&[bool]>,
) -> SchedulePlan {
    let scratch = &mut Scratch::default();
    schedule_with(tasks, layout, ndpus, policy, initial_heat, banned, scratch)
}

/// What [`schedule_with`] fills on every call, kept by the caller so the
/// next call refills it instead of allocating: the flat homes, and spare
/// per-DPU tables handed back through [`Scratch::recycle`]. Every buffer
/// is cleared before it is filled, so what it holds never reaches a
/// result.
#[derive(Default)]
pub(crate) struct Scratch {
    homes: Homes,
    tables: Vec<Vec<Vec<Task>>>,
}

impl Scratch {
    /// `ndpus` empty task lists: a recycled table when there is one.
    fn table(&mut self, ndpus: usize) -> Vec<Vec<Task>> {
        let mut table = self.tables.pop().unwrap_or_default();
        table.resize_with(ndpus, Vec::new);
        table.iter_mut().for_each(Vec::clear);
        table
    }

    /// Hand a plan's [`SchedulePlan::per_dpu`] back for a later call to
    /// refill, its lists' capacity intact.
    pub(crate) fn recycle(&mut self, table: Vec<Vec<Task>>) {
        self.tables.push(table);
    }
}

/// [`schedule_filtered`] filling `scratch`'s buffers: its per-DPU lists
/// are a table [`Scratch::recycle`] got back, when there is one.
pub(crate) fn schedule_with(
    tasks: &[Task],
    layout: &LayoutPlan,
    ndpus: usize,
    policy: Policy,
    initial_heat: Option<&[f64]>,
    banned: Option<&[bool]>,
    scratch: &mut Scratch,
) -> SchedulePlan {
    let heat = match initial_heat {
        Some(h) => h.to_vec(),
        None => vec![0.0f64; ndpus],
    };
    let per_dpu = scratch.table(ndpus);
    match policy {
        Policy::Static => schedule_static(tasks, layout, per_dpu, heat, banned),
        Policy::Greedy { th3 } => {
            schedule_greedy(tasks, layout, per_dpu, heat, th3, banned, scratch)
        }
    }
}

fn is_banned(banned: Option<&[bool]>, d: usize) -> bool {
    // Lenient on short masks: an entry the mask does not cover counts as
    // alive — the same convention `layout::duplication::replica_coverage`
    // uses.
    banned
        .map(|b| b.get(d).copied().unwrap_or(false))
        .unwrap_or(false)
}

fn schedule_static(
    tasks: &[Task],
    layout: &LayoutPlan,
    mut per_dpu: Vec<Vec<Task>>,
    mut heat: Vec<f64>,
    banned: Option<&[bool]>,
) -> SchedulePlan {
    let mut unplaceable = Vec::new();
    for &t in tasks {
        // first surviving home (the primary, unless it is banned)
        match layout.slice_homes[t.slice as usize]
            .iter()
            .find(|&&d| !is_banned(banned, d))
        {
            Some(&home) => {
                per_dpu[home].push(t);
                heat[home] += t.cost;
            }
            None => unplaceable.push(t),
        }
    }
    SchedulePlan {
        per_dpu,
        postponed: Vec::new(),
        unplaceable,
        heat,
    }
}

fn schedule_greedy(
    tasks: &[Task],
    layout: &LayoutPlan,
    per_dpu: Vec<Vec<Task>>,
    heat: Vec<f64>,
    th3: f64,
    banned: Option<&[bool]>,
    scratch: &mut Scratch,
) -> SchedulePlan {
    let ndpus = per_dpu.len();
    // Schedule heavy tasks first (LPT-style) for a tighter makespan:
    // descending cost, ties in task order. `expand_tasks` emits this order
    // and postponement keeps it, so such input is placed as it stands;
    // anything else is placed from a stably sorted copy.
    let lpt: Cow<[Task]> = if is_lpt_order(tasks) {
        Cow::Borrowed(tasks)
    } else {
        let mut sorted = tasks.to_vec();
        sorted.sort_by_key(|t| !lpt_key(t.cost));
        Cow::Owned(sorted)
    };

    // mean heat if everything were perfectly spread — the th3 reference
    let total_cost: f64 = tasks.iter().map(|t| t.cost).sum::<f64>() + heat.iter().sum::<f64>();
    let mean = total_cost / ndpus.max(1) as f64;
    let limit = if th3.is_finite() {
        mean * (1.0 + th3)
    } else {
        f64::INFINITY
    };

    // Each task straight into its DPU's list: a recycled list keeps its
    // capacity, so a steady stream of batches grows none.
    scratch.homes.fill(&layout.slice_homes);
    let mut plan = SchedulePlan {
        per_dpu,
        postponed: Vec::new(),
        unplaceable: Vec::new(),
        heat,
    };
    match banned {
        // every home alive: no mask lookups in the hot loop
        None | Some([]) => place(&lpt, &scratch.homes, limit, &mut plan, |_| true),
        Some(banned) => {
            let alive = |d: usize| !is_banned(Some(banned), d);
            place(&lpt, &scratch.homes, limit, &mut plan, alive);
        }
    }
    plan
}

/// Whether `tasks` are in LPT order already: keys non-increasing. Reads
/// every task's key, so a cost no schedule can order panics here.
fn is_lpt_order(tasks: &[Task]) -> bool {
    let mut sorted = true;
    let mut prev = u64::MAX;
    for t in tasks {
        let key = lpt_key(t.cost);
        sorted &= key <= prev;
        prev = key;
    }
    sorted
}

/// The greedy placement of `tasks`, in order, into `plan`: each to its
/// coldest `alive` home, postponed if that would take the home past
/// `limit` from a nonzero heat, unplaceable if no home is alive.
fn place(
    tasks: &[Task],
    homes: &Homes,
    limit: f64,
    plan: &mut SchedulePlan,
    alive: impl Fn(usize) -> bool,
) {
    for &t in tasks {
        match coldest(homes.of(t.slice), &plan.heat, &alive) {
            None => plan.unplaceable.push(t),
            Some((_, heat)) if heat + t.cost > limit && heat > 0.0 => plan.postponed.push(t),
            Some((best, _)) => {
                plan.heat[best] += t.cost;
                plan.per_dpu[best].push(t);
            }
        }
    }
}

/// [`LayoutPlan::slice_homes`] flattened for one scheduling call: slice
/// `s`'s homes are `homes[offsets[s]..offsets[s + 1]]`. Refilled per call,
/// so it cannot go stale when the layout changes between batches.
#[derive(Default)]
struct Homes {
    offsets: Vec<u32>,
    homes: Vec<u32>,
}

impl Homes {
    fn fill(&mut self, slice_homes: &[Vec<usize>]) {
        self.offsets.clear();
        self.homes.clear();
        self.offsets.push(0);
        for hs in slice_homes {
            self.homes.extend(
                hs.iter()
                    .map(|&d| u32::try_from(d).expect("DPU ids fit a u32")),
            );
            let end = u32::try_from(self.homes.len()).expect("at most u32::MAX homes");
            self.offsets.push(end);
        }
    }

    fn of(&self, slice: u32) -> &[u32] {
        let s = slice as usize;
        &self.homes[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

/// A task cost's LPT sort key: its bit pattern, which orders finite costs
/// `>= 0` as their values do once `-0.0` is read as `+0.0`. Anything else
/// has no place in a heat sum, so it panics here.
fn lpt_key(cost: f64) -> u64 {
    assert!(
        cost.is_finite() && cost >= 0.0,
        "greedy scheduling needs finite task costs >= 0, got {cost}"
    );
    if cost == 0.0 {
        0
    } else {
        cost.to_bits()
    }
}

/// The coldest of `homes` that are `alive`, and its heat: the first of
/// equally cold ones (`min_by`'s rule). `None` when no home is alive.
fn coldest(homes: &[u32], heat: &[f64], alive: impl Fn(usize) -> bool) -> Option<(usize, f64)> {
    let mut rest = homes.iter().map(|&d| d as usize);
    let mut best = rest.find(|&d| alive(d))?;
    let mut best_heat = heat[best];
    for d in rest {
        let h = heat[d];
        if h < best_heat && alive(d) {
            best = d;
            best_heat = h;
        }
    }
    Some((best, best_heat))
}

/// DPU seconds of compute for one (query, slice) task — the scheduler's
/// heat unit ("estimated by the latency calculated by Equation 1-12" with
/// live values): [`GroupCost::heat`] for the index shape and cost table
/// given, at the DRIM defaults the arguments cannot express — 8-bit
/// operands over `m * dsub` dimensions, a WRAM-resident SQT and the
/// forwarding lock. (The burst and the empty placement decide bytes, which
/// heat never reads.)
#[allow(clippy::too_many_arguments)]
pub fn task_cost_s(
    slice_len: usize,
    m: usize,
    cb: usize,
    dsub: usize,
    k: usize,
    sqt: bool,
    costs: &upmem_sim::IsaCosts,
    freq_hz: f64,
) -> f64 {
    let cost = GroupCost {
        costs: costs.clone(),
        dma_burst: 8,
        bits: DataBits::B8,
        placement: &WramPlacement::none(),
        d: (m * dsub) as u64,
        m,
        cb,
        dsub,
        k,
        square: square_cost(sqt, DataBits::B8, true),
        lock_policy: LockPolicy::Forwarding,
    };
    cost.heat()(slice_len) as f64 / freq_hz
}

/// Build the task list for a batch given per-query probed clusters, in the
/// order the greedy policy places them.
///
/// Each probed cluster expands into one task per slice (a query must scan
/// all slices of a cluster; copies are alternatives, slices are not).
/// `cost_of` predicts scan latency from slice length; it runs once per
/// distinct probed slice.
///
/// Order: descending cost (heaviest first), and tasks of equal cost in
/// query-major order — by query, then the query's probe order, then the
/// cluster's slice order. That is the greedy scheduler's LPT order over
/// the query-major list, so its sort finds the tasks already in place.
/// A stable counting sort over the distinct costs builds it: one pass
/// counts each probed slice's tasks, and a second writes every task at
/// its cost class's cursor.
///
/// Panics on a cost that is not finite and `>= 0`, which no schedule can
/// order (`-0.0` is `0.0`'s equal).
pub fn expand_tasks(
    probes_per_query: &[Vec<u32>],
    layout: &LayoutPlan,
    cost_of: impl Fn(usize) -> f64,
) -> Vec<Task> {
    let mut tasks = Vec::new();
    expand_tasks_into(probes_per_query, layout, cost_of, &mut tasks);
    tasks
}

/// [`expand_tasks`] into `tasks`, whatever it held before.
pub(crate) fn expand_tasks_into(
    probes_per_query: &[Vec<u32>],
    layout: &LayoutPlan,
    cost_of: impl Fn(usize) -> f64,
    tasks: &mut Vec<Task>,
) {
    // pass 1: each cluster's probe count
    let nclusters = layout.cluster_slices.len();
    let mut probes_of = vec![0usize; nclusters];
    for &c in probes_per_query.iter().flatten() {
        probes_of[c as usize] += 1;
    }
    // each probed slice once, in one flat array by cluster (cluster `c`'s
    // at `at[c]..at[c + 1]`), with `cost_of` — lengths are fixed for this
    // call only (an insert changes them between batches)
    let mut at = Vec::with_capacity(nclusters + 1);
    let mut slices: Vec<ProbedSlice> = Vec::new();
    at.push(0);
    for (c, &n) in probes_of.iter().enumerate() {
        if n > 0 {
            slices.extend(layout.cluster_slices[c].iter().map(|&si| {
                let cost = cost_of(layout.slices[si].len);
                ProbedSlice {
                    slice: u32::try_from(si).expect("slice ids fit a u32"),
                    cost,
                    class: 0,
                }
            }));
        }
        at.push(slices.len());
    }
    // one class per distinct LPT key, heaviest first; a class's tasks start
    // where the heavier classes' end
    let mut keys: Vec<u64> = slices.iter().map(|s| !lpt_key(s.cost)).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut cursor = vec![0usize; keys.len()];
    for (c, &n) in probes_of.iter().enumerate() {
        for s in &mut slices[at[c]..at[c + 1]] {
            let k = keys
                .binary_search(&!lpt_key(s.cost))
                .expect("a class per key");
            s.class = k as u32;
            cursor[k] += n;
        }
    }
    let mut n = 0;
    for c in &mut cursor {
        (*c, n) = (n, n + *c);
    }
    // pass 2: query-major, each task to its class's next slot
    let blank = Task {
        query: 0,
        slice: 0,
        cost: 0.0,
    };
    tasks.clear();
    tasks.resize(n, blank);
    for (qi, probes) in probes_per_query.iter().enumerate() {
        for &c in probes {
            for s in &slices[at[c as usize]..at[c as usize + 1]] {
                let slot = &mut cursor[s.class as usize];
                tasks[*slot] = Task {
                    query: qi as u32,
                    slice: s.slice,
                    cost: s.cost,
                };
                *slot += 1;
            }
        }
    }
}

/// A slice [`expand_tasks`] expands, with its task cost and cost class.
struct ProbedSlice {
    slice: u32,
    cost: f64,
    class: u32,
}

/// Sort one DPU's tasks into `order` as `(query, cluster, slice)` and
/// return its `(query, cluster)` groups — the unit RC + LC run once for.
/// Groups ascend by `(query, cluster)`, and a group's slices keep their
/// task order: the sort keys each task by `(query, cluster, position)`,
/// which ties nowhere, so the unstable sort yields exactly the stable
/// order; each position is then replaced by its task's slice. The
/// functional engine and trace mode both walk tasks through here, so they
/// charge the same groups in the same order.
pub(crate) fn group_tasks<'a>(
    tasks: &[Task],
    cluster_of: impl Fn(u32) -> u32,
    order: &'a mut Vec<(u32, u32, u32)>,
) -> impl Iterator<Item = &'a [(u32, u32, u32)]> {
    let n = u32::try_from(tasks.len()).expect("at most u32::MAX tasks per DPU");
    order.clear();
    order.extend(
        tasks
            .iter()
            .zip(0..n)
            .map(|(t, i)| (t.query, cluster_of(t.slice), i)),
    );
    order.sort_unstable();
    for entry in order.iter_mut() {
        entry.2 = tasks[entry.2 as usize].slice;
    }
    order.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, IndexConfig};
    use crate::layout::{ClusterInfo, LayoutPlan};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn layout(ndpus: usize, dup: bool) -> (Vec<ClusterInfo>, LayoutPlan) {
        let clusters: Vec<ClusterInfo> = (0..8)
            .map(|i| ClusterInfo {
                id: i,
                points: 100,
                heat: if i == 0 { 50.0 } else { 1.0 },
            })
            .collect();
        let mut cfg = EngineConfig::drim(IndexConfig {
            k: 10,
            nprobe: 4,
            nlist: 8,
            m: 4,
            cb: 16,
        });
        cfg.duplication = dup;
        let costs = upmem_sim::IsaCosts::upmem();
        let plan = LayoutPlan::build(&clusters, ndpus, &cfg, 8, 1 << 20, |len| {
            task_cost_s(len, 4, 16, 8, 10, true, &costs, 1.0)
        })
        .0;
        (clusters, plan)
    }

    fn hot_tasks(n: usize, slice: usize) -> Vec<Task> {
        (0..n)
            .map(|q| Task {
                query: q as u32,
                slice: slice as u32,
                cost: 1.0,
            })
            .collect()
    }

    #[test]
    fn static_policy_stacks_on_primary() {
        let (_, plan) = layout(4, false);
        let tasks = hot_tasks(10, 0);
        let sp = schedule(&tasks, &plan, 4, Policy::Static);
        assert_eq!(sp.scheduled(), 10);
        // all on one DPU
        let non_empty = sp.per_dpu.iter().filter(|t| !t.is_empty()).count();
        assert_eq!(non_empty, 1);
        assert!(sp.imbalance() > 3.0);
    }

    #[test]
    fn greedy_spreads_over_replicas() {
        let (_, plan) = layout(4, true);
        // slice 0 belongs to the hot cluster: duplication gave it copies
        let hot_slice = plan.cluster_slices[0][0];
        assert!(
            plan.slice_homes[hot_slice].len() > 1,
            "duplication should have copied the hot slice"
        );
        let tasks = hot_tasks(12, hot_slice);
        let sp = schedule(&tasks, &plan, 4, Policy::Greedy { th3: f64::INFINITY });
        let used = sp.per_dpu.iter().filter(|t| !t.is_empty()).count();
        assert_eq!(used, plan.slice_homes[hot_slice].len());
        assert!(sp.imbalance() < 4.0);
    }

    #[test]
    fn th3_postpones_overflow() {
        let (_, plan) = layout(4, false);
        let slice = plan.cluster_slices[1][0]; // single-copy slice
        let tasks = hot_tasks(8, slice);
        // mean = 8/4 = 2.0; limit = 2.0 * 1.5 = 3 -> 3 run, 5 postponed
        let sp = schedule(&tasks, &plan, 4, Policy::Greedy { th3: 0.5 });
        assert!(sp.scheduled() < 8, "some tasks must be postponed");
        assert_eq!(sp.scheduled() + sp.postponed.len(), 8);
        let max_heat = sp.heat.iter().cloned().fold(0.0, f64::max);
        assert!(max_heat <= 3.0 + 1e-9, "max heat {max_heat}");
    }

    #[test]
    fn every_task_scheduled_or_postponed_exactly_once() {
        let (_, plan) = layout(4, true);
        let mut tasks = Vec::new();
        for q in 0..20u32 {
            for s in 0..plan.slices.len() {
                tasks.push(Task {
                    query: q,
                    slice: s as u32,
                    cost: 0.5 + (s as f64) * 0.1,
                });
            }
        }
        let sp = schedule(&tasks, &plan, 4, Policy::Greedy { th3: 0.2 });
        assert_eq!(sp.scheduled() + sp.postponed.len(), tasks.len());
        // every scheduled task sits on a DPU that actually hosts its slice
        for (d, ts) in sp.per_dpu.iter().enumerate() {
            for t in ts {
                assert!(
                    plan.slice_homes[t.slice as usize].contains(&d),
                    "task on dpu {d} but slice {} lives on {:?}",
                    t.slice,
                    plan.slice_homes[t.slice as usize]
                );
            }
        }
    }

    #[test]
    fn expand_tasks_covers_all_slices_of_probed_clusters() {
        let (_, plan) = layout(4, false);
        let probes = vec![vec![0u32, 3], vec![5u32]];
        let tasks = expand_tasks(&probes, &plan, |len| len as f64);
        let expected: usize = plan.cluster_slices[0].len()
            + plan.cluster_slices[3].len()
            + plan.cluster_slices[5].len();
        assert_eq!(tasks.len(), expected);
        assert!(tasks.iter().all(|t| t.cost <= 100.0));
    }

    #[test]
    fn ban_mask_routes_around_dead_dpus() {
        let (_, plan) = layout(4, true);
        let hot_slice = plan.cluster_slices[0][0];
        let homes = plan.slice_homes[hot_slice].clone();
        assert!(homes.len() > 1);
        // ban the primary home: greedy must use the surviving replicas only
        let mut banned = vec![false; 4];
        banned[homes[0]] = true;
        let tasks = hot_tasks(10, hot_slice);
        let sp = schedule_filtered(
            &tasks,
            &plan,
            4,
            Policy::Greedy { th3: f64::INFINITY },
            None,
            Some(&banned),
        );
        assert!(sp.per_dpu[homes[0]].is_empty(), "banned DPU got work");
        assert_eq!(sp.scheduled(), 10);
        assert!(sp.unplaceable.is_empty());
        // ban every home: the tasks become unplaceable, never silently lost
        let all_banned = vec![true; 4];
        let sp = schedule_filtered(
            &tasks,
            &plan,
            4,
            Policy::Greedy { th3: f64::INFINITY },
            None,
            Some(&all_banned),
        );
        assert_eq!(sp.scheduled(), 0);
        assert_eq!(sp.unplaceable.len(), 10);
        // static policy falls back to the first surviving home
        let sp = schedule_filtered(&tasks, &plan, 4, Policy::Static, None, Some(&banned));
        assert_eq!(sp.scheduled(), 10);
        assert!(sp.per_dpu[homes[0]].is_empty());
        // a short mask is lenient: DPUs it does not cover count as alive
        let g = Policy::Greedy { th3: f64::INFINITY };
        let sp = schedule_filtered(&tasks, &plan, 4, g, None, Some(&[true; 2]));
        assert!(sp.per_dpu[0].is_empty() && sp.per_dpu[1].is_empty());
        assert_eq!(sp.scheduled() + sp.unplaceable.len(), 10);
    }

    #[test]
    fn no_ban_mask_matches_unfiltered_schedule() {
        let (_, plan) = layout(4, true);
        let mut tasks = Vec::new();
        for q in 0..12u32 {
            for s in 0..plan.slices.len() {
                tasks.push(Task {
                    query: q,
                    slice: s as u32,
                    cost: 0.3 + (s as f64) * 0.05,
                });
            }
        }
        let a = schedule(&tasks, &plan, 4, Policy::Greedy { th3: 0.2 });
        let b = schedule_filtered(&tasks, &plan, 4, Policy::Greedy { th3: 0.2 }, None, None);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let none_banned = vec![false; 4];
        let c = schedule_filtered(
            &tasks,
            &plan,
            4,
            Policy::Greedy { th3: 0.2 },
            None,
            Some(&none_banned),
        );
        assert_eq!(format!("{a:?}"), format!("{c:?}"));
    }

    fn greedy_with_cost(cost: f64) {
        let (_, plan) = layout(4, true);
        let mut tasks = hot_tasks(3, 0);
        tasks[1].cost = cost;
        schedule(&tasks, &plan, 4, Policy::Greedy { th3: 0.5 });
    }

    #[test]
    #[should_panic(expected = "finite task costs >= 0, got NaN")]
    fn greedy_rejects_a_nan_cost() {
        greedy_with_cost(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite task costs >= 0, got inf")]
    fn greedy_rejects_an_infinite_cost() {
        greedy_with_cost(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "finite task costs >= 0, got -0.5")]
    fn greedy_rejects_a_negative_cost() {
        greedy_with_cost(-0.5);
    }

    #[test]
    fn greedy_reads_negative_zero_as_zero() {
        let (_, plan) = layout(4, true);
        let hot_slice = plan.cluster_slices[0][0];
        let homes = &plan.slice_homes[hot_slice];
        let mut tasks = hot_tasks(4, hot_slice);
        for (t, cost) in tasks.iter_mut().zip([0.0, -0.0, 1.0, -0.0]) {
            t.cost = cost;
        }
        let sp = schedule(&tasks, &plan, 4, Policy::Greedy { th3: f64::INFINITY });
        let queries = |d: usize| sp.per_dpu[d].iter().map(|t| t.query).collect::<Vec<_>>();
        // the heavy task first, onto the first of the equally cold homes;
        // then the three zeros, tied whatever their sign, in task order
        // onto the first home still at zero heat
        assert_eq!(queries(homes[0]), [2]);
        assert_eq!(queries(homes[1]), [0, 1, 3]);
    }

    #[test]
    fn static_policy_continues_from_initial_heat() {
        let (_, plan) = layout(4, true);
        let mut tasks = Vec::new();
        for q in 0..6u32 {
            for s in 0..plan.slices.len() as u32 {
                let cost = 0.25 * f64::from(1 + (q + s) % 4);
                tasks.push(Task {
                    query: q,
                    slice: s,
                    cost,
                });
            }
        }
        let h = [0.5, 1.0, 2.0, 0.125];
        let sp = schedule_filtered(&tasks, &plan, 4, Policy::Static, Some(&h), None);
        assert_eq!(sp.scheduled(), tasks.len());
        for (d, list) in sp.per_dpu.iter().enumerate() {
            let placed = list.iter().fold(h[d], |heat, t| heat + t.cost);
            assert_eq!(sp.heat[d].to_bits(), placed.to_bits(), "DPU {d}");
        }
    }

    /// Per-DPU task lists over clusters of the given slices, with every
    /// probed cluster's slices in descending slice order and some `(query,
    /// cluster)` groups split across the list: in LPT order (cost
    /// descending, stable) and shuffled.
    fn dpu_lists(rng: &mut StdRng, cluster_slices: &[Vec<u32>]) -> Vec<Vec<Task>> {
        let mut lists = Vec::new();
        for _ in 0..8 {
            let mut tasks = Vec::new();
            for _ in 0..rng.gen_range(1..40usize) {
                let q = rng.gen_range(0..6u32);
                // a repeat of the group re-adds some slice of it later on
                let slices = &cluster_slices[rng.gen_range(0..cluster_slices.len())];
                let take = rng.gen_range(1..=slices.len());
                for &slice in slices[..take].iter().rev() {
                    tasks.push(Task {
                        query: q,
                        slice,
                        cost: f64::from(rng.gen_range(0..3u32)),
                    });
                }
            }
            let mut lpt = tasks.clone();
            lpt.sort_by(|a, b| b.cost.partial_cmp(&a.cost).unwrap());
            for i in (1..tasks.len()).rev() {
                tasks.swap(i, rng.gen_range(0..=i));
            }
            lists.push(lpt);
            lists.push(tasks);
        }
        lists
    }

    #[test]
    fn group_tasks_is_the_stable_query_cluster_sort() {
        // clusters of 1, 2, 3, 4 and 1 slices, slice ids interleaved
        let shape = [1, 2, 3, 4, 1];
        let mut clusters = Vec::new();
        let mut cluster_slices = vec![Vec::new(); shape.len()];
        for round in 0..4 {
            for (c, &n) in shape.iter().enumerate() {
                if round < n {
                    cluster_slices[c].push(clusters.len() as u32);
                    clusters.push(c as u32);
                }
            }
        }
        let cluster_of = |slice: u32| clusters[slice as usize];
        let mut rng = StdRng::seed_from_u64(0x6A0F);
        let mut order = Vec::new();
        let (mut repeated, mut multi_slice) = (0, 0);
        for tasks in dpu_lists(&mut rng, &cluster_slices) {
            let mut want: Vec<(u32, u32, u32)> = tasks
                .iter()
                .map(|t| (t.query, cluster_of(t.slice), t.slice))
                .collect();
            want.sort_by_key(|&(q, c, _)| (q, c));
            let want: Vec<&[(u32, u32, u32)]> =
                want.chunk_by(|a, b| a.0 == b.0 && a.1 == b.1).collect();
            let got: Vec<&[(u32, u32, u32)]> =
                group_tasks(&tasks, cluster_of, &mut order).collect();
            assert_eq!(got, want);
            // a group whose slices ascend somewhere holds two of its runs
            repeated += got
                .iter()
                .filter(|g| g.windows(2).any(|w| w[0].2 <= w[1].2))
                .count();
            multi_slice += got.iter().filter(|g| g.len() >= 3).count();
        }
        assert!(repeated > 0 && multi_slice > 0, "{repeated} {multi_slice}");
    }

    #[test]
    fn greedy_beats_static_makespan_under_skew() {
        let (_, plan) = layout(4, true);
        let hot_slice = plan.cluster_slices[0][0];
        let mut tasks = hot_tasks(16, hot_slice);
        for q in 0..4u32 {
            tasks.push(Task {
                query: q,
                slice: plan.cluster_slices[2][0] as u32,
                cost: 1.0,
            });
        }
        let greedy = schedule(&tasks, &plan, 4, Policy::Greedy { th3: f64::INFINITY });
        let stat = schedule(&tasks, &plan, 4, Policy::Static);
        let makespan = |sp: &SchedulePlan| sp.heat.iter().cloned().fold(0.0, f64::max);
        assert!(makespan(&greedy) < makespan(&stat));
    }
}
