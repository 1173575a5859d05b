//! The batch dispatch loop: the one implementation of the paper's runtime
//! pipeline (Fig. 4, Section 3.3) after cluster locating — greedy schedule,
//! per-DPU execution waves, host-side accounting — shared by the functional
//! engine and trace mode.
//!
//! One state machine, three callers: a zero-fault engine batch, a faulted
//! engine batch and a trace batch all run [`run`]. Per batch it
//!
//! 1. expands probes into tasks and schedules them, around the injector's
//!    dead set when one is armed (`banned = None` otherwise, which keeps the
//!    scheduler arithmetic identical to the unfiltered form);
//! 2. drains `th3`-postponed tasks onto the DPUs still cold after the main
//!    wave;
//! 3. runs at most [`WAVES`] dispatch waves: every wave's per-DPU outcome is
//!    checked (checksum for corruption, completion estimate for
//!    stragglers); a straggler past [`HEDGE_DEADLINE`] times the predicted
//!    barrier is hedged, and corrupt and hedged work is re-dispatched once,
//!    to surviving replicas, around the dead mask ORed with the hedged mask;
//! 4. escalates whatever could not be placed to the host-side kernel replay,
//!    which is lossless, and counts it in [`FaultStats`];
//! 5. folds meters and link-byte totals into the [`BatchReport`], whose SQT
//!    hit rate is the batch's configuration's ([`GroupCost`]).
//!
//! Without a (non-inert) injector this is the one-wave case: no dead mask,
//! every outcome healthy, `FaultStats` left at its default. See
//! `docs/FAULT_MODEL.md` for the recovery policy.
//!
//! Both modes book a wave through the same [`ChargeTable::charge`]: it
//! groups the wave's tasks by `(query, cluster)` and books RC + LC once per
//! group, DC per slice and the push bytes, from one table of per-group and
//! per-slice charges built per batch. The single seam is the TS closure it
//! takes per (group, slice): the engine runs the real top-k selection there
//! (and returns results), trace mode merges the slice's closed-form TS row
//! (empty results, zero checksum). Each mode's `exec` closure wraps that
//! call; the loop mutates the [`PimSystem`] while waves execute, so `exec`
//! must capture only state disjoint from it.
//!
//! A batch fills the same large buffers every time: the expanded task
//! list, the scheduler's flat homes and per-DPU task lists, and the charge
//! table's per-slice rows. [`run`] takes them from a [`Scratch`] that its
//! caller owns across batches, one per `DrimEngine` and one per
//! `TraceRunner`, and hands the per-DPU lists back to it after the waves.
//! Every buffer is cleared before it is filled, so only capacity carries
//! from one batch to the next, and an owner keeps its largest batch's
//! buffers (≈ 12 MB at the `trace_paper` shape). The scratch is no
//! option and reaches no report.

use crate::config::{EngineConfig, SchedPolicy};
use crate::kernels::GroupCost;
use crate::layout::LayoutPlan;
use crate::report::{BatchReport, FaultStats};
use crate::sched::{self, Policy, Task};
use ann_core::topk::Neighbor;
use upmem_sim::fault::{FaultInjector, FaultOutcome};
use upmem_sim::meter::{DpuMeter, Phase, PhaseMeter};
use upmem_sim::proc::ProcModel;
use upmem_sim::system::PimSystem;
use upmem_sim::tasklet::LockStats;

/// Dispatch waves per batch: the first, plus one retry of its faulted work
/// on surviving replicas. Work still unrecovered after the last wave goes to
/// the host fallback.
const WAVES: u32 = 2;

/// The host stops waiting for a straggler whose estimated completion
/// exceeds this multiple of the predicted barrier (the scheduler's max
/// heat), and re-issues its tasks on replicas.
const HEDGE_DEADLINE: f64 = 1.5;

/// The DPUs `inj` has fail-stopped by batch `batch` — the driver's
/// allocation-time rank scan. Rebuilt per batch, so a batch's results
/// depend only on `(engine, queries, batch)`; dead DPUs never receive work
/// or data.
pub(crate) fn dead_mask(inj: &FaultInjector, ndpus: usize, batch: u64) -> Vec<bool> {
    (0..ndpus).map(|d| inj.is_fail_stop_at(d, batch)).collect()
}

/// What one DPU returns for one wave of tasks.
pub(crate) struct DpuOutput {
    /// Per query with work on this DPU: its local top-k, ascending.
    pub results: Vec<(u32, Vec<Neighbor>)>,
    /// Instruction and traffic charges of the wave.
    pub meter: DpuMeter,
    /// Top-k lock statistics.
    pub lock: LockStats,
    /// Host->PIM bytes pushed for the wave (queries + task descriptors).
    pub push_bytes: u64,
    /// PIM->host bytes gathered (the result lists).
    pub gather_bytes: u64,
    /// Scanned candidates dropped by the tombstone filter.
    pub tombstone_filtered: u64,
    /// Detection checksum over the result payload (see
    /// [`upmem_sim::fault::result_checksum`]); charged zero.
    pub checksum: u64,
}

/// What a group books for one slice: [`GroupCost::charge_slice`]'s DC and
/// TS phases and lock statistics.
#[derive(Clone, Copy)]
struct SliceCharge {
    /// The slice's cluster, read where the waves group tasks.
    cluster: u32,
    dc: PhaseMeter,
    ts: PhaseMeter,
    lock: LockStats,
}

/// One batch's [`GroupCost::charge`], tabulated: the RC + LC meter every
/// `(query, cluster)` group books once, and per slice of the layout what a
/// group books for it. Every charge is integer counts, so a wave's merges
/// of table rows equal the per-group charges bit for bit. Built per batch
/// (slice lengths are the layout's at that batch), into rows the
/// [`Scratch`] keeps.
pub(crate) struct ChargeTable<'a> {
    pub(crate) cost: &'a GroupCost<'a>,
    group: DpuMeter,
    slices: &'a [SliceCharge],
}

impl<'a> ChargeTable<'a> {
    fn new(
        cost: &'a GroupCost<'a>,
        layout: &'a LayoutPlan,
        rows: &'a mut Vec<SliceCharge>,
    ) -> Self {
        let mut group = DpuMeter::new();
        cost.charge_group(&mut group);
        rows.clear();
        rows.extend(layout.slices.iter().map(|s| {
            let mut meter = DpuMeter::new();
            let lock = cost.charge_slice(&mut meter, s.len as u64);
            SliceCharge {
                cluster: s.cluster,
                dc: *meter.phase(Phase::Dc),
                ts: *meter.phase(Phase::Ts),
                lock,
            }
        }));
        ChargeTable {
            cost,
            group,
            slices: rows,
        }
    }

    /// Book one wave of `tasks`: RC + LC once per `(query, cluster)` group,
    /// DC per slice and the push bytes, with `ts(query, cluster, slice,
    /// meter)` called for each slice of each group, groups ascending by
    /// `(query, cluster)` — TS books itself into `meter` and returns its
    /// lock statistics. The gather is a full top-k list per query with work
    /// here (the engine replaces it with its lists' lengths); results,
    /// tombstone count and checksum are left empty.
    pub(crate) fn charge<T>(&self, tasks: &[Task], mut ts: T) -> DpuOutput
    where
        T: FnMut(u32, u32, usize, &mut PhaseMeter) -> LockStats,
    {
        let (mut dc, mut ts_meter) = (PhaseMeter::default(), PhaseMeter::default());
        let mut lock = LockStats::default();
        let (mut groups, mut queries, mut push_bytes) = (0u64, 0u64, 0u64);
        let mut order = Vec::new();
        let mut last_query = None;
        let cluster_of = |si: u32| self.slices[si as usize].cluster;
        for group in sched::group_tasks(tasks, cluster_of, &mut order) {
            let (q, cluster, _) = group[0];
            if last_query != Some(q) {
                last_query = Some(q);
                queries += 1;
            }
            groups += 1;
            push_bytes += self.cost.push_bytes(group.len());
            for &(_, _, si) in group {
                let si = si as usize;
                dc.merge(&self.slices[si].dc);
                let s = ts(q, cluster, si, &mut ts_meter);
                lock.locked_updates += s.locked_updates;
                lock.pruned += s.pruned;
            }
        }
        let mut meter = self.group.scaled(groups);
        meter.phase_mut(Phase::Dc).merge(&dc);
        meter.phase_mut(Phase::Ts).merge(&ts_meter);
        DpuOutput {
            results: Vec::new(),
            meter,
            lock,
            push_bytes,
            gather_bytes: queries * self.cost.k as u64 * 8,
            tombstone_filtered: 0,
            checksum: 0,
        }
    }

    /// Trace mode's TS for slice `si`: its closed-form row.
    pub(crate) fn ts_row(&self, si: usize, meter: &mut PhaseMeter) -> LockStats {
        let row = &self.slices[si];
        meter.merge(&row.ts);
        row.lock
    }
}

/// One batch's input to [`run`]: what cluster locating produced plus the
/// read-only state the schedule is computed from.
pub(crate) struct Batch<'a> {
    /// Per query: the probed clusters.
    pub probes: &'a [Vec<u32>],
    /// Host seconds cluster locating cost.
    pub cl_host_s: f64,
    /// Engine configuration (index shape, scheduling policy, host fallback).
    pub cfg: &'a EngineConfig,
    /// The layout plan in force.
    pub layout: &'a LayoutPlan,
    /// Host processor model (re-issue and fallback replay costs).
    pub host: &'a ProcModel,
    /// The batch's cost statement (the scheduler's heat comes from it).
    pub cost: &'a GroupCost<'a>,
    /// Batch index the injector's draws key on.
    pub fault_batch: u64,
}

/// The buffers [`run`] fills every batch, owned by the caller across
/// batches — the expanded task list, the scheduler's buffers and per-DPU
/// tables, and the charge table's per-slice rows. Every one is cleared
/// before it is filled, so what it holds never reaches a result.
#[derive(Default)]
pub(crate) struct Scratch {
    tasks: Vec<Task>,
    sched: sched::Scratch,
    rows: Vec<SliceCharge>,
}

/// The DPUs a schedule gave work to.
fn busy(per_dpu: &[Vec<Task>]) -> Vec<usize> {
    (0..per_dpu.len())
        .filter(|&d| !per_dpu[d].is_empty())
        .collect()
}

/// Execute one batch on `system`, in `scratch`'s buffers. `exec(table,
/// Some(d), tasks)` produces DPU `d`'s output for one wave from the
/// batch's [`ChargeTable`]; `exec(table, None, tasks)` is the host-side
/// replay of unplaceable tasks through the same kernels. Returns, per
/// query, the unmerged per-DPU result lists in dispatch order, plus the
/// report.
pub(crate) fn run<E>(
    system: &mut PimSystem,
    b: Batch<'_>,
    scratch: &mut Scratch,
    exec: E,
) -> (Vec<Vec<Vec<Neighbor>>>, BatchReport)
where
    E: Fn(&ChargeTable<'_>, Option<usize>, &[Task]) -> DpuOutput + Sync,
{
    let Scratch {
        tasks,
        sched: buffers,
        rows,
    } = scratch;
    let table = ChargeTable::new(b.cost, b.layout, rows);
    let exec = |who, tasks: &[Task]| exec(&table, who, tasks);
    let ndpus = system.len();
    let nqueries = b.probes.len();
    system.reset_meters();
    let batch = b.fault_batch;
    // An armed injector travels with its dead mask at this batch, so dead
    // DPUs never receive work in the first place.
    let armed = system
        .fault
        .clone()
        .filter(|inj| !inj.is_inert())
        .map(|inj| {
            let dead = dead_mask(&inj, ndpus, batch);
            (inj, dead)
        });
    let mut stats = FaultStats::default();

    // --- schedule (around the dead set, if any) ---
    let (heat, freq_hz) = (b.cost.heat(), system.arch.freq_hz);
    sched::expand_tasks_into(b.probes, b.layout, |len| heat(len) as f64 / freq_hz, tasks);
    let policy = match b.cfg.scheduling {
        SchedPolicy::Static => Policy::Static,
        SchedPolicy::Greedy => Policy::Greedy { th3: b.cfg.th3 },
    };
    let reissue = Policy::Greedy { th3: f64::INFINITY };
    let banned = armed.as_ref().map(|(_, dead)| dead.as_slice());
    let mut plan = sched::schedule_with(tasks, b.layout, ndpus, policy, None, banned, buffers);
    let postponed_count = plan.postponed.len();
    let mut fallback: Vec<Task> = std::mem::take(&mut plan.unplaceable);
    // Postponed tasks run in a follow-up wave (the "next batch" of the
    // paper); for result correctness we execute them now, on the same
    // meters — the report still records how many were deferred.
    while !plan.postponed.is_empty() {
        let extra = sched::schedule_with(
            &plan.postponed,
            b.layout,
            ndpus,
            reissue,
            Some(&plan.heat),
            banned,
            buffers,
        );
        for (list, more) in plan.per_dpu.iter_mut().zip(&extra.per_dpu) {
            list.extend_from_slice(more);
        }
        buffers.recycle(extra.per_dpu);
        plan.heat = extra.heat;
        plan.postponed = extra.postponed;
        fallback.extend(extra.unplaceable);
    }

    let max_heat = plan.heat.iter().cloned().fold(0.0, f64::max);
    let deadline = if max_heat > 0.0 {
        HEDGE_DEADLINE * max_heat
    } else {
        f64::INFINITY
    };

    // --- dispatch waves with recovery ---
    let mut per_query_lists: Vec<Vec<Vec<Neighbor>>> = vec![Vec::new(); nqueries];
    let mut lock = LockStats::default();
    let mut push_bytes = 0u64;
    let mut gather_bytes = 0u64;
    let mut tombstone_filtered = 0u64;
    let mut extra_host_s = 0.0f64;
    let mut heat = plan.heat;
    // DPUs already hedged this batch never get the same work re-issued
    let mut hedged = vec![false; ndpus];
    // the wave's per-DPU lists, and the DPUs among them with work
    let mut lists = plan.per_dpu;
    let mut wave = busy(&lists);
    let mut attempt: u32 = 0;

    loop {
        // parallel over DPUs; the ordered collect keeps the fold below
        // deterministic at any host thread count
        let outputs: Vec<DpuOutput> = rayon::par_map(wave.len(), |w| {
            let d = wave[w];
            exec(Some(d), &lists[d])
        });

        let mut to_recover: Vec<Task> = Vec::new();
        for (&d, out) in wave.iter().zip(outputs) {
            let wtasks = &lists[d];
            if let Some((inj, _)) = &armed {
                // Host-side integrity check: the link XORs the transmitted
                // checksum on a corrupt dispatch, so recomputing it over
                // the gathered payload exposes the damage.
                let wire = out.checksum ^ inj.corrupt_mask(d, batch, attempt);
                let corrupt_detected = wire != out.checksum;
                match inj.outcome(d, batch, attempt) {
                    FaultOutcome::Healthy => debug_assert!(!corrupt_detected),
                    FaultOutcome::FailStop => {
                        unreachable!("dead DPUs are banned before dispatch")
                    }
                    FaultOutcome::Straggler(f) => {
                        stats.stragglers += 1;
                        let wave_s = out.meter.time(&system.arch, system.tasklets);
                        system.set_dpu_slowdown(d, f);
                        if wave_s * f > deadline {
                            // hedge: stop waiting at the deadline, re-issue
                            // on replicas; the straggler's energy is still
                            // spent but its results never arrive
                            system.cap_dpu_time(d, deadline);
                            hedged[d] = true;
                            stats.hedged_tasks += wtasks.len();
                            system.dpus[d].meter.merge(&out.meter);
                            push_bytes += out.push_bytes;
                            to_recover.extend_from_slice(wtasks);
                            continue;
                        }
                        // slow but worth waiting for: full accept below
                    }
                    FaultOutcome::Corrupt => {
                        debug_assert!(corrupt_detected);
                        stats.corruptions += 1;
                        stats.retried_tasks += wtasks.len();
                        // charges stand: the DPU did the work and the
                        // damaged payload crossed the link before the
                        // checksum exposed it
                        system.dpus[d].meter.merge(&out.meter);
                        push_bytes += out.push_bytes;
                        gather_bytes += out.gather_bytes;
                        to_recover.extend_from_slice(wtasks);
                        continue;
                    }
                }
            }
            // full accept (healthy, or a straggler the host waited out)
            system.dpus[d].meter.merge(&out.meter);
            lock.locked_updates += out.lock.locked_updates;
            lock.pruned += out.lock.pruned;
            push_bytes += out.push_bytes;
            gather_bytes += out.gather_bytes;
            tombstone_filtered += out.tombstone_filtered;
            for (q, list) in out.results {
                per_query_lists[q as usize].push(list);
            }
        }

        if to_recover.is_empty() {
            break;
        }
        attempt += 1;
        if attempt >= WAVES {
            fallback.extend_from_slice(&to_recover);
            break;
        }
        // Re-dispatch to surviving replicas, also avoiding DPUs this batch
        // already hedged away from. The host pays a small re-issue cost per
        // task (descriptor re-pack + trigger).
        let (_, dead) = armed.as_ref().expect("only faults leave work to recover");
        let banned_now: Vec<bool> = dead.iter().zip(&hedged).map(|(&x, &h)| x || h).collect();
        let rplan = sched::schedule_with(
            &to_recover,
            b.layout,
            ndpus,
            reissue,
            Some(&heat),
            Some(&banned_now),
            buffers,
        );
        extra_host_s += b.host.time(
            32.0 * to_recover.len() as f64,
            16.0 * to_recover.len() as f64,
        );
        heat = rplan.heat;
        fallback.extend(rplan.unplaceable);
        buffers.recycle(std::mem::replace(&mut lists, rplan.per_dpu));
        wave = busy(&lists);
        if wave.is_empty() {
            break;
        }
    }
    buffers.recycle(lists);

    // --- escalation: host-side kernel replay ---
    // Replay the exact DPU kernel path on the host, so the recovered
    // results are bit-identical to what the lost DPUs would have produced.
    // The meter is converted to host seconds through the host's ProcModel
    // and never touches the PIM-side accounting; no link bytes move.
    if !fallback.is_empty() {
        stats.host_fallback_tasks += fallback.len();
        let out = exec(None, &fallback);
        let total = out.meter.total();
        extra_host_s += b.host.time(total.cycles as f64, total.total_bytes() as f64);
        tombstone_filtered += out.tombstone_filtered;
        for (q, list) in out.results {
            per_query_lists[q as usize].push(list);
        }
    }
    if let Some((inj, dead)) = &armed {
        stats.dead_dpus = dead.iter().filter(|&&x| x).count();
        stats.dead_ranks = inj.dead_ranks_at(ndpus, batch);
    }

    // --- timing & report (exact transfer-byte totals) ---
    let timing = system.batch_timing(b.cl_host_s + extra_host_s, push_bytes, gather_bytes);
    let energy = system.batch_energy(&timing, b.host.power_w);
    let sqt_rate = b.cost.sqt_wram_hit_rate();
    let report = BatchReport::new(nqueries, timing, energy, postponed_count, lock, sqt_rate)
        .with_tombstones(tombstone_filtered)
        .with_fault_stats(stats);
    (per_query_lists, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::layout::ClusterInfo;
    use std::sync::Mutex;
    use upmem_sim::fault::{FaultConfig, FaultInjector};
    use upmem_sim::meter::Phase;
    use upmem_sim::PimArch;

    const NDPUS: usize = 4;
    /// Result id the fake stamps on host-replay output (DPU `d` stamps `d`).
    const HOST: u64 = u64::MAX;
    /// Fake charge per task: seconds of DPU time, far past any hedging
    /// deadline derived from the scheduler's microsecond-scale heat.
    const CYCLES_PER_TASK: u64 = 1_000_000_000;

    /// Every `exec` call of one batch: who ran which tasks.
    type Log = Vec<(Option<usize>, Vec<Task>)>;

    struct Rig {
        cfg: EngineConfig,
        layout: LayoutPlan,
        system: PimSystem,
        /// 6 queries x 4 probes over 8 single-slice clusters.
        probes: Vec<Vec<u32>>,
    }

    /// `faults` is the script: rates of 0 or 1 fire never or always, and the
    /// tests read seeded draws back through [`FaultInjector::outcome`].
    fn rig(faults: Option<FaultConfig>) -> Rig {
        let clusters: Vec<ClusterInfo> = (0..8)
            .map(|id| ClusterInfo {
                id,
                points: 100,
                heat: 1.0,
            })
            .collect();
        let cfg = EngineConfig::drim(IndexConfig {
            k: 10,
            nprobe: 4,
            nlist: 8,
            m: 4,
            cb: 16,
        });
        let mut system = PimSystem::new(PimArch::upmem_sc25(), NDPUS);
        let layout = LayoutPlan::build(&clusters, NDPUS, &cfg, 8, 1 << 20, |len| {
            sched::task_cost_s(len, 4, 16, 4, 10, true, &system.arch.costs, 1.0)
        })
        .0;
        system.fault = faults.map(|fc| FaultInjector::new(fc).unwrap());
        Rig {
            cfg,
            layout,
            system,
            probes: (0..6u32)
                .map(|q| (0..4).map(|p| (q + p) % 8).collect())
                .collect(),
        }
    }

    impl Rig {
        fn ntasks(&self) -> usize {
            sched::expand_tasks(&self.probes, &self.layout, |_| 0.0).len()
        }

        /// Run one batch through a fake `exec` that logs every call and
        /// charges a fixed amount per task.
        fn run(&mut self) -> (Log, Vec<Vec<Vec<Neighbor>>>, BatchReport) {
            let log = Mutex::new(Log::new());
            let placement = crate::wram::WramPlacement::none();
            let cost = GroupCost::new(&self.cfg, &self.system.arch, &placement, 16);
            let costs = self.system.arch.costs.clone();
            let batch = Batch {
                probes: &self.probes,
                cl_host_s: 0.0,
                cfg: &self.cfg,
                layout: &self.layout,
                host: &upmem_sim::platform::procs::xeon_silver_4216(),
                cost: &cost,
                fault_batch: 0,
            };
            let scratch = &mut Scratch::default();
            let (lists, report) = run(&mut self.system, batch, scratch, |_, who, tasks| {
                log.lock().unwrap().push((who, tasks.to_vec()));
                let n = tasks.len() as u64;
                let mut meter = DpuMeter::new();
                let dc = meter.phase_mut(Phase::Dc);
                dc.charge_add_c(CYCLES_PER_TASK * n, &costs);
                let mut queries: Vec<u32> = tasks.iter().map(|t| t.query).collect();
                queries.sort_unstable();
                queries.dedup();
                let stamp = Neighbor {
                    id: who.map_or(HOST, |d| d as u64),
                    dist: 0.0,
                };
                DpuOutput {
                    results: queries.into_iter().map(|q| (q, vec![stamp])).collect(),
                    meter,
                    lock: LockStats {
                        locked_updates: n,
                        pruned: 0,
                    },
                    push_bytes: 10 * n,
                    gather_bytes: 7 * n,
                    tombstone_filtered: 0,
                    checksum: 0x5EED,
                }
            });
            (log.into_inner().unwrap(), lists, report)
        }
    }

    fn calls_to(log: &Log, who: Option<usize>) -> Vec<&Vec<Task>> {
        let theirs = log.iter().filter(|(w, _)| *w == who);
        theirs.map(|(_, tasks)| tasks).collect()
    }

    fn tasks_on_dpus(log: &Log) -> u64 {
        let on_dpu = log.iter().filter(|(who, _)| who.is_some());
        on_dpu.map(|(_, tasks)| tasks.len() as u64).sum()
    }

    #[test]
    fn no_injector_is_one_wave_with_default_fault_stats() {
        for faults in [None, Some(FaultConfig::none())] {
            let mut rig = rig(faults);
            let (log, lists, report) = rig.run();
            assert_eq!(report.fault, FaultStats::default());
            assert!(calls_to(&log, None).is_empty(), "nothing to replay");
            for d in 0..NDPUS {
                assert!(calls_to(&log, Some(d)).len() <= 1, "one wave only");
            }
            assert_eq!(tasks_on_dpus(&log), rig.ntasks() as u64);
            // a full accept folds everything the DPUs reported
            assert_eq!(report.lock.locked_updates, rig.ntasks() as u64);
            assert_eq!(report.timing.push_bytes, 10 * rig.ntasks() as u64);
            assert_eq!(lists.len(), rig.probes.len());
            assert!(lists.iter().all(|l| !l.is_empty()));
        }
    }

    #[test]
    fn hedged_dpu_never_gets_its_own_work_back() {
        let script = |seed| FaultConfig {
            seed,
            straggler_rate: 0.5,
            ..FaultConfig::none()
        };
        // the fake's charge puts every straggler past the deadline, so the
        // DPUs that straggle in wave 0 are exactly the hedged ones
        let hedged = |seed| -> Vec<usize> {
            let inj = FaultInjector::new(script(seed)).unwrap();
            let slow = |d: &usize| inj.outcome(*d, 0, 0) != FaultOutcome::Healthy;
            (0..NDPUS).filter(slow).collect()
        };
        let seed = (0..64)
            .find(|&s| (1..NDPUS).contains(&hedged(s).len()))
            .expect("some seed slows some but not all DPUs");
        let mut rig = rig(Some(script(seed)));
        // every DPU hosts every slice: any DPU could take the re-issue
        for homes in &mut rig.layout.slice_homes {
            *homes = (0..NDPUS).collect();
        }
        let (log, _, report) = rig.run();
        assert!(report.fault.hedged_tasks > 0);
        // the host stops waiting at the one common deadline, long before a
        // single task's charge would have finished
        let mut one_task = DpuMeter::new();
        let costs = &rig.system.arch.costs;
        one_task
            .phase_mut(Phase::Dc)
            .charge_add_c(CYCLES_PER_TASK, costs);
        let task_s = one_task.time(&rig.system.arch, rig.system.tasklets);
        let capped: Vec<f64> = hedged(seed)
            .iter()
            .map(|&d| report.timing.dpu_s[d])
            .collect();
        assert!(capped.iter().all(|&s| s == capped[0]), "{capped:?}");
        assert!(capped[0] < task_s, "{} >= {task_s}", capped[0]);
        for d in hedged(seed) {
            let calls = calls_to(&log, Some(d));
            assert_eq!(calls.len(), 1, "DPU {d} was dispatched to again");
            for t in calls[0] {
                let elsewhere =
                    |(who, ts): &(Option<usize>, Vec<Task>)| *who != Some(d) && ts.contains(t);
                assert!(log.iter().any(elsewhere), "{t:?} was never re-issued");
            }
        }
    }

    #[test]
    fn corrupt_wave_is_charged_but_its_results_are_discarded() {
        let mut rig = rig(Some(FaultConfig {
            corruption_rate: 1.0,
            ..FaultConfig::none()
        }));
        let (log, lists, report) = rig.run();
        // wave 0 and its one retry both corrupt, then the host replays
        let on_dpus = tasks_on_dpus(&log);
        assert_eq!(on_dpus, 2 * rig.ntasks() as u64);
        assert_eq!(report.fault.corruptions, log.len() - 1);
        // the work was done and the damaged payloads crossed the link...
        assert_eq!(report.timing.push_bytes, 10 * on_dpus);
        assert_eq!(report.timing.gather_bytes, 7 * on_dpus);
        let charged = rig.system.aggregate_meter().total().cycles;
        assert_eq!(charged, CYCLES_PER_TASK * on_dpus);
        // ...but only the host replay's results and counters are kept
        assert!(lists.iter().flatten().flatten().all(|n| n.id == HOST));
        assert_eq!(report.lock.locked_updates, 0);
        assert_eq!(report.fault.host_fallback_tasks, rig.ntasks());
    }

    #[test]
    fn tasks_with_every_home_banned_reach_the_fallback_exactly_once() {
        let script = |seed| FaultConfig {
            seed,
            fail_stop_rate: 0.5,
            ..FaultConfig::none()
        };
        let dead = |seed| -> Vec<bool> {
            let inj = FaultInjector::new(script(seed)).unwrap();
            (0..NDPUS).map(|d| inj.is_fail_stop(d)).collect()
        };
        let seed = (0..64)
            .find(|&s| (1..NDPUS).contains(&dead(s).iter().filter(|&&x| x).count()))
            .expect("some seed kills some but not all DPUs");
        let dead = dead(seed);
        let mut rig = rig(Some(script(seed)));
        // one home per slice: a dead home orphans the slice
        for homes in &mut rig.layout.slice_homes {
            homes.truncate(1);
        }
        let (log, _, report) = rig.run();
        let orphaned = |t: &Task| dead[rig.layout.slice_homes[t.slice as usize][0]];
        for (d, &is_dead) in dead.iter().enumerate() {
            assert!(!is_dead || calls_to(&log, Some(d)).is_empty());
        }
        let replayed = calls_to(&log, None);
        assert_eq!(replayed.len(), 1, "one host replay");
        assert!(!replayed[0].is_empty() && replayed[0].iter().all(orphaned));
        // fail-stop alone retries nothing: every task ran exactly once
        let all: Vec<Task> = log.iter().flat_map(|(_, t)| t.clone()).collect();
        assert_eq!(all.len(), rig.ntasks());
        assert_eq!(
            replayed[0].len(),
            all.iter().filter(|t| orphaned(t)).count()
        );
        assert_eq!(report.fault.host_fallback_tasks, replayed[0].len());
    }
}
