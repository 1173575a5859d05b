//! Full-scale trace mode: run the *real* layout, scheduling and costing
//! machinery against statistical workload shapes — 100M to 1B points, 2,543
//! DPUs — without materializing a single vector.
//!
//! Rationale: the figures that depend on load distribution and
//! phase balance (paper Figs. 7–11, 13–15, Table 3) are functions of
//! *cluster sizes*, *query heat* and *per-operation costs*, none of which
//! require vector payloads. Trace mode samples cluster sizes from a Zipf
//! partition (k-means over natural data is uneven), samples each query's
//! probed clusters from a Zipf heat law, and charges the DPU meters through
//! [`GroupCost::charge`] — the closed-form `charge` functions the
//! functional kernels book themselves with (`tests/charge_parity.rs` pins
//! the two to identical totals).
//!
//! What a batch costs the host. No simulated number depends on it, but the
//! paper-scale sweeps run thousands of batches. One SIFT100M batch on
//! 2,543 DPUs (2,500 queries × nprobe 96: ≈ 240k tasks on 16,388 slices)
//! took ≈ 210 ms on a 2-vCPU x86 host. By phase, in ms per batch, mean of
//! 40 batches at seed 1:
//!
//! | phase      | before | after | what changed |
//! |------------|-------:|------:|--------------|
//! | sampling   |   53.0 |  13.0 | guide-table [`Discrete`] draws; a scan, not a hash set, for repeats |
//! | expansion  |   20.7 |   9.1 | one cost evaluation per slice, not per task |
//! | scheduling |   75.6 |  52.7 | a sort of `(key, index)` pairs; one tight pass over the homes |
//! | waves      |   61.1 |  17.6 | per-slice charge rows merged, not closed forms re-derived per task |
//!
//! "waves" is the rest of `run_batch`: the per-DPU charges on 2 threads,
//! the fold and the report. The sort of 240k tasks (≈ 17 ms) is the
//! largest single piece left.

use crate::config::{ConfigError, EngineConfig};
use crate::dispatch::{self, DpuOutput};
use crate::kernels::{cl, GroupCost};
use crate::layout::{ClusterInfo, LayoutPlan};
use crate::perf_model::{BitWidths, WorkloadShape};
use crate::report::BatchReport;
use crate::sched::Task;
use crate::wram::WramPlacement;
use datasets::zipf::{zipf_partition, Discrete};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upmem_sim::fault::{FaultConfig, FaultInjector};
use upmem_sim::meter::{DpuMeter, Phase, PhaseMeter};
use upmem_sim::proc::ProcModel;
use upmem_sim::system::PimSystem;
use upmem_sim::tasklet::LockStats;
use upmem_sim::PimArch;

/// Statistical description of a full-scale workload.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Workload name (reports).
    pub name: String,
    /// Total indexed points (e.g. `1e8` for SIFT100M).
    pub n_points: u64,
    /// Vector dimension.
    pub dim: usize,
    /// Queries per batch.
    pub batch: usize,
    /// Zipf exponent of cluster sizes (k-means on natural data: ~0.35).
    pub cluster_size_zipf: f64,
    /// Zipf exponent of query heat over clusters (~0.9 in-distribution;
    /// 1.2+ for hot-topic traffic).
    pub heat_zipf: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TraceSpec {
    /// Trace stand-in for a catalogued dataset at full paper scale.
    pub fn for_dataset(d: &datasets::DatasetDescriptor, batch: usize) -> Self {
        TraceSpec {
            name: d.name.to_string(),
            n_points: d.n_full,
            dim: d.dim,
            batch,
            cluster_size_zipf: 0.35,
            heat_zipf: d.zipf_s,
            seed: 0x7ACE,
        }
    }
}

/// A ready-to-run full-scale simulation.
pub struct TraceRunner {
    /// Engine configuration in force.
    pub cfg: EngineConfig,
    /// The workload description.
    pub spec: TraceSpec,
    /// Layout plan over the DPUs.
    pub layout: LayoutPlan,
    /// Simulated system.
    pub system: PimSystem,
    /// WRAM residency.
    pub placement: WramPlacement,
    /// Host model (CL phase).
    pub host: ProcModel,
    /// Closed-form workload shape.
    pub shape: WorkloadShape,
    /// Probe distribution over clusters (size-proportional x Zipf boost).
    probe_sampler: Discrete,
}

impl TraceRunner {
    /// Build the runner: sample cluster sizes, profile heat, lay out, plan
    /// WRAM.
    pub fn build(spec: TraceSpec, cfg: EngineConfig, arch: PimArch, ndpus: usize) -> TraceRunner {
        let nlist = cfg.index.nlist;
        let mut sizes = zipf_partition(spec.n_points as usize, nlist, spec.cluster_size_zipf);
        // k-means cluster ids are not size-ordered; shuffle so id-based
        // placements (round-robin baseline) see realistic random stacking
        {
            let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x51235);
            for i in (1..sizes.len()).rev() {
                let j = rng.gen_range(0..=i);
                sizes.swap(i, j);
            }
        }

        // Probe probability of a cluster = sqrt of its point mass
        // (in-distribution queries land in populated regions — this drives
        // the paper's imbalance) times a Zipf "topic heat" boost over a
        // seeded shuffle (hot topics uncorrelated with size). heat_zipf = 0
        // degenerates to pure sqrt-size-proportional probing.
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut rank_to_cluster: Vec<u32> = (0..nlist as u32).collect();
        for i in (1..rank_to_cluster.len()).rev() {
            let j = rng.gen_range(0..=i);
            rank_to_cluster.swap(i, j);
        }
        let boost = datasets::zipf::zipf_weights(nlist, spec.heat_zipf);
        let mut probe_weights = vec![0.0f64; nlist];
        for (rank, &c) in rank_to_cluster.iter().enumerate() {
            // probe mass grows sublinearly (sqrt) with cluster size: queries
            // land in populated regions, but nearest-centroid geometry does
            // not reward mass linearly — calibrated against the paper's
            // 4.8-6.2x naive-imbalance band (Fig. 13)
            probe_weights[c as usize] =
                (sizes[c as usize].max(1) as f64).sqrt() * boost[rank] * nlist as f64;
        }
        let total_w: f64 = probe_weights.iter().sum();
        let probe_sampler = Discrete::new(&probe_weights);

        // expected probes per query per cluster -> heat (scanned points)
        let clusters: Vec<ClusterInfo> = (0..nlist)
            .map(|c| {
                let freq = probe_weights[c] / total_w * cfg.index.nprobe as f64;
                ClusterInfo {
                    id: c as u32,
                    points: sizes[c],
                    heat: freq * sizes[c].max(1) as f64,
                }
            })
            .collect();

        let code_bytes = if cfg.index.cb <= 256 { 1 } else { 2 };
        let bytes_per_point = (cfg.index.m * code_bytes + 4) as u64;
        let dsub = spec.dim.div_ceil(cfg.index.m);
        let codebook_bytes = (cfg.index.m * cfg.index.cb * dsub) as u64;
        let mram_budget = arch.mram_bytes.saturating_sub(codebook_bytes);
        let shape = WorkloadShape::new(
            spec.n_points,
            spec.batch,
            spec.dim,
            &cfg.index,
            BitWidths::u8_regime(),
        );
        let heat = GroupCost::layout_heat(&cfg, &arch, &shape, ndpus);
        let slice_cost = |len| heat(len) as f64;
        let layout = LayoutPlan::build(
            &clusters,
            ndpus,
            &cfg,
            bytes_per_point,
            mram_budget,
            slice_cost,
        );

        let mut system = PimSystem::new(arch.clone(), ndpus);
        system.tasklets = cfg.tasklets;

        let local = layout.dpu_slices.first().map(|s| s.len()).unwrap_or(0);
        let placement = crate::wram::plan_for(&cfg, &arch, &shape, local, ndpus);

        TraceRunner {
            cfg,
            spec,
            layout,
            system,
            placement,
            host: upmem_sim::platform::procs::xeon_silver_4216(),
            shape,
            probe_sampler,
        }
    }

    /// Sample the probed clusters of one batch of queries.
    pub fn sample_probes(&self, batch_seed: u64) -> Vec<Vec<u32>> {
        let nprobe = self.cfg.index.nprobe.min(self.cfg.index.nlist);
        let mut rng = StdRng::seed_from_u64(self.spec.seed ^ batch_seed.wrapping_mul(0x9E37));
        (0..self.spec.batch)
            .map(|_| {
                let mut probed = Vec::with_capacity(nprobe);
                while probed.len() < nprobe {
                    let c = self.probe_sampler.sample(&mut rng) as u32;
                    // at most nprobe entries: a scan beats hashing
                    if !probed.contains(&c) {
                        probed.push(c);
                    }
                }
                probed
            })
            .collect()
    }

    /// Attach a fault injector: subsequent batches run through the same
    /// recovery policy as the functional engine, in charge-only form
    /// (faulted work re-charged on replicas, stragglers slowed or hedged,
    /// unplaceable work replayed on the host or dropped with the loss
    /// accounted). The batch's transient draws key on `batch_seed`.
    pub fn inject_faults(&mut self, cfg: FaultConfig) -> Result<(), ConfigError> {
        self.system.fault = Some(FaultInjector::new(cfg)?);
        Ok(())
    }

    /// Detach the fault injector.
    pub fn clear_faults(&mut self) {
        self.system.fault = None;
    }

    /// Execute one batch; `batch_seed` varies the query sample (and keys
    /// the injector's transient draws). The batch runs through the same
    /// dispatch loop as the functional engine (`dispatch::run`); only the
    /// per-DPU wave output differs — closed-form charges, no results.
    pub fn run_batch(&mut self, batch_seed: u64) -> BatchReport {
        self.run_batch_with(batch_seed, |table, _, tasks| table.charge(tasks))
    }

    /// [`Self::run_batch`] with the per-DPU wave output computed by `exec`
    /// from the batch's [`ChargeTable`].
    fn run_batch_with<E>(&mut self, batch_seed: u64, exec: E) -> BatchReport
    where
        E: Fn(&ChargeTable<'_>, Option<usize>, &[Task]) -> DpuOutput + Sync,
    {
        let probes = self.sample_probes(batch_seed);

        // CL on host (blocked-GEMM model, same as the functional engine)
        let host_s = cl::host_cl_time(
            self.spec.batch,
            self.cfg.index.nlist,
            &self.shape,
            &self.host,
        );

        // owns its cost table: the dispatch loop mutates `self.system`
        // while the charge closure runs
        let cost = GroupCost::new(&self.cfg, &self.system.arch, &self.placement, self.spec.dim);
        let table = ChargeTable::new(&cost, &self.layout, self.cfg.index.k);
        dispatch::run(
            &mut self.system,
            dispatch::Batch {
                probes: &probes,
                cl_host_s: host_s,
                cfg: &self.cfg,
                layout: &self.layout,
                host: &self.host,
                cost: &cost,
                fault_batch: batch_seed,
            },
            |who, tasks| exec(&table, who, tasks),
        )
        .1
    }

    /// Run `batches` batches and return the mean QPS (steady-state estimate).
    pub fn mean_qps(&mut self, batches: usize) -> f64 {
        let mut total_q = 0usize;
        let mut total_t = 0.0f64;
        for b in 0..batches {
            let rep = self.run_batch(b as u64 + 1);
            total_q += rep.queries;
            total_t += rep.timing.total_s();
        }
        total_q as f64 / total_t.max(1e-12)
    }
}

/// What a group books for one slice: [`GroupCost::charge_slice`]'s DC and
/// TS phases and lock statistics.
struct SliceCharge {
    dc: PhaseMeter,
    ts: PhaseMeter,
    lock: LockStats,
}

/// One batch's [`GroupCost::charge`], tabulated: the RC + LC meter every
/// `(query, cluster)` group books once, and per slice of the layout what a
/// group books for it. Every charge is integer counts, so a wave's merges
/// of table rows equal the per-group charges bit for bit. Built per batch:
/// slice lengths are the layout's at that batch.
struct ChargeTable<'a> {
    cost: &'a GroupCost<'a>,
    layout: &'a LayoutPlan,
    k: u64,
    group: DpuMeter,
    slices: Vec<SliceCharge>,
}

impl<'a> ChargeTable<'a> {
    fn new(cost: &'a GroupCost<'a>, layout: &'a LayoutPlan, k: usize) -> Self {
        let mut group = DpuMeter::new();
        cost.charge_group(&mut group);
        let slices = layout
            .slices
            .iter()
            .map(|s| {
                let mut meter = DpuMeter::new();
                let lock = cost.charge_slice(&mut meter, s.len as u64);
                SliceCharge {
                    dc: *meter.phase(Phase::Dc),
                    ts: *meter.phase(Phase::Ts),
                    lock,
                }
            })
            .collect();
        ChargeTable {
            cost,
            layout,
            k: k as u64,
            group,
            slices,
        }
    }

    /// One wave's tasks -> meter, lock stats and link bytes; no results, so
    /// nothing to checksum or merge.
    fn charge(&self, tasks: &[Task]) -> DpuOutput {
        let (mut dc, mut ts) = (PhaseMeter::default(), PhaseMeter::default());
        let mut lock = LockStats::default();
        let (mut groups, mut queries, mut push_bytes) = (0u64, 0u64, 0u64);
        let mut order = Vec::new();
        // groups ascend by query: a new query is a transition
        let mut last_query = None;
        for group in crate::sched::group_tasks(tasks, self.layout, &mut order) {
            if last_query != Some(group[0].0) {
                last_query = Some(group[0].0);
                queries += 1;
            }
            groups += 1;
            push_bytes += self.cost.push_bytes(group.len());
            for &(_, _, si) in group {
                let row = &self.slices[si];
                dc.merge(&row.dc);
                ts.merge(&row.ts);
                lock.locked_updates += row.lock.locked_updates;
                lock.pruned += row.lock.pruned;
            }
        }
        let mut meter = self.group.scaled(groups);
        meter.phase_mut(Phase::Dc).merge(&dc);
        meter.phase_mut(Phase::Ts).merge(&ts);
        DpuOutput {
            results: Vec::new(),
            meter,
            lock,
            sqt_hits: (0, 0),
            push_bytes,
            gather_bytes: queries * self.k * 8,
            tombstone_filtered: 0,
            checksum: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;

    fn spec(n: u64) -> TraceSpec {
        TraceSpec {
            name: "trace-test".into(),
            n_points: n,
            dim: 32,
            batch: 64,
            cluster_size_zipf: 0.35,
            heat_zipf: 1.0,
            seed: 42,
        }
    }

    fn cfg() -> EngineConfig {
        let mut c = EngineConfig::drim(IndexConfig {
            k: 10,
            nprobe: 8,
            nlist: 256,
            m: 8,
            cb: 64,
        });
        c.batch = 64;
        c
    }

    #[test]
    fn trace_runs_at_million_scale() {
        let mut runner = TraceRunner::build(spec(1_000_000), cfg(), PimArch::upmem_sc25(), 64);
        let rep = runner.run_batch(1);
        assert!(rep.qps > 0.0);
        assert!(rep.timing.pim_s() > 0.0);
        assert_eq!(rep.queries, 64);
    }

    #[test]
    fn probes_are_distinct_and_in_range() {
        let runner = TraceRunner::build(spec(100_000), cfg(), PimArch::upmem_sc25(), 16);
        let probes = runner.sample_probes(7);
        assert_eq!(probes.len(), 64);
        for p in &probes {
            assert_eq!(p.len(), 8);
            let set: std::collections::HashSet<_> = p.iter().collect();
            assert_eq!(set.len(), p.len());
            assert!(p.iter().all(|&c| (c as usize) < 256));
        }
    }

    #[test]
    fn skewed_heat_without_balancing_is_imbalanced() {
        let mut hot = spec(1_000_000);
        hot.heat_zipf = 1.4;
        let naive = EngineConfig::naive(cfg().index);
        let mut runner = TraceRunner::build(hot, naive, PimArch::upmem_sc25(), 64);
        let rep = runner.run_batch(1);
        assert!(rep.imbalance > 2.0, "imbalance {}", rep.imbalance);
    }

    #[test]
    fn load_balance_optimizations_cut_makespan() {
        let mut hot = spec(1_000_000);
        hot.heat_zipf = 1.4;
        let mut naive_runner = TraceRunner::build(
            hot.clone(),
            EngineConfig::naive(cfg().index),
            PimArch::upmem_sc25(),
            64,
        );
        let mut drim_runner = TraceRunner::build(hot, cfg(), PimArch::upmem_sc25(), 64);
        let naive_rep = naive_runner.run_batch(1);
        let drim_rep = drim_runner.run_batch(1);
        let speedup = naive_rep.timing.pim_s() / drim_rep.timing.pim_s();
        assert!(speedup > 1.5, "load-balance speedup {speedup}");
    }

    #[test]
    fn deterministic_given_seeds() {
        let mut a = TraceRunner::build(spec(500_000), cfg(), PimArch::upmem_sc25(), 32);
        let mut b = TraceRunner::build(spec(500_000), cfg(), PimArch::upmem_sc25(), 32);
        let ra = a.run_batch(3);
        let rb = b.run_batch(3);
        assert_eq!(ra.timing.pim_s(), rb.timing.pim_s());
        assert_eq!(ra.qps, rb.qps);
    }

    #[test]
    fn trace_faults_are_deterministic_and_detachable() {
        let build = || TraceRunner::build(spec(500_000), cfg(), PimArch::upmem_sc25(), 32);
        let mut clean = build();
        let base = clean.run_batch(5);
        assert!(!base.fault.active());

        let mut a = build();
        a.inject_faults(FaultConfig::uniform(0xBEEF, 0.12)).unwrap();
        let ra = a.run_batch(5);
        assert!(ra.fault.active());
        assert!(ra.fault.dead_dpus > 0, "12% fail-stop over 32 DPUs");
        // same seed, fresh runner: bit-identical report
        let mut b = build();
        b.inject_faults(FaultConfig::uniform(0xBEEF, 0.12)).unwrap();
        let rb = b.run_batch(5);
        assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        // recovery work is charged: the faulted batch is never cheaper on
        // energy than the clean one (retries + fallback add work; static
        // power runs for at least as long)
        assert!(
            ra.energy_j >= base.energy_j,
            "faulty {} vs clean {}",
            ra.energy_j,
            base.energy_j
        );
        // detaching restores the zero-fault report bit-for-bit
        a.clear_faults();
        let r2 = a.run_batch(5);
        assert_eq!(format!("{base:?}"), format!("{r2:?}"));
        // malformed configs are rejected, not installed
        let mut bad = FaultConfig::none();
        bad.straggler_rate = -1.0;
        assert!(a.inject_faults(bad).is_err());
    }

    #[test]
    fn rank_kill_in_a_trace_is_survivable_and_accounted() {
        let build = || TraceRunner::build(spec(500_000), cfg(), PimArch::upmem_sc25(), 32);
        // 32 DPUs in 4 ranks of 8; a 60% rank draw kills some but not all
        // ranks from batch 3 on.
        let rank_cfg = FaultConfig::rank_kill(0xD1, 0.6, 8, 3);
        let mut a = build();
        a.inject_faults(rank_cfg).unwrap();
        let before = a.run_batch(2);
        assert_eq!(before.fault.dead_ranks, 0, "kill gated on batch 3");
        let after = a.run_batch(5);
        assert!(after.fault.dead_ranks > 0, "some rank dies at 60%");
        assert!(after.fault.dead_ranks < 4, "not all ranks die at 60%");
        assert_eq!(after.fault.dead_dpus, after.fault.dead_ranks * 8);
        // the duplicated layout absorbs the loss: work lands on survivors,
        // nothing is dropped, and the run stays deterministic
        assert_eq!(after.fault.dropped_tasks, 0, "replicas cover dead ranks");
        assert_eq!(after.queries, 64);
        let mut b = build();
        b.inject_faults(rank_cfg).unwrap();
        b.run_batch(2);
        let rb = b.run_batch(5);
        assert_eq!(format!("{after:?}"), format!("{rb:?}"));
        assert!(after
            .summary()
            .contains(&format!("ranks={}", after.fault.dead_ranks)));
    }

    /// A wave's charge as one [`GroupCost::charge`] per `(query, cluster)`
    /// group: meter, lock statistics, push and gather bytes.
    fn charge_by_group(table: &ChargeTable<'_>, tasks: &[Task]) -> (DpuMeter, LockStats, u64, u64) {
        let mut meter = DpuMeter::new();
        let mut lock = LockStats::default();
        let mut push_bytes = 0;
        let mut order = Vec::new();
        let mut queries = std::collections::HashSet::new();
        for group in crate::sched::group_tasks(tasks, table.layout, &mut order) {
            queries.insert(group[0].0);
            push_bytes += table.cost.push_bytes(group.len());
            let lens = group
                .iter()
                .map(|&(_, _, si)| table.layout.slices[si].len as u64);
            let s = table.cost.charge(&mut meter, lens);
            lock.locked_updates += s.locked_updates;
            lock.pruned += s.pruned;
        }
        (meter, lock, push_bytes, queries.len() as u64 * table.k * 8)
    }

    #[test]
    fn charge_table_is_a_per_group_charge_fold() {
        let build = || TraceRunner::build(spec(500_000), cfg(), PimArch::upmem_sc25(), 32);
        for faults in [None, Some(FaultConfig::uniform(0xBEEF, 0.12))] {
            let mut runner = build();
            let mut plain = build();
            if let Some(f) = faults {
                runner.inject_faults(f).unwrap();
                plain.inject_faults(f).unwrap();
            }
            let rep = runner.run_batch_with(5, |table, who, tasks| {
                let out = table.charge(tasks);
                let (meter, lock, push_bytes, gather_bytes) = charge_by_group(table, tasks);
                assert_eq!(out.meter, meter, "{who:?}");
                assert_eq!(out.lock, lock, "{who:?}");
                assert_eq!(out.push_bytes, push_bytes, "{who:?}");
                assert_eq!(out.gather_bytes, gather_bytes, "{who:?}");
                out
            });
            assert_eq!(format!("{rep:?}"), format!("{:?}", plain.run_batch(5)));
            if faults.is_some() {
                // re-dispatched waves and the host replay went through it too
                assert!(
                    rep.fault.retried_tasks + rep.fault.hedged_tasks > 0,
                    "{:?}",
                    rep.fault
                );
                assert!(rep.fault.host_fallback_tasks > 0, "{:?}", rep.fault);
            }
        }
    }

    #[test]
    fn mean_qps_aggregates_batches() {
        let mut runner = TraceRunner::build(spec(200_000), cfg(), PimArch::upmem_sc25(), 16);
        let qps = runner.mean_qps(3);
        assert!(qps > 0.0);
    }
}
