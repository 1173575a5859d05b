//! Full-scale trace mode: run the *real* layout, scheduling and costing
//! machinery against statistical workload shapes — 100M to 1B points, 2,543
//! DPUs — without materializing a single vector.
//!
//! Rationale: the figures that depend on load distribution and
//! phase balance (paper Figs. 7–11, 13–15, Table 3) are functions of
//! *cluster sizes*, *query heat* and *per-operation costs*, none of which
//! require vector payloads. A runner is built from cluster descriptors
//! ([`TraceRunner::from_clusters`]) and deployed exactly as the functional
//! engine deploys its lists (`crate::deploy`); [`TraceRunner::build`] is
//! the synthetic front end, which samples cluster sizes from a Zipf
//! partition (k-means over natural data is uneven) and each query's probed
//! clusters from a Zipf heat law. A batch of probes — sampled, or a
//! functional engine's own ([`TraceRunner::run_probes`]) — runs the
//! engine's dispatch loop and books RC, LC and DC from the same charge
//! table; only TS differs, charged in closed form through
//! [`GroupCost::charge_slice`] instead of run (`tests/trace_identity.rs`
//! holds the two modes' RC/LC/DC meters equal).
//!
//! What a batch costs the host. No simulated number depends on it, but the
//! paper-scale sweeps run thousands of batches. One SIFT100M batch on
//! 2,543 DPUs (2,500 queries × nprobe 96: ≈ 240k tasks on 16,388 slices,
//! whose homes the scheduler scans ≈ 5.2M times), in ms on a 2-vCPU x86
//! host: each phase is the mean of 40 batches at seed 1 and the batch row
//! their median, each the median of five runs alternating between the two
//! builds. *Before*, every batch allocated its task list, the scheduler's
//! `(key, index)` pairs and destinations, the per-DPU lists and the
//! charge table's rows afresh (≈ 3,700 minor page faults a batch), and
//! grouped each DPU's tasks with a stable sort; *after*, a runner keeps
//! those buffers across batches (a steady-state batch faults no page in),
//! a task is 16 bytes, placement reads the LPT-ordered task list as it
//! stands and pushes each task straight onto its DPU's list, and grouping
//! sorts distinct keys.
//!
//! | phase                      | before | after |
//! |----------------------------|-------:|------:|
//! | sampling                   |    5.0 |   4.8 |
//! | expansion                  |    5.7 |   3.6 |
//! | charge table               |    1.1 |   1.1 |
//! | scheduling                 |   16.1 |  10.6 |
//! | waves (2 threads) + report |    4.7 |   4.4 |
//! | batch (median)             |   33.5 |  24.6 |
//!
//! Placement is ≈ 10 ms of the scheduling left: the coldest-home scan, ≈
//! 2 ns a home visit, bound by its loads of the DPUs' heat (a four-lane
//! minimum and a heap over a run of one slice's homes were tried and were
//! no faster), and the pushes onto the per-DPU lists. The same host ran
//! these batches up to ≈ 1.7× slower in its busy phases, so only
//! alternating runs compare.

use crate::config::{ConfigError, EngineConfig};
use crate::deploy::deploy;
use crate::dispatch::{self, ChargeTable, DpuOutput};
use crate::engine::BuildError;
use crate::kernels::{cl, GroupCost};
use crate::layout::{ClusterInfo, LayoutPlan, LayoutProfile};
use crate::perf_model::{BitWidths, WorkloadShape};
use crate::report::BatchReport;
use crate::sched::Task;
use crate::wram::WramPlacement;
use datasets::zipf::{zipf_partition, Discrete};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upmem_sim::fault::{FaultConfig, FaultInjector};
use upmem_sim::proc::ProcModel;
use upmem_sim::system::PimSystem;
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
    /// Probe distribution over clusters.
    probe_sampler: Discrete,
    /// The dispatch loop's per-batch buffers, reused across batches.
    dispatch: dispatch::Scratch,
    /// What the layout build decided and how long it took.
    layout_profile: LayoutProfile,
}

impl TraceRunner {
    /// [`Self::try_build`] for a deployment known to fit: panics where that
    /// returns an error.
    pub fn build(spec: TraceSpec, cfg: EngineConfig, arch: PimArch, ndpus: usize) -> TraceRunner {
        Self::try_build(spec, cfg, arch, ndpus)
            .unwrap_or_else(|e| panic!("trace deployment failed: {e}"))
    }

    /// The synthetic front end: sample cluster sizes and probe weights
    /// from `spec`, then deploy as [`Self::from_clusters`] does — an error
    /// for zero DPUs or a layout the DPUs' MRAM cannot hold.
    pub fn try_build(
        spec: TraceSpec,
        cfg: EngineConfig,
        arch: PimArch,
        ndpus: usize,
    ) -> Result<TraceRunner, BuildError> {
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
        Self::from_clusters(spec, cfg, arch, ndpus, &clusters)
    }

    /// A runner over cluster descriptors (descriptor `i` is cluster `i`),
    /// deployed as the engine deploys its own (`layout::heat::cluster_heat`
    /// over its list sizes). [`Self::sample_probes`] draws each cluster at
    /// its expected probes per query, `heat / points`. `spec` gives the
    /// workload shape and the sampling seed; its Zipf exponents go unread.
    /// An error if fewer clusters have positive heat than a query probes
    /// (`nprobe`, at most `nlist`): no query could draw that many distinct
    /// clusters.
    pub fn from_clusters(
        spec: TraceSpec,
        cfg: EngineConfig,
        arch: PimArch,
        ndpus: usize,
        clusters: &[ClusterInfo],
    ) -> Result<TraceRunner, BuildError> {
        let weights: Vec<f64> = clusters
            .iter()
            .map(|c| c.heat / c.points.max(1) as f64)
            .collect();
        let hot = weights.iter().filter(|&&w| w > 0.0).count();
        let nprobe = cfg.index.nprobe.min(cfg.index.nlist);
        if hot < nprobe {
            return Err(BuildError::SparseHeat { hot, nprobe });
        }
        let shape = WorkloadShape::new(
            spec.n_points,
            spec.batch,
            spec.dim,
            &cfg.index,
            BitWidths::u8_regime(),
        );
        let (layout, system, placement, layout_profile) =
            deploy(clusters, &cfg, arch, ndpus, &shape)?;
        Ok(TraceRunner {
            cfg,
            spec,
            layout,
            system,
            placement,
            host: upmem_sim::platform::procs::xeon_silver_4216(),
            shape,
            probe_sampler: Discrete::new(&weights),
            dispatch: dispatch::Scratch::default(),
            layout_profile,
        })
    }

    /// What the deployment's layout build decided and how long its steps
    /// took.
    pub fn layout_profile(&self) -> &LayoutProfile {
        &self.layout_profile
    }

    /// Sample the probed clusters of one batch of queries.
    pub fn sample_probes(&self, batch_seed: u64) -> Vec<Vec<u32>> {
        let nprobe = self.cfg.index.nprobe.min(self.cfg.index.nlist);
        let mut rng = StdRng::seed_from_u64(self.spec.seed ^ batch_seed.wrapping_mul(0x9E37));
        // `seen[c]`: the last query that drew cluster `c`, so a repeat
        // costs one load whatever `nprobe` is
        let mut seen = vec![u32::MAX; self.layout.cluster_slices.len()];
        (0..self.spec.batch as u32)
            .map(|q| {
                let mut probed = Vec::with_capacity(nprobe);
                while probed.len() < nprobe {
                    let c = self.probe_sampler.sample(&mut rng) as u32;
                    if seen[c as usize] != q {
                        seen[c as usize] = q;
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
    /// accounted). The batch's transient draws key on its `fault_batch`.
    pub fn inject_faults(&mut self, cfg: FaultConfig) -> Result<(), ConfigError> {
        self.system.fault = Some(FaultInjector::new(cfg)?);
        Ok(())
    }

    /// Detach the fault injector.
    pub fn clear_faults(&mut self) {
        self.system.fault = None;
    }

    /// Execute one sampled batch: [`Self::sample_probes`] at `batch_seed`,
    /// then [`Self::run_probes`] with the injector's draws keyed on it too.
    pub fn run_batch(&mut self, batch_seed: u64) -> BatchReport {
        let probes = self.sample_probes(batch_seed);
        self.run_probes(&probes, batch_seed)
    }

    /// Execute one batch of `probes` (per query: its probed clusters, as
    /// cluster locating returns them), the injector's transient draws keyed
    /// on `fault_batch`. The batch runs the functional engine's dispatch
    /// loop and charge table; a DPU's TS is the table's closed-form row.
    pub fn run_probes(&mut self, probes: &[Vec<u32>], fault_batch: u64) -> BatchReport {
        self.run_probes_with(probes, fault_batch, |table, _, tasks| {
            table.charge(tasks, |_, _, si, meter| table.ts_row(si, meter))
        })
    }

    /// [`Self::run_probes`] with the per-DPU wave output computed by `exec`
    /// from the batch's [`ChargeTable`].
    fn run_probes_with<E>(&mut self, probes: &[Vec<u32>], fault_batch: u64, exec: E) -> BatchReport
    where
        E: Fn(&ChargeTable<'_>, Option<usize>, &[Task]) -> DpuOutput + Sync,
    {
        // CL on host (blocked-GEMM model, same as the functional engine)
        let host_s = cl::host_cl_time(probes.len(), self.cfg.index.nlist, &self.shape, &self.host);

        // owns its cost table: the dispatch loop mutates `self.system`
        // while the charge closure runs
        let cost = GroupCost::new(&self.cfg, &self.system.arch, &self.placement, self.spec.dim);
        dispatch::run(
            &mut self.system,
            dispatch::Batch {
                probes,
                cl_host_s: host_s,
                cfg: &self.cfg,
                layout: &self.layout,
                host: &self.host,
                cost: &cost,
                fault_batch,
            },
            &mut self.dispatch,
            exec,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use upmem_sim::meter::DpuMeter;
    use upmem_sim::tasklet::LockStats;

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
    fn probes_match_a_scan_for_repeats() {
        let runner = TraceRunner::build(spec(100_000), cfg(), PimArch::upmem_sc25(), 16);
        let nprobe = runner.cfg.index.nprobe;
        for batch_seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            let mut rng = StdRng::seed_from_u64(runner.spec.seed ^ batch_seed.wrapping_mul(0x9E37));
            let want: Vec<Vec<u32>> = (0..runner.spec.batch)
                .map(|_| {
                    let mut probed = Vec::new();
                    while probed.len() < nprobe {
                        let c = runner.probe_sampler.sample(&mut rng) as u32;
                        if !probed.contains(&c) {
                            probed.push(c);
                        }
                    }
                    probed
                })
                .collect();
            assert_eq!(
                runner.sample_probes(batch_seed),
                want,
                "batch seed {batch_seed}"
            );
        }
    }

    #[test]
    fn too_few_hot_clusters_is_an_error() {
        // 2 of 8 clusters have heat and a query probes 4: sampling could
        // never finish a query
        let clusters: Vec<ClusterInfo> = (0..8)
            .map(|i| ClusterInfo {
                id: i,
                points: 1000,
                heat: if i < 2 { 10.0 } else { 0.0 },
            })
            .collect();
        let mut c = cfg();
        c.index.nlist = 8;
        c.index.nprobe = 4;
        let arch = PimArch::upmem_sc25();
        let err = TraceRunner::from_clusters(spec(8000), c.clone(), arch.clone(), 4, &clusters)
            .err()
            .expect("sparse heat must be rejected");
        assert!(
            matches!(err, BuildError::SparseHeat { hot: 2, nprobe: 4 }),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("only 2 clusters") && msg.contains("nprobe = 4"),
            "{msg}"
        );
        // as many hot clusters as probes is enough
        c.index.nprobe = 2;
        let mut runner = TraceRunner::from_clusters(spec(8000), c, arch, 4, &clusters).unwrap();
        assert_eq!(runner.run_batch(1).queries, 64);
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
    fn charge_by_group(
        table: &ChargeTable<'_>,
        layout: &LayoutPlan,
        tasks: &[Task],
    ) -> (DpuMeter, LockStats, u64, u64) {
        let k = table.cost.k as u64;
        let mut meter = DpuMeter::new();
        let mut lock = LockStats::default();
        let mut push_bytes = 0;
        let mut order = Vec::new();
        let mut queries = std::collections::HashSet::new();
        let cluster_of = |si: u32| layout.slices[si as usize].cluster;
        for group in crate::sched::group_tasks(tasks, cluster_of, &mut order) {
            queries.insert(group[0].0);
            push_bytes += table.cost.push_bytes(group.len());
            let lens = group
                .iter()
                .map(|&(_, _, si)| layout.slices[si as usize].len as u64);
            let s = table.cost.charge(&mut meter, lens);
            lock.locked_updates += s.locked_updates;
            lock.pruned += s.pruned;
        }
        (meter, lock, push_bytes, queries.len() as u64 * k * 8)
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
            let probes = runner.sample_probes(5);
            let layout = runner.layout.clone();
            let rep = runner.run_probes_with(&probes, 5, |table, who, tasks| {
                let out = table.charge(tasks, |_, _, si, meter| table.ts_row(si, meter));
                let (meter, lock, push_bytes, gather_bytes) =
                    charge_by_group(table, &layout, tasks);
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
    fn buffers_carried_between_batches_change_nothing() {
        // a tight th3, so that some work is postponed
        let mut tight = cfg();
        tight.th3 = 0.05;
        let build = || TraceRunner::build(spec(500_000), tight.clone(), PimArch::upmem_sc25(), 32);
        let faults = FaultConfig::uniform(0xBEEF, 0.12);
        let debug = |rep: BatchReport| format!("{rep:?}");
        let mut carried = build();

        // a faulted batch: postponed work, re-issued waves, a host replay
        carried.inject_faults(faults).unwrap();
        let rep = carried.run_batch(5);
        let redone = rep.fault.retried_tasks + rep.fault.hedged_tasks;
        assert!(rep.postponed > 0, "{rep:?}");
        assert!(
            redone > 0 && rep.fault.host_fallback_tasks > 0,
            "{:?}",
            rep.fault
        );
        let mut fresh = build();
        fresh.inject_faults(faults).unwrap();
        assert_eq!(debug(rep), debug(fresh.run_batch(5)));

        // clean batches at other seeds
        carried.clear_faults();
        for seed in [1, 9, 2] {
            let rep = carried.run_batch(seed);
            assert_eq!(debug(rep), debug(build().run_batch(seed)), "seed {seed}");
        }

        // far fewer queries than the batch before
        let few = &carried.sample_probes(3)[..3];
        let rep = carried.run_probes(few, 3);
        assert_eq!(rep.queries, 3);
        assert_eq!(debug(rep), debug(build().run_probes(few, 3)));

        // and batch 1 again
        assert_eq!(debug(carried.run_batch(1)), debug(build().run_batch(1)));
    }

    #[test]
    fn mean_qps_aggregates_batches() {
        let mut runner = TraceRunner::build(spec(200_000), cfg(), PimArch::upmem_sc25(), 16);
        let qps = runner.mean_qps(3);
        assert!(qps > 0.0);
    }
}
