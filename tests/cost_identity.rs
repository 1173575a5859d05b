//! One statement of what DPU work costs, checked in one place.
//!
//! The kernels' `charge` functions, bound to a configuration by
//! `kernels::GroupCost`, have three consumers — trace mode's charges, the
//! scheduler's heat and `perf_model::predict`. Over architectures, SQT,
//! lock policies, WRAM buffers and index shapes this file holds them to
//! each other: (i) what the scheduler predicted for a DPU is, cycle for
//! cycle, what trace mode then charged it, and the split search's heat is
//! the scheduler's; (ii) `predict`'s phase times are
//! a uniformly loaded DPU's; (iii) `sched::task_cost_s` is the dispatch
//! loop's heat at the DRIM defaults.

use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::kernels::GroupCost;
use drim_ann::perf_model::{predict, BitWidths, WorkloadShape};
use drim_ann::sched::{self, Policy};
use drim_ann::trace::{TraceRunner, TraceSpec};
use drim_ann::Phase;
use upmem_sim::meter::DpuMeter;
use upmem_sim::tasklet::LockPolicy;
use upmem_sim::{IsaCosts, PimArch};

const NDPUS: usize = 16;
const NLIST: usize = 256;
const BATCH: usize = 32;
const NPROBE: usize = 4;
/// Points per cluster: `N / NLIST` exactly, so the model's `C` is integral.
const C: usize = 1500;

/// `(m, cb, dsub, k)`: the benchmark's shape, the paper's, and a small
/// odd one whose `k` is not a power of two.
const SHAPES: [(usize, usize, usize, usize); 3] =
    [(32, 256, 3, 10), (16, 256, 8, 10), (8, 64, 5, 3)];

/// Slice lengths heats are compared at.
const LENS: [usize; 5] = [0, 1, 31, 1560, 100_000];

/// `(sqt, lock policy, WRAM buffers)`; the first is `EngineConfig::drim`.
const TOGGLES: [(bool, LockPolicy, bool); 5] = [
    (true, LockPolicy::Forwarding, true),
    (true, LockPolicy::Forwarding, false),
    (true, LockPolicy::LockAlways, true),
    (false, LockPolicy::Forwarding, true),
    (false, LockPolicy::LockAlways, false),
];

/// Every `(architecture, engine configuration, workload shape)` of the
/// sweep. Clusters stay whole and nothing is postponed, so every task is
/// its own `(query, cluster)` group and one `schedule` call is the plan.
fn sweep() -> Vec<(PimArch, EngineConfig, WorkloadShape)> {
    let mut out = Vec::new();
    for costs in [IsaCosts::upmem(), IsaCosts::with_hw_multiplier()] {
        let mut arch = PimArch::upmem_sc25();
        arch.num_dpus = NDPUS;
        arch.costs = costs;
        for (m, cb, dsub, k) in SHAPES {
            let index = IndexConfig {
                k,
                nprobe: NPROBE,
                nlist: NLIST,
                m,
                cb,
            };
            let n = (C * NLIST) as u64;
            let shape = WorkloadShape::new(n, BATCH, m * dsub, &index, BitWidths::u8_regime());
            for (sqt, lock_policy, wram_buffers) in TOGGLES {
                let mut cfg = EngineConfig::drim(index);
                cfg.sqt = sqt;
                cfg.lock_policy = lock_policy;
                cfg.wram_buffers = wram_buffers;
                cfg.partition = false;
                cfg.th3 = f64::INFINITY;
                out.push((arch.clone(), cfg, shape));
            }
        }
    }
    out
}

#[test]
fn scheduler_heat_is_what_trace_mode_charges() {
    for (arch, cfg, shape) in sweep() {
        let dim = shape.d as usize;
        let spec = TraceSpec {
            name: "cost-identity".into(),
            n_points: shape.n_points as u64,
            dim,
            batch: BATCH,
            cluster_size_zipf: 0.35,
            heat_zipf: 0.9,
            seed: 7,
        };
        let mut runner = TraceRunner::build(spec, cfg.clone(), arch.clone(), NDPUS);
        runner.run_batch(3);

        let heat = GroupCost::new(&cfg, &arch, &runner.placement, dim).heat();
        // the layout's split search weighed its slices on this machine too
        let layout_heat = GroupCost::layout_heat(&cfg, &arch, &shape, NDPUS);
        assert_eq!(LENS.map(&layout_heat), LENS.map(&heat), "under {cfg:?}");
        let probes = runner.sample_probes(3);
        let seconds = |len| heat(len) as f64 / arch.freq_hz;
        let tasks = sched::expand_tasks(&probes, &runner.layout, seconds);
        let policy = Policy::Greedy { th3: cfg.th3 };
        let plan = sched::schedule(&tasks, &runner.layout, NDPUS, policy);
        assert_eq!(plan.scheduled(), BATCH * NPROBE, "none postponed");

        for (d, tasks) in plan.per_dpu.iter().enumerate() {
            let predicted: u64 = tasks
                .iter()
                .map(|t| heat(runner.layout.slices[t.slice as usize].len))
                .sum();
            let charged = runner.system.dpus[d].meter.total();
            assert_eq!(
                predicted,
                charged.compute_cycles(&arch.costs),
                "dpu {d} under {cfg:?} on {:?}",
                arch.costs
            );
            let seconds = predicted as f64 / arch.freq_hz;
            assert!((plan.heat[d] - seconds).abs() <= 1e-12 * seconds);
        }
    }
}

#[test]
fn predicted_phase_times_are_a_uniformly_loaded_dpus() {
    let host = upmem_sim::platform::procs::xeon_silver_4216();
    for (arch, cfg, shape) in sweep() {
        let model = predict(&shape, &cfg, &arch, &host);

        // a DPU's even share: Q x P / #PE groups of one C-point cluster
        let placement = drim_ann::wram::plan_for(&cfg, &arch, &shape, NLIST / NDPUS, NDPUS);
        let cost = GroupCost::new(&cfg, &arch, &placement, shape.d as usize);
        let mut meter = DpuMeter::new();
        for _ in 0..BATCH * NPROBE / NDPUS {
            cost.charge(&mut meter, [C as u64]);
        }
        let share = meter.phase_times(&arch, cfg.tasklets);
        let phases = [Phase::Rc, Phase::Lc, Phase::Dc, Phase::Ts];
        for (got, phase) in model.pim_phase_s.iter().zip(phases) {
            let want = share[phase.idx()];
            assert!(
                (got - want).abs() <= 1e-9 * want,
                "{phase:?}: model {got} vs share {want} under {cfg:?}"
            );
        }
    }
}

#[test]
fn task_cost_s_is_the_dispatch_heat_at_the_drim_defaults() {
    let defaults = |cfg: &EngineConfig| (cfg.sqt, cfg.lock_policy, cfg.wram_buffers) == TOGGLES[0];
    for (arch, cfg, shape) in sweep().into_iter().filter(|(_, cfg, _)| defaults(cfg)) {
        let IndexConfig { k, m, cb, .. } = cfg.index;
        let dim = shape.d as usize;
        let placement = drim_ann::wram::plan_for(&cfg, &arch, &shape, NLIST / NDPUS, NDPUS);
        let heat = GroupCost::new(&cfg, &arch, &placement, dim).heat();
        for len in LENS {
            let probe = sched::task_cost_s(len, m, cb, dim / m, k, true, &arch.costs, arch.freq_hz);
            let dispatch = heat(len) as f64 / arch.freq_hz;
            assert_eq!(probe, dispatch, "len {len} under {:?}", cfg.index);
        }
    }
}
