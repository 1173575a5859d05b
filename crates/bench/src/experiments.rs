//! One runner per paper experiment. Every function returns a [`Table`]
//! whose rows mirror the corresponding figure's series.

use crate::table::{f, i, Table};
use baselines::cpu::CpuModel;
use baselines::gpu::GpuModel;
use datasets::catalog;
use datasets::DatasetDescriptor;
use drim_ann::config::{AllocPolicy, DataBits, EngineConfig, IndexConfig, SchedPolicy};
use drim_ann::dse::{self, ParamSpace};
use drim_ann::perf_model::{predict, BitWidths, WorkloadShape};
use drim_ann::trace::{TraceRunner, TraceSpec};
use upmem_sim::platform::Platform;
use upmem_sim::stats::geomean;
use upmem_sim::tasklet::LockPolicy;
use upmem_sim::PimArch;

/// Harness scale knobs. `PaperScale::default()` balances fidelity and
/// runtime; `full()` matches the paper's 10,000-query batches exactly.
#[derive(Debug, Clone)]
pub struct PaperScale {
    /// Queries per batch.
    pub batch: usize,
    /// Batches averaged per datapoint.
    pub batches: usize,
    /// DPUs (paper: 2,543).
    pub ndpus: usize,
}

impl Default for PaperScale {
    fn default() -> Self {
        PaperScale {
            batch: 2000,
            batches: 2,
            ndpus: 2543,
        }
    }
}

impl PaperScale {
    /// The paper's exact scale (slower to simulate).
    pub fn full() -> Self {
        PaperScale {
            batch: 10_000,
            batches: 3,
            ndpus: 2543,
        }
    }

    /// A reduced scale for unit/CI runs.
    pub fn quick() -> Self {
        PaperScale {
            batch: 256,
            batches: 1,
            ndpus: 256,
        }
    }
}

/// The paper's end-to-end sweeps.
pub const NPROBE_SWEEP: [usize; 4] = [32, 64, 96, 128];
/// nlist values of the Fig. 7(b)/8(b)/9(b)/13 sweeps.
pub const NLIST_SWEEP: [usize; 4] = [1 << 13, 1 << 14, 1 << 15, 1 << 16];

/// The default index of Section 5.2 (cb = 256 "required by Faiss-CPU",
/// M = 16).
pub fn paper_index(nlist: usize, nprobe: usize) -> IndexConfig {
    IndexConfig {
        k: 10,
        nprobe,
        nlist,
        m: 16,
        cb: 256,
    }
}

/// DRIM-ANN trace-mode QPS for a dataset + config on an architecture.
pub fn drim_qps(
    desc: &DatasetDescriptor,
    cfg: EngineConfig,
    arch: PimArch,
    scale: &PaperScale,
) -> f64 {
    let mut spec = TraceSpec::for_dataset(desc, scale.batch);
    spec.heat_zipf = desc.zipf_s;
    let mut runner = TraceRunner::build(spec, cfg, arch, scale.ndpus);
    runner.mean_qps(scale.batches)
}

/// Trace run returning the last batch report (for breakdowns/energy).
pub fn drim_report(
    desc: &DatasetDescriptor,
    cfg: EngineConfig,
    arch: PimArch,
    scale: &PaperScale,
) -> drim_ann::BatchReport {
    let mut spec = TraceSpec::for_dataset(desc, scale.batch);
    spec.heat_zipf = desc.zipf_s;
    let mut runner = TraceRunner::build(spec, cfg, arch, scale.ndpus);
    runner.run_batch(1)
}

/// PIM time of one UPMEM trace batch ([`drim_report`]).
fn pim_s(desc: &DatasetDescriptor, cfg: EngineConfig, scale: &PaperScale) -> f64 {
    drim_report(desc, cfg, PimArch::upmem_sc25(), scale)
        .timing
        .pim_s()
}

/// Size-weighted effective mean cluster size factor: in-distribution
/// queries probe clusters proportionally to their point mass, so the
/// expected points scanned per probe is `E[p^2]/E[p] = factor x (N/nlist)`.
/// The trace simulator produces this effect naturally; the closed-form
/// CPU/GPU comparison models must apply the same factor or the comparison
/// silently favours whichever side models it.
pub fn effective_c_factor(desc: &DatasetDescriptor, nlist: usize) -> f64 {
    // probe weight ~ sqrt(points) (see drim_ann::trace): expected scan per
    // probe = sum(p^1.5) / sum(p^0.5); factor normalizes by N/nlist
    let sizes = datasets::zipf::zipf_partition(desc.n_full as usize, nlist, 0.35);
    let n: f64 = desc.n_full as f64;
    let sum_15: f64 = sizes.iter().map(|&p| (p as f64).powf(1.5)).sum();
    let sum_05: f64 = sizes.iter().map(|&p| (p as f64).sqrt()).sum();
    (sum_15 / sum_05) / (n / nlist as f64)
}

/// The workload shape the comparison platforms see (effective C applied).
pub fn comparison_shape(
    desc: &DatasetDescriptor,
    index: &IndexConfig,
    batch: usize,
    bits: BitWidths,
) -> WorkloadShape {
    let mut shape = WorkloadShape::new(desc.n_full, batch, desc.dim, index, bits);
    shape.c *= effective_c_factor(desc, index.nlist);
    shape
}

/// Faiss-CPU modelled QPS (paper baseline hardware) for a dataset + index.
pub fn faiss_cpu_qps(desc: &DatasetDescriptor, index: &IndexConfig, batch: usize) -> f64 {
    let shape = comparison_shape(desc, index, batch, BitWidths::f32_regime());
    CpuModel::xeon_gold_5218().qps(&shape)
}

/// Faiss-GPU modelled QPS; `None` on OOM.
pub fn faiss_gpu_qps(desc: &DatasetDescriptor, index: &IndexConfig, batch: usize) -> Option<f64> {
    let shape = comparison_shape(desc, index, batch, BitWidths::f32_regime());
    GpuModel::a100().qps(&shape, desc.raw_bytes())
}

/// Table 1: the dataset inventory.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: Large-scale ANNS datasets",
        &["Dataset", "Vectors", "Dim", "dtype", "Queries", "Raw GB"],
    );
    for d in catalog::table1() {
        t.row(vec![
            d.name.into(),
            format!("{:.0e}", d.n_full as f64).into(),
            d.dim.to_string().into(),
            format!("{:?}", d.dtype).into(),
            d.n_queries.to_string().into(),
            f(d.raw_bytes() as f64 / 1e9, 1),
        ]);
    }
    t
}

/// Fig. 2: roofline points for every platform x dataset.
pub fn fig2() -> Table {
    let mut t = Table::new(
        "Fig 2: Roofline analysis of ANNS (IVF-PQ, nlist=2^14, nprobe=96)",
        &[
            "Platform",
            "Dataset",
            "AI (ops/B)",
            "Attainable GOPS",
            "OOM",
        ],
    );
    for p in baselines::roofline::fig2_points() {
        t.row(vec![
            p.platform.into(),
            p.dataset.into(),
            f(p.intensity, 2),
            f(p.gops, 1),
            if p.oom { "x".into() } else { "".into() },
        ]);
    }
    t
}

/// Figs. 7/8: end-to-end QPS, DRIM-ANN vs Faiss-CPU, both sweeps.
pub fn fig7_8(desc: &DatasetDescriptor, scale: &PaperScale) -> Table {
    let mut t = Table::new(
        &format!(
            "Fig 7/8: End-to-end performance on {} (DRIM-ANN vs Faiss-CPU)",
            desc.name
        ),
        &["Sweep", "Value", "Faiss-CPU QPS", "DRIM-ANN QPS", "Speedup"],
    );
    let mut speedups = Vec::new();
    for &nprobe in &NPROBE_SWEEP {
        let index = paper_index(1 << 14, nprobe);
        let cpu = faiss_cpu_qps(desc, &index, scale.batch);
        let drim = drim_qps(
            desc,
            EngineConfig::drim(index),
            PimArch::upmem_sc25(),
            scale,
        );
        speedups.push(drim / cpu);
        t.row(vec![
            "nprobe".into(),
            nprobe.to_string().into(),
            i(cpu),
            i(drim),
            f(drim / cpu, 2),
        ]);
    }
    for &nlist in &NLIST_SWEEP {
        let index = paper_index(nlist, 96);
        let cpu = faiss_cpu_qps(desc, &index, scale.batch);
        let drim = drim_qps(
            desc,
            EngineConfig::drim(index),
            PimArch::upmem_sc25(),
            scale,
        );
        speedups.push(drim / cpu);
        t.row(vec![
            "nlist".into(),
            format!("2^{}", nlist.trailing_zeros()).into(),
            i(cpu),
            i(drim),
            f(drim / cpu, 2),
        ]);
    }
    t.row(vec![
        "geomean".into(),
        "".into(),
        "".into(),
        "".into(),
        f(geomean(&speedups), 2),
    ]);
    t
}

/// One point of the Fig. 9 / Fig. 10 sweeps on SIFT100M.
pub struct SweepPoint {
    /// Swept knob: `"nprobe"` (at nlist 2^14) or `"nlist"` (at nprobe 96).
    pub sweep: &'static str,
    /// The knob's value.
    pub value: usize,
    /// Trace-mode batch report at this point.
    pub report: drim_ann::BatchReport,
    /// Modelled Faiss-CPU energy, normalized to the paper's 10k-query batch.
    pub cpu_j_10k: f64,
    /// DRIM-ANN energy, normalized the same way.
    pub drim_j_10k: f64,
}

impl SweepPoint {
    /// The value as the figures print it (nlist as a power of two).
    fn label(&self) -> String {
        match self.sweep {
            "nlist" => format!("2^{}", self.value.trailing_zeros()),
            _ => self.value.to_string(),
        }
    }
}

/// The SIFT100M sweeps behind Figs. 9 and 10: [`NPROBE_SWEEP`] at nlist
/// 2^14, then [`NLIST_SWEEP`] at nprobe 96.
pub fn sweep_points(scale: &PaperScale) -> Vec<SweepPoint> {
    let desc = catalog::sift100m();
    let cpu = CpuModel::xeon_gold_5218();
    // scale both sides to the paper's 10k-query batch for J readability
    let norm = 10_000.0 / scale.batch as f64;
    let nprobes = NPROBE_SWEEP.iter().map(|&p| ("nprobe", p, 1 << 14, p));
    let nlists = NLIST_SWEEP.iter().map(|&l| ("nlist", l, l, 96));
    nprobes
        .chain(nlists)
        .map(|(sweep, value, nlist, nprobe)| {
            let index = paper_index(nlist, nprobe);
            let shape = comparison_shape(&desc, &index, scale.batch, BitWidths::f32_regime());
            let report = drim_report(
                &desc,
                EngineConfig::drim(index),
                PimArch::upmem_sc25(),
                scale,
            );
            SweepPoint {
                sweep,
                value,
                cpu_j_10k: cpu.energy_j(&shape) * norm,
                drim_j_10k: report.energy_j * norm,
                report,
            }
        })
        .collect()
}

/// Fig. 9: PIM latency breakdown by kernel.
pub fn fig9(scale: &PaperScale) -> Table {
    use drim_ann::Phase;
    let mut t = Table::new(
        "Fig 9: Performance breakdown on SIFT100M (fraction of PIM latency)",
        &["Sweep", "Value", "RC", "LC", "DC", "TS", "Others"],
    );
    for p in sweep_points(scale) {
        let rep = &p.report;
        t.row(vec![
            p.sweep.into(),
            p.label().into(),
            f(rep.fraction(Phase::Rc), 3),
            f(rep.fraction(Phase::Lc), 3),
            f(rep.fraction(Phase::Dc), 3),
            f(rep.fraction(Phase::Ts), 3),
            f(rep.fraction(Phase::Cl) + rep.fraction(Phase::Other), 3),
        ]);
    }
    t
}

/// Fig. 10: energy per batch, DRIM-ANN vs Faiss-CPU.
pub fn fig10(scale: &PaperScale) -> Table {
    let mut t = Table::new(
        "Fig 10: Energy on SIFT100M (J per 10k-query batch)",
        &["Sweep", "Value", "Faiss-CPU J", "DRIM-ANN J", "Improvement"],
    );
    let mut ratios = Vec::new();
    for p in sweep_points(scale) {
        ratios.push(p.cpu_j_10k / p.drim_j_10k);
        t.row(vec![
            p.sweep.into(),
            p.label().into(),
            f(p.cpu_j_10k, 0),
            f(p.drim_j_10k, 0),
            f(p.cpu_j_10k / p.drim_j_10k, 2),
        ]);
    }
    t.row(vec![
        "geomean".into(),
        "".into(),
        "".into(),
        "".into(),
        f(geomean(&ratios), 2),
    ]);
    t
}

/// Fig. 11a: multiplier-less (SQT) conversion speedup.
pub fn fig11a(scale: &PaperScale) -> Table {
    let mut t = Table::new(
        "Fig 11a: Speedup of multiplier-less ANNS conversion (nlist=2^16)",
        &["Dataset", "nprobe", "LC speedup", "Overall speedup"],
    );
    for desc in [catalog::sift100m(), catalog::deep100m()] {
        for &nprobe in &NPROBE_SWEEP {
            let index = paper_index(1 << 16, nprobe);
            let mut on = EngineConfig::drim(index);
            on.sqt = true;
            let mut off = EngineConfig::drim(index);
            off.sqt = false;
            let rep_on = drim_report(&desc, on, PimArch::upmem_sc25(), scale);
            let rep_off = drim_report(&desc, off, PimArch::upmem_sc25(), scale);
            use drim_ann::Phase;
            let lc_on = rep_on.timing.phase_s[Phase::Lc.idx()];
            let lc_off = rep_off.timing.phase_s[Phase::Lc.idx()];
            t.row(vec![
                desc.name.into(),
                nprobe.to_string().into(),
                f(lc_off / lc_on.max(1e-12), 2),
                f(rep_off.timing.pim_s() / rep_on.timing.pim_s().max(1e-12), 2),
            ]);
        }
    }
    t
}

/// Fig. 11b: actual vs model-predicted throughput.
pub fn fig11b(scale: &PaperScale) -> Table {
    let host = upmem_sim::platform::procs::xeon_silver_4216();
    let mut t = Table::new(
        "Fig 11b: Actual vs predicted performance (trace sim / Eq.1-12 model)",
        &[
            "Dataset",
            "nlist",
            "Ideal QPS",
            "Actual QPS",
            "Actual/Ideal",
        ],
    );
    for desc in [catalog::sift100m(), catalog::deep100m()] {
        for &nlist in &NLIST_SWEEP {
            let index = paper_index(nlist, 96);
            let shape = comparison_shape(&desc, &index, scale.batch, BitWidths::u8_regime());
            // the model must describe the machine the trace instantiates
            let cfg = EngineConfig::drim(index);
            let mut arch = PimArch::upmem_sc25();
            arch.num_dpus = scale.ndpus;
            let ideal = predict(&shape, &cfg, &arch, &host).qps;
            let actual = drim_qps(&desc, cfg, arch, scale);
            t.row(vec![
                desc.name.into(),
                format!("2^{}", nlist.trailing_zeros()).into(),
                i(ideal),
                i(actual),
                f(actual / ideal, 3),
            ]);
        }
    }
    t
}

/// Fig. 12a: throughput under varying accuracy constraints (DSE per
/// constraint, normalized to the empirical Fig. 7 optimum).
pub fn fig12a(scale: &PaperScale) -> Table {
    let mut t = Table::new(
        "Fig 12a: Accuracy/performance trade-off (normalized throughput)",
        &["Dataset", "recall@10 floor", "Best QPS", "Normalized"],
    );
    for desc in [
        catalog::sift100m(),
        catalog::deep100m(),
        catalog::spacev100m(),
    ] {
        // reference: the empirically-selected Fig. 7 configuration
        let ref_qps = drim_qps(
            &desc,
            EngineConfig::drim(paper_index(1 << 14, 96)),
            PimArch::upmem_sc25(),
            scale,
        );
        for floor in [0.65, 0.70, 0.75, 0.80] {
            let mut proxy = dse::ProxyAccuracy::for_dim(desc.dim);
            let res = dse::optimize(
                &ParamSpace::paper_default(),
                desc.n_full,
                desc.dim,
                scale.batch,
                &PimArch::upmem_sc25(),
                &upmem_sim::platform::procs::xeon_silver_4216(),
                &mut proxy,
                floor,
            );
            let qps = drim_qps(
                &desc,
                EngineConfig::drim(res.best),
                PimArch::upmem_sc25(),
                scale,
            );
            t.row(vec![
                desc.name.into(),
                f(floor, 2),
                i(qps),
                f(qps / ref_qps, 2),
            ]);
        }
    }
    t
}

/// Fig. 12b: WRAM buffer optimization speedup.
pub fn fig12b(scale: &PaperScale) -> Table {
    let mut t = Table::new(
        "Fig 12b: Buffer (WRAM) optimization speedup (bound: 4.72x)",
        &["Dataset", "nprobe", "Speedup"],
    );
    let mut per_ds: Vec<(String, Vec<f64>)> = Vec::new();
    for desc in [catalog::sift100m(), catalog::deep100m()] {
        let mut sp = Vec::new();
        for &nprobe in &NPROBE_SWEEP {
            let index = paper_index(1 << 14, nprobe);
            let mut on = EngineConfig::drim(index);
            on.wram_buffers = true;
            let mut off = EngineConfig::drim(index);
            off.wram_buffers = false;
            let s = pim_s(&desc, off, scale) / pim_s(&desc, on, scale).max(1e-12);
            sp.push(s);
            t.row(vec![desc.name.into(), nprobe.to_string().into(), f(s, 2)]);
        }
        per_ds.push((desc.name.to_string(), sp));
    }
    for (name, sp) in per_ds {
        t.row(vec![name.into(), "geomean".into(), f(geomean(&sp), 2)]);
    }
    t
}

/// The load-balance figures run the paper's own (near-uniform) query sets:
/// the imbalance they quantify comes from the *cluster-size* distribution,
/// amplified by moderate query heat — not from adversarial hot-topic
/// traffic (that regime lives in `tests/load_balance.rs`).
fn skewed(desc: &DatasetDescriptor) -> DatasetDescriptor {
    let mut d = desc.clone();
    d.zipf_s = 0.8;
    d
}

/// Fig. 13: load-balance optimization speedups vs nlist.
///
/// The baselines toggle *only* the balance machinery (partition,
/// duplication, allocation, scheduling); SQT, WRAM buffers and lock
/// pruning stay on everywhere so the ratio isolates load balance, as the
/// paper's "imbalanced version" comparison does.
pub fn fig13(scale: &PaperScale) -> Table {
    let mut t = Table::new(
        "Fig 13: Load-balance speedup under skewed queries",
        &["Dataset", "nlist", "Overall speedup", "Allocation speedup"],
    );
    for desc in [catalog::sift100m(), catalog::deep100m()] {
        let desc = skewed(&desc);
        for &nlist in &NLIST_SWEEP {
            let index = paper_index(nlist, 96);
            let mut naive = EngineConfig::drim(index);
            naive.partition = false;
            naive.duplication = false;
            naive.allocation = AllocPolicy::RoundRobin;
            naive.scheduling = SchedPolicy::Static;
            let full = EngineConfig::drim(index);
            // Fig 13b reading: allocation's contribution with the rest of
            // the stack active — full stack vs full stack with heat-balanced
            // allocation replaced by round-robin placement
            let mut full_rr = EngineConfig::drim(index);
            full_rr.allocation = AllocPolicy::RoundRobin;
            let t_naive = pim_s(&desc, naive, scale);
            let t_full_rr = pim_s(&desc, full_rr, scale);
            let t_full = pim_s(&desc, full, scale);
            t.row(vec![
                desc.name.into(),
                format!("2^{}", nlist.trailing_zeros()).into(),
                f(t_naive / t_full.max(1e-12), 2),
                f(t_full_rr / t_full.max(1e-12), 2),
            ]);
        }
    }
    t
}

/// Fig. 14a: partition speedup vs split granularity.
pub fn fig14a(scale: &PaperScale) -> Table {
    let desc = skewed(&catalog::sift100m());
    let mut t = Table::new(
        "Fig 14a: Cluster partition speedup vs split granularity (nlist=2^13)",
        &["Granularity (x10^4 pts)", "Speedup vs no-split"],
    );
    let index = paper_index(1 << 13, 96); // C ~ 12k: big clusters worth splitting
    let mut base = EngineConfig::naive(index);
    base.allocation = AllocPolicy::HeatBalanced;
    base.scheduling = SchedPolicy::Greedy;
    let t_nosplit = pim_s(&desc, base.clone(), scale);
    for gran in [10_000usize, 15_000, 20_000, 25_000, 30_000, 35_000, 40_000] {
        let mut cfg = base.clone();
        cfg.partition = true;
        cfg.split_granularity = Some(gran);
        let tt = pim_s(&desc, cfg, scale);
        t.row(vec![
            f(gran as f64 / 1e4, 1),
            f(t_nosplit / tt.max(1e-12), 2),
        ]);
    }
    t
}

/// Fig. 14b: duplication speedup vs extra footprint per DPU.
pub fn fig14b(scale: &PaperScale) -> Table {
    let desc = skewed(&catalog::sift100m());
    let mut t = Table::new(
        "Fig 14b: Cluster duplication speedup vs extra footprint per DPU",
        &["Extra MB/DPU", "Speedup vs no-dup"],
    );
    let index = paper_index(1 << 14, 96);
    let mut base = EngineConfig::drim(index);
    base.duplication = false;
    let t_nodup = pim_s(&desc, base.clone(), scale);
    for kb in [16u64, 32, 64, 128, 256, 512] {
        let mut cfg = base.clone();
        cfg.duplication = true;
        cfg.dup_budget_bytes = Some(kb << 10);
        let tt = pim_s(&desc, cfg, scale);
        t.row(vec![
            f(kb as f64 / 1024.0, 3),
            f(t_nodup / tt.max(1e-12), 2),
        ]);
    }
    t
}

/// Fig. 15: scaling DRIM-ANN to HBM-PIM and AiM, vs CPU and GPU.
pub fn fig15(scale: &PaperScale) -> Table {
    let desc = catalog::sift100m();
    let mut t = Table::new(
        "Fig 15: DRIM-ANN on UPMEM / HBM-PIM / AiM over Faiss-CPU and Faiss-GPU (SIFT100M)",
        &["Platform", "nlist", "QPS", "vs Faiss-CPU", "vs Faiss-GPU"],
    );
    for platform in Platform::ALL {
        for &nlist in &[1usize << 13, 1 << 14, 1 << 15] {
            let index = paper_index(nlist, 96);
            let cpu = faiss_cpu_qps(&desc, &index, scale.batch);
            let gpu = faiss_gpu_qps(&desc, &index, scale.batch).unwrap_or(f64::NAN);
            // NaN where the platform's memory cannot hold the index on
            // `scale.ndpus` units (HBM-PIM's 6 MiB PUs at the quick scale)
            let mut spec = TraceSpec::for_dataset(&desc, scale.batch);
            spec.heat_zipf = desc.zipf_s;
            let cfg = EngineConfig::drim(index);
            let qps = TraceRunner::try_build(spec, cfg, platform.arch(), scale.ndpus)
                .map_or(f64::NAN, |mut r| r.mean_qps(scale.batches));
            t.row(vec![
                platform.name().into(),
                format!("2^{}", nlist.trailing_zeros()).into(),
                i(qps),
                f(qps / cpu, 2),
                f(qps / gpu, 2),
            ]);
        }
    }
    t
}

/// Ablations beyond the paper's figures: lock policy, tasklet count,
/// operand width, allocation and scheduling policy, each toggled in
/// isolation on the SIFT100M trace.
pub fn ablations(scale: &PaperScale) -> Table {
    let desc = catalog::sift100m();
    let base = EngineConfig::drim(paper_index(1 << 14, 96));
    let t_base = pim_s(&desc, base.clone(), scale);

    let mut t = Table::new(
        "Ablations (SIFT100M, nlist=2^14, nprobe=96): slowdown vs full DRIM-ANN",
        &["Variant", "PIM time ratio"],
    );
    t.row(vec!["full DRIM-ANN".into(), f(1.0, 2)]);
    type Edit = fn(&mut EngineConfig);
    let variants: [(&str, Edit); 6] = [
        ("lock every TS candidate", |c| {
            c.lock_policy = LockPolicy::LockAlways
        }),
        ("1 tasklets (pipeline starved)", |c| c.tasklets = 1),
        ("8 tasklets (pipeline starved)", |c| c.tasklets = 8),
        ("16-bit operands (SQT window spills)", |c| {
            c.bits = DataBits::B16
        }),
        ("round-robin allocation", |c| {
            c.allocation = AllocPolicy::RoundRobin
        }),
        ("static scheduling", |c| c.scheduling = SchedPolicy::Static),
    ];
    for (name, edit) in variants {
        let mut cfg = base.clone();
        edit(&mut cfg);
        t.row(vec![name.into(), f(pim_s(&desc, cfg, scale) / t_base, 2)]);
    }
    t
}

/// Table 3: comparison with MemANNS on SIFT1B.
pub fn table3(scale: &PaperScale) -> Table {
    let desc = catalog::sift1b();
    let ndpus = 1018; // the paper's comparison point
    let mut t = Table::new(
        "Table 3: Comparison with MemANNS on SIFT1B",
        &["System", "#DPUs", "QPS"],
    );
    let mem = baselines::memanns::sift1b_reported();
    t.row(vec![
        "MemANNS (reported)".into(),
        mem.dpus.to_string().into(),
        i(mem.qps),
    ]);
    t.row(vec![
        "MemANNS (linear-scaled)".into(),
        ndpus.to_string().into(),
        i(mem.scaled_to(ndpus)),
    ]);

    let mut s = scale.clone();
    s.ndpus = ndpus;
    // without DSE: the Faiss-compatible default index
    let no_dse = drim_qps(
        &desc,
        EngineConfig::drim(paper_index(1 << 14, 96)),
        PimArch::upmem_sc25(),
        &s,
    );
    t.row(vec![
        "DRIM-ANN (without DSE)".into(),
        ndpus.to_string().into(),
        i(no_dse),
    ]);

    // with DSE under the recall@10 >= 0.8 constraint
    let mut proxy = dse::ProxyAccuracy::for_dim(desc.dim);
    let res = dse::optimize(
        &ParamSpace::paper_default(),
        desc.n_full,
        desc.dim,
        s.batch,
        &PimArch::upmem_sc25(),
        &upmem_sim::platform::procs::xeon_silver_4216(),
        &mut proxy,
        0.8,
    );
    let with_dse = drim_qps(
        &desc,
        EngineConfig::drim(res.best),
        PimArch::upmem_sc25(),
        &s,
    );
    t.row(vec![
        format!(
            "DRIM-ANN (DSE: P={} nlist=2^{} M={} CB={})",
            res.best.nprobe,
            res.best.nlist.trailing_zeros(),
            res.best.m,
            res.best.cb
        )
        .into(),
        ndpus.to_string().into(),
        i(with_dse),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PaperScale {
        PaperScale::quick()
    }

    #[test]
    fn table1_has_six_datasets() {
        assert_eq!(table1().rows.len(), 6);
    }

    #[test]
    fn fig2_has_all_points() {
        assert_eq!(fig2().rows.len(), 36);
    }

    #[test]
    fn fig7_rows_and_speedups_positive() {
        let t = fig7_8(&catalog::sift100m(), &quick());
        assert_eq!(t.rows.len(), 9); // 4 + 4 + geomean
        for row in &t.rows[..8] {
            let speedup: f64 = row[4].value().unwrap();
            assert!(speedup > 0.0);
        }
    }

    #[test]
    fn fig9_fractions_are_fractions() {
        let t = fig9(&quick());
        for row in &t.rows {
            let total: f64 = row[2..].iter().map(|c| c.value().unwrap()).sum();
            assert!((total - 1.0).abs() < 0.02, "row {row:?} sums to {total}");
        }
    }

    #[test]
    fn table3_has_four_rows() {
        let t = table3(&quick());
        assert_eq!(t.rows.len(), 4);
    }
}
