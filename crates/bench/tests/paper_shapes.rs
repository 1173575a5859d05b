//! The paper's *shape* claims, gated: which phases dominate, which way a
//! sweep moves them, who wins on energy, and which optimizations help.
//! Absolute values are not compared to the paper's (ROADMAP item 5); the
//! tolerances below are what the trace simulator must keep clearing.

use bench::experiments as ex;
use drim_ann::config::EngineConfig;
use drim_ann::dse::{self, ParamSpace};
use drim_ann::{BatchReport, Phase};
use upmem_sim::tasklet::LockPolicy;
use upmem_sim::PimArch;

/// Minimum LC + DC share of both the critical-DPU latency and the dynamic
/// DPU energy (paper Fig. 9 shows ~0.7–0.9; the floor leaves room for the
/// reduced-scale trace).
const LCDC_DOMINANCE_FLOOR: f64 = 0.60;

/// Per-point floor on DRIM-ANN's energy improvement over the modelled
/// Faiss-CPU: the PIM server must never *lose* on energy (Fig. 10's
/// qualitative claim — it wins despite higher power).
const ENERGY_IMPROVEMENT_FLOOR: f64 = 1.0;

/// Floor on the geomean improvement across both sweeps. The paper reports
/// ~2–3x; this simulator is conservative at large nlist, where host CL
/// grows and the CPU baseline's smaller clusters shrink its scan cost.
const ENERGY_IMPROVEMENT_GEOMEAN_FLOOR: f64 = 1.2;

/// Fig. 11b's band on actual / model-predicted throughput (the paper
/// measures 71.8–99.9 %). The ceiling is structural: `predict` books the
/// same charges as the trace on a perfectly balanced machine, so nothing
/// can beat it.
const MODEL_ACCURACY_BAND: std::ops::RangeInclusive<f64> = 0.70..=1.0;

/// The WRAM:MRAM bandwidth ratio (4.72x, Fig. 12b) bounds the buffer gain.
const BUFFER_SPEEDUP_CEILING: f64 = 5.0;

/// The DSE's accuracy constraint in Fig. 12a / Table 3.
const DSE_RECALL_FLOOR: f64 = 0.8;

/// The full DRIM-ANN configuration at the single point the on/off
/// comparisons share (nlist 2^13, nprobe 32).
fn drim() -> EngineConfig {
    EngineConfig::drim(ex::paper_index(1 << 13, 32))
}

/// PIM time of one quick-scale SIFT100M trace batch under `cfg`, with the
/// query heat re-skewed to Zipf(`heat_zipf`) when given.
fn quick_pim_s(heat_zipf: Option<f64>, cfg: EngineConfig) -> f64 {
    let mut desc = datasets::catalog::sift100m();
    if let Some(s) = heat_zipf {
        desc.zipf_s = s;
    }
    ex::drim_report(&desc, cfg, PimArch::upmem_sc25(), &ex::PaperScale::quick())
        .timing
        .pim_s()
}

fn lcdc_time(rep: &BatchReport) -> f64 {
    rep.fraction(Phase::Lc) + rep.fraction(Phase::Dc)
}

fn lcdc_energy(rep: &BatchReport) -> f64 {
    rep.energy.phase_fraction(Phase::Lc) + rep.energy.phase_fraction(Phase::Dc)
}

/// Figs. 9 and 10 over one run of the sweeps. The scale is the paper's
/// DPU count on purpose: Fig. 10's improvement is a *full-machine*
/// property — a scaled-down run stretches the batch while static power
/// still covers all 20 DIMMs (the machine cannot power-gate), which
/// overstates static energy ~10x.
#[test]
fn fig9_fig10_breakdown_and_energy_shapes() {
    let points = ex::sweep_points(&ex::PaperScale::default());
    let flat = upmem_sim::EnergyModel::for_arch(&PimArch::upmem_sc25());

    for p in &points {
        let (at, rep) = (format!("{} {}", p.sweep, p.value), &p.report);
        assert!(
            lcdc_time(rep) >= LCDC_DOMINANCE_FLOOR,
            "Fig. 9 at {at}: LC+DC is {:.3} of critical-DPU time",
            lcdc_time(rep)
        );
        assert!(
            lcdc_energy(rep) >= LCDC_DOMINANCE_FLOOR,
            "at {at}: LC+DC is {:.3} of dynamic DPU energy",
            lcdc_energy(rep)
        );
        assert!(
            p.cpu_j_10k / p.drim_j_10k >= ENERGY_IMPROVEMENT_FLOOR,
            "Fig. 10 at {at}: {:.0} J vs Faiss-CPU's {:.0} J",
            p.drim_j_10k,
            p.cpu_j_10k
        );

        // Accounting: the six components re-sum bit-exactly to the total,
        // which stays under every-DIMM-at-full-power P x t.
        let e = &rep.energy;
        let resum = e.dpu_pipeline_j
            + e.dpu_mram_j
            + e.dpu_wram_j
            + e.transfer_j
            + e.host_busy_j
            + e.static_j;
        assert_eq!(rep.energy_j.to_bits(), resum.to_bits(), "at {at}");
        assert!(
            rep.energy_j <= flat.energy_j(rep.timing.total_s()),
            "at {at}"
        );
    }

    // Fig. 9(b): the bottleneck migrates DC -> LC as nlist grows.
    let nlist: Vec<&BatchReport> = points
        .iter()
        .filter(|p| p.sweep == "nlist")
        .map(|p| &p.report)
        .collect();
    let (first, last) = (nlist[0], nlist[nlist.len() - 1]);
    assert!(last.fraction(Phase::Lc) > first.fraction(Phase::Lc));
    assert!(last.fraction(Phase::Dc) < first.fraction(Phase::Dc));

    let ratios: Vec<f64> = points.iter().map(|p| p.cpu_j_10k / p.drim_j_10k).collect();
    let geomean = upmem_sim::stats::geomean(&ratios);
    assert!(
        geomean >= ENERGY_IMPROVEMENT_GEOMEAN_FLOOR,
        "Fig. 10 geomean improvement {geomean:.2}"
    );
}

#[test]
fn fig11a_sqt_conversion_is_faster() {
    let on = quick_pim_s(
        None,
        EngineConfig {
            sqt: true,
            ..drim()
        },
    );
    let off = quick_pim_s(
        None,
        EngineConfig {
            sqt: false,
            ..drim()
        },
    );
    assert!(off > on, "SQT must help: {off} s without vs {on} s with");
}

#[test]
fn fig11b_every_point_lands_in_the_papers_model_accuracy_band() {
    let table = ex::fig11b(&ex::PaperScale::default());
    assert_eq!(table.rows.len(), 8, "two datasets x the nlist sweep");
    let outside: Vec<String> = table
        .rows
        .iter()
        .filter(|row| !MODEL_ACCURACY_BAND.contains(&row[4].parse::<f64>().unwrap()))
        .map(|row| format!("{} nlist {}: {}", row[0], row[1], row[4]))
        .collect();
    assert!(
        outside.is_empty(),
        "actual/ideal outside {MODEL_ACCURACY_BAND:?}: {outside:?}"
    );
}

#[test]
fn fig12_dse_meets_its_recall_floor_and_buffers_help_within_the_bandwidth_bound() {
    let desc = datasets::catalog::sift100m();
    let mut proxy = dse::ProxyAccuracy::for_dim(desc.dim);
    let res = dse::optimize(
        &ParamSpace::paper_default(),
        desc.n_full,
        desc.dim,
        ex::PaperScale::quick().batch,
        &PimArch::upmem_sc25(),
        &upmem_sim::platform::procs::xeon_silver_4216(),
        &mut proxy,
        DSE_RECALL_FLOOR,
    );
    assert!(res.best_recall >= DSE_RECALL_FLOOR, "{}", res.best_recall);

    let on = quick_pim_s(
        None,
        EngineConfig {
            wram_buffers: true,
            ..drim()
        },
    );
    let off = quick_pim_s(
        None,
        EngineConfig {
            wram_buffers: false,
            ..drim()
        },
    );
    let speedup = off / on;
    assert!(
        speedup > 1.0 && speedup < BUFFER_SPEEDUP_CEILING,
        "buffer speedup {speedup}"
    );
}

#[test]
fn fig13_load_balance_stack_beats_naive_under_hot_queries() {
    let naive = quick_pim_s(Some(1.4), EngineConfig::naive(drim().index));
    let full = quick_pim_s(Some(1.4), drim());
    assert!(naive > full, "balance must help: {naive} s vs {full} s");
}

#[test]
fn ablation_lock_pruning_never_hurts() {
    let forwarding = quick_pim_s(
        None,
        EngineConfig {
            lock_policy: LockPolicy::Forwarding,
            ..drim()
        },
    );
    let always = quick_pim_s(
        None,
        EngineConfig {
            lock_policy: LockPolicy::LockAlways,
            ..drim()
        },
    );
    assert!(always >= forwarding, "{always} s vs {forwarding} s");
}
