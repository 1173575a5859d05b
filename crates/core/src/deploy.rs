//! Placing an index on the DPUs: the one deployment path of the functional
//! engine and trace mode, so a trace run and an engine run over the same
//! per-cluster `(points, heat)` descriptors place every slice copy on the
//! same DPU.

use crate::config::{EngineConfig, IndexConfig};
use crate::engine::BuildError;
use crate::kernels::GroupCost;
use crate::layout::{duplication, ClusterInfo, LayoutPlan, LayoutProfile};
use crate::perf_model::WorkloadShape;
use crate::wram::WramPlacement;
use upmem_sim::system::PimSystem;
use upmem_sim::PimArch;

/// What [`deploy`] returns: the layout, the simulated system, the WRAM plan
/// and the layout build's profile.
pub(crate) type Deployment = (LayoutPlan, PimSystem, WramPlacement, LayoutProfile);

/// MRAM bytes of one stored point: its PQ code and its `u32` id.
pub(crate) fn bytes_per_point(index: &IndexConfig) -> u64 {
    let code_bytes = if index.cb <= 256 { 1 } else { 2 };
    (index.m * code_bytes + 4) as u64
}

/// Place `clusters` on `ndpus` DPUs of `arch` under `cfg` for the workload
/// `shape`: the layout (partition, duplication, allocation), the
/// cross-rank post-pass when `cfg.ranks` is set, the layout's validation,
/// the simulated system with every DPU's MRAM accounted, the WRAM plan,
/// and the layout build's profile. Every DPU first reserves the quantized
/// codebooks and its share of the coarse centroids; the slices get the
/// rest of its MRAM.
pub(crate) fn deploy(
    clusters: &[ClusterInfo],
    cfg: &EngineConfig,
    arch: PimArch,
    ndpus: usize,
    shape: &WorkloadShape,
) -> Result<Deployment, BuildError> {
    // first, so zero DPUs or a broken architecture is an error before any
    // arithmetic below divides by them
    let mut system = PimSystem::try_new(arch, ndpus)?;
    system.tasklets = cfg.tasklets;
    let arch = &system.arch;
    let (m, cb, nlist) = (cfg.index.m, cfg.index.cb, cfg.index.nlist);
    let dim = shape.d as usize;
    let bytes_per_point = bytes_per_point(&cfg.index);
    let codebook_bytes = (m * cb * dim.div_ceil(m)) as u64;
    let centroid_bytes = dim as u64 * 4 * nlist as u64 / ndpus as u64;
    let mram_budget = arch
        .mram_bytes
        .saturating_sub(codebook_bytes + centroid_bytes);

    let heat = GroupCost::layout_heat(cfg, arch, shape, ndpus);
    let (mut layout, profile) =
        LayoutPlan::build(clusters, ndpus, cfg, bytes_per_point, mram_budget, |len| {
            heat(len) as f64
        });
    // Rank topology: the post-pass gives every slice a home on >= 2
    // distinct ranks (budget permitting), so a whole-rank fail-stop is
    // absorbed by replicas. Slices the budget could not cover stay
    // single-rank; the host fallback replays them at runtime.
    if let Some(ranks) = cfg.ranks {
        duplication::ensure_rank_coverage(
            &mut layout.slice_homes,
            &layout.slices,
            ndpus,
            ndpus.div_ceil(ranks),
            2,
            bytes_per_point,
            mram_budget,
        );
        layout.recompute_dpu_slices();
    }
    layout
        .validate(clusters)
        .map_err(BuildError::MramOverflow)?;

    let overflow = |e: upmem_sim::memory::CapacityError| BuildError::MramOverflow(e.to_string());
    for (dpu, bytes) in system
        .dpus
        .iter_mut()
        .zip(layout.dpu_bytes(bytes_per_point))
    {
        dpu.mram
            .alloc("codebooks", codebook_bytes)
            .map_err(overflow)?;
        dpu.mram.alloc("slices", bytes).map_err(overflow)?;
    }

    let local_clusters = layout.dpu_slices.first().map_or(0, Vec::len);
    let placement = crate::wram::plan_for(cfg, arch, shape, local_clusters, ndpus);
    Ok((layout, system, placement, profile))
}
