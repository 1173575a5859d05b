//! The analytic ANNS performance model — paper Equations 1–13.
//!
//! The paper gives the model three roles and one set of equations. Here
//! the equations have one executable statement — the DPU kernels' `charge`
//! functions, bound to a configuration by [`crate::kernels::GroupCost`] —
//! and each role is a call into it:
//!
//! 1. **surrogate for the design-space exploration** (Section 4):
//!    [`predict`], which charges a perfectly balanced DPU's share of the
//!    batch through [`GroupCost::charge`](crate::kernels::GroupCost::charge)
//!    and reads phase times off the meter's Eq. 12 overlap law
//!    `t_x = max(C_x / (F * #PE), IO_x / BW_x)`;
//! 2. **heat estimator for the runtime scheduler** (Section 3.3):
//!    [`GroupCost::heat`](crate::kernels::GroupCost::heat), the compute
//!    cycles those same charges book per task (see [`crate::sched`]);
//! 3. **validation target for the simulator** (Fig. 11b: the real engine
//!    reaches 71.8–99.9 % of the model's prediction): [`predict`] again —
//!    trace mode books its batches with the same method, so what separates
//!    the two is load imbalance and scheduling, the effects Fig. 11b
//!    quantifies (`tests/model_vs_sim.rs`).
//!
//! [`WorkloadShape`] keeps the paper's platform-neutral counts `C_x` and
//! `IO_x` (Eq. 1–11) as closed forms in the index parameters
//! `(K, P, C, M, CB)` and the dataset shape `(N, Q, D, B_*)`: the CPU/GPU
//! baselines, the roofline (Fig. 2) and the WRAM planner read those.
//!
//! Notation note: the paper's Table 2 glosses `N` as "the amount of clusters
//! on a PU", but Eq. 1 multiplies `Q x N/C`, which only types as *points /
//! mean-cluster-size = clusters*. We therefore take `N` = points per PU and
//! document the deviation. Similarly Eq. 6's `dist(M) x D/M` is implemented
//! as `M x dist(D/M)` (cost of `M` sub-distances of dimension `D/M`); the
//! two agree to within `O(M - D)` out of `~3D` operations.

use crate::config::EngineConfig;
use crate::kernels::{cl, GroupCost};
use upmem_sim::meter::{DpuMeter, Phase};
use upmem_sim::proc::ProcModel;
use upmem_sim::system::BatchTiming;
use upmem_sim::{HostLink, PimArch};

/// Element byte-widths of the paper's Table 2 (`B_c`, `B_q`, ...).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitWidths {
    /// Centroid element bytes.
    pub b_c: f64,
    /// Query element bytes.
    pub b_q: f64,
    /// Point (code) element bytes.
    pub b_p: f64,
    /// Codebook element bytes.
    pub b_cb: f64,
    /// LUT entry bytes.
    pub b_l: f64,
    /// Address/id bytes.
    pub b_a: f64,
}

impl BitWidths {
    /// The 8-bit PIM regime: u8 data, u32 LUT entries, u32 ids.
    pub fn u8_regime() -> Self {
        BitWidths {
            b_c: 1.0,
            b_q: 1.0,
            b_p: 1.0,
            b_cb: 1.0,
            b_l: 4.0,
            b_a: 4.0,
        }
    }

    /// The f32 CPU regime (Faiss baseline).
    pub fn f32_regime() -> Self {
        BitWidths {
            b_c: 4.0,
            b_q: 4.0,
            b_p: 1.0,
            b_cb: 4.0,
            b_l: 4.0,
            b_a: 4.0,
        }
    }
}

/// Workload shape: everything Equations 1–11 need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadShape {
    /// Total points indexed (`N` summed over PUs).
    pub n_points: f64,
    /// Queries per batch (`Q` total).
    pub q: f64,
    /// Vector dimension `D`.
    pub d: f64,
    /// Neighbors per query `K`.
    pub k: f64,
    /// Probed clusters per query `P`.
    pub p: f64,
    /// Mean cluster population `C`.
    pub c: f64,
    /// Sub-quantizers `M`.
    pub m: f64,
    /// Codebook entries `CB`.
    pub cb: f64,
    /// Byte widths.
    pub bits: BitWidths,
}

impl WorkloadShape {
    /// Shape from index parameters over a corpus of `n` points.
    pub fn new(
        n: u64,
        q: usize,
        d: usize,
        cfg: &crate::config::IndexConfig,
        bits: BitWidths,
    ) -> Self {
        WorkloadShape {
            n_points: n as f64,
            q: q as f64,
            d: d as f64,
            k: cfg.k as f64,
            p: cfg.nprobe as f64,
            c: n as f64 / cfg.nlist as f64,
            m: cfg.m as f64,
            cb: cfg.cb as f64,
            bits,
        }
    }

    /// `dist(X)`: operation count of an X-dimensional squared-L2 distance —
    /// per element one subtract, one multiply(-equivalent), one accumulate
    /// (paper Eq. 2: `3X - 1`).
    pub fn dist_ops(x: f64) -> f64 {
        (3.0 * x - 1.0).max(1.0)
    }

    /// Eq. 1: CL compute — query vs. every centroid (`N/C` of them) plus a
    /// `log P` priority-queue update.
    pub fn c_cl(&self) -> f64 {
        self.q
            * (self.n_points / self.c)
            * (Self::dist_ops(self.d) + (self.p.log2() - 1.0).max(0.0))
    }

    /// Eq. 3: CL traffic — centroids + queries + the size-`log P + 1`
    /// priority queue.
    pub fn io_cl(&self) -> f64 {
        self.q
            * (self.n_points / self.c)
            * ((self.bits.b_c + self.bits.b_q) * self.d
                + (self.bits.b_l + self.bits.b_a) * (self.p.log2() + 1.0))
    }

    /// Eq. 4: RC compute — one subtraction per dimension per probed cluster.
    pub fn c_rc(&self) -> f64 {
        self.q * self.p * self.d
    }

    /// Eq. 5: RC traffic.
    pub fn io_rc(&self) -> f64 {
        (self.bits.b_c + self.bits.b_q) * self.q * self.p * self.d
    }

    /// Eq. 6 (with the `M x dist(D/M)` reading): LC compute — distance from
    /// each residual sub-vector to each of `CB` codebook entries.
    pub fn c_lc(&self) -> f64 {
        self.q * self.p * self.cb * self.m * Self::dist_ops(self.d / self.m)
    }

    /// Eq. 7: LC traffic — per probed cluster, the full codebook
    /// (`CB x D` elements) and the residual stream through the kernel, and
    /// `CB x M` LUT entries are written back. Implemented as written in the
    /// paper: `Q x P x CB x ((B_cb + B_q) x D + B_l x M)`; the `B_q` term
    /// re-charges the residual per codebook entry, matching the naive
    /// streaming kernel the model describes.
    pub fn io_lc(&self) -> f64 {
        self.q
            * self.p
            * self.cb
            * ((self.bits.b_cb + self.bits.b_q) * self.d + self.bits.b_l * self.m)
    }

    /// Eq. 8: DC compute — `M - 1` additions per scanned point.
    pub fn c_dc(&self) -> f64 {
        self.q * self.p * self.c * (self.m - 1.0).max(1.0)
    }

    /// Eq. 9: DC traffic — codes + gathered LUT entries per point.
    pub fn io_dc(&self) -> f64 {
        self.q * self.p * self.c * ((self.bits.b_a + self.bits.b_l) * self.m + self.bits.b_l)
    }

    /// Eq. 10: TS compute — `log K` priority-queue work per candidate.
    pub fn c_ts(&self) -> f64 {
        self.q * self.p * self.c * (self.k.log2() - 1.0).max(1.0)
    }

    /// Eq. 11: TS traffic.
    pub fn io_ts(&self) -> f64 {
        (self.bits.b_l + self.bits.b_a) * self.q * self.p * self.c * (self.k.log2() + 1.0)
    }

    /// Eq. 13: compute-to-I/O ratio per phase.
    pub fn c2io(&self, phase: crate::Phase) -> f64 {
        use crate::Phase;
        let (c, io) = match phase {
            Phase::Cl => (self.c_cl(), self.io_cl()),
            Phase::Rc => (self.c_rc(), self.io_rc()),
            Phase::Lc => (self.c_lc(), self.io_lc()),
            Phase::Dc => (self.c_dc(), self.io_dc()),
            Phase::Ts => (self.c_ts(), self.io_ts()),
            Phase::Other => (0.0, 1.0),
        };
        c / io.max(1e-12)
    }

    /// Total arithmetic intensity (ops/byte) over all five phases — the
    /// x-axis of the paper's roofline (Fig. 2).
    pub fn arithmetic_intensity(&self) -> f64 {
        let ops = self.c_cl() + (self.c_rc() + self.c_lc() + self.c_dc() + self.c_ts());
        let bytes = self.io_cl() + (self.io_rc() + self.io_lc() + self.io_dc() + self.io_ts());
        ops / bytes.max(1e-12)
    }
}

/// Model-predicted batch execution on a host + PIM split.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Host time (CL), seconds.
    pub host_s: f64,
    /// Per-phase PIM times `[RC, LC, DC, TS]`, seconds.
    pub pim_phase_s: [f64; 4],
    /// Total batch time (host/PIM overlapped), seconds.
    pub total_s: f64,
    /// Predicted queries per second.
    pub qps: f64,
}

impl Prediction {
    /// The PIM-side sum.
    pub fn pim_s(&self) -> f64 {
        self.pim_phase_s.iter().sum()
    }
}

/// The performance model: CL on the host, RC/LC/DC/TS on the PIM, perfectly
/// balanced across `arch.num_dpus` DPUs (the *ideal* the layout optimizer
/// approaches), for the engine configuration `cfg`.
///
/// `shape` is the workload: `Q`, `D`, and the mean scanned cluster
/// population `C` — which callers may scale when probes favour large
/// clusters. The batch is `Q x P` groups of one `C`-point slice each; the
/// charges are linear, so the whole batch is booked into one meter and a
/// balanced DPU takes `1 / #PE` of each phase's Eq. 12 time. `C` is rounded
/// to whole points, the model's only round-off.
pub fn predict(
    shape: &WorkloadShape,
    cfg: &EngineConfig,
    arch: &PimArch,
    host: &ProcModel,
) -> Prediction {
    let ndpus = arch.num_dpus;
    let nlist = cfg.index.nlist;
    let host_s = cl::host_cl_time(shape.q as usize, nlist, shape, host);

    let placement = crate::wram::plan_for(cfg, arch, shape, nlist.div_ceil(ndpus), ndpus);
    let cost = GroupCost::new(cfg, arch, &placement, shape.d as usize);
    let groups = (shape.q * shape.p) as u64;
    let mut group = DpuMeter::new();
    cost.charge(&mut group, [shape.c.round() as u64]);
    let batch = group.scaled(groups);

    let mut phase_s = batch.phase_times(arch, cfg.tasklets);
    for t in &mut phase_s {
        *t /= ndpus as f64;
    }
    // transfer leg: every group's push, and each query's result list
    // gathered once (the fewest DPUs a query can touch)
    let link = HostLink::for_arch(arch);
    let push_bytes = groups * cost.push_bytes(1);
    let gather_bytes = shape.q as u64 * cfg.index.k as u64 * 8;
    let timing = BatchTiming {
        host_s,
        dpu_s: vec![phase_s.iter().sum()],
        push_s: link.time_total(push_bytes),
        gather_s: link.time_total(gather_bytes),
        push_bytes,
        gather_bytes,
        phase_s,
    };
    let total_s = timing.total_s();
    Prediction {
        host_s,
        pim_phase_s: [Phase::Rc, Phase::Lc, Phase::Dc, Phase::Ts].map(|p| phase_s[p.idx()]),
        total_s,
        qps: shape.q / total_s.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use upmem_sim::platform::procs;

    fn sift_cfg(nlist: usize, nprobe: usize) -> EngineConfig {
        EngineConfig::drim(IndexConfig {
            k: 10,
            nprobe,
            nlist,
            m: 16,
            cb: 256,
        })
    }

    fn sift_shape(nlist: usize, nprobe: usize) -> WorkloadShape {
        let index = sift_cfg(nlist, nprobe).index;
        WorkloadShape::new(100_000_000, 10_000, 128, &index, BitWidths::u8_regime())
    }

    /// The DRIM configuration (SQT switched as given) on SIFT100M shapes.
    fn predict_sift(nlist: usize, nprobe: usize, arch: &PimArch, sqt: bool) -> Prediction {
        let mut cfg = sift_cfg(nlist, nprobe);
        cfg.sqt = sqt;
        let host = procs::xeon_silver_4216();
        predict(&sift_shape(nlist, nprobe), &cfg, arch, &host)
    }

    #[test]
    fn dist_ops_formula() {
        assert_eq!(WorkloadShape::dist_ops(128.0), 383.0);
        assert_eq!(WorkloadShape::dist_ops(1.0), 2.0);
    }

    #[test]
    fn compute_counts_scale_with_parameters() {
        let a = sift_shape(1 << 14, 32);
        let b = sift_shape(1 << 14, 64);
        // doubling nprobe doubles every post-CL phase
        assert!((b.c_lc() / a.c_lc() - 2.0).abs() < 1e-9);
        assert!((b.c_dc() / a.c_dc() - 2.0).abs() < 1e-9);
        // doubling nlist halves C and hence DC, but not LC
        let c = sift_shape(1 << 15, 32);
        assert!((a.c_dc() / c.c_dc() - 2.0).abs() < 1e-9);
        assert!((a.c_lc() / c.c_lc() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dc_lc_bottleneck_shifts_with_nlist() {
        // Paper Fig. 9: bottleneck moves DC -> LC as nlist grows.
        let arch = PimArch::upmem_sc25();
        let small = predict_sift(1 << 13, 96, &arch, true);
        let large = predict_sift(1 << 16, 96, &arch, true);
        // at small nlist DC dominates LC...
        assert!(
            small.pim_phase_s[2] > small.pim_phase_s[1],
            "small nlist: DC {} should exceed LC {}",
            small.pim_phase_s[2],
            small.pim_phase_s[1]
        );
        // ...at large nlist LC dominates DC
        assert!(
            large.pim_phase_s[1] > large.pim_phase_s[2],
            "large nlist: LC {} should exceed DC {}",
            large.pim_phase_s[1],
            large.pim_phase_s[2]
        );
    }

    #[test]
    fn sqt_speeds_up_lc() {
        let arch = PimArch::upmem_sc25();
        let with = predict_sift(1 << 16, 96, &arch, true);
        let without = predict_sift(1 << 16, 96, &arch, false);
        let lc_speedup = without.pim_phase_s[1] / with.pim_phase_s[1];
        // Paper Fig. 11a: ~1.93x LC speedup (far below 32x because the
        // conversion makes LC bandwidth-bound).
        assert!(
            lc_speedup > 1.2 && lc_speedup < 32.0,
            "LC speedup {lc_speedup}"
        );
        // end-to-end PIM time improves too (the host CL leg is unaffected)
        assert!(without.pim_s() > with.pim_s());
    }

    #[test]
    fn rc_and_ts_are_minor_phases() {
        let p = predict_sift(1 << 14, 96, &PimArch::upmem_sc25(), true);
        let total = p.pim_s();
        assert!(p.pim_phase_s[0] < 0.1 * total, "RC should be minor");
        // LC + DC dominate (paper Fig. 9)
        assert!(p.pim_phase_s[1] + p.pim_phase_s[2] > 0.6 * total);
    }

    #[test]
    fn pim_time_scales_with_dpus() {
        let a16 = predict_sift(1 << 14, 96, &PimArch::upmem_dimms(16), true);
        let a32 = predict_sift(1 << 14, 96, &PimArch::upmem_dimms(32), true);
        // the PIM leg halves with double the DIMMs; end-to-end QPS can then
        // become host-CL-bound (total = max(host, pim)), so compare PIM legs
        assert!(
            a32.pim_s() < 0.6 * a16.pim_s(),
            "a32 {} vs a16 {}",
            a32.pim_s(),
            a16.pim_s()
        );
        assert!(a32.qps >= a16.qps);
    }

    #[test]
    fn arithmetic_intensity_in_roofline_range() {
        // Paper Fig. 2 plots ANNS at ~0.3-3 ops/byte.
        let ai = sift_shape(1 << 14, 96).arithmetic_intensity();
        assert!(ai > 0.1 && ai < 30.0, "AI {ai}");
    }

    #[test]
    fn c2io_identifies_lc_as_compute_heavy_without_sqt() {
        let s = sift_shape(1 << 14, 96);
        // LC does 3 ops per byte-ish; DC is gather-dominated
        assert!(s.c2io(crate::Phase::Lc) > s.c2io(crate::Phase::Dc));
    }
}
