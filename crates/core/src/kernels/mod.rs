//! The five ANNS processing phases (paper Fig. 1), implemented as
//! functional-plus-metered kernels.
//!
//! Every kernel *computes the real result* on real data and *charges* the
//! per-DPU meter with the instruction and traffic costs the operation would
//! incur on the target PIM architecture. The two are decoupled: the result
//! comes from a plain host loop, the cost from a closed-form charge function
//! fed the counts the loop observed. RC and TS do both in one call. LC and
//! DC are values of (query, cluster) and (query, point) alone, so the engine
//! computes them once per batch, before any DPU runs: several queries of a
//! probed cluster at a time, their LUTs interleaved into `LANES`-wide
//! vector lanes (`lc::build`, `dc::scan_lanes`). What a DPU is charged for
//! them is not counted from those values at all: an 8-bit LC squares only
//! differences below 256, so its SQT lookups all hit a resident table or
//! all miss a spilled one, and the closed-form [`lc::charge`] says which.
//! [`lc::run_bulk`] and [`dc::run`] remain the one-call form of each (build
//! or scan, then charge), over the same loop bodies; `run_bulk`'s private
//! charge half counts a partial SQT window's hits exactly.
//!
//! The `charge` functions are the only statement of what DPU work costs.
//! [`GroupCost`] binds them to one configuration and is what every other
//! consumer goes through: both modes book their waves with
//! [`GroupCost::charge`]'s two parts ([`GroupCost::charge_group`] and
//! [`GroupCost::charge_slice`], tabulated once per batch by the dispatch
//! loop), the scheduler and the split-threshold search weigh tasks with
//! [`GroupCost::heat`], and [`crate::perf_model::predict`] charges a
//! perfectly balanced DPU's share the same way. How fast the host loops run
//! never moves a simulated number; a change to what a gather, a lookup or a
//! lock costs is an edit to one `charge` function that all of them see.
//!
//! Phase placement follows the paper: CL runs on the host ([`cl`]);
//! RC, LC, DC and TS run on the DPUs ([`rc`], [`lc`], [`dc`], [`ts`]).

pub mod cl;
pub mod dc;
pub mod lc;
pub mod rc;
pub mod ts;

use crate::config::{DataBits, EngineConfig};
use crate::perf_model::WorkloadShape;
use crate::wram::WramPlacement;
use lc::SquareCost;
use upmem_sim::meter::{DpuMeter, Phase, PhaseMeter};
use upmem_sim::tasklet::{LockPolicy, LockStats};
use upmem_sim::{IsaCosts, PimArch};

/// Queries per block of the batch's LC + DC pass: the most LUTs
/// [`lc::build`] interleaves and `dc::scan_lanes` scans together. Chosen
/// by measurement from 8, 16 and 32 (see `CHANGES.md`).
pub(crate) const LANES: usize = 16;

/// Lane stride of a block of `lanes` interleaved LUTs: `lanes` rounded up
/// to a power of two, so a ragged block runs at the narrowest vector width
/// that holds it.
pub(crate) fn lane_width(lanes: usize) -> usize {
    assert!(
        (1..=LANES).contains(&lanes),
        "a LUT block holds 1..={LANES} lanes, not {lanes}"
    );
    lanes.next_power_of_two()
}

/// Shared kernel context: cost table, DMA shape, operand width and the WRAM
/// residency decisions.
#[derive(Debug, Clone)]
pub struct KernelCtx<'a> {
    /// Platform cost table.
    pub costs: &'a IsaCosts,
    /// MRAM DMA burst size in bytes.
    pub dma_burst: u64,
    /// Operand width.
    pub bits: DataBits,
    /// WRAM residency plan (empty = everything at MRAM cost).
    pub placement: &'a WramPlacement,
}

impl<'a> KernelCtx<'a> {
    /// Charge a read of `bytes` belonging to data class `class`: WRAM cost
    /// when resident, fine-grained MRAM DMA otherwise.
    #[inline]
    pub fn read(&self, meter: &mut PhaseMeter, class: &str, bytes: u64, random: bool) {
        if self.placement.is_resident(class) {
            meter.wram_read_bytes(bytes);
        } else if random {
            meter.mram_random_read(1, bytes, self.dma_burst);
        } else {
            meter.mram_stream_read(bytes);
        }
    }

    /// Charge a write of `bytes` to data class `class`.
    #[inline]
    pub fn write(&self, meter: &mut PhaseMeter, class: &str, bytes: u64) {
        if self.placement.is_resident(class) {
            meter.wram_write_bytes(bytes);
        } else {
            meter.mram_stream_write(bytes);
        }
    }
}

/// How a configuration squares in LC: by multiply, or through the SQT at
/// the WRAM hit rate its operand width and the table's residency give.
pub(crate) fn square_cost(sqt: bool, bits: DataBits, sqt_resident: bool) -> SquareCost {
    let wram_hit_rate = match (sqt, bits, sqt_resident) {
        (false, ..) => return SquareCost::Multiply,
        (_, _, false) => 0.0, // spilled entirely (Fig. 12b ablation)
        (_, DataBits::B8, true) => 1.0,
        // 16-bit: the WRAM window absorbs most lookups because residuals
        // are small (paper Section 3.1)
        (_, DataBits::B16, true) => 0.9,
    };
    SquareCost::SqtLookup { wram_hit_rate }
}

/// What one `(query, cluster)` group costs a DPU under one configuration:
/// the [`KernelCtx`] inputs, the index shape, the squaring cost and the
/// lock policy, assembled once so that every consumer of the `charge`
/// functions prices the same machine.
#[derive(Debug)]
pub struct GroupCost<'a> {
    pub(crate) costs: IsaCosts,
    pub(crate) dma_burst: u64,
    pub(crate) bits: DataBits,
    pub(crate) placement: &'a WramPlacement,
    pub(crate) d: u64,
    pub(crate) m: usize,
    pub(crate) cb: usize,
    pub(crate) dsub: usize,
    pub(crate) k: usize,
    pub(crate) square: SquareCost,
    pub(crate) lock_policy: LockPolicy,
}

impl<'a> GroupCost<'a> {
    /// The configuration in force: `cfg` on `arch` with the WRAM plan
    /// `placement`, over `dim`-dimensional vectors.
    pub fn new(
        cfg: &EngineConfig,
        arch: &PimArch,
        placement: &'a WramPlacement,
        dim: usize,
    ) -> Self {
        GroupCost {
            costs: arch.costs.clone(),
            // random accesses pay the burst x the PrIM-style derate
            dma_burst: arch.dma_burst_bytes * arch.mram_random_penalty,
            bits: cfg.bits,
            placement,
            d: dim as u64,
            m: cfg.index.m,
            cb: cfg.index.cb,
            dsub: dim.div_ceil(cfg.index.m),
            k: cfg.index.k,
            square: square_cost(cfg.sqt, cfg.bits, placement.is_resident("sqt")),
            lock_policy: cfg.lock_policy,
        }
    }

    /// The kernel context of this configuration — what the functional
    /// kernels are run with.
    pub fn ctx(&self) -> KernelCtx<'_> {
        KernelCtx {
            costs: &self.costs,
            dma_burst: self.dma_burst,
            bits: self.bits,
            placement: self.placement,
        }
    }

    /// The fraction of SQT lookups this configuration serves from WRAM;
    /// 1 when it squares by multiply and looks nothing up.
    pub fn sqt_wram_hit_rate(&self) -> f64 {
        match self.square {
            SquareCost::Multiply => 1.0,
            SquareCost::SqtLookup { wram_hit_rate } => wram_hit_rate,
        }
    }

    /// Host->PIM bytes pushed for one group of `slices` tasks: the f32
    /// query plus one task descriptor per slice.
    pub fn push_bytes(&self, slices: usize) -> u64 {
        self.d * 4 + 8 * slices as u64
    }

    /// Book one group into `meter`: RC + LC once ([`Self::charge_group`]),
    /// then DC + TS for each of its slices, given by length
    /// ([`Self::charge_slice`]), the [`ts::expected_updates`] estimate of
    /// each slice's candidates updating the queue — under the forwarding
    /// policy only those lock, the bound prunes the rest. Returns the
    /// group's lock statistics.
    pub fn charge(
        &self,
        meter: &mut DpuMeter,
        slice_lens: impl IntoIterator<Item = u64>,
    ) -> LockStats {
        self.charge_group(meter);
        let mut lock = LockStats::default();
        for n in slice_lens {
            let s = self.charge_slice(meter, n);
            lock.locked_updates += s.locked_updates;
            lock.pruned += s.pruned;
        }
        lock
    }

    /// The part of [`Self::charge`] a group books once, whatever its
    /// slices: RC + LC.
    pub fn charge_group(&self, meter: &mut DpuMeter) {
        let ctx = self.ctx();
        rc::charge(&ctx, meter.phase_mut(Phase::Rc), self.d);
        let lc = meter.phase_mut(Phase::Lc);
        lc::charge(&ctx, lc, self.m, self.cb, self.dsub, self.square);
    }

    /// The part of [`Self::charge`] a group books per slice, for one slice
    /// of `n` points: DC + TS. Returns the slice's lock statistics.
    pub fn charge_slice(&self, meter: &mut DpuMeter, n: u64) -> LockStats {
        let ctx = self.ctx();
        let updates = ts::expected_updates(n, self.k);
        let locked = match self.lock_policy {
            LockPolicy::LockAlways => n,
            LockPolicy::Forwarding => updates,
        };
        dc::charge(&ctx, meter.phase_mut(Phase::Dc), n, self.m, self.cb);
        let ts = meter.phase_mut(Phase::Ts);
        ts::charge(&ctx, ts, n, self.k, self.lock_policy, locked, updates);
        LockStats {
            locked_updates: locked,
            pruned: n - locked.min(n),
        }
    }

    /// The scheduler's heat for this configuration: the compute cycles one
    /// `(query, slice)` task books on its DPU, as a function of the slice
    /// length. Every charge is linear in its counts and compute cycles add
    /// up across phases, so unit charges into three scratch phase meters
    /// give the exact rates of what [`Self::charge`] books — the group's
    /// RC + LC, DC + TS per point, and the queue's work per update (nothing
    /// under `LockAlways`, where every point locks and the lock is
    /// per-point work) — and a task's heat is O(1) arithmetic from there.
    /// Compute only: a phase bound by its MRAM traffic is hotter than this
    /// says.
    pub fn heat(&self) -> impl Fn(usize) -> u64 {
        let ctx = self.ctx();
        let [mut group, mut point, mut update] = <[PhaseMeter; 3]>::default();
        rc::charge(&ctx, &mut group, self.d);
        lc::charge(&ctx, &mut group, self.m, self.cb, self.dsub, self.square);
        dc::charge(&ctx, &mut point, 1, self.m, self.cb);
        ts::charge(&ctx, &mut point, 1, self.k, self.lock_policy, 0, 0);
        ts::charge(&ctx, &mut update, 0, self.k, self.lock_policy, 1, 1);
        let [group, point, update] = [group, point, update].map(|m| m.compute_cycles(&self.costs));
        let k = self.k;
        move |n| group + n as u64 * point + ts::expected_updates(n as u64, k) * update
    }

    /// The heat a layout's split search weighs candidate slices with: that
    /// of `cfg` on `arch` for the workload `shape` over `ndpus` DPUs. The
    /// WRAM plan it reads needs the slice census of the layout being
    /// built, so it is the plan of an even spread of clusters.
    pub fn layout_heat(
        cfg: &EngineConfig,
        arch: &PimArch,
        shape: &WorkloadShape,
        ndpus: usize,
    ) -> impl Fn(usize) -> u64 {
        let even = cfg.index.nlist.div_ceil(ndpus);
        let even = crate::wram::plan_for(cfg, arch, shape, even, ndpus);
        GroupCost::new(cfg, arch, &even, shape.d as usize).heat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wram::{plan, WramCandidate};

    #[test]
    fn resident_class_charges_wram() {
        let placement = plan(
            &[WramCandidate {
                name: "lut",
                bytes: 64,
                accesses: 100.0,
            }],
            1024,
        );
        let costs = IsaCosts::upmem();
        let ctx = KernelCtx {
            costs: &costs,
            dma_burst: 8,
            bits: DataBits::B8,
            placement: &placement,
        };
        let mut m = PhaseMeter::default();
        ctx.read(&mut m, "lut", 4, true);
        assert_eq!(m.wram_read, 4);
        assert_eq!(m.mram_read, 0);
    }

    #[test]
    fn nonresident_random_read_rounds_to_burst() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let ctx = KernelCtx {
            costs: &costs,
            dma_burst: 8,
            bits: DataBits::B8,
            placement: &placement,
        };
        let mut m = PhaseMeter::default();
        ctx.read(&mut m, "lut", 4, true);
        assert_eq!(m.mram_read, 8, "4-byte random read pays a full burst");
        ctx.read(&mut m, "codes", 100, false);
        assert_eq!(m.mram_read, 108, "streaming read is exact");
    }
}
