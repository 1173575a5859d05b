//! Per-layer measurements of the traced pass: timed calls into each
//! layer's public functions on workload-shaped inputs, and the simulated
//! PIM-domain accounting folded out of `BatchReport`s.
//!
//! Host wall-clock here is what the *simulator* costs to run; everything
//! named `sim.*` is what the *modelled hardware* would take. The two are
//! never mixed in one number.

use ann_core::topk::{merge_topk, BoundedMaxHeap, Neighbor};
use ann_core::vector::VecSet;
use drim_ann::engine::DrimEngine;
use drim_ann::kernels::{cl, dc, lc, ts, KernelCtx};
use drim_ann::report::BatchReport;
use drim_ann::sched::{self, Policy};
use drim_ann::sqt::Sqt;
use drim_ann::Phase;
use rand::Rng;
use std::time::Instant;
use upmem_sim::meter::PhaseMeter;

use crate::metrics::MetricSet;
use crate::spans::{SpanLog, NONE};
use crate::stats::median;
use crate::world::{stream, Mixture, K};

/// Sums over the `BatchReport`s of a deterministic batch sequence. Ratios
/// are taken over the sums, so they are exact functions of the seed.
#[derive(Debug, Clone, Default)]
pub struct SimAgg {
    pub queries: u64,
    pub total_s: f64,
    pub energy_j: f64,
    host_s: f64,
    xfer_s: f64,
    phase_s: [f64; 6],
    imbalance_sum: f64,
    sqt_rate_sum: f64,
    batches: u64,
    push_bytes: u64,
    gather_bytes: u64,
    pruned: u64,
    locked: u64,
    postponed: u64,
    tombstone_filtered: u64,
    /// pipeline, mram, wram, transfer, host, static
    energy_parts: [f64; 6],
}

impl SimAgg {
    pub fn add(&mut self, r: &BatchReport) {
        self.queries += r.queries as u64;
        self.total_s += r.timing.total_s();
        self.energy_j += r.energy_j;
        self.host_s += r.timing.host_s;
        self.xfer_s += r.timing.push_s + r.timing.gather_s;
        for (acc, p) in self.phase_s.iter_mut().zip(r.timing.phase_s) {
            *acc += p;
        }
        self.imbalance_sum += r.imbalance;
        self.sqt_rate_sum += r.sqt_wram_hit_rate;
        self.batches += 1;
        self.push_bytes += r.timing.push_bytes;
        self.gather_bytes += r.timing.gather_bytes;
        self.pruned += r.lock.pruned;
        self.locked += r.lock.locked_updates;
        self.postponed += r.postponed as u64;
        self.tombstone_filtered += r.tombstone_filtered;
        let e = &r.energy;
        for (acc, p) in self.energy_parts.iter_mut().zip([
            e.dpu_pipeline_j,
            e.dpu_mram_j,
            e.dpu_wram_j,
            e.transfer_j,
            e.host_busy_j,
            e.static_j,
        ]) {
            *acc += p;
        }
    }

    /// Simulated queries per simulated second.
    pub fn sim_qps(&self) -> f64 {
        self.queries as f64 / self.total_s
    }

    /// Simulated queries per simulated joule.
    pub fn sim_qpj(&self) -> f64 {
        self.queries as f64 / self.energy_j
    }

    pub fn write(&self, m: &mut MetricSet) {
        let share = |x: f64, of: f64| if of > 0.0 { x / of } else { 0.0 };
        let phases: f64 = self.phase_s.iter().sum();
        for (name, p) in [
            ("sim.phase_share.rc", Phase::Rc),
            ("sim.phase_share.lc", Phase::Lc),
            ("sim.phase_share.dc", Phase::Dc),
            ("sim.phase_share.ts", Phase::Ts),
        ] {
            m.set(name, share(self.phase_s[p.idx()], phases));
        }
        m.set("sim.host_share", share(self.host_s, self.total_s));
        m.set("sim.xfer_share", share(self.xfer_s, self.total_s));
        let q = self.queries as f64;
        let b = self.batches as f64;
        m.set("sim.imbalance", share(self.imbalance_sum, b));
        m.set("sim.sqt_hit_rate", share(self.sqt_rate_sum, b));
        m.set("sim.push_bytes_per_query", share(self.push_bytes as f64, q));
        m.set(
            "sim.gather_bytes_per_query",
            share(self.gather_bytes as f64, q),
        );
        m.set(
            "sim.lock_pruned_share",
            share(self.pruned as f64, (self.pruned + self.locked) as f64),
        );
        m.set("sim.postponed", self.postponed as f64);
        m.set(
            "sim.tombstone_filtered_per_query",
            share(self.tombstone_filtered as f64, q),
        );
        let energy: f64 = self.energy_parts.iter().sum();
        for (name, part) in [
            "sim.energy_share.pipeline",
            "sim.energy_share.mram",
            "sim.energy_share.wram",
            "sim.energy_share.transfer",
            "sim.energy_share.host",
            "sim.energy_share.static",
        ]
        .into_iter()
        .zip(self.energy_parts)
        {
            m.set(name, share(part, energy));
        }
    }
}

/// Median wall seconds of `reps` runs of `f` inside spans called `name`.
fn timed_median<R>(
    log: &mut SpanLog,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let mut walls = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        let end = Instant::now();
        log.push(name, t, end, NONE, NONE);
        walls.push((end - t).as_secs_f64());
    }
    median(&walls)
}

/// `DrimEngine::search_batch` at the batch sizes the workloads produce,
/// then CL and scheduling re-run in isolation on the 256-batch. What
/// remains of the 256-batch is dispatch + per-DPU kernels + merge: the
/// calls inside `search_batch` cannot be spanned from outside the crate,
/// so their share is obtained by subtraction, not by nesting.
pub fn probe_search_path(
    engine: &mut DrimEngine,
    eval: &VecSet<f32>,
    log: &mut SpanLog,
    m: &mut MetricSet,
) -> [f64; 4] {
    let mut by_size = [0.0; 4];
    for (slot, (b, reps, span, metric)) in [
        (1, 40, "engine.search_batch.b1", "engine.search_batch_ms_b1"),
        (8, 20, "engine.search_batch.b8", "engine.search_batch_ms_b8"),
        (
            32,
            10,
            "engine.search_batch.b32",
            "engine.search_batch_ms_b32",
        ),
        (
            256,
            5,
            "engine.search_batch.b256",
            "engine.search_batch_ms_b256",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let q = eval.select(&(0..b).collect::<Vec<_>>());
        std::hint::black_box(engine.search_batch(&q));
        by_size[slot] = timed_median(log, span, reps, || engine.search_batch(&q)) * 1e3;
        m.set(metric, by_size[slot]);
    }

    let nprobe = engine.effective_nprobe();
    let cl_ms = timed_median(log, "cl.run", 20, || {
        cl::run(
            eval,
            &engine.ivf.coarse,
            &engine.ivf.coarse_norms,
            nprobe,
            &engine.shape,
            &engine.host,
        )
    }) * 1e3;
    m.set("cl.run_ms", cl_ms);

    let probes = cl::run(
        eval,
        &engine.ivf.coarse,
        &engine.ivf.coarse_norms,
        nprobe,
        &engine.shape,
        &engine.host,
    )
    .probes;
    let idx = engine.cfg.index;
    let dsub = engine.ivf.quant.pq().dsub;
    let arch = &engine.system.arch;
    let cost = |len: usize| {
        sched::task_cost_s(
            len,
            idx.m,
            idx.cb,
            dsub,
            idx.k,
            engine.cfg.sqt,
            &arch.costs,
            arch.freq_hz,
        )
    };
    let policy = Policy::Greedy {
        th3: engine.cfg.th3,
    };
    let ndpus = engine.ndpus();
    let plan_once = || {
        let tasks = sched::expand_tasks(&probes, &engine.layout, cost);
        let plan = sched::schedule(&tasks, &engine.layout, ndpus, policy);
        (tasks.len(), plan)
    };
    let sched_ms = timed_median(log, "sched.plan", 20, plan_once) * 1e3;
    let (ntasks, plan) = plan_once();
    m.set("sched.plan_ms", sched_ms);
    m.set("sched.tasks", ntasks as f64);
    m.set("sched.postponed", plan.postponed.len() as f64);
    m.set("sched.plan_imbalance", plan.imbalance());
    m.set("engine.residual_ms", by_size[3] - cl_ms - sched_ms);
    by_size
}

/// Linear interpolation of the measured `search_batch` cost at a
/// fractional batch size.
pub fn search_ms_at(by_size: &[f64; 4], batch: f64) -> f64 {
    let xs = [1.0, 8.0, 32.0, 256.0];
    if batch <= xs[0] {
        return by_size[0];
    }
    for i in 1..4 {
        if batch <= xs[i] {
            let t = (batch - xs[i - 1]) / (xs[i] - xs[i - 1]);
            return by_size[i - 1] + t * (by_size[i] - by_size[i - 1]);
        }
    }
    by_size[3]
}

/// Isolated host cost of the per-DPU kernels and the host merge, on inputs
/// shaped like one task of the 256-batch: an 8-group LC wave (the engine's
/// block size), a DC scan and TS pass over the median-sized cluster, a
/// merge of `nprobe` lists of `k`.
pub fn probe_kernels(engine: &DrimEngine, seed: u64, log: &mut SpanLog, m: &mut MetricSet) {
    let idx = engine.cfg.index;
    let dsub = engine.ivf.quant.pq().dsub;
    let arch = &engine.system.arch;
    let ctx = KernelCtx {
        costs: &arch.costs,
        dma_burst: arch.dma_burst_bytes * arch.mram_random_penalty,
        bits: engine.cfg.bits,
        placement: &engine.placement,
    };
    let mut rng = stream(seed, 900);
    let mut bytes =
        |n: usize| -> Vec<u8> { (0..n).map(|_| rng.gen_range(0u32..256) as u8).collect() };
    // The engine's quantized codebook is private; the LC host cost depends
    // on its shape, not its values.
    let codebooks = bytes(idx.m * idx.cb * dsub);
    const GROUPS: usize = 8;
    let residuals = bytes(GROUPS * idx.m * dsub);
    let mut sqt = engine.cfg.sqt.then(|| {
        Sqt::for_bits_resident_windowed(
            engine.cfg.bits,
            engine.cfg.sqt_window,
            engine.placement.is_resident("sqt"),
        )
    });
    let mut meter = PhaseMeter::default();
    let mut luts = Vec::new();

    const LC_REPS: usize = 256; // 2,048 groups: one 256-batch at nprobe 8
    let lc_s = timed_median(log, "lc.run_bulk", 5, || {
        for _ in 0..LC_REPS {
            lc::run_bulk(
                &ctx,
                &mut meter,
                &residuals,
                GROUPS,
                &codebooks,
                idx.m,
                idx.cb,
                dsub,
                sqt.as_mut(),
                &mut luts,
            );
        }
    });
    m.set(
        "lc.host_ns_per_group",
        lc_s * 1e9 / (LC_REPS * GROUPS) as f64,
    );

    let mut by_len: Vec<usize> = (0..engine.ivf.lists.len()).collect();
    by_len.sort_by_key(|&c| engine.ivf.lists[c].len());
    let list = &engine.ivf.lists[by_len[by_len.len() / 2]];
    let lut = &luts[..idx.m * idx.cb];
    let mut scanned = Vec::new();
    const SCAN_REPS: usize = 200;
    let dc_s = timed_median(log, "dc.run", 5, || {
        for _ in 0..SCAN_REPS {
            dc::run(
                &ctx,
                &mut meter,
                &list.codes,
                idx.m,
                idx.cb,
                lut,
                u64::MAX,
                &mut scanned,
            );
        }
    });
    m.set(
        "dc.host_ns_per_point",
        dc_s * 1e9 / (SCAN_REPS * list.len()) as f64,
    );

    let ts_s = timed_median(log, "ts.run", 5, || {
        for _ in 0..SCAN_REPS {
            let mut heap = BoundedMaxHeap::new(K);
            ts::run(
                &ctx,
                &mut meter,
                &scanned,
                &list.ids,
                &mut heap,
                K,
                engine.cfg.lock_policy,
            );
            std::hint::black_box(heap.len());
        }
    });
    m.set(
        "ts.host_ns_per_candidate",
        ts_s * 1e9 / (SCAN_REPS * scanned.len()) as f64,
    );

    let lists: Vec<Vec<Neighbor>> = (0..idx.nprobe)
        .map(|l| {
            let mut v: Vec<Neighbor> = (0..K)
                .map(|i| {
                    Neighbor::new(
                        (l * K + i) as u64,
                        (scanned[(l * K + i) % scanned.len()].1 % 100_000) as f32,
                    )
                })
                .collect();
            v.sort_by(|a, b| a.dist.partial_cmp(&b.dist).expect("finite"));
            v
        })
        .collect();
    const MERGE_REPS: usize = 20_000;
    let merge_s = timed_median(log, "merge.merge_topk", 5, || {
        for _ in 0..MERGE_REPS {
            std::hint::black_box(merge_topk(std::hint::black_box(&lists), K));
        }
    });
    m.set("merge.host_ns_per_query", merge_s * 1e9 / MERGE_REPS as f64);
}

/// Direct `insert` / `delete` / `maintain` calls. Destructive: call last,
/// on an engine no check still needs. Inserts pile near-duplicates onto the
/// cluster with the longest tail slice until it outgrows the split
/// threshold, and deletes thin its neighbour (compaction runs before the
/// split check, so thinning the same cluster would undo the growth): one
/// `maintain` call has both a compaction and a split to do.
pub fn probe_mutation(
    engine: &mut DrimEngine,
    mixture: &Mixture,
    seed: u64,
    log: &mut SpanLog,
    m: &mut MetricSet,
) -> Result<(), String> {
    engine.cfg.maintenance.compact_tombstone_frac = 0.01;
    engine.cfg.maintenance.overgrown_factor = 1.02;
    let (anchor, tail_len) = longest_tail(engine);
    let threshold = (engine.cfg.maintenance.overgrown_factor * engine.layout.th1 as f64) as usize;
    // compaction runs first and may purge up to every pending tombstone from
    // this very slice: outgrow the threshold by that much and a little more
    let grow = threshold.saturating_sub(tail_len) + engine.pending_tombstones() + 32;
    let fresh = mixture.sample(&mut stream(seed, 901), 256);
    let centroid = engine.ivf.coarse.get(anchor).to_vec();
    let neighbour = (anchor + 1) % engine.ivf.lists.len();
    let victims: Vec<u32> = engine.ivf.lists[neighbour]
        .ids
        .iter()
        .copied()
        .take(256)
        .collect();

    let mut insert_s = Vec::new();
    let mut next_id = 3_000_000_000u32;
    let mut timed_insert =
        |engine: &mut DrimEngine, v: &[f32], log: &mut SpanLog| -> Result<(), String> {
            let t = Instant::now();
            let r = engine.insert(next_id, v);
            let end = Instant::now();
            log.push("engine.insert", t, end, NONE, NONE);
            insert_s.push((end - t).as_secs_f64());
            next_id += 1;
            r.map_err(|e| format!("probe insert failed: {e}"))
        };
    for i in 0..fresh.len() {
        timed_insert(engine, fresh.get(i), log)?;
    }
    for i in 0..grow {
        timed_insert(engine, &near_duplicate(&centroid, i), log)?;
    }
    let mut delete_s = Vec::new();
    for id in victims {
        let t = Instant::now();
        let live = engine.delete(id);
        let end = Instant::now();
        if live {
            log.push("engine.delete", t, end, NONE, NONE);
            delete_s.push((end - t).as_secs_f64());
        }
    }
    let (mut compacted, mut split, mut moved, mut worst_s) = (0usize, 0usize, 0u64, 0.0f64);
    for _ in 0..3 {
        let t = Instant::now();
        let rep = engine.maintain();
        let end = Instant::now();
        log.push("engine.maintain", t, end, NONE, NONE);
        worst_s = worst_s.max((end - t).as_secs_f64());
        compacted += rep.compacted_lists;
        split += rep.split_slices;
        moved += rep.moved_bytes;
    }
    if compacted == 0 || split == 0 {
        return Err(format!(
            "maintenance probe did no work: {compacted} lists compacted, {split} slices split"
        ));
    }
    m.set("engine.insert_us_p50", median(&insert_s) * 1e6);
    m.set(
        "engine.delete_us_p50",
        if delete_s.is_empty() {
            0.0
        } else {
            median(&delete_s) * 1e6
        },
    );
    m.set("engine.maintain_ms_max", worst_s * 1e3);
    m.set("engine.compacted_lists", compacted as f64);
    m.set("engine.split_slices", split as f64);
    m.set("engine.maintain_moved_bytes", moved as f64);
    Ok(())
}

/// The cluster whose tail slice (where appends land) is longest, and that
/// slice's length.
pub fn longest_tail(engine: &DrimEngine) -> (usize, usize) {
    engine
        .layout
        .cluster_slices
        .iter()
        .enumerate()
        .filter_map(|(c, slices)| slices.last().map(|&si| (c, engine.layout.slices[si].len)))
        .max_by_key(|&(c, len)| (len, std::cmp::Reverse(c)))
        .expect("the index has clusters")
}

/// The `i`-th near-duplicate of `center`: one coordinate nudged, so every
/// copy is a distinct vector that still lands in `center`'s cluster.
pub fn near_duplicate(center: &[f32], i: usize) -> Vec<f32> {
    let mut v = center.to_vec();
    let d = i % v.len();
    v[d] += 0.01 * (1 + i / v.len()) as f32;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_hits_the_knots() {
        let ms = [0.5, 3.6, 13.5, 110.0];
        assert_eq!(search_ms_at(&ms, 1.0), 0.5);
        assert_eq!(search_ms_at(&ms, 0.0), 0.5);
        assert_eq!(search_ms_at(&ms, 8.0), 3.6);
        assert_eq!(search_ms_at(&ms, 256.0), 110.0);
        assert_eq!(search_ms_at(&ms, 1000.0), 110.0);
        let mid = search_ms_at(&ms, 20.0);
        assert!((mid - (3.6 + 0.5 * (13.5 - 3.6))).abs() < 1e-12);
    }

    #[test]
    fn near_duplicates_are_distinct() {
        let c = vec![10.0f32; 4];
        let all: Vec<Vec<f32>> = (0..12).map(|i| near_duplicate(&c, i)).collect();
        for i in 0..all.len() {
            for j in 0..i {
                assert_ne!(all[i], all[j]);
            }
        }
    }
}
