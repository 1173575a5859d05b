//! Property-based invariants across crates. Each property is a plain
//! test over `CASES` seeded cases (`check`); its inputs are drawn by the
//! functions of `&mut StdRng` below.

use ann_core::topk::{merge_topk, BoundedMaxHeap, Neighbor};
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::layout::{ClusterInfo, LayoutPlan};
use drim_ann::sched::{expand_tasks, schedule, schedule_filtered, Policy, SchedulePlan, Task};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases per property.
const CASES: u64 = 64;

/// Run `property` on `CASES` cases, case `i` drawing from a `StdRng`
/// seeded by `name` and `i`. A failing case panics with the property's
/// name, the case index and the seed; the same body fed
/// `StdRng::seed_from_u64(seed)` replays it.
fn check(name: &str, mut property: impl FnMut(&mut StdRng)) {
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    for case in 0..CASES {
        let seed = base.wrapping_add(case);
        let run = catch_unwind(AssertUnwindSafe(|| {
            property(&mut StdRng::seed_from_u64(seed))
        }));
        if let Err(panic) = run {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)");
            panic!("{name}: case {case} (seed {seed:#x}) failed: {msg}");
        }
    }
}

/// A vector of `len` (drawn from `lens`) elements, each drawn by `elem`.
fn vec_of<T>(
    rng: &mut StdRng,
    lens: Range<usize>,
    mut elem: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let len = rng.gen_range(lens);
    (0..len).map(|_| elem(rng)).collect()
}

/// `None` one time in four, else a value drawn by `some`.
fn option_of<T>(rng: &mut StdRng, some: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    if rng.gen_bool(0.25) {
        None
    } else {
        Some(some(rng))
    }
}

/// 1 to 39 clusters, cluster `i` of `points(rng)` points and a heat in
/// `[0.01, 100.01)`.
fn clusters_of(rng: &mut StdRng, mut points: impl FnMut(&mut StdRng) -> usize) -> Vec<ClusterInfo> {
    let n = rng.gen_range(1..40u32);
    (0..n)
        .map(|id| ClusterInfo {
            id,
            points: points(rng),
            heat: rng.gen_range(0.0..100.0) + 0.01,
        })
        .collect()
}

fn arb_clusters(rng: &mut StdRng) -> Vec<ClusterInfo> {
    clusters_of(rng, |rng| rng.gen_range(1..2000))
}

fn engine_cfg(partition: bool, duplication: bool) -> EngineConfig {
    let mut cfg = EngineConfig::drim(IndexConfig {
        k: 10,
        nprobe: 4,
        nlist: 40,
        m: 4,
        cb: 16,
    });
    cfg.partition = partition;
    cfg.duplication = duplication;
    cfg
}

/// A partitioned, duplicated layout with room for every copy.
fn roomy_plan(clusters: &[ClusterInfo], ndpus: usize) -> LayoutPlan {
    let cfg = engine_cfg(true, true);
    LayoutPlan::build(clusters, ndpus, &cfg, 8, u64::MAX / 2, |len| len as f64).0
}

/// The greedy scheduler as first written: a stable index sort on
/// descending cost, then each task to the first coldest surviving home by
/// `min_by`. The oracle for `schedule_filtered`'s greedy policy.
fn greedy_reference(
    tasks: &[Task],
    layout: &LayoutPlan,
    ndpus: usize,
    th3: f64,
    initial_heat: Option<&[f64]>,
    banned: Option<&[bool]>,
) -> SchedulePlan {
    let is_banned = |d: usize| {
        banned
            .map(|b| b.get(d).copied().unwrap_or(false))
            .unwrap_or(false)
    };
    let mut per_dpu: Vec<Vec<Task>> = vec![Vec::new(); ndpus];
    let mut heat = match initial_heat {
        Some(h) => h.to_vec(),
        None => vec![0.0f64; ndpus],
    };
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| tasks[b].cost.partial_cmp(&tasks[a].cost).unwrap());
    let total_cost: f64 = tasks.iter().map(|t| t.cost).sum::<f64>() + heat.iter().sum::<f64>();
    let mean = total_cost / ndpus.max(1) as f64;
    let limit = if th3.is_finite() {
        mean * (1.0 + th3)
    } else {
        f64::INFINITY
    };
    let mut postponed = Vec::new();
    let mut unplaceable = Vec::new();
    for idx in order {
        let t = tasks[idx];
        let best = layout.slice_homes[t.slice as usize]
            .iter()
            .filter(|&&d| !is_banned(d))
            .map(|&d| (d, heat[d]))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let Some((best, best_heat)) = best else {
            unplaceable.push(t);
            continue;
        };
        if best_heat + t.cost > limit && best_heat > 0.0 {
            postponed.push(t);
            continue;
        }
        per_dpu[best].push(t);
        heat[best] += t.cost;
    }
    SchedulePlan {
        per_dpu,
        postponed,
        unplaceable,
        heat,
    }
}

/// Clusters from a small palette of sizes: the partition cuts equal
/// clusters into equal slices, so many slices share a length and a cost.
fn arb_tied_clusters(rng: &mut StdRng) -> Vec<ClusterInfo> {
    const POINTS: [usize; 4] = [64, 64, 300, 1200];
    clusters_of(rng, |rng| POINTS[rng.gen_range(0..4)])
}

/// The task list in query-major order — by query, then probe, then the
/// cluster's slice order — each slice's cost from `cost_of`: the list
/// whose stable LPT sort `expand_tasks` must emit.
fn query_major(
    probes: &[Vec<u32>],
    layout: &LayoutPlan,
    cost_of: impl Fn(usize) -> f64,
) -> Vec<Task> {
    let mut tasks = Vec::new();
    for (q, probed) in probes.iter().enumerate() {
        for &c in probed {
            for &slice in &layout.cluster_slices[c as usize] {
                tasks.push(Task {
                    query: q as u32,
                    slice: slice as u32,
                    cost: cost_of(layout.slices[slice].len),
                });
            }
        }
    }
    tasks
}

/// A tie-prone cost per slice length: zero (of either sign) for some
/// lengths, a few coarse steps for the rest. The properties that cost by
/// it assert that some case saw a `-0.0`.
fn tied_cost(len: usize) -> f64 {
    match len % 5 {
        0 => 0.0,
        3 => -0.0,
        _ => (len / 200) as f64 + 0.5,
    }
}

/// How many of `tasks` cost `-0.0`.
fn negative_zeros(tasks: &[Task]) -> usize {
    tasks
        .iter()
        .filter(|t| t.cost.to_bits() == (-0.0f64).to_bits())
        .count()
}

/// Tasks as `(query, slice, cost bits)`.
type TaskBits = Vec<(u32, u32, u64)>;

/// A plan with every float as its bit pattern: `-0.0` and `0.0` differ.
fn plan_bits(p: &SchedulePlan) -> (Vec<TaskBits>, TaskBits, TaskBits, Vec<u64>) {
    let bits = |ts: &[Task]| {
        ts.iter()
            .map(|t| (t.query, t.slice, t.cost.to_bits()))
            .collect()
    };
    (
        p.per_dpu.iter().map(|ts| bits(ts)).collect(),
        bits(&p.postponed),
        bits(&p.unplaceable),
        p.heat.iter().map(|h| h.to_bits()).collect(),
    )
}

/// A tie-prone palette of costs and heats: both zeros, two coarse steps.
const TIED: [f64; 4] = [0.0, -0.0, 1.0, 2.5];

/// Draw the greedy scheduler's optional inputs — initial heat per DPU
/// from `TIED`, a ban mask (possibly shorter than `ndpus`) and `th3`
/// (infinite when absent) — then schedule `tasks` greedily and
/// `reference` through `greedy_reference`: the plans must agree bit for
/// bit.
fn assert_greedy_agrees(
    rng: &mut StdRng,
    plan: &LayoutPlan,
    ndpus: usize,
    tasks: &[Task],
    reference: &[Task],
) {
    let heat0: Option<Vec<f64>> = option_of(rng, |rng| {
        vec_of(rng, 1..16, |rng| rng.gen_range(0..4usize))
    })
    .map(|h| (0..ndpus).map(|d| TIED[h[d % h.len()]]).collect());
    let banned: Option<Vec<bool>> = option_of(rng, |rng| vec_of(rng, 0..20, |rng| rng.gen()));
    let th3 = option_of(rng, |rng| rng.gen_range(0.0..1.5)).unwrap_or(f64::INFINITY);
    let (heat0, banned) = (heat0.as_deref(), banned.as_deref());
    let got = schedule_filtered(tasks, plan, ndpus, Policy::Greedy { th3 }, heat0, banned);
    let want = greedy_reference(reference, plan, ndpus, th3, heat0, banned);
    assert_eq!(plan_bits(&got), plan_bits(&want));
}

/// Every layout covers every cluster exactly once, copies live on
/// distinct DPUs, and per-DPU bytes respect the budget.
#[test]
fn layout_conservation() {
    check("layout_conservation", |rng| {
        let clusters = arb_clusters(rng);
        let ndpus = rng.gen_range(1..32usize);
        let (partition, duplication) = (rng.gen(), rng.gen());
        let total_points: usize = clusters.iter().map(|c| c.points).sum();
        let budget = ((total_points * 8 / ndpus) as u64 + 4096) * 2;
        let cfg = engine_cfg(partition, duplication);
        let plan = LayoutPlan::build(&clusters, ndpus, &cfg, 8, budget, |len| len as f64).0;
        plan.validate(&clusters).unwrap();
        // duplicates never exceed one copy per DPU
        for homes in &plan.slice_homes {
            assert!(homes.len() <= ndpus);
        }
    });
}

/// The scheduler never loses or duplicates a task, and every task runs
/// on a DPU that hosts its slice.
#[test]
fn scheduler_conservation() {
    check("scheduler_conservation", |rng| {
        let clusters = arb_clusters(rng);
        let ndpus = rng.gen_range(1..16usize);
        let nq = rng.gen_range(1..20usize);
        let th3 = option_of(rng, |rng| rng.gen_range(0.01..2.0));
        let plan = roomy_plan(&clusters, ndpus);
        let probes: Vec<Vec<u32>> = (0..nq)
            .map(|q| {
                let a = (q % clusters.len()) as u32;
                let b = ((q * 7 + 3) % clusters.len()) as u32;
                if a == b {
                    vec![a]
                } else {
                    vec![a, b]
                }
            })
            .collect();
        let tasks = expand_tasks(&probes, &plan, |len| len as f64 + 1.0);
        let policy = match th3 {
            Some(t) => Policy::Greedy { th3: t },
            None => Policy::Static,
        };
        let sp = schedule(&tasks, &plan, ndpus, policy);
        assert_eq!(sp.scheduled() + sp.postponed.len(), tasks.len());
        for (d, ts) in sp.per_dpu.iter().enumerate() {
            for t in ts {
                assert!(plan.slice_homes[t.slice as usize].contains(&d));
            }
        }
    });
}

/// The greedy policy places exactly what its first form (above) placed:
/// per-DPU task order, postponed and unplaceable tasks and final heat,
/// bit for bit, over tied and signed-zero costs, tied heats,
/// pre-existing heat, ban masks (short ones too) and finite or infinite
/// `th3`.
#[test]
fn greedy_matches_its_reference() {
    check("greedy_matches_its_reference", |rng| {
        let clusters = arb_clusters(rng);
        let ndpus = rng.gen_range(1..16usize);
        let raw = vec_of(rng, 0..300, |rng| {
            (
                rng.gen_range(0..1000usize),
                rng.gen_range(0..8usize),
                rng.gen_range(0.0..4.0),
            )
        });
        let plan = roomy_plan(&clusters, ndpus);
        // half the costs from the tie-prone palette
        let tasks: Vec<Task> = raw
            .iter()
            .enumerate()
            .map(|(q, &(s, c, x))| Task {
                query: q as u32 % 7,
                slice: (s % plan.slices.len()) as u32,
                cost: TIED.get(c).copied().unwrap_or(x),
            })
            .collect();
        assert_greedy_agrees(rng, &plan, ndpus, &tasks, &tasks);
    });
}

/// `expand_tasks` emits the query-major task list stably sorted by
/// descending cost: non-increasing in cost, query-major among equal
/// costs (`-0.0` equal to `0.0`), every cost bit as `cost_of` gave it.
#[test]
fn expand_tasks_emits_lpt_order() {
    let mut seen = 0;
    check("expand_tasks_emits_lpt_order", |rng| {
        let clusters = arb_tied_clusters(rng);
        let ndpus = rng.gen_range(1..16usize);
        let n = clusters.len() as u32;
        let probes = vec_of(rng, 0..30, |rng| {
            vec_of(rng, 0..6, |rng| rng.gen_range(0..64u32) % n)
        });
        let plan = roomy_plan(&clusters, ndpus);
        let got = expand_tasks(&probes, &plan, tied_cost);
        let mut want = query_major(&probes, &plan, tied_cost);
        want.sort_by(|a, b| b.cost.partial_cmp(&a.cost).unwrap());
        let bits = |ts: &[Task]| {
            ts.iter()
                .map(|t| (t.query, t.slice, t.cost.to_bits()))
                .collect::<TaskBits>()
        };
        assert_eq!(bits(&got), bits(&want));
        for w in got.windows(2) {
            assert!(w[0].cost >= w[1].cost);
            if w[0].cost == w[1].cost {
                assert!(w[0].query <= w[1].query);
            }
        }
        seen += negative_zeros(&got);
    });
    assert!(seen > 0, "no case drew a -0.0 cost");
}

/// Scheduling `expand_tasks`' output places exactly what the first
/// greedy scheduler placed from the query-major list: per-DPU order,
/// postponed and unplaceable tasks and final heat, bit for bit, with
/// ties across equal slices, initial heat, ban masks and finite `th3`.
#[test]
fn greedy_order_survives_expansion() {
    let mut seen = 0;
    check("greedy_order_survives_expansion", |rng| {
        let clusters = arb_tied_clusters(rng);
        let ndpus = rng.gen_range(1..16usize);
        let n = clusters.len() as u32;
        let probes = vec_of(rng, 1..30, |rng| {
            vec_of(rng, 1..6, |rng| rng.gen_range(0..64u32) % n)
        });
        let plan = roomy_plan(&clusters, ndpus);
        let tasks = expand_tasks(&probes, &plan, tied_cost);
        let reference = query_major(&probes, &plan, tied_cost);
        assert_greedy_agrees(rng, &plan, ndpus, &tasks, &reference);
        seen += negative_zeros(&tasks);
    });
    assert!(seen > 0, "no case drew a -0.0 cost");
}

/// Bounded heap == sorted truncation of a full sort, for any input.
#[test]
fn bounded_heap_is_partial_sort() {
    check("bounded_heap_is_partial_sort", |rng| {
        let dists = vec_of(rng, 1..300, |rng| rng.gen_range(0.0f32..1e6));
        let k = rng.gen_range(1..50usize);
        let mut heap = BoundedMaxHeap::new(k);
        for (i, &d) in dists.iter().enumerate() {
            heap.push(Neighbor::new(i as u64, d));
        }
        let got: Vec<f32> = heap.into_sorted().iter().map(|n| n.dist).collect();
        let mut sorted = dists.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.truncate(k);
        assert_eq!(got, sorted);
    });
}

/// Merging per-DPU top-k lists equals the deduplicated top-k of the
/// union (merge_topk keeps each id once — replicated slices may report
/// the same vector from two DPUs; first-seen occurrence wins, matching
/// the merge's scan order).
#[test]
fn merge_topk_equals_global() {
    check("merge_topk_equals_global", |rng| {
        let lists: Vec<Vec<Neighbor>> = vec_of(rng, 1..6, |rng| {
            vec_of(rng, 0..40, |rng| {
                Neighbor::new(rng.gen_range(0..1000u64), rng.gen_range(0.0f32..1e6))
            })
        });
        let k = rng.gen_range(1..20usize);
        let merged = merge_topk(&lists, k);
        // expected: first occurrence of each id in scan order, then top-k
        let mut seen = std::collections::HashSet::new();
        let mut all: Vec<Neighbor> = Vec::new();
        for l in &lists {
            for &n in l {
                if seen.insert(n.id) {
                    all.push(n);
                }
            }
        }
        all.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap().then(a.id.cmp(&b.id)));
        all.truncate(k);
        let got: Vec<u64> = merged.iter().map(|n| n.id).collect();
        let want: Vec<u64> = all.iter().map(|n| n.id).collect();
        assert_eq!(got, want);
    });
}

/// An 8-bit kernel context with nothing resident in WRAM.
fn with_u8_ctx<R>(f: impl FnOnce(&drim_ann::kernels::KernelCtx) -> R) -> R {
    let placement = drim_ann::wram::WramPlacement::none();
    let costs = upmem_sim::IsaCosts::upmem();
    f(&drim_ann::kernels::KernelCtx {
        costs: &costs,
        dma_burst: 8,
        bits: drim_ann::config::DataBits::B8,
        placement: &placement,
    })
}

/// The SQT is lossless over the whole signed-diff domain: a one-entry
/// LUT built through it is `diff²` exactly.
#[test]
fn sqt_lossless() {
    check("sqt_lossless", |rng| {
        let diff = rng.gen_range(-255i32..=255);
        let (residual, codeword) = ([diff.max(0) as u8], [(-diff).max(0) as u8]);
        let mut sqt = drim_ann::sqt::Sqt::for_u8();
        let mut meter = upmem_sim::meter::PhaseMeter::default();
        let mut lut = Vec::new();
        with_u8_ctx(|ctx| {
            drim_ann::kernels::lc::run_bulk(
                ctx,
                &mut meter,
                &residual,
                1,
                &codeword,
                1,
                1,
                1,
                Some(&mut sqt),
                &mut lut,
            )
        });
        assert_eq!(lut, vec![(diff * diff) as u32]);
        assert_eq!((sqt.hits_wram, sqt.hits_mram), (1, 0));
    });
}

/// Zipf partitions conserve mass for any shape.
#[test]
fn zipf_partition_conserves() {
    check("zipf_partition_conserves", |rng| {
        let total = rng.gen_range(1..100_000usize);
        let n = rng.gen_range(1..256usize);
        let s = rng.gen_range(0.0..2.0);
        let sizes = datasets::zipf::zipf_partition(total, n, s);
        assert_eq!(sizes.iter().sum::<usize>(), total);
        if total >= n {
            assert!(sizes.iter().all(|&x| x >= 1));
        }
    });
}

/// Scalar quantization round-trip error is bounded by half a step.
#[test]
fn quantizer_error_bounded() {
    check("quantizer_error_bounded", |rng| {
        let vals = vec_of(rng, 2..100, |rng| rng.gen_range(-1000.0f32..1000.0));
        let set = ann_core::VecSet::from_flat(1, vals.clone());
        let q = ann_core::quantize::ScalarQuantizer::fit_u8(&set);
        for &v in &vals {
            let err = (q.decode(q.encode(v)) - v).abs();
            assert!(err <= q.max_error() + 1e-3, "v={v} err={err}");
        }
    });
}

/// The bulk LC build is bit-exact against the scalar u8 distance for
/// any shape, with the SQT or without, and an 8-bit SQT serves every
/// one of its lookups from WRAM.
#[test]
fn lc_lut_is_exact() {
    check("lc_lut_is_exact", |rng| {
        let m = rng.gen_range(1..5usize);
        let cb = rng.gen_range(2..40usize);
        let dsub = rng.gen_range(1..10usize);
        let ngroups = rng.gen_range(1..4usize);
        let mut bytes =
            |n: usize| -> Vec<u8> { (0..n).map(|_| rng.gen_range(0u32..256) as u8).collect() };
        let codebooks = bytes(m * cb * dsub);
        let residuals = bytes(ngroups * m * dsub);
        for use_sqt in [false, true] {
            let mut sqt = use_sqt.then(drim_ann::sqt::Sqt::for_u8);
            let mut meter = upmem_sim::meter::PhaseMeter::default();
            let mut luts = Vec::new();
            with_u8_ctx(|ctx| {
                drim_ann::kernels::lc::run_bulk(
                    ctx,
                    &mut meter,
                    &residuals,
                    ngroups,
                    &codebooks,
                    m,
                    cb,
                    dsub,
                    sqt.as_mut(),
                    &mut luts,
                )
            });
            assert_eq!(luts.len(), ngroups * m * cb);
            for (e, &got) in luts.iter().enumerate() {
                let (g, s, j) = (e / (m * cb), e / cb % m, e % cb);
                let want = ann_core::distance::l2_sq_u8(
                    &residuals[(g * m + s) * dsub..][..dsub],
                    &codebooks[(s * cb + j) * dsub..][..dsub],
                );
                assert_eq!(got, want);
            }
            if let Some(t) = sqt {
                assert_eq!(
                    (t.hits_wram, t.hits_mram),
                    ((ngroups * m * cb * dsub) as u64, 0)
                );
            }
        }
    });
}

/// Blocked f32 distance and dot agree with the scalar references to
/// 1e-4 relative error for any length.
#[test]
fn blocked_f32_kernels_match_scalar() {
    check("blocked_f32_kernels_match_scalar", |rng| {
        let (a, b): (Vec<f32>, Vec<f32>) = vec_of(rng, 0..200, |rng| {
            (
                rng.gen_range(-100.0f32..100.0),
                rng.gen_range(-100.0f32..100.0),
            )
        })
        .into_iter()
        .unzip();
        let (d_blk, d_ref) = (
            ann_core::kernels::l2_sq_f32(&a, &b),
            ann_core::distance::l2_sq_f32(&a, &b),
        );
        let denom = d_ref.abs().max(1.0);
        assert!((d_blk - d_ref).abs() / denom <= 1e-4, "{d_blk} vs {d_ref}");
        let (p_blk, p_ref) = (
            ann_core::kernels::dot_f32(&a, &b),
            ann_core::distance::dot_f32(&a, &b),
        );
        let denom = p_ref.abs().max(1.0);
        assert!((p_blk - p_ref).abs() / denom <= 1e-4, "{p_blk} vs {p_ref}");
    });
}

/// `n` values drawn uniformly from `range`.
fn values(rng: &mut StdRng, n: usize, range: Range<f32>) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(range.clone())).collect()
}

/// The fused norm-decomposition batch kernel matches per-pair scalar
/// distances for any (dim, rows) shape, relative to the operand scale.
#[test]
fn fused_batch_matches_scalar() {
    check("fused_batch_matches_scalar", |rng| {
        let dim = rng.gen_range(1..40usize);
        let nrows = rng.gen_range(0..30usize);
        let q = values(rng, dim, -10.0..10.0);
        let rows = values(rng, dim * nrows, -10.0..10.0);
        let norms = ann_core::kernels::row_norms_f32(&rows, dim);
        let mut fused = Vec::new();
        ann_core::kernels::l2_sq_batch(&q, &rows, dim, &norms, &mut fused);
        assert_eq!(fused.len(), nrows);
        for (i, row) in rows.chunks_exact(dim).enumerate() {
            let exact = ann_core::distance::l2_sq_f32(&q, row);
            let scale = (norms[i] + exact).max(1.0);
            assert!(
                (fused[i] - exact).abs() / scale <= 1e-4,
                "dim {} row {}: {} vs {}",
                dim,
                i,
                fused[i],
                exact
            );
        }
    });
}

/// The tiled micro-kernel GEMM `A·Bᵀ` matches the naive dot-product
/// reference on arbitrary (including ragged/degenerate) shapes, to
/// reassociation error measured against the |A||B| operand scale.
#[test]
fn tiled_gemm_matches_naive() {
    use ann_core::linalg::Matrix;
    check("tiled_gemm_matches_naive", |rng| {
        let m = rng.gen_range(0..40usize);
        let k = rng.gen_range(0..40usize);
        let n = rng.gen_range(0..40usize);
        let a = Matrix::from_rows(m, k, values(rng, m * k, -10.0..10.0));
        let b = Matrix::from_rows(n, k, values(rng, n * k, -10.0..10.0));
        let tiled = a.view().matmul_t(&b.view());
        // reference dot-product A·Bᵀ
        let naive_of = |a: &Matrix, b: &Matrix| {
            let mut out = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    for p in 0..k {
                        out.data[i * n + j] += a.data[i * k + p] * b.data[j * k + p];
                    }
                }
            }
            out
        };
        let naive = naive_of(&a, &b);
        let abs = |x: &Matrix| {
            Matrix::from_rows(x.rows, x.cols, x.data.iter().map(|v| v.abs()).collect())
        };
        let scale = naive_of(&abs(&a), &abs(&b));
        for i in 0..tiled.data.len() {
            let s = scale.data[i].max(1.0);
            assert!(
                (tiled.data[i] - naive.data[i]).abs() / s <= 1e-5,
                "elem {}: {} vs {}",
                i,
                tiled.data[i],
                naive.data[i]
            );
        }
    });
}

/// GEMM batch purity: any column subset of `A·Bᵀ` is bit-identical to
/// the same columns of the full product — the property that makes
/// `lut_batch` rows bit-identical to per-query `lut()` and batched CL
/// bit-identical to per-query locate blocks.
#[test]
fn gemm_column_subsets_are_bit_pure() {
    use ann_core::linalg::{Matrix, MatrixView};
    check("gemm_column_subsets_are_bit_pure", |rng| {
        let m = rng.gen_range(1..30usize);
        let k = rng.gen_range(1..40usize);
        let n = rng.gen_range(1..30usize);
        let lo = rng.gen_range(0..30usize);
        let width = rng.gen_range(1..8usize);
        let a = Matrix::from_rows(m, k, values(rng, m * k, -1.0..1.0));
        let b = Matrix::from_rows(n, k, values(rng, n * k, -1.0..1.0));
        let full = a.view().matmul_t(&b.view());
        let lo = lo.min(n - 1);
        let hi = (lo + width).min(n);
        let sub = MatrixView::new(hi - lo, k, &b.data[lo * k..hi * k]);
        let part = a.view().matmul_t(&sub);
        for i in 0..m {
            for j in lo..hi {
                assert_eq!(part.get(i, j - lo).to_bits(), full.get(i, j).to_bits());
            }
        }
    });
}

/// In-batch dedup is invisible in results: for any duplication pattern
/// (none, partial, or total duplication of an 8-query pool) a
/// dedup-enabled engine returns bit-identical neighbors to a
/// dedup-disabled one and reports exactly the number of skipped
/// duplicate rows.
#[test]
fn in_batch_dedup_is_bit_invisible() {
    use drim_ann::engine::DrimEngine;
    // One engine pair for every case: builds dominate the search cost and
    // the engines are stateless across batches here.
    let data =
        datasets::synth::generate(&datasets::synth::SynthSpec::small("dedup-prop", 16, 256, 9));
    let index = IndexConfig {
        k: 5,
        nprobe: 4,
        nlist: 16,
        m: 4,
        cb: 16,
    };
    let mut on = DrimEngine::build(
        &data,
        EngineConfig::drim(index),
        Default::default(),
        8,
        None,
    )
    .unwrap();
    let mut cfg_off = EngineConfig::drim(index);
    cfg_off.dedup = false;
    let mut off = DrimEngine::build(&data, cfg_off, Default::default(), 8, None).unwrap();
    check("in_batch_dedup_is_bit_invisible", |rng| {
        let pattern = vec_of(rng, 1..24, |rng| rng.gen_range(0..8usize));
        let mut queries = ann_core::VecSet::with_capacity(16, pattern.len());
        for &i in &pattern {
            queries.push(data.get(i * 13));
        }
        let (r_on, rep_on) = on.search_batch(&queries);
        let (r_off, rep_off) = off.search_batch(&queries);
        assert_eq!(format!("{:?}", r_on), format!("{:?}", r_off));
        let distinct: std::collections::HashSet<usize> = pattern.iter().copied().collect();
        assert_eq!(rep_on.deduped, pattern.len() - distinct.len());
        assert_eq!(rep_on.queries, pattern.len());
        assert_eq!(rep_off.deduped, 0);
    });
}

/// The perf model is monotone: more probed clusters never cost less.
#[test]
fn perf_model_monotone_in_nprobe() {
    use drim_ann::perf_model::{BitWidths, WorkloadShape};
    check("perf_model_monotone_in_nprobe", |rng| {
        let nprobe = rng.gen_range(1..128usize);
        let extra = rng.gen_range(1..64usize);
        let mk = |p: usize| {
            WorkloadShape::new(
                1_000_000,
                100,
                64,
                &IndexConfig {
                    k: 10,
                    nprobe: p,
                    nlist: 1024,
                    m: 8,
                    cb: 64,
                },
                BitWidths::u8_regime(),
            )
        };
        let a = mk(nprobe);
        let b = mk(nprobe + extra);
        assert!(b.c_lc() >= a.c_lc());
        assert!(b.c_dc() >= a.c_dc());
        assert!(b.io_dc() >= a.io_dc());
    });
}
