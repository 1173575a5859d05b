//! Property-based invariants across crates (proptest).

use ann_core::topk::{merge_topk, BoundedMaxHeap, Neighbor};
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::layout::{ClusterInfo, LayoutPlan};
use drim_ann::sched::{expand_tasks, schedule, schedule_filtered, Policy, SchedulePlan, Task};
use proptest::prelude::*;

fn arb_clusters() -> impl Strategy<Value = Vec<ClusterInfo>> {
    prop::collection::vec((1usize..2000, 0.0f64..100.0), 1..40).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (points, heat))| ClusterInfo {
                id: i as u32,
                points,
                heat: heat + 0.01,
            })
            .collect()
    })
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
fn arb_tied_clusters() -> impl Strategy<Value = Vec<ClusterInfo>> {
    const POINTS: [usize; 4] = [64, 64, 300, 1200];
    prop::collection::vec((0usize..4, 0.0f64..100.0), 1..40).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (p, heat))| ClusterInfo {
                id: i as u32,
                points: POINTS[p],
                heat: heat + 0.01,
            })
            .collect()
    })
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
/// lengths, a few coarse steps for the rest.
fn tied_cost(len: usize) -> f64 {
    match len % 5 {
        0 => 0.0,
        1 => -0.0,
        _ => (len / 200) as f64 + 0.5,
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every layout covers every cluster exactly once, copies live on
    /// distinct DPUs, and per-DPU bytes respect the budget.
    #[test]
    fn layout_conservation(clusters in arb_clusters(),
                           ndpus in 1usize..32,
                           partition in any::<bool>(),
                           duplication in any::<bool>()) {
        let total_points: usize = clusters.iter().map(|c| c.points).sum();
        let budget = ((total_points * 8 / ndpus) as u64 + 4096) * 2;
        let plan = LayoutPlan::build(&clusters, ndpus, &engine_cfg(partition, duplication), 8, budget, |len| len as f64).0;
        prop_assert!(plan.validate(&clusters).is_ok(), "{:?}", plan.validate(&clusters));
        // duplicates never exceed one copy per DPU
        for homes in &plan.slice_homes {
            prop_assert!(homes.len() <= ndpus);
        }
    }

    /// The scheduler never loses or duplicates a task, and every task runs
    /// on a DPU that hosts its slice.
    #[test]
    fn scheduler_conservation(clusters in arb_clusters(),
                              ndpus in 1usize..16,
                              nq in 1usize..20,
                              th3 in prop::option::of(0.01f64..2.0)) {
        let plan = LayoutPlan::build(&clusters, ndpus, &engine_cfg(true, true), 8, u64::MAX / 2, |len| len as f64).0;
        let probes: Vec<Vec<u32>> = (0..nq)
            .map(|q| {
                let a = (q % clusters.len()) as u32;
                let b = ((q * 7 + 3) % clusters.len()) as u32;
                if a == b { vec![a] } else { vec![a, b] }
            })
            .collect();
        let tasks = expand_tasks(&probes, &plan, |len| len as f64 + 1.0);
        let policy = match th3 {
            Some(t) => Policy::Greedy { th3: t },
            None => Policy::Static,
        };
        let sp = schedule(&tasks, &plan, ndpus, policy);
        prop_assert_eq!(sp.scheduled() + sp.postponed.len(), tasks.len());
        for (d, ts) in sp.per_dpu.iter().enumerate() {
            for t in ts {
                prop_assert!(plan.slice_homes[t.slice as usize].contains(&d));
            }
        }
    }

    /// The greedy policy places exactly what its first form (below) placed:
    /// per-DPU task order, postponed and unplaceable tasks and final heat,
    /// bit for bit, over tied and signed-zero costs, tied heats,
    /// pre-existing heat, ban masks (short ones too) and finite or infinite
    /// `th3`.
    #[test]
    fn greedy_matches_its_reference(clusters in arb_clusters(),
                                    ndpus in 1usize..16,
                                    raw in prop::collection::vec((0usize..1000, 0usize..8, 0.0f64..4.0), 0..300),
                                    heat0 in prop::option::of(prop::collection::vec(0usize..4, 1..16)),
                                    banned in prop::option::of(prop::collection::vec(any::<bool>(), 0..20)),
                                    th3 in prop::option::of(0.0f64..1.5)) {
        let plan = LayoutPlan::build(&clusters, ndpus, &engine_cfg(true, true), 8, u64::MAX / 2, |len| len as f64).0;
        // half the costs and every initial heat from a tie-prone palette
        const TIED: [f64; 4] = [0.0, -0.0, 1.0, 2.5];
        let tasks: Vec<Task> = raw
            .iter()
            .enumerate()
            .map(|(q, &(s, c, x))| Task {
                query: q as u32 % 7,
                slice: (s % plan.slices.len()) as u32,
                cost: TIED.get(c).copied().unwrap_or(x),
            })
            .collect();
        let heat0: Option<Vec<f64>> = heat0.map(|h| (0..ndpus).map(|d| TIED[h[d % h.len()]]).collect());
        let th3 = th3.unwrap_or(f64::INFINITY);
        let policy = Policy::Greedy { th3 };
        let got = schedule_filtered(&tasks, &plan, ndpus, policy, heat0.as_deref(), banned.as_deref());
        let want = greedy_reference(&tasks, &plan, ndpus, th3, heat0.as_deref(), banned.as_deref());
        prop_assert_eq!(plan_bits(&got), plan_bits(&want));
    }

    /// `expand_tasks` emits the query-major task list stably sorted by
    /// descending cost: non-increasing in cost, query-major among equal
    /// costs (`-0.0` equal to `0.0`), every cost bit as `cost_of` gave it.
    #[test]
    fn expand_tasks_emits_lpt_order(clusters in arb_tied_clusters(),
                                    ndpus in 1usize..16,
                                    probes in prop::collection::vec(prop::collection::vec(0u32..64, 0..6), 0..30)) {
        let plan = LayoutPlan::build(&clusters, ndpus, &engine_cfg(true, true), 8, u64::MAX / 2, |len| len as f64).0;
        let n = clusters.len() as u32;
        let probes: Vec<Vec<u32>> = probes.iter().map(|p| p.iter().map(|&c| c % n).collect()).collect();
        let got = expand_tasks(&probes, &plan, tied_cost);
        let mut want = query_major(&probes, &plan, tied_cost);
        want.sort_by(|a, b| b.cost.partial_cmp(&a.cost).unwrap());
        let bits = |ts: &[Task]| ts.iter().map(|t| (t.query, t.slice, t.cost.to_bits())).collect::<TaskBits>();
        prop_assert_eq!(bits(&got), bits(&want));
        for w in got.windows(2) {
            prop_assert!(w[0].cost >= w[1].cost);
            if w[0].cost == w[1].cost {
                prop_assert!(w[0].query <= w[1].query);
            }
        }
    }

    /// Scheduling `expand_tasks`' output places exactly what the first
    /// greedy scheduler placed from the query-major list: per-DPU order,
    /// postponed and unplaceable tasks and final heat, bit for bit, with
    /// ties across equal slices, initial heat, ban masks and finite `th3`.
    #[test]
    fn greedy_order_survives_expansion(clusters in arb_tied_clusters(),
                                       ndpus in 1usize..16,
                                       probes in prop::collection::vec(prop::collection::vec(0u32..64, 1..6), 1..30),
                                       heat0 in prop::option::of(prop::collection::vec(0usize..4, 1..16)),
                                       banned in prop::option::of(prop::collection::vec(any::<bool>(), 0..20)),
                                       th3 in prop::option::of(0.0f64..1.5)) {
        let plan = LayoutPlan::build(&clusters, ndpus, &engine_cfg(true, true), 8, u64::MAX / 2, |len| len as f64).0;
        let n = clusters.len() as u32;
        let probes: Vec<Vec<u32>> = probes.iter().map(|p| p.iter().map(|&c| c % n).collect()).collect();
        const TIED: [f64; 4] = [0.0, -0.0, 1.0, 2.5];
        let heat0: Option<Vec<f64>> = heat0.map(|h| (0..ndpus).map(|d| TIED[h[d % h.len()]]).collect());
        let th3 = th3.unwrap_or(f64::INFINITY);
        let got = schedule_filtered(&expand_tasks(&probes, &plan, tied_cost), &plan, ndpus,
                                    Policy::Greedy { th3 }, heat0.as_deref(), banned.as_deref());
        let want = greedy_reference(&query_major(&probes, &plan, tied_cost), &plan, ndpus, th3,
                                    heat0.as_deref(), banned.as_deref());
        prop_assert_eq!(plan_bits(&got), plan_bits(&want));
    }

    /// Bounded heap == sorted truncation of a full sort, for any input.
    #[test]
    fn bounded_heap_is_partial_sort(dists in prop::collection::vec(0.0f32..1e6, 1..300),
                                    k in 1usize..50) {
        let mut heap = BoundedMaxHeap::new(k);
        for (i, &d) in dists.iter().enumerate() {
            heap.push(Neighbor::new(i as u64, d));
        }
        let got: Vec<f32> = heap.into_sorted().iter().map(|n| n.dist).collect();
        let mut sorted = dists.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.truncate(k);
        prop_assert_eq!(got, sorted);
    }

    /// Merging per-DPU top-k lists equals the deduplicated top-k of the
    /// union (merge_topk keeps each id once — replicated slices may report
    /// the same vector from two DPUs; first-seen occurrence wins, matching
    /// the merge's scan order).
    #[test]
    fn merge_topk_equals_global(lists in prop::collection::vec(
            prop::collection::vec((0u64..1000, 0.0f32..1e6), 0..40), 1..6),
        k in 1usize..20) {
        let lists: Vec<Vec<Neighbor>> = lists
            .into_iter()
            .map(|l| l.into_iter().map(|(id, d)| Neighbor::new(id, d)).collect())
            .collect();
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
        prop_assert_eq!(got, want);
    }

    /// The SQT is lossless over the whole signed-diff domain: a one-entry
    /// LUT built through it is `diff²` exactly.
    #[test]
    fn sqt_lossless(diff in -255i32..=255) {
        let (residual, codeword) = ([diff.max(0) as u8], [(-diff).max(0) as u8]);
        let placement = drim_ann::wram::WramPlacement::none();
        let costs = upmem_sim::IsaCosts::upmem();
        let ctx = drim_ann::kernels::KernelCtx {
            costs: &costs,
            dma_burst: 8,
            bits: drim_ann::config::DataBits::B8,
            placement: &placement,
        };
        let mut sqt = drim_ann::sqt::Sqt::for_u8();
        let mut meter = upmem_sim::meter::PhaseMeter::default();
        let mut lut = Vec::new();
        drim_ann::kernels::lc::run_bulk(
            &ctx, &mut meter, &residual, 1, &codeword, 1, 1, 1, Some(&mut sqt), &mut lut,
        );
        prop_assert_eq!(lut, vec![(diff * diff) as u32]);
        prop_assert_eq!((sqt.hits_wram, sqt.hits_mram), (1, 0));
    }

    /// Zipf partitions conserve mass for any shape.
    #[test]
    fn zipf_partition_conserves(total in 1usize..100_000,
                                n in 1usize..256,
                                s in 0.0f64..2.0) {
        let sizes = datasets::zipf::zipf_partition(total, n, s);
        prop_assert_eq!(sizes.iter().sum::<usize>(), total);
        if total >= n {
            prop_assert!(sizes.iter().all(|&x| x >= 1));
        }
    }

    /// Scalar quantization round-trip error is bounded by half a step.
    #[test]
    fn quantizer_error_bounded(vals in prop::collection::vec(-1000.0f32..1000.0, 2..100)) {
        let set = ann_core::VecSet::from_flat(1, vals.clone());
        let q = ann_core::quantize::ScalarQuantizer::fit_u8(&set);
        for &v in &vals {
            let err = (q.decode(q.encode(v)) - v).abs();
            prop_assert!(err <= q.max_error() + 1e-3, "v={v} err={err}");
        }
    }

    /// The bulk LC build is bit-exact against the scalar u8 distance for
    /// any shape, with the SQT or without, and an 8-bit SQT serves every
    /// one of its lookups from WRAM.
    #[test]
    fn lc_lut_is_exact(m in 1usize..5, cb in 2usize..40, dsub in 1usize..10,
                       ngroups in 1usize..4, seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut bytes = |n: usize| -> Vec<u8> { (0..n).map(|_| rng.gen_range(0u32..256) as u8).collect() };
        let codebooks = bytes(m * cb * dsub);
        let residuals = bytes(ngroups * m * dsub);
        let placement = drim_ann::wram::WramPlacement::none();
        let costs = upmem_sim::IsaCosts::upmem();
        let ctx = drim_ann::kernels::KernelCtx {
            costs: &costs,
            dma_burst: 8,
            bits: drim_ann::config::DataBits::B8,
            placement: &placement,
        };
        for use_sqt in [false, true] {
            let mut sqt = use_sqt.then(drim_ann::sqt::Sqt::for_u8);
            let mut meter = upmem_sim::meter::PhaseMeter::default();
            let mut luts = Vec::new();
            drim_ann::kernels::lc::run_bulk(
                &ctx, &mut meter, &residuals, ngroups, &codebooks, m, cb, dsub, sqt.as_mut(), &mut luts,
            );
            prop_assert_eq!(luts.len(), ngroups * m * cb);
            for (e, &got) in luts.iter().enumerate() {
                let (g, s, j) = (e / (m * cb), e / cb % m, e % cb);
                let want = ann_core::distance::l2_sq_u8(
                    &residuals[(g * m + s) * dsub..][..dsub],
                    &codebooks[(s * cb + j) * dsub..][..dsub],
                );
                prop_assert_eq!(got, want);
            }
            if let Some(t) = sqt {
                prop_assert_eq!((t.hits_wram, t.hits_mram), ((ngroups * m * cb * dsub) as u64, 0));
            }
        }
    }

    /// Blocked f32 distance and dot agree with the scalar references to
    /// 1e-4 relative error for any length.
    #[test]
    fn blocked_f32_kernels_match_scalar(v in prop::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 0..200)) {
        let (a, b): (Vec<f32>, Vec<f32>) = v.into_iter().unzip();
        let (d_blk, d_ref) = (
            ann_core::kernels::l2_sq_f32(&a, &b),
            ann_core::distance::l2_sq_f32(&a, &b),
        );
        let denom = d_ref.abs().max(1.0);
        prop_assert!((d_blk - d_ref).abs() / denom <= 1e-4, "{d_blk} vs {d_ref}");
        let (p_blk, p_ref) = (
            ann_core::kernels::dot_f32(&a, &b),
            ann_core::distance::dot_f32(&a, &b),
        );
        let denom = p_ref.abs().max(1.0);
        prop_assert!((p_blk - p_ref).abs() / denom <= 1e-4, "{p_blk} vs {p_ref}");
    }

    /// The fused norm-decomposition batch kernel matches per-pair scalar
    /// distances for any (dim, rows) shape, relative to the operand scale.
    #[test]
    fn fused_batch_matches_scalar(dim in 1usize..40, nrows in 0usize..30, seed in 0u64..1000) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / u32::MAX as f32) * 20.0 - 10.0
        };
        let q: Vec<f32> = (0..dim).map(|_| next()).collect();
        let rows: Vec<f32> = (0..dim * nrows).map(|_| next()).collect();
        let norms = ann_core::kernels::row_norms_f32(&rows, dim);
        let mut fused = Vec::new();
        ann_core::kernels::l2_sq_batch(&q, &rows, dim, &norms, &mut fused);
        prop_assert_eq!(fused.len(), nrows);
        for (i, row) in rows.chunks_exact(dim).enumerate() {
            let exact = ann_core::distance::l2_sq_f32(&q, row);
            let scale = (norms[i] + exact).max(1.0);
            prop_assert!((fused[i] - exact).abs() / scale <= 1e-4,
                "dim {} row {}: {} vs {}", dim, i, fused[i], exact);
        }
    }

    /// The tiled micro-kernel GEMM `A·Bᵀ` matches the naive dot-product
    /// reference on arbitrary (including ragged/degenerate) shapes, to
    /// reassociation error measured against the |A||B| operand scale.
    #[test]
    fn tiled_gemm_matches_naive(m in 0usize..40, k in 0usize..40, n in 0usize..40, seed in 0u64..1000) {
        use ann_core::linalg::Matrix;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / u32::MAX as f32) * 20.0 - 10.0
        };
        let a = Matrix::from_rows(m, k, (0..m * k).map(|_| next()).collect());
        let b = Matrix::from_rows(n, k, (0..n * k).map(|_| next()).collect());
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
        let abs = |x: &Matrix| Matrix::from_rows(x.rows, x.cols, x.data.iter().map(|v| v.abs()).collect());
        let scale = naive_of(&abs(&a), &abs(&b));
        for i in 0..tiled.data.len() {
            let s = scale.data[i].max(1.0);
            prop_assert!((tiled.data[i] - naive.data[i]).abs() / s <= 1e-5,
                "elem {}: {} vs {}", i, tiled.data[i], naive.data[i]);
        }
    }

    /// GEMM batch purity: any column subset of `A·Bᵀ` is bit-identical to
    /// the same columns of the full product — the property that makes
    /// `lut_batch` rows bit-identical to per-query `lut()` and batched CL
    /// bit-identical to per-query locate blocks.
    #[test]
    fn gemm_column_subsets_are_bit_pure(m in 1usize..30, k in 1usize..40, n in 1usize..30,
                                        lo in 0usize..30, width in 1usize..8, seed in 0u64..1000) {
        use ann_core::linalg::{Matrix, MatrixView};
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
        };
        let a = Matrix::from_rows(m, k, (0..m * k).map(|_| next()).collect());
        let b = Matrix::from_rows(n, k, (0..n * k).map(|_| next()).collect());
        let full = a.view().matmul_t(&b.view());
        let lo = lo.min(n - 1);
        let hi = (lo + width).min(n);
        let sub = MatrixView::new(hi - lo, k, &b.data[lo * k..hi * k]);
        let part = a.view().matmul_t(&sub);
        for i in 0..m {
            for j in lo..hi {
                prop_assert_eq!(part.get(i, j - lo).to_bits(), full.get(i, j).to_bits());
            }
        }
    }

    /// In-batch dedup is invisible in results: for any duplication pattern
    /// (none, partial, or total duplication of an 8-query pool) a
    /// dedup-enabled engine returns bit-identical neighbors to a
    /// dedup-disabled one and reports exactly the number of skipped
    /// duplicate rows.
    #[test]
    fn in_batch_dedup_is_bit_invisible(pattern in prop::collection::vec(0usize..8, 1..24)) {
        use drim_ann::engine::DrimEngine;
        use std::sync::{Mutex, OnceLock};
        // One engine pair shared across cases: builds dominate the search
        // cost and the engines are stateless across batches here.
        static STATE: OnceLock<Mutex<(DrimEngine, DrimEngine, ann_core::VecSet<f32>)>> =
            OnceLock::new();
        let state = STATE.get_or_init(|| {
            let data = datasets::synth::generate(
                &datasets::synth::SynthSpec::small("dedup-prop", 16, 256, 9));
            let index = IndexConfig { k: 5, nprobe: 4, nlist: 16, m: 4, cb: 16 };
            let on = DrimEngine::build(&data, EngineConfig::drim(index),
                Default::default(), 8, None).unwrap();
            let mut cfg_off = EngineConfig::drim(index);
            cfg_off.dedup = false;
            let off = DrimEngine::build(&data, cfg_off, Default::default(), 8, None).unwrap();
            Mutex::new((on, off, data))
        });
        let mut g = state.lock().unwrap();
        let (on, off, data) = &mut *g;
        let mut queries = ann_core::VecSet::with_capacity(16, pattern.len());
        for &i in &pattern {
            queries.push(data.get(i * 13));
        }
        let (r_on, rep_on) = on.search_batch(&queries);
        let (r_off, rep_off) = off.search_batch(&queries);
        prop_assert_eq!(format!("{:?}", r_on), format!("{:?}", r_off));
        let distinct: std::collections::HashSet<usize> = pattern.iter().copied().collect();
        prop_assert_eq!(rep_on.deduped, pattern.len() - distinct.len());
        prop_assert_eq!(rep_on.queries, pattern.len());
        prop_assert_eq!(rep_off.deduped, 0);
    }

    /// The perf model is monotone: more probed clusters never cost less.
    #[test]
    fn perf_model_monotone_in_nprobe(nprobe in 1usize..128, extra in 1usize..64) {
        use drim_ann::perf_model::{BitWidths, WorkloadShape};
        let mk = |p: usize| WorkloadShape::new(
            1_000_000, 100, 64,
            &IndexConfig { k: 10, nprobe: p, nlist: 1024, m: 8, cb: 64 },
            BitWidths::u8_regime(),
        );
        let a = mk(nprobe);
        let b = mk(nprobe + extra);
        prop_assert!(b.c_lc() >= a.c_lc());
        prop_assert!(b.c_dc() >= a.c_dc());
        prop_assert!(b.io_dc() >= a.io_dc());
    }
}
