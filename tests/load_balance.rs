//! Load-balance integration: the optimization stack must recover the
//! imbalance that skewed traffic induces (paper Figs. 13-14).

use drim_ann::config::{AllocPolicy, EngineConfig, IndexConfig, SchedPolicy};
use drim_ann::layout::{ClusterInfo, LayoutCounts, LayoutPlan};
use drim_ann::trace::{TraceRunner, TraceSpec};
use upmem_sim::PimArch;

fn hot_spec() -> TraceSpec {
    TraceSpec {
        name: "hot".into(),
        n_points: 2_000_000,
        dim: 64,
        batch: 256,
        cluster_size_zipf: 0.5,
        heat_zipf: 1.4,
        seed: 7,
    }
}

fn index() -> IndexConfig {
    IndexConfig {
        k: 10,
        nprobe: 16,
        nlist: 512,
        m: 8,
        cb: 64,
    }
}

fn pim_time(cfg: EngineConfig) -> (f64, f64) {
    let mut runner = TraceRunner::build(hot_spec(), cfg, PimArch::upmem_sc25(), 128);
    let rep = runner.run_batch(1);
    (rep.timing.pim_s(), rep.imbalance)
}

#[test]
fn each_optimization_layer_helps() {
    let naive = EngineConfig::naive(index());
    let mut alloc = EngineConfig::naive(index());
    alloc.allocation = AllocPolicy::HeatBalanced;
    let mut alloc_part = alloc.clone();
    alloc_part.partition = true;
    let mut alloc_part_dup = alloc_part.clone();
    alloc_part_dup.duplication = true;
    alloc_part_dup.scheduling = SchedPolicy::Greedy;

    let (t_naive, imb_naive) = pim_time(naive);
    let (t_alloc, _) = pim_time(alloc);
    let (t_part, _) = pim_time(alloc_part);
    let (t_full, imb_full) = pim_time(alloc_part_dup);

    assert!(t_alloc < t_naive, "allocation: {t_alloc} !< {t_naive}");
    assert!(
        t_part <= t_alloc * 1.02,
        "partition: {t_part} !<= {t_alloc}"
    );
    assert!(t_full <= t_part * 1.02, "dup+sched: {t_full} !<= {t_part}");
    // overall speedup should be substantial under this skew
    assert!(
        t_naive / t_full > 2.0,
        "overall load-balance speedup {} too small",
        t_naive / t_full
    );
    assert!(imb_full < imb_naive, "imbalance {imb_full} !< {imb_naive}");
}

#[test]
fn duplication_budget_saturates() {
    // Fig 14b: speedup grows with the duplicate budget then saturates
    let base = {
        let mut c = EngineConfig::drim(index());
        c.duplication = false;
        c
    };
    let (t_nodup, _) = pim_time(base.clone());
    let speedup_at = |kb: u64| {
        let mut c = base.clone();
        c.duplication = true;
        c.dup_budget_bytes = Some(kb << 10);
        let (t, _) = pim_time(c);
        t_nodup / t
    };
    let s_small = speedup_at(4);
    let s_big = speedup_at(4096);
    let s_huge = speedup_at(16384);
    assert!(
        s_big >= s_small * 0.98,
        "more budget should help: {s_small} -> {s_big}"
    );
    // saturation: quadrupling the budget again changes little
    assert!(
        (s_huge / s_big) < 1.3,
        "saturation expected: {s_big} -> {s_huge}"
    );
}

#[test]
fn th3_postponement_bounds_the_tail() {
    // duplication off: with a single replica per slice the scheduler cannot
    // spread hot clusters, so th3 is the only tail control — the regime
    // where postponement visibly engages
    let mut eager = EngineConfig::drim(index());
    eager.duplication = false;
    eager.th3 = f64::INFINITY; // never postpone
    let mut bounded = EngineConfig::drim(index());
    bounded.duplication = false;
    bounded.th3 = 0.10;

    let mut runner_e = TraceRunner::build(hot_spec(), eager, PimArch::upmem_sc25(), 128);
    let mut runner_b = TraceRunner::build(hot_spec(), bounded, PimArch::upmem_sc25(), 128);
    let rep_e = runner_e.run_batch(1);
    let rep_b = runner_b.run_batch(1);
    // the bounded schedule postpones something under this skew...
    assert!(rep_b.postponed > 0, "expected postponed tasks");
    // ...and must not be slower overall (postponed work still executes)
    assert!(rep_b.timing.pim_s() <= rep_e.timing.pim_s() * 1.10);
}

#[test]
fn static_scheduling_wastes_replicas() {
    let mut greedy = EngineConfig::drim(index());
    greedy.scheduling = SchedPolicy::Greedy;
    let mut fixed = EngineConfig::drim(index());
    fixed.scheduling = SchedPolicy::Static;
    let (t_greedy, _) = pim_time(greedy);
    let (t_static, _) = pim_time(fixed);
    assert!(
        t_greedy < t_static,
        "greedy {t_greedy} should beat static {t_static}"
    );
}

/// FNV-1a over every field of `plan`, each list prefixed by its length:
/// the slices (cluster, start, length, heat bits), every slice's homes in
/// placement order, every DPU's and every cluster's slice list, and `th1`.
fn layout_digest(plan: &LayoutPlan) -> u64 {
    let mut words = vec![plan.slices.len() as u64];
    for s in &plan.slices {
        words.extend([
            s.cluster as u64,
            s.start as u64,
            s.len as u64,
            s.heat.to_bits(),
        ]);
    }
    for table in [&plan.slice_homes, &plan.dpu_slices, &plan.cluster_slices] {
        words.push(table.len() as u64);
        for list in table {
            words.push(list.len() as u64);
            words.extend(list.iter().map(|&x| x as u64));
        }
    }
    words.push(plan.th1 as u64);
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `trace_paper`'s deployment: SIFT100M shapes, the paper's index, 2,543
/// DPUs.
fn paper_runner(seed: u64) -> TraceRunner {
    let mut spec = TraceSpec::for_dataset(&datasets::catalog::sift100m(), 2500);
    spec.seed = seed;
    let cfg = EngineConfig::drim(IndexConfig::paper_default());
    TraceRunner::build(spec, cfg, PimArch::upmem_sc25(), 2543)
}

/// The paper-scale layout is pinned bit for bit at three seeds and two
/// pool widths, and its decision counts at seed 1: a faster planner must
/// still cut, copy and place every slice where the reference greedy passes
/// do.
#[test]
fn paper_layouts_match_their_pins() {
    const PINS: [(u64, u64); 3] = [
        (1, 0x8411_5190_778b_d117),
        (7, 0x3a53_2865_2ca9_97ea),
        (42, 0xe467_b4b7_0c65_f0cb),
    ];
    for (seed, want) in PINS {
        for threads in [1, 2] {
            let runner = rayon::with_num_threads(threads, || paper_runner(seed));
            let got = layout_digest(&runner.layout);
            assert_eq!(got, want, "seed {seed} at {threads} threads: {got:#x}");
            if seed == 1 {
                let counts = runner.layout_profile().counts;
                let want = LayoutCounts {
                    th1_evaluated: 10,
                    copies_granted: 94_750,
                    budget_stops: 16_388,
                    swaps: 3,
                    ..LayoutCounts::default()
                };
                assert_eq!(counts, want, "{threads} threads");
            }
        }
    }
}

/// 80 clusters of 200-440 points, then 8 cold ones of 1,300, on 32 DPUs
/// of 1,700 bytes at one byte a point, cut at 1,300 points: the cold
/// clusters find no DPU with room for their first copy (the fallback onto
/// the DPU with the fewest bytes), and some duplicates find none either.
fn tight_clusters() -> Vec<ClusterInfo> {
    (0..88u32)
        .map(|i| {
            let (points, heat) = if i >= 80 {
                (1_300, 1.0)
            } else {
                let heat = f64::from((i * 29 + 11) % 80 + 1).powi(2);
                (200 + (i as usize * 53 % 7) * 40, heat)
            };
            ClusterInfo {
                id: i,
                points,
                heat,
            }
        })
        .collect()
}

#[test]
fn tight_layout_matches_its_pin() {
    let cs = tight_clusters();
    let mut cfg = EngineConfig::drim(index());
    cfg.split_granularity = Some(1_300);
    let (plan, prof) = LayoutPlan::build(&cs, 32, &cfg, 1, 1_700, |len| len as f64 + 64.0);
    plan.validate(&cs).unwrap();
    assert_eq!(layout_digest(&plan), 0xc31d_5dfa_0dc1_3d1b);
    let want = LayoutCounts {
        copies_granted: 59,
        budget_stops: 88,
        dropped_copies: 4,
        capacity_fallbacks: 8,
        ..LayoutCounts::default()
    };
    assert_eq!(prof.counts, want);
}

/// Sixteen equally hot clusters of 1,000 points and a duplicate budget of
/// twelve copies: among equal scores the lower slice index goes first.
#[test]
fn tied_duplicates_go_to_the_lower_index() {
    let cs: Vec<ClusterInfo> = (0..16)
        .map(|id| ClusterInfo {
            id,
            points: 1_000,
            heat: 10.0,
        })
        .collect();
    let mut cfg = EngineConfig::drim(index());
    cfg.partition = false;
    cfg.dup_budget_bytes = Some(1_500);
    let (plan, prof) = LayoutPlan::build(&cs, 8, &cfg, 1, 1 << 20, |len| len as f64);
    let copies: Vec<usize> = plan.slice_homes.iter().map(Vec::len).collect();
    assert_eq!(copies, [vec![2; 12], vec![1; 4]].concat());
    let want = LayoutCounts {
        copies_granted: 12,
        budget_stops: 16,
        ..LayoutCounts::default()
    };
    assert_eq!(prof.counts, want);
}

#[test]
fn round_robin_and_unpartitioned_layouts_match_their_pins() {
    let mut rr = EngineConfig::drim(index());
    rr.allocation = AllocPolicy::RoundRobin;
    let mut whole = EngineConfig::drim(index());
    whole.partition = false;
    for (cfg, want, granted, budget_stops) in [
        (rr, 0x8a26_e11e_5bd9_49f4, 15_869, 467),
        (whole, 0x436d_1e86_0a1d_9d57, 15_235, 464),
    ] {
        let th1_evaluated = if cfg.partition { 9 } else { 0 };
        let runner = TraceRunner::build(hot_spec(), cfg, PimArch::upmem_sc25(), 128);
        assert_eq!(layout_digest(&runner.layout), want);
        let counts = LayoutCounts {
            th1_evaluated,
            copies_granted: granted,
            budget_stops,
            saturated_stops: 48,
            ..LayoutCounts::default()
        };
        assert_eq!(runner.layout_profile().counts, counts);
    }
}
