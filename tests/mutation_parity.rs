//! The stateful model test: seeded and scripted op sequences over a live
//! engine — inserts (new ids, re-inserts), deletes (live, unknown, dead),
//! maintenance, uniform faults at 1/15/25%, mid-run rank kills, clearing,
//! fault-batch advances and MRAM exhaustion.
//!
//! After every op the epoch moved by exactly what the op's contract says,
//! the slices tile the lists and every DPU's MRAM accounts its windows. At
//! every `Check` the engine answers bit for bit like a fault-free engine
//! built over the same logical corpus (the once-trained index, cloned, with
//! the logical inserts and deletes replayed), and its results and report
//! are identical at 1 and 4 host threads (and at 2 and 8 while faults are
//! armed). That holds because mutation changes only the physical layout
//! (the TS prune is tie-inclusive, DC scans every candidate, the merge is
//! partition-invariant) and the host fallback replays the exact kernel
//! path.
//!
//! A failing sequence is shrunk (drop one op at a time, then halve) and
//! printed with its seed.

use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use ann_core::topk::Neighbor;
use ann_core::vector::VecSet;
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::{DrimEngine, MaintenanceReport, MutationError};
use drim_ann::layout::heat::cluster_heat;
use drim_ann::report::BatchReport;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rayon::with_num_threads;
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use upmem_sim::fault::{FaultConfig, FaultInjector};
use upmem_sim::PimArch;

const NDPUS: usize = 8;
/// 8 DPUs in 4 ranks of 2 under every rank kill.
const DPUS_PER_RANK: usize = 2;
const FAULT_SEED: u64 = 0xFA17_5EED;
/// MRAM bytes of a stored point: `m` one-byte codes and a `u32` id.
const BYTES_PER_POINT: u64 = 8 + 4;

fn cfg() -> EngineConfig {
    EngineConfig::drim(IndexConfig {
        k: 10,
        nprobe: 8,
        nlist: 32,
        m: 8,
        cb: 16,
    })
}

/// The corpus, the queries every check runs, new vectors to stream in,
/// and the index trained once over the corpus.
struct World {
    data: VecSet<f32>,
    queries: VecSet<f32>,
    fresh: VecSet<f32>,
    index: IvfPqIndex,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let spec = datasets::SynthSpec::small("mutation-parity", 16, 1500, 31);
        let data = datasets::generate(&spec);
        let skew = datasets::queries::QuerySkew::InDistribution;
        let fresh = datasets::SynthSpec::small("mutation-parity-new", 16, 256, 77);
        let c = cfg().index;
        World {
            index: IvfPqIndex::build(&data, &IvfPqParams::new(c.nlist).m(c.m).cb(c.cb)),
            queries: datasets::queries::generate_queries(&spec, 24, skew, 4),
            fresh: datasets::generate(&fresh),
            data,
        }
    })
}

/// One step of a model sequence.
#[derive(Clone, Debug)]
enum Op {
    Insert(u32, Vec<f32>),
    Delete(u32),
    Maintain,
    InjectFaults(FaultConfig),
    ClearFaults,
    SetFaultBatch(u64),
    /// Fill (`true`) or free (`false`) every DPU's remaining MRAM.
    ExhaustMram(bool),
    Check,
}

/// How often a run took each path, by name.
type Tally = BTreeMap<&'static str, usize>;

fn count(tally: &mut Tally, path: &'static str, n: usize) {
    *tally.entry(path).or_default() += n;
}

/// The engine under test beside its logical state.
struct Model {
    cfg: EngineConfig,
    engine: DrimEngine,
    /// The trained index with the logical inserts and deletes replayed.
    mirror: IvfPqIndex,
    exhausted: bool,
    tally: Tally,
    maintained: Vec<MaintenanceReport>,
    checks: Vec<(Vec<Vec<Neighbor>>, BatchReport)>,
}

fn build(index: IvfPqIndex, cfg: &EngineConfig) -> DrimEngine {
    let (arch, data) = (PimArch::upmem_sc25(), &world().data);
    DrimEngine::from_index(index, data, cfg.clone(), arch, NDPUS, None).expect("engine build")
}

/// Bit-exact key for a result set: ids plus raw f32 distance bits.
fn result_bits(rs: &[Vec<Neighbor>]) -> Vec<Vec<(u64, u32)>> {
    rs.iter()
        .map(|l| l.iter().map(|n| (n.id, n.dist.to_bits())).collect())
        .collect()
}

/// The slices tile every list exactly (they are windows into it, so a gap
/// or an overlap is a lost or a doubled point), and every DPU's MRAM
/// accounts exactly the windows it hosts.
fn assert_layout(e: &DrimEngine) {
    let lists = cluster_heat(&e.ivf.cluster_sizes(), None, e.cfg.index.nprobe);
    e.layout.validate(&lists).expect("slices tile the lists");
    let dpus = &e.system.dpus;
    let held: Vec<u64> = dpus.iter().map(|d| d.mram.segment("slices")).collect();
    let windows = e.layout.dpu_bytes(BYTES_PER_POINT);
    assert_eq!(held, windows, "MRAM of the windows");
}

/// Everything a refused insert must leave as it was.
fn snapshot(e: &DrimEngine) -> String {
    let counts = (e.epoch(), e.live_len(), e.pending_tombstones());
    let pushed = e.mutation_push_bytes();
    let lists = (
        e.ivf.cluster_sizes(),
        &e.layout.slices,
        &e.layout.slice_homes,
    );
    format!("{counts:?} {pushed} {lists:?}")
}

impl Model {
    fn new(cfg: EngineConfig) -> Model {
        Model {
            engine: build(world().index.clone(), &cfg),
            cfg,
            mirror: world().index.clone(),
            exhausted: false,
            tally: Tally::new(),
            maintained: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Apply one op; returns the epoch bumps its contract prescribes.
    fn step(&mut self, op: &Op) -> u64 {
        let e = &mut self.engine;
        match op {
            Op::Insert(id, v) => {
                let (before, pushed) = (snapshot(e), e.mutation_push_bytes());
                let was_live = self.mirror.lists.iter().any(|l| l.ids.contains(id));
                match e.insert(*id, v) {
                    Ok(()) => {
                        assert!(!was_live, "live id {id} inserted twice");
                        assert!(e.mutation_push_bytes() > pushed, "appends are metered");
                        self.mirror.insert(*id, v);
                        1
                    }
                    Err(err) => {
                        match err {
                            MutationError::MramFull(_) if self.exhausted => {
                                count(&mut self.tally, "MramFull", 1)
                            }
                            MutationError::DuplicateId(_) if was_live => {}
                            other => panic!("unexpected insert error: {other}"),
                        }
                        assert_eq!(snapshot(e), before, "a refused insert changes nothing");
                        0
                    }
                }
            }
            Op::Delete(id) => {
                let was_live = self.mirror.remove(*id);
                assert_eq!(e.delete(*id), was_live, "delete({id})");
                was_live as u64
            }
            Op::Maintain => {
                let pushed = e.mutation_push_bytes();
                let rep = e.maintain();
                // every moved byte is metered, and migrations always move
                assert_eq!(e.mutation_push_bytes(), pushed + rep.moved_bytes);
                assert_eq!(rep.moved_bytes > 0, rep.transfer_s > 0.0, "{rep:?}");
                assert!(rep.migrated_slices == 0 || rep.moved_bytes > 0, "{rep:?}");
                count(&mut self.tally, "purged", rep.purged_points as usize);
                count(&mut self.tally, "splits", rep.split_slices);
                count(&mut self.tally, "migrations", rep.migrated_slices);
                self.maintained.push(rep);
                rep.epoch_swaps as u64
            }
            Op::InjectFaults(fc) => {
                e.inject_faults(*fc).expect("valid fault config");
                1
            }
            Op::ClearFaults => {
                let armed = e.system.fault.is_some();
                e.clear_faults();
                armed as u64
            }
            // lossless recovery: the batch index never changes results
            Op::SetFaultBatch(b) => {
                e.set_fault_batch(*b);
                0
            }
            Op::ExhaustMram(on) => {
                for mram in e.system.dpus.iter_mut().map(|d| &mut d.mram) {
                    let filler = mram.release("filler") + mram.free();
                    if *on {
                        mram.set("filler", filler).unwrap();
                    }
                }
                self.exhausted = *on;
                0
            }
            Op::Check => {
                self.check();
                0
            }
        }
    }

    fn apply(&mut self, op: &Op) {
        let before = self.engine.epoch();
        let bumps = self.step(op);
        assert_eq!(self.engine.epoch(), before + bumps, "epoch after {op:?}");
        assert_eq!(self.engine.live_len(), self.mirror.len(), "after {op:?}");
        assert_layout(&self.engine);
    }

    /// The oracle: a fault-free fresh build, and the engine itself at 1
    /// and 4 host threads — and at 2 and 8 while an injector is armed, so
    /// fault recovery is pinned at every count, 8 threads on 8 DPUs too.
    fn check(&mut self) {
        let queries = &world().queries;
        let mut fresh = build(self.mirror.clone(), &self.cfg);
        let (want, _) = with_num_threads(1, || fresh.search_batch(queries));
        let (r1, rep1) = with_num_threads(1, || self.engine.search_batch(queries));
        let (got, want) = (result_bits(&r1), result_bits(&want));
        if let Some(q) = (0..want.len()).find(|&q| got[q] != want[q]) {
            panic!(
                "query {q} diverged from the fault-free fresh build ({:?})\n engine {:?}\n fresh  {:?}",
                rep1.fault, got[q], want[q]
            );
        }
        let threads: &[usize] = match self.engine.system.fault {
            Some(_) => &[2, 4, 8],
            None => &[4],
        };
        for &t in threads {
            let (r, rep) = with_num_threads(t, || self.engine.search_batch(queries));
            assert_eq!(result_bits(&r), got, "results at {t} threads");
            assert_eq!(
                format!("{rep:?}"),
                format!("{rep1:?}"),
                "report at {t} threads"
            );
        }
        if self.engine.pending_tombstones() == 0 {
            assert_eq!(
                rep1.tombstone_filtered, 0,
                "compaction left nothing to filter"
            );
        }
        // live: the fresh build holds only live points
        let k = self.cfg.index.k;
        for list in &r1 {
            let ids: HashSet<u64> = list.iter().map(|n| n.id).collect();
            assert!(list.len() <= k && ids.len() == list.len(), "{list:?}");
            assert!(list.windows(2).all(|p| p[0].dist <= p[1].dist), "{list:?}");
            count(&mut self.tally, "short answers", (list.len() < k) as usize);
        }
        count(
            &mut self.tally,
            "fallback tasks",
            rep1.fault.host_fallback_tasks,
        );
        count(&mut self.tally, "dead ranks", rep1.fault.dead_ranks);
        self.checks.push((r1, rep1));
    }
}

fn execute(cfg: &EngineConfig, ops: &[Op]) -> Model {
    let mut model = Model::new(cfg.clone());
    for op in ops {
        model.apply(op);
    }
    model
}

/// Minimal failing subsequence of `ops`: drop one op at a time while the
/// failure persists, then halve, until neither step keeps it failing.
fn shrink<T: Clone>(mut ops: Vec<T>, fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    loop {
        let len = ops.len();
        let mut i = 0;
        while i < ops.len() {
            let mut shorter = ops.clone();
            shorter.remove(i);
            if fails(&shorter) {
                ops = shorter;
            } else {
                i += 1;
            }
        }
        let half = ops.len() / 2;
        if half > 0 && fails(&ops[..half]) {
            ops.truncate(half);
        } else if half > 0 && fails(&ops[half..]) {
            ops.drain(..half);
        }
        if ops.len() == len {
            return ops;
        }
    }
}

/// Run `ops` through the executor; on a failure, print `label` (the seed
/// for generated sequences) and the shrunk script, then fail.
fn run(label: &str, cfg: &EngineConfig, ops: &[Op]) -> Model {
    match catch_unwind(AssertUnwindSafe(|| execute(cfg, ops))) {
        Ok(model) => model,
        Err(panic) => {
            let fails = |s: &[Op]| catch_unwind(AssertUnwindSafe(|| execute(cfg, s))).is_err();
            let minimal = shrink(ops.to_vec(), fails);
            eprintln!(
                "{label}: minimal failing script, {} of {} ops:",
                minimal.len(),
                ops.len()
            );
            for op in &minimal {
                eprintln!("    {op:?},");
            }
            resume_unwind(panic)
        }
    }
}

/// A random sequence of `steps` draws (a burst, a drain or a rank kill is
/// one draw that emits many ops). The generator tracks ids only to pick
/// plausible targets: the executor predicts every outcome from its own
/// state, so any subsequence is a valid script.
fn generate(seed: u64, steps: usize) -> Vec<Op> {
    let (w, c) = (world(), cfg().index);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<u32> = (0..w.data.len() as u32).collect();
    let mut dead: Vec<u32> = Vec::new();
    let (mut next_id, mut cursor, mut fault_batch) = (1_000_000u32, 0usize, 0u64);
    let mut exhausted = false;
    let anchor = w.data.get(rng.gen_range(0..w.data.len())).to_vec();
    let mut ops = Vec::new();
    for _ in 0..steps {
        match rng.gen_range(0..100u32) {
            0..=25 => {
                // a new id, or a deleted one back with a new vector
                let id = if dead.is_empty() || rng.gen_bool(0.7) {
                    next_id += 1;
                    next_id - 1
                } else {
                    dead.swap_remove(rng.gen_range(0..dead.len()))
                };
                ops.push(Op::Insert(id, w.fresh.get(cursor % w.fresh.len()).to_vec()));
                cursor += 1;
                live.push(id);
            }
            26..=29 => {
                // a burst of near-duplicates piles into one tail slice
                ops.extend(near_duplicates(&anchor, next_id, 40));
                live.extend(next_id..next_id + 40);
                next_id += 40;
            }
            30..=43 => {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                ops.push(Op::Delete(id));
                dead.push(id);
            }
            44..=47 => {
                let id = if dead.is_empty() || rng.gen_bool(0.5) {
                    9_000_000 + rng.gen_range(0..1000)
                } else {
                    dead[rng.gen_range(0..dead.len())]
                };
                ops.push(Op::Delete(id));
            }
            48..=51 => {
                // drain the corpus points of a query's nearest cluster
                // below k (an engine probing one cluster answers short)
                let q = w.queries.get(rng.gen_range(0..w.queries.len()));
                let keep = rng.gen_range(0..c.k);
                for &id in w.index.lists[w.index.assign_encode(q).0]
                    .ids
                    .iter()
                    .skip(keep)
                {
                    live.retain(|&l| l != id);
                    dead.push(id);
                    ops.push(Op::Delete(id));
                }
                ops.push(Op::Check);
            }
            52..=61 => ops.push(Op::Maintain),
            62..=69 => {
                let rate = [0.01, 0.15, 0.25][rng.gen_range(0..3)];
                ops.push(Op::InjectFaults(FaultConfig::uniform(rng.gen(), rate)));
            }
            70..=73 => {
                // a rank kill a few batches from now beside 1% transients,
                // checked on both sides of the kill
                let from = fault_batch + rng.gen_range(1..3);
                let mut fc = FaultConfig::rank_kill(rng.gen(), 0.5, DPUS_PER_RANK, from);
                (fc.straggler_rate, fc.corruption_rate) = (0.01, 0.01);
                fault_batch = from;
                ops.extend([Op::InjectFaults(fc), Op::Check]);
                ops.extend([Op::SetFaultBatch(from), Op::Check]);
            }
            74..=76 => ops.push(Op::ClearFaults),
            77..=88 => {
                fault_batch += rng.gen_range(0..3);
                ops.push(Op::SetFaultBatch(fault_batch));
            }
            89..=92 => {
                exhausted = !exhausted;
                ops.push(Op::ExhaustMram(exhausted));
            }
            _ => ops.push(Op::Check),
        }
    }
    ops.push(Op::Check);
    ops
}

/// `n` distinct inserts that all land in `anchor`'s cluster.
fn near_duplicates(anchor: &[f32], first_id: u32, n: u32) -> Vec<Op> {
    (0..n)
        .map(|i| {
            let mut v = anchor.to_vec();
            v[i as usize % anchor.len()] += 1e-4 * (i as f32 + 1.0);
            Op::Insert(first_id + i, v)
        })
        .collect()
}

#[test]
fn seeded_sequences_match_a_fault_free_fresh_build() {
    let mut cfg = cfg();
    cfg.maintenance.compact_tombstone_frac = 0.05;
    cfg.maintenance.overgrown_factor = 1.2;
    cfg.maintenance.max_migrations = 2;
    let nprobe = cfg.index.nprobe;
    let mut tally = Tally::new();
    for seed in [1u64, 2, 3] {
        // one home per slice (migrations need a DPU without the slice) or
        // hot clusters replicated
        cfg.duplication = seed != 2;
        // seed 3 probes one cluster, so a drained cluster answers short
        cfg.index.nprobe = if seed == 3 { 1 } else { nprobe };
        for (path, n) in run(&format!("seed {seed}"), &cfg, &generate(seed, 80)).tally {
            count(&mut tally, path, n);
        }
    }
    // every path the model counts, all seven, was taken
    assert_eq!(tally.len(), 7, "{tally:?}");
    assert!(
        tally.values().all(|&n| n > 0),
        "a path never taken: {tally:?}"
    );
}

/// Deletes spread across clusters interleaved with fresh inserts.
#[test]
fn insert_delete_sequence_matches_fresh_build() {
    let w = world();
    let mut ops = Vec::new();
    for i in 0..16u32 {
        ops.push(Op::Delete(i * 90));
        ops.push(Op::Insert(1_000_000 + i, w.fresh.get(i as usize).to_vec()));
    }
    ops.push(Op::Check);
    let model = run("insert/delete", &cfg(), &ops);
    assert_eq!(model.engine.live_len(), w.data.len(), "16 in, 16 out");
}

/// Compaction physically rewrites lists and moves no result bit.
#[test]
fn maintenance_after_churn_preserves_parity() {
    let w = world();
    let mut cfg = cfg();
    cfg.maintenance.compact_tombstone_frac = 1e-9; // compact on any tombstone
    let mut ops: Vec<Op> = (0..40u32).map(|i| Op::Delete(i * 37)).collect();
    for i in 0..8u32 {
        ops.push(Op::Insert(2_000_000 + i, w.fresh.get(i as usize).to_vec()));
    }
    ops.extend([Op::Maintain, Op::Check]);
    let model = run("maintenance", &cfg, &ops);
    assert_eq!(model.maintained[0].purged_points, 40);
    assert_eq!(model.engine.pending_tombstones(), 0);
}

/// Delete-then-reinsert of the same id: the engine compacts the stale
/// copy before appending, the fresh build appends after `remove`.
#[test]
fn reinsert_after_delete_matches_fresh_build() {
    let w = world();
    let mut ops = Vec::new();
    for id in [3u32, 500, 777, 1200] {
        ops.push(Op::Delete(id));
        ops.push(Op::Insert(id, w.data.get(id as usize).to_vec()));
    }
    ops.push(Op::Check);
    let model = run("re-insert", &cfg(), &ops);
    assert_eq!(model.engine.live_len(), w.data.len());
}

/// 300 near-duplicates in one cluster force splits and migrations, whose
/// epoch swaps leave the results of a build that never split anything.
#[test]
fn split_and_migration_preserve_parity() {
    let mut cfg = cfg();
    cfg.maintenance.overgrown_factor = 1.5;
    cfg.maintenance.max_migrations = 2;
    let mut ops = near_duplicates(world().data.get(10), 3_000_000, 300);
    ops.extend([Op::Maintain, Op::Check]);
    let rep = run("split/migrate", &cfg, &ops).maintained[0];
    assert!(rep.split_slices + rep.migrated_slices > 0, "{rep:?}");
    assert!(rep.epoch_swaps > 0, "{rep:?}");
}

/// A fixed fault seed at 15% fires; every check compares 1, 2, 4 and 8
/// threads.
#[test]
fn same_fault_seed_bit_identical_across_thread_counts() {
    let inject = Op::InjectFaults(FaultConfig::uniform(FAULT_SEED, 0.15));
    let ops = [inject, Op::SetFaultBatch(3), Op::Check];
    let model = run("15% faults", &cfg(), &ops);
    let fault = &model.checks[0].1.fault;
    assert!(fault.active(), "15% rates over 8 DPUs must fire: {fault:?}");
}

/// Host-fallback recovery is lossless at 25% for three seeds.
#[test]
fn recovery_results_match_zero_fault_results() {
    let inject = |seed| Op::InjectFaults(FaultConfig::uniform(seed, 0.25));
    let ops: Vec<Op> = [1u64, 99, 0xABCD]
        .into_iter()
        .flat_map(|seed| [inject(seed), Op::Check])
        .collect();
    let model = run("25% faults", &cfg(), &ops);
    assert!(model.checks.iter().all(|(_, rep)| rep.fault.active()));
}

/// A 60% rank draw over 4 ranks of 2 kills some but not all ranks from
/// batch 2 on: inert before, lossless after.
#[test]
fn rank_kill_mid_run_is_lossless_and_thread_invariant() {
    let kill = FaultConfig::rank_kill(0xD1, 0.6, DPUS_PER_RANK, 2);
    let ops = [Op::InjectFaults(kill), Op::SetFaultBatch(1), Op::Check];
    let ops = [&ops[..], &[Op::SetFaultBatch(5), Op::Check]].concat();
    let model = run("rank kill", &cfg(), &ops);
    let (before, after) = (&model.checks[0].1.fault, &model.checks[1].1.fault);
    assert_eq!(before.dead_ranks, 0, "kill gated on batch 2: {before:?}");
    assert!(after.dead_ranks > 0 && after.dead_ranks < 4, "{after:?}");
    assert_eq!(after.dead_dpus, DPUS_PER_RANK * after.dead_ranks);
}

/// `k` above the live points probed answers short (distinct and ordered:
/// every check asserts that), and a fully tombstoned probed cluster
/// answers empty, before and after compaction. The engine probes one
/// cluster.
#[test]
fn k_above_the_live_points_and_a_tombstoned_cluster_answer_short() {
    let w = world();
    let q = w.queries.get(0);
    let ids = &w.index.lists[w.index.assign_encode(q).0].ids;
    let mut cfg = cfg();
    cfg.index.nprobe = 1;
    let mut ops: Vec<Op> = ids[3..].iter().map(|&id| Op::Delete(id)).collect();
    ops.push(Op::Check);
    ops.extend(ids[..3].iter().map(|&id| Op::Delete(id)));
    ops.extend([Op::Check, Op::Maintain, Op::Check]);
    ops.extend([Op::Insert(4_000_000, q.to_vec()), Op::Check]);
    let model = run("short answers", &cfg, &ops);
    let answer = |i: usize| -> Vec<u64> { model.checks[i].0[0].iter().map(|n| n.id).collect() };
    assert_eq!(answer(0).len(), 3, "three live points probed");
    assert!(answer(1).is_empty() && answer(2).is_empty());
    assert_eq!(answer(3), [4_000_000]);
}

/// With every DPU's MRAM full, inserts are refused and change nothing, and
/// maintenance moves no byte; freed again, the same inserts land.
#[test]
fn exhausted_mram_refuses_inserts_and_maintain_moves_nothing() {
    let w = world();
    let mut cfg = cfg();
    cfg.duplication = false;
    cfg.maintenance.overgrown_factor = 1.5;
    cfg.maintenance.max_migrations = 2;
    let mut ops = near_duplicates(w.data.get(10), 5_000_000, 300);
    ops.extend([Op::Delete(3), Op::ExhaustMram(true)]);
    let refused = [
        Op::Insert(5_100_000, w.fresh.get(0).to_vec()),
        // a re-insert elsewhere: refused before its stale copy is purged
        Op::Insert(3, w.fresh.get(1).to_vec()),
    ];
    ops.extend(refused.iter().cloned());
    ops.extend([Op::Maintain, Op::Check, Op::ExhaustMram(false)]);
    ops.extend(refused.iter().cloned());
    ops.extend([Op::Maintain, Op::Check]);
    let model = run("exhausted MRAM", &cfg, &ops);
    assert_eq!(model.tally["MramFull"], 2, "{:?}", model.tally);
    let (full, freed) = (model.maintained[0], model.maintained[1]);
    assert_eq!((full.moved_bytes, full.migrated_slices), (0, 0), "{full:?}");
    assert!(freed.moved_bytes > 0, "{freed:?}");
}

/// An insert into a cluster whose every home sits on a killed rank is
/// accepted, and the host fallback serves it losslessly.
#[test]
fn insert_into_a_cluster_whose_homes_are_all_on_a_killed_rank() {
    let w = world();
    let q = w.queries.get(0).to_vec();
    let mut cfg = cfg();
    cfg.duplication = false; // one home per slice
    let layout = build(w.index.clone(), &cfg).layout;
    let tail = *layout.cluster_slices[w.index.assign_encode(&q).0]
        .last()
        .unwrap();
    let rank = layout.slice_homes[tail][0] / DPUS_PER_RANK;
    let kill = (0u64..)
        .map(|s| FaultConfig::rank_kill(s, 0.5, DPUS_PER_RANK, 1))
        .find(|&fc| {
            let inj = FaultInjector::new(fc).unwrap();
            inj.is_rank_fail_stop(rank, 1) && inj.dead_ranks_at(NDPUS, 1) < NDPUS / DPUS_PER_RANK
        })
        .unwrap();
    let mut ops = vec![Op::InjectFaults(kill), Op::Check, Op::SetFaultBatch(1)];
    ops.extend([Op::Insert(6_000_000, q), Op::Check, Op::Maintain, Op::Check]);
    let model = run("insert on a dead rank", &cfg, &ops);
    assert_eq!(model.checks[0].1.fault.dead_ranks, 0);
    let after = &model.checks[1].1.fault;
    assert!(after.host_fallback_tasks > 0, "{after:?}");
    let found = model.checks[1].0[0].iter().any(|n| n.id == 6_000_000);
    assert!(found, "the query finds its own vector");
}

#[test]
fn shrinker_reduces_to_the_two_marked_ops() {
    let script: Vec<u32> = (0..40).collect();
    let fails = |s: &[u32]| s.contains(&7) && s.contains(&31);
    assert_eq!(shrink(script, fails), [7, 31]);
}
