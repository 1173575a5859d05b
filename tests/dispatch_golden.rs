//! Golden pins for the batch dispatch loop.
//!
//! The hashes were first recorded at the commit *before* the three dispatch
//! loops (clean engine, recovering engine, trace mode) were merged into
//! `drim_ann`'s single `dispatch` module, so that the merged loop was
//! compared against its predecessors rather than against itself. They were
//! re-recorded once since, when the scheduler's heat became the compute
//! cycles the kernels' `charge` functions book (it had been a hand-written
//! estimate that left out RC, the lock and forwarded TS): with the old
//! estimate put back into that tree's dispatch loop, every old hash still
//! reproduced. Each one digests the full Debug text of the results and the
//! `BatchReport` (timing, energy, `FaultStats`), which is the bit-identity
//! the parity suites promise. Re-record only for a change that is *meant*
//! to move results or accounting: print the left-hand side of the failing
//! assert.
//!
//! All eight were re-recorded once more when `FaultStats` lost two
//! always-zero counters (DPUs banned for repeated transient faults, and
//! dispatches that met a dead DPU at runtime), which changes the Debug text
//! but no number. On an uncommitted copy of the tree before that change,
//! `digest` was made to hash each leg's text with those two fields'
//! `<name>: 0, ` entries removed, asserting neither name was left; every
//! new hash equals that value.
//!
//! All seven were re-recorded again when recovery lost its lossy arm (the
//! graceful-degradation leg went with it) and `FaultStats` lost the four
//! counters only that arm and its loss bound read (`dropped_tasks`,
//! `degraded_queries`, `dropped_points`, `scheduled_points`). On an
//! uncommitted copy of the tree before that change, `digest` was made to
//! hash each leg's text with those four fields' `name: value` entries
//! removed, asserting no name was left; every new hash equals that value.

use ann_core::topk::Neighbor;
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use drim_ann::report::BatchReport;
use drim_ann::trace::{TraceRunner, TraceSpec};
use upmem_sim::fault::FaultConfig;
use upmem_sim::tasklet::LockPolicy;
use upmem_sim::PimArch;

fn digest(text: &str) -> u64 {
    ann_core::hash::hash_words(0x601D, text.bytes().map(u64::from))
}

/// Run one engine batch under `faults` at `fault_batch` and digest it.
fn engine_digest(
    tweak: impl Fn(&mut EngineConfig),
    faults: Option<FaultConfig>,
    fault_batch: u64,
    expect_fault_activity: bool,
) -> u64 {
    let (results, report) = engine_batch(tweak, |_| {}, faults, fault_batch);
    assert_eq!(
        report.fault.active(),
        expect_fault_activity,
        "{:?}",
        report.fault
    );
    digest(&format!("{results:?}{report:?}"))
}

/// Build the golden engine, apply `tweak` to its config and `prepare` to
/// the built engine, arm `faults` and run one batch at `fault_batch`.
fn engine_batch(
    tweak: impl Fn(&mut EngineConfig),
    prepare: impl Fn(&mut DrimEngine),
    faults: Option<FaultConfig>,
    fault_batch: u64,
) -> (Vec<Vec<Neighbor>>, BatchReport) {
    let spec = datasets::SynthSpec::small("dispatch-golden", 16, 3000, 47);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        32,
        datasets::queries::QuerySkew::InDistribution,
        9,
    );
    let mut cfg = EngineConfig::drim(IndexConfig {
        k: 10,
        nprobe: 12,
        nlist: 64,
        m: 8,
        cb: 32,
    });
    cfg.batch = 32;
    tweak(&mut cfg);
    let mut e = DrimEngine::build(&data, cfg, PimArch::upmem_sc25(), 8, None).unwrap();
    prepare(&mut e);
    if let Some(fc) = faults {
        e.inject_faults(fc).unwrap();
    }
    e.set_fault_batch(fault_batch);
    e.search_batch(&queries)
}

#[test]
fn engine_batches_match_the_pre_merge_loops() {
    let got = [
        // no injector
        engine_digest(|_| {}, None, 0, false),
        // uniform 5% faults, host fallback on
        engine_digest(
            |_| {},
            Some(FaultConfig::uniform(0xFA17_5EED, 0.05)),
            3,
            true,
        ),
        // mid-run rank kill: 8 DPUs in 4 ranks of 2, the 60% draw kills
        // some ranks from batch 2 on
        engine_digest(
            |c| c.ranks = Some(4),
            Some(FaultConfig::rank_kill(0xD1, 0.6, 2, 2)),
            5,
            true,
        ),
    ];
    assert_eq!(
        got,
        [
            0x9267_0696_A5BB_8104,
            0x85F4_0946_0542_ABB6,
            0xC7C8_D508_3AE1_9E85,
        ]
    );
}

/// Two legs recorded at the commit before TS stopped staging candidates
/// (the top-k kernel now reads the arena's distances in place, skips whole
/// chunks the forwarded bound prunes and keeps packed-key queues): the
/// naive lock-every-candidate policy, and pending tombstones — deletes
/// without `maintain()` — placed around the 32-candidate chunk boundaries
/// of every list, so the filter removes candidates on both sides of them.
#[test]
fn engine_batches_match_the_staged_top_k() {
    let lock_always = engine_batch(|c| c.lock_policy = LockPolicy::LockAlways, |_| {}, None, 0);
    assert_eq!(
        lock_always.1.lock.pruned, 0,
        "LockAlways locks every candidate"
    );
    let tombstoned = engine_batch(
        |_| {},
        |e| {
            let victims: Vec<u32> = e
                .ivf
                .lists
                .iter()
                .flat_map(|l| {
                    [0, 30, 31, 32, 33, 63, 64, 95]
                        .into_iter()
                        .filter_map(|slot| l.ids.get(slot).copied())
                })
                .collect();
            for id in victims {
                assert!(e.delete(id));
            }
        },
        None,
        0,
    );
    assert!(tombstoned.1.tombstone_filtered > 0);
    let got = [lock_always, tombstoned].map(|(results, report)| {
        assert!(!report.fault.active());
        digest(&format!("{results:?}{report:?}"))
    });
    assert_eq!(got, [0x6779_B0C7_4801_43D7, 0xF5C1_2DFA_CC22_766D]);
}

#[test]
fn trace_batches_match_the_pre_merge_loop() {
    let spec = TraceSpec {
        name: "dispatch-golden-trace".into(),
        n_points: 500_000,
        dim: 32,
        batch: 64,
        cluster_size_zipf: 0.35,
        heat_zipf: 1.0,
        seed: 42,
    };
    let mut cfg = EngineConfig::drim(IndexConfig {
        k: 10,
        nprobe: 8,
        nlist: 256,
        m: 8,
        cb: 64,
    });
    cfg.batch = 64;
    let mut runner = TraceRunner::build(spec, cfg, PimArch::upmem_sc25(), 32);
    let clean = runner.run_batch(5);
    assert!(!clean.fault.active());
    runner
        .inject_faults(FaultConfig::uniform(0xBEEF, 0.12))
        .unwrap();
    let faulty = runner.run_batch(5);
    assert!(faulty.fault.active());
    // no injector, uniform 12% faults
    let got = [format!("{clean:?}"), format!("{faulty:?}")].map(|t| digest(&t));
    assert_eq!(got, [0x71D3_23A8_827F_9B20, 0xB978_F6FA_BBC6_395E]);
}
