//! A steady-state trace batch reuses its buffers instead of allocating
//! them fresh: the runner keeps the task list, the scheduler's buffers, the
//! per-DPU task lists and the charge table's rows from one batch to the
//! next, so a batch after the first few touches almost no new page. The
//! count here is the process's minor page faults (`minflt`, field 10 of
//! `/proc/self/stat`) over a run of batches; the helper threads each
//! dispatch wave spawns account for the few that remain. Where the file
//! cannot be read the test prints a note and passes.

use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::trace::{TraceRunner, TraceSpec};
use upmem_sim::PimArch;

/// Minor faults a steady-state batch may take.
const FAULTS_PER_BATCH: u64 = 64;

/// This process's minor page faults so far, if `/proc/self/stat` says.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // the command name (field 2) may hold spaces; fields after it don't
    let after_name = &stat[stat.rfind(')')? + 1..];
    after_name.split_whitespace().nth(7)?.parse().ok()
}

#[test]
fn steady_state_trace_batches_take_few_page_faults() {
    if minor_faults().is_none() {
        println!("note: /proc/self/stat has no minflt here; fault count not checked");
        return;
    }
    // The benchmark's `trace_paper` shape: SIFT100M on 2,543 DPUs at the
    // paper's index shape, 2,500 queries a batch (about 240k tasks). Two
    // pool threads, so the helpers' share of the count is the same on any
    // host.
    let spec = TraceSpec::for_dataset(&datasets::catalog::sift100m(), 2500);
    let cfg = EngineConfig::drim(IndexConfig::paper_default());
    let mut runner = TraceRunner::build(spec, cfg, PimArch::upmem_sc25(), 2543);
    const BATCHES: u64 = 4;
    let faults = rayon::with_num_threads(2, || {
        for warm in 0..3 {
            runner.run_batch(1_000 + warm);
        }
        let before = minor_faults().expect("read once already");
        for seed in 1..=BATCHES {
            std::hint::black_box(runner.run_batch(seed));
        }
        minor_faults().expect("read once already") - before
    });
    println!("{faults} minor faults over {BATCHES} batches");
    assert!(
        faults <= FAULTS_PER_BATCH * BATCHES,
        "{faults} minor faults over {BATCHES} steady-state batches (at most {FAULTS_PER_BATCH} a batch)"
    );
}
