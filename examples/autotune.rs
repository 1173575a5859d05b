//! Auto-tuning with the PIM-aware DSE (paper Section 4).
//!
//! Given a recall floor, the design-space exploration searches
//! `(K, P, C, M, CB)` with the analytic performance model as the throughput
//! oracle and *measured* recall on a scaled workload as the accuracy
//! oracle (paper Fig. 6), scanning candidates in descending predicted
//! throughput until one meets the floor.
//!
//! ```text
//! cargo run --release --example autotune
//! ```

use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use drim_ann::dse::{optimize, ParamSpace};
use upmem_sim::platform::procs;
use upmem_sim::PimArch;

fn main() {
    let spec = datasets::SynthSpec::small("tune", 32, 12_000, 5);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        32,
        datasets::queries::QuerySkew::InDistribution,
        3,
    );
    let truth = ann_core::flat::ground_truth(&queries, &data, 10);

    // Measured-accuracy oracle: build (and cache) an index per distinct
    // (nlist, m, cb) and measure recall@10 of the host reference search.
    let mut cache: std::collections::HashMap<(usize, usize, usize), IvfPqIndex> =
        Default::default();
    let mut evals = 0usize;
    let data_ref = &data;
    let queries_ref = &queries;
    let truth_ref = &truth;
    let mut accuracy = move |cfg: &drim_ann::IndexConfig| -> f64 {
        evals += 1;
        let key = (cfg.nlist, cfg.m, cfg.cb);
        let index = cache.entry(key).or_insert_with(|| {
            IvfPqIndex::build(data_ref, &IvfPqParams::new(cfg.nlist).m(cfg.m).cb(cfg.cb))
        });
        let results: Vec<_> = (0..queries_ref.len())
            .map(|qi| index.search(queries_ref.get(qi), cfg.nprobe, 10))
            .collect();
        let r = ann_core::recall::mean_recall(&results, truth_ref, 10);
        println!(
            "  eval #{evals:<2} nprobe={:<3} nlist={:<4} m={:<2} cb={:<3} -> recall@10 {r:.3}",
            cfg.nprobe, cfg.nlist, cfg.m, cfg.cb
        );
        r
    };

    let space = ParamSpace {
        k: vec![10],
        nprobe: vec![4, 8, 16, 32],
        nlist: vec![64, 128, 256],
        m: vec![4, 8, 16],
        cb: vec![16, 32, 64],
    };
    println!(
        "design space: {} candidates; constraint: recall@10 >= 0.8\n",
        space.len()
    );

    let result = optimize(
        &space,
        data.len() as u64,
        data.dim(),
        64,
        &PimArch::upmem_sc25(),
        &procs::xeon_silver_4216(),
        &mut accuracy,
        0.80,
    );

    println!("\nchosen configuration:");
    println!(
        "  nprobe={} nlist={} m={} cb={}  (model QPS {:.0}, recall {:.3})",
        result.best.nprobe,
        result.best.nlist,
        result.best.m,
        result.best.cb,
        result.best_qps,
        result.best_recall
    );
    println!("  {} evaluations", result.evaluations.len());
    assert!(result.best_recall >= 0.8);
}
