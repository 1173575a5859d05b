//! Online serving: many producer threads submit single queries, the
//! `ann-serve` front-end coalesces them into deadline-bounded
//! micro-batches, and every producer gets back exactly what an offline
//! `search_batch` would have returned.
//!
//! ```text
//! cargo run --release --example serve
//! ```

use std::time::{Duration, Instant};

use ann_serve::{AnnServer, CacheConfig, ServeConfig, ServeError};
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use upmem_sim::PimArch;

fn main() {
    // 1. A corpus and an engine, exactly as in the quickstart.
    let spec = datasets::SynthSpec::small("serve", 32, 20_000, 42);
    let data = datasets::generate(&spec);
    let index = IndexConfig {
        k: 10,
        nprobe: 16,
        nlist: 128,
        m: 16,
        cb: 256,
    };
    let engine = DrimEngine::build(
        &data,
        EngineConfig::drim(index),
        PimArch::upmem_sc25(),
        64,
        None,
    )
    .expect("engine build");

    // 2. Start serving: batches close at 16 queries or 500 µs after the
    //    oldest arrival, whichever comes first. The queue is bounded
    //    (overflow => typed QueueFull rejection, not blocking).
    let cfg = ServeConfig {
        max_batch: 16,
        max_delay: Duration::from_micros(500),
        queue_cap: 256,
        ..ServeConfig::default()
    };
    let server = AnnServer::start(engine, cfg).expect("server start");

    // 3. Producers: four threads, each submitting single queries and
    //    parking on its tickets.
    let queries = datasets::queries::generate_queries(
        &spec,
        128,
        datasets::queries::QuerySkew::InDistribution,
        7,
    );
    let started = Instant::now();
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let handle = server.handle();
            let mine: Vec<Vec<f32>> = (0..32).map(|i| queries.get(4 * i + p).to_vec()).collect();
            std::thread::spawn(move || {
                let mut slowest = Duration::ZERO;
                for q in &mine {
                    let t0 = Instant::now();
                    let neighbors = handle.search(q).expect("serve");
                    slowest = slowest.max(t0.elapsed());
                    assert_eq!(neighbors.len(), 10);
                }
                slowest
            })
        })
        .collect();
    for (p, prod) in producers.into_iter().enumerate() {
        let slowest = prod.join().unwrap();
        println!("producer {p}: slowest query {slowest:?}");
    }
    println!("128 queries served in {:?}", started.elapsed());

    // 4. Malformed submits are typed errors, not panics.
    let handle = server.handle();
    assert!(matches!(
        handle.submit(9, queries.get(0)),
        Err(ServeError::UnknownTenant { .. })
    ));
    assert!(matches!(
        handle.submit(0, &[0.0; 3]),
        Err(ServeError::WrongDim { .. })
    ));

    // 5. Shutdown flushes everything admitted and hands the engine back.
    let (engine, stats) = server.shutdown();
    println!("serve stats: {}", stats.summary());
    println!(
        "simulated cost of the served stream: {:.3} ms DPU time, {:.3} J",
        stats.sim_time_s * 1e3,
        stats.sim_energy_j
    );

    // 6. Hot-query caching: restart the same engine with the result cache
    //    on and replay a skewed trace — repeated queries are answered at
    //    admission (cache hits), duplicates submitted while their twin is
    //    in flight collapse onto one computation (single-flight), and the
    //    engine dedups identical rows inside each micro-batch. Results
    //    stay bit-identical to uncached serving (docs/CACHING.md).
    let cached_cfg = ServeConfig {
        max_batch: 16,
        max_delay: Duration::from_micros(500),
        queue_cap: 256,
        cache: Some(CacheConfig {
            capacity: 1024,
            shards: 8,
        }),
        ..ServeConfig::default()
    };
    let server = AnnServer::start(engine, cached_cfg).expect("server start");
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let handle = server.handle();
            // Every producer hammers the same 8 hot queries.
            let hot: Vec<Vec<f32>> = (0..8).map(|i| queries.get(i).to_vec()).collect();
            std::thread::spawn(move || {
                for r in 0..32 {
                    let neighbors = handle.search(&hot[(p + r) % hot.len()]).expect("serve");
                    assert_eq!(neighbors.len(), 10);
                }
            })
        })
        .collect();
    for prod in producers {
        prod.join().unwrap();
    }
    let (engine, cached) = server.shutdown();
    println!("cached serve stats: {}", cached.summary());
    println!(
        "hot set of 8 over 128 submits: {:.0}% hit rate, {} collapsed in flight, \
         {} deduped in batch, {} engine computations",
        cached.hit_rate() * 100.0,
        cached.collapsed,
        cached.deduped_in_batch,
        cached.served,
    );
    println!(
        "engine returned: {} DPUs, ready for offline use",
        engine.ndpus()
    );
}
