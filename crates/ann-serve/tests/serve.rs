//! End-to-end serving tests: batch-close semantics, backpressure,
//! overload shedding, and bit-parity with the offline path.

use std::time::Duration;

use ann_serve::{
    AnnServer, CacheConfig, CacheKey, OverloadPolicy, ResultCache, ServeConfig, ServeError,
};
use datasets::synth::{generate, SynthSpec};
use drim_ann::config::{EngineConfig, IndexConfig};
use drim_ann::engine::DrimEngine;
use upmem_sim::{FaultConfig, FaultInjector};

fn small_engine() -> (DrimEngine, ann_core::VecSet<f32>) {
    let data = generate(&SynthSpec::small("serve-e2e", 16, 512, 42));
    let index = IndexConfig {
        k: 5,
        nprobe: 4,
        nlist: 16,
        m: 4,
        cb: 16,
    };
    let engine = DrimEngine::build(
        &data,
        EngineConfig::drim(index),
        Default::default(),
        8,
        None,
    )
    .expect("engine build");
    (engine, data)
}

#[test]
fn size_trigger_closes_full_batches() {
    let (mut engine, data) = small_engine();
    // Deadline far away, or past what `Instant` can hold: only the size
    // trigger (or the final drain) can close a batch.
    for max_delay in [Duration::from_secs(60), Duration::MAX] {
        let cfg = ServeConfig {
            max_batch: 6,
            max_delay,
            queue_cap: 64,
            ..ServeConfig::default()
        };
        let server = AnnServer::start(engine, cfg).unwrap();
        let handle = server.handle();

        let tickets: Vec<_> = (0..12)
            .map(|i| handle.submit(0, data.get(i)).unwrap())
            .collect();
        for t in tickets {
            assert_eq!(t.wait().unwrap().len(), 5);
        }

        let (eng, stats) = server.shutdown();
        engine = eng;
        let summary = format!("{max_delay:?}: {}", stats.summary());
        assert_eq!(stats.served, 12, "{summary}");
        assert_eq!(stats.closed_by_size, 2, "{summary}");
        assert_eq!(stats.closed_by_deadline, 0, "{summary}");
        assert_eq!(stats.largest_batch, 6, "{summary}");
        assert_eq!(stats.smallest_batch, 6, "{summary}");
    }
}

#[test]
fn deadline_trigger_closes_partial_batches() {
    let (engine, data) = small_engine();
    // Size trigger unreachable (100 > submitted queries): the 50 ms
    // deadline must close the batch.
    let cfg = ServeConfig {
        max_batch: 100,
        max_delay: Duration::from_millis(50),
        queue_cap: 128,
        ..ServeConfig::default()
    };
    let server = AnnServer::start(engine, cfg).unwrap();
    let handle = server.handle();

    let tickets: Vec<_> = (0..3)
        .map(|i| handle.submit(0, data.get(i)).unwrap())
        .collect();
    for t in tickets {
        assert_eq!(t.wait().unwrap().len(), 5);
    }

    let stats = handle.stats();
    assert_eq!(stats.served, 3);
    assert_eq!(stats.closed_by_size, 0, "{}", stats.summary());
    assert_eq!(stats.closed_by_deadline, 1, "{}", stats.summary());
    assert_eq!(stats.largest_batch, 3);
    server.shutdown();
}

#[test]
fn backpressure_rejects_when_queue_full() {
    let (engine, data) = small_engine();
    // queue_cap below max_batch and an unreachable deadline: admitted
    // queries sit queued, so the 5th submit must bounce.
    let cfg = ServeConfig {
        max_batch: 8,
        max_delay: Duration::from_secs(60),
        queue_cap: 4,
        ..ServeConfig::default()
    };
    let server = AnnServer::start(engine, cfg).unwrap();
    let handle = server.handle();

    let tickets: Vec<_> = (0..4)
        .map(|i| handle.submit(0, data.get(i)).unwrap())
        .collect();
    match handle.submit(0, data.get(4)) {
        Err(ServeError::QueueFull) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }

    // Shutdown flushes the four admitted queries with real results.
    let (_engine, stats) = server.shutdown();
    for t in tickets {
        assert_eq!(t.wait().unwrap().len(), 5);
    }
    assert_eq!(stats.served, 4);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.closed_by_drain, 1, "{}", stats.summary());
}

#[test]
fn malformed_submits_are_typed_errors() {
    let (engine, data) = small_engine();
    let server = AnnServer::start(engine, ServeConfig::default()).unwrap();
    let handle = server.handle();

    match handle.submit(7, data.get(0)) {
        Err(ServeError::UnknownTenant { tenant: 7 }) => {}
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
    match handle.submit(0, &[1.0; 3]) {
        Err(ServeError::WrongDim {
            expected: 16,
            got: 3,
        }) => {}
        other => panic!("expected WrongDim, got {other:?}"),
    }

    server.shutdown();
    match handle.submit(0, data.get(0)) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

/// `data.get(0)` with coordinate 5 replaced by each non-finite value.
fn non_finite_rows(data: &ann_core::VecSet<f32>) -> Vec<Vec<f32>> {
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
        .into_iter()
        .map(|bad| {
            let mut v = data.get(0).to_vec();
            v[5] = bad;
            v
        })
        .collect()
}

#[test]
fn non_finite_submits_are_typed_errors_before_the_cache() {
    let (engine, data) = small_engine();
    let cfg = ServeConfig {
        cache: Some(CacheConfig::default()),
        ..ServeConfig::default()
    };
    let server = AnnServer::start(engine, cfg).unwrap();
    let handle = server.handle();
    for v in non_finite_rows(&data) {
        match handle.submit(0, &v) {
            Err(ServeError::NonFinite { at: 5 }) => {}
            other => panic!("expected NonFinite for {}, got {other:?}", v[5]),
        }
    }
    let (_, stats) = server.shutdown();
    // rejected at admission: no cache probe, no queue slot, no batch
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        0,
        "{}",
        stats.summary()
    );
    assert_eq!(stats.batches, 0, "{}", stats.summary());
}

#[test]
fn non_finite_inserts_are_typed_errors() {
    let (engine, data) = small_engine();
    let live0 = engine.live_len();
    let server = AnnServer::start(engine, ServeConfig::default()).unwrap();
    let handle = server.handle();
    for (i, v) in non_finite_rows(&data).iter().enumerate() {
        match handle.insert(20_000 + i as u32, v) {
            Err(ServeError::NonFinite { at: 5 }) => {}
            other => panic!("expected NonFinite for {}, got {other:?}", v[5]),
        }
    }
    let (engine, stats) = server.shutdown();
    assert_eq!(stats.inserts_applied + stats.mutations_failed, 0);
    assert_eq!(engine.live_len(), live0, "nothing was enqueued");
}

/// The `Shed` budget saturates: a deadline-only config (`max_batch:
/// usize::MAX`) or a huge `max_queue_batches` has a backlog budget past
/// any queue, never an overflow panic at start or a wrapped budget that
/// caps the queue at one query.
#[test]
fn shed_budget_saturates_instead_of_overflowing() {
    for (max_batch, max_queue_batches) in [(usize::MAX, 8), (4, 1 << 62)] {
        let (engine, data) = small_engine();
        let cfg = ServeConfig {
            max_batch,
            max_delay: Duration::from_secs(60),
            overload: OverloadPolicy::Shed,
            max_queue_batches,
            ..ServeConfig::default()
        };
        let server = AnnServer::start(engine, cfg).unwrap();
        let handle = server.handle();
        // Neither trigger fires: both queries stay queued until shutdown.
        let tickets = [
            handle.submit(0, data.get(0)).unwrap(),
            handle.submit(0, data.get(1)).unwrap(),
        ];
        let (_engine, stats) = server.shutdown();
        for t in tickets {
            assert_eq!(t.wait().unwrap().len(), 5);
        }
        assert_eq!(stats.shed, 0, "{}", stats.summary());
        assert_eq!(stats.served, 2);
    }
}

/// Acceptance criterion: a served micro-batch stream returns bit-identical
/// per-query results to one offline `search_batch` — at host thread counts
/// 1, 2, 4 and 8, under 1% uniform faults, under a mid-run rank kill
/// (host-fallback recovery is lossless) and under `OverloadPolicy::Shed`,
/// each with the result cache off and on — with multiple concurrent
/// producers and arbitrary micro-batch compositions. The trace is
/// duplicate-heavy (Zipf 1.2 over a 64-row pool), so the cached legs
/// answer most of it from the cache or a single-flight leader and must
/// still return every row's offline bits. Under `Shed` a row is either
/// rejected at submit or answered with those bits.
#[test]
fn served_results_match_offline_bits_across_thread_counts() {
    const POOL: usize = 64;
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 40;
    let (mut engine, data) = small_engine();

    let mut pool = ann_core::VecSet::with_capacity(16, POOL);
    for i in 0..POOL {
        pool.push(data.get(i * 3));
    }
    let (offline, _report) = engine.search_batch(&pool);
    let offline_bits: Vec<String> = offline.iter().map(|r| format!("{r:?}")).collect();
    let trace = datasets::queries::zipfian_indices(POOL, PRODUCERS * PER_PRODUCER, 1.2, 29)
        .expect("non-empty pool");

    let rank_kill = FaultConfig::rank_kill(7, 0.5, 2, 1);
    assert!(
        FaultInjector::new(rank_kill)
            .expect("valid config")
            .dead_ranks_at(8, 1)
            > 0,
        "the rank-kill leg must actually kill a rank"
    );
    let legs = [
        (Some(1usize), None, OverloadPolicy::None),
        (Some(2), None, OverloadPolicy::None),
        (Some(4), None, OverloadPolicy::None),
        (Some(8), None, OverloadPolicy::None),
        (
            None,
            Some(FaultConfig::uniform(2025, 0.01)),
            OverloadPolicy::None,
        ),
        (None, Some(rank_kill), OverloadPolicy::None),
        (None, None, OverloadPolicy::Shed),
    ];
    for (threads, fault, overload) in legs {
        let shedding = overload == OverloadPolicy::Shed;
        let leg = format!(
            "host_threads={threads:?} fault={} overload={overload:?}",
            fault.is_some()
        );
        if let Some(f) = fault {
            engine.inject_faults(f).expect("fault config");
        }
        let mut uncached_energy_j = 0.0;
        for cache in [None, Some(CacheConfig::default())] {
            let cached = cache.is_some();
            // Small batches + tight deadline force many different micro-batch
            // compositions across producers; parity must hold regardless.
            let cfg = ServeConfig {
                max_batch: 5,
                max_delay: Duration::from_micros(200),
                queue_cap: 256,
                host_threads: threads,
                overload,
                // Sizes only Shed's budget: one batch's worth (5 rows), so
                // the producers' burst outruns it.
                max_queue_batches: 1,
                cache,
                ..ServeConfig::default()
            };
            let server = AnnServer::start(engine, cfg).unwrap();

            let producers: Vec<_> = trace
                .chunks(PER_PRODUCER)
                .map(|rows| {
                    let handle = server.handle();
                    let chunk: Vec<Vec<f32>> = rows.iter().map(|&r| pool.get(r).to_vec()).collect();
                    std::thread::spawn(move || {
                        let tickets: Vec<_> = chunk
                            .iter()
                            .map(|q| match handle.submit(0, q) {
                                Ok(t) => Some(t),
                                Err(ServeError::Overloaded) => None,
                                Err(e) => panic!("submit: {e:?}"),
                            })
                            .collect();
                        tickets
                            .into_iter()
                            .map(|t| t.map(|t| t.wait().expect("serve")))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();

            for (p, producer) in producers.into_iter().enumerate() {
                let got = producer.join().unwrap();
                for (j, res) in got.iter().enumerate() {
                    let row = trace[p * PER_PRODUCER + j];
                    let Some(res) = res else { continue };
                    assert_eq!(
                        format!("{res:?}"),
                        offline_bits[row],
                        "pool row {row} diverged at {leg} cached={cached}"
                    );
                }
            }

            let (eng, stats) = server.shutdown();
            engine = eng;
            let answered = stats.cache_hits + stats.collapsed + stats.served + stats.shed;
            assert_eq!(answered, trace.len() as u64, "{}", stats.summary());
            assert_eq!(stats.shed > 0, shedding, "{leg}: {}", stats.summary());
            match (shedding, cached) {
                // Shed rows are neither dispatched nor cached: only the
                // parity and the count above hold.
                (true, _) => assert!(stats.served > 0, "{}", stats.summary()),
                (false, true) => {
                    // Simulated energy is deterministic per dispatched query,
                    // so collapsing duplicates must strictly cut it.
                    assert!(stats.served < trace.len() as u64, "{}", stats.summary());
                    assert!(
                        stats.sim_energy_j < uncached_energy_j,
                        "{leg}: cached run dispatched {} J, uncached {uncached_energy_j} J",
                        stats.sim_energy_j
                    );
                }
                (false, false) => {
                    assert_eq!(stats.served, trace.len() as u64);
                    assert!(stats.batches >= 32, "{}", stats.summary());
                    uncached_energy_j = stats.sim_energy_j;
                }
            }
        }
        if fault.is_some() {
            engine.clear_faults();
        }
    }
}

/// Tentpole acceptance: four concurrent producers replaying a 4-query hot
/// set are served almost entirely without engine work — single-flight
/// collapses duplicates submitted while a twin is queued or in flight,
/// and the result cache answers later rounds at admission — while every
/// producer still receives results bit-identical to the offline path.
#[test]
fn single_flight_and_cache_collapse_a_hot_set() {
    let (mut engine, data) = small_engine();

    let hot: Vec<Vec<f32>> = (0..4).map(|i| data.get(i * 7).to_vec()).collect();
    let mut queries = ann_core::VecSet::with_capacity(16, hot.len());
    for q in &hot {
        queries.push(q);
    }
    let (offline, _) = engine.search_batch(&queries);
    let offline_bits: Vec<String> = offline.iter().map(|r| format!("{r:?}")).collect();

    // max_batch is unreachable for 4 distinct keys and the deadline is
    // generous, so phase-1 submissions all land while their leaders are
    // still queued: exactly one leader per distinct query, everyone else
    // a single-flight follower.
    let cfg = ServeConfig {
        max_batch: 64,
        max_delay: Duration::from_millis(250),
        queue_cap: 256,
        cache: Some(CacheConfig::default()),
        ..ServeConfig::default()
    };
    let server = AnnServer::start(engine, cfg).unwrap();

    let per_producer = 32usize;
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let handle = server.handle();
            let hot = hot.clone();
            std::thread::spawn(move || {
                let tickets: Vec<_> = (0..per_producer)
                    .map(|i| {
                        let qi = (p + i) % hot.len();
                        (qi, handle.submit(0, &hot[qi]).expect("submit"))
                    })
                    .collect();
                tickets
                    .into_iter()
                    .map(|(qi, t)| (qi, format!("{:?}", t.wait().expect("serve"))))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for producer in producers {
        for (qi, bits) in producer.join().unwrap() {
            assert_eq!(bits, offline_bits[qi], "hot query {qi} diverged");
        }
    }

    // Phase 2: the hot set is cached now (inserts happen before any
    // phase-1 ticket resolves), so these blocking searches are admission
    // hits that never touch the batch queue.
    for (qi, q) in hot.iter().enumerate() {
        let res = handle_search(&server, q);
        assert_eq!(format!("{res:?}"), offline_bits[qi]);
        let res = handle_search(&server, q);
        assert_eq!(format!("{res:?}"), offline_bits[qi]);
    }

    let (_engine, stats) = server.shutdown();
    let submitted = (4 * per_producer + 2 * hot.len()) as u64;
    // Every admitted submit is exactly one of: cache hit, single-flight
    // follower, or dispatched leader.
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        submitted,
        "{}",
        stats.summary()
    );
    assert_eq!(
        stats.cache_hits + stats.collapsed + stats.served,
        submitted,
        "{}",
        stats.summary()
    );
    // Single-flight: far fewer computations than submissions (exactly 4
    // absent a scheduling hiccup; slack for loaded CI).
    assert!(stats.served < submitted / 4, "{}", stats.summary());
    assert!(stats.collapsed > 0, "{}", stats.summary());
    assert!(
        stats.cache_hits >= 2 * hot.len() as u64,
        "{}",
        stats.summary()
    );
    assert!(stats.hit_rate() > 0.0, "{}", stats.summary());
}

fn handle_search(server: &AnnServer, q: &[f32]) -> Vec<ann_core::topk::Neighbor> {
    server.handle().search(q).expect("serve")
}

/// Epoch invalidation: a cached result from before a result-affecting
/// engine mutation is unreachable after it. An insert or delete bumps the
/// engine's epoch, the epoch is baked into the cache key, and the
/// driver's `purge_stale` drops superseded entries outright. Epochs only
/// move forward, so even the original key stays dead.
#[test]
fn mutation_epoch_bumps_invalidate_cache_keys() {
    let (mut engine, data) = small_engine();
    let cache = ResultCache::new(&CacheConfig::default());

    let q = data.get(123);
    let mut queries = ann_core::VecSet::with_capacity(16, 1);
    queries.push(q);
    let (res, _) = engine.search_batch(&queries);

    let key0 = CacheKey::new(q, engine.epoch());
    cache.insert(key0.clone(), res[0].clone());

    let epoch0 = engine.epoch();
    assert!(
        engine.delete(res[0][0].id as u32),
        "top neighbour is a live id"
    );
    assert!(engine.epoch() > epoch0, "delete must bump the epoch");
    let key1 = CacheKey::new(q, engine.epoch());
    assert_ne!(key0, key1);
    assert!(cache.get(&key1).is_none());
    cache.purge_stale(engine.epoch());
    assert!(cache.is_empty());

    // Inserts bump it too, and the old key stays dead forever.
    let epoch1 = engine.epoch();
    engine.insert(10_000, q).unwrap();
    assert!(engine.epoch() > epoch1, "insert must bump the epoch");
    assert!(cache.get(&key0).is_none());
}

/// End-to-end mutation consistency: a delete enqueued through the handle
/// applies at the next batch boundary, after which the previously cached
/// result is unreachable and a fresh dispatch never returns the
/// tombstoned id; re-inserting the point restores the original results
/// bit-for-bit.
#[test]
fn streaming_mutations_invalidate_cached_results() {
    let (engine, data) = small_engine();
    let epoch0 = engine.epoch();
    let cfg = ServeConfig {
        max_batch: 4,
        max_delay: Duration::from_micros(200),
        queue_cap: 64,
        cache: Some(CacheConfig::default()),
        ..ServeConfig::default()
    };
    let server = AnnServer::start(engine, cfg).unwrap();
    let handle = server.handle();

    let q = data.get(123).to_vec();
    let before = handle.search(&q).unwrap();
    let before_bits = format!("{before:?}");
    // Same query again: an admission-time cache hit with identical bits.
    let again = handle.search(&q).unwrap();
    assert_eq!(format!("{again:?}"), before_bits);
    assert!(handle.stats().cache_hits >= 1);

    // Tombstone the top neighbour. The enqueue is fire-and-forget; it
    // applies at the next batch boundary, so a dispatch on an unrelated
    // query both applies it and purges the now-stale cache entries.
    let victim = before[0].id as u32;
    handle.delete(victim).unwrap();
    let _ = handle.search(data.get(7)).unwrap();

    // The stale entry must be unreachable now: this re-dispatch sees the
    // post-delete engine and must not surface the tombstoned id.
    let after = handle.search(&q).unwrap();
    assert!(
        after.iter().all(|n| n.id != victim as u64),
        "tombstoned id {victim} served from a stale cache entry: {after:?}"
    );
    assert_ne!(format!("{after:?}"), before_bits);

    // Re-insert the point under its original id and force an apply: the
    // logical corpus is back to the original, so the original result —
    // and not the cached post-delete one — must be served.
    handle.insert(victim, data.get(victim as usize)).unwrap();
    let _ = handle.search(data.get(9)).unwrap();
    let restored = handle.search(&q).unwrap();
    assert_eq!(format!("{restored:?}"), before_bits);

    let (engine, stats) = server.shutdown();
    assert_eq!(stats.inserts_applied, 1, "{}", stats.summary());
    assert_eq!(stats.deletes_applied, 1, "{}", stats.summary());
    assert_eq!(stats.mutations_failed, 0, "{}", stats.summary());
    assert!(
        engine.epoch() >= epoch0 + 2,
        "one bump per applied mutation"
    );
}

/// Mutations enqueued while the server drains are flushed at shutdown:
/// the returned engine reflects them even though no further batch was
/// dispatched.
#[test]
fn shutdown_flushes_pending_mutations() {
    let (engine, data) = small_engine();
    let live0 = engine.live_len();
    let server = AnnServer::start(engine, ServeConfig::default()).unwrap();
    let handle = server.handle();

    handle.insert(20_000, data.get(3)).unwrap();
    handle.delete(5).unwrap();
    handle.delete(999_999).unwrap(); // unknown id: counted as failed

    let (engine, stats) = server.shutdown();
    assert_eq!(stats.inserts_applied, 1, "{}", stats.summary());
    assert_eq!(stats.deletes_applied, 1, "{}", stats.summary());
    assert_eq!(stats.mutations_failed, 1, "{}", stats.summary());
    assert_eq!(engine.live_len(), live0, "+1 insert, -1 delete nets out");

    // Post-shutdown mutations are typed rejections, like submits.
    match handle.insert(30_000, data.get(4)) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    match handle.delete(6) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

/// A cache-enabled server over a *duplicate-free* stream must behave
/// exactly like the uncached one result-wise: all misses, no hits, no
/// collapses, and bit-parity with the offline batch.
#[test]
fn unique_stream_with_cache_is_all_misses_and_bit_identical() {
    let (mut engine, data) = small_engine();

    let n = 24;
    let mut queries = ann_core::VecSet::with_capacity(16, n);
    for i in 0..n {
        queries.push(data.get(i * 5));
    }
    let (offline, _) = engine.search_batch(&queries);
    let offline_bits: Vec<String> = offline.iter().map(|r| format!("{r:?}")).collect();

    let cfg = ServeConfig {
        max_batch: 6,
        max_delay: Duration::from_micros(200),
        queue_cap: 64,
        cache: Some(CacheConfig::default()),
        ..ServeConfig::default()
    };
    let server = AnnServer::start(engine, cfg).unwrap();
    let handle = server.handle();
    let tickets: Vec<_> = (0..n)
        .map(|i| handle.submit(0, queries.get(i)).unwrap())
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        assert_eq!(format!("{:?}", t.wait().unwrap()), offline_bits[i]);
    }

    let (_engine, stats) = server.shutdown();
    assert_eq!(stats.served, n as u64);
    assert_eq!(stats.cache_hits, 0, "{}", stats.summary());
    assert_eq!(stats.collapsed, 0, "{}", stats.summary());
    assert_eq!(stats.cache_misses, n as u64, "{}", stats.summary());
    assert_eq!(stats.hit_rate(), 0.0);
}
