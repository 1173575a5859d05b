//! The micro-batching server: admission, the batch driver, and result
//! demultiplexing.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use ann_core::topk::Neighbor;
use ann_core::vector::VecSet;
use drim_ann::engine::DrimEngine;
use rayon::sync::{lock_unpoisoned, OneShot};

use crate::cache::{CacheKey, ResultCache};
use crate::config::{OverloadPolicy, ServeConfig};
use crate::error::ServeError;
use crate::inbox::{close_rule, CloseReason, InboxState, Mutation, Request, Step};
use crate::stats::ServeStats;

/// State shared between producer handles and the driver thread.
#[derive(Debug)]
struct Shared {
    inbox: Mutex<InboxState>,
    /// Driver parks here; producers notify on every admission.
    arrivals: Condvar,
    stats: Mutex<ServeStats>,
    /// The hot-query result cache (`None` with caching off).
    cache: Option<ResultCache>,
    /// The engine's result-validity epoch as of the last dispatch,
    /// published by the driver so producers can build cache keys without
    /// touching the engine.
    epoch: AtomicU64,
}

/// A claim on one submitted query's result.
///
/// The producer thread parks in [`Ticket::wait`] on a
/// [`OneShot`] slot — no polling — until the driver
/// deposits the result after the query's micro-batch completes.
#[derive(Debug)]
#[must_use = "a Ticket that is never waited on discards its query's result"]
pub struct Ticket {
    slot: Arc<OneShot<Result<Vec<Neighbor>, ServeError>>>,
}

impl Ticket {
    /// Park until the result arrives, then return it.
    pub fn wait(self) -> Result<Vec<Neighbor>, ServeError> {
        self.slot.wait()
    }

    /// Non-blocking probe: `Some(result)` once the query's batch has
    /// completed, else `None`. Taking the result consumes it.
    pub fn try_take(&self) -> Option<Result<Vec<Neighbor>, ServeError>> {
        self.slot.try_take()
    }
}

/// A cloneable producer-side handle: submit queries, read stats.
///
/// Handles are cheap to clone and safe to share across any number of
/// producer threads; all synchronisation happens inside.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    dim: usize,
    queue_cap: usize,
    /// The overload cap (the backlog budget under
    /// [`OverloadPolicy::Shed`]; `usize::MAX` otherwise).
    shed_cap: usize,
}

impl ServeHandle {
    /// Admit one query, returning a [`Ticket`] for its result. `tenant`
    /// must be 0: the server has one queue.
    ///
    /// Non-blocking: the query is copied into the bounded queue and the
    /// call returns immediately. Rejections are immediate and typed —
    /// [`ServeError::QueueFull`] when the queue is at `queue_cap`
    /// (backpressure), [`ServeError::UnknownTenant`] /
    /// [`ServeError::WrongDim`] / [`ServeError::NonFinite`] for malformed
    /// submits,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    ///
    /// With [`ServeConfig::cache`] enabled, a submit whose exact query
    /// was served before (same bit pattern, same engine state) is
    /// answered from the cache here at admission — the returned ticket is
    /// already resolved and the query never consumes micro-batch budget.
    /// A miss whose identical twin is already queued or in flight parks
    /// on that computation instead of queueing a duplicate
    /// (single-flight); followers consume no queue slot, so they bypass
    /// `queue_cap` and the shed policy.
    pub fn submit(&self, tenant: usize, query: &[f32]) -> Result<Ticket, ServeError> {
        if tenant != 0 {
            return Err(ServeError::UnknownTenant { tenant });
        }
        self.check_vector(query)?;
        let slot = Arc::new(OneShot::new());
        // With the cache on: key the query against the driver's last
        // published epoch and probe before taking the inbox lock.
        let key = self.shared.cache.as_ref().map(|cache| {
            let key = CacheKey::new(query, self.shared.epoch.load(Ordering::Acquire));
            (cache, key)
        });
        if let Some((cache, key)) = &key {
            if let Some(hit) = cache.get(key) {
                lock_unpoisoned(&self.shared.stats).cache_hits += 1;
                slot.put(Ok(hit));
                return Ok(Ticket { slot });
            }
        }
        {
            let mut g = lock_unpoisoned(&self.shared.inbox);
            if !g.open {
                return Err(ServeError::ShuttingDown);
            }
            // Single-flight: an identical query is already queued or in
            // flight under the same engine state — park on its
            // computation instead of queueing a duplicate.
            if let Some((_, key)) = &key {
                if let Some(followers) = g.inflight.get_mut(key) {
                    followers.push(Arc::clone(&slot));
                    drop(g);
                    let mut s = lock_unpoisoned(&self.shared.stats);
                    s.cache_misses += 1;
                    s.collapsed += 1;
                    return Ok(Ticket { slot });
                }
            }
            if g.queue.len() >= self.queue_cap {
                drop(g);
                lock_unpoisoned(&self.shared.stats).rejected += 1;
                return Err(ServeError::QueueFull);
            }
            if g.queue.len() >= self.shed_cap {
                drop(g);
                lock_unpoisoned(&self.shared.stats).shed += 1;
                return Err(ServeError::Overloaded);
            }
            let cache_key = key.map(|(_, k)| k);
            if let Some(k) = &cache_key {
                // This submit leads the single-flight for its key.
                g.inflight.insert(k.clone(), Vec::new());
            }
            g.queue.push_back(Request {
                query: query.to_vec(),
                admitted_at: Instant::now(),
                slot: Arc::clone(&slot),
                cache_key,
            });
        }
        if self.shared.cache.is_some() {
            lock_unpoisoned(&self.shared.stats).cache_misses += 1;
        }
        self.shared.arrivals.notify_one();
        Ok(Ticket { slot })
    }

    /// Submit and park until the result arrives — the one-call form of
    /// `submit(0, ..)?.wait()`.
    pub fn search(&self, query: &[f32]) -> Result<Vec<Neighbor>, ServeError> {
        self.submit(0, query)?.wait()
    }

    /// Enqueue a streaming insert: the vector joins the index at the next
    /// batch boundary (the driver applies pending mutations, in submission
    /// order, before dispatching each micro-batch — and flushes them on
    /// shutdown, so an enqueued mutation is never lost).
    ///
    /// Fire-and-forget: the call validates shape and admission, then
    /// returns. Apply-time failures (duplicate live id, MRAM exhaustion)
    /// are counted in [`ServeStats::mutations_failed`], not surfaced here.
    /// Every applied mutation bumps the engine epoch, so cached results
    /// from before the insert are never served after it.
    pub fn insert(&self, id: u32, vector: &[f32]) -> Result<(), ServeError> {
        self.check_vector(vector)?;
        {
            let mut g = lock_unpoisoned(&self.shared.inbox);
            if !g.open {
                return Err(ServeError::ShuttingDown);
            }
            g.mutations.push_back(Mutation::Insert {
                id,
                vector: vector.to_vec(),
            });
        }
        self.shared.arrivals.notify_one();
        Ok(())
    }

    /// Admission check of a query or inserted vector: the engine's
    /// dimension, every coordinate finite.
    fn check_vector(&self, v: &[f32]) -> Result<(), ServeError> {
        if v.len() != self.dim {
            return Err(ServeError::WrongDim {
                expected: self.dim,
                got: v.len(),
            });
        }
        match v.iter().position(|x| !x.is_finite()) {
            Some(at) => Err(ServeError::NonFinite { at }),
            None => Ok(()),
        }
    }

    /// Enqueue a streaming delete (tombstone) for `id`; same batch-boundary
    /// apply and fire-and-forget semantics as [`Self::insert`]. Deleting an
    /// id that is not live counts as a failed mutation at apply time.
    pub fn delete(&self, id: u32) -> Result<(), ServeError> {
        {
            let mut g = lock_unpoisoned(&self.shared.inbox);
            if !g.open {
                return Err(ServeError::ShuttingDown);
            }
            g.mutations.push_back(Mutation::Delete { id });
        }
        self.shared.arrivals.notify_one();
        Ok(())
    }

    /// Snapshot the serving counters.
    pub fn stats(&self) -> ServeStats {
        lock_unpoisoned(&self.shared.stats).clone()
    }

    /// Query dimensionality the server validates against.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// The serving front-end: owns the engine (via its driver thread) and the
/// producer-facing [`ServeHandle`].
///
/// `AnnServer` is the online counterpart of the offline
/// [`DrimEngine::search_batch`] path. Producers on any number of threads
/// submit single queries; a dedicated driver thread coalesces them into
/// micro-batches (close at `max_batch` queries or `max_delay` after the
/// oldest arrival, whichever first), runs each batch through the engine
/// on scoped threads per region, and demultiplexes per-query results back
/// to parked producers. Everything is condvar-parking — no async runtime,
/// no spinning.
///
/// Determinism: per-query results are bit-identical to an offline
/// `search_batch` over the same queries, independent of how arrivals got
/// grouped into micro-batches and of the host thread count (see
/// `docs/SERVING.md` for why micro-batch composition cannot change
/// results).
#[derive(Debug)]
pub struct AnnServer {
    handle: ServeHandle,
    driver: JoinHandle<DrimEngine>,
}

impl AnnServer {
    /// Start serving: validate `cfg`, move `engine` onto a dedicated
    /// driver thread, and return the server.
    pub fn start(engine: DrimEngine, cfg: ServeConfig) -> Result<AnnServer, ServeError> {
        cfg.validate()?;
        let dim = engine.dim();
        let shared = Arc::new(Shared {
            inbox: Mutex::new(InboxState::new()),
            arrivals: Condvar::new(),
            stats: Mutex::new(ServeStats::default()),
            cache: cfg.cache.as_ref().map(ResultCache::new),
            epoch: AtomicU64::new(engine.epoch()),
        });
        let shed_cap = match cfg.overload {
            // Saturating: a deadline-only config (`max_batch: usize::MAX`)
            // has a budget past any queue, not a wrapped one. Floored at 1
            // so a query can always be queued.
            OverloadPolicy::Shed => cfg.max_queue_batches.saturating_mul(cfg.max_batch).max(1),
            OverloadPolicy::None => usize::MAX,
        };
        let handle = ServeHandle {
            shared: Arc::clone(&shared),
            dim,
            queue_cap: cfg.queue_cap,
            shed_cap,
        };
        let driver = std::thread::Builder::new()
            .name("ann-serve-driver".into())
            .spawn(move || drive(engine, shared, cfg))
            .expect("failed to spawn ann-serve driver thread");
        Ok(AnnServer { handle, driver })
    }

    /// A cloneable producer handle.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Stop admitting, flush every already-admitted query (producers get
    /// real results, not errors), and return the engine plus final stats.
    ///
    /// Panics only if the driver thread itself panicked (engine failure);
    /// in that case all in-flight tickets were already failed with
    /// [`ServeError::EngineFailed`], so no producer is left parked.
    pub fn shutdown(self) -> (DrimEngine, ServeStats) {
        {
            let mut g = lock_unpoisoned(&self.handle.shared.inbox);
            g.open = false;
        }
        self.handle.shared.arrivals.notify_all();
        let engine = self
            .driver
            .join()
            .expect("ann-serve driver panicked; in-flight tickets were failed");
        let stats = lock_unpoisoned(&self.handle.shared.stats).clone();
        (engine, stats)
    }
}

/// The driver loop: park for work, close a micro-batch, execute,
/// demultiplex. Returns the engine when the inbox is drained after
/// shutdown.
fn drive(mut engine: DrimEngine, shared: Arc<Shared>, cfg: ServeConfig) -> DrimEngine {
    // Each micro-batch advances the engine's fault-batch index so an armed
    // injector sees a fresh batch of transient draws per dispatch, exactly
    // like an offline batch stream.
    let mut batch_idx: u64 = 0;
    // Last epoch the cache was purged at; a change drops stale entries
    // eagerly instead of letting CLOCK churn them out one miss at a time.
    let mut last_epoch = engine.epoch();
    loop {
        let (reqs, reason, muts) = {
            let mut g = lock_unpoisoned(&shared.inbox);
            let reason = loop {
                let now = Instant::now();
                let front = g.queue.front().map(|r| r.admitted_at);
                match close_rule(
                    g.queue.len(),
                    front,
                    g.open,
                    now,
                    cfg.max_batch,
                    cfg.max_delay,
                ) {
                    Step::Close(reason) => break reason,
                    Step::Exit => {
                        // Flush pending mutations first so none are lost,
                        // then hand the engine back.
                        let muts: Vec<Mutation> = g.mutations.drain(..).collect();
                        drop(g);
                        apply_mutations(&mut engine, muts, &shared);
                        return engine;
                    }
                    Step::WaitForArrival => {
                        g = shared.arrivals.wait(g).unwrap_or_else(|p| p.into_inner());
                    }
                    Step::WaitUntil(deadline) => {
                        let (g2, _) = shared
                            .arrivals
                            .wait_timeout(g, deadline - now)
                            .unwrap_or_else(|p| p.into_inner());
                        g = g2;
                    }
                }
            };
            let reqs = g.cut_batch(cfg.max_batch);
            let muts: Vec<Mutation> = g.mutations.drain(..).collect();
            (reqs, reason, muts)
        };
        debug_assert!(!reqs.is_empty(), "every close reason implies queued >= 1");

        // Apply pending mutations before this dispatch: the epoch bumps
        // they cause land *before* `dispatch_epoch` is read below, so the
        // cache purge and the published epoch cover them — a result
        // computed pre-mutation can never be cached or replayed under the
        // post-mutation epoch (and vice versa).
        apply_mutations(&mut engine, muts, &shared);
        if let Some(every) = cfg.maintain_every {
            if batch_idx > 0 && batch_idx.is_multiple_of(every) {
                let rep = engine.maintain();
                let mut s = lock_unpoisoned(&shared.stats);
                s.maintenance_runs += 1;
                s.maintenance_moved_bytes += rep.moved_bytes;
                s.maintenance_transfer_s += rep.transfer_s;
            }
        }

        let mut queries = VecSet::with_capacity(engine.dim(), reqs.len());
        for r in &reqs {
            queries.push(&r.query);
        }
        engine.set_fault_batch(batch_idx);
        batch_idx += 1;

        // Publish the epoch this dispatch runs under — producers build
        // cache keys from it — and drop cache entries from any superseded
        // epoch.
        let dispatch_epoch = engine.epoch();
        if dispatch_epoch != last_epoch {
            if let Some(cache) = &shared.cache {
                cache.purge_stale(dispatch_epoch);
            }
            last_epoch = dispatch_epoch;
        }
        shared.epoch.store(dispatch_epoch, Ordering::Release);

        let outcome = catch_unwind(AssertUnwindSafe(|| match cfg.host_threads {
            // The shim's thread override is thread-local; re-apply it here
            // on the driver thread where search_batch actually runs.
            Some(n) => rayon::with_num_threads(n, || engine.search_batch(&queries)),
            None => engine.search_batch(&queries),
        }));

        match outcome {
            Ok((results, report)) => {
                {
                    let mut s = lock_unpoisoned(&shared.stats);
                    s.batches += 1;
                    s.served += reqs.len() as u64;
                    match reason {
                        CloseReason::Size => s.closed_by_size += 1,
                        CloseReason::Deadline => s.closed_by_deadline += 1,
                        CloseReason::Drain => s.closed_by_drain += 1,
                    }
                    s.largest_batch = s.largest_batch.max(reqs.len());
                    s.smallest_batch = if s.smallest_batch == 0 {
                        reqs.len()
                    } else {
                        s.smallest_batch.min(reqs.len())
                    };
                    s.sim_time_s += report.timing.total_s();
                    s.sim_energy_j += report.energy_j;
                    s.deduped_in_batch += report.deduped as u64;
                }
                if let Some(cache) = &shared.cache {
                    // Populate the cache *before* clearing single-flight
                    // entries: a concurrent submit must find either the
                    // cache entry or the inflight entry. The remaining
                    // window (submit probes the cache just before the
                    // insert, then finds no inflight entry and re-queues)
                    // loses only the optimisation, never correctness.
                    let epoch_now = engine.epoch();
                    let mut evicted = 0u64;
                    for (req, res) in reqs.iter().zip(&results) {
                        if let Some(key) = &req.cache_key {
                            // A key from a superseded epoch (a mutation
                            // landed between its admission and this
                            // dispatch) is not cached: the result is valid
                            // for the producer but must not be replayed
                            // under the old key.
                            if key.epoch() == epoch_now {
                                evicted += cache.insert(key.clone(), res.clone());
                            }
                        }
                    }
                    let mut fanout = Vec::new();
                    {
                        let mut g = lock_unpoisoned(&shared.inbox);
                        for (req, res) in reqs.iter().zip(&results) {
                            if let Some(key) = &req.cache_key {
                                if let Some(followers) = g.inflight.remove(key) {
                                    for f in followers {
                                        fanout.push((f, res.clone()));
                                    }
                                }
                            }
                        }
                    }
                    // Resolve follower slots outside the inbox lock.
                    for (f, res) in fanout {
                        f.put(Ok(res));
                    }
                    if evicted > 0 {
                        lock_unpoisoned(&shared.stats).evictions += evicted;
                    }
                }
                for (req, res) in reqs.into_iter().zip(results) {
                    req.slot.put(Ok(res));
                }
            }
            Err(payload) => {
                // Engine panicked: fail every parked producer — the batch
                // in flight and everything still queued — then close the
                // inbox and propagate the panic to shutdown's join.
                for req in reqs {
                    req.slot.put(Err(ServeError::EngineFailed));
                }
                let mut g = lock_unpoisoned(&shared.inbox);
                g.open = false;
                for r in g.queue.drain(..) {
                    r.slot.put(Err(ServeError::EngineFailed));
                }
                // Single-flight followers parked on the failed batch (or
                // on queued leaders just drained above) are failed too —
                // no producer is left parked forever.
                for (_, followers) in g.inflight.drain() {
                    for f in followers {
                        f.put(Err(ServeError::EngineFailed));
                    }
                }
                drop(g);
                resume_unwind(payload);
            }
        }
    }
}

/// Apply a drained batch of mutations to the engine, in submission order.
///
/// Enqueue is fire-and-forget, so failures (duplicate insert id, delete of
/// an unknown id, MRAM exhaustion) are counted in
/// [`ServeStats::mutations_failed`] rather than surfaced to the producer.
fn apply_mutations(engine: &mut DrimEngine, muts: Vec<Mutation>, shared: &Shared) {
    if muts.is_empty() {
        return;
    }
    let (mut inserted, mut deleted, mut failed) = (0u64, 0u64, 0u64);
    for m in muts {
        match m {
            Mutation::Insert { id, vector } => match engine.insert(id, &vector) {
                Ok(()) => inserted += 1,
                Err(_) => failed += 1,
            },
            Mutation::Delete { id } => {
                if engine.delete(id) {
                    deleted += 1;
                } else {
                    failed += 1;
                }
            }
        }
    }
    let mut s = lock_unpoisoned(&shared.stats);
    s.inserts_applied += inserted;
    s.deletes_applied += deleted;
    s.mutations_failed += failed;
}
