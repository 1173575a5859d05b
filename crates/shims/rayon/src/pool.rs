//! The persistent pinned worker pool behind [`par_map`] and
//! [`par_chunks_mut`].
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism across thread counts.** `par_map(n, f)` returns
//!    `out[i] = f(i)` and `par_chunks_mut` hands every chunk to `f` exactly
//!    once, each with its own index. Neither has an operation that combines
//!    items, so no caller can observe how the pool cut the range or which
//!    thread ran which piece: a pure `f` gives bit-identical results at 1
//!    thread or 64. `tests/parallel_parity.rs` at the workspace root pins
//!    this down end to end.
//! 2. **Persistent workers, no `'static` gymnastics.** Workers are spawned
//!    lazily on first demand and then *parked* between regions — a region
//!    costs one mutex publish + condvar wake instead of thread spawns,
//!    which is what makes micro-batch regions (the serving regime the
//!    north star targets) cheap. Closures still borrow freely from the
//!    dispatching caller's stack: a region publishes a type-erased pointer
//!    to its shared work closure, helpers *claim tickets* to run it, and
//!    the caller revokes unclaimed tickets and blocks until every claimed
//!    run has finished before returning — so no worker can touch the
//!    closure (or anything it borrows) after the dispatch frame unwinds.
//! 3. **Work-stealing-lite.** Chunks are handed out through an atomic
//!    cursor (or a popped queue for `&mut` chunks); a worker that finishes
//!    early simply grabs the next unclaimed chunk, which is all the load
//!    balancing the workspace's regular-shaped loops need.
//!
//! Sizing: [`current_num_threads`] reads, in order, a thread-local override
//! (see [`with_num_threads`]), the `DRIM_ANN_THREADS` env var, and finally
//! [`std::thread::available_parallelism`].
//! Inside a pool worker it reports 1: nested parallel regions run inline on
//! the worker, which both avoids thread explosion and makes nesting
//! trivially deadlock-free (no worker ever waits on another's queue).
//!
//! Lifecycle: the pool grows to the largest helper count any region has
//! demanded (capped at [`MAX_THREADS`]) and never shrinks. Parked workers
//! hold no locks and own no borrowed state, so process exit while they
//! sleep on the condvar is clean. Worker panics are caught, carried back in
//! the region record, and re-raised on the dispatching thread after the
//! region barrier (never across it).

use crate::sync::lock_unpoisoned;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Env knob for the pool width (`DRIM_ANN_THREADS=4 cargo test`).
pub(crate) const THREADS_ENV: &str = "DRIM_ANN_THREADS";

/// Hard cap on pool width (worker-count sanity, not a scheduling limit).
const MAX_THREADS: usize = 512;

/// Upper bound on chunks per [`par_map`] region. Chunk size is
/// `ceil(len / MAX_CHUNKS)`: enough chunks that an early finisher can steal
/// more work, few enough that per-chunk bookkeeping stays invisible.
const MAX_CHUNKS: usize = 64;

thread_local! {
    /// Set while this thread executes inside a parallel region (workers and
    /// the participating caller alike).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Thread-count override installed by [`with_num_threads`]; 0 = none.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Effective pool width for a region dispatched from this thread.
pub fn current_num_threads() -> usize {
    if IN_POOL.with(|c| c.get()) {
        return 1; // nested regions run inline on the worker
    }
    let ov = THREAD_OVERRIDE.with(|c| c.get());
    if ov != 0 {
        return ov.min(MAX_THREADS);
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` with the pool width pinned to `threads` on this thread
/// (overrides the env var; does not propagate into pool workers, where
/// nested regions are sequential anyway). Restores the previous override
/// even if `f` panics. The parity tests use this to compare 1-thread and
/// N-thread runs inside one process.
pub fn with_num_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "thread count must be at least 1");
    let prev = THREAD_OVERRIDE.with(|c| c.replace(threads));
    let _restore = Restore(&THREAD_OVERRIDE, prev);
    return f();

    struct Restore(&'static std::thread::LocalKey<Cell<usize>>, usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.1;
            self.0.with(|c| c.set(prev));
        }
    }
}

/// Mark this thread as a pool worker for the duration of `f`.
fn enter_pool<R>(f: impl FnOnce() -> R) -> R {
    let prev = IN_POOL.with(|c| c.replace(true));
    let _restore = Restore(prev);
    return f();

    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            IN_POOL.with(|c| c.set(prev));
        }
    }
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

/// Type-erased pointer to a region's shared work closure. The pointee
/// lives on the dispatching caller's stack; the ticket protocol (claim /
/// revoke / barrier) guarantees no dereference outlives the dispatch
/// frame.
struct WorkPtr(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared-called from many threads) and the
// region protocol bounds every dereference by the dispatcher's barrier.
unsafe impl Send for WorkPtr {}
unsafe impl Sync for WorkPtr {}

/// Completion state of a region, guarded by the region's mutex.
struct RegionDone {
    /// Helper runs that have finished (successfully or by panic).
    finished: usize,
    /// First helper panic payload, re-raised by the dispatcher.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One published parallel region.
///
/// The protocol's invariants — [`run_region`] is the one place that drives
/// a region through them, so the one place they must hold:
///
/// 1. `tickets` only decreases: a successful [`Region::claim`] takes one,
///    [`Region::revoke`] takes all that are left, nothing adds any.
/// 2. No claim succeeds after `revoke`: it leaves `tickets == 0` and a
///    claim is a CAS from a non-zero value, so the dispatcher learns
///    exactly how many runs were started (`extra - unclaimed`).
/// 3. [`Region::wait`]`(claimed)` returns only after `finished == claimed`:
///    each claimed run bumps `finished` exactly once, under `done`, after
///    its call of the closure has returned or unwound.
/// 4. `work` is dereferenced only between a successful claim and the
///    matching `finished += 1` (in [`Region::run_claimed`]). By 2 and 3
///    that interval ends before `run_region` returns, which is what makes
///    the lifetime erasure in [`Region::new`] sound.
struct Region {
    work: WorkPtr,
    /// Helper tickets still claimable. Claimed via CAS; zeroed by
    /// [`Region::revoke`], after which no worker can start the closure.
    tickets: AtomicUsize,
    done: Mutex<RegionDone>,
    cv: Condvar,
}

impl Region {
    fn new<'a>(work: &'a (dyn Fn() + Sync + 'a), tickets: usize) -> Arc<Region> {
        // SAFETY: lifetime erasure only (identical wide-pointer layout).
        // The ticket protocol bounds every dereference by the dispatch
        // frame: claims become impossible after `revoke`, and the
        // dispatcher blocks in `wait` until every claimed run finished.
        let work_ptr: *const (dyn Fn() + Sync + 'a) = work;
        let work_ptr: *const (dyn Fn() + Sync + 'static) = unsafe { std::mem::transmute(work_ptr) };
        Arc::new(Region {
            work: WorkPtr(work_ptr),
            tickets: AtomicUsize::new(tickets),
            done: Mutex::new(RegionDone {
                finished: 0,
                panic: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Try to claim one helper ticket.
    fn claim(&self) -> bool {
        let mut t = self.tickets.load(Ordering::Acquire);
        loop {
            if t == 0 {
                return false;
            }
            match self
                .tickets
                .compare_exchange_weak(t, t - 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(now) => t = now,
            }
        }
    }

    /// Withdraw all unclaimed tickets; returns how many were unclaimed.
    fn revoke(&self) -> usize {
        self.tickets.swap(0, Ordering::AcqRel)
    }

    /// Run one claimed ticket (worker side).
    ///
    /// SAFETY precondition: a ticket for this region was successfully
    /// claimed. The dispatcher keeps the closure alive until `finished`
    /// reaches the claimed count, so the dereference is in-bounds.
    fn run_claimed(&self) {
        let work = unsafe { &*self.work.0 };
        let result = catch_unwind(AssertUnwindSafe(|| enter_pool(work)));
        let mut d = lock_unpoisoned(&self.done);
        if let Err(p) = result {
            if d.panic.is_none() {
                d.panic = Some(p);
            }
        }
        d.finished += 1;
        self.cv.notify_all();
    }

    /// Dispatcher barrier: block until `claimed` helper runs have finished,
    /// then take the first helper panic (if any).
    fn wait(&self, claimed: usize) -> Option<Box<dyn std::any::Any + Send>> {
        let mut d = lock_unpoisoned(&self.done);
        while d.finished < claimed {
            d = self.cv.wait(d).unwrap_or_else(|p| p.into_inner());
        }
        d.panic.take()
    }
}

/// Shared pool state: the active-region list plus the worker census.
struct PoolShared {
    /// Every published region that may still hold claimable tickets, in
    /// publish order (workers serve the oldest claimable one first, so
    /// concurrent dispatchers all get helpers instead of only the latest).
    jobs: Vec<Arc<Region>>,
    /// Workers spawned so far (monotone, capped at [`MAX_THREADS`]).
    spawned: usize,
}

struct Pool {
    mu: Mutex<PoolShared>,
    cv: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        mu: Mutex::new(PoolShared {
            jobs: Vec::new(),
            spawned: 0,
        }),
        cv: Condvar::new(),
    })
}

/// Number of persistent workers spawned so far.
#[cfg(test)]
pub(crate) fn pool_workers_spawned() -> usize {
    lock_unpoisoned(&pool().mu).spawned
}

/// Worker main loop: park on the pool condvar, serve claimable tickets of
/// the oldest active region, park again when nothing is claimable. Holds
/// no locks and borrows nothing while parked, so process exit is clean.
fn worker_main() {
    let pool = pool();
    loop {
        let region = {
            let mut g = lock_unpoisoned(&pool.mu);
            loop {
                // prune regions whose tickets are exhausted or revoked —
                // their dispatchers are (or soon will be) past the barrier
                g.jobs.retain(|j| j.tickets.load(Ordering::Acquire) > 0);
                if let Some(job) = g.jobs.first() {
                    break job.clone();
                }
                g = pool.cv.wait(g).unwrap_or_else(|p| p.into_inner());
            }
        };
        while region.claim() {
            region.run_claimed();
        }
    }
}

/// Publish a region offering `extra` helper tickets, growing the worker
/// set if this demand exceeds what has been spawned so far.
fn publish(extra: usize, work: &(dyn Fn() + Sync)) -> Arc<Region> {
    let pool = pool();
    let region = Region::new(work, extra);
    let mut g = lock_unpoisoned(&pool.mu);
    while g.spawned < extra.min(MAX_THREADS) {
        let spawn = std::thread::Builder::new()
            .name(format!("drim-pool-{}", g.spawned))
            .spawn(worker_main);
        match spawn {
            Ok(_) => g.spawned += 1,
            Err(_) => break, // degrade gracefully: fewer helpers, caller still drains
        }
    }
    g.jobs.push(region.clone());
    drop(g);
    pool.cv.notify_all();
    region
}

/// Remove `region` from the active list (its dispatch frame is about to
/// return, so the erased work pointer must not linger in shared state).
fn retire(region: &Arc<Region>) {
    let mut g = lock_unpoisoned(&pool().mu);
    g.jobs.retain(|job| !Arc::ptr_eq(job, region));
}

/// Dispatch one region: run `work` on the calling thread and on up to
/// `extra` pool workers, returning only when every started run has
/// finished. Panics (caller's or any helper's) propagate after the
/// barrier, caller's first.
fn run_region(extra: usize, work: &(dyn Fn() + Sync)) {
    if extra == 0 {
        enter_pool(work);
        return;
    }
    let region = publish(extra, work);
    let caller = catch_unwind(AssertUnwindSafe(|| enter_pool(work)));
    let unclaimed = region.revoke();
    let helper_panic = region.wait(extra - unclaimed);
    retire(&region);
    if let Err(p) = caller {
        resume_unwind(p);
    }
    if let Some(p) = helper_panic {
        resume_unwind(p);
    }
}

// ---------------------------------------------------------------------------
// The two entry points
// ---------------------------------------------------------------------------

/// `out[i] == f(i)` for every `i in 0..n`, computed on the pool.
///
/// `[0, n)` is cut into at most 64 contiguous chunks claimed
/// through an atomic cursor; the caller participates as a worker. Panics in
/// any worker propagate to the caller after the region barrier.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(MAX_CHUNKS);
    let threads = current_num_threads().min(n.div_ceil(chunk));
    if threads <= 1 {
        return enter_pool(|| (0..n).map(f).collect());
    }
    let cursor = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
    run_region(threads - 1, &|| loop {
        let s = cursor.fetch_add(chunk, Ordering::Relaxed);
        if s >= n {
            break;
        }
        let part = (s..(s + chunk).min(n)).map(&f).collect();
        lock_unpoisoned(&parts).push((s, part));
    });
    let mut parts = parts.into_inner().unwrap_or_else(|p| p.into_inner());
    parts.sort_unstable_by_key(|&(s, _)| s);
    let mut out = Vec::with_capacity(n);
    for (_, p) in parts {
        out.extend(p);
    }
    out
}

/// `f(c, chunk)` for the `c`-th `size`-element chunk of `slice` (the last
/// may be shorter), each chunk handed to exactly one thread as a disjoint
/// `&mut` sub-slice.
pub fn par_chunks_mut<T, F>(slice: &mut [T], size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(size > 0, "chunk size must be non-zero");
    let threads = current_num_threads().min(slice.len().div_ceil(size));
    if threads <= 1 {
        enter_pool(|| {
            for (c, ch) in slice.chunks_mut(size).enumerate() {
                f(c, ch);
            }
        });
        return;
    }
    let queue: Mutex<Vec<(usize, &mut [T])>> =
        Mutex::new(slice.chunks_mut(size).enumerate().collect());
    run_region(threads - 1, &|| loop {
        let item = lock_unpoisoned(&queue).pop();
        match item {
            Some((c, ch)) => f(c, ch),
            None => break,
        }
    });
}
