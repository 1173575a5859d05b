//! The host thread pool behind [`par_map`] and [`par_chunks_mut`]: scoped
//! threads per region. The crate docs state the contract (determinism,
//! sizing, nesting); this module meets it.
//!
//! 1. **Scoped threads, no `unsafe`.** A region spawns `threads - 1`
//!    helpers inside [`std::thread::scope`], runs the same work closure on
//!    the calling thread, and joins every helper before it returns, so the
//!    closures borrow freely from the caller's stack. A helper that fails
//!    to spawn is skipped; the others and the caller drain its share.
//! 2. **Work-stealing-lite.** Chunks are handed out through an atomic
//!    cursor (or a popped queue for `&mut` chunks); a thread that finishes
//!    early grabs the next unclaimed chunk.
//!
//! Cost: on a 2-vCPU host at 2 threads, a `par_map` region costs 30.8 /
//! 32.8 / 36.0 / 36.0 µs at n = 2 / 8 / 64 / 2,543, against 0.8 / 1.3 /
//! 8.7 / 7.9 µs for the persistent parked-worker pool this replaced. A
//! 256-query engine batch dispatches 3 regions (CL, the arena fill, one
//! dispatch wave): ≈ 80 µs on ≈ 17.7 ms, ≈ 0.5%. At one thread both
//! designs run inline. A helper's thread-locals die with its region, so
//! scratch that must stay warm across batches belongs in a shared free
//! list (the engine's LUT scratch: cold helper buffers cost ≈ 1.2%).
//!
//! Panics: every helper is joined explicitly, so its own payload (not the
//! scope's generic one) is re-raised on the dispatching thread after the
//! region barrier, the caller's first.

use crate::sync::lock_unpoisoned;
use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::LocalKey;

/// Env knob for the pool width (`DRIM_ANN_THREADS=4 cargo test`).
pub(crate) const THREADS_ENV: &str = "DRIM_ANN_THREADS";

/// Hard cap on pool width (thread-count sanity, not a scheduling limit).
const MAX_THREADS: usize = 512;

/// Upper bound on chunks per [`par_map`] region. Chunk size is
/// `ceil(len / MAX_CHUNKS)`: enough chunks that an early finisher can steal
/// more work, few enough that per-chunk bookkeeping stays invisible.
const MAX_CHUNKS: usize = 64;

thread_local! {
    /// Set while this thread executes inside a parallel region (helpers and
    /// the participating caller alike).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Thread-count override installed by [`with_num_threads`]; 0 = none.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Effective pool width for a region dispatched from this thread: the
/// [`with_num_threads`] override, else `DRIM_ANN_THREADS`, else
/// [`std::thread::available_parallelism`]; 1 inside a region.
pub fn current_num_threads() -> usize {
    if IN_POOL.with(|c| c.get()) {
        return 1; // nested regions run inline
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
/// (overrides the env var; does not propagate into region helpers, where
/// nested regions are sequential anyway). Restores the previous override
/// even if `f` panics. The parity tests use this to compare 1-thread and
/// N-thread runs inside one process.
pub fn with_num_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "thread count must be at least 1");
    with_local(&THREAD_OVERRIDE, threads, f)
}

/// Mark this thread as inside a region for the duration of `f`.
fn enter_pool<R>(f: impl FnOnce() -> R) -> R {
    with_local(&IN_POOL, true, f)
}

/// Set `key` to `value` for the duration of `f`, restoring the previous
/// value even if `f` panics.
fn with_local<T: Copy, R>(key: &'static LocalKey<Cell<T>>, value: T, f: impl FnOnce() -> R) -> R {
    let _restore = Restore(key, key.with(|c| c.replace(value)));
    return f();

    struct Restore<T: Copy + 'static>(&'static LocalKey<Cell<T>>, T);
    impl<T: Copy> Drop for Restore<T> {
        fn drop(&mut self) {
            let prev = self.1;
            self.0.with(|c| c.set(prev));
        }
    }
}

/// Dispatch one region: run `work` on the calling thread and on up to
/// `extra` scoped helpers, returning only when every helper has finished.
fn run_region(extra: usize, work: &(dyn Fn() + Sync)) {
    std::thread::scope(|s| {
        let helpers: Vec<_> = (0..extra)
            .filter_map(|i| {
                std::thread::Builder::new()
                    .name(format!("drim-pool-{i}"))
                    .spawn_scoped(s, || enter_pool(work))
                    .ok() // degrade gracefully: fewer helpers, the caller still drains
            })
            .collect();
        // a caller panic unwinds out of this closure; the scope then joins
        // the helpers and re-raises the caller's payload
        enter_pool(work);
        for h in helpers {
            if let Err(p) = h.join() {
                resume_unwind(p);
            }
        }
    });
}

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
