//! The workspace's host thread pool: two parallel loops over scoped
//! threads per region.
//!
//! * [`par_map`]`(n, f)` — `out[i] == f(i)` for `i in 0..n`;
//! * [`par_chunks_mut`]`(slice, size, f)` — `f(c, chunk)` over the
//!   disjoint `size`-element `&mut` chunks of a slice.
//!
//! Every host-side parallel loop of the workspace (CL's blocked GEMM, the
//! per-DPU dispatch wave, k-means, ground truth) is one of these. Each
//! region spawns its helpers with [`std::thread::scope`] and joins them
//! before it returns, so the pool holds no threads between regions and
//! needs no `unsafe`. Sizing comes from
//! [`std::thread::available_parallelism`], overridable via the
//! `DRIM_ANN_THREADS` env var and [`with_num_threads`]. [`sync`] exports
//! the condvar-parking idiom of `ann-serve`'s request path.
//!
//! **Determinism.** Neither entry point combines items, so a caller cannot
//! observe how the range was cut or which thread ran which piece: with a
//! pure `f`, results are bit-identical at every thread count because
//! `out[i] = f(i)`. `tests/parallel_parity.rs` at the workspace root holds
//! the search/k-means pipelines to that.
//!
//! Nested parallel regions run inline on the thread that encounters them
//! (no thread explosion, trivially deadlock-free), and a panic in any
//! helper propagates to the thread that dispatched the region after the
//! region barrier.
//!
//! The package is named `rayon` for the manifests that depend on it by
//! that name; it shares nothing else with the crates.io crate.

mod pool;
pub mod sync;

pub use pool::{current_num_threads, par_chunks_mut, par_map, with_num_threads};

#[cfg(test)]
mod tests {
    use super::{current_num_threads, par_chunks_mut, par_map, with_num_threads};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_is_ordered_at_every_thread_count() {
        assert!(par_map(0, |i| i).is_empty());
        assert_eq!(par_map(5, |i| i * i), vec![0, 1, 4, 9, 16]);
        let baseline: Vec<usize> = (0..1000).map(|i| i * 7).collect();
        for threads in [1, 2, 3, 4, 8] {
            let out = with_num_threads(threads, || par_map(1000, |i| i * 7));
            assert_eq!(out, baseline, "threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_mut_fills_disjointly() {
        par_chunks_mut(&mut [0u8; 0], 4, |_, _| {
            panic!("no chunk of an empty slice")
        });
        for threads in [1, 4] {
            let mut v = vec![0usize; 97];
            with_num_threads(threads, || {
                par_chunks_mut(&mut v, 8, |c, ch| ch.iter_mut().for_each(|x| *x += c + 1));
            });
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(x, i / 8 + 1, "threads = {threads}");
            }
        }
    }

    #[test]
    fn one_thread_pool_runs_on_the_caller() {
        let ids = std::sync::Mutex::new(std::collections::HashSet::new());
        with_num_threads(1, || {
            par_map(64, |_| {
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        });
        assert_eq!(ids.lock().unwrap().len(), 1, "1-thread pool must not spawn");
    }

    #[test]
    fn nested_region_inside_worker_runs_inline() {
        let nested = with_num_threads(4, || {
            par_map(16, |i| {
                assert_eq!(current_num_threads(), 1, "nested regions are inline");
                par_map(100, |j| i + j)
            })
        });
        for (i, row) in nested.iter().enumerate() {
            assert!(row.iter().enumerate().all(|(j, &x)| x == i + j));
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_keeps_serving() {
        // the region re-raises the helper's own payload, not the scope's
        // generic "a scoped thread panicked", and later regions still
        // produce complete, ordered results. Only the one helper panics; the
        // barrier holds the dispatcher's first item until the helper has
        // claimed one of its own.
        let dispatcher = std::thread::current().id();
        let met = std::sync::Barrier::new(2);
        let waited = std::sync::atomic::AtomicBool::new(false);
        let caught = std::panic::catch_unwind(|| {
            with_num_threads(2, || {
                par_map(64, |_| {
                    if std::thread::current().id() != dispatcher {
                        met.wait();
                        panic!("worker boom");
                    }
                    if !waited.swap(true, Ordering::Relaxed) {
                        met.wait();
                    }
                });
            });
        });
        let payload = caught.expect_err("panic must cross the pool boundary");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(msg, Some("worker boom"));
        for _ in 0..5 {
            let v = with_num_threads(4, || par_map(1000, |i| i * 3));
            assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3) && v.len() == 1000);
        }
    }

    #[test]
    fn with_num_threads_overrides_and_restores() {
        let outer = current_num_threads();
        with_num_threads(3, || {
            assert_eq!(current_num_threads(), 3);
            with_num_threads(7, || assert_eq!(current_num_threads(), 7));
            assert_eq!(current_num_threads(), 3);
        });
        assert_eq!(current_num_threads(), outer);
        // restored even when the body panics
        let _ = std::panic::catch_unwind(|| with_num_threads(5, || panic!("x")));
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn pool_honors_env_thread_override() {
        // No other test in this binary asserts an *absolute* default thread
        // count, so mutating the env here is safe even under the parallel
        // test harness; the local override must still win over the env.
        std::env::set_var(super::pool::THREADS_ENV, "3");
        assert_eq!(current_num_threads(), 3);
        with_num_threads(6, || assert_eq!(current_num_threads(), 6));
        std::env::set_var(super::pool::THREADS_ENV, "not-a-number");
        // unparseable values fall through to the hardware default instead
        // of panicking
        assert!(current_num_threads() >= 1);
        std::env::remove_var(super::pool::THREADS_ENV);
    }

    #[test]
    fn every_index_produced_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..997).map(|_| AtomicUsize::new(0)).collect();
        with_num_threads(8, || {
            par_map(997, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn concurrent_dispatchers_each_get_complete_ordered_results() {
        // Several dispatching threads run regions at once — what
        // `ann-serve`'s driver creates beside any caller's own engine.
        // Every region must still see all of its own indices, in order,
        // and none of anyone else's. The barrier inside item 0 holds each
        // round's four regions open together (whoever claimed a region's
        // first chunk waits there; its dispatcher and the other helpers
        // keep draining the rest).
        let together = std::sync::Arc::new(std::sync::Barrier::new(4));
        let dispatchers: Vec<_> = (0..4usize)
            .map(|t| {
                let together = std::sync::Arc::clone(&together);
                std::thread::spawn(move || {
                    (0..50usize).all(|round| {
                        let salt = t * 1_000_003 + round * 7919;
                        let out = with_num_threads(4, || {
                            par_map(513, |i| {
                                if i == 0 {
                                    together.wait();
                                }
                                i * 3 + salt
                            })
                        });
                        out.len() == 513 && out.iter().enumerate().all(|(i, &x)| x == i * 3 + salt)
                    })
                })
            })
            .collect();
        for d in dispatchers {
            let complete_and_ordered = d.join().expect("dispatcher panicked");
            assert!(complete_and_ordered);
        }
    }
}
