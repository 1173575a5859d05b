//! Parking primitives for the serving layer's batch inbox, beside the
//! pool's scoped threads per region.
//!
//! The workspace-local home for the condvar-parking idiom, exported so
//! `ann-serve` builds its futures-free request path (producers parked on
//! [`OneShot`] response slots, the batch driver parked on its inbox
//! condvar) on these primitives instead of reinventing them.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Lock a mutex, riding through poisoning (a panicking sibling thread
/// should surface *its* payload, not a `PoisonError`). The pool's regions
/// and every serving-layer queue use this so one panicked producer can
/// never wedge the shared state.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A single-use parked rendezvous slot: one side [`OneShot::put`]s a value
/// exactly once, the other side blocks in [`OneShot::wait`] until it
/// arrives. This is the futures-free analogue of a oneshot channel — the
/// waiting thread parks on a condvar (no spinning).
#[derive(Debug)]
pub struct OneShot<T> {
    slot: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Default for OneShot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OneShot<T> {
    /// An empty slot.
    pub fn new() -> Self {
        OneShot {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Fill the slot and wake the waiter. Panics if filled twice — a
    /// double-completion is a protocol bug, never valid backpressure.
    pub fn put(&self, value: T) {
        let mut g = lock_unpoisoned(&self.slot);
        assert!(g.is_none(), "OneShot filled twice");
        *g = Some(value);
        drop(g);
        self.cv.notify_all();
    }

    /// Park until the slot is filled, then take the value out.
    pub fn wait(&self) -> T {
        let mut g = lock_unpoisoned(&self.slot);
        loop {
            if let Some(v) = g.take() {
                return v;
            }
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Non-blocking take: `Some(value)` if already filled, else `None`.
    pub fn try_take(&self) -> Option<T> {
        lock_unpoisoned(&self.slot).take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn oneshot_rendezvous_across_threads() {
        let slot = Arc::new(OneShot::new());
        let producer = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                slot.put(42u64);
            })
        };
        assert_eq!(slot.wait(), 42);
        producer.join().unwrap();
    }

    #[test]
    fn oneshot_try_take() {
        let slot = OneShot::new();
        assert_eq!(slot.try_take(), None::<u8>);
        slot.put(7u8);
        assert_eq!(slot.try_take(), Some(7));
        assert_eq!(slot.try_take(), None);
    }

    #[test]
    #[should_panic(expected = "OneShot filled twice")]
    fn oneshot_rejects_double_put() {
        let slot = OneShot::new();
        slot.put(1u8);
        slot.put(2u8);
    }

    #[test]
    fn lock_unpoisoned_rides_through_poison() {
        let m = Arc::new(Mutex::new(5u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(*lock_unpoisoned(&m), 5);
    }
}
