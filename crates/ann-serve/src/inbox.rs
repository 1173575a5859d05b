//! The batch inbox: one bounded FIFO plus the close rule that decides
//! when the driver cuts a micro-batch from it.
//!
//! The inbox is the futures-free heart of the serving layer. Producers
//! push [`Request`]s under a mutex and park on their per-request
//! [`OneShot`] slot; the single driver thread parks on the inbox condvar
//! and wakes on arrival or deadline. Nothing here spins and nothing here
//! is async — the condvar-parking primitives of `rayon::sync`.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ann_core::topk::Neighbor;
use rayon::sync::OneShot;

use crate::cache::CacheKey;
use crate::error::ServeError;

/// A producer-side result slot: the driver deposits exactly one result,
/// the producer's ticket parks on the other side.
pub(crate) type ResultSlot = Arc<OneShot<Result<Vec<Neighbor>, ServeError>>>;

/// One admitted query waiting for dispatch.
#[derive(Debug)]
pub(crate) struct Request {
    /// The query vector (owned; the producer's slice is copied at submit).
    pub query: Vec<f32>,
    /// When the submit was admitted — the batching deadline for a forming
    /// batch is the queue front's `admitted_at` plus `max_delay`.
    pub admitted_at: Instant,
    /// Where the driver deposits this query's result; the producer's
    /// [`Ticket`](crate::Ticket) parks on the other side.
    pub slot: ResultSlot,
    /// With the result cache enabled: the key this request leads the
    /// single-flight for (an entry in [`InboxState::inflight`]). The
    /// driver fans the result out to the key's followers and inserts it
    /// into the cache. `None` with the cache off.
    pub cache_key: Option<CacheKey>,
}

/// A queued index mutation, applied by the driver at the next batch
/// boundary (see [`ServeHandle::insert`](crate::ServeHandle::insert)).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Mutation {
    /// Insert a vector under a fresh id.
    Insert {
        /// Database id the point will be served under.
        id: u32,
        /// The vector (owned; copied at enqueue).
        vector: Vec<f32>,
    },
    /// Tombstone an id.
    Delete {
        /// The id to delete.
        id: u32,
    },
}

/// Mutable inbox state, guarded by the server's mutex.
#[derive(Debug)]
pub(crate) struct InboxState {
    /// The bounded FIFO of admitted queries. Requests are pushed under
    /// the inbox lock, so it is in admission order and its front's
    /// `admitted_at` is when the forming batch opened.
    pub queue: VecDeque<Request>,
    /// False once shutdown begins: no new admissions, driver drains and
    /// exits.
    pub open: bool,
    /// Single-flight registry (cache mode only): keys with a leader
    /// request queued or dispatched, mapped to the follower slots parked
    /// on the leader's computation. A submit finding its key here parks
    /// as a follower instead of queueing a duplicate; the driver removes
    /// the entry and fans the result out when the leader's batch lands.
    pub inflight: HashMap<CacheKey, Vec<ResultSlot>>,
    /// Pending index mutations, drained (in submission order) and applied
    /// by the driver before each dispatch — so every served batch sees a
    /// consistent engine state and the epoch bumps land before the cache
    /// keys of that dispatch are published.
    pub mutations: VecDeque<Mutation>,
}

impl InboxState {
    pub(crate) fn new() -> Self {
        InboxState {
            queue: VecDeque::new(),
            open: true,
            inflight: HashMap::new(),
            mutations: VecDeque::new(),
        }
    }

    /// Cut the next micro-batch: the first `max_batch` queued requests,
    /// in admission order, or all of them if fewer are queued.
    pub(crate) fn cut_batch(&mut self, max_batch: usize) -> Vec<Request> {
        let take = self.queue.len().min(max_batch);
        self.queue.drain(..take).collect()
    }
}

/// Why the driver closed a micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// The size trigger fired: `max_batch` queries were queued.
    Size,
    /// The deadline trigger fired: `max_delay` elapsed since the oldest
    /// queued query arrived.
    Deadline,
    /// Shutdown flush: the server is draining admitted queries.
    Drain,
}

/// What the driver does next, given the inbox's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Cut a micro-batch of up to `max_batch` queries from the queue front.
    Close(CloseReason),
    /// Park until this instant (the forming batch's deadline) or an
    /// arrival, whichever comes first.
    WaitUntil(Instant),
    /// Park until an arrival: the queue is empty.
    WaitForArrival,
    /// Shutdown with an empty queue: flush pending mutations and return
    /// the engine.
    Exit,
}

/// The close rule: the size trigger first, then the shutdown flush, then
/// the deadline (`max_delay` after the queue front's admission).
///
/// `queued` is the queue's length and `front` its front's `admitted_at`
/// (`None` exactly when `queued == 0`); `open` is false once shutdown
/// began. A deadline past what `Instant` can hold never comes: the
/// driver waits for arrivals (the size trigger) or shutdown instead of
/// panicking on the addition. Pure, so every arm is unit-tested without
/// a clock or a thread.
pub(crate) fn close_rule(
    queued: usize,
    front: Option<Instant>,
    open: bool,
    now: Instant,
    max_batch: usize,
    max_delay: Duration,
) -> Step {
    if queued >= max_batch {
        return Step::Close(CloseReason::Size);
    }
    if !open {
        return if queued == 0 {
            Step::Exit
        } else {
            Step::Close(CloseReason::Drain)
        };
    }
    match front.and_then(|t0| t0.checked_add(max_delay)) {
        None => Step::WaitForArrival,
        Some(deadline) if now >= deadline => Step::Close(CloseReason::Deadline),
        Some(deadline) => Step::WaitUntil(deadline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_batch_takes_the_oldest_first() {
        let mut inbox = InboxState::new();
        for i in 0..5 {
            inbox.queue.push_back(Request {
                query: vec![i as f32],
                admitted_at: Instant::now(),
                slot: Arc::new(OneShot::new()),
                cache_key: None,
            });
        }
        let cut = |inbox: &mut InboxState| -> Vec<f32> {
            inbox.cut_batch(3).iter().map(|r| r.query[0]).collect()
        };
        assert_eq!(cut(&mut inbox), [0.0, 1.0, 2.0]);
        // Fewer than `max_batch` left: the batch takes them all.
        assert_eq!(cut(&mut inbox), [3.0, 4.0]);
        assert!(inbox.queue.is_empty());
    }

    #[test]
    fn close_rule_covers_every_arm() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let rule = |queued, open, now, max_delay| {
            let front = (queued > 0).then_some(t0);
            close_rule(queued, front, open, now, 4, max_delay)
        };
        // Size: a full queue closes at once, before the deadline and
        // during shutdown alike.
        assert_eq!(rule(4, true, t0, ms(5)), Step::Close(CloseReason::Size));
        assert_eq!(rule(9, true, t0, ms(5)), Step::Close(CloseReason::Size));
        assert_eq!(rule(4, false, t0, ms(5)), Step::Close(CloseReason::Size));
        // Shutdown: a non-empty queue is flushed without waiting out the
        // deadline; an empty one exits.
        assert_eq!(rule(3, false, t0, ms(5)), Step::Close(CloseReason::Drain));
        assert_eq!(rule(0, false, t0, ms(5)), Step::Exit);
        // Open and empty: wait for an arrival.
        assert_eq!(rule(0, true, t0, ms(5)), Step::WaitForArrival);
        // Open, partial: wait until the front's deadline, close at it.
        assert_eq!(rule(3, true, t0, ms(5)), Step::WaitUntil(t0 + ms(5)));
        assert_eq!(
            rule(3, true, t0 + ms(4), ms(5)),
            Step::WaitUntil(t0 + ms(5))
        );
        assert_eq!(
            rule(3, true, t0 + ms(5), ms(5)),
            Step::Close(CloseReason::Deadline)
        );
        assert_eq!(
            rule(3, true, t0 + ms(6), ms(5)),
            Step::Close(CloseReason::Deadline)
        );
        // max_delay = 0: a partial batch closes the moment it opens.
        assert_eq!(
            rule(1, true, t0, Duration::ZERO),
            Step::Close(CloseReason::Deadline)
        );
        // A deadline `Instant` cannot hold never comes: wait for arrivals.
        assert_eq!(rule(3, true, t0, Duration::MAX), Step::WaitForArrival);
        assert_eq!(
            rule(4, true, t0, Duration::MAX),
            Step::Close(CloseReason::Size)
        );
    }
}
