//! The batch inbox: bounded per-tenant queues plus the weighted-fair
//! drain that assembles micro-batches.
//!
//! The inbox is the futures-free heart of the serving layer. Producers
//! push [`Request`]s under a mutex and park on their per-request
//! [`OneShot`] slot; the single driver thread parks on the inbox condvar
//! and wakes on arrival or deadline. Nothing here spins and nothing here
//! is async — the condvar-parking primitives of `rayon::sync`.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

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
    /// Tenant that submitted it (index into the tenant table).
    pub tenant: usize,
    /// When the submit was admitted — the batching deadline for a forming
    /// batch is the oldest queued request's `admitted_at` plus `max_delay`.
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
    /// One bounded FIFO per tenant.
    pub queues: Vec<VecDeque<Request>>,
    /// Total queued requests across all tenants (denormalised count).
    pub queued: usize,
    /// Arrival time of the oldest queued request, i.e. when the forming
    /// batch "opened". `None` when the inbox is empty.
    pub opened_at: Option<Instant>,
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
    pub(crate) fn new(tenants: usize) -> Self {
        InboxState {
            queues: (0..tenants).map(|_| VecDeque::new()).collect(),
            queued: 0,
            opened_at: None,
            open: true,
            inflight: HashMap::new(),
            mutations: VecDeque::new(),
        }
    }

    /// Recompute `opened_at` from the queue fronts after a drain. The
    /// front of each FIFO is its oldest entry, so the minimum over fronts
    /// is the oldest request still queued.
    pub(crate) fn refresh_opened_at(&mut self) {
        self.opened_at = self
            .queues
            .iter()
            .filter_map(|q| q.front())
            .map(|r| r.admitted_at)
            .min();
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

/// Drain up to `budget` items from `queues` in weighted round-robin
/// order.
///
/// Grant cycles: visiting tenants in index order, each takes up to
/// `weights[t]` items per cycle; cycles repeat until the budget is spent
/// or the queues are empty. Backlogged tenants therefore share a batch in
/// proportion to their weights — a hot tenant with weight 1 cannot crowd
/// out a cold tenant with weight 1 beyond a half share — while idle
/// tenants' unused grants flow to whoever has work (work-conserving).
///
/// Deterministic: the output order is a pure function of queue contents
/// and weights, which is what makes served results reproducible
/// batch-for-batch.
pub(crate) fn drain_fair<T>(queues: &mut [VecDeque<T>], weights: &[u32], budget: usize) -> Vec<T> {
    debug_assert_eq!(queues.len(), weights.len());
    let mut out = Vec::with_capacity(budget.min(queues.iter().map(VecDeque::len).sum()));
    while out.len() < budget && queues.iter().any(|q| !q.is_empty()) {
        for (q, &w) in queues.iter_mut().zip(weights) {
            for _ in 0..w {
                if out.len() >= budget {
                    return out;
                }
                match q.pop_front() {
                    Some(item) => out.push(item),
                    None => break,
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues_of(backlogs: &[&[u32]]) -> Vec<VecDeque<u32>> {
        backlogs
            .iter()
            .map(|b| b.iter().copied().collect())
            .collect()
    }

    fn count_from(drained: &[u32], tenant_tag: u32) -> usize {
        drained.iter().filter(|&&x| x / 1000 == tenant_tag).count()
    }

    #[test]
    fn equal_weights_split_a_batch_evenly_under_a_hot_tenant() {
        // Hot tenant 0 has 100 queued, cold tenant 1 has 10; with equal
        // weights a budget of 20 must split 10/10 — the hot tenant cannot
        // starve the cold one.
        let hot: Vec<u32> = (0..100).collect();
        let cold: Vec<u32> = (0..10).map(|x| 1000 + x).collect();
        let mut queues = queues_of(&[&hot, &cold]);
        let got = drain_fair(&mut queues, &[1, 1], 20);
        assert_eq!(got.len(), 20);
        assert_eq!(count_from(&got, 0), 10);
        assert_eq!(count_from(&got, 1), 10);
    }

    #[test]
    fn weights_set_the_share_ratio() {
        // Both tenants saturated; weights 3:1 over a budget of 20 give
        // 15:5.
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..100).map(|x| 1000 + x).collect();
        let mut queues = queues_of(&[&a, &b]);
        let got = drain_fair(&mut queues, &[3, 1], 20);
        assert_eq!(count_from(&got, 0), 15);
        assert_eq!(count_from(&got, 1), 5);
    }

    #[test]
    fn idle_tenants_donate_their_share() {
        // Tenant 1 has nothing queued; tenant 0 takes the whole budget
        // (work-conserving, not strict reservation).
        let a: Vec<u32> = (0..50).collect();
        let mut queues = queues_of(&[&a, &[]]);
        let got = drain_fair(&mut queues, &[1, 1], 16);
        assert_eq!(got.len(), 16);
        assert_eq!(count_from(&got, 0), 16);
    }

    #[test]
    fn drain_is_fifo_within_a_tenant() {
        let a: Vec<u32> = vec![5, 6, 7, 8];
        let mut queues = queues_of(&[&a]);
        let got = drain_fair(&mut queues, &[2], 3);
        assert_eq!(got, vec![5, 6, 7]);
        assert_eq!(queues[0], VecDeque::from(vec![8]));
    }

    #[test]
    fn drain_stops_when_queues_empty_before_budget() {
        let mut queues = queues_of(&[&[1, 2], &[1001]]);
        let got = drain_fair(&mut queues, &[1, 1], 64);
        assert_eq!(got.len(), 3);
        assert!(queues.iter().all(VecDeque::is_empty));
    }
}
