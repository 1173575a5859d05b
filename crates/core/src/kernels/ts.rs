//! Top-k sorting (TS) — shared priority-queue maintenance.
//!
//! Every DPU keeps one bounded priority queue per active query, shared by
//! all tasklets and therefore lock-protected. With the naive
//! lock-every-candidate policy this costs "approximately 50 % of total
//! latency in certain scenarios" (paper Section 6); DRIM-ANN forwards the
//! current k-th record into the DC loop so non-improving candidates never
//! take the lock. The forwarded bound may be stale — that is safe (it only
//! admits extra candidates) and is modelled here by refreshing the bound
//! once per *chunk* of 32 candidates (`FORWARD_CHUNK`) rather than per
//! candidate. Pruning is tie-inclusive (`d <= bound` takes the lock): the
//! retained top-k is then a pure function of the candidate set,
//! independent of stream order, which is what makes results invariant
//! under re-slicing and migration.
//!
//! One loop decides every lock count: `forward`, generic over the queue
//! ([`Queue`]) and the candidates' layout. [`run`] streams a candidate
//! list (`(slot, distance)` pairs from DC) into a [`BoundedMaxHeap`];
//! [`run_in_place`] streams a slice's `u32` distances and ids where they
//! lie — the engine's per-DPU waves read the batch arena this way, with no
//! staging copy, into a [`PackedTopk`] per query.
//!
//! **Chunk skip.** `forward` tests each chunk against its forwarded bound
//! with one branch-free fold into a bit mask — bit `j` set when candidate
//! `j` is at or under the bound — skips the chunk when the mask is zero
//! and otherwise visits only the set bits, in stream order, so a pruned
//! candidate never reaches a branch. This cannot change a count: the bound
//! is read once per chunk whether or not the chunk is skipped, so every
//! candidate of a chunk is compared with the same value either way. When
//! no candidate is at or under it, the per-candidate path would have taken
//! no lock and pushed nothing — the skip adds 0 locks and 0 updates and
//! leaves the queue, hence every later chunk's bound, as it was. The
//! candidate count is the stream's length, visited or not. Under
//! `LockAlways` the bound is `+inf`, which every (finite) candidate
//! reaches, so no chunk is skipped.
//!
//! The cost of a candidate stream is a closed form of three counts —
//! candidates, lock acquisitions, queue updates — so the kernels only
//! count while they maintain the real queue and book the stream through
//! [`charge`] once, the same function trace mode feeds with
//! [`expected_updates`] estimates.

use super::KernelCtx;
use ann_core::topk::{BoundedMaxHeap, Neighbor};
use upmem_sim::meter::PhaseMeter;
use upmem_sim::tasklet::{LockPolicy, LockStats};

/// Expected queue updates when `n` random-order candidates stream into a
/// size-`k` bounded heap: `k + k * ln(n / k)` (harmonic argument).
pub fn expected_updates(n: u64, k: usize) -> u64 {
    if n == 0 || k == 0 {
        return 0;
    }
    let k = k as f64;
    let n = n as f64;
    if n <= k {
        n as u64
    } else {
        (k + k * (n / k).ln()).round() as u64
    }
}

/// Closed-form cost of inserting `n` candidates of which `locked` take the
/// lock and `retained` actually update the queue — identical totals to
/// [`run`] when fed the stats [`run`] reports. Used by trace mode with
/// [`expected_updates`] estimates.
pub fn charge(
    ctx: &KernelCtx<'_>,
    meter: &mut PhaseMeter,
    n: u64,
    k: usize,
    policy: LockPolicy,
    locked: u64,
    retained: u64,
) {
    // ceil(log2 k), in integers: this runs once per slice in trace mode
    let log_k = u64::from(k.max(2).next_power_of_two().trailing_zeros());
    let b_entry = 8u64;
    // candidate fetch + loop bookkeeping, regardless of policy
    meter.charge_alu(2 * n * ctx.costs.alu);
    match policy {
        LockPolicy::LockAlways => {
            meter.lock_n(n);
            meter.charge_cmp(n * log_k * ctx.costs.cmp);
            if ctx.placement.is_resident("topk") {
                meter.wram_read_bytes(n * b_entry);
            } else {
                meter.mram_random_read(n, b_entry, ctx.dma_burst);
            }
        }
        LockPolicy::Forwarding => {
            meter.charge_cmp(n * ctx.costs.cmp);
            meter.lock_n(locked);
            meter.charge_cmp(locked * log_k * ctx.costs.cmp);
            if ctx.placement.is_resident("topk") {
                meter.wram_read_bytes(locked * b_entry);
            } else {
                meter.mram_random_read(locked, b_entry, ctx.dma_burst);
            }
        }
    }
    if ctx.placement.is_resident("topk") {
        meter.wram_write_bytes(retained * b_entry);
    } else {
        meter.mram_stream_write_chunks(retained, retained * b_entry);
    }
}

/// Candidates between two refreshes of the forwarded bound (one DC chunk);
/// at most 32, the width of a chunk's mask.
const FORWARD_CHUNK: usize = 32;
const _: () = assert!(FORWARD_CHUNK <= 32);

/// A per-query top-k queue as TS maintains it: it forwards its bound and
/// takes candidates one at a time. Retention follows [`BoundedMaxHeap`]:
/// the `k` smallest by (distance, id), a candidate retained when the queue
/// is not full or when it orders strictly before the current k-th.
pub trait Queue {
    /// The current k-th best distance; `f32::INFINITY` until full.
    fn bound(&self) -> f32;
    /// Offer candidate `id` at `dist`; `true` when it was retained.
    fn offer(&mut self, id: u32, dist: f32) -> bool;
}

impl Queue for BoundedMaxHeap {
    #[inline]
    fn bound(&self) -> f32 {
        BoundedMaxHeap::bound(self)
    }

    #[inline]
    fn offer(&mut self, id: u32, dist: f32) -> bool {
        self.push(Neighbor::new(u64::from(id), dist))
    }
}

/// A top-k queue of packed `u64` keys, `(dist.to_bits() << 32) | id`, kept
/// as a binary max-heap. For the distances TS sees — non-negative and
/// finite, converted from integers — the bit pattern orders like the
/// value, so key order is [`BoundedMaxHeap`]'s (distance, id) order and
/// "retained" is `key < root`: the same retained multiset, the same sorted
/// output. A sift compares one integer per level and picks the larger
/// child without a branch. Chosen over a branch-free sorted run by
/// measurement at `k` = 10 and `k` = 100 on a 2-vCPU host: on the engine's
/// kind of stream (a fresh queue per 1,500-candidate slice) the run was up
/// to 25% faster at `k` = 10 but level or slower at `k` = 100, and with
/// every candidate locked it was level to 1.5x slower.
#[derive(Debug, Clone)]
pub struct PackedTopk {
    k: usize,
    /// Max-heap of at most `k` keys.
    keys: Vec<u64>,
}

impl PackedTopk {
    /// An empty queue retaining the `k` smallest candidates.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        PackedTopk {
            k,
            keys: Vec::with_capacity(k),
        }
    }

    /// The retained candidates by ascending (distance, id), as
    /// [`BoundedMaxHeap::into_sorted`] returns them.
    pub fn into_sorted(mut self) -> Vec<Neighbor> {
        self.keys.sort_unstable();
        self.keys
            .into_iter()
            .map(|key| Neighbor::new(key & 0xFFFF_FFFF, f32::from_bits((key >> 32) as u32)))
            .collect()
    }
}

impl Queue for PackedTopk {
    #[inline]
    fn bound(&self) -> f32 {
        if self.keys.len() < self.k {
            f32::INFINITY
        } else {
            f32::from_bits((self.keys[0] >> 32) as u32)
        }
    }

    #[inline]
    fn offer(&mut self, id: u32, dist: f32) -> bool {
        debug_assert!(dist.is_sign_positive() && !dist.is_nan(), "{dist}");
        let key = (u64::from(dist.to_bits()) << 32) | u64::from(id);
        let heap = &mut self.keys;
        if heap.len() < self.k {
            // sift up from the new leaf
            heap.push(key);
            let mut i = heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if heap[parent] >= key {
                    break;
                }
                heap[i] = heap[parent];
                i = parent;
            }
            heap[i] = key;
            true
        } else if key < heap[0] {
            // replace the root and sift down
            let n = heap.len();
            let mut i = 0;
            loop {
                let left = 2 * i + 1;
                if left >= n {
                    break;
                }
                let child = if left + 1 < n {
                    left + usize::from(heap[left + 1] > heap[left])
                } else {
                    left
                };
                if heap[child] <= key {
                    break;
                }
                heap[i] = heap[child];
                i = child;
            }
            heap[i] = key;
            true
        } else {
            false
        }
    }
}

/// The chunked forwarding loop behind [`run`] and [`run_in_place`]: stream
/// `cands` (distance `dist(c)`, database id `id(i, c)` for the candidate at
/// position `i`) into `queue`, reading the forwarded bound once per
/// `FORWARD_CHUNK` candidates and offering only the candidates at or
/// under it (the module header argues why skipping the rest is exact).
/// Returns the lock acquisitions and the queue updates.
#[inline(always)]
fn forward<C: Copy, Q: Queue>(
    cands: &[C],
    dist: impl Fn(C) -> f32,
    id: impl Fn(usize, C) -> u32,
    queue: &mut Q,
    policy: LockPolicy,
) -> (u64, u64) {
    let (mut locked, mut retained) = (0u64, 0u64);
    for (ci, chunk) in cands.chunks(FORWARD_CHUNK).enumerate() {
        // The forwarded bound: stale between refreshes, exactly like the
        // real forwarding. LockAlways has no bound — everything locks.
        let forwarded = match policy {
            LockPolicy::LockAlways => f32::INFINITY,
            LockPolicy::Forwarding => queue.bound(),
        };
        // Bit j set: candidate j takes the lock. One branch-free fold; a
        // zero mask skips the chunk, and otherwise only the set bits are
        // visited, in stream order.
        //
        // `<=` (not `<`): a candidate tying the bound may still be
        // retained by the queue's (dist, id) tie-break, so pruning it
        // would make the retained set depend on the order candidates
        // streamed in. Tie-inclusive pruning keeps the per-queue top-k a
        // pure function of the candidate *set* — the invariant the
        // mutation/migration parity suite relies on — at the cost of a
        // lock on exact ties (rare with 64-bit accumulated distances).
        // Matches the host-side IVF scan's `<=` prune.
        let mut reach = chunk.iter().enumerate().fold(0u32, |mask, (j, &c)| {
            mask | (u32::from(dist(c) <= forwarded) << j)
        });
        while reach != 0 {
            let j = reach.trailing_zeros() as usize;
            reach &= reach - 1;
            let c = chunk[j];
            locked += 1;
            retained += u64::from(queue.offer(id(ci * FORWARD_CHUNK + j, c), dist(c)));
        }
    }
    (locked, retained)
}

/// Book a stream of `n` candidates through [`charge`] and report its lock
/// statistics.
fn book(
    ctx: &KernelCtx<'_>,
    meter: &mut PhaseMeter,
    n: u64,
    k: usize,
    policy: LockPolicy,
    (locked, retained): (u64, u64),
) -> LockStats {
    charge(ctx, meter, n, k, policy, locked, retained);
    LockStats {
        locked_updates: locked,
        pruned: n - locked,
    }
}

/// Insert scanned candidates into the per-query top-k queue, charging TS
/// costs under the chosen lock policy.
///
/// `candidates` are `(local_slot, distance)` pairs from DC; `ids` maps local
/// slots to database ids. Returns updated lock statistics.
///
/// Candidates stream through the shared chunked forwarding loop (see the
/// module header), and the stream is booked by one [`charge`] call fed the
/// observed lock and update counts.
#[allow(clippy::too_many_arguments)]
pub fn run(
    ctx: &KernelCtx<'_>,
    meter: &mut PhaseMeter,
    candidates: &[(u32, u64)],
    ids: &[u32],
    heap: &mut BoundedMaxHeap,
    k: usize,
    policy: LockPolicy,
) -> LockStats {
    let counts = forward(
        candidates,
        |(_, dist)| dist as f32,
        |_, (slot, _)| ids[slot as usize],
        heap,
        policy,
    );
    book(ctx, meter, candidates.len() as u64, k, policy, counts)
}

/// [`run`] over a slice as it lies, into a [`PackedTopk`]: `dists[i]` is
/// the distance of database id `ids[i]`. The same loop, the same counts,
/// the same charge and the same retained list as [`run`] over the pairs
/// `(i, dists[i])` into a [`BoundedMaxHeap`].
pub fn run_in_place(
    ctx: &KernelCtx<'_>,
    meter: &mut PhaseMeter,
    dists: &[u32],
    ids: &[u32],
    queue: &mut PackedTopk,
    k: usize,
    policy: LockPolicy,
) -> LockStats {
    assert_eq!(dists.len(), ids.len(), "one id per distance");
    let counts = forward(dists, |d| d as f32, |i, _| ids[i], queue, policy);
    book(ctx, meter, dists.len() as u64, k, policy, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DataBits;
    use crate::wram::WramPlacement;
    use upmem_sim::IsaCosts;

    fn ctx<'a>(placement: &'a WramPlacement, costs: &'a IsaCosts) -> KernelCtx<'a> {
        KernelCtx {
            costs,
            dma_burst: 8,
            bits: DataBits::B8,
            placement,
        }
    }

    fn descending_candidates(n: usize) -> (Vec<(u32, u64)>, Vec<u32>) {
        // distances n, n-1, ..., 1 — worst case for LockAlways
        let cands: Vec<(u32, u64)> = (0..n).map(|i| (i as u32, (n - i) as u64)).collect();
        let ids: Vec<u32> = (0..n as u32).collect();
        (cands, ids)
    }

    /// The per-candidate TS the chunked kernel replaced, kept as its
    /// oracle: every candidate meters its own fetch, compare, lock, queue
    /// read and queue write, and the bound refreshes after every 32nd.
    fn per_candidate_reference(
        ctx: &KernelCtx<'_>,
        meter: &mut PhaseMeter,
        candidates: &[(u32, u64)],
        ids: &[u32],
        heap: &mut BoundedMaxHeap,
        k: usize,
        policy: LockPolicy,
    ) -> LockStats {
        let mut stats = LockStats::default();
        let log_k = (k.max(2) as f64).log2().ceil() as u64;
        let b_entry = 8u64;
        let mut forwarded = heap.bound();
        for (i, &(slot, dist)) in candidates.iter().enumerate() {
            let d = dist as f32;
            meter.charge_alu(2 * ctx.costs.alu);
            let takes_lock = match policy {
                LockPolicy::LockAlways => true,
                LockPolicy::Forwarding => {
                    meter.charge_cmp(ctx.costs.cmp);
                    d <= forwarded
                }
            };
            if takes_lock {
                meter.lock_n(1);
                meter.charge_cmp(log_k * ctx.costs.cmp);
                ctx.read(meter, "topk", b_entry, true);
                if heap.push(Neighbor::new(ids[slot as usize] as u64, d)) {
                    ctx.write(meter, "topk", b_entry);
                }
                stats.locked_updates += 1;
            } else {
                stats.pruned += 1;
            }
            if i % 32 == 31 {
                forwarded = heap.bound();
            }
        }
        stats
    }

    #[test]
    fn chunked_run_matches_the_per_candidate_reference() {
        let costs = IsaCosts::upmem();
        let none = WramPlacement::none();
        let resident = crate::wram::plan(
            &[crate::wram::WramCandidate {
                name: "topk",
                bytes: 80,
                accesses: 1e9,
            }],
            1024,
        );
        let k = 4usize;
        for placement in [&none, &resident] {
            let c = ctx(placement, &costs);
            for policy in [LockPolicy::Forwarding, LockPolicy::LockAlways] {
                for n in [0usize, 1, 31, 32, 33, 100] {
                    // few distinct distances, so once the queue fills many
                    // candidates tie its bound exactly
                    let cands: Vec<(u32, u64)> = (0..n as u32)
                        .map(|i| (i, 10 + (i as u64).wrapping_mul(2654435761) % 7))
                        .collect();
                    let ids: Vec<u32> = (0..n as u32).map(|i| 1000 - i).collect();
                    let case = format!(
                        "{policy:?} n={n} resident={}",
                        placement.is_resident("topk")
                    );

                    let mut want_heap = BoundedMaxHeap::new(k);
                    let mut want_meter = PhaseMeter::default();
                    let want = per_candidate_reference(
                        &c,
                        &mut want_meter,
                        &cands,
                        &ids,
                        &mut want_heap,
                        k,
                        policy,
                    );
                    let mut got_heap = BoundedMaxHeap::new(k);
                    let mut got_meter = PhaseMeter::default();
                    let got = run(&c, &mut got_meter, &cands, &ids, &mut got_heap, k, policy);

                    assert_eq!(got, want, "{case}");
                    assert_eq!(got_meter, want_meter, "{case}");
                    assert_eq!(got_heap.into_sorted(), want_heap.into_sorted(), "{case}");
                    if policy == LockPolicy::Forwarding && n == 100 {
                        assert!(got.pruned > 0 && got.locked_updates > k as u64, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn forwarded_bound_refreshes_between_candidates_31_and_32() {
        // k = 1: candidate 0 sets the true bound to 100 at once, but the
        // forwarded copy stays infinite until the first chunk ends — so
        // candidate 31 (distance 200) still takes the lock, and candidate
        // 32 is the first one the refreshed bound prunes.
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let mut cands: Vec<(u32, u64)> = (0..33).map(|i| (i, 200)).collect();
        cands[0].1 = 100;
        let ids: Vec<u32> = (0..33).collect();
        let mut heap = BoundedMaxHeap::new(1);
        let mut meter = PhaseMeter::default();
        let stats = run(
            &c,
            &mut meter,
            &cands,
            &ids,
            &mut heap,
            1,
            LockPolicy::Forwarding,
        );
        assert_eq!(stats.locked_updates, 32, "candidates 0..=31 lock");
        assert_eq!(stats.pruned, 1, "candidate 32 is pruned");
        assert_eq!(meter.lock_acquires, 32);
        assert_eq!(heap.into_sorted(), vec![Neighbor::new(0, 100.0)]);
    }

    #[test]
    fn both_policies_yield_identical_topk() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let (cands, ids) = descending_candidates(200);

        let mut h1 = BoundedMaxHeap::new(5);
        let mut m1 = PhaseMeter::default();
        run(
            &c,
            &mut m1,
            &cands,
            &ids,
            &mut h1,
            5,
            LockPolicy::LockAlways,
        );

        let mut h2 = BoundedMaxHeap::new(5);
        let mut m2 = PhaseMeter::default();
        run(
            &c,
            &mut m2,
            &cands,
            &ids,
            &mut h2,
            5,
            LockPolicy::Forwarding,
        );

        let top1: Vec<u64> = h1.into_sorted().iter().map(|n| n.id).collect();
        let top2: Vec<u64> = h2.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(top1, top2);
    }

    #[test]
    fn forwarding_prunes_most_locks_on_random_order() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        // deterministic pseudo-random distances
        let cands: Vec<(u32, u64)> = (0..1000u32)
            .map(|i| (i, ((i as u64).wrapping_mul(2654435761) % 100_000) + 1))
            .collect();
        let ids: Vec<u32> = (0..1000).collect();
        let mut heap = BoundedMaxHeap::new(10);
        let mut m = PhaseMeter::default();
        let stats = run(
            &c,
            &mut m,
            &cands,
            &ids,
            &mut heap,
            10,
            LockPolicy::Forwarding,
        );
        assert!(
            stats.prune_rate() > 0.8,
            "prune rate {}",
            stats.prune_rate()
        );
        assert!(m.lock_acquires < 200);
    }

    #[test]
    fn lock_always_locks_every_candidate() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let (cands, ids) = descending_candidates(100);
        let mut heap = BoundedMaxHeap::new(5);
        let mut m = PhaseMeter::default();
        let stats = run(
            &c,
            &mut m,
            &cands,
            &ids,
            &mut heap,
            5,
            LockPolicy::LockAlways,
        );
        assert_eq!(stats.locked_updates, 100);
        assert_eq!(m.lock_acquires, 100);
    }

    #[test]
    fn forwarding_costs_fewer_cycles() {
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let cands: Vec<(u32, u64)> = (0..500u32).map(|i| (i, 1000 + i as u64)).collect();
        let ids: Vec<u32> = (0..500).collect();

        let mut m_fwd = PhaseMeter::default();
        let mut h = BoundedMaxHeap::new(4);
        run(
            &c,
            &mut m_fwd,
            &cands,
            &ids,
            &mut h,
            4,
            LockPolicy::Forwarding,
        );

        let mut m_lock = PhaseMeter::default();
        let mut h2 = BoundedMaxHeap::new(4);
        run(
            &c,
            &mut m_lock,
            &cands,
            &ids,
            &mut h2,
            4,
            LockPolicy::LockAlways,
        );

        let t_fwd = m_fwd.time(&upmem_sim::PimArch::upmem_sc25(), 16);
        let t_lock = m_lock.time(&upmem_sim::PimArch::upmem_sc25(), 16);
        assert!(t_fwd < t_lock / 2.0, "fwd {t_fwd} lock {t_lock}");
    }

    #[test]
    fn stale_bound_never_loses_true_neighbors() {
        // adversarial: strictly decreasing distances make the stale bound
        // maximally wrong; results must still match a full sort
        let placement = WramPlacement::none();
        let costs = IsaCosts::upmem();
        let c = ctx(&placement, &costs);
        let (cands, ids) = descending_candidates(500);
        let mut heap = BoundedMaxHeap::new(7);
        let mut m = PhaseMeter::default();
        run(
            &c,
            &mut m,
            &cands,
            &ids,
            &mut heap,
            7,
            LockPolicy::Forwarding,
        );
        let got: Vec<u64> = heap.into_sorted().iter().map(|n| n.dist as u64).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7]);
    }
}
