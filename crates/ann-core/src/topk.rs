//! Top-k selection machinery.
//!
//! The paper's TS phase maintains the k best candidates either with a
//! priority queue or a bitonic sorting network (Fig. 1); DRIM-ANN uses a
//! shared bounded priority queue per DPU, [`BoundedMaxHeap`]: it keeps the
//! k smallest distances seen, and its root is the current k-th best, which
//! is exactly the bound DRIM-ANN *forwards* into the distance loop for lock
//! pruning.

/// One search result: vector id plus squared distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Identifier of the database vector.
    pub id: u64,
    /// Squared L2 distance to the query.
    pub dist: f32,
}

impl Neighbor {
    /// Construct a neighbor.
    pub fn new(id: u64, dist: f32) -> Self {
        Neighbor { id, dist }
    }
}

/// Total order: by distance, ties broken by id for determinism.
fn cmp_neighbor(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.dist
        .partial_cmp(&b.dist)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.id.cmp(&b.id))
}

/// A max-heap bounded to `k` elements that retains the `k` smallest
/// distances pushed into it.
#[derive(Debug, Clone)]
pub struct BoundedMaxHeap {
    k: usize,
    heap: Vec<Neighbor>, // max-heap on (dist, id)
}

impl BoundedMaxHeap {
    /// Heap retaining the `k` smallest items.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        BoundedMaxHeap {
            k,
            heap: Vec::with_capacity(k),
        }
    }

    /// Current number of stored neighbors.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current k-th best (worst retained) distance; `f32::INFINITY`
    /// until the heap is full. This is the "forwarded record" of the
    /// paper's lock-pruning optimization.
    #[inline]
    pub fn bound(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap[0].dist
        }
    }

    /// Whether [`Self::push`] would retain a candidate at `dist` whose id
    /// is above every id offered so far — the case of a scan in ascending
    /// id order, which can test this inline and skip the call. Exact for
    /// every `dist`: on an equal distance, or a NaN on either side (which
    /// the heap's order reads as equal), the higher id loses, and `<` is
    /// false in exactly those cases.
    #[inline]
    pub fn admits_next(&self, dist: f32) -> bool {
        self.heap.len() < self.k || dist < self.heap[0].dist
    }

    /// Offer a candidate; returns `true` if it was retained.
    ///
    /// Never inlined: inlined into `flat::exact_search`'s loop, it made
    /// that loop ≈ 1.5× slower (256 queries over 100k random 96-d rows on
    /// 2 threads: 0.46–0.54 s against 0.31–0.34 s). Which callers got it
    /// inlined, and which of their loops lost vector width for it, moved
    /// with unrelated edits to this file.
    #[inline(never)]
    pub fn push(&mut self, n: Neighbor) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(n);
            self.sift_up(self.heap.len() - 1);
            true
        } else if cmp_neighbor(&n, &self.heap[0]) == std::cmp::Ordering::Less {
            self.heap[0] = n;
            self.sift_down(0);
            true
        } else {
            false
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if cmp_neighbor(&self.heap[i], &self.heap[parent]) == std::cmp::Ordering::Greater {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n
                && cmp_neighbor(&self.heap[l], &self.heap[largest]) == std::cmp::Ordering::Greater
            {
                largest = l;
            }
            if r < n
                && cmp_neighbor(&self.heap[r], &self.heap[largest]) == std::cmp::Ordering::Greater
            {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }

    /// Drain into a vector sorted by ascending distance.
    pub fn into_sorted(mut self) -> Vec<Neighbor> {
        self.heap.sort_by(cmp_neighbor);
        self.heap
    }

    /// Peek at the retained set in heap order (mostly for tests).
    pub fn as_slice(&self) -> &[Neighbor] {
        &self.heap
    }
}

/// Merge several ascending-sorted top-k lists into one global top-k,
/// deduplicating ids (duplicated cluster slices can report the same vector
/// from two DPUs).
///
/// Dedup contract: **the first occurrence of an id wins**. Candidates are
/// scanned list by list, front to back, and only an id's first occurrence
/// is offered to the top-k; every later copy is dropped — whatever its
/// distance, and even when the first copy was evicted or never retained.
/// The later copies are found by sorting (id, scan position) pairs, not by
/// hashing, so ids chosen to collide cannot slow the merge down.
pub fn merge_topk(lists: &[Vec<Neighbor>], k: usize) -> Vec<Neighbor> {
    let mut order: Vec<(u64, u32)> = lists
        .iter()
        .flatten()
        .zip(0u32..)
        .map(|(n, pos)| (n.id, pos))
        .collect();
    order.sort_unstable();
    // within an id's run the first pair is its first occurrence
    let mut later = vec![false; order.len()];
    for pair in order.windows(2) {
        if pair[0].0 == pair[1].0 {
            later[pair[1].1 as usize] = true;
        }
    }
    let mut heap = BoundedMaxHeap::new(k);
    for (&n, later) in lists.iter().flatten().zip(later) {
        if !later {
            heap.push(n);
        }
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_keeps_k_smallest() {
        let mut h = BoundedMaxHeap::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            h.push(Neighbor::new(i as u64, *d));
        }
        let out = h.into_sorted();
        let dists: Vec<f32> = out.iter().map(|n| n.dist).collect();
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn bound_is_infinite_until_full() {
        let mut h = BoundedMaxHeap::new(2);
        assert_eq!(h.bound(), f32::INFINITY);
        h.push(Neighbor::new(0, 1.0));
        assert_eq!(h.bound(), f32::INFINITY);
        h.push(Neighbor::new(1, 2.0));
        assert_eq!(h.bound(), 2.0);
        h.push(Neighbor::new(2, 0.5));
        assert_eq!(h.bound(), 1.0);
    }

    #[test]
    fn push_reports_retention() {
        let mut h = BoundedMaxHeap::new(1);
        assert!(h.push(Neighbor::new(0, 5.0)));
        assert!(!h.push(Neighbor::new(1, 9.0)));
        assert!(h.push(Neighbor::new(2, 1.0)));
        assert_eq!(h.len(), 1);
        assert!(!h.is_empty());
    }

    #[test]
    fn ties_break_by_id() {
        let mut h = BoundedMaxHeap::new(1);
        h.push(Neighbor::new(7, 1.0));
        // same distance, lower id wins
        assert!(h.push(Neighbor::new(3, 1.0)));
        assert_eq!(h.into_sorted()[0].id, 3);
    }

    #[test]
    fn merge_deduplicates_ids() {
        let a = vec![Neighbor::new(1, 0.1), Neighbor::new(2, 0.2)];
        let b = vec![Neighbor::new(1, 0.1), Neighbor::new(3, 0.05)];
        let merged = merge_topk(&[a, b], 3);
        let ids: Vec<u64> = merged.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    fn merge_keeps_the_first_occurrence_of_each_id() {
        let pairs = |v: Vec<Neighbor>| v.iter().map(|n| (n.id, n.dist)).collect::<Vec<_>>();
        // id 1 enters first, is evicted by 2 and 3, and comes back at a
        // smaller distance: its first copy decided, so it stays out
        let a = vec![Neighbor::new(1, 5.0)];
        let b = vec![Neighbor::new(2, 1.0), Neighbor::new(3, 2.0)];
        let c = vec![Neighbor::new(1, 0.5)];
        assert_eq!(
            pairs(merge_topk(&[a.clone(), b.clone(), c.clone()], 2)),
            vec![(2, 1.0), (3, 2.0)]
        );
        // the same when the first copy was never retained at all
        assert_eq!(
            pairs(merge_topk(&[b.clone(), a.clone(), c.clone()], 2)),
            vec![(2, 1.0), (3, 2.0)]
        );
        // without the earlier copies, the small distance wins a place
        assert_eq!(
            pairs(merge_topk(&[b.clone(), c], 2)),
            vec![(1, 0.5), (2, 1.0)]
        );
        // an equal-distance copy of a retained id is not a second entry
        let d = vec![Neighbor::new(3, 2.0), Neighbor::new(4, 3.0)];
        assert_eq!(
            pairs(merge_topk(&[b, d], 3)),
            vec![(2, 1.0), (3, 2.0), (4, 3.0)]
        );
        // a later copy at a smaller distance never replaces a retained one
        let e = vec![Neighbor::new(5, 4.0), Neighbor::new(6, 4.5)];
        let f = vec![Neighbor::new(6, 0.1)];
        assert_eq!(pairs(merge_topk(&[e, f], 3)), vec![(5, 4.0), (6, 4.5)]);
    }

    #[test]
    fn heap_against_full_sort_randomized() {
        // deterministic LCG so the test is reproducible without rand
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32) / (u32::MAX as f32)
        };
        for k in [1usize, 5, 32] {
            let vals: Vec<f32> = (0..200).map(|_| next()).collect();
            let mut h = BoundedMaxHeap::new(k);
            for (i, &v) in vals.iter().enumerate() {
                h.push(Neighbor::new(i as u64, v));
            }
            let got: Vec<f32> = h.into_sorted().iter().map(|n| n.dist).collect();
            let mut sorted = vals.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got, &sorted[..k]);
        }
    }
}
