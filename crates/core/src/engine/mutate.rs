//! Streaming mutation of a built engine: inserts and deletes while
//! serving, plus the background maintenance pass (compaction, slice
//! splits, migration) that keeps the layout healthy under churn. See
//! `docs/MUTATION.md`.

use super::DrimEngine;
use upmem_sim::system::PimSystem;

/// Streaming-mutation error ([`DrimEngine::insert`]).
#[derive(Debug, Clone, PartialEq)]
pub enum MutationError {
    /// The inserted vector's dimension does not match the index.
    WrongDim {
        /// Dimension of the rejected vector.
        got: usize,
        /// Dimension the engine was built for.
        expected: usize,
    },
    /// The inserted vector has a NaN or infinite coordinate.
    NonFinite {
        /// Index of the first non-finite coordinate.
        at: usize,
    },
    /// The id is already live in the index (delete it first).
    DuplicateId(u32),
    /// No home DPU of the target cluster's tail slice has MRAM headroom
    /// for one more point. Run [`DrimEngine::maintain`] (compaction or
    /// migration frees space) and retry.
    MramFull(u32),
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::WrongDim { got, expected } => {
                write!(f, "inserted vector has dim {got}, index expects {expected}")
            }
            MutationError::NonFinite { at } => {
                write!(f, "inserted vector's coordinate {at} is NaN or infinite")
            }
            MutationError::DuplicateId(id) => write!(f, "id {id} is already live"),
            MutationError::MramFull(c) => {
                write!(f, "no MRAM headroom on cluster {c}'s home DPUs")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// What one [`DrimEngine::maintain`] call did. All costs are simulated
/// and already charged to the engine's mutation accounting
/// ([`DrimEngine::mutation_transfer_s`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaintenanceReport {
    /// Clusters physically compacted (tombstones purged).
    pub compacted_lists: usize,
    /// Tombstoned points physically removed by compaction.
    pub purged_points: u64,
    /// Overgrown tail slices split in two.
    pub split_slices: usize,
    /// Slice copies migrated between DPUs (double-buffered).
    pub migrated_slices: usize,
    /// Bytes moved across the host link by splits + migrations.
    pub moved_bytes: u64,
    /// Simulated seconds of link time the moves cost.
    pub transfer_s: f64,
    /// Epoch bumps performed (one per split/migration swap; compaction
    /// is results-neutral and bumps nothing).
    pub epoch_swaps: usize,
}

impl DrimEngine {
    /// Insert one vector while serving. Cluster and code come from
    /// [`ann_core::ivf::IvfPqIndex::assign_encode`], the step
    /// [`ann_core::ivf::IvfPqIndex::insert`] takes (so a from-scratch replay
    /// lands every point in the same cluster with the same code — the parity
    /// contract). The point is appended to the cluster's list, which grows
    /// the tail slice's window on every home DPU; the appended bytes are
    /// metered through the host link ([`Self::mutation_transfer_s`]). Bumps
    /// the result epoch.
    pub fn insert(&mut self, id: u32, v: &[f32]) -> Result<(), MutationError> {
        let dim = self.dim();
        if v.len() != dim {
            return Err(MutationError::WrongDim {
                got: v.len(),
                expected: dim,
            });
        }
        if let Some(at) = v.iter().position(|x| !x.is_finite()) {
            return Err(MutationError::NonFinite { at });
        }
        if self.id_cluster.contains_key(&id) {
            return Err(MutationError::DuplicateId(id));
        }
        let (c, code) = self.ivf.assign_encode(v);

        // Every cluster has a tail slice (the build gives even an empty
        // list one; compaction shrinks slices, never drops them). Headroom
        // is checked on each of its homes before any state changes, so a
        // failed insert is a clean no-op.
        let si = *self.layout.cluster_slices[c]
            .last()
            .expect("every cluster keeps a tail slice");
        let homes = self.layout.slice_homes[si].clone();
        if homes
            .iter()
            .any(|&d| self.system.dpus[d].mram.free() < self.bytes_per_point)
        {
            return Err(MutationError::MramFull(c as u32));
        }
        // A tombstoned copy of this id may still sit in some list; purge it
        // so the re-insert cannot leave two physical copies (the old one
        // would resurrect when its tombstone clears). Compaction keeps
        // every slice and its homes, so `si` is still the tail slice.
        if let Some(&old) = self.tombstoned_cluster.get(&id) {
            self.compact_cluster(old as usize);
        }
        for &d in &homes {
            // each copy crosses the link once
            self.push_to_dpu(d, self.bytes_per_point);
        }
        // The tail slice ends where the list ends, so the append lands in
        // its window.
        self.ivf.lists[c].ids.push(id);
        self.ivf.lists[c].codes.extend_from_slice(&code);
        self.layout.slices[si].len += 1;

        self.id_cluster.insert(id, c as u32);
        self.epoch += 1;
        Ok(())
    }

    /// Delete by id: O(1) tombstone, filtered out of every scan from the
    /// next batch on. Returns `false` (without an epoch bump) when the id
    /// is not live. Physical removal happens later in
    /// [`Self::maintain`]'s compaction pass.
    pub fn delete(&mut self, id: u32) -> bool {
        let Some(c) = self.id_cluster.remove(&id) else {
            return false;
        };
        self.tombstones[c as usize].insert(id);
        self.tombstoned_cluster.insert(id, c);
        self.epoch += 1;
        true
    }

    /// Grow DPU `d`'s slice storage by `bytes` that cross the host link to
    /// get there; returns the simulated link seconds, already added to the
    /// engine's mutation accounting.
    fn push_to_dpu(&mut self, d: usize, bytes: u64) -> f64 {
        resize_slices(&mut self.system, d, bytes as i64);
        let t = self.system.link.time_total(bytes);
        self.mutation_transfer_s += t;
        self.mutation_push_bytes += bytes;
        t
    }

    /// Physically purge a cluster's tombstones in one order-preserving pass
    /// over its list. Survivors never cross slice boundaries — each slice's
    /// window slides down and shrinks around its own survivors — so the
    /// candidate stream the DPUs see is *identical* to the filtered stream
    /// before compaction, which is why this reclaims MRAM without an epoch
    /// bump. Returns the purged-point count.
    fn compact_cluster(&mut self, c: usize) -> u64 {
        let tomb = std::mem::take(&mut self.tombstones[c]);
        if tomb.is_empty() {
            return 0;
        }
        let m = self.cfg.index.m;
        let list = &mut self.ivf.lists[c];
        let mut w = 0usize;
        for &si in &self.layout.cluster_slices[c] {
            let old = self.layout.slices[si];
            let start = w;
            for r in old.start..old.start + old.len {
                if tomb.contains(&list.ids[r]) {
                    continue;
                }
                if w != r {
                    list.ids[w] = list.ids[r];
                    list.codes.copy_within(r * m..(r + 1) * m, w * m);
                }
                w += 1;
            }
            self.layout.slices[si].start = start;
            self.layout.slices[si].len = w - start;
            let freed = (old.len - (w - start)) as u64 * self.bytes_per_point;
            if freed > 0 {
                for &d in &self.layout.slice_homes[si] {
                    resize_slices(&mut self.system, d, -(freed as i64));
                }
            }
        }
        let purged = (list.len() - w) as u64;
        list.ids.truncate(w);
        list.codes.truncate(w * m);
        for id in &tomb {
            self.tombstoned_cluster.remove(id);
        }
        purged
    }

    /// One background-maintenance step (`cfg.maintenance` policy):
    ///
    /// 1. **Compaction** — clusters whose tombstone fraction reached
    ///    `compact_tombstone_frac` are physically purged (results-neutral,
    ///    no epoch bump; reclaims MRAM and scan work).
    /// 2. **Split** — tail slices grown past `overgrown_factor * th1` are
    ///    halved, the new half placed on the least-loaded live DPU
    ///    (re-spreads a hot cluster that appends re-concentrated).
    /// 3. **Migration** — up to `max_migrations` slice copies move from
    ///    the most- to the least-loaded live DPU via a double-buffer epoch
    ///    swap: the destination copy is allocated and filled first (the
    ///    transfer is metered), reads keep hitting the old copy until the
    ///    home swap, then the source MRAM is released.
    ///
    /// Every split/migration bumps [`Self::epoch`], so serve-side caches
    /// and single-flight registries invalidate for free. Dead DPUs (under
    /// an armed injector at the current fault batch) never receive moved
    /// data.
    pub fn maintain(&mut self) -> MaintenanceReport {
        let mc = self.cfg.maintenance;
        let mut rep = MaintenanceReport::default();

        // --- 1. compaction ---
        for c in 0..self.ivf.lists.len() {
            let pending = self.tombstones[c].len();
            if pending == 0 {
                continue;
            }
            let physical = self.ivf.lists[c].len().max(1);
            if pending as f64 >= mc.compact_tombstone_frac * physical as f64 {
                rep.purged_points += self.compact_cluster(c);
                rep.compacted_lists += 1;
            }
        }

        // DPUs an armed injector has already failed must not receive data.
        let banned = match &self.system.fault {
            Some(inj) => crate::dispatch::dead_mask(inj, self.system.len(), self.fault_batch),
            None => vec![false; self.system.len()],
        };

        // --- 2. split overgrown slices ---
        // (th1 == usize::MAX when partitioning is off: the product below
        // is astronomically large and nothing ever splits, by design)
        let split_threshold = mc.overgrown_factor * self.layout.th1 as f64;
        for si in 0..self.layout.slices.len() {
            let s = self.layout.slices[si];
            if (s.len as f64) <= split_threshold || s.len < 2 {
                continue;
            }
            let first = s.len / 2;
            let move_bytes = (s.len - first) as u64 * self.bytes_per_point;
            // Destination: least-loaded live DPU with headroom, preferring
            // DPUs that do not already host this slice. A slice replicated
            // on every DPU (hot-cluster duplication) falls back to a home
            // DPU — the split still spreads *future* appends, and the tail
            // bytes are already resident there, so no transfer is charged.
            let bytes = self.layout.dpu_bytes(self.bytes_per_point);
            let homes = self.layout.slice_homes[si].clone();
            let Some(dst) = (0..self.system.len())
                .filter(|&d| !banned[d])
                .filter(|&d| homes.contains(&d) || self.system.dpus[d].mram.free() >= move_bytes)
                .min_by_key(|&d| (homes.contains(&d), bytes[d]))
            else {
                continue;
            };
            // The old copies give up the tail half (a home chosen as `dst`
            // keeps its bytes: they become the new slice); a new home is
            // allocated and filled across the link.
            for &d in homes.iter().filter(|&&d| d != dst) {
                resize_slices(&mut self.system, d, -(move_bytes as i64));
            }
            if !homes.contains(&dst) {
                rep.transfer_s += self.push_to_dpu(dst, move_bytes);
                rep.moved_bytes += move_bytes;
            }
            // the points stay where they are in the list: the tail half of
            // the window becomes a slice of its own
            self.layout.split_slice(si, first, dst);

            rep.split_slices += 1;
            rep.epoch_swaps += 1;
            self.epoch += 1;
        }

        // --- 3. migration ---
        for _ in 0..mc.max_migrations {
            let bytes = self.layout.dpu_bytes(self.bytes_per_point);
            let Some(src) = (0..self.system.len())
                .filter(|&d| bytes[d] > 0)
                .max_by_key(|&d| bytes[d])
            else {
                break;
            };
            let Some(dst) = (0..self.system.len())
                .filter(|&d| !banned[d] && d != src)
                .min_by_key(|&d| bytes[d])
            else {
                break;
            };
            if bytes[src] <= bytes[dst] {
                break; // already balanced
            }
            // biggest slice on src that fits dst's headroom, is not already
            // on dst, and actually improves balance
            let Some(&si) = self.layout.dpu_slices[src]
                .iter()
                .filter(|&&si| !self.layout.slice_homes[si].contains(&dst))
                .filter(|&&si| {
                    let b = self.layout.slices[si].len as u64 * self.bytes_per_point;
                    b > 0 && self.system.dpus[dst].mram.free() >= b && bytes[dst] + b < bytes[src]
                })
                .max_by_key(|&&si| self.layout.slices[si].len)
            else {
                break;
            };
            let move_bytes = self.layout.slices[si].len as u64 * self.bytes_per_point;

            // Double buffer: allocate + fill the destination copy first
            // (reads keep hitting the source copy until the home swap),
            // swap the home atomically (the epoch bump publishes it), then
            // release the source copy.
            rep.transfer_s += self.push_to_dpu(dst, move_bytes);
            rep.moved_bytes += move_bytes;
            self.layout.swap_home(si, src, dst);
            resize_slices(&mut self.system, src, -(move_bytes as i64));

            rep.migrated_slices += 1;
            rep.epoch_swaps += 1;
            self.epoch += 1;
        }

        rep
    }
}

/// Grow (`delta > 0`, the caller has checked headroom) or shrink DPU `d`'s
/// MRAM `"slices"` segment, the accounting of every slice copy it hosts.
fn resize_slices(system: &mut PimSystem, d: usize, delta: i64) {
    let mram = &mut system.dpus[d].mram;
    let bytes = mram.segment("slices").saturating_add_signed(delta);
    mram.set("slices", bytes)
        .expect("growth is pre-checked against free MRAM");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{small_cfg, small_workload};
    use upmem_sim::PimArch;

    /// The engine's lists as `validate` wants them: the slices must tile
    /// exactly these sizes.
    fn cluster_infos(e: &DrimEngine) -> Vec<crate::layout::ClusterInfo> {
        crate::layout::heat::cluster_heat(&e.ivf.cluster_sizes(), None, e.cfg.index.nprobe)
    }

    #[test]
    fn delete_tombstones_and_insert_appends() {
        let (data, queries) = small_workload();
        let mut e = DrimEngine::build(&data, small_cfg(), PimArch::upmem_sc25(), 8, None).unwrap();
        let (r0, _) = e.search_batch(&queries);
        let e0 = e.epoch();

        // delete every id the first query's top-k returned
        let victims: Vec<u32> = r0[0].iter().map(|n| n.id as u32).collect();
        for &id in &victims {
            assert!(e.delete(id), "id {id} must be live");
        }
        assert!(!e.delete(victims[0]), "double delete is a no-op");
        assert_eq!(e.epoch(), e0 + victims.len() as u64);
        assert_eq!(e.pending_tombstones(), victims.len());
        assert_eq!(e.live_len(), data.len() - victims.len());

        let (r1, rep1) = e.search_batch(&queries);
        assert!(
            rep1.tombstone_filtered > 0,
            "the victims were scanned and filtered"
        );
        assert!(rep1.summary().contains("tomb="));
        for r in &r1 {
            for n in r {
                assert!(
                    !victims.contains(&(n.id as u32)),
                    "tombstoned id {} served",
                    n.id
                );
            }
        }

        // re-insert one victim with its original vector: it becomes
        // findable again, and the stale physical copy cannot resurrect
        let back = victims[0];
        let tr0 = e.mutation_transfer_s();
        e.insert(back, data.get(back as usize)).unwrap();
        assert!(e.mutation_transfer_s() > tr0, "appends are metered");
        assert!(e.mutation_push_bytes() > 0);
        let (r2, _) = e.search_batch(&queries);
        let returned: std::collections::BTreeSet<u32> =
            r2.iter().flatten().map(|n| n.id as u32).collect();
        assert!(returned.contains(&back), "re-inserted id must come back");
        assert!(
            e.insert(back, data.get(back as usize)).is_err(),
            "duplicate live id rejected"
        );
        assert!(matches!(
            e.insert(9_999_999, &[0.0]),
            Err(MutationError::WrongDim { .. })
        ));
    }

    #[test]
    fn non_finite_insert_is_a_typed_error_and_changes_nothing() {
        let (data, _) = small_workload();
        let mut e = DrimEngine::build(&data, small_cfg(), PimArch::upmem_sc25(), 8, None).unwrap();
        let (epoch, live) = (e.epoch(), e.live_len());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut v = data.get(0).to_vec();
            v[3] = bad;
            assert_eq!(
                e.insert(9_999_999, &v),
                Err(MutationError::NonFinite { at: 3 }),
                "{bad}"
            );
        }
        assert_eq!((e.epoch(), e.live_len()), (epoch, live));
        assert_eq!(e.mutation_push_bytes(), 0);
    }

    #[test]
    fn mram_full_insert_is_a_clean_noop() {
        let (data, queries) = small_workload();
        let cfg = small_cfg();
        let params = ann_core::ivf::IvfPqParams::new(cfg.index.nlist)
            .m(cfg.index.m)
            .cb(cfg.index.cb);
        let mut ivf = ann_core::ivf::IvfPqIndex::build(&data, &params);
        // one list emptied before the engine is built: the layout still
        // gives it a tail slice, an empty one, so inserts have homes to check
        let (empty, full) = (3usize, 4usize);
        for id in ivf.lists[empty].ids.clone() {
            assert!(ivf.remove(id));
        }
        let mut e =
            DrimEngine::from_index(ivf, &data, cfg, PimArch::upmem_sc25(), 8, None).unwrap();
        assert_eq!(e.layout.cluster_slices[empty].len(), 1);
        // fill every DPU to one byte short of a point's worth of headroom
        for dpu in &mut e.system.dpus {
            let filler = dpu.mram.free() - (e.bytes_per_point - 1);
            dpu.mram.alloc("filler", filler).unwrap();
        }

        let snapshot = |e: &mut DrimEngine| {
            let slices_bytes: Vec<u64> = (e.system.dpus.iter())
                .map(|d| d.mram.segment("slices"))
                .collect();
            (
                e.epoch(),
                e.live_len(),
                e.ivf.cluster_sizes(),
                e.layout.slices.clone(),
                e.layout.slice_homes.clone(),
                slices_bytes,
                e.mutation_push_bytes(),
                format!("{:?}", e.search_batch(&queries).0),
            )
        };
        let before = snapshot(&mut e);
        for c in [empty, full] {
            let v = e.ivf.coarse.get(c).to_vec();
            assert_eq!(
                e.ivf.assign_encode(&v).0,
                c,
                "a centroid is its own nearest"
            );
            assert_eq!(
                e.insert(7_000_000 + c as u32, &v),
                Err(MutationError::MramFull(c as u32))
            );
        }
        assert_eq!(snapshot(&mut e), before, "a refused insert changes nothing");

        // one more byte of headroom on the homes and the same insert lands
        for dpu in &mut e.system.dpus {
            let filler = dpu.mram.segment("filler");
            dpu.mram.set("filler", filler - 1).unwrap();
        }
        let v = e.ivf.coarse.get(empty).to_vec();
        e.insert(7_000_000, &v).unwrap();
        assert_eq!(e.ivf.lists[empty].ids, [7_000_000]);
        e.layout.validate(&cluster_infos(&e)).unwrap();
    }

    #[test]
    fn compaction_is_results_neutral_and_reclaims_mram() {
        let (data, queries) = small_workload();
        let mut cfg = small_cfg();
        cfg.maintenance.compact_tombstone_frac = 1e-9; // compact on any tombstone
        let mut e = DrimEngine::build(&data, cfg, PimArch::upmem_sc25(), 8, None).unwrap();
        for id in 0..150u32 {
            assert!(e.delete(id));
        }
        let (r_filtered, rep_f) = e.search_batch(&queries);
        assert!(rep_f.tombstone_filtered > 0);
        let mram_before: u64 = e.system.dpus.iter().map(|d| d.mram.segment("slices")).sum();

        let epoch_before = e.epoch();
        let mut cfg_frozen = e.cfg.maintenance;
        cfg_frozen.max_migrations = 0;
        e.cfg.maintenance = cfg_frozen;
        let rep = e.maintain();
        assert!(rep.compacted_lists > 0);
        assert_eq!(rep.purged_points, 150);
        assert_eq!(e.pending_tombstones(), 0);
        assert_eq!(
            e.epoch(),
            epoch_before + rep.epoch_swaps as u64,
            "compaction alone never bumps the epoch"
        );
        let mram_after: u64 = e.system.dpus.iter().map(|d| d.mram.segment("slices")).sum();
        assert!(mram_after < mram_before, "compaction reclaims MRAM");

        if rep.epoch_swaps == 0 {
            // no split/migration happened: results must be bit-identical
            let (r_compacted, rep_c) = e.search_batch(&queries);
            assert_eq!(format!("{r_filtered:?}"), format!("{r_compacted:?}"));
            assert_eq!(rep_c.tombstone_filtered, 0, "nothing left to filter");
        }

        // layout invariants survive: slices still tile every list exactly
        e.layout.validate(&cluster_infos(&e)).unwrap();
    }

    #[test]
    fn maintain_migrates_under_skew_with_metered_transfer() {
        let (data, queries) = small_workload();
        let mut e = DrimEngine::build(&data, small_cfg(), PimArch::upmem_sc25(), 8, None).unwrap();
        // skew the load: a burst of near-identical inserts lands in one
        // cluster's tail slice
        let base = data.get(0).to_vec();
        for i in 0..400u32 {
            let mut v = base.clone();
            v[0] += (i as f32) * 1e-4;
            e.insert(1_000_000 + i, &v).unwrap();
        }
        let (r_before, _) = e.search_batch(&queries);
        let rep = e.maintain();
        assert!(
            rep.migrated_slices >= 1 || rep.split_slices >= 1,
            "400 skewed appends must trigger a move: {rep:?}"
        );
        assert!(rep.epoch_swaps >= 1);
        if rep.migrated_slices >= 1 {
            // migrations always cross the link; splits only when the new
            // half lands on a DPU that did not already hold the bytes
            assert!(rep.moved_bytes > 0);
            assert!(rep.transfer_s > 0.0, "migration transfer is metered");
        }
        // the move is invisible to results
        let (r_after, _) = e.search_batch(&queries);
        assert_eq!(format!("{r_before:?}"), format!("{r_after:?}"));
        // and the layout stays exact
        e.layout.validate(&cluster_infos(&e)).unwrap();
    }
}
