//! The batch's LC + DC values, computed once per probed cluster before any
//! DPU runs.
//!
//! A LUT is a function of (query, cluster) and a distance of (query,
//! point); neither depends on which simulated DPU computes it. The
//! scheduler spreads a cluster's probes over its replicas, so a DPU seldom
//! scans one slice for two queries, but across the batch every probed
//! cluster is scanned for all the queries that probe it. [`Arena::fill`]
//! does that scan: per cluster, its queries in blocks of up to
//! [`LANES`], one interleaved LUT build and one pass over the cluster's
//! codes per block, in parallel over (cluster, block) items. The per-DPU
//! waves then only book charges and run TS, which reads each slice's
//! window of a run ([`Arena::run`]) in place: nothing is copied out of the
//! arena, and a chunk the forwarded bound prunes whole costs one pass of
//! compares over its 32 distances.

use super::DpuKernels;
use crate::kernels::{dc, lane_width, lc, LANES};
use rayon::sync::lock_unpoisoned;
use upmem_sim::meter::PhaseMeter;

/// Per-batch `u32` distances of every probed (query, cluster) pair over
/// the cluster's whole list, reused across batches.
#[derive(Debug, Default)]
pub(super) struct Arena {
    /// The runs, item after item; an item's runs are lane after lane.
    dists: Vec<u32>,
    /// Per query, the start of its probes in `runs`; one entry past the
    /// last query closes the final range.
    first: Vec<usize>,
    /// Every (query, probed cluster) pair in probe order: the cluster and
    /// the start of its run in `dists`.
    runs: Vec<(u32, usize)>,
}

impl Arena {
    /// Compute the distances of every (query, cluster) pair in `probes`
    /// (per query: its probed clusters, as cluster locating returned them).
    pub(super) fn fill(&mut self, kernels: &DpuKernels<'_>, probes: &[Vec<u32>]) {
        // each cluster's probing queries, ascending, with their probe slots
        let mut by_cluster: Vec<Vec<(u32, usize)>> = vec![Vec::new(); kernels.lists.len()];
        self.first.clear();
        self.runs.clear();
        for (q, clusters) in probes.iter().enumerate() {
            self.first.push(self.runs.len());
            for &c in clusters {
                by_cluster[c as usize].push((q as u32, self.runs.len()));
                self.runs.push((c, 0));
            }
        }
        self.first.push(self.runs.len());

        // (cluster, block of probes) items, laid out back to back
        let mut items = Vec::new();
        let mut total = 0usize;
        for (c, probing) in by_cluster.iter().enumerate() {
            let len = kernels.lists[c].len();
            for block in probing.chunks(LANES) {
                for (lane, &(_, slot)) in block.iter().enumerate() {
                    self.runs[slot].1 = total + lane * len;
                }
                items.push((c as u32, block));
                total += block.len() * len;
            }
        }

        self.dists.resize(total, 0);
        let mut rest = self.dists.as_mut_slice();
        let outs: Vec<std::sync::Mutex<&mut [u32]>> = items
            .iter()
            .map(|&(c, block)| {
                let len = kernels.lists[c as usize].len();
                let (out, after) = std::mem::take(&mut rest).split_at_mut(block.len() * len);
                rest = after;
                std::sync::Mutex::new(out)
            })
            .collect();
        rayon::par_map(items.len(), |i| {
            let (c, block) = items[i];
            let mut out = lock_unpoisoned(&outs[i]);
            kernels.scan_block(c, block.iter().map(|&(q, _)| q), &mut out);
        });
    }

    /// Query `q`'s distances to every point of `cluster`'s list, by list
    /// offset (a slice is a window of its list).
    pub(super) fn run(&self, q: u32, cluster: u32, len: usize) -> &[u32] {
        let probed = &self.runs[self.first[q as usize]..self.first[q as usize + 1]];
        let &(_, start) = probed
            .iter()
            .find(|&&(c, _)| c == cluster)
            .expect("every task comes from a probe");
        &self.dists[start..start + len]
    }
}

impl DpuKernels<'_> {
    /// One item of [`Arena::fill`]: the distances of `queries` (at most
    /// [`LANES`]) to every point of `cluster`, query after query, in `out`.
    fn scan_block(&self, cluster: u32, queries: impl Iterator<Item = u32>, out: &mut [u32]) {
        let list = &self.lists[cluster as usize];
        if list.is_empty() {
            return;
        }
        let (m, cb, dsub) = (self.cfg.index.m, self.cfg.index.cb, self.dsub);
        // RC is booked by the DPUs that serve the groups; this meter is
        // scratch
        let mut unbooked = PhaseMeter::default();
        let mut scratch = lock_unpoisoned(&SCRATCH).pop().unwrap_or_default();
        let (residual, residuals, luts) = &mut scratch;
        residuals.clear();
        let mut lanes = 0;
        for q in queries {
            self.residual(&mut unbooked, q, cluster, residual);
            residuals.extend_from_slice(residual);
            lanes += 1;
        }
        // a 64-byte aligned table, so a 16-lane entry is one cache line,
        // never two (measured: half the scan's time)
        let len = m * cb * lane_width(lanes);
        luts.resize(len + 15, 0);
        let start = luts.as_ptr().align_offset(64).min(15);
        let luts = &mut luts[start..start + len];
        lc::build(residuals, lanes, self.qcodebooks, m, cb, dsub, luts);
        dc::scan_lanes(&list.codes, m, cb, luts, lanes, out);
        lock_unpoisoned(&SCRATCH).push(scratch);
    }
}

/// [`DpuKernels::scan_block`]'s scratch: one residual, the block's
/// residual slab and its interleaved LUTs (512 KiB at 16 lanes, `m = 32`,
/// `cb = 256`).
type Scratch = (Vec<u8>, Vec<u8>, Vec<u32>);

/// Free list of [`Scratch`], reused across items, batches and threads — a
/// fresh LUT allocation per item cost more in page faults than the build
/// itself. Not a thread-local: a region's helpers are fresh threads, and
/// cold per-helper buffers cost ≈ 1.2% of a 256-query batch at 2 threads
/// on a 2-vCPU host.
static SCRATCH: std::sync::Mutex<Vec<Scratch>> = std::sync::Mutex::new(Vec::new());
