//! The DRIM-ANN engine: build an IVF-PQ index, lay it out over the DPUs,
//! and execute query batches through the five-phase pipeline (paper Fig. 4).
//!
//! The index is placed on the DPUs by `crate::deploy`, trace mode's
//! deployment too, from the lists' sizes and profiled heat.
//!
//! Execution per batch: the host runs cluster locating here. Then, because
//! LUTs and distances depend only on (query, cluster) and (query, point),
//! the host computes them once for the whole batch (the `arena`
//! submodule): per probed cluster, its queries in interleaved blocks, one
//! LUT build and one pass over the cluster's codes per block. The shared
//! dispatch loop (`crate::dispatch`, also trace mode's) then schedules
//! greedily and drives the DPU waves. Every DPU (in parallel on the host
//! thread pool, one work item per DPU) books its wave from the batch's
//! charge table — RC and LC once per (query, cluster) group, DC per slice,
//! the rows trace mode books — and runs TS for real over the arena's
//! distances. TS reads each slice's distances and ids where they lie (a
//! cluster with pending tombstones first compacts the slice's live pairs
//! into reused scratch), tests each 32-candidate chunk against the
//! forwarded bound with one branch-free fold and skips the chunks it
//! prunes whole, and keeps one packed-key queue per query
//! (`kernels::ts`'s header argues why the skip cannot change a count).
//! Finally the per-DPU top-k lists are gathered and merged on the host,
//! first occurrence of each id winning. The returned [`BatchReport`] carries
//! the simulated wall clock, energy, imbalance and phase breakdown.
//! Streaming inserts, deletes and maintenance live in the `mutate`
//! submodule.

use crate::config::{ConfigError, DataBits, EngineConfig};
use crate::deploy::{bytes_per_point, deploy};
use crate::dispatch::{self, ChargeTable, DpuOutput};
use crate::kernels::{cl, dc, lc, rc, ts, GroupCost};
use crate::layout::{heat::HeatProfile, ClusterInfo, LayoutPlan, LayoutProfile};
use crate::perf_model::{BitWidths, WorkloadShape};
use crate::report::BatchReport;
use crate::sched::Task;
use crate::wram::WramPlacement;
use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use ann_core::quantize::ScalarQuantizer;
use ann_core::topk::{merge_topk, Neighbor};
use ann_core::vector::VecSet;
use upmem_sim::fault::{result_checksum, FaultConfig, FaultInjector};
use upmem_sim::meter::PhaseMeter;
use upmem_sim::proc::ProcModel;
use upmem_sim::system::PimSystem;
use upmem_sim::{PimArch, SimConfigError};

mod arena;
mod mutate;
use arena::Arena;
pub use mutate::{MaintenanceReport, MutationError};

/// Build-time error.
#[derive(Debug)]
pub enum BuildError {
    /// A DPU's MRAM cannot hold its assigned slices.
    MramOverflow(String),
    /// The engine configuration was rejected (see [`EngineConfig::validate`]).
    Config(ConfigError),
    /// The simulated system was rejected (zero DPUs, broken architecture).
    Sim(SimConfigError),
    /// Trace mode's cluster descriptors give fewer clusters a positive
    /// heat than a query probes, so no query could ever draw `nprobe`
    /// distinct clusters.
    SparseHeat {
        /// Clusters with positive heat.
        hot: usize,
        /// Distinct clusters each query probes.
        nprobe: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MramOverflow(msg) => write!(f, "MRAM overflow: {msg}"),
            BuildError::Config(e) => write!(f, "bad engine configuration: {e}"),
            BuildError::Sim(e) => write!(f, "bad simulator configuration: {e}"),
            BuildError::SparseHeat { hot, nprobe } => write!(
                f,
                "only {hot} clusters have positive heat, fewer than nprobe = {nprobe}"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

impl From<SimConfigError> for BuildError {
    fn from(e: SimConfigError) -> Self {
        BuildError::Sim(e)
    }
}

/// The assembled engine.
pub struct DrimEngine {
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// The IVF-PQ index: coarse centroids for the host's CL, and the one
    /// copy of every point's id and code — a DPU slice is the window
    /// `[start, start + len)` of its cluster's list (paper Fig. 14a).
    pub ivf: IvfPqIndex,
    /// The layout plan in force.
    pub layout: LayoutPlan,
    /// The simulated PIM system.
    pub system: PimSystem,
    /// WRAM residency decisions.
    pub placement: WramPlacement,
    /// Host processor model (runs CL + merge).
    pub host: ProcModel,
    /// Workload shape for the model-driven parts.
    pub shape: WorkloadShape,
    /// Quantizer mapping f32 residual space to u8 DPU operands.
    rquant: ScalarQuantizer,
    /// Quantized codebooks, `m * cb * dsub`, transposed to `[s][d][j]` as
    /// the batch's LUT build reads them ([`lc::transpose`]).
    qcodebooks: Vec<u8>,
    /// Batch index fed to the fault injector's transient draws. Advanced
    /// only by [`Self::set_fault_batch`] — never implicitly — so
    /// [`Self::search_batch`] stays a pure function of
    /// `(engine, queries, fault_batch)` (the determinism contract of
    /// `docs/FAULT_MODEL.md`).
    fault_batch: u64,
    /// Monotone result-validity epoch: bumped by every mutation that can
    /// change what [`Self::search_batch`] returns for a given query (see
    /// [`Self::epoch`]). Result caches key on it to invalidate exactly
    /// when needed.
    epoch: u64,
    /// Per-cluster tombstone sets: ids deleted but not yet physically
    /// compacted away. Filtered between DC and TS, so a tombstoned id can
    /// never reach a top-k queue (see `docs/MUTATION.md`).
    tombstones: Vec<std::collections::BTreeSet<u32>>,
    /// Live id -> owning cluster. Inserts register here, deletes remove;
    /// the map is the membership oracle for duplicate-id rejection and
    /// O(1) delete routing.
    id_cluster: std::collections::HashMap<u32, u32>,
    /// Tombstoned id -> cluster still physically holding its stale copy
    /// (cleared by compaction). Re-inserting such an id compacts first so
    /// the old copy cannot resurrect.
    tombstoned_cluster: std::collections::HashMap<u32, u32>,
    /// MRAM bytes per stored point (`m * code_bytes + 4`), cached for the
    /// mutation paths.
    bytes_per_point: u64,
    /// Accumulated simulated link seconds spent on mutation transfers
    /// (insert appends, split/migration moves) — the honest price of
    /// streaming churn, kept separate from query-batch timing.
    mutation_transfer_s: f64,
    /// Accumulated bytes pushed across the link by mutations.
    mutation_push_bytes: u64,
    /// The last batch's LUT + DC values (scratch reused across batches).
    arena: Arena,
    /// The dispatch loop's per-batch buffers, reused across batches.
    dispatch: dispatch::Scratch,
    /// What the build's layout pass decided and how long it took.
    layout_profile: LayoutProfile,
}

impl DrimEngine {
    /// Build the engine over `data`.
    ///
    /// `profile_queries` feed the heat profiler (paper: heat is "profiled
    /// by random data distribution patterns"); pass a sample of expected
    /// traffic or `None` for size-proportional heat.
    pub fn build(
        data: &VecSet<f32>,
        cfg: EngineConfig,
        arch: PimArch,
        ndpus: usize,
        profile_queries: Option<&VecSet<f32>>,
    ) -> Result<DrimEngine, BuildError> {
        let params = IvfPqParams::new(cfg.index.nlist)
            .m(cfg.index.m)
            .cb(cfg.index.cb);
        let ivf = IvfPqIndex::build(data, &params);
        Self::from_index(ivf, data, cfg, arch, ndpus, profile_queries)
    }

    /// Build from a pre-built index (lets callers reuse one index across
    /// many engine configurations, as the ablation figures do).
    pub fn from_index(
        ivf: IvfPqIndex,
        data: &VecSet<f32>,
        cfg: EngineConfig,
        arch: PimArch,
        ndpus: usize,
        profile_queries: Option<&VecSet<f32>>,
    ) -> Result<DrimEngine, BuildError> {
        cfg.validate()?;
        // the operands are u8 (`fit_u8` below): 16-bit charges would price
        // traffic this engine never moves
        if cfg.bits != DataBits::B8 {
            return Err(ConfigError::WideOperands.into());
        }
        let dim = data.dim();
        let pq = &ivf.quant;
        // the DC scan sums a point's LUT entries in 32 bits
        let padded_dim = pq.m * pq.dsub;
        if padded_dim > dc::MAX_PADDED_DIM {
            return Err(ConfigError::DimTooWide { padded_dim }.into());
        }

        // Residual-space quantizer: cover residuals and codebook values with
        // one affine codec so integer differences are meaningful. Fit on
        // the codebook values plus a sample of actual residuals.
        let mut extremes = VecSet::new(1);
        for &v in pq.codebooks_flat() {
            extremes.push(&[v]);
        }
        let sample_stride = (data.len() / 512).max(1);
        let mut rbuf = vec![0.0f32; dim];
        for i in (0..data.len()).step_by(sample_stride) {
            ivf.assign_residual(data.get(i), &mut rbuf);
            for &v in &rbuf {
                extremes.push(&[v]);
            }
        }
        // widen by 10 % so unseen residual tails still land in range
        let rquant = widen(ScalarQuantizer::fit_u8(&extremes), 1.10);
        let qcodebooks: Vec<u8> = pq
            .codebooks_flat()
            .iter()
            .map(|&v| rquant.encode(v) as u8)
            .collect();
        let qcodebooks = lc::transpose(&qcodebooks, pq.m, pq.cb, pq.dsub);

        // Heat profile from sample traffic (one GEMM-batched CL pass over
        // the whole profile set instead of a per-query scan).
        let profile = profile_queries.map(|qs| {
            let mut p = HeatProfile::default();
            for probes in ivf.locate_batch(qs, cfg.index.nprobe) {
                let probed: Vec<u32> = probes.into_iter().map(|(c, _)| c).collect();
                p.record(&probed);
            }
            p.probes.resize(cfg.index.nlist, 0);
            p
        });
        let clusters: Vec<ClusterInfo> = crate::layout::heat::cluster_heat(
            &ivf.cluster_sizes(),
            profile.as_ref(),
            cfg.index.nprobe,
        );

        let shape = WorkloadShape::new(
            ivf.len() as u64,
            cfg.batch,
            dim,
            &cfg.index,
            BitWidths::u8_regime(),
        );
        let (layout, system, placement, layout_profile) =
            deploy(&clusters, &cfg, arch, ndpus, &shape)?;
        let bytes_per_point = bytes_per_point(&cfg.index);

        // Live-id directory for the mutation paths: every id the build
        // ingested is live, owned by the list that holds it.
        let mut id_cluster =
            std::collections::HashMap::with_capacity(ivf.lists.iter().map(|l| l.len()).sum());
        for (c, list) in ivf.lists.iter().enumerate() {
            for &id in &list.ids {
                id_cluster.insert(id, c as u32);
            }
        }
        let nlist = ivf.lists.len();

        Ok(DrimEngine {
            cfg,
            ivf,
            layout,
            system,
            placement,
            host: upmem_sim::platform::procs::xeon_silver_4216(),
            shape,
            rquant,
            qcodebooks,
            fault_batch: 0,
            epoch: 0,
            tombstones: vec![std::collections::BTreeSet::new(); nlist],
            id_cluster,
            tombstoned_cluster: Default::default(),
            bytes_per_point,
            mutation_transfer_s: 0.0,
            mutation_push_bytes: 0,
            arena: Arena::default(),
            dispatch: dispatch::Scratch::default(),
            layout_profile,
        })
    }

    /// What the build's layout pass decided and how long its steps took.
    /// Maintenance edits the layout in place and leaves this as built.
    pub fn layout_profile(&self) -> &LayoutProfile {
        &self.layout_profile
    }

    /// Attach a fault injector: subsequent batches run through the
    /// recovery pipeline. Rejects malformed rates/distributions.
    /// Bumps the result epoch (conservatively — with the host fallback on,
    /// recovery is lossless and results would not actually change).
    pub fn inject_faults(&mut self, cfg: FaultConfig) -> Result<(), ConfigError> {
        self.system.fault = Some(FaultInjector::new(cfg)?);
        self.epoch += 1;
        Ok(())
    }

    /// Detach the fault injector (back to perfectly reliable hardware).
    /// Bumps the result epoch when an injector was actually attached.
    pub fn clear_faults(&mut self) {
        if self.system.fault.take().is_some() {
            self.epoch += 1;
        }
    }

    /// Set the batch index the injector's transient draws key on. Callers
    /// that model a stream of batches advance this between
    /// [`Self::search_batch`] calls; leaving it fixed replays the same
    /// fault pattern (what the parity tests exploit).
    ///
    /// Bumps the result epoch only when the batch index can actually
    /// change results: a live injector with
    /// [`EngineConfig::host_fallback`] off, where degradation (which tasks
    /// drop) depends on the per-batch fault draw — the dead mask (a rank
    /// kill takes effect from its batch) and the transient faults. With the
    /// fallback on, recovery is bit-identical to zero-fault at every batch
    /// index, so caches stay warm across batches.
    pub fn set_fault_batch(&mut self, batch: u64) {
        if batch != self.fault_batch && self.fault_active() && !self.cfg.host_fallback {
            self.epoch += 1;
        }
        self.fault_batch = batch;
    }

    /// The current fault batch index.
    pub fn fault_batch(&self) -> u64 {
        self.fault_batch
    }

    /// Monotone result-validity epoch. Two [`Self::search_batch`] calls at
    /// the same epoch return bit-identical results for bit-identical
    /// queries; any mutation that could break that — an insert, a delete, a
    /// maintenance split or migration, fault-injector arming or clearing, a
    /// lossy-mode fault-batch advance — bumps it first. Result caches
    /// (ann-serve's hot-query cache) key entries on the epoch and drop them
    /// on mismatch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The probe depth every batch uses: the configured `cfg.index.nprobe`.
    pub fn effective_nprobe(&self) -> usize {
        self.cfg.index.nprobe
    }

    /// Number of live (inserted and not deleted) points.
    pub fn live_len(&self) -> usize {
        self.id_cluster.len()
    }

    /// Tombstoned points not yet physically compacted away.
    pub fn pending_tombstones(&self) -> usize {
        self.tombstoned_cluster.len()
    }

    /// Simulated link seconds mutations (inserts, splits, migrations) have
    /// cost so far — the metered price of streaming churn.
    pub fn mutation_transfer_s(&self) -> f64 {
        self.mutation_transfer_s
    }

    /// Bytes mutations have pushed across the host link so far.
    pub fn mutation_push_bytes(&self) -> u64 {
        self.mutation_push_bytes
    }

    /// DPUs per rank under the configured rank topology (`cfg.ranks`);
    /// `0` when the engine is monolithic.
    pub fn dpus_per_rank(&self) -> usize {
        self.cfg
            .ranks
            .map(|r| self.system.len().div_ceil(r))
            .unwrap_or(0)
    }

    /// True when a non-inert fault injector is attached.
    pub fn fault_active(&self) -> bool {
        self.system
            .fault
            .as_ref()
            .map(|f| !f.is_inert())
            .unwrap_or(false)
    }

    /// Number of DPUs in the simulated system.
    pub fn ndpus(&self) -> usize {
        self.system.len()
    }

    /// Query dimensionality this engine was built for. Serving front-ends
    /// validate incoming queries against it before admission.
    pub fn dim(&self) -> usize {
        self.ivf.coarse.dim()
    }

    /// Neighbors returned per query (`cfg.index.k`).
    pub fn k(&self) -> usize {
        self.cfg.index.k
    }

    /// Execute one query batch. Returns per-query neighbors plus the report.
    ///
    /// Clean and faulted batches run the same dispatch loop: with a
    /// non-inert fault injector attached ([`Self::inject_faults`]) its
    /// recovery pipeline engages; without one it is the one-wave case,
    /// bit-identical to an engine that never had an injector.
    ///
    /// With `cfg.dedup` on, bit-identical queries within the batch are
    /// computed once and their results scattered back
    /// (`report.deduped` counts the skipped copies). This is lossless:
    /// per-query results are a pure function of the query alone (GEMM
    /// ascending-k per-element purity — batch-mates never influence a
    /// result), so the deduped batch is bit-identical to the full one.
    ///
    /// # Panics
    ///
    /// If a query has a NaN or ±∞ coordinate: no probe set or distance is
    /// defined for it. Serving and mutation check this at admission and
    /// answer with a typed error (`ServeError::NonFinite`,
    /// [`MutationError::NonFinite`]); callers of this entry point check it
    /// themselves.
    pub fn search_batch(&mut self, queries: &VecSet<f32>) -> (Vec<Vec<Neighbor>>, BatchReport) {
        if let Some(at) = queries.as_flat().iter().position(|x| !x.is_finite()) {
            panic!("query {} has a non-finite coordinate", at / queries.dim());
        }
        if self.cfg.dedup && queries.len() >= 2 {
            if let Some((map, distinct)) = dedup_plan(queries) {
                let (dres, report) = self.search_batch_unique(&distinct);
                let deduped = queries.len() - distinct.len();
                let results = map.iter().map(|&di| dres[di].clone()).collect();
                return (results, report.with_dedup(queries.len(), deduped));
            }
        }
        self.search_batch_unique(queries)
    }

    /// [`Self::search_batch`] without the dedup pre-pass: every row of
    /// `queries` is executed, duplicates included. Host CL here, then the
    /// batch's LC + DC values ([`Arena::fill`]), then the shared dispatch
    /// loop ([`dispatch::run`]) over the functional kernels, then the host
    /// merge.
    fn search_batch_unique(&mut self, queries: &VecSet<f32>) -> (Vec<Vec<Neighbor>>, BatchReport) {
        // --- CL (host): borrowed centroid table + the index's cached
        // norms — no per-batch norm recompute or table clone ---
        let cl_out = cl::run(
            queries,
            &self.ivf.coarse,
            &self.ivf.coarse_norms,
            self.effective_nprobe(),
            &self.shape,
            &self.host,
        );

        // --- DPU execution: the dispatch loop mutates `self.system` while
        // waves run, so the kernels borrow the rest of the engine field by
        // field, and the batch's cost statement owns its cost table ---
        let cost = GroupCost::new(&self.cfg, &self.system.arch, &self.placement, self.dim());
        let kernels = DpuKernels {
            cost: &cost,
            cfg: &self.cfg,
            layout: &self.layout,
            dsub: self.ivf.quant.dsub,
            rquant: &self.rquant,
            qcodebooks: &self.qcodebooks,
            lists: &self.ivf.lists,
            centroids: &self.ivf.coarse,
            tombstones: &self.tombstones,
            queries,
        };
        self.arena.fill(&kernels, &cl_out.probes);
        let arena = &self.arena;
        let (per_query_lists, report) = dispatch::run(
            &mut self.system,
            dispatch::Batch {
                probes: &cl_out.probes,
                cl_host_s: cl_out.host_s,
                cfg: &self.cfg,
                layout: &self.layout,
                host: &self.host,
                cost: &cost,
                fault_batch: self.fault_batch,
            },
            &mut self.dispatch,
            |table, _, tasks| kernels.run_dpu(table, arena, tasks),
        );

        // --- merge on host ---
        let k = self.cfg.index.k;
        let results = per_query_lists
            .into_iter()
            .map(|lists| merge_topk(&lists, k))
            .collect();
        (results, report)
    }
}

/// The read-only engine state one DPU's kernels touch, borrowed field by
/// field (never through `&DrimEngine`) so [`dispatch::run`] can mutate the
/// engine's `PimSystem` while waves execute. Built once per batch.
struct DpuKernels<'a> {
    cost: &'a GroupCost<'a>,
    cfg: &'a EngineConfig,
    layout: &'a LayoutPlan,
    /// PQ sub-vector dimension.
    dsub: usize,
    rquant: &'a ScalarQuantizer,
    qcodebooks: &'a [u8],
    lists: &'a [ann_core::ivf::IvfList],
    /// The index's coarse centroids.
    centroids: &'a VecSet<f32>,
    tombstones: &'a [std::collections::BTreeSet<u32>],
    /// The batch's queries.
    queries: &'a VecSet<f32>,
}

impl DpuKernels<'_> {
    /// RC for one (query, cluster) group into `meter`: the quantized
    /// residual, zero-padded to `m * dsub` (PQ pads internally too).
    fn residual(&self, meter: &mut PhaseMeter, q: u32, cluster: u32, out: &mut Vec<u8>) {
        rc::run(
            &self.cost.ctx(),
            meter,
            self.queries.get(q as usize),
            self.centroids.get(cluster as usize),
            self.rquant,
            out,
        );
        out.resize(self.cfg.index.m * self.dsub, self.rquant.encode(0.0) as u8);
    }

    /// Execute one DPU's task list: RC, LC and DC booked from the batch's
    /// `table`, TS run for real over the distances in the batch's `arena`.
    ///
    /// TS reads each slice's distances and ids where they lie
    /// ([`ts::run_in_place`]) into one [`ts::PackedTopk`] per query, and
    /// skips every 32-candidate chunk the forwarded bound prunes whole.
    /// The skip cannot change a count: the bound is read once per chunk
    /// either way, so a chunk with no candidate at or under it would have
    /// taken no lock and made no update. A cluster with pending tombstones
    /// first compacts the slice's live (id, distance) pairs into scratch
    /// reused across the DPU's slices; the same kernel then runs over
    /// that, so the queue sees exactly the live stream it always did.
    fn run_dpu(&self, table: &ChargeTable<'_>, arena: &Arena, tasks: &[Task]) -> DpuOutput {
        let ctx = &self.cost.ctx();
        let k = self.cfg.index.k;
        // groups ascend by query, so the per-query queues (hence results
        // and checksum) do too
        let mut queues: Vec<(u32, ts::PackedTopk)> = Vec::new();
        let (mut live_ids, mut live_dists) = (Vec::new(), Vec::new());
        let mut tombstone_filtered = 0u64;
        let mut out = table.charge(tasks, |q, cluster, si, meter| {
            if queues.last().map(|(last, _)| *last) != Some(q) {
                queues.push((q, ts::PackedTopk::new(k)));
            }
            let queue = &mut queues.last_mut().expect("pushed above").1;
            let list = &self.lists[cluster as usize];
            let s = &self.layout.slices[si];
            let mut ids = &list.ids[s.start..s.start + s.len];
            let mut dists = &arena.run(q, cluster, list.len())[s.start..s.start + s.len];
            // Tombstone filter: deleted-but-uncompacted ids drop here,
            // between scan and top-k, so they can never enter a queue.
            // Removing a candidate cannot hurt the survivors (the TS prune
            // is conservative), so the stream the queue sees is exactly the
            // live stream — the compaction-neutrality invariant.
            let tomb = &self.tombstones[cluster as usize];
            if !tomb.is_empty() {
                live_ids.clear();
                live_dists.clear();
                for (&id, &d) in ids.iter().zip(dists) {
                    if !tomb.contains(&id) {
                        live_ids.push(id);
                        live_dists.push(d);
                    }
                }
                tombstone_filtered += (ids.len() - live_ids.len()) as u64;
                (ids, dists) = (&live_ids, &live_dists);
            }
            ts::run_in_place(ctx, meter, dists, ids, queue, k, self.cfg.lock_policy)
        });

        out.results = queues
            .into_iter()
            .map(|(q, queue)| (q, queue.into_sorted()))
            .collect();
        out.gather_bytes = out.results.iter().map(|(_, l)| l.len() as u64 * 8).sum();
        out.tombstone_filtered = tombstone_filtered;
        // Integrity header transmitted alongside the gather (folded into
        // the gather DMA, so it charges no extra cycles or bytes) — the
        // recovery layer recomputes it host-side to detect corruption.
        out.checksum = result_checksum(out.results.iter().flat_map(|(q, list)| {
            std::iter::once(*q as u64)
                .chain(list.iter().flat_map(|n| [n.id, n.dist.to_bits() as u64]))
        }));
        out
    }
}

/// In-batch dedup plan: for a batch with at least one bit-identical
/// repeat, return `(map, distinct)` where `distinct` holds each unique
/// query once (first-occurrence order) and `map[i]` is the distinct row
/// serving submitted query `i`. Returns `None` when every query is
/// distinct (the caller runs the original batch untouched). Queries are
/// bucketed by a hash of their f32 bit patterns and verified by full
/// bit-equality, so hash collisions cannot merge different queries.
fn dedup_plan(queries: &VecSet<f32>) -> Option<(Vec<usize>, VecSet<f32>)> {
    let n = queries.len();
    let mut buckets: std::collections::HashMap<u64, Vec<usize>> = Default::default();
    let mut map = vec![0usize; n];
    let mut distinct_rows: Vec<usize> = Vec::with_capacity(n);
    for (i, slot) in map.iter_mut().enumerate() {
        let q = queries.get(i);
        let h = ann_core::hash::hash_words(0xDED0_0B5E, q.iter().map(|v| v.to_bits() as u64));
        let bucket = buckets.entry(h).or_default();
        let hit = bucket.iter().copied().find(|&di| {
            let row = queries.get(distinct_rows[di]);
            row.iter().zip(q).all(|(a, b)| a.to_bits() == b.to_bits())
        });
        *slot = hit.unwrap_or_else(|| {
            let di = distinct_rows.len();
            distinct_rows.push(i);
            bucket.push(di);
            di
        });
    }
    if distinct_rows.len() == n {
        return None;
    }
    let mut distinct = VecSet::with_capacity(queries.dim(), distinct_rows.len());
    for &i in &distinct_rows {
        distinct.push(queries.get(i));
    }
    Some((map, distinct))
}

/// Widen a quantizer's range by `factor` around its center.
fn widen(q: ScalarQuantizer, factor: f32) -> ScalarQuantizer {
    let span = q.scale * (q.levels - 1) as f32;
    let center = q.lo + span / 2.0;
    let new_span = span * factor;
    ScalarQuantizer {
        lo: center - new_span / 2.0,
        scale: new_span / (q.levels - 1) as f32,
        levels: q.levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;

    pub(super) fn small_workload() -> (VecSet<f32>, VecSet<f32>) {
        let spec = datasets::SynthSpec::small("engine-test", 16, 3000, 11);
        let data = datasets::generate(&spec);
        let queries = datasets::queries::generate_queries(
            &spec,
            24,
            datasets::queries::QuerySkew::InDistribution,
            5,
        );
        (data, queries)
    }

    pub(super) fn small_cfg() -> EngineConfig {
        let mut cfg = EngineConfig::drim(IndexConfig {
            k: 10,
            nprobe: 16,
            nlist: 64,
            m: 8,
            cb: 32,
        });
        cfg.batch = 24;
        cfg
    }

    #[test]
    fn end_to_end_recall_beats_threshold() {
        let (data, queries) = small_workload();
        let mut engine =
            DrimEngine::build(&data, small_cfg(), PimArch::upmem_sc25(), 8, None).unwrap();
        let (results, report) = engine.search_batch(&queries);
        assert_eq!(results.len(), queries.len());
        let truth = ann_core::flat::ground_truth(&queries, &data, 10);
        let recall = ann_core::recall::mean_recall(&results, &truth, 10);
        assert!(recall > 0.6, "recall@10 = {recall}");
        assert!(report.qps > 0.0);
        assert!(report.timing.pim_s() > 0.0);
    }

    #[test]
    fn engine_matches_host_ivf_recall() {
        let (data, queries) = small_workload();
        let cfg = small_cfg();
        let mut engine =
            DrimEngine::build(&data, cfg.clone(), PimArch::upmem_sc25(), 8, None).unwrap();
        let (results, _) = engine.search_batch(&queries);
        let truth = ann_core::flat::ground_truth(&queries, &data, 10);
        let engine_recall = ann_core::recall::mean_recall(&results, &truth, 10);

        let host_results: Vec<Vec<Neighbor>> = (0..queries.len())
            .map(|qi| {
                engine
                    .ivf
                    .search(queries.get(qi), cfg.index.nprobe, cfg.index.k)
            })
            .collect();
        let host_recall = ann_core::recall::mean_recall(&host_results, &truth, 10);
        // u8 quantization costs a little recall but must stay close
        assert!(
            engine_recall > host_recall - 0.15,
            "engine {engine_recall} vs host {host_recall}"
        );
    }

    #[test]
    fn sqt_does_not_change_results() {
        let (data, queries) = small_workload();
        let mut cfg_on = small_cfg();
        cfg_on.sqt = true;
        let mut cfg_off = small_cfg();
        cfg_off.sqt = false;
        let mut e1 = DrimEngine::build(&data, cfg_on, PimArch::upmem_sc25(), 4, None).unwrap();
        let mut e2 = DrimEngine::build(&data, cfg_off, PimArch::upmem_sc25(), 4, None).unwrap();
        let (r1, rep1) = e1.search_batch(&queries);
        let (r2, rep2) = e2.search_batch(&queries);
        let ids = |rs: &Vec<Vec<Neighbor>>| -> Vec<Vec<u64>> {
            rs.iter()
                .map(|l| l.iter().map(|n| n.id).collect())
                .collect()
        };
        assert_eq!(ids(&r1), ids(&r2), "SQT is lossless");
        // and it must be faster
        assert!(
            rep1.timing.pim_s() < rep2.timing.pim_s(),
            "sqt {} vs mul {}",
            rep1.timing.pim_s(),
            rep2.timing.pim_s()
        );
    }

    #[test]
    fn wram_buffers_speed_up_the_batch() {
        let (data, queries) = small_workload();
        let mut on = small_cfg();
        on.wram_buffers = true;
        let mut off = small_cfg();
        off.wram_buffers = false;
        let mut e_on = DrimEngine::build(&data, on, PimArch::upmem_sc25(), 4, None).unwrap();
        let mut e_off = DrimEngine::build(&data, off, PimArch::upmem_sc25(), 4, None).unwrap();
        let (_, rep_on) = e_on.search_batch(&queries);
        let (_, rep_off) = e_off.search_batch(&queries);
        // at this small configuration LC is lookup-compute-bound, so the
        // gain is modest; the full-scale Fig. 12b harness shows ~4.4x
        assert!(
            rep_off.timing.pim_s() > 1.3 * rep_on.timing.pim_s(),
            "off {} on {}",
            rep_off.timing.pim_s(),
            rep_on.timing.pim_s()
        );
    }

    #[test]
    fn batch_report_is_consistent() {
        let (data, queries) = small_workload();
        let mut engine =
            DrimEngine::build(&data, small_cfg(), PimArch::upmem_sc25(), 8, None).unwrap();
        let (_, report) = engine.search_batch(&queries);
        assert_eq!(report.queries, queries.len());
        assert!(report.energy_j > 0.0);
        // the breakdown backs the total, and every leg of a real batch is live
        assert_eq!(report.energy_j.to_bits(), report.energy.total_j().to_bits());
        assert!(report.energy.dpu_pipeline_j > 0.0);
        assert!(report.energy.dpu_mram_j > 0.0);
        assert!(report.energy.transfer_j > 0.0);
        assert!(report.energy.host_busy_j > 0.0);
        assert!(report.energy.static_j > 0.0);
        assert!(report.queries_per_joule() > 0.0);
        // phase-resolved total never exceeds the flat P x t upper bound
        let flat = engine
            .system
            .energy_model()
            .energy_j(report.timing.total_s());
        assert!(
            report.energy_j <= flat,
            "{} vs flat {flat}",
            report.energy_j
        );
        assert!(report.imbalance >= 1.0);
        let frac_sum: f64 = report.phase_fraction.iter().sum();
        assert!((frac_sum - 1.0).abs() < 1e-6 || frac_sum == 0.0);
        assert!(
            report.sqt_wram_hit_rate > 0.99,
            "8-bit SQT always hits WRAM"
        );
    }

    #[test]
    fn recovery_with_host_fallback_is_lossless() {
        let (data, queries) = small_workload();
        let mut clean =
            DrimEngine::build(&data, small_cfg(), PimArch::upmem_sc25(), 8, None).unwrap();
        let (r0, rep0) = clean.search_batch(&queries);
        assert!(!rep0.fault.active(), "no injector, no fault accounting");

        let mut faulty =
            DrimEngine::build(&data, small_cfg(), PimArch::upmem_sc25(), 8, None).unwrap();
        faulty
            .inject_faults(FaultConfig::uniform(0xF00D, 0.2))
            .unwrap();
        assert!(faulty.fault_active());
        let (r1, rep1) = faulty.search_batch(&queries);
        assert!(
            rep1.fault.active(),
            "20% rates over 8 DPUs must fire something: {:?}",
            rep1.fault
        );
        assert_eq!(rep1.fault.dropped_tasks, 0, "fallback path never drops");
        assert_eq!(
            format!("{r0:?}"),
            format!("{r1:?}"),
            "recovery + host fallback must reproduce the zero-fault results bit-for-bit"
        );
        // recovery work is charged, never free: faulted batches cost time
        assert!(rep1.timing.total_s() >= rep0.timing.total_s());

        // detaching the injector restores the zero-fault report bit-for-bit
        faulty.clear_faults();
        let (r2, rep2) = faulty.search_batch(&queries);
        assert_eq!(format!("{r0:?}"), format!("{r2:?}"));
        assert_eq!(format!("{rep0:?}"), format!("{rep2:?}"));
    }

    #[test]
    fn degradation_without_fallback_is_accounted_and_bounded() {
        let (data, queries) = small_workload();
        let mut cfg = small_cfg();
        cfg.host_fallback = false;
        let mut engine =
            DrimEngine::build(&data, cfg.clone(), PimArch::upmem_sc25(), 8, None).unwrap();
        // heavy fail-stop: some slices are likely to lose every home
        let mut fc = FaultConfig::none();
        fc.seed = 0xDE6;
        fc.fail_stop_rate = 0.45;
        engine.inject_faults(fc).unwrap();
        let (results, report) = engine.search_batch(&queries);
        // every query still gets an answer, degraded or not
        assert_eq!(results.len(), queries.len());
        assert!(results.iter().all(|r| !r.is_empty()));
        let f = &report.fault;
        assert!(f.dead_dpus > 0, "45% fail-stop must kill some of 8 DPUs");
        if f.degraded() {
            assert!(f.dropped_points > 0 && f.degraded_queries > 0);
            assert!(f.recall_loss_bound() > 0.0 && f.recall_loss_bound() <= 1.0);
            // the dropped candidate mass is mirrored in the summary line
            assert!(report.summary().contains("loss<="));
        }
        // and the loss bound is honest: recall against a clean engine drops
        // by at most the bound (plus quantization noise already present)
        let mut clean = DrimEngine::build(&data, cfg, PimArch::upmem_sc25(), 8, None).unwrap();
        let (clean_results, _) = clean.search_batch(&queries);
        let truth = ann_core::flat::ground_truth(&queries, &data, 10);
        let degraded_recall = ann_core::recall::mean_recall(&results, &truth, 10);
        let clean_recall = ann_core::recall::mean_recall(&clean_results, &truth, 10);
        assert!(
            degraded_recall >= clean_recall - f.recall_loss_bound() - 0.05,
            "degraded {degraded_recall} clean {clean_recall} bound {}",
            f.recall_loss_bound()
        );
    }

    #[test]
    fn in_batch_dedup_is_lossless_and_counted() {
        let (data, queries) = small_workload();
        // a batch where every query appears three times
        let mut tripled = VecSet::with_capacity(queries.dim(), queries.len() * 3);
        for _ in 0..3 {
            for i in 0..queries.len() {
                tripled.push(queries.get(i));
            }
        }
        let mut on = DrimEngine::build(&data, small_cfg(), PimArch::upmem_sc25(), 8, None).unwrap();
        let mut cfg_off = small_cfg();
        cfg_off.dedup = false;
        let mut off = DrimEngine::build(&data, cfg_off, PimArch::upmem_sc25(), 8, None).unwrap();
        let (r_on, rep_on) = on.search_batch(&tripled);
        let (r_off, rep_off) = off.search_batch(&tripled);
        assert_eq!(
            format!("{r_on:?}"),
            format!("{r_off:?}"),
            "dedup must be bit-identical to the full batch"
        );
        assert_eq!(rep_on.deduped, 2 * queries.len());
        assert_eq!(rep_on.queries, tripled.len());
        assert_eq!(rep_off.deduped, 0);
        // the deduped batch does strictly less work
        assert!(rep_on.timing.total_s() < rep_off.timing.total_s());
        assert!(rep_on.qps > rep_off.qps);
    }

    #[test]
    fn epoch_tracks_result_affecting_mutations() {
        let (data, _) = small_workload();
        let mut e = DrimEngine::build(&data, small_cfg(), PimArch::upmem_sc25(), 8, None).unwrap();
        let e0 = e.epoch();

        // fault arming / clearing
        e.inject_faults(FaultConfig::uniform(1, 0.1)).unwrap();
        assert_eq!(e.epoch(), e0 + 1);
        e.clear_faults();
        assert_eq!(e.epoch(), e0 + 2);
        e.clear_faults();
        assert_eq!(e.epoch(), e0 + 2, "clearing nothing is a no-op");

        // fault-batch advance: free with the lossless fallback...
        e.inject_faults(FaultConfig::uniform(1, 0.1)).unwrap();
        let armed = e.epoch();
        e.set_fault_batch(7);
        assert_eq!(e.epoch(), armed, "host_fallback recovery is lossless");
        // ...but bumps in lossy mode, where the draw decides what drops
        e.cfg.host_fallback = false;
        e.set_fault_batch(8);
        assert_eq!(e.epoch(), armed + 1);
        e.set_fault_batch(8);
        assert_eq!(e.epoch(), armed + 1, "same batch index, no bump");
    }

    #[test]
    #[should_panic(expected = "query 1 has a non-finite coordinate")]
    fn search_batch_panics_on_a_non_finite_query() {
        let (data, queries) = small_workload();
        let mut e = DrimEngine::build(&data, small_cfg(), PimArch::upmem_sc25(), 8, None).unwrap();
        let mut batch = queries.select(&[0, 1, 2]);
        batch.get_mut(1)[3] = f32::NAN;
        e.search_batch(&batch);
    }

    #[test]
    fn build_rejects_misconfiguration_without_panicking() {
        let (data, _) = small_workload();
        let mut cfg = small_cfg();
        cfg.index.nprobe = 1000; // > nlist
        assert!(matches!(
            DrimEngine::build(&data, cfg, PimArch::upmem_sc25(), 4, None),
            Err(BuildError::Config(
                crate::config::ConfigError::BadNprobe { .. }
            ))
        ));
        assert!(matches!(
            DrimEngine::build(&data, small_cfg(), PimArch::upmem_sc25(), 0, None),
            Err(BuildError::Sim(upmem_sim::SimConfigError::ZeroDpus))
        ));
        let mut engine =
            DrimEngine::build(&data, small_cfg(), PimArch::upmem_sc25(), 4, None).unwrap();
        let mut fc = FaultConfig::none();
        fc.fail_stop_rate = 2.0;
        assert!(engine.inject_faults(fc).is_err());
    }

    #[test]
    fn build_rejects_dimensions_the_dc_accumulator_cannot_hold() {
        // m * dsub * 255^2 must fit the scan's u32 sums: one padded
        // dimension past the limit is a typed error, never a silent wrap
        let dim = dc::MAX_PADDED_DIM + 1;
        let mut data = VecSet::with_capacity(dim, 4);
        for i in 0..4 {
            data.push(&vec![i as f32; dim]);
        }
        let cfg = EngineConfig::drim(IndexConfig {
            k: 1,
            nprobe: 1,
            nlist: 1,
            m: 2,
            cb: 2,
        });
        assert!(matches!(
            DrimEngine::build(&data, cfg, PimArch::upmem_sc25(), 2, None),
            Err(BuildError::Config(ConfigError::DimTooWide { padded_dim })) if padded_dim == dim
        ));
    }

    #[test]
    fn build_rejects_16_bit_operands() {
        // the engine's operands are u8: B16 is a trace-mode-only model
        let (data, _) = small_workload();
        let mut cfg = small_cfg();
        cfg.bits = DataBits::B16;
        let err = DrimEngine::build(&data, cfg.clone(), PimArch::upmem_sc25(), 4, None).err();
        assert!(
            matches!(err, Some(BuildError::Config(ConfigError::WideOperands))),
            "{err:?}"
        );
        assert!(err.unwrap().to_string().contains("trace-mode only"));

        let spec = crate::trace::TraceSpec {
            name: "b16".into(),
            n_points: 100_000,
            dim: 16,
            batch: 24,
            cluster_size_zipf: 0.35,
            heat_zipf: 1.0,
            seed: 3,
        };
        let mut runner = crate::trace::TraceRunner::build(spec, cfg, PimArch::upmem_sc25(), 4);
        let rep = runner.run_batch(1);
        assert!(rep.timing.pim_s() > 0.0);
        assert_eq!(rep.sqt_wram_hit_rate, 0.9, "the 16-bit window's rate");
    }

    #[test]
    fn mram_capacity_is_enforced() {
        // absurdly small MRAM must fail the build
        let (data, _) = small_workload();
        let mut arch = PimArch::upmem_sc25();
        arch.mram_bytes = 1 << 10;
        let err = DrimEngine::build(&data, small_cfg(), arch, 2, None);
        assert!(err.is_err());
    }
}
