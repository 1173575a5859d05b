//! Engine configuration: the tunable index parameters of the paper's
//! Table 2 plus every optimization toggle the evaluation ablates.

use upmem_sim::tasklet::LockPolicy;

/// Quantization bit-width regime for residuals/codebooks on the DPUs.
///
/// Decides the squaring-LUT layout: 8-bit operands need a 256-entry SQT that
/// fits entirely in WRAM; 16-bit operands need a 64Ki-entry SQT of which only
/// a hot window is WRAM-resident (paper Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataBits {
    /// 8-bit integers (the paper's main regime: SIFT and quantized DEEP).
    #[default]
    B8,
    /// 16-bit integers.
    B16,
}

impl DataBits {
    /// Bytes per scalar.
    pub fn bytes(self) -> u64 {
        match self {
            DataBits::B8 => 1,
            DataBits::B16 => 2,
        }
    }
}

/// The tunable index parameters `(K, P, C, M, CB)` of paper Table 2.
///
/// `C` (mean cluster population) is controlled through `nlist`:
/// `C = N / nlist` for a corpus of `N` vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// `K`: neighbors returned per query.
    pub k: usize,
    /// `P` (`nprobe`): clusters scanned per query.
    pub nprobe: usize,
    /// Number of coarse clusters (`C = N / nlist`).
    pub nlist: usize,
    /// `M`: PQ sub-quantizers.
    pub m: usize,
    /// `CB`: codebook entries per subspace.
    pub cb: usize,
}

impl IndexConfig {
    /// The configuration of the paper's Fig. 7(a): nlist=2^14, nprobe=96,
    /// M=16, CB=256, recall@10.
    pub fn paper_default() -> Self {
        IndexConfig {
            k: 10,
            nprobe: 96,
            nlist: 1 << 14,
            m: 16,
            cb: 256,
        }
    }

    /// Mean cluster population for a corpus of `n` vectors.
    pub fn mean_cluster_size(&self, n: u64) -> f64 {
        n as f64 / self.nlist as f64
    }
}

/// Cluster-slice allocation policy across DPUs (paper Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// Slices assigned to DPUs in order, ignoring heat — the imbalanced
    /// baseline of Fig. 13.
    RoundRobin,
    /// Heat-balanced greedy allocation plus the co-location exchange pass
    /// (the paper's "mixed layout").
    #[default]
    HeatBalanced,
}

/// Runtime query-to-DPU scheduling policy (paper Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Every task runs on its cluster's primary replica.
    Static,
    /// Greedy coldest-replica scheduling with `th3` postponement.
    #[default]
    Greedy,
}

/// Rejected engine configuration — returned instead of panicking so
/// callers (the DSE, serving layers) can degrade or reject a request
/// rather than abort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `k` must be at least 1.
    ZeroK,
    /// `nlist` must be at least 1.
    ZeroNlist,
    /// `m` must be at least 1.
    ZeroM,
    /// `nprobe` must be in `1..=nlist`.
    BadNprobe {
        /// Requested probes.
        nprobe: usize,
        /// Available clusters.
        nlist: usize,
    },
    /// `cb` must be in `2..=65536` (codes are stored as u16).
    BadCb(usize),
    /// Batch size must be at least 1.
    ZeroBatch,
    /// At least one tasklet must be resident.
    ZeroTasklets,
    /// `th3` must be non-negative (or infinite to disable postponement).
    BadTh3(f64),
    /// The SQT WRAM window must be at least 1 entry.
    ZeroSqtWindow,
    /// Maintenance parameters are malformed; the payload names the field.
    BadMaintenance(&'static str),
    /// Fault-injection parameters were rejected by the simulator.
    BadFault(upmem_sim::fault::FaultConfigError),
    /// `ranks` was `Some(0)` — a rank topology needs at least one rank.
    ZeroRanks,
    /// The PQ-padded dimension (`m * dsub`) is too wide for the DC scan's
    /// 32-bit distance accumulators: `m * dsub * 255^2` must fit a `u32`,
    /// i.e. the padded dimension must not exceed 66,051.
    DimTooWide {
        /// The index's padded dimension, `m * dsub`.
        padded_dim: usize,
    },
    /// `bits = DataBits::B16` on the functional engine, whose residuals and
    /// codewords are `u8`: its 16-bit charges would price traffic it never
    /// moves. Trace mode models 16-bit operands.
    WideOperands,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroK => write!(f, "k must be at least 1"),
            ConfigError::ZeroNlist => write!(f, "nlist must be at least 1"),
            ConfigError::ZeroM => write!(f, "m must be at least 1"),
            ConfigError::BadNprobe { nprobe, nlist } => {
                write!(f, "nprobe {nprobe} must lie in 1..={nlist}")
            }
            ConfigError::BadCb(cb) => write!(f, "cb {cb} must lie in 2..=65536"),
            ConfigError::ZeroBatch => write!(f, "batch size must be at least 1"),
            ConfigError::ZeroTasklets => write!(f, "at least one tasklet must be resident"),
            ConfigError::BadTh3(v) => write!(f, "th3 {v} must be non-negative"),
            ConfigError::ZeroSqtWindow => write!(f, "sqt_window must be at least 1 entry"),
            ConfigError::BadMaintenance(field) => {
                write!(f, "invalid maintenance parameter: {field}")
            }
            ConfigError::BadFault(e) => write!(f, "invalid fault configuration: {e}"),
            ConfigError::ZeroRanks => write!(f, "ranks must be at least 1 when set"),
            ConfigError::DimTooWide { padded_dim } => write!(
                f,
                "padded dimension {padded_dim} overflows 32-bit ADC distances (at most {})",
                crate::kernels::dc::MAX_PADDED_DIM
            ),
            ConfigError::WideOperands => write!(
                f,
                "16-bit operands are trace-mode only: the functional engine's residuals and codewords are u8"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<upmem_sim::fault::FaultConfigError> for ConfigError {
    fn from(e: upmem_sim::fault::FaultConfigError) -> Self {
        ConfigError::BadFault(e)
    }
}

/// Background-maintenance policy for the streaming mutable index
/// ([`DrimEngine::maintain`](crate::engine::DrimEngine::maintain)):
/// when tombstone-heavy lists are compacted, when overgrown slices are
/// split, and how many slice copies one maintenance step may migrate
/// between DPUs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceConfig {
    /// Compact a cluster once its tombstoned fraction reaches this value
    /// (tombstones / physical points, in `(0, 1]`). Compaction physically
    /// removes tombstoned points, order-preserving, so it never changes
    /// results — only reclaims MRAM and scan work.
    pub compact_tombstone_frac: f64,
    /// Split a slice once it grows past this multiple of the layout's
    /// split threshold `th1` (appends land in a cluster's tail slice, so
    /// unchecked growth would re-concentrate a hot cluster on one DPU).
    /// Must be at least 1.0.
    pub overgrown_factor: f64,
    /// Upper bound on slice copies migrated between DPUs per
    /// [`maintain`](crate::engine::DrimEngine::maintain) call. Each
    /// migration is a double-buffered copy priced by the link model and
    /// finalized with one epoch swap.
    pub max_migrations: usize,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            compact_tombstone_frac: 0.25,
            overgrown_factor: 2.0,
            max_migrations: 1,
        }
    }
}

impl MaintenanceConfig {
    /// Validity check folded into [`EngineConfig::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.compact_tombstone_frac > 0.0 && self.compact_tombstone_frac <= 1.0) {
            return Err(ConfigError::BadMaintenance("compact_tombstone_frac"));
        }
        if self.overgrown_factor < 1.0 || self.overgrown_factor.is_nan() {
            return Err(ConfigError::BadMaintenance("overgrown_factor"));
        }
        Ok(())
    }
}

/// Complete engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Index parameters.
    pub index: IndexConfig,
    /// Replace squarings with the SQT (multiplier-less conversion,
    /// Section 3.1). Off = native 32-cycle multiplies.
    pub sqt: bool,
    /// WRAM window of the 16-bit SQT, in table entries; the presets set
    /// [`crate::sqt::DEFAULT_U16_WINDOW`]. Inert in the 8-bit regime, where
    /// the full 256-entry table always fits, so only trace mode's 16-bit
    /// operands read it.
    pub sqt_window: usize,
    /// Operand width on the DPUs.
    pub bits: DataBits,
    /// Place hot data in WRAM (buffer optimization, Fig. 12b). Off = all
    /// traffic at MRAM cost.
    pub wram_buffers: bool,
    /// Split oversized clusters into slices (Fig. 14a).
    pub partition: bool,
    /// Override the searched split threshold `th1` (points per slice).
    pub split_granularity: Option<usize>,
    /// Duplicate hot slices (Fig. 14b).
    pub duplication: bool,
    /// Cap on extra duplicate bytes per DPU (Fig. 14b sweep); `None` = fill
    /// available MRAM.
    pub dup_budget_bytes: Option<u64>,
    /// Allocation policy.
    pub allocation: AllocPolicy,
    /// Runtime scheduling policy.
    pub scheduling: SchedPolicy,
    /// `th3`: tasks pushing a DPU beyond `(1 + th3) x` mean heat are
    /// postponed to the next batch.
    pub th3: f64,
    /// Top-k lock policy (Section 6 "Lock pruning").
    pub lock_policy: LockPolicy,
    /// Tasklets per DPU.
    pub tasklets: usize,
    /// Queries per batch.
    pub batch: usize,
    /// Background-maintenance policy for streaming mutation (compaction,
    /// slice splitting, migration).
    pub maintenance: MaintenanceConfig,
    /// Rank (DIMM) topology: DPUs are grouped into this many equal ranks
    /// (`dpus_per_rank = ceil(ndpus / ranks)`), and the layout gains a
    /// cross-rank replication post-pass so every slice keeps a home on at
    /// least two distinct ranks when replicas exist — the property that
    /// makes a whole-rank fail-stop lossless. `None` = monolithic system
    /// (no post-pass; layouts stay bit-identical to earlier versions).
    pub ranks: Option<usize>,
}

impl EngineConfig {
    /// All optimizations on — the DRIM-ANN configuration.
    pub fn drim(index: IndexConfig) -> Self {
        EngineConfig {
            index,
            sqt: true,
            sqt_window: crate::sqt::DEFAULT_U16_WINDOW,
            bits: DataBits::B8,
            wram_buffers: true,
            partition: true,
            split_granularity: None,
            duplication: true,
            dup_budget_bytes: None,
            allocation: AllocPolicy::HeatBalanced,
            scheduling: SchedPolicy::Greedy,
            th3: 0.15,
            lock_policy: LockPolicy::Forwarding,
            tasklets: 16,
            batch: 256,
            maintenance: MaintenanceConfig::default(),
            ranks: None,
        }
    }

    /// Everything off — the naive port the paper's ablations compare
    /// against.
    pub fn naive(index: IndexConfig) -> Self {
        EngineConfig {
            index,
            sqt: false,
            sqt_window: crate::sqt::DEFAULT_U16_WINDOW,
            bits: DataBits::B8,
            wram_buffers: false,
            partition: false,
            split_granularity: None,
            duplication: false,
            dup_budget_bytes: None,
            allocation: AllocPolicy::RoundRobin,
            scheduling: SchedPolicy::Static,
            th3: f64::INFINITY,
            lock_policy: LockPolicy::LockAlways,
            tasklets: 16,
            batch: 256,
            maintenance: MaintenanceConfig::default(),
            ranks: None,
        }
    }

    /// Reject user-reachable misconfiguration with a typed error instead of
    /// letting it surface as a panic (division by zero, empty heaps, code
    /// overflow) deep inside the build.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.index.k == 0 {
            return Err(ConfigError::ZeroK);
        }
        if self.index.nlist == 0 {
            return Err(ConfigError::ZeroNlist);
        }
        if self.index.m == 0 {
            return Err(ConfigError::ZeroM);
        }
        if self.index.nprobe == 0 || self.index.nprobe > self.index.nlist {
            return Err(ConfigError::BadNprobe {
                nprobe: self.index.nprobe,
                nlist: self.index.nlist,
            });
        }
        if !(2..=ann_core::pq::MAX_CB).contains(&self.index.cb) {
            return Err(ConfigError::BadCb(self.index.cb));
        }
        if self.batch == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if self.tasklets == 0 {
            return Err(ConfigError::ZeroTasklets);
        }
        if self.th3.is_nan() || self.th3 < 0.0 {
            return Err(ConfigError::BadTh3(self.th3));
        }
        if self.sqt_window == 0 {
            return Err(ConfigError::ZeroSqtWindow);
        }
        if self.ranks == Some(0) {
            return Err(ConfigError::ZeroRanks);
        }
        self.maintenance.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_5() {
        let c = IndexConfig::paper_default();
        assert_eq!(c.nlist, 16384);
        assert_eq!(c.nprobe, 96);
        assert_eq!(c.m, 16);
        assert_eq!(c.cb, 256);
        assert_eq!(c.k, 10);
    }

    #[test]
    fn mean_cluster_size_is_n_over_nlist() {
        let c = IndexConfig::paper_default();
        assert!((c.mean_cluster_size(100_000_000) - 6103.5).abs() < 0.1);
    }

    #[test]
    fn drim_config_enables_everything() {
        let cfg = EngineConfig::drim(IndexConfig::paper_default());
        assert!(cfg.sqt && cfg.wram_buffers && cfg.partition && cfg.duplication);
        assert_eq!(cfg.allocation, AllocPolicy::HeatBalanced);
        assert_eq!(cfg.scheduling, SchedPolicy::Greedy);
        assert_eq!(cfg.lock_policy, LockPolicy::Forwarding);
    }

    #[test]
    fn naive_config_disables_everything() {
        let cfg = EngineConfig::naive(IndexConfig::paper_default());
        assert!(!cfg.sqt && !cfg.wram_buffers && !cfg.partition && !cfg.duplication);
        assert_eq!(cfg.allocation, AllocPolicy::RoundRobin);
        assert_eq!(cfg.scheduling, SchedPolicy::Static);
    }

    #[test]
    fn bits_bytes() {
        assert_eq!(DataBits::B8.bytes(), 1);
        assert_eq!(DataBits::B16.bytes(), 2);
    }

    #[test]
    fn validate_accepts_presets() {
        EngineConfig::drim(IndexConfig::paper_default())
            .validate()
            .unwrap();
        EngineConfig::naive(IndexConfig::paper_default())
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_rejects_misconfiguration() {
        let base = IndexConfig::paper_default();
        let with = |f: &dyn Fn(&mut EngineConfig)| {
            let mut c = EngineConfig::drim(base);
            f(&mut c);
            c.validate()
        };
        assert_eq!(with(&|c| c.index.k = 0), Err(ConfigError::ZeroK));
        assert_eq!(with(&|c| c.index.nlist = 0), Err(ConfigError::ZeroNlist));
        assert_eq!(with(&|c| c.index.m = 0), Err(ConfigError::ZeroM));
        assert_eq!(
            with(&|c| c.index.nprobe = c.index.nlist + 1),
            Err(ConfigError::BadNprobe {
                nprobe: base.nlist + 1,
                nlist: base.nlist
            })
        );
        assert_eq!(with(&|c| c.index.cb = 1), Err(ConfigError::BadCb(1)));
        assert_eq!(
            with(&|c| c.index.cb = 1 << 17),
            Err(ConfigError::BadCb(1 << 17))
        );
        assert_eq!(with(&|c| c.batch = 0), Err(ConfigError::ZeroBatch));
        assert_eq!(with(&|c| c.tasklets = 0), Err(ConfigError::ZeroTasklets));
        assert!(matches!(
            with(&|c| c.th3 = -0.5),
            Err(ConfigError::BadTh3(_))
        ));
        assert_eq!(with(&|c| c.sqt_window = 0), Err(ConfigError::ZeroSqtWindow));
        assert_eq!(with(&|c| c.ranks = Some(0)), Err(ConfigError::ZeroRanks));
        assert!(with(&|c| c.ranks = Some(4)).is_ok());
        assert_eq!(
            with(&|c| c.maintenance.compact_tombstone_frac = 0.0),
            Err(ConfigError::BadMaintenance("compact_tombstone_frac"))
        );
        assert_eq!(
            with(&|c| c.maintenance.compact_tombstone_frac = 1.5),
            Err(ConfigError::BadMaintenance("compact_tombstone_frac"))
        );
        assert_eq!(
            with(&|c| c.maintenance.overgrown_factor = 0.5),
            Err(ConfigError::BadMaintenance("overgrown_factor"))
        );
        assert!(with(&|c| c.maintenance.max_migrations = 0).is_ok());
    }

    #[test]
    fn config_errors_render() {
        let e = ConfigError::BadNprobe {
            nprobe: 5,
            nlist: 4,
        };
        assert!(e.to_string().contains("nprobe 5"));
        let f: ConfigError = upmem_sim::fault::FaultConfigError::BadRate.into();
        assert!(f.to_string().contains("fault"));
    }
}
