//! Deterministic, seeded fault injection for the simulated PIM system.
//!
//! Three fault classes, mirroring what DIMM-scale deployments actually see:
//!
//! * **Fail-stop** — a DPU is permanently dead. The set is drawn once from
//!   the seed (a function of the DPU id only), modeling devices that a
//!   driver-side health scan finds dead at allocation time or that die and
//!   stay dead.
//! * **Straggler** — a DPU completes a batch, but slower by a factor drawn
//!   from a configurable [`SlowdownDist`] (thermal throttling, refresh
//!   interference, a slow rank). Transient: redrawn per `(batch, attempt)`.
//! * **Corruption** — a DPU's gathered results arrive damaged; detectable
//!   because every result block carries a [`result_checksum`]. Transient,
//!   redrawn per `(batch, attempt)`.
//! * **Rank fail-stop** — a whole rank (DIMM) of
//!   [`FaultConfig::dpus_per_rank`] consecutive DPUs dies at once, from
//!   batch [`FaultConfig::rank_kill_from_batch`] onward (a mid-run DIMM
//!   loss). The dead-rank set is drawn once from the seed as a function of
//!   the rank id only, so a killed rank stays dead for the rest of the run.
//!
//! **Determinism contract.** Every draw is a pure stateless hash of
//! `(seed, salt, dpu, batch, attempt)` — there is no shared RNG stream, so
//! outcomes do not depend on host thread count, dispatch order, or how many
//! draws other DPUs made. The same seed replays the same fault pattern,
//! bit-for-bit, at any parallelism. `FaultConfig::none()` (all rates zero)
//! yields `Healthy` everywhere and zero masks, making a wired-but-idle
//! injector indistinguishable from no injector at all.

/// Distribution of straggler slowdown factors (all factors are >= 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlowdownDist {
    /// Uniform in `[min, max]`.
    Uniform {
        /// Smallest slowdown factor (>= 1).
        min: f64,
        /// Largest slowdown factor (>= min).
        max: f64,
    },
    /// Bounded Pareto: heavy-tailed slowdowns (`scale` is the minimum,
    /// `alpha` the tail exponent), clipped at `cap` — the empirical shape
    /// of timeout-class stragglers.
    Pareto {
        /// Minimum slowdown factor (>= 1).
        scale: f64,
        /// Tail exponent (> 0); smaller = heavier tail.
        alpha: f64,
        /// Upper clip on the factor (>= scale).
        cap: f64,
    },
}

impl SlowdownDist {
    /// Map a uniform variate `u` in `[0,1)` to a slowdown factor.
    pub fn factor(&self, u: f64) -> f64 {
        match *self {
            SlowdownDist::Uniform { min, max } => min + u * (max - min),
            SlowdownDist::Pareto { scale, alpha, cap } => {
                // inverse CDF of Pareto(scale, alpha), clipped
                let x = scale / (1.0 - u).powf(1.0 / alpha);
                x.min(cap)
            }
        }
    }

    /// Validity check used by [`FaultConfig::validate`].
    fn validate(&self) -> Result<(), FaultConfigError> {
        let ok = match *self {
            SlowdownDist::Uniform { min, max } => min >= 1.0 && max >= min && max.is_finite(),
            SlowdownDist::Pareto { scale, alpha, cap } => {
                scale >= 1.0 && alpha > 0.0 && cap >= scale && cap.is_finite()
            }
        };
        if ok {
            Ok(())
        } else {
            Err(FaultConfigError::BadSlowdown)
        }
    }
}

impl Default for SlowdownDist {
    fn default() -> Self {
        SlowdownDist::Uniform { min: 1.5, max: 3.0 }
    }
}

/// Seeded fault-injection configuration. All rates are per-DPU
/// probabilities (fail-stop: once per DPU; straggler/corruption: per
/// dispatch wave).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Root seed of every draw.
    pub seed: u64,
    /// Probability a DPU is permanently dead.
    pub fail_stop_rate: f64,
    /// Per-wave probability a DPU straggles.
    pub straggler_rate: f64,
    /// Straggler slowdown distribution.
    pub slowdown: SlowdownDist,
    /// Per-wave probability a DPU's gathered results are corrupted.
    pub corruption_rate: f64,
    /// Probability a whole rank fail-stops. Requires a rank topology
    /// (`dpus_per_rank >= 1`) when nonzero.
    pub rank_fail_stop_rate: f64,
    /// Rank topology: DPU `d` belongs to rank `d / dpus_per_rank`.
    /// `0` means "no rank topology" (valid only while
    /// `rank_fail_stop_rate` is zero).
    pub dpus_per_rank: usize,
    /// Batch index from which drawn rank deaths take effect — the
    /// "mid-run" knob. `0` kills them from the start.
    pub rank_kill_from_batch: u64,
}

/// Rejected fault configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultConfigError {
    /// A rate is outside `[0, 1]` or not finite.
    BadRate,
    /// The slowdown distribution is malformed (factors must be >= 1).
    BadSlowdown,
    /// `rank_fail_stop_rate` is nonzero but no rank topology was given
    /// (`dpus_per_rank` is 0).
    MissingRankTopology,
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultConfigError::BadRate => write!(f, "fault rates must lie in [0, 1]"),
            FaultConfigError::BadSlowdown => {
                write!(f, "slowdown distribution must produce factors >= 1")
            }
            FaultConfigError::MissingRankTopology => {
                write!(
                    f,
                    "rank_fail_stop_rate requires dpus_per_rank >= 1 (a rank topology)"
                )
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

impl FaultConfig {
    /// All rates zero: a present-but-inert injector.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            fail_stop_rate: 0.0,
            straggler_rate: 0.0,
            slowdown: SlowdownDist::default(),
            corruption_rate: 0.0,
            rank_fail_stop_rate: 0.0,
            dpus_per_rank: 0,
            rank_kill_from_batch: 0,
        }
    }

    /// Every fault class at `rate` with the default slowdown distribution.
    /// Rank faults stay off.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            fail_stop_rate: rate,
            straggler_rate: rate,
            slowdown: SlowdownDist::default(),
            corruption_rate: rate,
            ..FaultConfig::none()
        }
    }

    /// Rank-failure-only configuration over a `dpus_per_rank` topology:
    /// each rank dies with probability `rate`, from `from_batch` onward.
    pub fn rank_kill(seed: u64, rate: f64, dpus_per_rank: usize, from_batch: u64) -> Self {
        FaultConfig {
            seed,
            rank_fail_stop_rate: rate,
            dpus_per_rank,
            rank_kill_from_batch: from_batch,
            ..FaultConfig::none()
        }
    }

    /// Check rates, the slowdown distribution, and the rank topology.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        for r in [
            self.fail_stop_rate,
            self.straggler_rate,
            self.corruption_rate,
            self.rank_fail_stop_rate,
        ] {
            if !(0.0..=1.0).contains(&r) || !r.is_finite() {
                return Err(FaultConfigError::BadRate);
            }
        }
        if self.rank_fail_stop_rate > 0.0 && self.dpus_per_rank == 0 {
            return Err(FaultConfigError::MissingRankTopology);
        }
        self.slowdown.validate()
    }
}

/// Outcome of dispatching one wave of work to one DPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultOutcome {
    /// Normal completion.
    Healthy,
    /// The DPU is dead: nothing executes, nothing returns.
    FailStop,
    /// The DPU completes, slower by the carried factor.
    Straggler(f64),
    /// The DPU completes but its gathered results fail the checksum.
    Corrupt,
}

const SALT_FAIL_STOP: u64 = 0xFA11_5707;
const SALT_RANK_FAIL_STOP: u64 = 0xDEAD_D133;
const SALT_STRAGGLER: u64 = 0x57A6_6153;
const SALT_SLOWDOWN: u64 = 0x510E_D0E1;
const SALT_CORRUPT: u64 = 0xC0EE_0B71;

// The stateless mixing primitive behind every draw lived here privately
// until the workspace grew a second and third consumer; it is now the
// shared `ann_core::hash::mix64` (bit-identical, pinned by tests there).
use ann_core::hash::mix64 as mix;

/// Fold a stream of words into a detection checksum (order-sensitive, so
/// reordered or damaged result blocks change it).
pub fn result_checksum(words: impl IntoIterator<Item = u64>) -> u64 {
    ann_core::hash::hash_words(0x5EED_C8EC_5EED_C8EC, words)
}

/// The injector: pure functions from `(dpu, batch, attempt)` to outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    cfg: FaultConfig,
}

impl FaultInjector {
    /// Wrap a validated configuration.
    pub fn new(cfg: FaultConfig) -> Result<Self, FaultConfigError> {
        cfg.validate()?;
        Ok(FaultInjector { cfg })
    }

    /// The configuration in force.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True when every rate is zero (injector wired but inert).
    pub fn is_inert(&self) -> bool {
        self.cfg.fail_stop_rate == 0.0
            && self.cfg.straggler_rate == 0.0
            && self.cfg.corruption_rate == 0.0
            && self.cfg.rank_fail_stop_rate == 0.0
    }

    fn unit(&self, salt: u64, dpu: u64, batch: u64, attempt: u64) -> f64 {
        let z = mix(self.cfg.seed ^ mix(salt ^ mix(dpu ^ mix(batch ^ mix(attempt)))));
        // 53 high bits -> uniform in [0, 1)
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Is DPU `dpu` permanently dead? A function of the seed and id only.
    pub fn is_fail_stop(&self, dpu: usize) -> bool {
        self.cfg.fail_stop_rate > 0.0
            && self.unit(SALT_FAIL_STOP, dpu as u64, 0, 0) < self.cfg.fail_stop_rate
    }

    /// The rank a DPU belongs to, or `None` without a rank topology.
    pub fn rank_of(&self, dpu: usize) -> Option<usize> {
        (self.cfg.dpus_per_rank > 0).then(|| dpu / self.cfg.dpus_per_rank)
    }

    /// Is `rank` fail-stopped as of batch `batch`? The dead-rank set is a
    /// static draw (function of the seed and rank id only); `batch` decides
    /// whether the mid-run kill has happened yet.
    pub fn is_rank_fail_stop(&self, rank: usize, batch: u64) -> bool {
        self.cfg.rank_fail_stop_rate > 0.0
            && batch >= self.cfg.rank_kill_from_batch
            && self.unit(SALT_RANK_FAIL_STOP, rank as u64, 0, 0) < self.cfg.rank_fail_stop_rate
    }

    /// Is `dpu` dead at batch `batch` — either individually fail-stopped or
    /// resident on a rank that has been killed by then?
    pub fn is_fail_stop_at(&self, dpu: usize, batch: u64) -> bool {
        self.is_fail_stop(dpu)
            || self
                .rank_of(dpu)
                .is_some_and(|r| self.is_rank_fail_stop(r, batch))
    }

    /// Dead ranks as of batch `batch` over a fleet of `ndpus` DPUs.
    pub fn dead_ranks_at(&self, ndpus: usize, batch: u64) -> usize {
        if self.cfg.dpus_per_rank == 0 {
            return 0;
        }
        let ranks = ndpus.div_ceil(self.cfg.dpus_per_rank);
        (0..ranks)
            .filter(|&r| self.is_rank_fail_stop(r, batch))
            .count()
    }

    /// Outcome of dispatching to `dpu` in wave `attempt` of batch `batch`.
    /// At most one fault fires per dispatch; fail-stop (per-DPU or rank)
    /// dominates.
    pub fn outcome(&self, dpu: usize, batch: u64, attempt: u32) -> FaultOutcome {
        if self.is_fail_stop_at(dpu, batch) {
            return FaultOutcome::FailStop;
        }
        let (d, b, a) = (dpu as u64, batch, attempt as u64);
        if self.cfg.straggler_rate > 0.0
            && self.unit(SALT_STRAGGLER, d, b, a) < self.cfg.straggler_rate
        {
            let u = self.unit(SALT_SLOWDOWN, d, b, a);
            return FaultOutcome::Straggler(self.cfg.slowdown.factor(u));
        }
        if self.cfg.corruption_rate > 0.0
            && self.unit(SALT_CORRUPT, d, b, a) < self.cfg.corruption_rate
        {
            return FaultOutcome::Corrupt;
        }
        FaultOutcome::Healthy
    }

    /// XOR mask the "link" applies to the transmitted checksum of this
    /// dispatch: nonzero exactly when the outcome is [`FaultOutcome::Corrupt`],
    /// so recomputing the checksum over the gathered payload exposes the
    /// damage.
    pub fn corrupt_mask(&self, dpu: usize, batch: u64, attempt: u32) -> u64 {
        match self.outcome(dpu, batch, attempt) {
            FaultOutcome::Corrupt => {
                mix(self.cfg.seed ^ SALT_CORRUPT ^ mix(dpu as u64 ^ batch ^ attempt as u64)) | 1
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(rate: f64) -> FaultInjector {
        FaultInjector::new(FaultConfig::uniform(0xDEAD, rate)).unwrap()
    }

    #[test]
    fn draws_are_deterministic_and_stateless() {
        let a = injector(0.3);
        let b = injector(0.3);
        for dpu in 0..64 {
            for batch in 0..4 {
                assert_eq!(a.outcome(dpu, batch, 0), b.outcome(dpu, batch, 0));
                assert_eq!(a.outcome(dpu, batch, 1), b.outcome(dpu, batch, 1));
            }
        }
        // querying in any order gives the same answers (no hidden stream)
        let forward: Vec<_> = (0..32).map(|d| a.outcome(d, 7, 0)).collect();
        let backward: Vec<_> = (0..32).rev().map(|d| a.outcome(d, 7, 0)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn zero_rates_are_inert() {
        let inj = FaultInjector::new(FaultConfig::none()).unwrap();
        assert!(inj.is_inert());
        for dpu in 0..256 {
            assert_eq!(inj.outcome(dpu, 3, 0), FaultOutcome::Healthy);
            assert_eq!(inj.corrupt_mask(dpu, 3, 0), 0);
            assert!(!inj.is_fail_stop(dpu));
        }
    }

    #[test]
    fn fail_stop_set_is_static_and_rate_matched() {
        let inj = injector(0.05);
        let dead: Vec<usize> = (0..10_000).filter(|&d| inj.is_fail_stop(d)).collect();
        let frac = dead.len() as f64 / 10_000.0;
        assert!((0.03..0.07).contains(&frac), "fail-stop fraction {frac}");
        // dead stays dead regardless of batch/attempt
        for &d in dead.iter().take(16) {
            assert_eq!(inj.outcome(d, 9, 3), FaultOutcome::FailStop);
        }
    }

    #[test]
    fn transient_faults_vary_with_batch_and_attempt() {
        let inj = injector(0.25);
        let per_batch: Vec<_> = (0..64).map(|b| inj.outcome(3, b, 0)).collect();
        let distinct: std::collections::HashSet<_> =
            per_batch.iter().map(|o| format!("{o:?}")).collect();
        assert!(distinct.len() > 1, "outcomes must vary across batches");
    }

    #[test]
    fn straggler_factors_respect_distribution() {
        let mut cfg = FaultConfig::uniform(7, 0.0);
        cfg.straggler_rate = 1.0;
        cfg.slowdown = SlowdownDist::Uniform { min: 2.0, max: 4.0 };
        let inj = FaultInjector::new(cfg).unwrap();
        for d in 0..256 {
            match inj.outcome(d, 0, 0) {
                FaultOutcome::Straggler(f) => assert!((2.0..=4.0).contains(&f), "factor {f}"),
                o => panic!("expected straggler, got {o:?}"),
            }
        }
        let mut cfg = FaultConfig::uniform(7, 0.0);
        cfg.straggler_rate = 1.0;
        cfg.slowdown = SlowdownDist::Pareto {
            scale: 1.5,
            alpha: 1.2,
            cap: 16.0,
        };
        let inj = FaultInjector::new(cfg).unwrap();
        let mut maxed = 0;
        for d in 0..4096 {
            match inj.outcome(d, 0, 0) {
                FaultOutcome::Straggler(f) => {
                    assert!((1.5..=16.0).contains(&f), "factor {f}");
                    if f > 8.0 {
                        maxed += 1;
                    }
                }
                o => panic!("expected straggler, got {o:?}"),
            }
        }
        assert!(maxed > 0, "Pareto tail should reach past 8x");
    }

    #[test]
    fn corruption_is_detectable_via_checksum() {
        let mut cfg = FaultConfig::uniform(11, 0.0);
        cfg.corruption_rate = 1.0;
        let inj = FaultInjector::new(cfg).unwrap();
        let payload = [1u64, 2, 3, 4];
        let local = result_checksum(payload);
        let wire = local ^ inj.corrupt_mask(5, 2, 0);
        assert_ne!(wire, local, "corruption must flip the checksum");
        // a healthy dispatch leaves the checksum intact
        let healthy = FaultInjector::new(FaultConfig::none()).unwrap();
        assert_eq!(local ^ healthy.corrupt_mask(5, 2, 0), local);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(result_checksum([1u64, 2, 3]), result_checksum([3u64, 2, 1]),);
        assert_eq!(result_checksum([]), result_checksum([]));
    }

    #[test]
    fn rank_kill_takes_whole_ranks_from_its_batch() {
        // 16 DPUs in 4 ranks; high rate so some rank dies for this seed
        let inj = FaultInjector::new(FaultConfig::rank_kill(0xD1, 0.5, 4, 3)).unwrap();
        assert!(!inj.is_inert());
        let dead_ranks: Vec<usize> = (0..4).filter(|&r| inj.is_rank_fail_stop(r, 3)).collect();
        assert!(!dead_ranks.is_empty(), "50% over 4 ranks should kill one");
        assert!(dead_ranks.len() < 4, "and should not kill all of them");
        assert_eq!(inj.dead_ranks_at(16, 3), dead_ranks.len());
        // before the kill batch, nothing is dead
        for d in 0..16 {
            assert!(!inj.is_fail_stop_at(d, 2), "dpu {d} dead before the kill");
            assert_eq!(inj.outcome(d, 2, 0), FaultOutcome::Healthy);
        }
        assert_eq!(inj.dead_ranks_at(16, 2), 0);
        // from the kill batch on, every DPU of a dead rank is dead together
        for d in 0..16 {
            let rank_dead = dead_ranks.contains(&(d / 4));
            assert_eq!(inj.is_fail_stop_at(d, 3), rank_dead);
            assert_eq!(inj.is_fail_stop_at(d, 99), rank_dead, "dead stays dead");
            if rank_dead {
                assert_eq!(inj.outcome(d, 7, 1), FaultOutcome::FailStop);
            }
            // the per-DPU draw is untouched by rank faults
            assert!(!inj.is_fail_stop(d));
        }
        assert_eq!(inj.rank_of(7), Some(1));
        let no_topo = FaultInjector::new(FaultConfig::none()).unwrap();
        assert_eq!(no_topo.rank_of(7), None);
        assert_eq!(no_topo.dead_ranks_at(16, 9), 0);
    }

    #[test]
    fn zero_rank_rate_leaves_dpu_draws_bit_identical() {
        // attaching a rank topology without a rank rate must not change any
        // outcome relative to the plain per-DPU configuration
        let plain = injector(0.3);
        let mut cfg = FaultConfig::uniform(0xDEAD, 0.3);
        cfg.dpus_per_rank = 8;
        let topo = FaultInjector::new(cfg).unwrap();
        for d in 0..64 {
            for b in 0..4 {
                assert_eq!(plain.outcome(d, b, 0), topo.outcome(d, b, 0));
                assert_eq!(plain.is_fail_stop_at(d, b), topo.is_fail_stop_at(d, b));
            }
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = FaultConfig::none();
        cfg.fail_stop_rate = 1.5;
        assert_eq!(cfg.validate(), Err(FaultConfigError::BadRate));
        let mut cfg = FaultConfig::none();
        cfg.corruption_rate = -0.1;
        assert_eq!(cfg.validate(), Err(FaultConfigError::BadRate));
        let mut cfg = FaultConfig::none();
        cfg.slowdown = SlowdownDist::Uniform { min: 0.5, max: 2.0 };
        assert_eq!(cfg.validate(), Err(FaultConfigError::BadSlowdown));
        let mut cfg = FaultConfig::none();
        cfg.slowdown = SlowdownDist::Pareto {
            scale: 2.0,
            alpha: 1.0,
            cap: 1.0,
        };
        assert!(FaultInjector::new(cfg).is_err());
    }
}
