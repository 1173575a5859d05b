//! WRAM buffer planning: which data classes live in the 64 KiB scratchpad.
//!
//! "As the capacity of WRAM buffer is only 0.1 % of PIM memory, only a few
//! data can be placed on it. To make the best use of it, we estimate the
//! access times of each kind of data ... by the coefficient of I/O in
//! Equation 1-11. The heat of each kind of data is represented as the
//! average access times per bit, and the hottest data are placed on WRAM"
//! (paper Section 3.2). This module is that greedy knapsack.

use crate::perf_model::WorkloadShape;
use crate::sqt::Sqt;

/// A candidate data class for WRAM residency.
#[derive(Debug, Clone, PartialEq)]
pub struct WramCandidate {
    /// Class name (`"sqt"`, `"lut"`, `"codebook"`, ...).
    pub name: &'static str,
    /// Bytes the class occupies per DPU.
    pub bytes: u64,
    /// Expected accesses per batch per DPU (from the I/O model).
    pub accesses: f64,
}

impl WramCandidate {
    /// Heat = accesses per byte — the greedy key.
    pub fn heat(&self) -> f64 {
        if self.bytes == 0 {
            f64::INFINITY
        } else {
            self.accesses / self.bytes as f64
        }
    }
}

/// The outcome: which classes won WRAM residency.
#[derive(Debug, Clone, Default)]
pub struct WramPlacement {
    resident: std::collections::BTreeMap<&'static str, u64>,
    /// Bytes left unallocated.
    pub free_bytes: u64,
}

impl WramPlacement {
    /// Whether the named class is WRAM-resident.
    pub fn is_resident(&self, name: &str) -> bool {
        self.resident.contains_key(name)
    }

    /// Bytes held by the named class (0 if not resident).
    pub fn bytes(&self, name: &str) -> u64 {
        self.resident.get(name).copied().unwrap_or(0)
    }

    /// Total resident bytes.
    pub fn used(&self) -> u64 {
        self.resident.values().sum()
    }

    /// Nothing resident (the Fig. 12b "without WRAM" baseline).
    pub fn none() -> Self {
        WramPlacement::default()
    }
}

/// Greedy placement: hottest class (accesses/byte) first, while it fits.
///
/// `capacity` should already exclude tasklet stacks and kernel locals.
pub fn plan(candidates: &[WramCandidate], capacity: u64) -> WramPlacement {
    let mut order: Vec<&WramCandidate> = candidates.iter().collect();
    order.sort_by(|a, b| b.heat().partial_cmp(&a.heat()).unwrap());
    let mut placement = WramPlacement::default();
    let mut free = capacity;
    for c in order {
        if c.bytes <= free {
            free -= c.bytes;
            placement.resident.insert(c.name, c.bytes);
        }
    }
    placement.free_bytes = free;
    placement
}

/// The standard candidate list for a DRIM-ANN DPU, with access counts from
/// the performance model's I/O coefficients (per batch, per DPU).
///
/// `sqt_bytes` comes from [`crate::sqt::Sqt::wram_bytes`];
/// `local_clusters` is how many clusters the DPU hosts (for centroid
/// metadata); `ndpus` normalizes the global model counts to one DPU.
pub fn standard_candidates(
    shape: &WorkloadShape,
    sqt_bytes: u64,
    local_clusters: usize,
    ndpus: usize,
) -> Vec<WramCandidate> {
    let per_dpu = 1.0 / ndpus.max(1) as f64;
    let dsub = (shape.d / shape.m).ceil().max(1.0);
    vec![
        // SQT: hit once per multiply-replaced element op in LC
        WramCandidate {
            name: "sqt",
            bytes: sqt_bytes,
            accesses: shape.q * shape.p * shape.cb * shape.d * per_dpu,
        },
        // distance LUT: one gather per (point, subquantizer) in DC, plus
        // CB x M writes in LC
        WramCandidate {
            name: "lut",
            bytes: (shape.m * shape.cb * shape.bits.b_l) as u64,
            accesses: (shape.q * shape.p * (shape.c * shape.m + shape.cb * shape.m)) * per_dpu,
        },
        // PQ codebooks: streamed once per (query, cluster) in LC
        WramCandidate {
            name: "codebook",
            bytes: (shape.m * shape.cb * dsub * shape.bits.b_cb) as u64,
            accesses: shape.q * shape.p * shape.cb * shape.d * per_dpu,
        },
        // residual vector: read per codebook entry in LC
        WramCandidate {
            name: "residual",
            bytes: (shape.d * shape.bits.b_q) as u64,
            accesses: shape.q * shape.p * shape.cb * shape.d * per_dpu,
        },
        // top-k queue: log K updates per candidate in TS
        WramCandidate {
            name: "topk",
            bytes: (shape.k * (shape.bits.b_l + shape.bits.b_a)) as u64,
            accesses: shape.q * shape.p * shape.c * shape.k.log2().max(1.0) * per_dpu,
        },
        // slice metadata: one lookup per scheduled task
        WramCandidate {
            name: "slice_meta",
            bytes: local_clusters as u64 * crate::layout::partition::SLICE_META_BYTES,
            accesses: shape.q * shape.p * per_dpu,
        },
    ]
}

/// The WRAM plan of one DPU under `cfg` on `arch`: the greedy [`plan`] over
/// the [`standard_candidates`], with the configured SQT window and 1 KiB of
/// stack per tasklet held back — or nothing resident with buffers off.
pub fn plan_for(
    cfg: &crate::config::EngineConfig,
    arch: &upmem_sim::PimArch,
    shape: &WorkloadShape,
    local_clusters: usize,
    ndpus: usize,
) -> WramPlacement {
    if !cfg.wram_buffers {
        return WramPlacement::none();
    }
    let sqt_bytes = Sqt::for_bits_windowed(cfg.bits, cfg.sqt_window).wram_bytes();
    let capacity = arch.wram_bytes.saturating_sub(cfg.tasklets as u64 * 1024);
    plan(
        &standard_candidates(shape, sqt_bytes, local_clusters, ndpus),
        capacity,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::perf_model::BitWidths;

    fn shape() -> WorkloadShape {
        WorkloadShape::new(
            1_000_000,
            256,
            128,
            &IndexConfig {
                k: 10,
                nprobe: 32,
                nlist: 1024,
                m: 16,
                cb: 256,
            },
            BitWidths::u8_regime(),
        )
    }

    #[test]
    fn greedy_prefers_hotter_classes() {
        let cands = vec![
            WramCandidate {
                name: "hot",
                bytes: 100,
                accesses: 1e9,
            },
            WramCandidate {
                name: "cold",
                bytes: 100,
                accesses: 1.0,
            },
        ];
        let p = plan(&cands, 100);
        assert!(p.is_resident("hot"));
        assert!(!p.is_resident("cold"));
        assert_eq!(p.free_bytes, 0);
    }

    #[test]
    fn skips_too_large_but_fills_smaller() {
        let cands = vec![
            WramCandidate {
                name: "huge_hot",
                bytes: 1000,
                accesses: 1e9,
            },
            WramCandidate {
                name: "small_warm",
                bytes: 50,
                accesses: 1e3,
            },
        ];
        let p = plan(&cands, 100);
        assert!(!p.is_resident("huge_hot"));
        assert!(p.is_resident("small_warm"));
        assert_eq!(p.used(), 50);
    }

    #[test]
    fn standard_candidates_fit_typical_wram() {
        let cands = standard_candidates(&shape(), 1024, 64, 64);
        let p = plan(&cands, 48 << 10); // 64 KiB minus tasklet stacks
                                        // the paper's hot set: SQT, LUT, residual and top-k all make it
        for name in ["sqt", "lut", "residual", "topk"] {
            assert!(p.is_resident(name), "{name} should be WRAM-resident");
        }
    }

    #[test]
    fn sqt_and_residual_are_hottest_per_byte() {
        let cands = standard_candidates(&shape(), 1024, 64, 64);
        let by_name = |n: &str| cands.iter().find(|c| c.name == n).unwrap().heat();
        assert!(by_name("sqt") > by_name("codebook"));
        assert!(by_name("residual") > by_name("codebook"));
    }

    #[test]
    fn none_placement_has_no_residents() {
        let p = WramPlacement::none();
        assert!(!p.is_resident("sqt"));
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn zero_byte_candidate_is_free_to_place() {
        let cands = vec![WramCandidate {
            name: "ghost",
            bytes: 0,
            accesses: 10.0,
        }];
        let p = plan(&cands, 10);
        assert!(p.is_resident("ghost"));
        assert_eq!(p.free_bytes, 10);
    }
}
