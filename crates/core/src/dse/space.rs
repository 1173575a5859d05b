//! The tunable parameter space and objective of the design-space
//! exploration.

use crate::config::IndexConfig;

/// What the DSE maximizes among configurations meeting the recall
/// constraint. The paper optimizes latency alone (Eq. 14); the
/// energy-aware objectives reuse the same analytic model with the
/// phase-resolved energy estimate ([`crate::perf_model::Prediction`]),
/// reflecting the Fig. 10 finding that the PIM server's energy win comes
/// from *time*, not power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DseObjective {
    /// Maximize predicted queries per second (the paper's Eq. 14).
    #[default]
    Throughput,
    /// Maximize predicted queries per joule.
    QueriesPerJoule,
    /// Minimize the energy-delay product `E × t` (balances the two).
    EnergyDelayProduct,
}

/// Candidate values per index parameter. The cartesian product is the
/// search space; the paper notes that "when the design space is small, the
/// DSE process is similar to exhaustive search".
#[derive(Debug, Clone)]
pub struct ParamSpace {
    /// Result count `K` (usually pinned by the application).
    pub k: Vec<usize>,
    /// Probed clusters `P`.
    pub nprobe: Vec<usize>,
    /// Coarse cluster counts (controls `C = N / nlist`).
    pub nlist: Vec<usize>,
    /// Sub-quantizer counts `M`.
    pub m: Vec<usize>,
    /// Codebook sizes `CB` (Faiss caps at 256; DRIM-ANN explores beyond).
    pub cb: Vec<usize>,
    /// Candidate 16-bit SQT WRAM windows (table entries). Orthogonal to
    /// recall and to the analytic phase charges, so it is *not* one of the
    /// scanned axes; instead the DSE co-optimizes it with the buffer
    /// planner after the index search (`crate::wram::choose_sqt_window`)
    /// and reports the pick in `DseResult::best_sqt_window`. Must not be
    /// empty.
    pub sqt_window: Vec<usize>,
    /// The optimization objective among feasible configurations.
    pub objective: DseObjective,
}

impl ParamSpace {
    /// The space the paper's evaluation sweeps: nprobe 32–128,
    /// nlist 2^13–2^16, plus the M/CB freedoms DRIM-ANN adds.
    pub fn paper_default() -> Self {
        ParamSpace {
            k: vec![10],
            nprobe: vec![16, 32, 48, 64, 96, 128],
            nlist: vec![1 << 13, 1 << 14, 1 << 15, 1 << 16],
            m: vec![8, 16, 32],
            cb: vec![128, 256, 512, 1024],
            // 4 KiB up to the 32 KiB half-scratchpad default; oversized
            // candidates are rejected by the planner, never placed
            sqt_window: vec![1 << 10, 2 << 10, 4 << 10, 8 << 10],
            objective: DseObjective::Throughput,
        }
    }

    /// A tiny space for tests/examples.
    pub fn small() -> Self {
        ParamSpace {
            k: vec![10],
            nprobe: vec![4, 8, 16],
            nlist: vec![64, 128],
            m: vec![4, 8],
            cb: vec![16, 32],
            sqt_window: vec![crate::sqt::DEFAULT_U16_WINDOW],
            objective: DseObjective::Throughput,
        }
    }

    /// Enumerate the full cartesian product.
    pub fn enumerate(&self) -> Vec<IndexConfig> {
        let mut out = Vec::new();
        for &k in &self.k {
            for &nprobe in &self.nprobe {
                for &nlist in &self.nlist {
                    if nprobe > nlist {
                        continue;
                    }
                    for &m in &self.m {
                        for &cb in &self.cb {
                            out.push(IndexConfig {
                                k,
                                nprobe,
                                nlist,
                                m,
                                cb,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Size of the space (valid combinations).
    pub fn len(&self) -> usize {
        self.enumerate().len()
    }

    /// True when no combination is valid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_counts_cartesian_product() {
        let s = ParamSpace::small();
        // 1 x 3 x 2 x 2 x 2 = 24 (no nprobe > nlist cases here)
        assert_eq!(s.enumerate().len(), 24);
        assert_eq!(s.len(), 24);
        assert!(!s.is_empty());
    }

    #[test]
    fn nprobe_larger_than_nlist_excluded() {
        let s = ParamSpace {
            k: vec![1],
            nprobe: vec![100],
            nlist: vec![50],
            m: vec![4],
            cb: vec![16],
            sqt_window: vec![crate::sqt::DEFAULT_U16_WINDOW],
            objective: DseObjective::Throughput,
        };
        assert!(s.enumerate().is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn paper_space_is_substantial() {
        assert!(ParamSpace::paper_default().len() > 200);
    }
}
