//! The tunable parameter space of the design-space exploration.

use crate::config::IndexConfig;

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
        };
        assert!(s.enumerate().is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn paper_space_is_substantial() {
        assert!(ParamSpace::paper_default().len() > 200);
    }
}
