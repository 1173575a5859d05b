//! Cluster heat profiling.
//!
//! "The heat of each cluster is estimated by the weighted sum of its size
//! and its heat profiled with random data distribution" (paper Section 3.2).
//! The probe frequency comes from running cluster-locating over a profiling
//! query sample; the size term covers the scan cost a probe incurs.

use super::ClusterInfo;

/// Probe counts per cluster from a profiling run.
#[derive(Debug, Clone, Default)]
pub struct HeatProfile {
    /// How many profiling queries probed each cluster.
    pub probes: Vec<u64>,
    /// Profiling queries observed.
    pub n_queries: u64,
}

impl HeatProfile {
    /// Accumulate one query's probed cluster set.
    pub fn record(&mut self, probed: &[u32]) {
        for &c in probed {
            let c = c as usize;
            if self.probes.len() <= c {
                self.probes.resize(c + 1, 0);
            }
            self.probes[c] += 1;
        }
        self.n_queries += 1;
    }

    /// Expected probes per query for cluster `c`.
    pub fn frequency(&self, c: usize) -> f64 {
        if self.n_queries == 0 {
            0.0
        } else {
            self.probes.get(c).copied().unwrap_or(0) as f64 / self.n_queries as f64
        }
    }
}

/// Combine sizes and profiled frequencies into cluster heat.
///
/// `heat_c = freq_c x points_c` — the expected points scanned in cluster `c`
/// per query. When no profile is available (cold start), frequencies default
/// to uniform `nprobe / nlist`, reducing heat to a pure size proxy.
pub fn cluster_heat(
    sizes: &[usize],
    profile: Option<&HeatProfile>,
    nprobe: usize,
) -> Vec<ClusterInfo> {
    let nlist = sizes.len().max(1);
    let uniform = nprobe as f64 / nlist as f64;
    sizes
        .iter()
        .enumerate()
        .map(|(c, &points)| {
            let freq = profile.map(|p| p.frequency(c)).unwrap_or(uniform);
            // guard: even never-probed clusters keep a small residual heat so
            // allocation still spreads their bytes sensibly
            let freq = freq.max(uniform * 0.01);
            ClusterInfo {
                id: c as u32,
                points,
                heat: freq * points.max(1) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(lists: &[&[u32]]) -> HeatProfile {
        let mut p = HeatProfile::default();
        lists.iter().for_each(|l| p.record(l));
        p
    }

    #[test]
    fn record_counts_probes() {
        let mut p = HeatProfile::default();
        p.record(&[0, 2]);
        p.record(&[2]);
        assert_eq!(p.probes, vec![1, 0, 2]);
        assert_eq!(p.n_queries, 2);
        assert_eq!(p.frequency(2), 1.0);
        assert_eq!(p.frequency(1), 0.0);
        assert_eq!(p.frequency(99), 0.0);
    }

    #[test]
    fn heat_reflects_both_size_and_frequency() {
        let sizes = vec![100, 100, 1000];
        let p = profile(&[&[0], &[0], &[2]]);
        let infos = cluster_heat(&sizes, Some(&p), 1);
        // cluster 0: freq 1.0 x 100; cluster 2: freq 0.5 x 1000
        assert!(infos[2].heat > infos[0].heat);
        assert!(infos[0].heat > infos[1].heat);
    }

    #[test]
    fn cold_start_is_size_proportional() {
        let sizes = vec![10, 20, 40];
        let infos = cluster_heat(&sizes, None, 2);
        assert!((infos[1].heat / infos[0].heat - 2.0).abs() < 1e-9);
        assert!((infos[2].heat / infos[0].heat - 4.0).abs() < 1e-9);
    }

    #[test]
    fn unprobed_clusters_keep_residual_heat() {
        let sizes = vec![50, 50];
        let p = profile(&[&[0]]);
        let infos = cluster_heat(&sizes, Some(&p), 1);
        assert!(infos[1].heat > 0.0);
        assert!(infos[0].heat > 10.0 * infos[1].heat);
    }
}
