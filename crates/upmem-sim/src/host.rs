//! Host <-> PIM data transfer model.
//!
//! Host-DPU traffic crosses the ordinary DDR4 bus and, because UPMEM DIMMs
//! are not interleaved like normal memory, achieves no more than ~0.75 % of
//! the aggregate in-PIM bandwidth (paper Section 2.2, citing the PrIM study).
//! Transfers also require all target DPUs to be synchronised (they cannot be
//! reached while a kernel runs), which is why DRIM-ANN batches queries and
//! triggers all DPUs synchronously.

use crate::config::PimArch;

/// The host link with its sustained bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct HostLink {
    /// Sustained host<->PIM bandwidth in bytes/second (aggregate over all
    /// ranks; parallel per-DPU transfers share it).
    pub bw_bytes_per_sec: f64,
    /// Fixed software latency per transfer call (driver + rank sync),
    /// seconds.
    pub call_latency_s: f64,
}

impl HostLink {
    /// Link derived from an architecture description.
    pub fn for_arch(arch: &PimArch) -> Self {
        HostLink {
            bw_bytes_per_sec: arch.host_link_bw(),
            call_latency_s: 20.0e-6,
        }
    }

    /// Time for one scatter/gather call moving `total_bytes` in aggregate
    /// across all target DPUs (callers tally exact totals — the engine's
    /// push/gather byte counts — so no bytes are lost to a per-DPU mean).
    pub fn time_total(&self, total_bytes: u64) -> f64 {
        self.call_latency_s + total_bytes as f64 / self.bw_bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_is_fraction_of_pim_bandwidth() {
        let arch = PimArch::upmem_sc25();
        let link = HostLink::for_arch(&arch);
        let frac = link.bw_bytes_per_sec / arch.total_bandwidth();
        assert!((frac - arch.host_link_fraction).abs() < 1e-12);
    }

    #[test]
    fn call_latency_floors_small_transfers() {
        let link = HostLink {
            bw_bytes_per_sec: 1e9,
            call_latency_s: 1e-3,
        };
        let t = link.time_total(1);
        assert!(t >= 1e-3);
    }
}
