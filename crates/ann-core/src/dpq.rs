//! DPQ-style codebook refinement.
//!
//! The paper lists DPQ (Klein & Wolf, CVPR 2019 — *end-to-end supervised
//! product quantization*) among the PQ variants DRIM-ANN supports. DPQ
//! proper learns codebooks with label supervision through soft (softmax)
//! codeword assignments. We have no labels in this reproduction, so we
//! keep DPQ's *mechanism* (soft assignments with an annealed temperature
//! refining the codebooks end-to-end against the reconstruction
//! objective) without the supervised loss. The result plugs
//! into the engine through the identical encode/LUT interface as PQ/OPQ,
//! which is all the paper's engine requires of the variant.

use crate::pq::{PqParams, ProductQuantizer};
use crate::vector::VecSet;

/// DPQ refinement parameters.
#[derive(Debug, Clone)]
pub struct DpqParams {
    /// Underlying PQ parameters (used for the warm start).
    pub pq: PqParams,
    /// Soft-assignment refinement epochs.
    pub epochs: usize,
    /// Initial softmax temperature (relative to the mean subspace distance).
    pub temperature: f32,
    /// Multiplicative temperature decay per epoch (anneals toward hard
    /// assignment).
    pub anneal: f32,
}

impl DpqParams {
    /// Defaults: 4 epochs, T = 0.5, x0.5 anneal.
    pub fn new(m: usize, cb: usize) -> Self {
        DpqParams {
            pq: PqParams::new(m, cb),
            epochs: 4,
            temperature: 0.5,
            anneal: 0.5,
        }
    }
}

/// A DPQ-refined product quantizer (same interface as [`ProductQuantizer`]).
#[derive(Debug, Clone)]
pub struct Dpq {
    /// The refined quantizer.
    pub pq: ProductQuantizer,
}

impl Dpq {
    /// Train: warm-start with k-means PQ, then refine codebooks with
    /// soft-assignment updates.
    pub fn train(data: &VecSet<f32>, params: &DpqParams) -> Self {
        let mut pq = ProductQuantizer::train(&data.clone(), &params.pq);
        let dsub = pq.dsub;
        let cb = pq.cb;
        let m = pq.m;
        let mut temp = params.temperature;

        for _ in 0..params.epochs {
            for s in 0..m {
                // Gather subvectors of this subspace (zero-padded).
                let start = s * dsub;
                let mut subs: Vec<f32> = Vec::with_capacity(data.len() * dsub);
                for v in data.iter() {
                    for d in 0..dsub {
                        subs.push(if start + d < v.len() {
                            v[start + d]
                        } else {
                            0.0
                        });
                    }
                }

                // Scale temperature by the mean nearest-codeword distance so
                // the softmax operates at a data-relevant scale.
                let cbk: Vec<f32> = pq.codebook(s).to_vec();
                let mean_d = mean_nearest_distance(&subs, &cbk, dsub).max(1e-9);
                let beta = 1.0 / (temp * mean_d);

                // Soft-assignment codeword update:
                // c_j = sum_i w_ij x_i / sum_i w_ij, w_ij = softmax(-beta d_ij)
                let mut num = vec![0.0f64; cb * dsub];
                let mut den = vec![0.0f64; cb];
                let mut w = vec![0.0f32; cb];
                for x in subs.chunks_exact(dsub) {
                    let mut min_d = f32::INFINITY;
                    for (j, c) in cbk.chunks_exact(dsub).enumerate() {
                        w[j] = crate::distance::l2_sq_f32(x, c);
                        min_d = min_d.min(w[j]);
                    }
                    let mut z = 0.0f32;
                    for wj in w.iter_mut() {
                        *wj = (-(beta * (*wj - min_d))).exp();
                        z += *wj;
                    }
                    for (j, &wj) in w.iter().enumerate() {
                        let p = (wj / z) as f64;
                        if p < 1e-8 {
                            continue;
                        }
                        den[j] += p;
                        let row = &mut num[j * dsub..(j + 1) * dsub];
                        for (dst, &xv) in row.iter_mut().zip(x.iter()) {
                            *dst += p * xv as f64;
                        }
                    }
                }
                pq.update_codebook(s, |out| {
                    for j in 0..cb {
                        if den[j] > 1e-6 {
                            for d in 0..dsub {
                                out[j * dsub + d] = (num[j * dsub + d] / den[j]) as f32;
                            }
                        }
                    }
                });
            }
            temp *= params.anneal;
        }

        Dpq { pq }
    }

    /// Mean squared reconstruction error.
    pub fn quantization_error(&self, data: &VecSet<f32>) -> f64 {
        self.pq.quantization_error(data)
    }
}

/// Mean distance from each point to its nearest codeword.
fn mean_nearest_distance(subs: &[f32], cbk: &[f32], dsub: usize) -> f32 {
    let mut total = 0.0f64;
    let mut n = 0u64;
    for x in subs.chunks_exact(dsub) {
        let mut min_d = f32::INFINITY;
        for c in cbk.chunks_exact(dsub) {
            min_d = min_d.min(crate::distance::l2_sq_f32(x, c));
        }
        total += min_d as f64;
        n += 1;
    }
    (total / n.max(1) as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data(n: usize, dim: usize) -> VecSet<f32> {
        let mut s = VecSet::new(dim);
        let mut lcg = 31u64;
        for _ in 0..n {
            let v: Vec<f32> = (0..dim)
                .map(|_| {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((lcg >> 33) as f32 / u32::MAX as f32) * 4.0
                })
                .collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn refinement_does_not_hurt_reconstruction() {
        let data = toy_data(500, 8);
        let plain = ProductQuantizer::train(&data, &PqParams::new(4, 8)).quantization_error(&data);
        let dpq = Dpq::train(&data, &DpqParams::new(4, 8));
        let refined = dpq.quantization_error(&data);
        // soft refinement should track (usually improve) the k-means error
        assert!(
            refined <= plain * 1.10,
            "refined {refined} much worse than plain {plain}"
        );
    }

    #[test]
    fn interface_matches_pq() {
        let data = toy_data(300, 8);
        let dpq = Dpq::train(&data, &DpqParams::new(4, 8));
        let code = dpq.pq.encode(data.get(0));
        assert_eq!(code.len(), 4);
        let lut = dpq.pq.lut(data.get(1));
        assert_eq!(lut.len(), 4 * 8);
        let _ = dpq.pq.adc(&lut, &code);
    }

    #[test]
    fn zero_epochs_is_plain_pq() {
        let data = toy_data(200, 8);
        let mut p = DpqParams::new(4, 8);
        p.epochs = 0;
        let dpq = Dpq::train(&data, &p);
        let pq = ProductQuantizer::train(&data, &p.pq);
        assert_eq!(dpq.pq.codebooks_flat(), pq.codebooks_flat());
    }

    #[test]
    fn annealing_temperature_is_applied() {
        // smoke: multiple epochs run without NaNs and codebooks stay finite
        let data = toy_data(200, 4);
        let dpq = Dpq::train(&data, &DpqParams::new(2, 4));
        assert!(dpq.pq.codebooks_flat().iter().all(|x| x.is_finite()));
    }
}
