//! Distance kernels — scalar reference forms.
//!
//! Everything in the paper is squared Euclidean (L2²) distance: cluster
//! locating compares the query against coarse centroids, LUT construction
//! compares residual sub-vectors against codebook entries, and the
//! asymmetric-distance computation (ADC) sums LUT entries. Squared distance
//! preserves ranking, so the square root is never taken.
//!
//! These single-fold loops are the *reference* implementations: simple,
//! obviously correct, and what the property tests compare against. Hot
//! paths route through the blocked multi-accumulator forms in
//! [`crate::kernels`], which compute the same quantities reassociated for
//! auto-vectorization.

/// Squared L2 distance between two `f32` slices of equal length.
#[inline]
pub fn l2_sq_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Squared L2 distance between two `u8` slices, exact in `u32`.
///
/// This is the arithmetic the DPU kernels perform: 8-bit operands, integer
/// subtract + square + accumulate (the square is what the SQT replaces).
#[inline]
pub fn l2_sq_u8(a: &[u8], b: &[u8]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0u32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let d = x as i32 - y as i32;
        acc += (d * d) as u32;
    }
    acc
}

/// Inner product of two `f32` slices.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Squared L2 norm.
#[inline]
pub fn norm_sq_f32(a: &[f32]) -> f32 {
    dot_f32(a, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_f32_known_values() {
        assert_eq!(l2_sq_f32(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l2_sq_f32(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn l2_u8_exact_integer() {
        assert_eq!(l2_sq_u8(&[0, 0], &[3, 4]), 25);
        assert_eq!(l2_sq_u8(&[255], &[0]), 255 * 255);
        // symmetric
        assert_eq!(
            l2_sq_u8(&[10, 200], &[250, 5]),
            l2_sq_u8(&[250, 5], &[10, 200])
        );
    }

    #[test]
    fn u8_matches_f32_after_widening() {
        let a = [1u8, 50, 255, 128];
        let b = [9u8, 60, 0, 127];
        let fa: Vec<f32> = a.iter().map(|&x| x as f32).collect();
        let fb: Vec<f32> = b.iter().map(|&x| x as f32).collect();
        assert_eq!(l2_sq_u8(&a, &b) as f32, l2_sq_f32(&fa, &fb));
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot_f32(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm_sq_f32(&[3.0, 4.0]), 25.0);
    }
}
