//! Scalar quantization of `f32` vectors to 8- or 16-bit integers.
//!
//! The paper evaluates DEEP100M "quantified to uint8 to keep in coincidence
//! with SIFT100M", and the squaring-LUT trick hinges on operands being 8-bit
//! (256-entry SQT in WRAM) or 16-bit (hot window in WRAM, rest in MRAM).
//! This module provides the affine codec `q = round((x - lo) / scale)`.

use crate::vector::VecSet;

/// Affine scalar quantizer `x ~ lo + scale * q`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarQuantizer {
    /// Minimum representable value.
    pub lo: f32,
    /// Step between adjacent codes.
    pub scale: f32,
    /// Number of levels (256 for u8, 65536 for u16).
    pub levels: u32,
}

impl ScalarQuantizer {
    /// Fit a quantizer to the value range of `data` with the given level
    /// count.
    pub fn fit(data: &VecSet<f32>, levels: u32) -> Self {
        assert!(levels >= 2);
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &x in data.as_flat() {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if !lo.is_finite() || !hi.is_finite() || lo == hi {
            lo = if lo.is_finite() { lo } else { 0.0 };
            hi = lo + 1.0;
        }
        let scale = (hi - lo) / (levels - 1) as f32;
        ScalarQuantizer { lo, scale, levels }
    }

    /// Fit an 8-bit quantizer.
    pub fn fit_u8(data: &VecSet<f32>) -> Self {
        Self::fit(data, 256)
    }

    /// Quantize one value to a code.
    #[inline]
    pub fn encode(&self, x: f32) -> u32 {
        (((x - self.lo) / self.scale).round()).clamp(0.0, (self.levels - 1) as f32) as u32
    }

    /// Reconstruct the value of a code.
    #[inline]
    pub fn decode(&self, q: u32) -> f32 {
        self.lo + self.scale * q as f32
    }

    /// Worst-case absolute reconstruction error (half a step).
    pub fn max_error(&self) -> f32 {
        self.scale / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> VecSet<f32> {
        VecSet::from_flat(4, (0..64).map(|i| i as f32).collect())
    }

    #[test]
    fn fit_captures_range() {
        let q = ScalarQuantizer::fit_u8(&ramp());
        assert_eq!(q.lo, 0.0);
        assert!((q.decode(255) - 63.0).abs() < 1e-4);
    }

    #[test]
    fn roundtrip_error_bounded() {
        let data = ramp();
        let q = ScalarQuantizer::fit_u8(&data);
        for &x in data.as_flat() {
            let err = (q.decode(q.encode(x)) - x).abs();
            assert!(err <= q.max_error() + 1e-5, "x={x} err={err}");
        }
    }

    #[test]
    fn encode_clamps_out_of_range() {
        let q = ScalarQuantizer::fit_u8(&ramp());
        assert_eq!(q.encode(-100.0), 0);
        assert_eq!(q.encode(1e6), 255);
    }

    #[test]
    fn constant_data_does_not_divide_by_zero() {
        let data = VecSet::from_flat(2, vec![5.0f32; 8]);
        let q = ScalarQuantizer::fit_u8(&data);
        let code = q.encode(5.0);
        assert!((q.decode(code) - 5.0).abs() <= q.max_error() + 1e-6);
    }
}
