//! Hand-written IEEE 754 binary16 ("half") scalar, used by the wire
//! codec's `f16` scheme (`fedcav_nn::wire`) to narrow each parameter to
//! 16 bits on the uplink and widen it back at the server.
//!
//! The workspace is offline-only, so instead of the `half` crate this is a
//! minimal `u16`-newtype with exactly the three conversions the codec
//! needs:
//!
//! - [`F16::from_f32`]: round-to-nearest-even narrowing, with gradual
//!   underflow into binary16 subnormals, overflow to ±Inf, and NaN
//!   canonicalisation (any f32 NaN becomes the quiet NaN `0x7e00`, sign
//!   preserved).
//! - [`F16::to_f32`]: exact widening — every binary16 value (normal,
//!   subnormal, ±0, ±Inf, NaN) is exactly representable in binary32.
//! - [`F16::quantize`]: the round-trip `to_f32(from_f32(v))`, i.e. "snap
//!   an f32 onto the binary16 grid". Idempotent and monotone; this is
//!   exactly what a parameter goes through on an `f16` uplink.

/// An IEEE 754 binary16 value stored as its raw bit pattern.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct F16(pub u16);

/// Largest finite binary16 value, `65504.0`.
pub const F16_MAX: f32 = 65504.0;
/// Smallest positive binary16 subnormal, `2^-24`.
pub const F16_MIN_POSITIVE: f32 = 5.960_464_5e-8;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3c00);

    /// Narrow an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Values beyond ±65504 (after rounding) become ±Inf; values below the
    /// smallest subnormal round to signed zero; NaNs canonicalise to the
    /// quiet NaN `0x7e00` with the sign preserved.
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = (bits >> 23) & 0xff;
        let man = bits & 0x007f_ffff;

        if exp == 0xff {
            // Inf or NaN. NaNs canonicalise (payload is not preserved:
            // binary16 has only 10 payload bits and we never read them).
            return if man == 0 { F16(sign | 0x7c00) } else { F16(sign | 0x7e00) };
        }
        if exp == 0 {
            // f32 zero or subnormal: far below the binary16 subnormal
            // range (< 2^-126), flushes to signed zero.
            return F16(sign);
        }

        let e = exp as i32 - 127;
        if e < -25 {
            // Below half the smallest subnormal: rounds to signed zero
            // even under round-to-nearest-even.
            return F16(sign);
        }
        if e >= 16 {
            // At or above 2^16: overflows binary16 (max finite 65504).
            return F16(sign | 0x7c00);
        }

        // 24-bit significand with the implicit leading one made explicit.
        let mant = man | 0x0080_0000;
        // Normal results drop 13 bits; subnormal results drop more, one
        // extra bit per binade below 2^-14. `e >= -25` keeps shift <= 24.
        let extra = if e < -14 { (-14 - e) as u32 } else { 0 };
        let shift = 13 + extra;
        let kept = mant >> shift;
        let dropped = mant & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let round_up = dropped > halfway || (dropped == halfway && (kept & 1) == 1);
        let rounded = kept + u32::from(round_up);

        if e < -14 {
            // Subnormal (or, via rounding carry, the smallest normal):
            // `rounded` is already the final 10-bit field, and a carry out
            // of it lands in the exponent field exactly where the smallest
            // normal lives — bit-pattern continuity does the right thing.
            F16(sign | rounded as u16)
        } else {
            // Normal: reassemble exponent and mantissa. `rounded` is in
            // [0x400, 0x800]; the 0x800 carry case bumps the exponent via
            // the same continuity (and can correctly carry into Inf:
            // 65520 rounds to +Inf).
            let he = (e + 15) as u32;
            F16(sign | ((he << 10) + (rounded - 0x400)) as u16)
        }
    }

    /// Widen to `f32`. Exact for every binary16 bit pattern.
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 >> 15) << 31;
        let exp = u32::from(self.0 >> 10) & 0x1f;
        let man = u32::from(self.0) & 0x3ff;
        match exp {
            0 => {
                // ±0 and subnormals: value = man × 2^-24, exact in f32.
                let magnitude = man as f32 * (1.0 / 16_777_216.0);
                if sign != 0 {
                    -magnitude
                } else {
                    magnitude
                }
            }
            0x1f => {
                if man == 0 {
                    f32::from_bits(sign | 0x7f80_0000)
                } else {
                    f32::from_bits(sign | 0x7f80_0000 | (man << 13))
                }
            }
            _ => f32::from_bits(sign | ((exp + 112) << 23) | (man << 13)),
        }
    }

    /// Snap an `f32` onto the binary16 grid: `to_f32(from_f32(v))`.
    #[inline]
    pub fn quantize(value: f32) -> f32 {
        F16::from_f32(value).to_f32()
    }

    /// Whether this value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x3ff) != 0
    }

    /// Whether this value is ±Inf.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7fff) == 0x7c00
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        assert_eq!(F16::from_f32(0.0).0, 0x0000);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
        assert_eq!(F16::from_f32(1.0).0, 0x3c00);
        assert_eq!(F16::from_f32(-1.0).0, 0xbc00);
        assert_eq!(F16::from_f32(2.0).0, 0x4000);
        assert_eq!(F16::from_f32(0.5).0, 0x3800);
        assert_eq!(F16::from_f32(0.1).0, 0x2e66);
        assert_eq!(F16::from_f32(65504.0).0, 0x7bff);
        assert_eq!(F16::from_f32(F16_MIN_POSITIVE).0, 0x0001);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(F16::from_f32(65520.0).0, 0x7c00, "ties-to-even rounds 65520 up to Inf");
        assert_eq!(F16::from_f32(1e9).0, 0x7c00);
        assert_eq!(F16::from_f32(-1e9).0, 0xfc00);
        assert_eq!(F16::from_f32(f32::INFINITY).0, 0x7c00);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY).0, 0xfc00);
        // 65519.996... (the largest f32 strictly below the tie) stays finite.
        assert_eq!(F16::from_f32(65519.0).0, 0x7bff);
    }

    #[test]
    fn underflow_flushes_to_signed_zero() {
        // Half the smallest subnormal is the round-to-even tie: 2^-25 → 0.
        assert_eq!(F16::from_f32(2.0f32.powi(-25)).0, 0x0000);
        assert_eq!(F16::from_f32(-(2.0f32.powi(-25))).0, 0x8000);
        // Just above the tie rounds up to the smallest subnormal.
        assert_eq!(F16::from_f32(2.0f32.powi(-25) * 1.001).0, 0x0001);
        // f32 subnormals are far below binary16 range.
        assert_eq!(F16::from_f32(f32::from_bits(1)).0, 0x0000);
        assert_eq!(F16::from_f32(-f32::from_bits(1)).0, 0x8000);
    }

    #[test]
    fn nan_canonicalises() {
        let q = F16::from_f32(f32::NAN);
        assert!(q.is_nan());
        assert_eq!(q.0 & 0x7fff, 0x7e00);
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn every_non_nan_pattern_round_trips_exactly() {
        let mut checked = 0usize;
        for bits in 0..=u16::MAX {
            let h = F16(bits);
            if h.is_nan() {
                assert!(h.to_f32().is_nan(), "{bits:#06x}");
                continue;
            }
            let wide = h.to_f32();
            let back = F16::from_f32(wide);
            assert_eq!(back.0, bits, "{bits:#06x} -> {wide} -> {:#06x}", back.0);
            checked += 1;
        }
        assert!(checked > 63_000, "vacuous sweep: only {checked} patterns");
    }

    #[test]
    fn quantize_is_idempotent_and_monotone() {
        let samples: Vec<f32> = (0..2000)
            .map(|i| (i as f32 - 1000.0) * 0.37 + (i as f32) * 1e-4)
            .chain([0.0, -0.0, 1e-7, -1e-7, 3.14159, 65503.0, -65503.0])
            .collect();
        let mut sorted = samples.clone();
        sorted.sort_by(f32::total_cmp);
        let mut prev = f32::NEG_INFINITY;
        for &v in &sorted {
            let q = F16::quantize(v);
            assert_eq!(F16::quantize(q).to_bits(), q.to_bits(), "idempotence at {v}");
            assert!(q >= prev, "monotonicity broken at {v}: {q} < {prev}");
            prev = q;
        }
    }

    #[test]
    fn rounding_is_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 (0x3c00, even) and
        // 1.0 + 2^-10 (0x3c01, odd): ties to even → 1.0.
        let tie = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie).0, 0x3c00);
        // 1.0 + 3·2^-11 is halfway between 0x3c01 (odd) and 0x3c02 (even):
        // ties to even → 0x3c02.
        let tie2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie2).0, 0x3c02);
        // Just above/below the first tie round away from it.
        assert_eq!(F16::from_f32(tie + 1e-6).0, 0x3c01);
        assert_eq!(F16::from_f32(tie - 1e-6).0, 0x3c00);
    }

    #[test]
    fn subnormal_boundary_rounding() {
        // Largest subnormal 0x03ff = (1023/1024)·2^-14; smallest normal
        // 0x0400 = 2^-14. A value halfway between them carries into the
        // normal range via bit continuity.
        let largest_sub = F16(0x03ff).to_f32();
        let smallest_norm = F16(0x0400).to_f32();
        let mid = (largest_sub + smallest_norm) / 2.0;
        let q = F16::from_f32(mid);
        assert_eq!(q.0, 0x0400, "tie rounds to even (normal) across the boundary");
        assert!((smallest_norm - 2.0f32.powi(-14)).abs() < 1e-12);
    }

    #[test]
    fn infinity_predicates() {
        assert!(F16(0x7c00).is_infinite());
        assert!(F16(0xfc00).is_infinite());
        assert!(!F16(0x7bff).is_infinite());
        assert!(!F16(0x7c00).is_nan());
        assert!(F16(0x7c01).is_nan());
        assert!(F16(0xfe00).is_nan());
    }
}
