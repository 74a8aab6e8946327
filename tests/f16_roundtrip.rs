//! Bit-level f16 round-trip properties at the `fedcav-nn` wire boundary
//! (DESIGN.md §16, §17). The hand-written binary16 scalar is what the wire
//! codec's `f16` scheme narrows parameters through; values on its grid
//! must also survive the f32 codec and the uint8 quantizer unchanged —
//! these tests pin the three contracts that interaction relies on:
//!
//! 1. **encode→decode identity**: parameters already snapped onto the f16
//!    grid survive the identity wire codec (`wire::decode` of a
//!    `CodecSpec::Identity` frame) bit-for-bit (the scheme carries
//!    little-endian f32 bit patterns and must not re-round them),
//! 2. **monotone nearest rounding**: `F16::quantize` is monotone,
//!    idempotent, and each value lands on the nearest grid point (half-ulp
//!    bound),
//! 3. **NaN/Inf containment**: non-finite values never leak — the f16
//!    narrowing canonicalises NaNs and saturates overflow to ±Inf, the
//!    codec carries non-finite bits through unchanged (detection is the
//!    validation stage's job, not the wire's), and the uint8 quantizer
//!    refuses them outright.

use fedcav::nn::quant;
use fedcav::nn::wire::{self, CodecSpec, WireFrame};
use fedcav::tensor::f16::{F16, F16_MAX};

/// Encode with the identity (f32) wire scheme and decode straight back.
fn identity_round_trip(params: &[f32], loss: Option<f32>) -> WireFrame {
    let frame = CodecSpec::Identity.build(&[]).encode(params, loss, &[]).expect("encode");
    wire::decode(&frame, &[]).expect("decode")
}

/// SplitMix64 — the same tiny seeded generator as `kernel_properties.rs`.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f32 spanning several binades, sign-balanced, with exact
    /// zeros (~6%) and denormal-range dust (~6%) mixed in.
    fn value(&mut self) -> f32 {
        match self.next_u64() % 16 {
            0 => 0.0,
            1 => ((self.next_u64() % 1000) as f32 + 1.0) * 1e-26,
            _ => {
                let mag = ((self.next_u64() % 1_000_000) as f32 / 1_000_000.0 + 1e-6)
                    * 10f32.powi((self.next_u64() % 7) as i32 - 3);
                if self.next_u64() % 2 == 0 {
                    mag
                } else {
                    -mag
                }
            }
        }
    }

    fn fill(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.value()).collect()
    }
}

// ------------------------------------------ 1. encode→decode identity

#[test]
fn f16_grid_params_round_trip_the_wire_codec_bit_exactly() {
    let mut g = Gen::new(0xF16);
    let raw = g.fill(4096);
    let snapped: Vec<f32> = raw.iter().map(|&v| F16::quantize(v)).collect();
    // Vacuity guard: snapping must have moved something, else this tests
    // nothing beyond the existing f32 codec round-trip.
    let moved = raw.iter().zip(&snapped).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
    assert!(moved > 1000, "only {moved}/4096 values moved when snapped to the f16 grid");

    let loss = F16::quantize(0.731);
    let frame = identity_round_trip(&snapped, Some(loss));
    assert_eq!(frame.params.len(), snapped.len());
    for (i, (sent, got)) in snapped.iter().zip(&frame.params).enumerate() {
        assert_eq!(sent.to_bits(), got.to_bits(), "param {i} re-rounded in flight");
    }
    assert_eq!(frame.inference_loss.map(f32::to_bits), Some(loss.to_bits()));

    // And the grid is closed under the round trip: decoded values are
    // still exactly on it.
    for (i, &v) in frame.params.iter().enumerate() {
        assert_eq!(F16::quantize(v).to_bits(), v.to_bits(), "param {i} left the grid");
    }
}

#[test]
fn every_f16_bit_pattern_survives_widen_encode_decode_narrow() {
    // Exhaustive over all 65536 bit patterns: widen to f32, push through
    // the codec, narrow back — the storage bits must be untouched. NaNs
    // keep NaN-ness (payloads canonicalise on the narrow, by design).
    let all: Vec<f32> = (0..=u16::MAX).map(|bits| F16(bits).to_f32()).collect();
    let frame = identity_round_trip(&all, None);
    let mut non_finite = 0usize;
    for (bits, &wide) in frame.params.iter().enumerate() {
        let back = F16::from_f32(wide);
        let original = F16(bits as u16);
        if original.is_nan() {
            assert!(back.is_nan(), "{bits:#06x}: NaN became {wide}");
            non_finite += 1;
            continue;
        }
        if original.is_infinite() {
            non_finite += 1;
        }
        assert_eq!(back.0, original.0, "{bits:#06x} -> {wide} -> {:#06x}", back.0);
    }
    assert!(non_finite > 2000, "vacuous sweep: only {non_finite} non-finite patterns");
}

// ------------------------------------- 2. monotone nearest rounding

#[test]
fn prop_f16_rounding_is_monotone_and_nearest() {
    let mut g = Gen::new(0x516D);
    let mut samples = g.fill(20_000);
    samples.extend([0.0, -0.0, 1.0, -1.0, F16_MAX, -F16_MAX, 6.1e-5, -6.1e-5]);
    samples.retain(|v| v.abs() <= F16_MAX);
    samples.sort_by(f32::total_cmp);
    assert!(samples.len() > 10_000, "corpus shrank unexpectedly");

    let mut prev = f32::NEG_INFINITY;
    let mut inexact = 0usize;
    for &v in &samples {
        let q = F16::quantize(v);
        // Idempotent: the grid is a fixed point of its own projection.
        assert_eq!(F16::quantize(q).to_bits(), q.to_bits(), "idempotence at {v}");
        // Monotone: projection never reorders values.
        assert!(q >= prev, "monotonicity broken at {v}: {q} < {prev}");
        prev = q;
        // Nearest: error ≤ half the local grid spacing. Normal-range
        // spacing at magnitude |v| is ≤ |v|·2⁻¹⁰; subnormal spacing is
        // 2⁻²⁴ flat.
        let half_ulp = (v.abs() * 2f32.powi(-11)).max(2f32.powi(-25));
        assert!(
            (q - v).abs() <= half_ulp,
            "{v} rounded to {q}, off by {} > half-ulp {half_ulp}",
            (q - v).abs()
        );
        if q.to_bits() != v.to_bits() {
            inexact += 1;
        }
    }
    assert!(inexact > 5_000, "vacuous corpus: only {inexact} values actually rounded");
}

// ------------------------------------------- 3. NaN/Inf containment

#[test]
fn f16_narrowing_contains_nan_and_inf() {
    // NaNs canonicalise to the quiet NaN, sign preserved — never a
    // finite value, never an infinity.
    for nan_bits in [0x7FC0_0000u32, 0xFFC0_0000, 0x7F80_0001, 0xFF92_1234] {
        let v = f32::from_bits(nan_bits);
        let h = F16::from_f32(v);
        assert!(h.is_nan(), "{nan_bits:#010x} lost NaN-ness -> {:#06x}", h.0);
        assert_eq!(h.0 & 0x7fff, 0x7e00, "not the canonical quiet NaN");
        assert_eq!((h.0 >> 15) as u32, nan_bits >> 31, "sign dropped");
        assert!(h.to_f32().is_nan());
    }
    // Infinities and overflow saturate to ±Inf — never NaN, never finite.
    for (v, sign) in [(f32::INFINITY, 0u16), (f32::NEG_INFINITY, 1), (1e30, 0), (-65520.0, 1)] {
        let h = F16::from_f32(v);
        assert!(h.is_infinite(), "{v} -> {:#06x} is not Inf", h.0);
        assert!(!h.is_nan());
        assert_eq!(h.0 >> 15, sign, "{v} lost its sign");
    }
}

#[test]
fn wire_codec_carries_non_finite_bits_unchanged() {
    // The codec is a dumb pipe: corruption detection is the CRC's job and
    // non-finite rejection is the validation stage's — the frame itself
    // must not launder a NaN into something plausible.
    let specials =
        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::from_bits(0xFF92_1234), -0.0, F16_MAX];
    let frame = identity_round_trip(&specials, Some(f32::NAN));
    for (i, (sent, got)) in specials.iter().zip(&frame.params).enumerate() {
        assert_eq!(sent.to_bits(), got.to_bits(), "special {i} altered in flight");
    }
    assert!(frame.inference_loss.expect("loss present").is_nan());
}

#[test]
fn uint8_quantizer_refuses_non_finite_and_accepts_the_f16_grid() {
    // Containment at the uplink compressor: a NaN/Inf parameter is a bug
    // upstream and must error, not clamp.
    assert!(quant::quantize(&[1.0, f32::NAN]).is_err());
    assert!(quant::quantize(&[f32::INFINITY, 0.0]).is_err());
    assert!(quant::quantize(&[F16(0x7c00).to_f32()]).is_err(), "widened f16 Inf must be refused");

    // Every finite f16 grid value is a legal quantizer input, and the
    // affine round trip stays within its own error bound.
    let mut g = Gen::new(0xA8);
    let grid: Vec<f32> = g.fill(2048).iter().map(|&v| F16::quantize(v)).collect();
    let q = quant::quantize(&grid).expect("finite grid values quantize");
    let back = quant::dequantize(&q);
    let bound = quant::max_error_bound(&q) + 1e-6;
    for (orig, rec) in grid.iter().zip(&back) {
        assert!((orig - rec).abs() <= bound, "{orig} vs {rec} (bound {bound})");
    }
}
