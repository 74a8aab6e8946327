//! Round-trip coverage for the FL wire seams the kernel bench serializes
//! through: `wire` with the identity scheme (encode → decode identity,
//! corruption detection) and `quant` (quantize → dequantize error bound). These are integration
//! tests at the *public* seam — they use only what a downstream crate can
//! call.

use fedcav_nn::quant;
use fedcav_nn::wire::{self, CodecError, CodecSpec, WireError, WireFrame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An identity-scheme (raw f32) v2 frame.
fn encode(params: &[f32], loss: Option<f32>) -> Vec<u8> {
    CodecSpec::Identity.build(&[]).encode(params, loss, &[]).unwrap()
}

fn decode(frame: &[u8]) -> Result<WireFrame, WireError> {
    wire::decode(frame, &[])
}

fn params(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.random_range(-2.0f32..2.0)).collect()
}

#[test]
fn encode_decode_identity_with_loss() {
    for len in [1usize, 7, 128, 4096] {
        let p = params(len as u64, len);
        let frame = decode(&encode(&p, Some(0.731))).unwrap();
        // Bit-exact round-trip: the wire format is raw little-endian f32.
        let same = frame.params.iter().zip(&p).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "params changed across encode/decode (len {len})");
        assert_eq!(frame.inference_loss.map(f32::to_bits), Some(0.731f32.to_bits()));
    }
}

#[test]
fn encode_decode_identity_without_loss() {
    let p = params(5, 33);
    let frame = decode(&encode(&p, None)).unwrap();
    assert_eq!(frame.params.len(), p.len());
    assert_eq!(frame.inference_loss, None);
}

#[test]
fn special_values_survive_the_wire_bit_for_bit() {
    // The validation stage, not the codec, is where non-finite uploads get
    // quarantined — the codec must transport them faithfully.
    let p = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, f32::MIN_POSITIVE];
    let frame = decode(&encode(&p, Some(f32::NAN))).unwrap();
    let same = frame.params.iter().zip(&p).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "special values mangled");
}

#[test]
fn corruption_is_detected() {
    let p = params(9, 64);
    let mut frame = encode(&p, Some(1.5));
    // Flip one payload bit: checksum must catch it.
    let mid = frame.len() / 2;
    frame[mid] ^= 0x10;
    match decode(&frame) {
        Err(WireError::Frame(CodecError::BadChecksum { .. })) => {}
        other => panic!("corrupted frame decoded as {other:?}"),
    }
}

#[test]
fn truncation_is_detected() {
    let frame = encode(&params(2, 16), None);
    for cut in [0usize, 3, 11, frame.len() - 1] {
        assert!(decode(&frame[..cut]).is_err(), "truncated frame of {cut} bytes decoded");
    }
}

#[test]
fn quantize_round_trip_respects_error_bound() {
    for len in [2usize, 65, 1024] {
        let p = params(100 + len as u64, len);
        let q = quant::quantize(&p).unwrap();
        let back = quant::dequantize(&q);
        assert_eq!(back.len(), p.len());
        let bound = quant::max_error_bound(&q);
        for (orig, rt) in p.iter().zip(&back) {
            assert!((orig - rt).abs() <= bound + f32::EPSILON, "|{orig} - {rt}| > bound {bound}");
        }
        // 8-bit payload + (min, scale) header.
        assert_eq!(q.wire_bytes(), len + 8);
    }
}

#[test]
fn quantize_constant_vector_is_lossless() {
    let q = quant::quantize(&[0.375; 10]).unwrap();
    let back = quant::dequantize(&q);
    assert!(back.iter().all(|&v| v == 0.375), "constant vector drifted: {back:?}");
}

#[test]
fn quantize_rejects_empty_and_non_finite() {
    assert!(quant::quantize(&[]).is_err());
    assert!(quant::quantize(&[1.0, f32::NAN]).is_err());
    assert!(quant::quantize(&[1.0, f32::INFINITY]).is_err());
}

#[test]
fn quant_after_codec_composes() {
    // The bench binary's serialization chain: params → quantize → encode
    // the dequantized reconstruction. End-to-end error stays within the
    // quantization bound (the codec leg is bit-exact).
    let p = params(77, 256);
    let q = quant::quantize(&p).unwrap();
    let frame = decode(&encode(&quant::dequantize(&q), Some(0.5))).unwrap();
    let bound = quant::max_error_bound(&q);
    for (orig, rt) in p.iter().zip(&frame.params) {
        assert!((orig - rt).abs() <= bound + f32::EPSILON);
    }
}
