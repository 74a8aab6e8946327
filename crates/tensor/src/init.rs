//! Deterministic random initialisation.
//!
//! Every experiment in the reproduction is seeded; all initialisers take an
//! explicit `Rng` so a single `StdRng::seed_from_u64(seed)` at the experiment
//! root makes the whole run reproducible.

use crate::Tensor;
use rand::Rng;

/// Uniform init in `[lo, hi)`: exactly `rng.random_range(lo..hi)` per
/// element, and like it panics on an empty range (unless `dims` is empty).
pub fn uniform<R: Rng>(rng: &mut R, dims: &[usize], lo: f32, hi: f32) -> Tensor {
    let n: usize = dims.iter().product();
    assert!(n == 0 || lo < hi, "cannot sample empty range");
    // `random_range`'s arithmetic, written out so that the range check runs
    // once and not per draw: with the check inside, the optimizer sometimes
    // kept the draw out of line, and every model build drawing its Xavier
    // weights ran 2-3x slower (perfbench `nn.model_build_us`).
    let data: Vec<f32> = (0..n)
        .map(|_| {
            let x = lo + (hi - lo) * rng.random::<f32>();
            if x < hi {
                x
            } else {
                lo
            }
        })
        .collect();
    // fedcav-lint: allow(no-panic-in-round-loop, reason = "infallible by construction: data.len() == dims.product() on the line above")
    Tensor::from_vec(dims, data).expect("uniform: dims product matches buffer length")
}

/// Standard normal samples scaled by `std` around `mean` (Box–Muller).
///
/// Implemented locally so the crate does not need `rand_distr`.
pub fn normal<R: Rng>(rng: &mut R, dims: &[usize], mean: f32, std: f32) -> Tensor {
    let n: usize = dims.iter().product();
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let (z0, z1) = box_muller(rng);
        data.push(mean + std * z0);
        if data.len() < n {
            data.push(mean + std * z1);
        }
    }
    // fedcav-lint: allow(no-panic-in-round-loop, reason = "infallible by construction: the fill loop stops at exactly n = dims.product() samples")
    Tensor::from_vec(dims, data).expect("normal: dims product matches buffer length")
}

/// One Box–Muller draw: two independent standard normal samples.
pub fn box_muller<R: Rng>(rng: &mut R) -> (f32, f32) {
    // u1 in (0, 1] so ln(u1) is finite.
    let u1: f32 = 1.0 - rng.random::<f32>();
    let u2: f32 = rng.random::<f32>();
    // fedcav-lint: allow(raw-exp-ln, reason = "Box-Muller; u1 = 1 - random() is in (0, 1] so ln(u1) is finite")
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Xavier/Glorot uniform init for a dense weight of shape `[fan_in, fan_out]`.
pub fn xavier_uniform<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(rng, &[fan_in, fan_out], -limit, limit)
}

/// Kaiming/He normal init for conv weights `[out_c, in_c, kh, kw]`.
///
/// `fan_in = in_c * kh * kw`; gain for ReLU.
pub fn kaiming_normal<R: Rng>(rng: &mut R, dims: &[usize]) -> Tensor {
    assert!(dims.len() >= 2, "kaiming_normal needs rank >= 2");
    let fan_in: usize = dims[1..].iter().product();
    let std = (2.0 / fan_in as f32).sqrt();
    normal(rng, dims, 0.0, std)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_bounds_and_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = uniform(&mut rng, &[10, 10], -0.5, 0.5);
        assert_eq!(t.dims(), &[10, 10]);
        assert!(t.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn uniform_is_random_range_bit_for_bit() {
        use rand::Rng;
        // The last range is one ulp wide, so `lo + (hi - lo) * u` rounds
        // up to `hi` for half the draws and the fix-up to `lo` runs.
        let one_ulp = f32::from_bits(1.0f32.to_bits() + 1);
        for (lo, hi) in [(-0.5, 0.5), (0.0, 1.0), (-3.7e-3, 2.9e4), (1.0, one_ulp)] {
            let mut a = StdRng::seed_from_u64(11);
            let mut b = StdRng::seed_from_u64(11);
            let got = uniform(&mut a, &[257], lo, hi);
            let want: Vec<u32> = (0..257).map(|_| b.random_range(lo..hi).to_bits()).collect();
            let got: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{lo}..{hi}");
        }
        assert_eq!(uniform(&mut StdRng::seed_from_u64(0), &[0], 1.0, 1.0).numel(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn uniform_rejects_an_empty_range() {
        let _ = uniform(&mut StdRng::seed_from_u64(0), &[2], 1.0, 1.0);
    }

    #[test]
    fn uniform_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(
            uniform(&mut a, &[16], 0.0, 1.0).as_slice(),
            uniform(&mut b, &[16], 0.0, 1.0).as_slice()
        );
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = normal(&mut rng, &[10_000], 1.0, 2.0);
        let mean = t.mean().unwrap();
        let var =
            t.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / (t.numel() - 1) as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn normal_odd_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = normal(&mut rng, &[7], 0.0, 1.0);
        assert_eq!(t.numel(), 7);
    }

    #[test]
    fn xavier_limit() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = xavier_uniform(&mut rng, 100, 200);
        let limit = (6.0f32 / 300.0).sqrt();
        assert_eq!(t.dims(), &[100, 200]);
        assert!(t.as_slice().iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn kaiming_std_matches_fan_in() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = kaiming_normal(&mut rng, &[32, 16, 3, 3]);
        let fan_in = 16 * 9;
        let expect_std = (2.0f32 / fan_in as f32).sqrt();
        let mean = t.mean().unwrap();
        let std = (t.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>()
            / (t.numel() - 1) as f32)
            .sqrt();
        assert!((std - expect_std).abs() / expect_std < 0.15, "std {std} vs {expect_std}");
    }

    #[test]
    fn box_muller_finite() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            let (a, b) = box_muller(&mut rng);
            assert!(a.is_finite() && b.is_finite());
        }
    }
}
