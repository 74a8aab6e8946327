//! Property-based tests of the NN stack: the flat wire format must be a
//! lossless bijection for any model, gradients must behave linearly, and
//! SGD must be a contraction toward lower loss on average.

use fedcav::nn::{models, Sequential, Sgd, SgdConfig, SoftmaxCrossEntropy};
use fedcav::tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{forall, Gen};

#[macro_use]
mod support;

const CASES: usize = 24;

fn tiny(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    models::tiny_mlp(&mut rng, 8, 4)
}

/// A seed in `0..bound`.
fn seed_below(g: &mut Gen, bound: usize) -> u64 {
    g.int_in(0, bound - 1) as u64
}

#[test]
fn wire_format_bijective() {
    forall(
        "wire_format_bijective",
        CASES,
        |g| (seed_below(g, 500), g.f32_in(-1.0, 1.0)),
        |&(seed, perturb)| {
            // Any parameter vector must round-trip exactly through the model.
            let src = tiny(seed);
            let mut params = src.flat_params();
            for p in params.iter_mut() {
                *p += perturb;
            }
            let mut dst = tiny(seed.wrapping_add(1));
            dst.set_flat_params(&params).unwrap();
            ensure_eq!(dst.flat_params(), params);
            Ok(())
        },
    );
}

#[test]
fn forward_is_deterministic() {
    forall(
        "forward_is_deterministic",
        CASES,
        |g| (seed_below(g, 500), seed_below(g, 500)),
        |&(seed, data_seed)| {
            let mut m = tiny(seed);
            let mut rng = StdRng::seed_from_u64(data_seed);
            let x = init::uniform(&mut rng, &[3, 8], -1.0, 1.0);
            let a = m.forward(&x, false).unwrap();
            let b = m.forward(&x, false).unwrap();
            ensure_eq!(a.as_slice(), b.as_slice());
            Ok(())
        },
    );
}

#[test]
fn identical_params_identical_outputs() {
    forall(
        "identical_params_identical_outputs",
        CASES,
        |g| (seed_below(g, 500), seed_below(g, 500)),
        |&(seed, data_seed)| {
            // Two differently-initialised models given the same flat params
            // must compute the same function.
            let mut a = tiny(seed);
            let mut b = tiny(seed.wrapping_add(7));
            b.set_flat_params(&a.flat_params()).unwrap();
            let mut rng = StdRng::seed_from_u64(data_seed);
            let x = init::uniform(&mut rng, &[2, 8], -1.0, 1.0);
            let ya = a.forward(&x, false).unwrap();
            let yb = b.forward(&x, false).unwrap();
            ensure_eq!(ya.as_slice(), yb.as_slice());
            Ok(())
        },
    );
}

#[test]
fn zero_grad_then_no_step_is_identity() {
    forall(
        "zero_grad_then_no_step_is_identity",
        CASES,
        |g| seed_below(g, 500),
        |&seed| {
            let mut m = tiny(seed);
            let before = m.flat_params();
            let x = Tensor::ones(&[1, 8]);
            m.forward(&x, true).unwrap();
            m.zero_grad();
            let mut opt = Sgd::new(SgdConfig::default(), m.trainable_len());
            opt.step(&mut m).unwrap(); // all-zero grads
            ensure_eq!(m.flat_params(), before);
            Ok(())
        },
    );
}

#[test]
fn gradient_accumulation_is_additive() {
    forall(
        "gradient_accumulation_is_additive",
        CASES,
        |g| (seed_below(g, 200), seed_below(g, 200)),
        |&(seed, data_seed)| {
            // backward twice == 2x backward once (for the same input/grad).
            let mut m = tiny(seed);
            let mut rng = StdRng::seed_from_u64(data_seed);
            let x = init::uniform(&mut rng, &[2, 8], -1.0, 1.0);
            let labels = [0usize, 3];

            let y = m.forward(&x, true).unwrap();
            let g = SoftmaxCrossEntropy::grad(&y, &labels).unwrap();
            m.zero_grad();
            m.backward(&g).unwrap();
            let once = m.flat_grads();
            m.forward(&x, true).unwrap();
            m.backward(&g).unwrap();
            let twice = m.flat_grads();
            for (t, o) in twice.iter().zip(&once) {
                ensure!((t - 2.0 * o).abs() < 1e-3 + o.abs() * 1e-2);
            }
            Ok(())
        },
    );
}

#[test]
fn sgd_step_moves_against_gradient() {
    forall(
        "sgd_step_moves_against_gradient",
        CASES,
        |g| (seed_below(g, 200), g.f32_in(0.001, 0.1)),
        |&(seed, lr)| {
            let mut m = tiny(seed);
            let x = Tensor::ones(&[1, 8]);
            let labels = [1usize];
            let y = m.forward(&x, true).unwrap();
            let g = SoftmaxCrossEntropy::grad(&y, &labels).unwrap();
            m.zero_grad();
            m.backward(&g).unwrap();
            let grads = m.flat_grads();
            let before: Vec<f32> = {
                let mut v = Vec::new();
                m.visit_trainable(&mut |p, _| v.extend_from_slice(p.as_slice()));
                v
            };
            let mut opt = Sgd::new(SgdConfig { lr, ..Default::default() }, m.trainable_len());
            opt.step(&mut m).unwrap();
            let after: Vec<f32> = {
                let mut v = Vec::new();
                m.visit_trainable(&mut |p, _| v.extend_from_slice(p.as_slice()));
                v
            };
            for ((b, a), g) in before.iter().zip(&after).zip(&grads) {
                ensure!((a - (b - lr * g)).abs() < 1e-4, "{b} stepped to {a} (grad {g})");
            }
            Ok(())
        },
    );
}

#[test]
fn aggregating_identical_updates_is_identity() {
    forall(
        "aggregating_identical_updates_is_identity",
        CASES,
        |g| seed_below(g, 500),
        |&seed| {
            // Weighted average of k copies of the same params == the params,
            // for any normalised weights — the FL fixed-point property.
            let m = tiny(seed);
            let p = m.flat_params();
            let weights = [0.2f32, 0.5, 0.3];
            let mut agg = vec![0.0f32; p.len()];
            for &w in &weights {
                for (o, &v) in agg.iter_mut().zip(&p) {
                    *o += w * v;
                }
            }
            for (a, b) in agg.iter().zip(&p) {
                ensure!((a - b).abs() < 1e-4);
            }
            Ok(())
        },
    );
}
