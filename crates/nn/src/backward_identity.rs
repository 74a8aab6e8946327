//! Bit-identity suite for the trimmed training step, run on every backend
//! (blocked, reference). Three shortcuts must not move a single bit:
//!
//! * (a) `Sequential::backward` stops at the first trainable layer, which
//!   computes parameter gradients only — versus a full chain of
//!   `Layer::backward` calls;
//! * (b) `Conv2d`'s backward reuses the patches its training forward
//!   unfolded — versus a fresh `Im2colScratch`, including with an eval
//!   forward between the training forward and the backward;
//! * (c) `Dense` computes `d_out · Wᵀ` without building `Wᵀ` — versus
//!   `d_out.matmul(&W.transpose())`.

use crate::layer::Layer;
use crate::{models, Conv2d, Dense, Sequential};
use fedcav_tensor::backend::{Backend, CpuBlocked, Reference};
use fedcav_tensor::conv::Conv2dParams;
use fedcav_tensor::im2col::Im2colScratch;
use fedcav_tensor::{init, numerics, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bits(label: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.dims(), b.dims(), "{label}: dims");
    assert!(bits(a.as_slice()) == bits(b.as_slice()), "{label}: bits differ");
}

/// (a) on one model: the trimmed backward and a full `Layer::backward`
/// chain over two identically built copies, two steps each so gradient
/// accumulation is covered too.
fn trimmed_matches_full_chain(name: &str, build: impl Fn() -> Sequential, x: &Tensor) {
    let (mut trimmed, mut full) = (build(), build());
    let labels: Vec<usize> = (0..x.dims()[0]).map(|i| (i * 7) % 10).collect();
    for _ in 0..2 {
        let y = trimmed.forward(x, true).unwrap();
        let y_full = full.forward(x, true).unwrap();
        assert_bits(&format!("{name} logits"), &y, &y_full);
        let g = numerics::cross_entropy_grad(&y, &labels).unwrap();
        trimmed.backward(&g).unwrap();
        let mut d = g;
        for layer in full.layers_mut().iter_mut().rev() {
            d = layer.backward(&d).unwrap();
        }
        assert_eq!(d.dims(), x.dims(), "{name}: the full chain reaches the input");
        assert!(
            bits(&trimmed.flat_grads()) == bits(&full.flat_grads()),
            "{name}: parameter gradients differ"
        );
    }
}

fn sequential_backward_on<B: Backend>() {
    let mut rng = StdRng::seed_from_u64(41);
    // Five samples: one full 4-row matmul band plus a remainder row.
    let mnist = init::uniform(&mut rng, &[5, 1, 28, 28], 0.0, 1.0);
    let cifar = init::uniform(&mut rng, &[2, 3, 32, 32], 0.0, 1.0);
    trimmed_matches_full_chain(
        "lenet5",
        || models::lenet5_on::<B, _>(&mut StdRng::seed_from_u64(1), 10),
        &mnist,
    );
    trimmed_matches_full_chain(
        "cnn9",
        || models::cnn9_on::<B, _>(&mut StdRng::seed_from_u64(2), 10),
        &mnist.gather_rows(&[0, 3]).unwrap(),
    );
    trimmed_matches_full_chain(
        "resnet18(8)",
        || models::resnet18_on::<B, _>(&mut StdRng::seed_from_u64(3), 10, 8),
        &cifar,
    );
    // The MLP's first layer is a parameter-free Flatten.
    trimmed_matches_full_chain(
        "mlp",
        || models::mlp_on::<B, _>(&mut StdRng::seed_from_u64(4), 784, 10),
        &mnist,
    );
}

#[test]
fn sequential_backward_matches_full_chain_blocked() {
    sequential_backward_on::<CpuBlocked>();
}

#[test]
fn sequential_backward_matches_full_chain_reference() {
    sequential_backward_on::<Reference>();
}

/// The layer's `(param, grad)` pairs, cloned.
fn trainables(layer: &mut dyn Layer) -> Vec<(Tensor, Tensor)> {
    let mut out = Vec::new();
    layer.visit_trainable(&mut |p, g| out.push((p.clone(), g.clone())));
    out
}

fn conv_cols_reuse_on<B: Backend>() {
    let mut rng = StdRng::seed_from_u64(43);
    let x = init::uniform(&mut rng, &[3, 2, 9, 9], -1.0, 1.0);
    let other = init::uniform(&mut rng, &[3, 2, 9, 9], -1.0, 1.0);

    // Backend level: a backward through the arena the forward filled
    // equals one through a fresh arena, with and without d_input.
    let w = init::uniform(&mut rng, &[5, 2, 3, 3], -0.5, 0.5);
    let b = init::uniform(&mut rng, &[5], -0.1, 0.1);
    for params in [Conv2dParams { stride: 1, padding: 1 }, Conv2dParams { stride: 2, padding: 2 }] {
        let mut arena = Im2colScratch::new();
        let y = B::conv2d_forward(&x, &w, &b, params, false, &mut arena).unwrap();
        let d_out = init::uniform(&mut rng, y.dims(), -1.0, 1.0);
        let fresh =
            B::conv2d_backward(&x, &w, &d_out, params, true, &mut Im2colScratch::new()).unwrap();
        let reused = B::conv2d_backward(&x, &w, &d_out, params, true, &mut arena).unwrap();
        let params_only = B::conv2d_backward(&x, &w, &d_out, params, false, &mut arena).unwrap();
        assert_bits("reused d_input", &fresh.d_input, &reused.d_input);
        assert_bits("reused d_weight", &fresh.d_weight, &reused.d_weight);
        assert_bits("reused d_bias", &fresh.d_bias, &reused.d_bias);
        assert_bits("params-only d_weight", &fresh.d_weight, &params_only.d_weight);
        assert_bits("params-only d_bias", &fresh.d_bias, &params_only.d_bias);
        assert_eq!(params_only.d_input.numel(), 0);
    }

    // Layer level: `reused` backs up straight after its training forward;
    // `interrupted` runs an eval forward on another input in between, so
    // its arena is stale. Both must equal the fresh-arena backward.
    let params = Conv2dParams { stride: 1, padding: 1 };
    for fused in [false, true] {
        let build = || {
            let rng = &mut StdRng::seed_from_u64(44);
            if fused {
                Conv2d::<B>::new_fused_relu_on(rng, 2, 4, 3, 1, 1)
            } else {
                Conv2d::<B>::new_on(rng, 2, 4, 3, 1, 1)
            }
        };
        let (mut reused, mut interrupted) = (build(), build());
        let y = reused.forward(&x, true).unwrap();
        interrupted.forward(&x, true).unwrap();
        interrupted.forward(&other, false).unwrap();
        // Zero where the fused ReLU clamps, so the mask is a no-op and
        // the fresh-arena oracle needs no masking of its own.
        let g = init::uniform(&mut rng, y.dims(), -1.0, 1.0);
        let g = if fused {
            Tensor::from_vec(
                y.dims(),
                g.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(&g, &y)| if y > 0.0 { g } else { 0.0 })
                    .collect(),
            )
            .unwrap()
        } else {
            g
        };
        let dx_reused = reused.backward(&g).unwrap();
        let dx_interrupted = interrupted.backward(&g).unwrap();

        let weight = trainables(&mut reused).swap_remove(0).0;
        let fresh =
            B::conv2d_backward(&x, &weight, &g, params, true, &mut Im2colScratch::new()).unwrap();
        let mut dw = Tensor::zeros(weight.dims());
        dw.add_assign(&fresh.d_weight).unwrap();
        for (label, layer, dx) in [
            ("reused", &mut reused, &dx_reused),
            ("interrupted", &mut interrupted, &dx_interrupted),
        ] {
            assert_bits(&format!("{label} d_input"), &fresh.d_input, dx);
            let grads = trainables(layer);
            assert_bits(&format!("{label} d_weight"), &dw, &grads[0].1);
        }
    }
}

#[test]
fn conv_cols_reuse_is_bit_identical_blocked() {
    conv_cols_reuse_on::<CpuBlocked>();
}

#[test]
fn conv_cols_reuse_is_bit_identical_reference() {
    conv_cols_reuse_on::<Reference>();
}

fn dense_input_grad_on<B: Backend>() {
    let mut rng = StdRng::seed_from_u64(47);
    // Output widths off and on the 8-lane panel grid, batches off and on
    // the 4-row band grid.
    for &(batch, inputs, outputs) in &[(10, 256, 120), (5, 84, 10), (4, 16, 8), (1, 3, 1)] {
        for fused in [false, true] {
            let mut d = if fused {
                Dense::<B>::new_fused_relu_on(&mut rng, inputs, outputs)
            } else {
                Dense::<B>::new_on(&mut rng, inputs, outputs)
            };
            let x = init::uniform(&mut rng, &[batch, inputs], -1.0, 1.0);
            let y = d.forward(&x, true).unwrap();
            let g = init::uniform(&mut rng, y.dims(), -1.0, 1.0);
            let dx = d.backward(&g).unwrap();
            let g_masked = if fused {
                y.as_slice()
                    .iter()
                    .zip(g.as_slice())
                    .map(|(&y, &g)| if y > 0.0 { g } else { 0.0 })
                    .collect()
            } else {
                g.as_slice().to_vec()
            };
            let g_masked = Tensor::from_vec(g.dims(), g_masked).unwrap();
            let want = g_masked.matmul_on::<B>(&d.weight().transpose().unwrap()).unwrap();
            assert_bits(&format!("dense {batch}x{inputs}x{outputs} fused={fused}"), &want, &dx);
        }
    }
}

#[test]
fn dense_input_grad_matches_explicit_transpose_blocked() {
    dense_input_grad_on::<CpuBlocked>();
}

#[test]
fn dense_input_grad_matches_explicit_transpose_reference() {
    dense_input_grad_on::<Reference>();
}
