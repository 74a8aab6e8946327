//! Property-based tests of the tensor kernels: algebraic identities that
//! must hold for any shapes/values, and numerical-stability invariants.

use fedcav::tensor::conv::{conv2d_forward, Conv2dParams};
use fedcav::tensor::pool::{maxpool2d_backward, maxpool2d_forward};
use fedcav::tensor::{numerics, Tensor};
use support::{forall, Gen};

#[macro_use]
mod support;

const CASES: usize = 32;

fn finite_vec(g: &mut Gen, len: usize) -> Vec<f32> {
    g.vec(len, |g| g.f32_in(-100.0, 100.0))
}

// -------------------------------------------------------------- elementwise

#[test]
fn add_commutes() {
    forall(
        "add_commutes",
        CASES,
        |g| (finite_vec(g, 24), finite_vec(g, 24)),
        |(v, w)| {
            let a = Tensor::from_vec(&[4, 6], v.clone()).unwrap();
            let b = Tensor::from_vec(&[4, 6], w.clone()).unwrap();
            ensure_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
            Ok(())
        },
    );
}

#[test]
fn sub_is_add_of_negation() {
    forall(
        "sub_is_add_of_negation",
        CASES,
        |g| (finite_vec(g, 12), finite_vec(g, 12)),
        |(v, w)| {
            let a = Tensor::from_vec(&[12], v.clone()).unwrap();
            let b = Tensor::from_vec(&[12], w.clone()).unwrap();
            let direct = a.sub(&b).unwrap();
            let via_neg = a.add(&b.scale(-1.0)).unwrap();
            for (x, y) in direct.as_slice().iter().zip(via_neg.as_slice()) {
                ensure!((x - y).abs() < 1e-4);
            }
            Ok(())
        },
    );
}

#[test]
fn axpy_matches_scale_add() {
    forall(
        "axpy_matches_scale_add",
        CASES,
        |g| (finite_vec(g, 16), finite_vec(g, 16), g.f32_in(-5.0, 5.0)),
        |(v, w, k)| {
            let a = Tensor::from_vec(&[16], v.clone()).unwrap();
            let b = Tensor::from_vec(&[16], w.clone()).unwrap();
            let mut lhs = a.clone();
            lhs.axpy(*k, &b).unwrap();
            let rhs = a.add(&b.scale(*k)).unwrap();
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                ensure!((x - y).abs() < 1e-3);
            }
            Ok(())
        },
    );
}

// ------------------------------------------------------------------- matmul

#[test]
fn matmul_distributes_over_addition() {
    forall(
        "matmul_distributes_over_addition",
        CASES,
        |g| (finite_vec(g, 6), finite_vec(g, 6), finite_vec(g, 6)),
        |(a, b, c)| {
            // A(B + C) = AB + AC for 2x3 x 3x2 matrices.
            let a = Tensor::from_vec(&[2, 3], a.clone()).unwrap();
            let b = Tensor::from_vec(&[3, 2], b.clone()).unwrap();
            let c = Tensor::from_vec(&[3, 2], c.clone()).unwrap();
            let bc = b.add(&c).unwrap();
            let lhs = a.matmul(&bc).unwrap();
            let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
            let tol = 0.5;
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                ensure!((x - y).abs() < tol, "{x} vs {y} (tol {tol})");
            }
            Ok(())
        },
    );
}

#[test]
fn matmul_transpose_identity() {
    forall(
        "matmul_transpose_identity",
        CASES,
        |g| (finite_vec(g, 6), finite_vec(g, 6)),
        |(a, b)| {
            // (AB)^T = B^T A^T.
            let a = Tensor::from_vec(&[2, 3], a.clone()).unwrap();
            let b = Tensor::from_vec(&[3, 2], b.clone()).unwrap();
            let lhs = a.matmul(&b).unwrap().transpose().unwrap();
            let rhs = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                ensure!((x - y).abs() < 0.5);
            }
            Ok(())
        },
    );
}

// ----------------------------------------------------------------- numerics

fn logit_vec(g: &mut Gen) -> Vec<f32> {
    let len = g.int_in(1, 29);
    g.vec(len, |g| g.f32_in(-50.0, 50.0))
}

#[test]
fn softmax_is_distribution() {
    forall("softmax_is_distribution", CASES, logit_vec, |v| {
        let s = numerics::softmax(v);
        ensure!((s.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        ensure!(s.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
        Ok(())
    });
}

#[test]
fn logsumexp_shift_identity() {
    forall(
        "logsumexp_shift_identity",
        CASES,
        |g| (logit_vec(g), g.f32_in(-100.0, 100.0)),
        |(v, c)| {
            // logsumexp(x + c) = logsumexp(x) + c.
            let shifted: Vec<f32> = v.iter().map(|x| x + c).collect();
            let lhs = numerics::logsumexp(&shifted);
            let rhs = numerics::logsumexp(v) + c;
            ensure!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
            Ok(())
        },
    );
}

#[test]
fn cross_entropy_nonnegative() {
    forall(
        "cross_entropy_nonnegative",
        CASES,
        |g| (finite_vec(g, 30), g.vec(3, |g| g.int_in(0, 9))),
        |(v, labels)| {
            let logits = Tensor::from_vec(&[3, 10], v.clone()).unwrap();
            let l = numerics::cross_entropy_mean(&logits, labels).unwrap();
            ensure!(l >= -1e-5, "CE must be non-negative, got {l}");
            Ok(())
        },
    );
}

#[test]
fn accuracy_bounded() {
    forall(
        "accuracy_bounded",
        CASES,
        |g| (finite_vec(g, 20), g.vec(4, |g| g.int_in(0, 4))),
        |(v, labels)| {
            let logits = Tensor::from_vec(&[4, 5], v.clone()).unwrap();
            let a = numerics::accuracy(&logits, labels).unwrap();
            ensure!((0.0..=1.0).contains(&a));
            Ok(())
        },
    );
}

// ---------------------------------------------------------------- conv/pool

#[test]
fn conv_is_linear_in_input() {
    forall(
        "conv_is_linear_in_input",
        CASES,
        |g| (finite_vec(g, 2 * 16), finite_vec(g, 2 * 16), g.f32_in(-2.0, 2.0)),
        |(x, y, k)| {
            // conv(x + k*y) = conv(x) + k*conv(y) with fixed weights.
            let x = Tensor::from_vec(&[2, 1, 4, 4], x.clone()).unwrap();
            let y = Tensor::from_vec(&[2, 1, 4, 4], y.clone()).unwrap();
            let w = Tensor::ones(&[1, 1, 3, 3]);
            let b = Tensor::zeros(&[1]);
            let p = Conv2dParams { stride: 1, padding: 1 };
            let mixed = x.add(&y.scale(*k)).unwrap();
            let lhs = conv2d_forward(&mixed, &w, &b, p).unwrap();
            let rhs = conv2d_forward(&x, &w, &b, p)
                .unwrap()
                .add(&conv2d_forward(&y, &w, &b, p).unwrap().scale(*k))
                .unwrap();
            for (a_, b_) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                ensure!((a_ - b_).abs() < 0.1, "{a_} vs {b_}");
            }
            Ok(())
        },
    );
}

#[test]
fn maxpool_output_bounded_by_input() {
    forall(
        "maxpool_output_bounded_by_input",
        CASES,
        |g| finite_vec(g, 16),
        |v| {
            let x = Tensor::from_vec(&[1, 1, 4, 4], v.clone()).unwrap();
            let out = maxpool2d_forward(&x, 2).unwrap();
            let max_in = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for &o in out.output.as_slice() {
                ensure!(o <= max_in + 1e-6);
                ensure!(v.contains(&o), "pool output must be an input element");
            }
            Ok(())
        },
    );
}

#[test]
fn maxpool_backward_conserves_gradient_mass() {
    forall(
        "maxpool_backward_conserves_gradient_mass",
        CASES,
        |g| (finite_vec(g, 16), finite_vec(g, 4)),
        |(v, g)| {
            let x = Tensor::from_vec(&[1, 1, 4, 4], v.clone()).unwrap();
            let fwd = maxpool2d_forward(&x, 2).unwrap();
            let d_out = Tensor::from_vec(&[1, 1, 2, 2], g.clone()).unwrap();
            let dx = maxpool2d_backward(&[1, 1, 4, 4], &fwd.argmax, &d_out).unwrap();
            let mass_out: f32 = g.iter().sum();
            let mass_in: f32 = dx.as_slice().iter().sum();
            ensure!((mass_out - mass_in).abs() < 1e-3);
            Ok(())
        },
    );
}

// ------------------------------------------------------------------ reshape

#[test]
fn reshape_preserves_data() {
    forall(
        "reshape_preserves_data",
        CASES,
        |g| finite_vec(g, 24),
        |v| {
            let a = Tensor::from_vec(&[2, 3, 4], v.clone()).unwrap();
            let b = a.reshape(&[6, 4]).unwrap().reshape(&[24]).unwrap();
            ensure_eq!(b.as_slice(), &v[..]);
            Ok(())
        },
    );
}

#[test]
fn gather_rows_picks_exact_rows() {
    forall(
        "gather_rows_picks_exact_rows",
        CASES,
        |g| {
            let len = g.int_in(1, 7);
            (finite_vec(g, 20), g.vec(len, |g| g.int_in(0, 4)))
        },
        |(v, idx)| {
            let a = Tensor::from_vec(&[5, 4], v.clone()).unwrap();
            let g = a.gather_rows(idx).unwrap();
            for (row_out, &i) in g.as_slice().chunks(4).zip(idx) {
                ensure_eq!(row_out, &v[i * 4..(i + 1) * 4]);
            }
            Ok(())
        },
    );
}
