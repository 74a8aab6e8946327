//! The backend boundary: [`Backend`] + [`TensorOps`].
//!
//! Everything above `fedcav-tensor` — the nn layers, the FL stages, the
//! benches — reaches the kernels through this trait boundary, in the burn
//! style: a [`Backend`] implements [`TensorOps`] (the kernel set a
//! from-scratch CNN training stack needs). Two f32 backends live behind
//! it:
//!
//! | backend         | kernels                    |
//! |-----------------|----------------------------|
//! | [`CpuBlocked`]  | cache-blocked + AVX2/FMA   |
//! | [`Reference`]   | naive oracle (direct conv) |
//!
//! ## Selection
//!
//! A caller that needs a particular backend names it as a type: the
//! layers are generic over `B: Backend`, and `fedcav-nn`'s model
//! constructors have `_on::<B>` forms. Code that wants "whatever the
//! process selected" uses [`Dispatch`], which forwards every op to the
//! process backend: `FEDCAV_BACKEND` (`blocked` | `reference`, default
//! `blocked`) read once, on first use, into a `OnceLock`. Once resolved it
//! never changes, so the kernel set behind a run cannot change while the
//! run is going.
//!
//! This module is on the `no-panic-in-round-loop` lint path — client
//! training runs inside the fault-tolerant round loop, so everything here
//! is written with iterators and checked slicing.

use crate::conv::{Conv2dGrads, Conv2dParams};
use crate::im2col::{conv2d_backward_im2col_with, conv2d_forward_im2col_with, Im2colScratch};
use crate::matmul::{matmul_blocked_bt_into, matmul_blocked_into, matmul_reference_into, Epilogue};
use crate::pool::MaxPoolOut;
use crate::{Result, Tensor};
use std::sync::OnceLock;

/// Which concrete backend the process-global [`Dispatch`] forwards to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// [`CpuBlocked`]: the cache-blocked f32 kernels (default).
    CpuBlocked,
    /// [`Reference`]: the naive f32 oracle kernels.
    Reference,
}

impl BackendKind {
    /// Parse the `FEDCAV_BACKEND` spelling. `None` for anything else.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim() {
            "blocked" => Some(BackendKind::CpuBlocked),
            "reference" => Some(BackendKind::Reference),
            _ => None,
        }
    }

    /// Every selectable backend, in the order benches report them.
    pub const ALL: [BackendKind; 2] = [BackendKind::CpuBlocked, BackendKind::Reference];
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::CpuBlocked => write!(f, "blocked"),
            BackendKind::Reference => write!(f, "reference"),
        }
    }
}

/// The process backend, written at most once.
static PROCESS: OnceLock<BackendKind> = OnceLock::new();

/// The process backend [`Dispatch`] forwards to: `FEDCAV_BACKEND`, read
/// once on first use, else [`BackendKind::CpuBlocked`]. Unparseable values
/// fall back to the default rather than failing a run.
pub fn backend_kind() -> BackendKind {
    *PROCESS.get_or_init(|| {
        std::env::var("FEDCAV_BACKEND")
            .ok()
            .and_then(|v| BackendKind::parse(&v))
            .unwrap_or(BackendKind::CpuBlocked)
    })
}

/// Pin the process backend to `kind` if it is not yet resolved, for a
/// binary that fixes it at the top of `main`, before any kernel runs. A
/// resolved process backend is never changed. Code that needs a
/// particular backend should name it as a type instead.
pub fn force_backend_kind(kind: BackendKind) {
    let _ = PROCESS.set(kind);
}

/// The kernel set a backend provides. All arithmetic is f32-in/f32-out at
/// this boundary.
///
/// Only `matmul` and the conv pair are required: the pooling, reduction
/// and sanitation hooks default to the shared f32 implementations.
pub trait TensorOps {
    /// `out = a × b` through the epilogue; `a` is `[m,k]`, `b` is `[k,n]`,
    /// both row-major. `out` is cleared and resized.
    fn matmul(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: Epilogue<'_>,
        out: &mut Vec<f32>,
    );

    /// `out = a × b_tᵀ` through the epilogue, with the right operand given
    /// as its `[n,k]` row-major transpose `b_t`. Must be bit-identical to
    /// [`TensorOps::matmul`] on the materialized `[k,n]` transpose, which
    /// is what the default does; backends override it to skip building
    /// the transpose.
    fn matmul_bt(
        a: &[f32],
        b_t: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: Epilogue<'_>,
        out: &mut Vec<f32>,
    ) {
        let mut b = Vec::new();
        crate::tensor::transpose_into(b_t, n, k, &mut b);
        Self::matmul(a, &b, m, k, n, ep, out);
    }

    /// Forward NCHW convolution with fused bias (and ReLU when `relu`).
    /// On the im2col backends this leaves the unfolded input in
    /// `scratch`, where the backward of the same input reuses it (see
    /// [`crate::im2col`]).
    fn conv2d_forward(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        params: Conv2dParams,
        relu: bool,
        scratch: &mut Im2colScratch,
    ) -> Result<Tensor>;

    /// Backward NCHW convolution: `d_input`, `d_weight`, `d_bias`. With
    /// `need_input_grad == false` the input gradient is not computed and
    /// `d_input` is an empty `[0]` tensor; `d_weight` and `d_bias` are
    /// bit-identical either way.
    fn conv2d_backward(
        input: &Tensor,
        weight: &Tensor,
        d_out: &Tensor,
        params: Conv2dParams,
        need_input_grad: bool,
        scratch: &mut Im2colScratch,
    ) -> Result<Conv2dGrads>;

    /// Non-overlapping max pooling with square window `k`.
    fn maxpool2d_forward(input: &Tensor, k: usize) -> Result<MaxPoolOut> {
        crate::pool::maxpool2d_forward(input, k)
    }

    /// Backward max pooling (routes gradients to the argmax sources).
    fn maxpool2d_backward(
        input_dims: &[usize],
        argmax: &[usize],
        d_out: &Tensor,
    ) -> Result<Tensor> {
        crate::pool::maxpool2d_backward(input_dims, argmax, d_out)
    }

    /// Global average pooling `[n,c,h,w] -> [n,c]`.
    fn global_avgpool_forward(input: &Tensor) -> Result<Tensor> {
        crate::pool::global_avgpool_forward(input)
    }

    /// Backward global average pooling (uniform spread).
    fn global_avgpool_backward(input_dims: &[usize], d_out: &Tensor) -> Result<Tensor> {
        crate::pool::global_avgpool_backward(input_dims, d_out)
    }

    /// Per-channel mean over an NCHW batch.
    fn channel_mean(input: &Tensor) -> Result<Tensor> {
        crate::reduce::channel_mean(input)
    }

    /// Per-channel biased variance given channel means.
    fn channel_var(input: &Tensor, means: &Tensor) -> Result<Tensor> {
        crate::reduce::channel_var(input, means)
    }

    /// Post-kernel numeric sanitation hook (see [`crate::sanitize`]).
    fn sanitize(op: &'static str, dims: &[usize], data: &[f32]) {
        crate::sanitize::check_output(op, dims, data);
    }
}

/// A named [`TensorOps`] kernel set.
pub trait Backend: TensorOps + Send + Sync + 'static {
    /// Name used in env selection, benches, and test labels.
    const NAME: &'static str;
}

/// The cache-blocked, register-tiled f32 backend (default) — today's
/// AVX2+FMA kernels behind the trait boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuBlocked;

impl TensorOps for CpuBlocked {
    fn matmul(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: Epilogue<'_>,
        out: &mut Vec<f32>,
    ) {
        matmul_blocked_into(a, b, m, k, n, ep, out);
    }

    fn matmul_bt(
        a: &[f32],
        b_t: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: Epilogue<'_>,
        out: &mut Vec<f32>,
    ) {
        matmul_blocked_bt_into(a, b_t, m, k, n, ep, out);
    }

    fn conv2d_forward(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        params: Conv2dParams,
        relu: bool,
        scratch: &mut Im2colScratch,
    ) -> Result<Tensor> {
        conv2d_forward_im2col_with(input, weight, bias, params, relu, scratch)
    }

    fn conv2d_backward(
        input: &Tensor,
        weight: &Tensor,
        d_out: &Tensor,
        params: Conv2dParams,
        need_input_grad: bool,
        scratch: &mut Im2colScratch,
    ) -> Result<Conv2dGrads> {
        conv2d_backward_im2col_with(input, weight, d_out, params, need_input_grad, scratch)
    }
}

impl Backend for CpuBlocked {
    const NAME: &'static str = "blocked";
}

/// The naive f32 oracle backend: reference matmul and the *direct* conv
/// kernels (not the im2col lowering).
#[derive(Debug, Clone, Copy, Default)]
pub struct Reference;

impl TensorOps for Reference {
    fn matmul(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: Epilogue<'_>,
        out: &mut Vec<f32>,
    ) {
        matmul_reference_into(a, b, m, k, n, ep, out);
    }

    fn conv2d_forward(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        params: Conv2dParams,
        relu: bool,
        _scratch: &mut Im2colScratch,
    ) -> Result<Tensor> {
        let mut out = crate::conv::conv2d_forward(input, weight, bias, params)?;
        if relu {
            out.map_in_place(|v| v.max(0.0));
        }
        Ok(out)
    }

    fn conv2d_backward(
        input: &Tensor,
        weight: &Tensor,
        d_out: &Tensor,
        params: Conv2dParams,
        need_input_grad: bool,
        _scratch: &mut Im2colScratch,
    ) -> Result<Conv2dGrads> {
        crate::conv::direct_backward(input, weight, d_out, params, need_input_grad)
    }
}

impl Backend for Reference {
    const NAME: &'static str = "reference";
}

/// The process backend: forwards every op to the backend [`backend_kind`]
/// reports. This is the default backend parameter everywhere above
/// `fedcav-tensor`, so code that names no backend runs on the one
/// `FEDCAV_BACKEND` selects.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dispatch;

impl TensorOps for Dispatch {
    fn matmul(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: Epilogue<'_>,
        out: &mut Vec<f32>,
    ) {
        match backend_kind() {
            BackendKind::CpuBlocked => CpuBlocked::matmul(a, b, m, k, n, ep, out),
            BackendKind::Reference => Reference::matmul(a, b, m, k, n, ep, out),
        }
    }

    fn matmul_bt(
        a: &[f32],
        b_t: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: Epilogue<'_>,
        out: &mut Vec<f32>,
    ) {
        match backend_kind() {
            BackendKind::CpuBlocked => CpuBlocked::matmul_bt(a, b_t, m, k, n, ep, out),
            BackendKind::Reference => Reference::matmul_bt(a, b_t, m, k, n, ep, out),
        }
    }

    fn conv2d_forward(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        params: Conv2dParams,
        relu: bool,
        scratch: &mut Im2colScratch,
    ) -> Result<Tensor> {
        match backend_kind() {
            BackendKind::CpuBlocked => {
                CpuBlocked::conv2d_forward(input, weight, bias, params, relu, scratch)
            }
            BackendKind::Reference => {
                Reference::conv2d_forward(input, weight, bias, params, relu, scratch)
            }
        }
    }

    fn conv2d_backward(
        input: &Tensor,
        weight: &Tensor,
        d_out: &Tensor,
        params: Conv2dParams,
        need_input_grad: bool,
        scratch: &mut Im2colScratch,
    ) -> Result<Conv2dGrads> {
        let need = need_input_grad;
        match backend_kind() {
            BackendKind::CpuBlocked => {
                CpuBlocked::conv2d_backward(input, weight, d_out, params, need, scratch)
            }
            BackendKind::Reference => {
                Reference::conv2d_backward(input, weight, d_out, params, need, scratch)
            }
        }
    }
}

impl Backend for Dispatch {
    const NAME: &'static str = "dispatch";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 % 23) as f32 - 11.0) * scale).collect()
    }

    fn same_bits(x: &[f32], y: &[f32]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    #[test]
    fn parse_and_display_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(BackendKind::parse(" reference "), Some(BackendKind::Reference));
        assert_eq!(BackendKind::parse("f16"), None);
        assert_eq!(BackendKind::parse("f64"), None);
    }

    #[test]
    fn there_are_exactly_two_backends() {
        assert_eq!(BackendKind::ALL.len(), 2);
        assert_ne!(BackendKind::ALL[0], BackendKind::ALL[1]);
    }

    #[test]
    fn force_never_changes_a_resolved_process_backend() {
        let resolved = backend_kind();
        for kind in BackendKind::ALL {
            force_backend_kind(kind);
            assert_eq!(backend_kind(), resolved);
        }
    }

    /// `B`'s matmul and conv forward, for comparing two backends bitwise.
    fn outputs_on<B: Backend>() -> (Vec<f32>, Vec<f32>) {
        let (m, k, n) = (7, 5, 9);
        let mut product = Vec::new();
        B::matmul(&seq(m * k, 0.25), &seq(k * n, 0.5), m, k, n, Epilogue::None, &mut product);
        let input = Tensor::from_vec(&[1, 2, 6, 6], seq(72, 0.1)).expect("input");
        let weight = Tensor::from_vec(&[3, 2, 3, 3], seq(54, 0.2)).expect("weight");
        let bias = Tensor::from_vec(&[3], seq(3, 0.3)).expect("bias");
        let mut scratch = Im2colScratch::new();
        let conv =
            B::conv2d_forward(&input, &weight, &bias, Conv2dParams::default(), true, &mut scratch)
                .expect("conv");
        (product, conv.as_slice().to_vec())
    }

    #[test]
    fn dispatch_matches_the_process_backend_bitwise() {
        let (product, conv) = outputs_on::<Dispatch>();
        let (want_product, want_conv) = match backend_kind() {
            BackendKind::CpuBlocked => outputs_on::<CpuBlocked>(),
            BackendKind::Reference => outputs_on::<Reference>(),
        };
        assert!(same_bits(&product, &want_product), "dispatch matmul diverged");
        assert!(same_bits(&conv, &want_conv), "dispatch conv diverged");
    }

    fn matmul_bt_matches_transposed_matmul<B: Backend>() {
        for &(m, k, n) in &[(5, 7, 9), (10, 120, 84), (4, 3, 8), (2, 0, 3)] {
            let a = seq(m * k, 0.25);
            let b_t = seq(n * k, 0.5);
            let mut b = Vec::new();
            crate::tensor::transpose_into(&b_t, n, k, &mut b);
            let bias = seq(n, 0.3);
            for ep in [Epilogue::None, Epilogue::Relu, Epilogue::BiasRelu(&bias)] {
                let (mut want, mut got) = (Vec::new(), Vec::new());
                B::matmul(&a, &b, m, k, n, ep, &mut want);
                B::matmul_bt(&a, &b_t, m, k, n, ep, &mut got);
                assert!(same_bits(&want, &got), "{}: {m}x{k}x{n} {ep:?}", B::NAME);
            }
        }
    }

    #[test]
    fn matmul_bt_is_bit_identical_to_matmul_of_the_transpose() {
        matmul_bt_matches_transposed_matmul::<CpuBlocked>();
        matmul_bt_matches_transposed_matmul::<Reference>();
    }
}
