//! The backend boundary: [`Backend`] + [`TensorOps`] + [`TensorElement`].
//!
//! Everything above `fedcav-tensor` — the nn layers, the FL stages, the
//! benches — reaches the kernels through this trait boundary, in the burn
//! style: a [`Backend`] names an element type (its storage
//! precision) and implements [`TensorOps`] (the kernel set a from-scratch
//! CNN training stack needs). Three backends live behind it:
//!
//! | backend        | storage | accumulation | kernels                     |
//! |----------------|---------|--------------|-----------------------------|
//! | [`CpuBlocked`]  | f32     | f32          | cache-blocked + AVX2/FMA    |
//! | [`Reference`]   | f32     | f32          | naive oracle (direct conv)  |
//! | [`F16Storage`]  | f16     | f32          | blocked, operands quantized |
//!
//! `F16Storage` stores parameters and activations on the binary16 grid
//! (see [`crate::f16`]) but accumulates every dot product, reduction, and
//! gradient in f32 — the standard mixed-precision recipe: quantizing the
//! *operands* bounds each value's representation error at 2^-11 relative,
//! while f32 accumulation keeps the summation error at the usual f32
//! level instead of compounding half-precision roundoff `k` times.
//! Gradients are never quantized (they flow to the f32 optimizer state).
//!
//! ## Selection
//!
//! The process-global backend is chosen once from `FEDCAV_BACKEND`
//! (`blocked` | `reference` | `f16`, default `blocked`) and cached.
//! Benches and tests override in-process with
//! [`force_backend_kind`]. Code that is *statically* generic over a
//! backend names it as a type parameter; code that wants "whatever the
//! process selected" uses [`Dispatch`], which forwards every op to the
//! chosen concrete backend.
//!
//! This module is on the `no-panic-in-round-loop` lint path — client
//! training runs inside the fault-tolerant round loop, so everything here
//! is written with iterators and checked slicing.

use crate::conv::{Conv2dGrads, Conv2dParams};
use crate::f16::F16;
use crate::im2col::{conv2d_backward_im2col_with, conv2d_forward_im2col_with, Im2colScratch};
use crate::matmul::{matmul_blocked_bt_into, matmul_blocked_into, matmul_reference_into, Epilogue};
use crate::pool::MaxPoolOut;
use crate::{Result, Tensor};
use std::sync::atomic::{AtomicU8, Ordering};

/// A scalar storage type a backend can keep parameters and activations in.
///
/// All arithmetic still happens in f32 (the accumulation type); an element
/// type only defines how values are *stored* — i.e. which grid they are
/// snapped to between ops.
pub trait TensorElement: Copy + Send + Sync + 'static {
    /// Human-readable element name (`"f32"`, `"f16"`).
    const NAME: &'static str;
    /// Relative tolerance the conformance suite grants this element when
    /// comparing against the f32 reference oracle.
    const REL_TOL: f32;
    /// Narrow an f32 onto this element's grid.
    fn from_f32(value: f32) -> Self;
    /// Widen back to f32 (exact for every element value).
    fn to_f32(self) -> f32;
    /// Round-trip an f32 through the element grid.
    #[inline]
    fn quantize(value: f32) -> f32 {
        Self::from_f32(value).to_f32()
    }
}

impl TensorElement for f32 {
    const NAME: &'static str = "f32";
    const REL_TOL: f32 = 1e-5;
    #[inline]
    fn from_f32(value: f32) -> f32 {
        value
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
}

impl TensorElement for F16 {
    const NAME: &'static str = "f16";
    // One binary16 ulp is 2^-11 ≈ 4.9e-4 relative; matmul/conv chains
    // compound a few of those, so the conformance suite grants 4e-3.
    const REL_TOL: f32 = 4e-3;
    #[inline]
    fn from_f32(value: f32) -> F16 {
        F16::from_f32(value)
    }
    #[inline]
    fn to_f32(self) -> f32 {
        F16::to_f32(self)
    }
}

/// Which concrete backend the process-global [`Dispatch`] forwards to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// [`CpuBlocked`]: the cache-blocked f32 kernels (default).
    CpuBlocked,
    /// [`Reference`]: the naive f32 oracle kernels.
    Reference,
    /// [`F16Storage`]: f16 storage with f32 accumulation.
    F16Storage,
}

impl BackendKind {
    /// Parse the `FEDCAV_BACKEND` spelling. `None` for anything else.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim() {
            "blocked" => Some(BackendKind::CpuBlocked),
            "reference" => Some(BackendKind::Reference),
            "f16" => Some(BackendKind::F16Storage),
            _ => None,
        }
    }

    /// Every selectable backend, in the order benches report them.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::CpuBlocked, BackendKind::Reference, BackendKind::F16Storage];
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::CpuBlocked => write!(f, "blocked"),
            BackendKind::Reference => write!(f, "reference"),
            BackendKind::F16Storage => write!(f, "f16"),
        }
    }
}

/// 0 = unresolved, 1 = blocked, 2 = reference, 3 = f16. An atomic (rather
/// than a `OnceLock`) so [`force_backend_kind`] can retarget benches and
/// tests in-process after the first read.
static KIND: AtomicU8 = AtomicU8::new(0);

/// Serializes tests that force the process-global backend against tests
/// that compare two backend-dependent calls bit-for-bit.
#[cfg(test)]
pub(crate) static KIND_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The backend kind in force: the last [`force_backend_kind`] value, else
/// `FEDCAV_BACKEND` read once and cached, else [`BackendKind::CpuBlocked`]. Unparseable values fall back to the
/// default rather than failing a run.
pub fn backend_kind() -> BackendKind {
    match KIND.load(Ordering::Relaxed) {
        1 => BackendKind::CpuBlocked,
        2 => BackendKind::Reference,
        3 => BackendKind::F16Storage,
        _ => {
            let kind = std::env::var("FEDCAV_BACKEND")
                .ok()
                .and_then(|v| BackendKind::parse(&v))
                .unwrap_or(BackendKind::CpuBlocked);
            force_backend_kind(kind);
            kind
        }
    }
}

/// Override the process-global backend (benches and tests; callers that
/// need the previous kind back should capture [`backend_kind`] first).
pub fn force_backend_kind(kind: BackendKind) {
    let tag = match kind {
        BackendKind::CpuBlocked => 1,
        BackendKind::Reference => 2,
        BackendKind::F16Storage => 3,
    };
    KIND.store(tag, Ordering::Relaxed);
}

/// The kernel set a backend provides. All arithmetic is f32-in/f32-out at
/// this boundary; a storage-quantizing backend (e.g. [`F16Storage`]) snaps
/// operands and outputs to its element grid *inside* these ops.
///
/// Only `matmul` and the conv pair are required: the pooling, reduction,
/// and storage hooks default to the shared f32 implementations, which is
/// exactly right for any f32-storage backend.
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

    /// Per-channel mean over an NCHW batch (batch-norm statistics stay in
    /// f32 on every backend — they feed a rsqrt, where half precision
    /// costs real accuracy).
    fn channel_mean(input: &Tensor) -> Result<Tensor> {
        crate::reduce::channel_mean(input)
    }

    /// Per-channel biased variance given channel means.
    fn channel_var(input: &Tensor, means: &Tensor) -> Result<Tensor> {
        crate::reduce::channel_var(input, means)
    }

    /// Snap a stored buffer (parameters or activations) onto the backend's
    /// element grid. No-op for f32-storage backends.
    fn project_store(_data: &mut [f32]) {}

    /// Project freshly initialised parameters onto the storage grid.
    /// Defaults to [`TensorOps::project_store`]; split out so a future
    /// backend can use a different init-time policy (e.g. stochastic
    /// rounding at init only).
    fn init_store(data: &mut [f32]) {
        Self::project_store(data)
    }

    /// Post-kernel numeric sanitation hook (see [`crate::sanitize`]).
    fn sanitize(op: &'static str, dims: &[usize], data: &[f32]) {
        crate::sanitize::check_output(op, dims, data);
    }
}

/// A named backend: a [`TensorOps`] kernel set plus the element type its
/// stored values live on.
pub trait Backend: TensorOps + Send + Sync + 'static {
    /// The storage element type (f32 for the full-precision backends).
    type Elem: TensorElement;
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
    type Elem = f32;
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
    type Elem = f32;
    const NAME: &'static str = "reference";
}

/// f16-storage backend: operands (parameters, activations, biases) are
/// snapped onto the binary16 grid before each op and outputs that model
/// *stored activations* are snapped after, while every accumulation —
/// dot products, reductions, all gradients — runs in f32 on the blocked
/// kernels. See the module docs for the numerics argument.
#[derive(Debug, Clone, Copy, Default)]
pub struct F16Storage;

/// Quantize a slice onto the f16 grid into a fresh buffer.
fn quantized(src: &[f32]) -> Vec<f32> {
    src.iter().map(|&v| F16::quantize(v)).collect()
}

/// Quantize a tensor onto the f16 grid (fresh copy, same shape).
fn quantized_tensor(src: &Tensor) -> Tensor {
    let mut out = src.clone();
    out.map_in_place(F16::quantize);
    out
}

/// Run a blocked product on f16-quantized operands (and bias), then snap
/// the output — a stored activation — onto the grid. ReLU commutes with
/// quantization (both preserve sign and zero), so fused epilogues stay
/// bitwise-invisible under f16 too.
fn f16_product(
    a: &[f32],
    b: &[f32],
    ep: Epilogue<'_>,
    out: &mut Vec<f32>,
    kernel: impl FnOnce(&[f32], &[f32], Epilogue<'_>, &mut Vec<f32>),
) {
    let qa = quantized(a);
    let qb = quantized(b);
    let qbias: Option<Vec<f32>> = match ep {
        Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) => Some(quantized(bias)),
        Epilogue::None | Epilogue::Relu => None,
    };
    let qep = match (ep, &qbias) {
        (Epilogue::Bias(_), Some(qb)) => Epilogue::Bias(qb.as_slice()),
        (Epilogue::BiasRelu(_), Some(qb)) => Epilogue::BiasRelu(qb.as_slice()),
        (Epilogue::Relu, _) => Epilogue::Relu,
        _ => Epilogue::None,
    };
    kernel(&qa, &qb, qep, out);
    F16Storage::project_store(out);
}

impl TensorOps for F16Storage {
    fn matmul(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: Epilogue<'_>,
        out: &mut Vec<f32>,
    ) {
        f16_product(a, b, ep, out, |qa, qb, qep, out| {
            matmul_blocked_into(qa, qb, m, k, n, qep, out)
        });
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
        // Quantization is elementwise, so it commutes with the transpose
        // the packer folds in.
        f16_product(a, b_t, ep, out, |qa, qb_t, qep, out| {
            matmul_blocked_bt_into(qa, qb_t, m, k, n, qep, out)
        });
    }

    fn conv2d_forward(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        params: Conv2dParams,
        relu: bool,
        scratch: &mut Im2colScratch,
    ) -> Result<Tensor> {
        let qi = quantized_tensor(input);
        let qw = quantized_tensor(weight);
        let qb = quantized_tensor(bias);
        let mut out = conv2d_forward_im2col_with(&qi, &qw, &qb, params, relu, scratch)?;
        out.map_in_place(F16::quantize);
        Ok(out)
    }

    fn conv2d_backward(
        input: &Tensor,
        weight: &Tensor,
        d_out: &Tensor,
        params: Conv2dParams,
        need_input_grad: bool,
        scratch: &mut Im2colScratch,
    ) -> Result<Conv2dGrads> {
        // Stored operands are quantized; the upstream gradient and all
        // three gradient outputs stay f32 (accumulate-in-f32).
        let qi = quantized_tensor(input);
        let qw = quantized_tensor(weight);
        conv2d_backward_im2col_with(&qi, &qw, d_out, params, need_input_grad, scratch)
    }

    fn global_avgpool_forward(input: &Tensor) -> Result<Tensor> {
        // The mean of grid values is generally off-grid; the output is a
        // stored activation, so snap it. (Max pooling needs no projection:
        // the max of grid values is already on the grid.)
        let mut out = crate::pool::global_avgpool_forward(input)?;
        out.map_in_place(F16::quantize);
        Ok(out)
    }

    fn project_store(data: &mut [f32]) {
        for v in data.iter_mut() {
            *v = F16::quantize(*v);
        }
    }
}

impl Backend for F16Storage {
    type Elem = F16;
    const NAME: &'static str = "f16";
}

/// The process-global backend: forwards every op to the backend selected
/// by [`backend_kind`]. This is the default backend parameter everywhere
/// above `fedcav-tensor`, so existing monomorphic code keeps the old
/// env-selected behaviour bit for bit.
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
            BackendKind::F16Storage => F16Storage::matmul(a, b, m, k, n, ep, out),
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
            BackendKind::F16Storage => F16Storage::matmul_bt(a, b_t, m, k, n, ep, out),
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
            BackendKind::F16Storage => {
                F16Storage::conv2d_forward(input, weight, bias, params, relu, scratch)
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
            BackendKind::F16Storage => {
                F16Storage::conv2d_backward(input, weight, d_out, params, need, scratch)
            }
        }
    }

    fn global_avgpool_forward(input: &Tensor) -> Result<Tensor> {
        match backend_kind() {
            BackendKind::F16Storage => F16Storage::global_avgpool_forward(input),
            BackendKind::CpuBlocked | BackendKind::Reference => {
                crate::pool::global_avgpool_forward(input)
            }
        }
    }

    fn project_store(data: &mut [f32]) {
        match backend_kind() {
            BackendKind::F16Storage => F16Storage::project_store(data),
            BackendKind::CpuBlocked | BackendKind::Reference => {}
        }
    }

    fn init_store(data: &mut [f32]) {
        Self::project_store(data)
    }
}

impl Backend for Dispatch {
    type Elem = f32;
    const NAME: &'static str = "dispatch";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 % 23) as f32 - 11.0) * scale).collect()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(BackendKind::parse(" f16 "), Some(BackendKind::F16Storage));
        assert_eq!(BackendKind::parse("f64"), None);
    }

    #[test]
    fn force_overrides_and_restores_kind() {
        let _guard = KIND_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let ambient = backend_kind();
        for kind in BackendKind::ALL {
            force_backend_kind(kind);
            assert_eq!(backend_kind(), kind);
        }
        force_backend_kind(ambient);
        assert_eq!(backend_kind(), ambient);
    }

    #[test]
    fn dispatch_matches_forced_backend_bitwise() {
        let _guard = KIND_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let ambient = backend_kind();
        let (m, k, n) = (7, 5, 9);
        let a = seq(m * k, 0.25);
        let b = seq(k * n, 0.5);
        let mut via_dispatch = Vec::new();
        let mut direct = Vec::new();
        for kind in BackendKind::ALL {
            force_backend_kind(kind);
            Dispatch::matmul(&a, &b, m, k, n, Epilogue::None, &mut via_dispatch);
            match kind {
                BackendKind::CpuBlocked => {
                    CpuBlocked::matmul(&a, &b, m, k, n, Epilogue::None, &mut direct)
                }
                BackendKind::Reference => {
                    Reference::matmul(&a, &b, m, k, n, Epilogue::None, &mut direct)
                }
                BackendKind::F16Storage => {
                    F16Storage::matmul(&a, &b, m, k, n, Epilogue::None, &mut direct)
                }
            }
            let same = via_dispatch.iter().zip(&direct).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "dispatch diverged from {kind}");
        }
        force_backend_kind(ambient);
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
                let same = want.len() == got.len()
                    && want.iter().zip(&got).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{}: {m}x{k}x{n} {ep:?}", B::NAME);
            }
        }
    }

    #[test]
    fn matmul_bt_is_bit_identical_to_matmul_of_the_transpose() {
        matmul_bt_matches_transposed_matmul::<CpuBlocked>();
        matmul_bt_matches_transposed_matmul::<Reference>();
        matmul_bt_matches_transposed_matmul::<F16Storage>();
    }

    #[test]
    fn f16_matmul_output_is_on_grid() {
        let (m, k, n) = (4, 6, 5);
        let a = seq(m * k, 0.13);
        let b = seq(k * n, 0.07);
        let mut out = Vec::new();
        F16Storage::matmul(&a, &b, m, k, n, Epilogue::None, &mut out);
        assert_eq!(out.len(), m * n);
        for &v in &out {
            assert_eq!(v.to_bits(), F16::quantize(v).to_bits(), "{v} is off-grid");
        }
    }

    #[test]
    fn f16_matmul_tracks_f32_within_tol() {
        let (m, k, n) = (8, 16, 8);
        let a = seq(m * k, 0.05);
        let b = seq(k * n, 0.03);
        let mut exact = Vec::new();
        let mut half = Vec::new();
        CpuBlocked::matmul(&a, &b, m, k, n, Epilogue::None, &mut exact);
        F16Storage::matmul(&a, &b, m, k, n, Epilogue::None, &mut half);
        for (x, h) in exact.iter().zip(&half) {
            let tol = <F16 as TensorElement>::REL_TOL * x.abs().max(1.0);
            assert!((x - h).abs() <= tol, "{x} vs {h}");
        }
    }

    #[test]
    fn f16_project_store_is_idempotent() {
        let mut data = seq(64, 0.019);
        F16Storage::project_store(&mut data);
        let once = data.clone();
        F16Storage::project_store(&mut data);
        assert_eq!(once, data);
    }

    #[test]
    fn f32_backends_do_not_project() {
        let mut data = vec![0.1f32, 0.2, 0.3];
        let orig = data.clone();
        CpuBlocked::project_store(&mut data);
        Reference::project_store(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn element_metadata() {
        assert_eq!(<f32 as TensorElement>::NAME, "f32");
        assert_eq!(<F16 as TensorElement>::NAME, "f16");
        assert!(<F16 as TensorElement>::REL_TOL > <f32 as TensorElement>::REL_TOL);
        assert_eq!(f32::quantize(0.1), 0.1);
        assert_eq!(<F16 as TensorElement>::quantize(1.0), 1.0);
    }
}
