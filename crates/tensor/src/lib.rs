#![warn(missing_docs)]
//! # fedcav-tensor
//!
//! A small, dependency-light dense tensor library backing the FedCav
//! reproduction. It provides exactly the kernels a from-scratch CNN training
//! stack needs:
//!
//! * an owned, contiguous, row-major [`Tensor`] of `f32`,
//! * a [`backend`] trait boundary ([`Backend`] + [`TensorOps`]) with two
//!   backends, the cache-blocked default and the naive reference oracle,
//!   named as types or selected for the whole process by `FEDCAV_BACKEND`,
//! * a hand-written IEEE binary16 [`f16`] scalar (the wire codec's `f16`
//!   scheme narrows through it),
//! * single-threaded [`matmul`](Tensor::matmul) — a cache-blocked,
//!   register-tiled kernel with fused bias/ReLU epilogues by default, plus
//!   the original naive kernel behind `FEDCAV_BACKEND=reference` as the
//!   differential-test oracle (see [`matmul`](crate::matmul)) — and direct
//!   2-D convolution (forward and backward) in NCHW layout,
//! * an im2col convolution lowering with a reusable scratch arena
//!   ([`im2col::Im2colScratch`]) so conv layers stop allocating per call,
//! * max/average pooling with backward passes,
//! * numerically stable softmax / log-sum-exp / cross-entropy,
//! * deterministic random initialisation (uniform, normal, Xavier/Kaiming),
//! * opt-in op-level profiling [`counters`] (FLOPs / bytes moved per kernel,
//!   off by default behind one relaxed atomic load),
//! * an opt-in post-kernel NaN/Inf [`sanitize`]r (compiled behind
//!   `feature = "sanitize"`) that names the op and shape that first went
//!   non-finite.
//!
//! The library is deliberately *not* an autograd engine: the companion
//! `fedcav-nn` crate implements explicit layer-by-layer backward passes on
//! top of these kernels, which keeps the numerics auditable — important when
//! the experiment being reproduced is about *loss values* driving
//! aggregation weights.

pub mod backend;
pub mod conv;
pub mod counters;
pub mod error;
pub mod f16;
pub mod im2col;
pub mod init;
pub mod matmul;
pub mod numerics;
pub mod pool;
pub mod reduce;
pub mod sanitize;
pub mod shape;
pub mod tensor;

pub use backend::{
    backend_kind, force_backend_kind, Backend, BackendKind, CpuBlocked, Dispatch, Reference,
    TensorOps,
};
pub use counters::OpCounters;
pub use error::TensorError;
pub use f16::F16;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
