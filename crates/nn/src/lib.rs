#![warn(missing_docs)]
//! # fedcav-nn
//!
//! Explicit forward/backward neural-network layers on top of
//! [`fedcav_tensor`], plus the three model architectures the FedCav paper
//! evaluates (§5.1.1):
//!
//! * [`models::lenet5`] — LeNet-5 for MNIST-like 1×28×28 inputs,
//! * [`models::cnn9`] — a 9-layer CNN for FMNIST-like inputs,
//! * [`models::resnet18`] — ResNet-18 topology (width-configurable) for
//!   CIFAR-10-like 3×32×32 inputs,
//! * [`models::mlp`] — a small MLP used by fast tests and the quickstart.
//!
//! The design is deliberately *not* a tape-based autograd: every layer
//! implements its own [`Layer::backward`], which keeps the loss/gradient
//! numerics auditable — the experiment reproduced here is about per-client
//! *loss values* steering server-side aggregation, so the loss path must be
//! trustworthy.
//!
//! ## The FL wire format
//!
//! [`Sequential::flat_params`] / [`Sequential::set_flat_params`] serialise
//! the complete model state (trainable weights **and** batch-norm running
//! statistics) into one `Vec<f32>`. That flat vector is what clients upload
//! and what every aggregation strategy averages.

pub mod activations;
pub mod adam;
pub mod conv;
pub mod dense;
pub mod dropout;
pub mod flatten;
pub mod layer;
pub mod loss;
pub mod models;
pub mod norm;
pub mod optim;
pub mod pool;
pub mod quant;
pub mod residual;
pub mod schedule;
pub mod sequential;
pub mod summary;
pub mod wire;

#[cfg(test)]
mod backward_identity;

pub use activations::ReLU;
pub use adam::{Adam, AdamConfig};
pub use conv::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use layer::Layer;
pub use loss::SoftmaxCrossEntropy;
pub use norm::BatchNorm2d;
pub use optim::{Sgd, SgdConfig};
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use residual::BasicBlock;
pub use sequential::Sequential;
pub use wire::{CodecSpec, WireCodec, WireError, WireFrame};

pub use fedcav_tensor::{Result, Tensor, TensorError};

/// Serializes tests that force the process-global kernel mode against
/// tests that compare two mode-dependent layer calls bit-for-bit.
#[cfg(test)]
pub(crate) static KERNEL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
