//! Convolution layer wrapping the `fedcav-tensor` conv kernels.
//!
//! The layer is generic over a [`Backend`] (default: the process-global
//! [`Dispatch`]). `CpuBlocked` runs the arena-backed im2col lowering —
//! each `Conv2d` owns one [`Im2colScratch`], so steady-state training
//! performs no per-call allocations for the lowered operands — while
//! `Reference` runs the original direct kernels, which remain the oracle
//! the property suite compares against. A training forward
//! leaves its unfolded input in the arena for the backward to reuse; an
//! eval-mode forward marks it stale (see `fedcav_tensor::im2col`).

use crate::layer::{read_tensor, write_tensor, Layer};
use fedcav_tensor::backend::{Backend, Dispatch};
use fedcav_tensor::conv::Conv2dParams;
use fedcav_tensor::im2col::Im2colScratch;
use fedcav_tensor::{init, Result, Tensor, TensorError};
use rand::Rng;
use std::marker::PhantomData;

/// 2-D convolution layer (NCHW), Kaiming-normal init, zero bias.
pub struct Conv2d<B: Backend = Dispatch> {
    weight: Tensor,
    bias: Tensor,
    d_weight: Tensor,
    d_bias: Tensor,
    params: Conv2dParams,
    cached_input: Option<Tensor>,
    in_channels: usize,
    out_channels: usize,
    scratch: Im2colScratch,
    fused_relu: bool,
    relu_mask: Option<Vec<bool>>,
    _backend: PhantomData<B>,
}

impl Conv2d {
    /// New conv layer on the process-global [`Dispatch`] backend: `out_c`
    /// filters of `in_c × k × k`, given stride and symmetric padding.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2d::new_on(rng, in_channels, out_channels, kernel, stride, padding)
    }

    /// New conv layer with a fused ReLU epilogue: behaves exactly like
    /// `Conv2d::new(..)` followed by a `ReLU` layer, in one kernel pass
    /// (the clamp rides the im2col matmul's output store under the blocked
    /// mode). Draws the same RNG stream as [`Conv2d::new`].
    #[allow(clippy::too_many_arguments)]
    pub fn new_fused_relu<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2d::new_fused_relu_on(rng, in_channels, out_channels, kernel, stride, padding)
    }
}

impl<B: Backend> Conv2d<B> {
    /// [`Conv2d::new`] on backend `B`.
    pub fn new_on<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        let dims = [out_channels, in_channels, kernel, kernel];
        let weight = init::kaiming_normal(rng, &dims);
        Conv2d {
            weight,
            bias: Tensor::zeros(&[out_channels]),
            d_weight: Tensor::zeros(&dims),
            d_bias: Tensor::zeros(&[out_channels]),
            params: Conv2dParams { stride, padding },
            cached_input: None,
            in_channels,
            out_channels,
            scratch: Im2colScratch::new(),
            fused_relu: false,
            relu_mask: None,
            _backend: PhantomData,
        }
    }

    /// [`Conv2d::new_fused_relu`] on backend `B`.
    #[allow(clippy::too_many_arguments)]
    pub fn new_fused_relu_on<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        let mut layer =
            Conv2d::<B>::new_on(rng, in_channels, out_channels, kernel, stride, padding);
        layer.fused_relu = true;
        layer
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels (filters).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl<B: Backend> Layer for Conv2d<B> {
    fn name(&self) -> &'static str {
        if self.fused_relu {
            "Conv2dReLU"
        } else {
            "Conv2d"
        }
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let out = B::conv2d_forward(
            input,
            &self.weight,
            &self.bias,
            self.params,
            self.fused_relu,
            &mut self.scratch,
        )?;
        if train {
            self.cached_input = Some(input.clone());
            // Same mask a standalone ReLU layer would compute: the
            // pre-activation is positive iff the clamped output is.
            self.relu_mask = if self.fused_relu {
                Some(out.as_slice().iter().map(|&v| v > 0.0).collect())
            } else {
                None
            };
        } else {
            // The arena now holds this eval input's patches, not those of
            // the cached training input the next backward reads.
            self.scratch.mark_cols_stale();
        }
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor> {
        self.backward_with(d_out, true)?
            .ok_or(TensorError::Empty { op: "Conv2d::backward (input gradient)" })
    }

    fn backward_params(&mut self, d_out: &Tensor) -> Result<()> {
        self.backward_with(d_out, false).map(drop)
    }

    fn visit_trainable(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.weight, &self.d_weight);
        f(&mut self.bias, &self.d_bias);
    }

    fn trainable_len(&self) -> usize {
        self.weight.numel() + self.bias.numel()
    }

    fn zero_grad(&mut self) {
        self.d_weight.map_in_place(|_| 0.0);
        self.d_bias.map_in_place(|_| 0.0);
    }

    fn state_len(&self) -> usize {
        self.weight.numel() + self.bias.numel()
    }

    fn write_state(&self, out: &mut Vec<f32>) {
        write_tensor(out, &self.weight);
        write_tensor(out, &self.bias);
    }

    fn read_state(&mut self, src: &[f32]) -> Result<usize> {
        let a = read_tensor(&mut self.weight, src)?;
        let b = read_tensor(&mut self.bias, &src[a..])?;
        Ok(a + b)
    }
}

impl<B: Backend> Conv2d<B> {
    /// Accumulate the parameter gradients for `d_out` and, when
    /// `need_input_grad`, return the input gradient (else `None`).
    fn backward_with(&mut self, d_out: &Tensor, need_input_grad: bool) -> Result<Option<Tensor>> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(TensorError::Empty { op: "Conv2d::backward (no cached forward)" })?;
        let masked;
        let d_out = if self.fused_relu {
            let mask = self
                .relu_mask
                .as_ref()
                .ok_or(TensorError::Empty { op: "Conv2d::backward (no cached relu mask)" })?;
            if mask.len() != d_out.numel() {
                return Err(TensorError::ShapeMismatch {
                    op: "Conv2d::backward (relu mask)",
                    lhs: vec![d_out.numel()],
                    rhs: vec![mask.len()],
                });
            }
            let mut g = d_out.clone();
            for (v, &keep) in g.as_mut_slice().iter_mut().zip(mask) {
                if !keep {
                    *v = 0.0;
                }
            }
            masked = g;
            &masked
        } else {
            d_out
        };
        let grads = B::conv2d_backward(
            input,
            &self.weight,
            d_out,
            self.params,
            need_input_grad,
            &mut self.scratch,
        )?;
        self.d_weight.add_assign(&grads.d_weight)?;
        self.d_bias.add_assign(&grads.d_bias)?;
        Ok(need_input_grad.then_some(grads.d_input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcav_tensor::numerics;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(&mut rng, 1, 6, 5, 1, 0);
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        let y = c.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[2, 6, 24, 24]);
    }

    #[test]
    fn padded_strided_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(&mut rng, 3, 8, 3, 2, 1);
        let x = Tensor::zeros(&[1, 3, 32, 32]);
        let y = c.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[1, 8, 16, 16]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(&mut rng, 1, 1, 3, 1, 0);
        assert!(c.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }

    #[test]
    fn end_to_end_gradient_check() {
        // conv -> CE loss; finite-difference a few weights.
        let mut rng = StdRng::seed_from_u64(9);
        let mut c = Conv2d::new(&mut rng, 1, 2, 3, 1, 0);
        let x = init::uniform(&mut rng, &[2, 1, 4, 4], -1.0, 1.0);
        let labels = [1usize, 3];

        let flat_logits = |y: &Tensor| y.reshape(&[2, 2 * 2 * 2]).unwrap();

        let y = c.forward(&x, true).unwrap();
        let g = numerics::cross_entropy_grad(&flat_logits(&y), &labels).unwrap();
        let g4 = g.reshape(y.dims()).unwrap();
        c.zero_grad();
        c.backward(&g4).unwrap();

        let loss_of = |c: &mut Conv2d| {
            let y = c.forward(&x, false).unwrap();
            numerics::cross_entropy_mean(&flat_logits(&y), &labels).unwrap()
        };
        let eps = 1e-2f32;
        for &k in &[0usize, 4, 9, 17] {
            let orig = c.weight.as_slice()[k];
            c.weight.as_mut_slice()[k] = orig + eps;
            let lu = loss_of(&mut c);
            c.weight.as_mut_slice()[k] = orig - eps;
            let ld = loss_of(&mut c);
            c.weight.as_mut_slice()[k] = orig;
            let fd = (lu - ld) / (2.0 * eps);
            let an = c.d_weight.as_slice()[k];
            assert!((fd - an).abs() < 1e-2, "dW[{k}] fd {fd} vs {an}");
        }
    }

    #[test]
    fn fused_relu_matches_conv_then_relu_bitwise() {
        use crate::activations::ReLU;
        let _guard = crate::KERNEL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut plain = Conv2d::new(&mut StdRng::seed_from_u64(4), 2, 3, 3, 1, 1);
        let mut fused = Conv2d::new_fused_relu(&mut StdRng::seed_from_u64(4), 2, 3, 3, 1, 1);
        let mut relu = ReLU::new();
        assert_eq!(fused.name(), "Conv2dReLU");
        let mut rng = StdRng::seed_from_u64(8);
        let x = init::uniform(&mut rng, &[2, 2, 6, 6], -1.0, 1.0);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let y_ref = relu.forward(&plain.forward(&x, true).unwrap(), true).unwrap();
        let y_fused = fused.forward(&x, true).unwrap();
        assert_eq!(bits(&y_ref), bits(&y_fused));
        let g = init::uniform(&mut rng, y_ref.dims(), -1.0, 1.0);
        plain.zero_grad();
        fused.zero_grad();
        let dx_ref = plain.backward(&relu.backward(&g).unwrap()).unwrap();
        let dx_fused = fused.backward(&g).unwrap();
        assert_eq!(bits(&dx_ref), bits(&dx_fused));
        assert_eq!(bits(&plain.d_weight), bits(&fused.d_weight));
        assert_eq!(bits(&plain.d_bias), bits(&fused.d_bias));
    }

    #[test]
    fn blocked_and_reference_backends_agree_within_tolerance() {
        // Pin the two statically chosen f32 backends against each other —
        // no process-global state involved.
        use fedcav_tensor::backend::{CpuBlocked, Reference};
        let mut rng = StdRng::seed_from_u64(12);
        let x = init::uniform(&mut rng, &[1, 2, 8, 8], -1.0, 1.0);
        fn run<B: Backend>(x: &Tensor) -> (Tensor, Tensor) {
            let mut c = Conv2d::<B>::new_on(&mut StdRng::seed_from_u64(6), 2, 4, 3, 1, 1);
            let y = c.forward(x, true).unwrap();
            let g = y.map(|v| v * 0.5);
            c.zero_grad();
            let dx = c.backward(&g).unwrap();
            (y, dx)
        }
        let (y_b, dx_b) = run::<CpuBlocked>(&x);
        let (y_r, dx_r) = run::<Reference>(&x);
        for (a, b) in y_b.as_slice().iter().zip(y_r.as_slice()) {
            assert!((a - b).abs() <= 1e-4, "{a} vs {b}");
        }
        for (a, b) in dx_b.as_slice().iter().zip(dx_r.as_slice()) {
            assert!((a - b).abs() <= 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn state_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Conv2d::new(&mut rng, 2, 3, 3, 1, 1);
        let mut b = Conv2d::new(&mut rng, 2, 3, 3, 1, 1);
        let mut buf = Vec::new();
        a.write_state(&mut buf);
        assert_eq!(buf.len(), a.state_len());
        b.read_state(&buf).unwrap();
        assert_eq!(a.weight.as_slice(), b.weight.as_slice());
    }
}
