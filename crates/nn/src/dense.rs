//! Fully-connected layer.

use crate::layer::{read_tensor, write_tensor, Layer};
use fedcav_tensor::backend::{Backend, Dispatch};
use fedcav_tensor::{init, Result, Tensor, TensorError};
use rand::Rng;
use std::marker::PhantomData;

/// A dense (fully-connected) layer: `y = x · W + b`.
///
/// * weights `W`: `[in_features, out_features]` (Xavier-uniform init)
/// * bias `b`: `[out_features]` (zero init)
///
/// Generic over a [`Backend`] `B` (default: the process-global
/// [`Dispatch`]): all matmuls run through `B`.
///
/// The bias add is fused into the matmul's output store
/// ([`Tensor::matmul_fused`]); [`Dense::new_fused_relu`] additionally
/// fuses the ReLU activation, replacing a separate `ReLU` layer. Both
/// fusions are bitwise-invisible — the per-element operation sequence is
/// identical to the unfused stack — so swapping a `Dense → ReLU` pair for
/// one fused layer cannot move training trajectories.
pub struct Dense<B: Backend = Dispatch> {
    weight: Tensor,
    bias: Tensor,
    d_weight: Tensor,
    d_bias: Tensor,
    cached_input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
    fused_relu: bool,
    relu_mask: Option<Vec<bool>>,
    _backend: PhantomData<B>,
}

impl Dense {
    /// New dense layer with Xavier-uniform weights on the process-global
    /// [`Dispatch`] backend.
    pub fn new<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        Dense::new_on(rng, in_features, out_features)
    }

    /// New dense layer with a fused ReLU epilogue: behaves exactly like
    /// `Dense::new(..)` followed by a `ReLU` layer (bit-for-bit, including
    /// the backward masking), in one kernel pass. Draws the same RNG
    /// stream as [`Dense::new`].
    pub fn new_fused_relu<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        Dense::new_fused_relu_on(rng, in_features, out_features)
    }
}

impl<B: Backend> Dense<B> {
    /// New dense layer with Xavier-uniform weights on backend `B`.
    pub fn new_on<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        let weight = init::xavier_uniform(rng, in_features, out_features);
        Dense {
            weight,
            bias: Tensor::zeros(&[out_features]),
            d_weight: Tensor::zeros(&[in_features, out_features]),
            d_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
            in_features,
            out_features,
            fused_relu: false,
            relu_mask: None,
            _backend: PhantomData,
        }
    }

    /// [`Dense::new_fused_relu`] on backend `B`.
    pub fn new_fused_relu_on<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        let mut layer = Dense::<B>::new_on(rng, in_features, out_features);
        layer.fused_relu = true;
        layer
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight matrix (for tests/inspection).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }
}

impl<B: Backend> Layer for Dense<B> {
    fn name(&self) -> &'static str {
        if self.fused_relu {
            "DenseReLU"
        } else {
            "Dense"
        }
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let dims = input.dims();
        if dims.len() != 2 || dims[1] != self.in_features {
            return Err(TensorError::InvalidShape {
                op: "Dense::forward",
                shape: dims.to_vec(),
                expected: format!("[batch, {}]", self.in_features),
            });
        }
        // Bias (and ReLU, when fused) ride along as the matmul epilogue.
        let out = input.matmul_fused_on::<B>(&self.weight, Some(&self.bias), self.fused_relu)?;
        if train {
            self.cached_input = Some(input.clone());
            // `out > 0` is the same mask a standalone ReLU layer would
            // compute from its input: the pre-activation is positive iff
            // the clamped output is.
            self.relu_mask = if self.fused_relu {
                Some(out.as_slice().iter().map(|&v| v > 0.0).collect())
            } else {
                None
            };
        }
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor> {
        self.backward_with(d_out, true)?
            .ok_or(TensorError::Empty { op: "Dense::backward (input gradient)" })
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

impl<B: Backend> Dense<B> {
    /// Accumulate the parameter gradients for `d_out` and, when
    /// `need_input_grad`, return the input gradient (else `None`).
    fn backward_with(&mut self, d_out: &Tensor, need_input_grad: bool) -> Result<Option<Tensor>> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(TensorError::Empty { op: "Dense::backward (no cached forward)" })?;
        let masked;
        let d_out = if self.fused_relu {
            let mask = self
                .relu_mask
                .as_ref()
                .ok_or(TensorError::Empty { op: "Dense::backward (no cached relu mask)" })?;
            if mask.len() != d_out.numel() {
                return Err(TensorError::ShapeMismatch {
                    op: "Dense::backward (relu mask)",
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
        // dW += x^T d_out ; db += column-sum(d_out) ; dx = d_out W^T, with
        // W^T never built: the matmul packs its panels straight from W.
        let dw = input.transpose()?.matmul_on::<B>(d_out)?;
        self.d_weight.add_assign(&dw)?;
        let go = d_out.as_slice();
        let db = self.d_bias.as_mut_slice();
        for row in go.chunks(self.out_features) {
            for (acc, &g) in db.iter_mut().zip(row) {
                *acc += g;
            }
        }
        if need_input_grad {
            d_out.matmul_bt_on::<B>(&self.weight).map(Some)
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcav_tensor::numerics;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(seed: u64, i: usize, o: usize) -> Dense {
        let mut rng = StdRng::seed_from_u64(seed);
        Dense::new(&mut rng, i, o)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut d = layer(0, 3, 2);
        // Zero the weights; output should equal the bias.
        d.weight = Tensor::zeros(&[3, 2]);
        d.bias = Tensor::from_slice(&[0.5, -0.5]);
        let x = Tensor::ones(&[4, 3]);
        let y = d.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        for row in y.as_slice().chunks(2) {
            assert_eq!(row, &[0.5, -0.5]);
        }
    }

    #[test]
    fn forward_rejects_bad_width() {
        let mut d = layer(0, 3, 2);
        assert!(d.forward(&Tensor::ones(&[1, 4]), false).is_err());
        assert!(d.forward(&Tensor::ones(&[4]), false).is_err());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut d = layer(0, 3, 2);
        assert!(d.backward(&Tensor::ones(&[1, 2])).is_err());
    }

    #[test]
    fn gradient_check_through_loss() {
        // Scalar loss = mean CE of Dense output; finite-difference the params.
        let mut d = layer(7, 4, 3);
        let x = {
            let mut rng = StdRng::seed_from_u64(1);
            init::uniform(&mut rng, &[2, 4], -1.0, 1.0)
        };
        let labels = [0usize, 2];

        let y = d.forward(&x, true).unwrap();
        let g = numerics::cross_entropy_grad(&y, &labels).unwrap();
        d.zero_grad();
        let dx = d.backward(&g).unwrap();

        let loss_of = |d: &mut Dense, x: &Tensor| {
            let y = d.forward(x, false).unwrap();
            numerics::cross_entropy_mean(&y, &labels).unwrap()
        };
        let eps = 1e-2f32;

        // weight grads
        for &k in &[0usize, 3, 7, 11] {
            let orig = d.weight.as_slice()[k];
            d.weight.as_mut_slice()[k] = orig + eps;
            let lu = loss_of(&mut d, &x);
            d.weight.as_mut_slice()[k] = orig - eps;
            let ld = loss_of(&mut d, &x);
            d.weight.as_mut_slice()[k] = orig;
            let fd = (lu - ld) / (2.0 * eps);
            let an = d.d_weight.as_slice()[k];
            assert!((fd - an).abs() < 1e-2, "dW[{k}] fd {fd} vs {an}");
        }
        // input grads
        for &k in &[0usize, 5] {
            let mut up = x.clone();
            up.as_mut_slice()[k] += eps;
            let mut dn = x.clone();
            dn.as_mut_slice()[k] -= eps;
            let fd = (loss_of(&mut d, &up) - loss_of(&mut d, &dn)) / (2.0 * eps);
            let an = dx.as_slice()[k];
            assert!((fd - an).abs() < 1e-2, "dx[{k}] fd {fd} vs {an}");
        }
    }

    #[test]
    fn fused_relu_matches_dense_then_relu_bitwise() {
        use crate::activations::ReLU;
        let mut plain = layer(5, 4, 3);
        let mut relu = ReLU::new();
        let mut fused = {
            let mut rng = StdRng::seed_from_u64(5);
            Dense::new_fused_relu(&mut rng, 4, 3)
        };
        assert_eq!(fused.name(), "DenseReLU");
        assert_eq!(plain.weight.as_slice(), fused.weight.as_slice());
        let x = {
            let mut rng = StdRng::seed_from_u64(2);
            init::uniform(&mut rng, &[6, 4], -1.0, 1.0)
        };
        let y_ref = relu.forward(&plain.forward(&x, true).unwrap(), true).unwrap();
        let y_fused = fused.forward(&x, true).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y_ref), bits(&y_fused));
        let g = {
            let mut rng = StdRng::seed_from_u64(3);
            init::uniform(&mut rng, &[6, 3], -1.0, 1.0)
        };
        plain.zero_grad();
        fused.zero_grad();
        let dx_ref = plain.backward(&relu.backward(&g).unwrap()).unwrap();
        let dx_fused = fused.backward(&g).unwrap();
        assert_eq!(bits(&dx_ref), bits(&dx_fused));
        assert_eq!(bits(&plain.d_weight), bits(&fused.d_weight));
        assert_eq!(bits(&plain.d_bias), bits(&fused.d_bias));
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut d = layer(3, 2, 2);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        d.forward(&x, true).unwrap();
        d.backward(&g).unwrap();
        let first = d.d_weight.as_slice().to_vec();
        d.forward(&x, true).unwrap();
        d.backward(&g).unwrap();
        for (two, one) in d.d_weight.as_slice().iter().zip(&first) {
            assert!((two - 2.0 * one).abs() < 1e-6);
        }
        d.zero_grad();
        assert!(d.d_weight.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn state_round_trip() {
        let a = layer(1, 3, 2);
        let mut b = layer(2, 3, 2);
        assert_ne!(a.weight.as_slice(), b.weight.as_slice());
        let mut buf = Vec::new();
        a.write_state(&mut buf);
        assert_eq!(buf.len(), a.state_len());
        let used = b.read_state(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(a.weight.as_slice(), b.weight.as_slice());
        assert_eq!(a.bias.as_slice(), b.bias.as_slice());
    }
}
