//! Batch normalisation over NCHW channels.

use crate::layer::{read_tensor, write_tensor, Layer};
use fedcav_tensor::backend::{Backend, Dispatch};
use fedcav_tensor::{Result, Tensor, TensorError};
use std::marker::PhantomData;

/// 2-D batch normalisation.
///
/// Trainable scale `γ` and shift `β` per channel; running mean/variance
/// buffers are updated with momentum during training and used at inference.
/// Channel statistics come from the backend's `channel_mean`/`channel_var`
/// — f32 on every backend, since the rsqrt normalisation is where half
/// precision costs real accuracy.
///
/// The running statistics **are part of the FL wire format** (`state_len`
/// includes them): federated averaging of batch-norm state follows the
/// common FedAvg-BN practice and is required for the global model to be
/// evaluable on the server.
pub struct BatchNorm2d<B: Backend = Dispatch> {
    gamma: Tensor,
    beta: Tensor,
    d_gamma: Tensor,
    d_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    channels: usize,
    /// (x_hat, inv_std, input dims) cached by the training forward.
    cache: Option<(Tensor, Tensor, Vec<usize>)>,
    _backend: PhantomData<B>,
}

impl BatchNorm2d {
    /// New batch-norm layer for `channels` channels on the process-global
    /// [`Dispatch`] backend.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d::new_on(channels)
    }
}

impl<B: Backend> BatchNorm2d<B> {
    /// [`BatchNorm2d::new`] on backend `B`.
    pub fn new_on(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            d_gamma: Tensor::zeros(&[channels]),
            d_beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cache: None,
            _backend: PhantomData,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Current running mean (for tests/inspection).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize, usize)> {
        let d = input.dims();
        if d.len() != 4 || d[1] != self.channels {
            return Err(TensorError::InvalidShape {
                op: "BatchNorm2d::forward",
                shape: d.to_vec(),
                expected: format!("[n, {}, h, w]", self.channels),
            });
        }
        Ok((d[0], d[1], d[2], d[3]))
    }
}

impl<B: Backend> Layer for BatchNorm2d<B> {
    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let (n, c, h, w) = self.check_input(input)?;
        let x = input.as_slice();
        let mut out = vec![0.0f32; x.len()];

        if train {
            let mean = B::channel_mean(input)?;
            let var = B::channel_var(input, &mean)?;
            let inv_std: Vec<f32> =
                var.as_slice().iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();

            let mut x_hat = vec![0.0f32; x.len()];
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * h * w;
                    let (mu, is) = (mean.as_slice()[ci], inv_std[ci]);
                    let (g, b) = (self.gamma.as_slice()[ci], self.beta.as_slice()[ci]);
                    for k in base..base + h * w {
                        let xh = (x[k] - mu) * is;
                        x_hat[k] = xh;
                        out[k] = g * xh + b;
                    }
                }
            }
            // Update running stats.
            let m = self.momentum;
            for ci in 0..c {
                let rm = &mut self.running_mean.as_mut_slice()[ci];
                *rm = (1.0 - m) * *rm + m * mean.as_slice()[ci];
                let rv = &mut self.running_var.as_mut_slice()[ci];
                *rv = (1.0 - m) * *rv + m * var.as_slice()[ci];
            }
            self.cache = Some((
                Tensor::from_vec(input.dims(), x_hat)?,
                Tensor::from_vec(&[c], inv_std)?,
                input.dims().to_vec(),
            ));
        } else {
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * h * w;
                    let mu = self.running_mean.as_slice()[ci];
                    let is = 1.0 / (self.running_var.as_slice()[ci] + self.eps).sqrt();
                    let (g, b) = (self.gamma.as_slice()[ci], self.beta.as_slice()[ci]);
                    for k in base..base + h * w {
                        out[k] = g * (x[k] - mu) * is + b;
                    }
                }
            }
        }
        Tensor::from_vec(input.dims(), out)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor> {
        let (x_hat, inv_std, dims) = self.cache.as_ref().ok_or(TensorError::Empty {
            op: "BatchNorm2d::backward (no cached training forward)",
        })?;
        if d_out.dims() != &dims[..] {
            return Err(TensorError::ShapeMismatch {
                op: "BatchNorm2d::backward",
                lhs: d_out.dims().to_vec(),
                rhs: dims.clone(),
            });
        }
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let m = (n * h * w) as f32;
        let go = d_out.as_slice();
        let xh = x_hat.as_slice();

        // Per-channel sums: Σdy and Σ(dy · x̂).
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for k in base..base + h * w {
                    sum_dy[ci] += go[k];
                    sum_dy_xhat[ci] += go[k] * xh[k];
                }
            }
        }
        // Accumulate parameter grads.
        for ci in 0..c {
            self.d_gamma.as_mut_slice()[ci] += sum_dy_xhat[ci];
            self.d_beta.as_mut_slice()[ci] += sum_dy[ci];
        }
        // dx = γ·inv_std/m · (m·dy − Σdy − x̂·Σ(dy·x̂))
        let mut dx = vec![0.0f32; go.len()];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                let k_coef = self.gamma.as_slice()[ci] * inv_std.as_slice()[ci] / m;
                for k in base..base + h * w {
                    dx[k] = k_coef * (m * go[k] - sum_dy[ci] - xh[k] * sum_dy_xhat[ci]);
                }
            }
        }
        Tensor::from_vec(&dims[..], dx)
    }

    fn visit_trainable(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.gamma, &self.d_gamma);
        f(&mut self.beta, &self.d_beta);
    }

    fn trainable_len(&self) -> usize {
        2 * self.channels
    }

    fn zero_grad(&mut self) {
        self.d_gamma.map_in_place(|_| 0.0);
        self.d_beta.map_in_place(|_| 0.0);
    }

    fn state_len(&self) -> usize {
        4 * self.channels
    }

    fn write_state(&self, out: &mut Vec<f32>) {
        write_tensor(out, &self.gamma);
        write_tensor(out, &self.beta);
        write_tensor(out, &self.running_mean);
        write_tensor(out, &self.running_var);
    }

    fn read_state(&mut self, src: &[f32]) -> Result<usize> {
        let mut off = 0;
        off += read_tensor(&mut self.gamma, &src[off..])?;
        off += read_tensor(&mut self.beta, &src[off..])?;
        off += read_tensor(&mut self.running_mean, &src[off..])?;
        off += read_tensor(&mut self.running_var, &src[off..])?;
        Ok(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcav_tensor::init;
    use fedcav_tensor::reduce::{channel_mean, channel_var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_forward_normalises() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        let x = init::uniform(&mut rng, &[4, 2, 3, 3], -5.0, 5.0);
        let y = bn.forward(&x, true).unwrap();
        // Per-channel mean ~0, var ~1 after normalisation with γ=1, β=0.
        let mean = channel_mean(&y).unwrap();
        let var = channel_var(&y, &mean).unwrap();
        for ci in 0..2 {
            assert!(mean.as_slice()[ci].abs() < 1e-4);
            assert!((var.as_slice()[ci] - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn running_stats_move_toward_batch_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[2, 1, 2, 2], 10.0);
        bn.forward(&x, true).unwrap();
        // running_mean = 0.9*0 + 0.1*10 = 1.0
        assert!((bn.running_mean.as_slice()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        // With default running stats (mean 0, var 1) inference ~ identity.
        let x = Tensor::from_vec(&[1, 1, 1, 2], vec![3.0, -3.0]).unwrap();
        let y = bn.forward(&x, false).unwrap();
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn wrong_channel_count_rejected() {
        let mut bn = BatchNorm2d::new(3);
        assert!(bn.forward(&Tensor::zeros(&[1, 2, 4, 4]), true).is_err());
    }

    #[test]
    fn backward_requires_training_forward() {
        let mut bn = BatchNorm2d::new(1);
        bn.forward(&Tensor::zeros(&[1, 1, 2, 2]), false).unwrap();
        assert!(bn.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }

    #[test]
    fn gradient_check_gamma_beta_and_input() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = init::uniform(&mut rng, &[3, 2, 2, 2], -2.0, 2.0);
        let g_up = init::uniform(&mut rng, &[3, 2, 2, 2], -1.0, 1.0);

        let loss_with = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            bn.forward(x, true).unwrap().dot(&g_up).unwrap()
        };

        let mut bn = BatchNorm2d::new(2);
        bn.gamma = Tensor::from_slice(&[1.3, 0.7]);
        bn.beta = Tensor::from_slice(&[0.2, -0.4]);
        bn.forward(&x, true).unwrap();
        bn.zero_grad();
        let dx = bn.backward(&g_up).unwrap();

        let eps = 1e-2f32;
        // gamma
        for k in 0..2 {
            let orig = bn.gamma.as_slice()[k];
            // Fresh layers for each eval to avoid running-stat drift effects
            // (loss uses training forward which depends only on batch stats).
            bn.gamma.as_mut_slice()[k] = orig + eps;
            let lu = loss_with(&mut bn, &x);
            bn.gamma.as_mut_slice()[k] = orig - eps;
            let ld = loss_with(&mut bn, &x);
            bn.gamma.as_mut_slice()[k] = orig;
            let fd = (lu - ld) / (2.0 * eps);
            assert!((fd - bn.d_gamma.as_slice()[k]).abs() < 0.02, "dγ[{k}]");
        }
        // beta
        for k in 0..2 {
            let orig = bn.beta.as_slice()[k];
            bn.beta.as_mut_slice()[k] = orig + eps;
            let lu = loss_with(&mut bn, &x);
            bn.beta.as_mut_slice()[k] = orig - eps;
            let ld = loss_with(&mut bn, &x);
            bn.beta.as_mut_slice()[k] = orig;
            let fd = (lu - ld) / (2.0 * eps);
            assert!((fd - bn.d_beta.as_slice()[k]).abs() < 0.02, "dβ[{k}]");
        }
        // input (a few coords)
        for &k in &[0usize, 5, 13, 20] {
            let mut up = x.clone();
            up.as_mut_slice()[k] += eps;
            let mut dn = x.clone();
            dn.as_mut_slice()[k] -= eps;
            let fd = (loss_with(&mut bn, &up) - loss_with(&mut bn, &dn)) / (2.0 * eps);
            assert!((fd - dx.as_slice()[k]).abs() < 0.05, "dx[{k}] fd {fd}");
        }
    }

    #[test]
    fn state_round_trip_includes_running_stats() {
        let mut a = BatchNorm2d::new(2);
        a.forward(&Tensor::full(&[1, 2, 2, 2], 4.0), true).unwrap();
        let mut buf = Vec::new();
        a.write_state(&mut buf);
        assert_eq!(buf.len(), 8);
        let mut b = BatchNorm2d::new(2);
        let used = b.read_state(&buf).unwrap();
        assert_eq!(used, 8);
        assert_eq!(a.running_mean.as_slice(), b.running_mean.as_slice());
        assert_eq!(a.running_var.as_slice(), b.running_var.as_slice());
    }
}
