//! Adam optimizer (Kingma & Ba) — extension beyond the paper's plain SGD,
//! for studying FedCav's sensitivity to the local optimizer.

use crate::Sequential;
use fedcav_tensor::{Result, TensorError};

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Step size.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator stabiliser.
    pub eps: f32,
    /// Decoupled weight decay (AdamW-style; 0 disables).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }
}

/// Adam over a [`Sequential`]'s trainable parameters, with flat moment
/// buffers walked in `visit_trainable` order (same convention as
/// [`crate::Sgd`]).
pub struct Adam {
    config: AdamConfig,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// New optimizer for `trainable_len` scalars.
    pub fn new(config: AdamConfig, trainable_len: usize) -> Self {
        assert!(config.beta1 < 1.0 && config.beta2 < 1.0, "betas must be < 1");
        Adam { config, m: vec![0.0; trainable_len], v: vec![0.0; trainable_len], t: 0 }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// One Adam step using the model's accumulated gradients.
    pub fn step(&mut self, model: &mut Sequential) -> Result<()> {
        if model.trainable_len() != self.m.len() {
            return Err(TensorError::ElementCountMismatch {
                from: model.trainable_len(),
                to: self.m.len(),
            });
        }
        self.t += 1;
        let cfg = self.config;
        let bc1 = 1.0 - cfg.beta1.powi(self.t as i32);
        let bc2 = 1.0 - cfg.beta2.powi(self.t as i32);
        let (m, v) = (&mut self.m, &mut self.v);
        let mut cursor = 0usize;
        model.visit_trainable(&mut |param, grad| {
            let p = param.as_mut_slice();
            let g = grad.as_slice();
            let ms = &mut m[cursor..cursor + p.len()];
            let vs = &mut v[cursor..cursor + p.len()];
            for i in 0..p.len() {
                ms[i] = cfg.beta1 * ms[i] + (1.0 - cfg.beta1) * g[i];
                vs[i] = cfg.beta2 * vs[i] + (1.0 - cfg.beta2) * g[i] * g[i];
                let m_hat = ms[i] / bc1;
                let v_hat = vs[i] / bc2;
                if cfg.weight_decay > 0.0 {
                    p[i] -= cfg.lr * cfg.weight_decay * p[i];
                }
                p[i] -= cfg.lr * m_hat / (v_hat.sqrt() + cfg.eps);
            }
            cursor += p.len();
        });
        debug_assert_eq!(cursor, self.m.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{models, SoftmaxCrossEntropy};
    use fedcav_tensor::{init, numerics};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn adam_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = models::tiny_mlp(&mut rng, 8, 4);
        let x = init::uniform(&mut rng, &[16, 8], -1.0, 1.0);
        let labels: Vec<usize> = (0..16).map(|i| i % 4).collect();
        let mut opt = Adam::new(AdamConfig { lr: 0.01, ..Default::default() }, m.trainable_len());
        let before = numerics::cross_entropy_mean(&m.forward(&x, false).unwrap(), &labels).unwrap();
        for _ in 0..60 {
            let y = m.forward(&x, true).unwrap();
            let g = SoftmaxCrossEntropy::grad(&y, &labels).unwrap();
            m.zero_grad();
            m.backward(&g).unwrap();
            opt.step(&mut m).unwrap();
        }
        let after = numerics::cross_entropy_mean(&m.forward(&x, false).unwrap(), &labels).unwrap();
        assert!(after < before * 0.5, "{before} -> {after}");
        assert_eq!(opt.steps(), 60);
    }

    #[test]
    fn first_step_size_is_lr_scaled() {
        // With bias correction, the very first Adam step moves each
        // coordinate by ~lr (for any non-zero gradient magnitude).
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = models::tiny_mlp(&mut rng, 4, 2);
        let before = m.flat_params();
        let x = init::uniform(&mut rng, &[2, 4], -1.0, 1.0);
        let y = m.forward(&x, true).unwrap();
        let g = SoftmaxCrossEntropy::grad(&y, &[0, 1]).unwrap();
        m.zero_grad();
        m.backward(&g).unwrap();
        let grads = m.flat_grads();
        let mut opt = Adam::new(AdamConfig { lr: 0.1, ..Default::default() }, m.trainable_len());
        opt.step(&mut m).unwrap();
        let mut trained = Vec::new();
        m.visit_trainable(&mut |p, _| trained.extend_from_slice(p.as_slice()));
        // Every coordinate with a non-tiny gradient moved by ≈ lr.
        let mut before_tr = Vec::new();
        // Rebuild before-trainable by reloading: trainable values are a
        // subset of flat_params in the same order for MLPs (no BN buffers).
        let mut m2 = models::tiny_mlp(&mut StdRng::seed_from_u64(1), 4, 2);
        m2.set_flat_params(&before).unwrap();
        m2.visit_trainable(&mut |p, _| before_tr.extend_from_slice(p.as_slice()));
        for ((b, a), g) in before_tr.iter().zip(&trained).zip(&grads) {
            if g.abs() > 1e-3 {
                let step = (a - b).abs();
                assert!((step - 0.1).abs() < 0.02, "step {step} for grad {g}");
            }
        }
    }

    #[test]
    fn weight_decay_shrinks_with_zero_grads() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = models::tiny_mlp(&mut rng, 4, 2);
        let norm_before: f32 = m.flat_params().iter().map(|v| v * v).sum();
        m.forward(&fedcav_tensor::Tensor::zeros(&[1, 4]), true).unwrap();
        m.zero_grad();
        let mut opt = Adam::new(
            AdamConfig { lr: 0.1, weight_decay: 0.5, ..Default::default() },
            m.trainable_len(),
        );
        opt.step(&mut m).unwrap();
        let norm_after: f32 = m.flat_params().iter().map(|v| v * v).sum();
        assert!(norm_after < norm_before);
    }

    #[test]
    fn size_mismatch_errors() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = models::tiny_mlp(&mut rng, 4, 2);
        let mut opt = Adam::new(AdamConfig::default(), 3);
        assert!(opt.step(&mut m).is_err());
    }
}
