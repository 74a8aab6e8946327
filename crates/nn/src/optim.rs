//! Stochastic gradient descent with momentum, weight decay, and an optional
//! FedProx proximal term.

use crate::Sequential;
use fedcav_tensor::{Result, TensorError};

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate `η` (paper default 0.01, §5.1.4).
    pub lr: f32,
    /// Momentum coefficient; 0 disables the velocity buffer update semantics
    /// (plain SGD, as in the paper).
    pub momentum: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
    /// FedProx proximal coefficient `μ`: adds `μ (w − w_global)` to every
    /// trainable gradient. `0` disables (FedAvg/FedCav local training).
    pub prox_mu: f32,
    /// Global-norm gradient clipping threshold; `0` disables. Applied to
    /// the raw accumulated gradients before decay/prox/momentum.
    pub max_grad_norm: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { lr: 0.01, momentum: 0.0, weight_decay: 0.0, prox_mu: 0.0, max_grad_norm: 0.0 }
    }
}

/// SGD optimizer over a [`Sequential`]'s trainable parameters.
///
/// Velocity is stored as one flat buffer walked in the same deterministic
/// order as [`Sequential::visit_trainable`], so the optimizer can be created
/// once per local-training session and reused across steps.
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<f32>,
    /// Snapshot of the *global* trainable parameters for the proximal term.
    prox_anchor: Option<Vec<f32>>,
}

impl Sgd {
    /// New optimizer for a model with `trainable_len` trainable scalars.
    pub fn new(config: SgdConfig, trainable_len: usize) -> Self {
        Sgd { config, velocity: vec![0.0; trainable_len], prox_anchor: None }
    }

    /// Configuration in use.
    pub fn config(&self) -> SgdConfig {
        self.config
    }

    /// Install the proximal anchor (the downloaded global model's trainable
    /// parameters). Required before stepping when `prox_mu > 0`.
    pub fn set_prox_anchor(&mut self, anchor: Vec<f32>) -> Result<()> {
        if anchor.len() != self.velocity.len() {
            return Err(TensorError::ElementCountMismatch {
                from: anchor.len(),
                to: self.velocity.len(),
            });
        }
        self.prox_anchor = Some(anchor);
        Ok(())
    }

    /// Apply one SGD step to the model's trainable parameters using the
    /// gradients accumulated since the last `zero_grad`.
    pub fn step(&mut self, model: &mut Sequential) -> Result<()> {
        if model.trainable_len() != self.velocity.len() {
            return Err(TensorError::ElementCountMismatch {
                from: model.trainable_len(),
                to: self.velocity.len(),
            });
        }
        if self.config.prox_mu > 0.0 && self.prox_anchor.is_none() {
            return Err(TensorError::Empty { op: "Sgd::step (prox_mu set but no anchor)" });
        }
        let cfg = self.config;
        // Global-norm clipping pre-pass over the raw gradients.
        let clip_scale = if cfg.max_grad_norm > 0.0 {
            let mut norm_sq = 0.0f32;
            model.visit_trainable(&mut |_p, g| {
                norm_sq += g.as_slice().iter().map(|v| v * v).sum::<f32>();
            });
            let norm = norm_sq.sqrt();
            if norm > cfg.max_grad_norm {
                cfg.max_grad_norm / norm
            } else {
                1.0
            }
        } else {
            1.0
        };
        // One per-tensor call with the configuration branches resolved
        // once, outside the element loop.
        let update = match (cfg.weight_decay > 0.0, self.prox_anchor.is_some(), cfg.momentum > 0.0)
        {
            (false, false, false) => sgd_update::<false, false, false>,
            (false, false, true) => sgd_update::<false, false, true>,
            (false, true, false) => sgd_update::<false, true, false>,
            (false, true, true) => sgd_update::<false, true, true>,
            (true, false, false) => sgd_update::<true, false, false>,
            (true, false, true) => sgd_update::<true, false, true>,
            (true, true, false) => sgd_update::<true, true, false>,
            (true, true, true) => sgd_update::<true, true, true>,
        };
        let mut velocity: &mut [f32] = &mut self.velocity;
        let mut anchor: &[f32] = self.prox_anchor.as_deref().unwrap_or(&[]);
        model.visit_trainable(&mut |param, grad| {
            let p = param.as_mut_slice();
            let len = p.len();
            let Some((v, v_rest)) = std::mem::take(&mut velocity).split_at_mut_checked(len) else {
                return;
            };
            velocity = v_rest;
            let (a, a_rest) = anchor.split_at_checked(len).unwrap_or((&[], &[]));
            anchor = a_rest;
            update(&cfg, clip_scale, p, grad.as_slice(), v, a);
        });
        debug_assert!(velocity.is_empty());
        Ok(())
    }

    /// Reset the velocity buffer (e.g. when a fresh global model arrives).
    pub fn reset_velocity(&mut self) {
        self.velocity.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// One SGD update over a parameter tensor `p` with gradient `g`,
/// velocity `v` and proximal anchor `a` (empty unless `PROX`). The const
/// flags select weight decay, the proximal term and momentum; per element
/// the arithmetic is exactly `g·clip_scale`, `+ wd·p`, `+ μ(p − a)`,
/// `v = m·v + g`, `p −= lr·g`, each step present only when enabled.
fn sgd_update<const DECAY: bool, const PROX: bool, const MOMENTUM: bool>(
    cfg: &SgdConfig,
    clip_scale: f32,
    p: &mut [f32],
    g: &[f32],
    v: &mut [f32],
    a: &[f32],
) {
    let step = |p: &mut f32, g: f32, v: &mut f32, a: f32| {
        let mut gi = g * clip_scale;
        if DECAY {
            gi += cfg.weight_decay * *p;
        }
        if PROX {
            gi += cfg.prox_mu * (*p - a);
        }
        if MOMENTUM {
            *v = cfg.momentum * *v + gi;
            gi = *v;
        }
        *p -= cfg.lr * gi;
    };
    if PROX {
        for (((p, &g), v), &a) in p.iter_mut().zip(g).zip(v.iter_mut()).zip(a) {
            step(p, g, v, a);
        }
    } else {
        for ((p, &g), v) in p.iter_mut().zip(g).zip(v.iter_mut()) {
            step(p, g, v, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Flatten};
    use fedcav_tensor::{numerics, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new().push(Flatten::new()).push(Dense::new(&mut rng, 2, 2))
    }

    fn train_step(m: &mut Sequential, opt: &mut Sgd, x: &Tensor, labels: &[usize]) -> f32 {
        let y = m.forward(x, true).unwrap();
        let (loss, g) = crate::SoftmaxCrossEntropy::loss_and_grad(&y, labels).unwrap();
        m.zero_grad();
        m.backward(&g).unwrap();
        opt.step(m).unwrap();
        loss
    }

    /// `Sgd::step` as it was before its configuration branches were
    /// hoisted out of the element loop, kept verbatim as the oracle.
    fn legacy_step(
        cfg: SgdConfig,
        velocity: &mut [f32],
        anchor: Option<&[f32]>,
        model: &mut Sequential,
    ) {
        let clip_scale = if cfg.max_grad_norm > 0.0 {
            let mut norm_sq = 0.0f32;
            model.visit_trainable(&mut |_p, g| {
                norm_sq += g.as_slice().iter().map(|v| v * v).sum::<f32>();
            });
            let norm = norm_sq.sqrt();
            if norm > cfg.max_grad_norm {
                cfg.max_grad_norm / norm
            } else {
                1.0
            }
        } else {
            1.0
        };
        let mut cursor = 0usize;
        model.visit_trainable(&mut |param, grad| {
            let p = param.as_mut_slice();
            let g = grad.as_slice();
            let v = &mut velocity[cursor..cursor + p.len()];
            let a = anchor.map(|a| &a[cursor..cursor + p.len()]);
            for i in 0..p.len() {
                let mut gi = g[i] * clip_scale;
                if cfg.weight_decay > 0.0 {
                    gi += cfg.weight_decay * p[i];
                }
                if let Some(a) = a {
                    gi += cfg.prox_mu * (p[i] - a[i]);
                }
                if cfg.momentum > 0.0 {
                    v[i] = cfg.momentum * v[i] + gi;
                    gi = v[i];
                }
                p[i] -= cfg.lr * gi;
            }
            cursor += p.len();
        });
    }

    #[test]
    fn hoisted_step_matches_the_per_element_loop_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let x = Tensor::from_vec(&[3, 2], vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5]).unwrap();
        let labels = [0usize, 1, 1];
        // Every combination of momentum, weight decay, prox and clipping.
        for mask in 0..16u32 {
            let on = |bit: u32, value: f32| if mask & bit != 0 { value } else { 0.0 };
            let cfg = SgdConfig {
                lr: 0.3,
                momentum: on(1, 0.9),
                weight_decay: on(2, 0.01),
                prox_mu: on(4, 0.5),
                max_grad_norm: on(8, 0.05),
            };
            let (mut fast, mut slow) = (model(20), model(20));
            let mut opt = Sgd::new(cfg, fast.trainable_len());
            let mut velocity = vec![0.0f32; slow.trainable_len()];
            let anchor = (cfg.prox_mu > 0.0)
                .then(|| slow.flat_params().iter().map(|v| v + 0.1).collect::<Vec<f32>>());
            if let Some(a) = &anchor {
                opt.set_prox_anchor(a.clone()).unwrap();
            }
            for _ in 0..4 {
                for m in [&mut fast, &mut slow] {
                    let y = m.forward(&x, true).unwrap();
                    let g = crate::SoftmaxCrossEntropy::grad(&y, &labels).unwrap();
                    m.zero_grad();
                    m.backward(&g).unwrap();
                }
                opt.step(&mut fast).unwrap();
                legacy_step(cfg, &mut velocity, anchor.as_deref(), &mut slow);
                assert_eq!(bits(&fast.flat_params()), bits(&slow.flat_params()), "{cfg:?}");
                assert_eq!(bits(&opt.velocity), bits(&velocity), "{cfg:?}");
            }
        }
    }

    #[test]
    fn plain_sgd_descends() {
        let mut m = model(0);
        let mut opt = Sgd::new(SgdConfig { lr: 0.5, ..Default::default() }, m.trainable_len());
        let x = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let labels = [0usize, 1];
        let first = train_step(&mut m, &mut opt, &x, &labels);
        for _ in 0..30 {
            train_step(&mut m, &mut opt, &x, &labels);
        }
        let y = m.forward(&x, false).unwrap();
        let last = numerics::cross_entropy_mean(&y, &labels).unwrap();
        assert!(last < first * 0.5, "{first} -> {last}");
    }

    #[test]
    fn momentum_accelerates_on_quadratic_like_problem() {
        // Same setup, momentum run should reach a lower loss in the same
        // number of steps (classic heavy-ball behaviour on smooth objectives).
        let x = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let labels = [0usize, 1];

        let mut plain = model(1);
        let mut opt_p =
            Sgd::new(SgdConfig { lr: 0.1, ..Default::default() }, plain.trainable_len());
        let mut heavy = model(1);
        let mut opt_h = Sgd::new(
            SgdConfig { lr: 0.1, momentum: 0.9, ..Default::default() },
            heavy.trainable_len(),
        );
        for _ in 0..20 {
            train_step(&mut plain, &mut opt_p, &x, &labels);
            train_step(&mut heavy, &mut opt_h, &x, &labels);
        }
        let lp = numerics::cross_entropy_mean(&plain.forward(&x, false).unwrap(), &labels).unwrap();
        let lh = numerics::cross_entropy_mean(&heavy.forward(&x, false).unwrap(), &labels).unwrap();
        assert!(lh < lp, "momentum {lh} should beat plain {lp}");
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut m = model(2);
        let before = m.flat_params().iter().map(|v| v * v).sum::<f32>();
        let mut opt = Sgd::new(
            SgdConfig { lr: 0.1, weight_decay: 1.0, ..Default::default() },
            m.trainable_len(),
        );
        // Zero gradients: only decay acts.
        let x = Tensor::zeros(&[1, 2]);
        m.forward(&x, true).unwrap();
        m.zero_grad();
        // Manually skip backward: grads stay zero.
        opt.step(&mut m).unwrap();
        let after = m.flat_params().iter().map(|v| v * v).sum::<f32>();
        assert!(after < before);
    }

    #[test]
    fn prox_pulls_toward_anchor() {
        let mut m = model(3);
        let anchor: Vec<f32> = vec![0.0; m.trainable_len()];
        let mut opt =
            Sgd::new(SgdConfig { lr: 0.1, prox_mu: 10.0, ..Default::default() }, m.trainable_len());
        opt.set_prox_anchor(anchor).unwrap();
        let norm_before: f32 = m.flat_params().iter().map(|v| v * v).sum();
        let x = Tensor::zeros(&[1, 2]);
        m.forward(&x, true).unwrap();
        m.zero_grad();
        opt.step(&mut m).unwrap();
        let norm_after: f32 = m.flat_params().iter().map(|v| v * v).sum();
        assert!(norm_after < norm_before, "prox should pull toward zero anchor");
    }

    #[test]
    fn grad_clipping_bounds_step_size() {
        // Two models, same huge synthetic gradients; the clipped one must
        // move at most max_grad_norm * lr in L2.
        let run = |max_grad_norm: f32| -> f32 {
            let mut m = model(9);
            let before = m.flat_params();
            let x = Tensor::full(&[1, 2], 100.0); // big activations -> big grads
            let y = m.forward(&x, true).unwrap();
            // Label the *least* likely class so the loss (and gradient)
            // is large instead of saturated-correct.
            let label = if y.as_slice()[0] < y.as_slice()[1] { 0 } else { 1 };
            let g = crate::SoftmaxCrossEntropy::grad(&y, &[label]).unwrap();
            m.zero_grad();
            m.backward(&g).unwrap();
            let mut opt = Sgd::new(
                SgdConfig { lr: 1.0, max_grad_norm, ..Default::default() },
                m.trainable_len(),
            );
            opt.step(&mut m).unwrap();
            m.flat_params().iter().zip(&before).map(|(a, b)| (a - b) * (a - b)).sum::<f32>().sqrt()
        };
        let free = run(0.0);
        let clipped = run(0.1);
        assert!(free > 0.1, "unclipped step should be large: {free}");
        assert!(clipped <= 0.1 + 1e-4, "clipped step {clipped}");
    }

    #[test]
    fn clipping_noop_when_grads_small() {
        let mut m = model(10);
        let x = Tensor::full(&[1, 2], 0.01);
        let y = m.forward(&x, true).unwrap();
        let g = crate::SoftmaxCrossEntropy::grad(&y, &[0]).unwrap();
        m.zero_grad();
        m.backward(&g).unwrap();
        let grads = m.flat_grads();
        let norm: f32 = grads.iter().map(|v| v * v).sum::<f32>().sqrt();

        let mut a = model(10);
        let mut b = model(10);
        for (mdl, max) in [(&mut a, 0.0f32), (&mut b, norm * 10.0)] {
            mdl.forward(&x, true).unwrap();
            mdl.zero_grad();
            mdl.backward(&g).unwrap();
            let mut opt = Sgd::new(
                SgdConfig { lr: 0.5, max_grad_norm: max, ..Default::default() },
                mdl.trainable_len(),
            );
            opt.step(mdl).unwrap();
        }
        assert_eq!(a.flat_params(), b.flat_params());
    }

    #[test]
    fn prox_without_anchor_errors() {
        let mut m = model(4);
        let mut opt = Sgd::new(SgdConfig { prox_mu: 0.1, ..Default::default() }, m.trainable_len());
        let x = Tensor::zeros(&[1, 2]);
        m.forward(&x, true).unwrap();
        m.zero_grad();
        assert!(opt.step(&mut m).is_err());
    }

    #[test]
    fn anchor_len_checked() {
        let m = model(5);
        let mut opt = Sgd::new(SgdConfig::default(), m.trainable_len());
        assert!(opt.set_prox_anchor(vec![0.0; 3]).is_err());
    }

    #[test]
    fn model_size_mismatch_errors() {
        let mut big = model(6);
        let mut opt = Sgd::new(SgdConfig::default(), 1);
        assert!(opt.step(&mut big).is_err());
    }
}
