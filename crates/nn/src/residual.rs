//! ResNet basic block with identity or projection shortcut.

use crate::layer::Layer;
use crate::{BatchNorm2d, Conv2d, ReLU};
use fedcav_tensor::backend::{Backend, Dispatch};
use fedcav_tensor::{Result, Tensor, TensorError};
use rand::Rng;

/// A ResNet-18 style basic block:
///
/// ```text
/// x ── conv3x3(s) ─ BN ─ ReLU ─ conv3x3(1) ─ BN ──(+)── ReLU ── y
///  └───────── identity or 1x1 conv(s) + BN ─────────┘
/// ```
///
/// The projection shortcut (1×1 conv + BN) is used when the stride is not 1
/// or the channel count changes, exactly as in He et al. and torchvision's
/// ResNet-18. All sub-layers share the block's [`Backend`].
pub struct BasicBlock<B: Backend = Dispatch> {
    conv1: Conv2d<B>,
    bn1: BatchNorm2d<B>,
    relu1: ReLU,
    conv2: Conv2d<B>,
    bn2: BatchNorm2d<B>,
    shortcut: Option<(Conv2d<B>, BatchNorm2d<B>)>,
    /// Pre-activation sum cached for the final ReLU backward.
    sum_mask: Option<Vec<bool>>,
}

impl BasicBlock {
    /// New basic block `in_c -> out_c` with the given first-conv stride on
    /// the process-global [`Dispatch`] backend.
    pub fn new<R: Rng>(rng: &mut R, in_c: usize, out_c: usize, stride: usize) -> Self {
        BasicBlock::new_on(rng, in_c, out_c, stride)
    }
}

impl<B: Backend> BasicBlock<B> {
    /// [`BasicBlock::new`] on backend `B`.
    ///
    /// RNG draw order (shortcut conv first, then conv1, then conv2) is part
    /// of the model wire format and must not change.
    pub fn new_on<R: Rng>(rng: &mut R, in_c: usize, out_c: usize, stride: usize) -> Self {
        let shortcut = if stride != 1 || in_c != out_c {
            Some((Conv2d::new_on(rng, in_c, out_c, 1, stride, 0), BatchNorm2d::new_on(out_c)))
        } else {
            None
        };
        BasicBlock {
            conv1: Conv2d::new_on(rng, in_c, out_c, 3, stride, 1),
            bn1: BatchNorm2d::new_on(out_c),
            relu1: ReLU::new(),
            conv2: Conv2d::new_on(rng, out_c, out_c, 3, 1, 1),
            bn2: BatchNorm2d::new_on(out_c),
            shortcut,
            sum_mask: None,
        }
    }

    /// Whether this block uses a projection shortcut.
    pub fn has_projection(&self) -> bool {
        self.shortcut.is_some()
    }
}

impl<B: Backend> Layer for BasicBlock<B> {
    fn name(&self) -> &'static str {
        "BasicBlock"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut main = self.conv1.forward(input, train)?;
        main = self.bn1.forward(&main, train)?;
        main = self.relu1.forward(&main, train)?;
        main = self.conv2.forward(&main, train)?;
        main = self.bn2.forward(&main, train)?;

        let short = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(input, train)?;
                bn.forward(&s, train)?
            }
            None => input.clone(),
        };
        let sum = main.add(&short)?;
        if train {
            self.sum_mask = Some(sum.as_slice().iter().map(|&v| v > 0.0).collect());
        }
        Ok(sum.map(|v| v.max(0.0)))
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor> {
        let mask = self
            .sum_mask
            .as_ref()
            .ok_or(TensorError::Empty { op: "BasicBlock::backward (no cached forward)" })?;
        if mask.len() != d_out.numel() {
            return Err(TensorError::ShapeMismatch {
                op: "BasicBlock::backward",
                lhs: vec![mask.len()],
                rhs: vec![d_out.numel()],
            });
        }
        // Final ReLU backward.
        let mut d_sum = d_out.clone();
        for (v, &m) in d_sum.as_mut_slice().iter_mut().zip(mask.iter()) {
            if !m {
                *v = 0.0;
            }
        }
        // Main path backward.
        let mut g = self.bn2.backward(&d_sum)?;
        g = self.conv2.backward(&g)?;
        g = self.relu1.backward(&g)?;
        g = self.bn1.backward(&g)?;
        let d_input_main = self.conv1.backward(&g)?;
        // Shortcut backward.
        let d_input_short = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = bn.backward(&d_sum)?;
                conv.backward(&s)?
            }
            None => d_sum,
        };
        d_input_main.add(&d_input_short)
    }

    fn visit_trainable(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        self.conv1.visit_trainable(f);
        self.bn1.visit_trainable(f);
        self.conv2.visit_trainable(f);
        self.bn2.visit_trainable(f);
        if let Some((conv, bn)) = &mut self.shortcut {
            conv.visit_trainable(f);
            bn.visit_trainable(f);
        }
    }

    fn trainable_len(&self) -> usize {
        let mut n = self.conv1.trainable_len()
            + self.bn1.trainable_len()
            + self.conv2.trainable_len()
            + self.bn2.trainable_len();
        if let Some((conv, bn)) = &self.shortcut {
            n += conv.trainable_len() + bn.trainable_len();
        }
        n
    }

    fn zero_grad(&mut self) {
        self.conv1.zero_grad();
        self.bn1.zero_grad();
        self.conv2.zero_grad();
        self.bn2.zero_grad();
        if let Some((conv, bn)) = &mut self.shortcut {
            conv.zero_grad();
            bn.zero_grad();
        }
    }

    fn state_len(&self) -> usize {
        let mut n = self.conv1.state_len()
            + self.bn1.state_len()
            + self.conv2.state_len()
            + self.bn2.state_len();
        if let Some((conv, bn)) = &self.shortcut {
            n += conv.state_len() + bn.state_len();
        }
        n
    }

    fn write_state(&self, out: &mut Vec<f32>) {
        self.conv1.write_state(out);
        self.bn1.write_state(out);
        self.conv2.write_state(out);
        self.bn2.write_state(out);
        if let Some((conv, bn)) = &self.shortcut {
            conv.write_state(out);
            bn.write_state(out);
        }
    }

    fn read_state(&mut self, src: &[f32]) -> Result<usize> {
        let mut off = 0;
        off += self.conv1.read_state(&src[off..])?;
        off += self.bn1.read_state(&src[off..])?;
        off += self.conv2.read_state(&src[off..])?;
        off += self.bn2.read_state(&src[off..])?;
        if let Some((conv, bn)) = &mut self.shortcut {
            off += conv.read_state(&src[off..])?;
            off += bn.read_state(&src[off..])?;
        }
        Ok(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcav_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_block_shape_preserved() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = BasicBlock::new(&mut rng, 4, 4, 1);
        assert!(!b.has_projection());
        let x = Tensor::zeros(&[2, 4, 8, 8]);
        let y = b.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn projection_block_downsamples() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = BasicBlock::new(&mut rng, 4, 8, 2);
        assert!(b.has_projection());
        let x = Tensor::zeros(&[2, 4, 8, 8]);
        let y = b.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn backward_shape_matches_input() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = BasicBlock::new(&mut rng, 3, 6, 2);
        let x = init::uniform(&mut rng, &[2, 3, 8, 8], -1.0, 1.0);
        let y = b.forward(&x, true).unwrap();
        b.zero_grad();
        let dx = b.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn gradient_check_through_block() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = BasicBlock::new(&mut rng, 2, 2, 1);
        let x = init::uniform(&mut rng, &[1, 2, 4, 4], -1.0, 1.0);
        let g_up = init::uniform(&mut rng, &[1, 2, 4, 4], -1.0, 1.0);

        let y = b.forward(&x, true).unwrap();
        let _ = y;
        b.zero_grad();
        let dx = b.backward(&g_up).unwrap();

        let loss_of = |b: &mut BasicBlock, x: &Tensor| -> f32 {
            // Training forward: batch stats, same as the analytic path.
            b.forward(x, true).unwrap().dot(&g_up).unwrap()
        };
        let eps = 1e-2f32;
        for &k in &[0usize, 7, 19, 31] {
            let mut up = x.clone();
            up.as_mut_slice()[k] += eps;
            let mut dn = x.clone();
            dn.as_mut_slice()[k] -= eps;
            let fd = (loss_of(&mut b, &up) - loss_of(&mut b, &dn)) / (2.0 * eps);
            // ReLU kinks + BN coupling make this less tight than linear layers.
            assert!((fd - dx.as_slice()[k]).abs() < 0.1, "dx[{k}] fd {fd} vs {}", dx.as_slice()[k]);
        }
    }

    #[test]
    fn state_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = BasicBlock::new(&mut rng, 2, 4, 2);
        let mut b = BasicBlock::new(&mut rng, 2, 4, 2);
        let mut buf = Vec::new();
        a.write_state(&mut buf);
        assert_eq!(buf.len(), a.state_len());
        let used = b.read_state(&buf).unwrap();
        assert_eq!(used, buf.len());
        let mut buf2 = Vec::new();
        b.write_state(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn trainable_subset_of_state() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = BasicBlock::new(&mut rng, 2, 4, 2);
        // State includes BN running stats, so it's strictly larger.
        assert!(b.state_len() > b.trainable_len());
    }
}
