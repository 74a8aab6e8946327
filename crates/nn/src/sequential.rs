//! Sequential model container and the FL flat-parameter wire format.

use crate::layer::Layer;
use fedcav_tensor::{Result, Tensor, TensorError};

/// A stack of layers executed in order.
///
/// `Sequential` is the model type used by the whole reproduction: the model
/// zoo in [`crate::models`] returns `Sequential`s, clients train them, and
/// the server aggregates their [`flat_params`](Sequential::flat_params).
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Empty model.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Append a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names, for summaries.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Read-only access to the layer stack (summaries, inspection).
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layer stack, for in-crate tests that drive
    /// the layers one by one.
    #[cfg(test)]
    pub(crate) fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Forward pass through all layers.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    /// Backward pass in reverse layer order, accumulating parameter
    /// gradients. It computes **no gradient w.r.t. the model input**: it
    /// stops at the first layer with trainable parameters, which runs
    /// [`Layer::backward_params`] (parameter gradients only), and the
    /// parameter-free layers before it run no backward at all. The
    /// parameter gradients are bit-identical to a full chain of
    /// [`Layer::backward`] calls.
    pub fn backward(&mut self, d_out: &Tensor) -> Result<()> {
        let Some(first) = self.layers.iter().position(|l| l.trainable_len() > 0) else {
            return Ok(());
        };
        let mut g: Option<Tensor> = None;
        for layer in self.layers.iter_mut().skip(first + 1).rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(d_out))?);
        }
        match self.layers.get_mut(first) {
            Some(layer) => layer.backward_params(g.as_ref().unwrap_or(d_out)),
            None => Ok(()),
        }
    }

    /// Zero all gradient accumulators.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visit `(param, grad)` pairs across all layers in deterministic order.
    pub fn visit_trainable(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        for layer in &mut self.layers {
            layer.visit_trainable(f);
        }
    }

    /// Total trainable scalar count.
    pub fn trainable_len(&self) -> usize {
        self.layers.iter().map(|l| l.trainable_len()).sum()
    }

    /// Total wire-format scalar count (trainable + buffers).
    pub fn state_len(&self) -> usize {
        self.layers.iter().map(|l| l.state_len()).sum()
    }

    /// Per-layer wire-format segment lengths: the nonzero `state_len`s in
    /// layer order. This is the tensor partition of [`flat_params`]
    /// (`Self::flat_params`) that the per-tensor wire codecs
    /// (`fedcav-nn::wire`) quantize over; the entries sum to
    /// [`state_len`](Self::state_len).
    pub fn param_layout(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.state_len()).filter(|&n| n > 0).collect()
    }

    /// Serialise the full model state into one flat vector.
    ///
    /// This is the FL wire format: what a client uploads and what the server
    /// aggregates.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.state_len());
        for layer in &self.layers {
            layer.write_state(&mut out);
        }
        out
    }

    /// Restore the full model state from a flat vector.
    pub fn set_flat_params(&mut self, src: &[f32]) -> Result<()> {
        if src.len() != self.state_len() {
            return Err(TensorError::ElementCountMismatch {
                from: src.len(),
                to: self.state_len(),
            });
        }
        let mut off = 0usize;
        for layer in &mut self.layers {
            off += layer.read_state(&src[off..])?;
        }
        debug_assert_eq!(off, src.len());
        Ok(())
    }

    /// Collect all trainable gradients into one flat vector (diagnostics and
    /// the proximal-term plumbing in `fedcav-fl`).
    pub fn flat_grads(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.trainable_len());
        self.visit_trainable(&mut |_p, g| out.extend_from_slice(g.as_slice()));
        out
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Flatten, ReLU};
    use fedcav_tensor::numerics;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .push(Flatten::new())
            .push(Dense::new(&mut rng, 4, 8))
            .push(ReLU::new())
            .push(Dense::new(&mut rng, 8, 3))
    }

    #[test]
    fn fused_stack_is_bit_identical_to_unfused() {
        // The fused DenseReLU layer must be a drop-in for Dense → ReLU:
        // same RNG stream, same forward bits, same gradient bits.
        let mut unfused = tiny_model(42);
        let mut fused = {
            let mut rng = StdRng::seed_from_u64(42);
            Sequential::new()
                .push(Flatten::new())
                .push(Dense::new_fused_relu(&mut rng, 4, 8))
                .push(Dense::new(&mut rng, 8, 3))
        };
        assert_eq!(fused.layer_names(), vec!["Flatten", "DenseReLU", "Dense"]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&unfused.flat_params()), bits(&fused.flat_params()));

        let mut rng = StdRng::seed_from_u64(7);
        let x = fedcav_tensor::init::uniform(&mut rng, &[5, 4], -1.0, 1.0);
        let y_u = unfused.forward(&x, true).unwrap();
        let y_f = fused.forward(&x, true).unwrap();
        assert_eq!(bits(y_u.as_slice()), bits(y_f.as_slice()));

        let g = numerics::cross_entropy_grad(&y_u, &[0, 1, 2, 0, 1]).unwrap();
        unfused.zero_grad();
        fused.zero_grad();
        unfused.backward(&g).unwrap();
        fused.backward(&g).unwrap();
        assert_eq!(bits(&unfused.flat_grads()), bits(&fused.flat_grads()));
    }

    #[test]
    fn forward_shape() {
        let mut m = tiny_model(0);
        let x = Tensor::zeros(&[5, 2, 2]);
        let y = m.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[5, 3]);
    }

    #[test]
    fn layer_names_ordered() {
        let m = tiny_model(0);
        assert_eq!(m.layer_names(), vec!["Flatten", "Dense", "ReLU", "Dense"]);
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
    }

    #[test]
    fn flat_params_round_trip() {
        let a = tiny_model(1);
        let mut b = tiny_model(2);
        let pa = a.flat_params();
        assert_eq!(pa.len(), a.state_len());
        assert_ne!(pa, b.flat_params());
        b.set_flat_params(&pa).unwrap();
        assert_eq!(b.flat_params(), pa);
    }

    #[test]
    fn set_flat_params_rejects_wrong_len() {
        let mut m = tiny_model(0);
        let p = m.flat_params();
        assert!(m.set_flat_params(&p[..p.len() - 1]).is_err());
    }

    #[test]
    fn trainable_len_matches_flat_grads() {
        let mut m = tiny_model(0);
        let x = Tensor::ones(&[2, 2, 2]);
        let y = m.forward(&x, true).unwrap();
        let g = numerics::cross_entropy_grad(&y, &[0, 1]).unwrap();
        m.zero_grad();
        m.backward(&g).unwrap();
        assert_eq!(m.flat_grads().len(), m.trainable_len());
        // 4*8+8 + 8*3+3 = 40 + 27
        assert_eq!(m.trainable_len(), 67);
    }

    #[test]
    fn training_reduces_loss() {
        // A few manual SGD steps must reduce CE loss on a fixed batch.
        let mut m = tiny_model(3);
        let mut rng = StdRng::seed_from_u64(10);
        let x = fedcav_tensor::init::uniform(&mut rng, &[8, 2, 2], -1.0, 1.0);
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();

        let loss_at = |m: &mut Sequential| {
            let y = m.forward(&x, false).unwrap();
            numerics::cross_entropy_mean(&y, &labels).unwrap()
        };
        let before = loss_at(&mut m);
        for _ in 0..50 {
            let y = m.forward(&x, true).unwrap();
            let g = numerics::cross_entropy_grad(&y, &labels).unwrap();
            m.zero_grad();
            m.backward(&g).unwrap();
            m.visit_trainable(&mut |p, g| {
                p.axpy(-0.5, g).unwrap();
            });
        }
        let after = loss_at(&mut m);
        assert!(after < before * 0.8, "loss {before} -> {after}");
    }

    #[test]
    fn whole_model_gradient_check() {
        // Finite differences on parameters of both dense layers, through
        // the whole stack (Flatten → Dense → ReLU → Dense → CE).
        let mut m = tiny_model(11);
        let x = Tensor::from_vec(&[1, 2, 2], vec![0.4, -0.3, 0.8, 0.1]).unwrap();
        let labels = [2usize];
        let y = m.forward(&x, true).unwrap();
        let g = numerics::cross_entropy_grad(&y, &labels).unwrap();
        m.zero_grad();
        m.backward(&g).unwrap();
        let grads = m.flat_grads();

        let eps = 1e-2f32;
        let loss_at = |m: &mut Sequential, params: &[f32]| {
            m.set_flat_params(params).unwrap();
            let y = m.forward(&x, false).unwrap();
            numerics::cross_entropy_mean(&y, &labels).unwrap()
        };
        let base = m.flat_params();
        // First-layer weights, first-layer bias, second-layer weights.
        for k in [0usize, 5, 17, 33, 38, 45, 60] {
            let mut up = base.clone();
            up[k] += eps;
            let mut dn = base.clone();
            dn[k] -= eps;
            let fd = (loss_at(&mut m, &up) - loss_at(&mut m, &dn)) / (2.0 * eps);
            assert!((fd - grads[k]).abs() < 1e-2, "grad[{k}] fd {fd} vs {}", grads[k]);
        }
    }

    /// Parameter-free pass-through layer that counts its backward calls.
    struct CountingProbe(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl Layer for CountingProbe {
        fn name(&self) -> &'static str {
            "CountingProbe"
        }
        fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
            Ok(input.clone())
        }
        fn backward(&mut self, d_out: &Tensor) -> Result<Tensor> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(d_out.clone())
        }
    }

    #[test]
    fn backward_stops_at_the_first_trainable_layer() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let (before, between) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let mut rng = StdRng::seed_from_u64(12);
        let mut m = Sequential::new()
            .push(CountingProbe(before.clone()))
            .push(Dense::new(&mut rng, 4, 3))
            .push(CountingProbe(between.clone()))
            .push(Dense::new(&mut rng, 3, 2));
        let y = m.forward(&Tensor::ones(&[2, 4]), true).unwrap();
        m.zero_grad();
        m.backward(&numerics::cross_entropy_grad(&y, &[0, 1]).unwrap()).unwrap();
        assert_eq!(before.load(Ordering::Relaxed), 0, "layer before the first trainable one");
        assert_eq!(between.load(Ordering::Relaxed), 1);

        // Without trainable layers there is nothing to back-propagate.
        let mut frozen = Sequential::new().push(CountingProbe(before.clone()));
        frozen.backward(&Tensor::ones(&[2, 4])).unwrap();
        assert_eq!(before.load(Ordering::Relaxed), 0);
    }
}
