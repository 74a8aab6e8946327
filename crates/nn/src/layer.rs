//! The [`Layer`] trait: explicit forward/backward with internal caching.

use fedcav_tensor::{Result, Tensor};

/// A neural-network layer with explicit backward pass.
///
/// Contract:
/// * [`forward`](Layer::forward) must cache whatever it needs for
///   [`backward`](Layer::backward); `backward` may only be called after a
///   `forward` with `train = true` in the same iteration.
/// * Gradients **accumulate** into the layer's grad buffers; call
///   [`zero_grad`](Layer::zero_grad) between optimizer steps.
/// * [`visit_trainable`](Layer::visit_trainable) yields `(param, grad)`
///   pairs in a deterministic order — the optimizer walks them with a flat
///   momentum cursor.
/// * [`state_len`](Layer::state_len) / [`write_state`](Layer::write_state) /
///   [`read_state`](Layer::read_state) define the FL wire format: *all*
///   state that must travel between server and clients (trainable params
///   plus batch-norm running statistics).
pub trait Layer: Send {
    /// Human-readable layer name for debugging and model summaries.
    fn name(&self) -> &'static str;

    /// Compute the layer output. `train` enables behaviour that differs
    /// between training and inference (batch statistics, caching).
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor>;

    /// Back-propagate `d_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// this layer's input.
    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor>;

    /// Back-propagate `d_out` into the parameter gradients only, without
    /// producing the gradient w.r.t. the input. [`crate::Sequential`]
    /// calls this on its first trainable layer, whose input gradient
    /// nobody reads. The accumulated parameter gradients must be
    /// bit-identical to [`backward`](Layer::backward)'s; the default is
    /// `backward` with its result dropped, and layers that can skip the
    /// input-gradient work override it.
    fn backward_params(&mut self, d_out: &Tensor) -> Result<()> {
        self.backward(d_out).map(drop)
    }

    /// Visit `(param, grad)` pairs in deterministic order.
    fn visit_trainable(&mut self, _f: &mut dyn FnMut(&mut Tensor, &Tensor)) {}

    /// Total number of trainable scalars.
    fn trainable_len(&self) -> usize {
        0
    }

    /// Zero all gradient accumulators.
    fn zero_grad(&mut self) {}

    /// Number of scalars in the FL wire format for this layer.
    fn state_len(&self) -> usize {
        0
    }

    /// Append this layer's wire-format state to `out`.
    fn write_state(&self, _out: &mut Vec<f32>) {}

    /// Restore this layer's state from the next `state_len()` scalars of
    /// `src`, returning the number consumed.
    fn read_state(&mut self, _src: &[f32]) -> Result<usize> {
        Ok(0)
    }
}

/// Helper: append a tensor's contents to a flat buffer.
pub(crate) fn write_tensor(out: &mut Vec<f32>, t: &Tensor) {
    out.extend_from_slice(t.as_slice());
}

/// Helper: read `t.numel()` scalars from `src` into `t`, returning count.
pub(crate) fn read_tensor(t: &mut Tensor, src: &[f32]) -> Result<usize> {
    let n = t.numel();
    if src.len() < n {
        return Err(fedcav_tensor::TensorError::ElementCountMismatch { from: src.len(), to: n });
    }
    t.as_mut_slice().copy_from_slice(&src[..n]);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_tensor_round_trip() {
        let src = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &src);
        assert_eq!(buf, vec![1.0, 2.0, 3.0]);
        let mut dst = Tensor::zeros(&[3]);
        let used = read_tensor(&mut dst, &buf).unwrap();
        assert_eq!(used, 3);
        assert_eq!(dst.as_slice(), src.as_slice());
    }

    #[test]
    fn read_tensor_short_buffer_errors() {
        let mut dst = Tensor::zeros(&[4]);
        assert!(read_tensor(&mut dst, &[1.0, 2.0]).is_err());
    }
}
