//! Pooling layers.

use crate::layer::Layer;
use fedcav_tensor::backend::{Backend, Dispatch};
use fedcav_tensor::{Result, Tensor, TensorError};
use std::marker::PhantomData;

/// Non-overlapping max pooling with a square window.
///
/// Generic over a [`Backend`] for uniformity with the other layers; no
/// backend currently overrides max pooling.
pub struct MaxPool2d<B: Backend = Dispatch> {
    window: usize,
    cached: Option<(Vec<usize>, Vec<usize>)>, // (input dims, argmax)
    _backend: PhantomData<B>,
}

impl MaxPool2d {
    /// New max-pool layer with window (and stride) `window` on the
    /// process-global [`Dispatch`] backend.
    pub fn new(window: usize) -> Self {
        MaxPool2d::new_on(window)
    }
}

impl<B: Backend> MaxPool2d<B> {
    /// [`MaxPool2d::new`] on backend `B`.
    pub fn new_on(window: usize) -> Self {
        MaxPool2d { window, cached: None, _backend: PhantomData }
    }
}

impl<B: Backend> Layer for MaxPool2d<B> {
    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let out = B::maxpool2d_forward(input, self.window)?;
        if train {
            self.cached = Some((input.dims().to_vec(), out.argmax));
        }
        Ok(out.output)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor> {
        let (dims, argmax) = self
            .cached
            .as_ref()
            .ok_or(TensorError::Empty { op: "MaxPool2d::backward (no cached forward)" })?;
        B::maxpool2d_backward(dims, argmax, d_out)
    }
}

/// Global average pooling `[n,c,h,w] -> [n,c]` (ResNet head).
pub struct GlobalAvgPool<B: Backend = Dispatch> {
    cached_dims: Option<Vec<usize>>,
    _backend: PhantomData<B>,
}

impl GlobalAvgPool {
    /// New global-average-pool layer on the process-global [`Dispatch`]
    /// backend.
    pub fn new() -> Self {
        GlobalAvgPool::new_on()
    }
}

impl<B: Backend> GlobalAvgPool<B> {
    /// [`GlobalAvgPool::new`] on backend `B`.
    pub fn new_on() -> Self {
        GlobalAvgPool { cached_dims: None, _backend: PhantomData }
    }
}

impl<B: Backend> Default for GlobalAvgPool<B> {
    fn default() -> Self {
        Self::new_on()
    }
}

impl<B: Backend> Layer for GlobalAvgPool<B> {
    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let out = B::global_avgpool_forward(input)?;
        if train {
            self.cached_dims = Some(input.dims().to_vec());
        }
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or(TensorError::Empty { op: "GlobalAvgPool::backward (no cached forward)" })?;
        B::global_avgpool_backward(dims, d_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_layer_forward_backward() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 4.0, 2.0, 3.0]).unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[4.0]);
        let dx = p.backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]).unwrap()).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_backward_requires_forward() {
        let mut p = MaxPool2d::new(2);
        assert!(p.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn gap_layer_forward_backward() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 1]);
        assert_eq!(y.as_slice(), &[2.5]);
        let dx = p.backward(&Tensor::from_vec(&[1, 1], vec![4.0]).unwrap()).unwrap();
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn gap_backward_requires_forward() {
        let mut p = GlobalAvgPool::new();
        assert!(p.backward(&Tensor::zeros(&[1, 1])).is_err());
    }
}
