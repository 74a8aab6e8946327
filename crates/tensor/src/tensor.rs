//! The dense `f32` tensor type and its elementwise / linear-algebra ops.

use crate::{Result, Shape, TensorError};

/// An owned, contiguous, row-major tensor of `f32`.
///
/// This is the single data type flowing through the whole reproduction:
/// images, activations, gradients, and flattened model parameters are all
/// `Tensor`s (or plain `Vec<f32>` views of them).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// Tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor { shape, data: vec![1.0; n] }
    }

    /// Tensor filled with a constant.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor { shape, data: vec![value; n] }
    }

    /// Build from an existing buffer; fails if the element count mismatches.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.numel() != data.len() {
            return Err(TensorError::ElementCountMismatch { from: data.len(), to: shape.numel() });
        }
        Ok(Tensor { shape, data })
    }

    /// Build a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { shape: Shape::new(&[data.len()]), data: data.to_vec() }
    }

    // ------------------------------------------------------------ accessors

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the backing buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index (checked).
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Set element at a multi-index (checked).
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    // -------------------------------------------------------------- reshape

    /// Reinterpret with a new shape of the same element count.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.numel() != self.data.len() {
            return Err(TensorError::ElementCountMismatch {
                from: self.data.len(),
                to: shape.numel(),
            });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// In-place reshape (no copy).
    pub fn reshape_in_place(&mut self, dims: &[usize]) -> Result<()> {
        let shape = Shape::new(dims);
        if shape.numel() != self.data.len() {
            return Err(TensorError::ElementCountMismatch {
                from: self.data.len(),
                to: shape.numel(),
            });
        }
        self.shape = shape;
        Ok(())
    }

    // --------------------------------------------------------- elementwise

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Elementwise sum, returning a new tensor.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "add")?;
        let mut out = self.clone();
        out.add_assign(other)?;
        Ok(out)
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        zip_apply(&mut self.data, &other.data, |a, b| *a += b);
        Ok(())
    }

    /// Elementwise difference, returning a new tensor.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "sub")?;
        let mut out = self.clone();
        zip_apply(&mut out.data, &other.data, |a, b| *a -= b);
        Ok(out)
    }

    /// Elementwise `self -= other`.
    pub fn sub_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "sub_assign")?;
        zip_apply(&mut self.data, &other.data, |a, b| *a -= b);
        Ok(())
    }

    /// Elementwise (Hadamard) product, returning a new tensor.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "mul")?;
        let mut out = self.clone();
        zip_apply(&mut out.data, &other.data, |a, b| *a *= b);
        Ok(out)
    }

    /// Scale every element by a constant, returning a new tensor.
    pub fn scale(&self, k: f32) -> Tensor {
        let mut out = self.clone();
        out.scale_assign(k);
        out
    }

    /// In-place scaling.
    pub fn scale_assign(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// `self += k * other` (axpy); the workhorse of SGD and aggregation.
    pub fn axpy(&mut self, k: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        zip_apply(&mut self.data, &other.data, move |a, b| *a += k * b);
        Ok(())
    }

    /// Apply a function to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        out.map_in_place(f);
        out
    }

    /// Apply a function to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; error on empty.
    pub fn mean(&self) -> Result<f32> {
        if self.data.is_empty() {
            return Err(TensorError::Empty { op: "mean" });
        }
        Ok(self.sum() / self.data.len() as f32)
    }

    /// Maximum element; error on empty.
    pub fn max(&self) -> Result<f32> {
        if self.data.is_empty() {
            return Err(TensorError::Empty { op: "max" });
        }
        Ok(self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max))
    }

    /// Dot product with another tensor of the same shape.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other, "dot")?;
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum())
    }

    // --------------------------------------------------------------- matmul

    /// Matrix product of two rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Dispatches to the process-global backend selected by
    /// [`crate::backend::backend_kind`] (`FEDCAV_BACKEND=blocked|
    /// reference`, default the cache-blocked register-tiled kernel;
    /// `reference` is the original naive kernel kept as the
    /// differential-test oracle). Both f32 kernels run on the calling
    /// thread and accumulate each element in strictly ascending `k` order,
    /// so results are run-to-run bit-identical per kernel.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.matmul_fused(rhs, None, false)
    }

    /// [`matmul`](Tensor::matmul) on a statically chosen backend.
    pub fn matmul_on<B: crate::backend::Backend>(&self, rhs: &Tensor) -> Result<Tensor> {
        self.matmul_fused_on::<B>(rhs, None, false)
    }

    /// `self × rhs_tᵀ` on backend `B`: `[m,k] × [n,k]ᵀ -> [m,n]`, with the
    /// right operand given as its transpose. Bit-identical to
    /// `self.matmul_on::<B>(&rhs_t.transpose()?)` without building the
    /// transpose (see [`TensorOps::matmul_bt`]).
    ///
    /// [`TensorOps::matmul_bt`]: crate::backend::TensorOps::matmul_bt
    pub fn matmul_bt_on<B: crate::backend::Backend>(&self, rhs_t: &Tensor) -> Result<Tensor> {
        let (a_dims, b_dims) = (self.dims(), rhs_t.dims());
        let (&[m, k], &[n, k2]) = (a_dims, b_dims) else {
            return Err(TensorError::InvalidShape {
                op: "matmul_bt",
                shape: if a_dims.len() != 2 { a_dims.to_vec() } else { b_dims.to_vec() },
                expected: "rank 2".to_string(),
            });
        };
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bt",
                lhs: a_dims.to_vec(),
                rhs: b_dims.to_vec(),
            });
        }
        crate::counters::record_matmul(m, k, n);
        let mut out = Vec::new();
        B::matmul_bt(&self.data, &rhs_t.data, m, k, n, crate::matmul::Epilogue::None, &mut out);
        B::sanitize("matmul", &[m, n], &out);
        Tensor::from_vec(&[m, n], out)
    }

    /// Matrix product with a fused epilogue: optional per-output-column
    /// `bias` add (shape `[n]`) and optional ReLU, applied to each output
    /// element right after its `k`-accumulation finishes.
    ///
    /// The fusion is bitwise-invisible: the per-element operation sequence
    /// is exactly `sum`, then `+ bias[j]`, then `max(0)` — identical to a
    /// plain [`matmul`](Tensor::matmul) followed by separate bias/ReLU
    /// passes. `fedcav-nn`'s fused Dense/Conv2d layers rely on this to
    /// stay bit-identical to their unfused stacks.
    pub fn matmul_fused(&self, rhs: &Tensor, bias: Option<&Tensor>, relu: bool) -> Result<Tensor> {
        self.matmul_fused_on::<crate::backend::Dispatch>(rhs, bias, relu)
    }

    /// [`matmul_fused`](Tensor::matmul_fused) on a statically chosen
    /// backend `B` instead of the process-global [`Dispatch`] one.
    ///
    /// [`Dispatch`]: crate::backend::Dispatch
    pub fn matmul_fused_on<B: crate::backend::Backend>(
        &self,
        rhs: &Tensor,
        bias: Option<&Tensor>,
        relu: bool,
    ) -> Result<Tensor> {
        let (a_dims, b_dims) = (self.dims(), rhs.dims());
        if a_dims.len() != 2 || b_dims.len() != 2 {
            return Err(TensorError::InvalidShape {
                op: "matmul",
                shape: if a_dims.len() != 2 { a_dims.to_vec() } else { b_dims.to_vec() },
                expected: "rank 2".to_string(),
            });
        }
        let (m, k) = (a_dims[0], a_dims[1]);
        let (k2, n) = (b_dims[0], b_dims[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: a_dims.to_vec(),
                rhs: b_dims.to_vec(),
            });
        }
        if let Some(b) = bias {
            if b.dims() != [n] {
                return Err(TensorError::ShapeMismatch {
                    op: "matmul_fused(bias)",
                    lhs: b.dims().to_vec(),
                    rhs: vec![n],
                });
            }
        }
        crate::counters::record_matmul(m, k, n);
        let ep = match (bias, relu) {
            (None, false) => crate::matmul::Epilogue::None,
            (None, true) => crate::matmul::Epilogue::Relu,
            (Some(b), false) => crate::matmul::Epilogue::Bias(b.as_slice()),
            (Some(b), true) => crate::matmul::Epilogue::BiasRelu(b.as_slice()),
        };
        let mut out = Vec::new();
        B::matmul(&self.data, &rhs.data, m, k, n, ep, &mut out);
        B::sanitize("matmul", &[m, n], &out);
        Tensor::from_vec(&[m, n], out)
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Result<Tensor> {
        let dims = self.dims();
        let &[m, n] = dims else {
            return Err(TensorError::InvalidShape {
                op: "transpose",
                shape: dims.to_vec(),
                expected: "rank 2".to_string(),
            });
        };
        let mut out = vec![0.0f32; m * n];
        transpose_slice(&self.data, m, n, &mut out);
        Tensor::from_vec(&[n, m], out)
    }

    // ------------------------------------------------------------ batch ops

    /// Copy rows `indices` of a rank-≥1 tensor whose axis 0 indexes samples.
    ///
    /// Used to assemble mini-batches: `gather_rows(&[3,1,4])` on an
    /// `[N, C, H, W]` image tensor yields `[3, C, H, W]`.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Tensor> {
        let dims = self.dims();
        if dims.is_empty() {
            return Err(TensorError::InvalidShape {
                op: "gather_rows",
                shape: dims.to_vec(),
                expected: "rank >= 1".to_string(),
            });
        }
        let row_len: usize = dims[1..].iter().product();
        let n = dims[0];
        let mut out = Vec::with_capacity(indices.len() * row_len);
        for &i in indices {
            if i >= n {
                return Err(TensorError::IndexOutOfBounds { index: i, bound: n });
            }
            out.extend_from_slice(&self.data[i * row_len..(i + 1) * row_len]);
        }
        let mut out_dims = dims.to_vec();
        out_dims[0] = indices.len();
        Tensor::from_vec(&out_dims, out)
    }
}

/// Edge of the square tiles [`transpose_slice`] copies through: a
/// `TILE × TILE` block of `f32` (4 KiB) keeps both the source rows and the
/// destination rows it touches in L1.
const TILE: usize = 32;

/// `dst = src^T` for a row-major `[rows, cols]` matrix, copied tile by tile.
/// `dst` must hold `rows * cols` elements; a short buffer leaves the
/// uncovered part untouched. Pure data movement, so the result is bit-for-
/// bit the element-by-element transpose.
pub(crate) fn transpose_slice(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    if rows == 0 || cols == 0 {
        return;
    }
    for (band, src_band) in src.chunks(TILE * cols).enumerate() {
        let r0 = band * TILE;
        for c0 in (0..cols).step_by(TILE) {
            let c1 = (c0 + TILE).min(cols);
            for (i, src_row) in src_band.chunks_exact(cols).enumerate() {
                let Some(seg) = src_row.get(c0..c1) else {
                    continue;
                };
                for (&v, dst_row) in seg.iter().zip(dst.chunks_exact_mut(rows).skip(c0)) {
                    if let Some(d) = dst_row.get_mut(r0 + i) {
                        *d = v;
                    }
                }
            }
        }
    }
}

/// [`transpose_slice`] into an arena buffer, cleared and resized first.
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut Vec<f32>) {
    dst.clear();
    dst.resize(rows * cols, 0.0);
    transpose_slice(src, rows, cols, dst);
}

/// Apply a binary op elementwise over two equal-length buffers.
fn zip_apply(a: &mut [f32], b: &[f32], f: impl Fn(&mut f32, f32)) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b.iter()) {
        f(x, *y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 2.5).as_slice(), &[2.5, 2.5]);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn at_and_set() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.0).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 7.0);
        assert_eq!(t.at(&[0, 0]).unwrap(), 0.0);
        assert!(t.at(&[2, 0]).is_err());
    }

    #[test]
    fn add_sub_mul() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.mul(&b).is_err());
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let b = Tensor::from_slice(&[2.0, 4.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn scale_and_map() {
        let a = Tensor::from_slice(&[1.0, -2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, -4.0]);
        assert_eq!(a.map(|v| v.abs()).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0, -4.0]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.mean().unwrap(), 0.5);
        assert_eq!(a.max().unwrap(), 3.0);
    }

    #[test]
    fn empty_reductions_error() {
        let a = Tensor::zeros(&[0]);
        assert!(a.mean().is_err());
        assert!(a.max().is_err());
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!(a.dot(&b).unwrap(), 11.0);
    }

    #[test]
    fn matmul_2x2() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rect() {
        // [1,3] x [3,2]
        let a = Tensor::from_vec(&[1, 3], vec![1.0, 0.0, 2.0]).unwrap();
        let b = Tensor::from_vec(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[1, 2]);
        assert_eq!(c.as_slice(), &[11.0, 14.0]);
    }

    #[test]
    fn matmul_fused_bias_relu_matches_separate_passes() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, -2.0, 0.5, 0.0, 3.0, -1.0]).unwrap();
        let b = Tensor::from_vec(&[3, 2], vec![1.0, 2.0, -3.0, 4.0, 5.0, -6.0]).unwrap();
        let bias = Tensor::from_vec(&[2], vec![0.25, -10.0]).unwrap();
        let plain = a.matmul(&b).unwrap();
        let manual: Vec<f32> = plain
            .as_slice()
            .chunks(2)
            .flat_map(|row| row.iter().zip(bias.as_slice()).map(|(v, bv)| (v + bv).max(0.0)))
            .collect();
        let fused = a.matmul_fused(&b, Some(&bias), true).unwrap();
        assert_eq!(fused.as_slice(), manual.as_slice());
        // Wrong bias shape is rejected.
        let bad = Tensor::zeros(&[3]);
        assert!(a.matmul_fused(&b, Some(&bad), false).is_err());
    }

    #[test]
    fn matmul_inner_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_identity() {
        let mut eye = Tensor::zeros(&[3, 3]);
        for i in 0..3 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        let a = Tensor::from_vec(&[3, 3], (0..9).map(|v| v as f32).collect()).unwrap();
        assert_eq!(a.matmul(&eye).unwrap(), a);
        assert_eq!(eye.matmul(&a).unwrap(), a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn transpose_matches_naive_loop() {
        for &(m, n) in &[(0, 5), (5, 0), (1, 7), (7, 1), (17, 33), (40, 70)] {
            let a = Tensor::from_vec(&[m, n], (0..m * n).map(|v| v as f32 * 0.5 - 3.0).collect())
                .unwrap();
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    naive[j * m + i] = a.as_slice()[i * n + j];
                }
            }
            let t = a.transpose().unwrap();
            assert_eq!(t.dims(), &[n, m]);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(t.as_slice()), bits(&naive), "{m}x{n}");
        }
        assert!(Tensor::zeros(&[2, 3, 4]).transpose().is_err());
    }

    #[test]
    fn reshape_checks() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.reshape(&[3, 2]).is_ok());
        assert!(a.reshape(&[6]).is_ok());
        assert!(a.reshape(&[4]).is_err());
    }

    #[test]
    fn gather_rows_batches() {
        let a = Tensor::from_vec(&[3, 2], vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]).unwrap();
        let g = a.gather_rows(&[2, 0]).unwrap();
        assert_eq!(g.dims(), &[2, 2]);
        assert_eq!(g.as_slice(), &[20.0, 21.0, 0.0, 1.0]);
        assert!(a.gather_rows(&[3]).is_err());
    }

    #[test]
    fn matmul_records_op_counters() {
        let _guard = crate::counters::TEST_LOCK.lock().unwrap();
        let a = Tensor::ones(&[3, 4]);
        let b = Tensor::ones(&[4, 5]);
        let before = crate::counters::snapshot();
        crate::counters::enable();
        a.matmul(&b).unwrap();
        crate::counters::disable();
        let d = crate::counters::snapshot().delta(&before);
        assert!(d.matmul_calls >= 1);
        assert!(d.matmul_flops >= 2 * 3 * 4 * 5);
        assert!(d.bytes_moved >= 4 * (12 + 20 + 15));
    }

    #[test]
    fn large_tensor_add_and_sum() {
        let n = 20_000;
        let a = Tensor::from_vec(&[n], (0..n).map(|v| v as f32).collect()).unwrap();
        let b = Tensor::ones(&[n]);
        let c = a.add(&b).unwrap();
        assert_eq!(c.as_slice()[0], 1.0);
        assert_eq!(c.as_slice()[n - 1], n as f32);
        let exact = (0..n).map(|v| v as f64 + 1.0).sum::<f64>();
        assert!((c.sum() as f64 - exact).abs() / exact < 1e-4);
    }
}
