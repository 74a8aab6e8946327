//! im2col-based convolution: lowers the convolution (forward *and*
//! backward) to large matrix multiplications, fed by a reusable scratch
//! arena so steady-state training performs **zero** per-call allocations
//! for the lowered operands.
//!
//! The direct kernel in [`crate::conv`] wins on the very small feature
//! maps; im2col wins once `in_c·kh·kw` gets large because the blocked
//! matmul (see [`crate::matmul`]) amortises better over cache lines. Both
//! are exposed: the blocked backend lowers through the arena path on the
//! blocked matmul, the reference backend runs the direct
//! kernels, the kernel micro-benches compare them, and the equivalence
//! tests here pin them to each other within f32 rounding.
//!
//! ## Scratch-arena ownership (DESIGN.md §12)
//!
//! [`Im2colScratch`] owns every intermediate buffer the lowering needs.
//! Each buffer is reset with `clear()` + `resize(len, 0.0)` before use —
//! *bit-for-bit identical* to a freshly zero-allocated vector, which is
//! what `tests/kernel_properties.rs` asserts by running a dirty shared
//! arena against the per-call wrappers. The arena grows to the largest
//! shape it has seen and is owned by the layer (one per `Conv2d`), never
//! shared across threads — the parallel executor runs whole clients, each
//! with its own model, so no synchronisation is needed.
//!
//! ## When the unfolded patches are reused
//!
//! The forward leaves `cols = im2col(input)` in the arena and records its
//! geometry (input dims, kernel, stride, padding). A backward through the
//! same arena whose geometry matches reuses those patches instead of
//! unfolding the input again; anything else re-unfolds. The geometry check
//! cannot see the input's *values*, so the contract is: **`cols` are valid
//! from a forward to the backward of that same input.** A caller that
//! runs a backward on any other input — or runs another forward in
//! between, as `Conv2d` does with an eval-mode forward between its
//! training forward and its backward — must call
//! [`Im2colScratch::mark_cols_stale`] first. `Conv2d` does so on every
//! eval-mode forward. The reused patches are bit-for-bit the ones a fresh
//! unfold would produce, so reuse never changes a result.

use crate::conv::{Conv2dGrads, Conv2dParams};
use crate::matmul::{matmul_blocked_bt_into, matmul_blocked_into, Epilogue};
use crate::tensor::{transpose_into, transpose_slice};
use crate::{Result, Tensor, TensorError};

/// Reusable buffers for the im2col lowering. See the module docs for the
/// ownership story, the freshness guarantee and when `cols` are reused.
#[derive(Debug, Default)]
pub struct Im2colScratch {
    /// `[n·oh·ow, in_c·kh·kw]` unfolded input patches.
    cols: Vec<f32>,
    /// Geometry of the input `cols` were unfolded from; `None` when stale.
    cols_of: Option<ColsGeometry>,
    /// `[n·oh·ow, out_c]` matmul output rows (forward).
    out_rows: Vec<f32>,
    /// `[n·oh·ow, out_c]` upstream gradient re-laid per output pixel.
    d_rows: Vec<f32>,
    /// `[out_c, n·oh·ow]` upstream gradient, one row per output channel.
    dr_t: Vec<f32>,
    /// `[n·oh·ow, in_c·kh·kw]` patch gradients before col2im scatter.
    d_cols: Vec<f32>,
}

/// What `cols` were unfolded from, up to the input's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColsGeometry {
    input: [usize; 4],
    kh: usize,
    kw: usize,
    params: Conv2dParams,
}

impl Im2colScratch {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Im2colScratch {
        Im2colScratch::default()
    }

    /// Total capacity currently held across all buffers, in f32 elements.
    /// Diagnostic only (lets tests assert the arena actually persists).
    pub fn capacity_elems(&self) -> usize {
        self.cols.capacity()
            + self.out_rows.capacity()
            + self.d_rows.capacity()
            + self.dr_t.capacity()
            + self.d_cols.capacity()
    }

    /// Forget the unfolded patches, so the next backward unfolds its own
    /// input. Required before a backward whose input is not the one the
    /// last forward through this arena unfolded (see the module docs).
    pub fn mark_cols_stale(&mut self) {
        self.cols_of = None;
    }

    /// Make `cols` hold `im2col(input)` for geometry `g`, unfolding only
    /// when they do not already.
    fn fill_cols(&mut self, input: &Tensor, g: &ConvDims, params: Conv2dParams) {
        let of = ColsGeometry { input: [g.n, g.in_c, g.h, g.w], kh: g.kh, kw: g.kw, params };
        if self.cols_of != Some(of) {
            im2col_into(input, g.kh, g.kw, params, g.oh, g.ow, &mut self.cols);
            self.cols_of = Some(of);
        }
    }
}

/// Validated geometry shared by the forward and backward lowerings.
struct ConvDims {
    n: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
}

fn check_conv_dims(
    op: &'static str,
    input: &Tensor,
    weight: &Tensor,
    params: Conv2dParams,
) -> Result<ConvDims> {
    let wd = weight.dims();
    let &[out_c, in_c, kh, kw] = wd else {
        return Err(TensorError::InvalidShape {
            op,
            shape: wd.to_vec(),
            expected: "rank 4 (OIHW)".to_string(),
        });
    };
    let d = input.dims();
    let &[n, ic, h, w] = d else {
        return Err(TensorError::ShapeMismatch { op, lhs: d.to_vec(), rhs: wd.to_vec() });
    };
    if ic != in_c {
        return Err(TensorError::ShapeMismatch { op, lhs: d.to_vec(), rhs: wd.to_vec() });
    }
    let extent = |len, klen| {
        params.out_extent(len, klen).ok_or_else(|| TensorError::InvalidShape {
            op,
            shape: d.to_vec(),
            expected: "spatial >= kernel after padding".to_string(),
        })
    };
    let oh = extent(h, kh)?;
    let ow = extent(w, kw)?;
    Ok(ConvDims { n, in_c, h, w, out_c, kh, kw, oh, ow })
}

/// Unfold an NCHW input into the im2col matrix
/// `[n·oh·ow, in_c·kh·kw]`: row `r` holds the receptive field of output
/// pixel `r` (zero-padded out-of-range taps).
pub fn im2col(input: &Tensor, kh: usize, kw: usize, params: Conv2dParams) -> Result<Tensor> {
    let d = input.dims();
    let &[n, c, h, w] = d else {
        return Err(TensorError::InvalidShape {
            op: "im2col",
            shape: d.to_vec(),
            expected: "rank 4 (NCHW)".to_string(),
        });
    };
    let oh = params.out_extent(h, kh).ok_or_else(|| TensorError::InvalidShape {
        op: "im2col",
        shape: d.to_vec(),
        expected: format!("spatial >= kernel {kh}x{kw} after padding"),
    })?;
    let ow = params.out_extent(w, kw).ok_or_else(|| TensorError::InvalidShape {
        op: "im2col",
        shape: d.to_vec(),
        expected: format!("spatial >= kernel {kh}x{kw} after padding"),
    })?;
    let mut cols = Vec::new();
    im2col_into(input, kh, kw, params, oh, ow, &mut cols);
    Tensor::from_vec(&[n * oh * ow, c * kh * kw], cols)
}

/// The in-range part of one `kw`-wide tap run whose window starts at
/// padded column `x`: taps `lo..lo + len` read input columns
/// `src..src + len`. `len` is 0 when the whole run is padding.
fn tap_span(x: usize, pad: usize, kw: usize, w: usize) -> (usize, usize, usize) {
    let lo = pad.saturating_sub(x).min(kw);
    let hi = (w + pad).saturating_sub(x).min(kw);
    let len = hi.saturating_sub(lo);
    (lo, len, (x + lo).saturating_sub(pad))
}

/// The arena form of [`im2col`]: unfold into `cols`, clearing and
/// re-zeroing it first (bit-identical to a fresh allocation). Geometry is
/// assumed pre-validated.
fn im2col_into(
    input: &Tensor,
    kh: usize,
    kw: usize,
    params: Conv2dParams,
    oh: usize,
    ow: usize,
    cols: &mut Vec<f32>,
) {
    let d = input.dims();
    let &[n, c, h, w] = d else {
        return;
    };
    let x = input.as_slice();
    let row_len = c * kh * kw;
    cols.clear();
    cols.resize(n * oh * ow * row_len, 0.0);
    if row_len == 0 || h * w == 0 {
        return;
    }
    let (stride, pad) = (params.stride, params.padding);

    // One `cols` row per output pixel; within a row the taps are laid out
    // `[c, kh, kw]`, so a `kw`-wide chunk is one (channel, ky) tap run,
    // copied as one slice. Out-of-range taps keep the zero the resize wrote.
    let mut dst_rows = cols.chunks_exact_mut(row_len);
    for x_img in x.chunks_exact(c * h * w) {
        for oy in 0..oh {
            for ox in 0..ow {
                let Some(dst_row) = dst_rows.next() else {
                    return;
                };
                let (lo, len, src) = tap_span(ox * stride, pad, kw, w);
                let mut taps = dst_row.chunks_exact_mut(kw);
                for x_plane in x_img.chunks_exact(h * w) {
                    for ky in 0..kh {
                        let Some(tap_row) = taps.next() else {
                            break;
                        };
                        let iy = oy * stride + ky;
                        if iy < pad {
                            continue;
                        }
                        let base = (iy - pad) * w + src;
                        if let (Some(dst), Some(run)) =
                            (tap_row.get_mut(lo..lo + len), x_plane.get(base..base + len))
                        {
                            dst.copy_from_slice(run);
                        }
                    }
                }
            }
        }
    }
}

/// col2im: scatter-add each patch gradient in `d_cols` back onto the
/// input planes of `d_input`, in the same fixed row/tap order [`im2col`]
/// read them (deterministic).
fn col2im_add(d_cols: &[f32], g: &ConvDims, params: Conv2dParams, d_input: &mut [f32]) {
    let k = g.in_c * g.kh * g.kw;
    let plane = g.oh * g.ow;
    if k == 0 || g.h * g.w == 0 || g.ow == 0 {
        return;
    }
    let (stride, pad) = (params.stride, params.padding);
    for (col_img, d_img) in
        d_cols.chunks_exact(plane * k).zip(d_input.chunks_exact_mut(g.in_c * g.h * g.w))
    {
        for (r, row) in col_img.chunks_exact(k).enumerate() {
            let (oy, ox) = (r / g.ow, r % g.ow);
            let (lo, len, src) = tap_span(ox * stride, pad, g.kw, g.w);
            let mut taps = row.chunks_exact(g.kw);
            for d_plane in d_img.chunks_exact_mut(g.h * g.w) {
                for ky in 0..g.kh {
                    let Some(tap_row) = taps.next() else {
                        break;
                    };
                    let iy = oy * stride + ky;
                    if iy < pad {
                        continue;
                    }
                    let base = (iy - pad) * g.w + src;
                    if let (Some(run), Some(dst)) =
                        (tap_row.get(lo..lo + len), d_plane.get_mut(base..base + len))
                    {
                        for (slot, &v) in dst.iter_mut().zip(run) {
                            *slot += v;
                        }
                    }
                }
            }
        }
    }
}

/// Forward convolution via im2col + matmul. Same contract as
/// [`crate::conv::conv2d_forward`]. Allocates fresh scratch per call; the
/// arena form is [`conv2d_forward_im2col_with`].
pub fn conv2d_forward_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    params: Conv2dParams,
) -> Result<Tensor> {
    conv2d_forward_im2col_with(input, weight, bias, params, false, &mut Im2colScratch::new())
}

/// Forward convolution via im2col + matmul, with a caller-owned scratch
/// arena and an optional fused ReLU epilogue.
///
/// The bias add (and ReLU, when `relu`) is fused into the lowered
/// matmul's output store — per-element this is the exact operation
/// sequence of the unfused path (`sum`, `+ bias[oc]`, `max(0)`), so the
/// fusion is bitwise-invisible. Leaves `im2col(input)` in the arena for
/// the backward of the same input.
pub fn conv2d_forward_im2col_with(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    params: Conv2dParams,
    relu: bool,
    scratch: &mut Im2colScratch,
) -> Result<Tensor> {
    let g = check_conv_dims("conv2d_forward_im2col", input, weight, params)?;
    if bias.dims() != [g.out_c] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_forward_im2col(bias)",
            lhs: bias.dims().to_vec(),
            rhs: vec![g.out_c],
        });
    }
    let k = g.in_c * g.kh * g.kw;
    let rows = g.n * g.oh * g.ow;

    // A forward always unfolds its own input.
    scratch.mark_cols_stale();
    scratch.fill_cols(input, &g, params);
    // cols [rows, K] × weight-as-[out_c, K]ᵀ -> out_rows [rows, out_c].
    crate::counters::record_matmul(rows, k, g.out_c);
    let ep =
        if relu { Epilogue::BiasRelu(bias.as_slice()) } else { Epilogue::Bias(bias.as_slice()) };
    matmul_blocked_bt_into(
        &scratch.cols,
        weight.as_slice(),
        rows,
        k,
        g.out_c,
        ep,
        &mut scratch.out_rows,
    );

    // Transpose each image's [plane, out_c] block of the matmul output
    // into its NCHW [out_c, plane] block.
    let plane = g.oh * g.ow;
    let mut out = vec![0.0f32; g.n * g.out_c * plane];
    if g.out_c * plane > 0 {
        for (rows_img, out_img) in scratch
            .out_rows
            .chunks_exact(plane * g.out_c)
            .zip(out.chunks_exact_mut(g.out_c * plane))
        {
            transpose_slice(rows_img, plane, g.out_c, out_img);
        }
    }
    crate::sanitize::check_output("conv2d_forward_im2col", &[g.n, g.out_c, g.oh, g.ow], &out);
    Tensor::from_vec(&[g.n, g.out_c, g.oh, g.ow], out)
}

/// Backward convolution via the im2col lowering. Same contract (and
/// gradient definitions) as [`crate::conv::conv2d_backward`]; results
/// agree with the direct kernel within f32 rounding. Allocates fresh
/// scratch per call; the arena form is [`conv2d_backward_im2col_with`].
pub fn conv2d_backward_im2col(
    input: &Tensor,
    weight: &Tensor,
    d_out: &Tensor,
    params: Conv2dParams,
) -> Result<Conv2dGrads> {
    conv2d_backward_im2col_with(input, weight, d_out, params, true, &mut Im2colScratch::new())
}

/// Backward convolution via im2col, with a caller-owned scratch arena.
/// Reuses the patches the last forward through `scratch` unfolded when
/// the geometry matches, so `input` must be that forward's input (see the
/// module docs).
///
/// With `cols = im2col(input)` (`[rows, K]`) and the upstream gradient
/// re-laid as `d_rows` (`[rows, out_c]`), the three gradients are:
///
/// * `d_bias[oc]   = Σ_rows d_rows`            (per-channel plane sums),
/// * `d_weight     = d_rows^T × cols`          (`[out_c, K]`, which *is*
///   OIHW flattened),
/// * `d_input      = col2im(d_rows × weight)`  (scatter-add of the patch
///   gradient back through the unfolding).
///
/// With `need_input_grad == false` the `d_cols` matmul and the col2im
/// scatter are skipped and `d_input` is an empty `[0]` tensor.
pub fn conv2d_backward_im2col_with(
    input: &Tensor,
    weight: &Tensor,
    d_out: &Tensor,
    params: Conv2dParams,
    need_input_grad: bool,
    scratch: &mut Im2colScratch,
) -> Result<Conv2dGrads> {
    let g = check_conv_dims("conv2d_backward_im2col", input, weight, params)?;
    let od = d_out.dims();
    if od != [g.n, g.out_c, g.oh, g.ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward_im2col(d_out)",
            lhs: od.to_vec(),
            rhs: vec![g.n, g.out_c, g.oh, g.ow],
        });
    }
    let k = g.in_c * g.kh * g.kw;
    let rows = g.n * g.oh * g.ow;
    let plane = g.oh * g.ow;

    scratch.fill_cols(input, &g, params);

    // dr_t [out_c, rows]: NCHW plane (image, oc) of the upstream gradient
    // is the run dr_t[oc, image·plane..][..plane], copied whole; the bias
    // gradient sums the same planes in the same image-major order.
    scratch.dr_t.clear();
    scratch.dr_t.resize(g.out_c * rows, 0.0);
    let mut d_bias = vec![0.0f32; g.out_c];
    if g.out_c * plane > 0 {
        for (go_img, at) in d_out.as_slice().chunks_exact(g.out_c * plane).zip((0..).step_by(plane))
        {
            for ((src, db), dst_row) in go_img
                .chunks_exact(plane)
                .zip(d_bias.iter_mut())
                .zip(scratch.dr_t.chunks_exact_mut(rows))
            {
                if let Some(dst) = dst_row.get_mut(at..at + plane) {
                    dst.copy_from_slice(src);
                }
                for &v in src {
                    *db += v;
                }
            }
        }
    }

    // d_weight [out_c, K] = d_rows^T × cols.
    crate::counters::record_matmul(g.out_c, rows, k);
    let mut d_weight = Vec::new();
    matmul_blocked_into(
        &scratch.dr_t,
        &scratch.cols,
        g.out_c,
        rows,
        k,
        Epilogue::None,
        &mut d_weight,
    );

    let (d_input, input_dims) = if need_input_grad {
        // d_cols [rows, K] = d_rows × weight-as-[out_c, K], then col2im.
        transpose_into(&scratch.dr_t, g.out_c, rows, &mut scratch.d_rows);
        crate::counters::record_matmul(rows, g.out_c, k);
        matmul_blocked_into(
            &scratch.d_rows,
            weight.as_slice(),
            rows,
            g.out_c,
            k,
            Epilogue::None,
            &mut scratch.d_cols,
        );
        let mut d_input = vec![0.0f32; g.n * g.in_c * g.h * g.w];
        col2im_add(&scratch.d_cols, &g, params, &mut d_input);
        (d_input, vec![g.n, g.in_c, g.h, g.w])
    } else {
        (Vec::new(), vec![0])
    };

    crate::sanitize::check_output("conv2d_backward_im2col(d_input)", &input_dims, &d_input);
    crate::sanitize::check_output(
        "conv2d_backward_im2col(d_weight)",
        &[g.out_c, g.in_c, g.kh, g.kw],
        &d_weight,
    );
    crate::sanitize::check_output("conv2d_backward_im2col(d_bias)", &[g.out_c], &d_bias);
    Ok(Conv2dGrads {
        d_input: Tensor::from_vec(&input_dims, d_input)?,
        d_weight: Tensor::from_vec(&[g.out_c, g.in_c, g.kh, g.kw], d_weight)?,
        d_bias: Tensor::from_vec(&[g.out_c], d_bias)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{conv2d_backward, conv2d_forward};
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    fn assert_bits(a: &Tensor, b: &Tensor) {
        assert_eq!(a.dims(), b.dims());
        let same = a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "tensors differ bitwise");
    }

    const CASES: [(usize, usize, usize, usize, usize, usize, usize, usize); 5] = [
        (2, 1, 8, 8, 4, 3, 1, 0),
        (1, 3, 9, 7, 2, 3, 2, 1),
        (3, 2, 6, 6, 5, 1, 1, 0),
        (1, 4, 10, 10, 3, 5, 1, 2),
        (2, 2, 8, 8, 3, 2, 2, 0),
    ];

    #[test]
    fn im2col_identity_kernel_rows() {
        // 1x1 kernel: rows are just the channel values at each pixel.
        let input = Tensor::from_vec(&[1, 2, 2, 2], (0..8).map(|v| v as f32).collect()).unwrap();
        let cols = im2col(&input, 1, 1, Conv2dParams::default()).unwrap();
        assert_eq!(cols.dims(), &[4, 2]);
        assert_eq!(cols.as_slice(), &[0.0, 4.0, 1.0, 5.0, 2.0, 6.0, 3.0, 7.0]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let cols = im2col(&input, 3, 3, Conv2dParams { stride: 1, padding: 1 }).unwrap();
        assert_eq!(cols.dims(), &[4, 9]);
        // Top-left output: only the bottom-right 2x2 taps land in-bounds.
        let first = &cols.as_slice()[..9];
        assert_eq!(first, &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn matches_direct_conv_various_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        for &(n, c, h, w, oc, k, stride, padding) in &CASES {
            let input = init::uniform(&mut rng, &[n, c, h, w], -1.0, 1.0);
            let weight = init::uniform(&mut rng, &[oc, c, k, k], -0.5, 0.5);
            let bias = init::uniform(&mut rng, &[oc], -0.1, 0.1);
            let params = Conv2dParams { stride, padding };
            let direct = conv2d_forward(&input, &weight, &bias, params).unwrap();
            let lowered = conv2d_forward_im2col(&input, &weight, &bias, params).unwrap();
            assert_close(&direct, &lowered, 1e-4);
        }
    }

    #[test]
    fn backward_matches_direct_conv_various_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(n, c, h, w, oc, k, stride, padding) in &CASES {
            let input = init::uniform(&mut rng, &[n, c, h, w], -1.0, 1.0);
            let weight = init::uniform(&mut rng, &[oc, c, k, k], -0.5, 0.5);
            let params = Conv2dParams { stride, padding };
            let oh = params.out_extent(h, k).unwrap();
            let ow = params.out_extent(w, k).unwrap();
            let d_out = init::uniform(&mut rng, &[n, oc, oh, ow], -1.0, 1.0);
            let direct = conv2d_backward(&input, &weight, &d_out, params).unwrap();
            let lowered = conv2d_backward_im2col(&input, &weight, &d_out, params).unwrap();
            assert_close(&direct.d_input, &lowered.d_input, 1e-4);
            assert_close(&direct.d_weight, &lowered.d_weight, 1e-3);
            assert_close(&direct.d_bias, &lowered.d_bias, 1e-4);
        }
    }

    #[test]
    fn dirty_arena_reuse_is_bit_identical_to_fresh() {
        // One arena across every case — including shrinking shapes, so
        // stale data from larger runs would surface immediately.
        let mut rng = StdRng::seed_from_u64(23);
        let mut arena = Im2colScratch::new();
        for &(n, c, h, w, oc, k, stride, padding) in &CASES {
            let input = init::uniform(&mut rng, &[n, c, h, w], -1.0, 1.0);
            let weight = init::uniform(&mut rng, &[oc, c, k, k], -0.5, 0.5);
            let bias = init::uniform(&mut rng, &[oc], -0.1, 0.1);
            let params = Conv2dParams { stride, padding };
            let fresh = conv2d_forward_im2col(&input, &weight, &bias, params).unwrap();
            let reused =
                conv2d_forward_im2col_with(&input, &weight, &bias, params, false, &mut arena)
                    .unwrap();
            assert_bits(&fresh, &reused);
            let oh = params.out_extent(h, k).unwrap();
            let ow = params.out_extent(w, k).unwrap();
            let d_out = init::uniform(&mut rng, &[n, oc, oh, ow], -1.0, 1.0);
            let fresh_b = conv2d_backward_im2col(&input, &weight, &d_out, params).unwrap();
            let reused_b =
                conv2d_backward_im2col_with(&input, &weight, &d_out, params, true, &mut arena)
                    .unwrap();
            assert_bits(&fresh_b.d_input, &reused_b.d_input);
            assert_bits(&fresh_b.d_weight, &reused_b.d_weight);
            assert_bits(&fresh_b.d_bias, &reused_b.d_bias);
        }
        assert!(arena.capacity_elems() > 0);
    }

    #[test]
    fn backward_unfolds_afresh_after_a_forward_of_another_geometry() {
        // The arena's patches are reused only for the geometry they were
        // unfolded from: another batch size, or the same input under
        // another padding, must not pick them up.
        let mut rng = StdRng::seed_from_u64(29);
        let weight = init::uniform(&mut rng, &[3, 2, 3, 3], -0.5, 0.5);
        let bias = Tensor::zeros(&[3]);
        let pair = init::uniform(&mut rng, &[2, 2, 7, 7], -1.0, 1.0);
        let single = init::uniform(&mut rng, &[1, 2, 7, 7], -1.0, 1.0);
        let same = Conv2dParams { stride: 1, padding: 1 };
        for (forwarded, fwd_params, input, params) in [
            (&pair, same, &single, same),
            (&single, Conv2dParams { stride: 1, padding: 0 }, &single, same),
        ] {
            let mut arena = Im2colScratch::new();
            conv2d_forward_im2col_with(forwarded, &weight, &bias, fwd_params, false, &mut arena)
                .unwrap();
            let d_out = init::uniform(&mut rng, &[1, 3, 7, 7], -1.0, 1.0);
            let fresh = conv2d_backward_im2col(input, &weight, &d_out, params).unwrap();
            let reused =
                conv2d_backward_im2col_with(input, &weight, &d_out, params, true, &mut arena)
                    .unwrap();
            assert_bits(&fresh.d_input, &reused.d_input);
            assert_bits(&fresh.d_weight, &reused.d_weight);
            assert_bits(&fresh.d_bias, &reused.d_bias);
        }
    }

    #[test]
    fn fused_relu_matches_forward_then_relu_bitwise() {
        let mut rng = StdRng::seed_from_u64(37);
        let input = init::uniform(&mut rng, &[2, 3, 7, 7], -1.0, 1.0);
        let weight = init::uniform(&mut rng, &[4, 3, 3, 3], -0.5, 0.5);
        let bias = init::uniform(&mut rng, &[4], -0.5, 0.5);
        let params = Conv2dParams { stride: 1, padding: 1 };
        let mut unfused = conv2d_forward_im2col(&input, &weight, &bias, params).unwrap();
        unfused.map_in_place(|v| v.max(0.0));
        let fused = conv2d_forward_im2col_with(
            &input,
            &weight,
            &bias,
            params,
            true,
            &mut Im2colScratch::new(),
        )
        .unwrap();
        assert_bits(&unfused, &fused);
    }

    #[test]
    fn backward_d_out_shape_checked() {
        let input = Tensor::zeros(&[1, 2, 4, 4]);
        let weight = Tensor::zeros(&[3, 2, 3, 3]);
        let bad = Tensor::zeros(&[1, 3, 4, 4]); // wrong spatial extent
        assert!(conv2d_backward_im2col(&input, &weight, &bad, Conv2dParams::default()).is_err());
    }

    #[test]
    fn shape_errors_match_direct() {
        let input = Tensor::zeros(&[1, 2, 4, 4]);
        let weight = Tensor::zeros(&[1, 3, 3, 3]); // channel mismatch
        let bias = Tensor::zeros(&[1]);
        assert!(conv2d_forward_im2col(&input, &weight, &bias, Conv2dParams::default()).is_err());
        let weight = Tensor::zeros(&[1, 2, 3, 3]);
        let bias_bad = Tensor::zeros(&[2]);
        assert!(conv2d_forward_im2col(&input, &weight, &bias_bad, Conv2dParams::default()).is_err());
    }

    #[test]
    fn kernel_larger_than_input_rejected() {
        let input = Tensor::zeros(&[1, 1, 2, 2]);
        let weight = Tensor::zeros(&[1, 1, 5, 5]);
        let bias = Tensor::zeros(&[1]);
        assert!(conv2d_forward_im2col(&input, &weight, &bias, Conv2dParams::default()).is_err());
    }
}
