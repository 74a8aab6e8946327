//! Direct 2-D convolution in NCHW layout, forward and backward.
//!
//! The kernels are plain nested loops over the batch axis, run on the
//! calling thread: the FL simulation trains many small models concurrently,
//! and the client executor (`fedcav_fl::executor`) is the one thread pool.
//!
//! Since the blocked-kernel rewrite these are the **reference** conv path:
//! `fedcav-nn`'s `Conv2d` uses them under the reference backend and
//! the arena-backed im2col lowering ([`crate::im2col`]) otherwise, and the
//! differential property suite pins the two against each other.

use crate::{Result, Tensor, TensorError};

/// Static configuration of a convolution: stride and symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding added on each side of both spatial axes.
    pub padding: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams { stride: 1, padding: 0 }
    }
}

impl Conv2dParams {
    /// Output spatial extent for an input extent and kernel extent.
    pub fn out_extent(&self, input: usize, kernel: usize) -> Option<usize> {
        let padded = input + 2 * self.padding;
        if padded < kernel || self.stride == 0 {
            return None;
        }
        Some((padded - kernel) / self.stride + 1)
    }
}

fn check_rank4(t: &Tensor, op: &'static str) -> Result<()> {
    if t.dims().len() != 4 {
        return Err(TensorError::InvalidShape {
            op,
            shape: t.dims().to_vec(),
            expected: "rank 4 (NCHW)".to_string(),
        });
    }
    Ok(())
}

/// Forward convolution.
///
/// * `input`:  `[n, in_c, h, w]`
/// * `weight`: `[out_c, in_c, kh, kw]`
/// * `bias`:   `[out_c]`
///
/// Returns `[n, out_c, oh, ow]`.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    params: Conv2dParams,
) -> Result<Tensor> {
    check_rank4(input, "conv2d_forward(input)")?;
    check_rank4(weight, "conv2d_forward(weight)")?;
    let (n, in_c, h, w) = dims4(input);
    let (out_c, w_in_c, kh, kw) = dims4(weight);
    if in_c != w_in_c {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_forward",
            lhs: input.dims().to_vec(),
            rhs: weight.dims().to_vec(),
        });
    }
    if bias.dims() != [out_c] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_forward(bias)",
            lhs: bias.dims().to_vec(),
            rhs: vec![out_c],
        });
    }
    let oh = params.out_extent(h, kh).ok_or_else(|| TensorError::InvalidShape {
        op: "conv2d_forward",
        shape: input.dims().to_vec(),
        expected: format!("spatial >= kernel {kh}x{kw} after padding"),
    })?;
    let ow = params.out_extent(w, kw).ok_or_else(|| TensorError::InvalidShape {
        op: "conv2d_forward",
        shape: input.dims().to_vec(),
        expected: format!("spatial >= kernel {kh}x{kw} after padding"),
    })?;

    let macs = (n * out_c * oh * ow) as u64 * (in_c * kh * kw) as u64;
    crate::counters::record_conv(
        2 * macs,
        4 * (input.numel() + weight.numel() + bias.numel() + n * out_c * oh * ow) as u64,
    );
    let mut out = vec![0.0f32; n * out_c * oh * ow];
    let x = input.as_slice();
    let wt = weight.as_slice();
    let b = bias.as_slice();
    let (stride, pad) = (params.stride, params.padding);

    out.chunks_mut(out_c * oh * ow).enumerate().for_each(|(ni, out_img)| {
        let x_img = &x[ni * in_c * h * w..(ni + 1) * in_c * h * w];
        for oc in 0..out_c {
            let w_oc = &wt[oc * in_c * kh * kw..(oc + 1) * in_c * kh * kw];
            let out_plane = &mut out_img[oc * oh * ow..(oc + 1) * oh * ow];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b[oc];
                    for ic in 0..in_c {
                        let x_plane = &x_img[ic * h * w..(ic + 1) * h * w];
                        let w_plane = &w_oc[ic * kh * kw..(ic + 1) * kh * kw];
                        for ky in 0..kh {
                            let iy = oy * stride + ky;
                            if iy < pad || iy - pad >= h {
                                continue;
                            }
                            let iy = iy - pad;
                            let x_row = &x_plane[iy * w..(iy + 1) * w];
                            let w_row = &w_plane[ky * kw..(ky + 1) * kw];
                            for (kx, &wk) in w_row.iter().enumerate() {
                                let ix = ox * stride + kx;
                                if ix < pad || ix - pad >= w {
                                    continue;
                                }
                                acc += x_row[ix - pad] * wk;
                            }
                        }
                    }
                    out_plane[oy * ow + ox] = acc;
                }
            }
        }
    });
    crate::sanitize::check_output("conv2d_forward", &[n, out_c, oh, ow], &out);
    Tensor::from_vec(&[n, out_c, oh, ow], out)
}

/// Gradients produced by the convolution backward pass.
#[derive(Debug)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[n, in_c, h, w]`; an empty `[0]` tensor
    /// when the backward was asked to skip it (`need_input_grad == false`).
    pub d_input: Tensor,
    /// Gradient w.r.t. the weights, `[out_c, in_c, kh, kw]`.
    pub d_weight: Tensor,
    /// Gradient w.r.t. the bias, `[out_c]`.
    pub d_bias: Tensor,
}

/// Backward convolution given upstream `d_out = dL/d(output)`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    d_out: &Tensor,
    params: Conv2dParams,
) -> Result<Conv2dGrads> {
    direct_backward(input, weight, d_out, params, true)
}

/// [`conv2d_backward`] with the input gradient optional: when
/// `need_input_grad` is false its pass is skipped and `d_input` is an
/// empty `[0]` tensor. `d_weight` and `d_bias` do not depend on the flag.
pub(crate) fn direct_backward(
    input: &Tensor,
    weight: &Tensor,
    d_out: &Tensor,
    params: Conv2dParams,
    need_input_grad: bool,
) -> Result<Conv2dGrads> {
    check_rank4(input, "conv2d_backward(input)")?;
    check_rank4(weight, "conv2d_backward(weight)")?;
    check_rank4(d_out, "conv2d_backward(d_out)")?;
    let (n, in_c, h, w) = dims4(input);
    let (out_c, _, kh, kw) = dims4(weight);
    let (dn, doc, oh, ow) = dims4(d_out);
    if dn != n || doc != out_c {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: d_out.dims().to_vec(),
            rhs: vec![n, out_c],
        });
    }
    let (stride, pad) = (params.stride, params.padding);
    // The d_input and d_weight passes each walk the forward MAC lattice.
    let macs = (n * out_c * oh * ow) as u64 * (in_c * kh * kw) as u64;
    let passes = if need_input_grad { 2 } else { 1 };
    crate::counters::record_conv(
        2 * passes * macs,
        4 * (passes as usize * (input.numel() + weight.numel()) + d_out.numel() + out_c) as u64,
    );
    let x = input.as_slice();
    let wt = weight.as_slice();
    let go = d_out.as_slice();

    // d_input: per sample (disjoint per-sample planes).
    let mut d_input = vec![0.0f32; if need_input_grad { n * in_c * h * w } else { 0 }];
    d_input.chunks_mut(in_c * h * w).enumerate().for_each(|(ni, dx_img)| {
        let go_img = &go[ni * out_c * oh * ow..(ni + 1) * out_c * oh * ow];
        for oc in 0..out_c {
            let go_plane = &go_img[oc * oh * ow..(oc + 1) * oh * ow];
            let w_oc = &wt[oc * in_c * kh * kw..(oc + 1) * in_c * kh * kw];
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go_plane[oy * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ic in 0..in_c {
                        let dx_plane = &mut dx_img[ic * h * w..(ic + 1) * h * w];
                        let w_plane = &w_oc[ic * kh * kw..(ic + 1) * kh * kw];
                        for ky in 0..kh {
                            let iy = oy * stride + ky;
                            if iy < pad || iy - pad >= h {
                                continue;
                            }
                            let iy = iy - pad;
                            for kx in 0..kw {
                                let ix = ox * stride + kx;
                                if ix < pad || ix - pad >= w {
                                    continue;
                                }
                                dx_plane[iy * w + (ix - pad)] += g * w_plane[ky * kw + kx];
                            }
                        }
                    }
                }
            }
        }
    });

    // d_weight / d_bias: per output channel (disjoint per-oc rows).
    let mut d_weight = vec![0.0f32; out_c * in_c * kh * kw];
    let mut d_bias = vec![0.0f32; out_c];
    d_weight.chunks_mut(in_c * kh * kw).zip(d_bias.iter_mut()).enumerate().for_each(
        |(oc, (dw_oc, db_oc))| {
            for ni in 0..n {
                let x_img = &x[ni * in_c * h * w..(ni + 1) * in_c * h * w];
                let go_plane = &go[(ni * out_c + oc) * oh * ow..(ni * out_c + oc + 1) * oh * ow];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go_plane[oy * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        *db_oc += g;
                        for ic in 0..in_c {
                            let x_plane = &x_img[ic * h * w..(ic + 1) * h * w];
                            let dw_plane = &mut dw_oc[ic * kh * kw..(ic + 1) * kh * kw];
                            for ky in 0..kh {
                                let iy = oy * stride + ky;
                                if iy < pad || iy - pad >= h {
                                    continue;
                                }
                                let iy = iy - pad;
                                for kx in 0..kw {
                                    let ix = ox * stride + kx;
                                    if ix < pad || ix - pad >= w {
                                        continue;
                                    }
                                    dw_plane[ky * kw + kx] += g * x_plane[iy * w + (ix - pad)];
                                }
                            }
                        }
                    }
                }
            }
        },
    );

    let input_dims = if need_input_grad { vec![n, in_c, h, w] } else { vec![0] };
    crate::sanitize::check_output("conv2d_backward(d_input)", &input_dims, &d_input);
    crate::sanitize::check_output("conv2d_backward(d_weight)", &[out_c, in_c, kh, kw], &d_weight);
    crate::sanitize::check_output("conv2d_backward(d_bias)", &[out_c], &d_bias);
    Ok(Conv2dGrads {
        d_input: Tensor::from_vec(&input_dims, d_input)?,
        d_weight: Tensor::from_vec(&[out_c, in_c, kh, kw], d_weight)?,
        d_bias: Tensor::from_vec(&[out_c], d_bias)?,
    })
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    let d = t.dims();
    (d[0], d[1], d[2], d[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn out_extent_math() {
        let p = Conv2dParams { stride: 1, padding: 0 };
        assert_eq!(p.out_extent(28, 5), Some(24));
        let p = Conv2dParams { stride: 2, padding: 1 };
        assert_eq!(p.out_extent(32, 3), Some(16));
        let p = Conv2dParams { stride: 1, padding: 0 };
        assert_eq!(p.out_extent(2, 5), None);
    }

    #[test]
    fn conv_kernels_record_op_counters() {
        let _guard = crate::counters::TEST_LOCK.lock().unwrap();
        let input = Tensor::ones(&[1, 1, 4, 4]);
        let weight = Tensor::ones(&[2, 1, 3, 3]);
        let bias = Tensor::zeros(&[2]);
        let params = Conv2dParams::default();
        let before = crate::counters::snapshot();
        crate::counters::enable();
        let out = conv2d_forward(&input, &weight, &bias, params).unwrap();
        conv2d_backward(&input, &weight, &out, params).unwrap();
        crate::counters::disable();
        let d = crate::counters::snapshot().delta(&before);
        assert!(d.conv_calls >= 2);
        // Forward MACs = 1·2·2·2 outputs × 1·3·3 taps = 72 → 144 FLOPs;
        // backward records twice the forward count.
        assert!(d.conv_flops >= 144 + 288, "conv flops {}", d.conv_flops);
        assert!(d.bytes_moved > 0);
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel with weight 1, bias 0 == identity.
        let input = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d_forward(&input, &weight, &bias, Conv2dParams::default()).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn known_3x3_sum_kernel() {
        // All-ones 3x3 kernel over a 3x3 input of ones -> single output = 9.
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d_forward(&input, &weight, &bias, Conv2dParams::default()).unwrap();
        assert_eq!(out.dims(), &[1, 1, 1, 1]);
        assert_eq!(out.as_slice(), &[9.0]);
    }

    #[test]
    fn bias_added_per_channel() {
        let input = Tensor::zeros(&[1, 1, 2, 2]);
        let weight = Tensor::zeros(&[3, 1, 1, 1]);
        let bias = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let out = conv2d_forward(&input, &weight, &bias, Conv2dParams::default()).unwrap();
        assert_eq!(out.dims(), &[1, 3, 2, 2]);
        let s = out.as_slice();
        assert!(s[0..4].iter().all(|&v| v == 1.0));
        assert!(s[4..8].iter().all(|&v| v == 2.0));
        assert!(s[8..12].iter().all(|&v| v == 3.0));
    }

    #[test]
    fn padding_preserves_spatial_size() {
        let input = Tensor::ones(&[1, 1, 4, 4]);
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let bias = Tensor::zeros(&[1]);
        let out =
            conv2d_forward(&input, &weight, &bias, Conv2dParams { stride: 1, padding: 1 }).unwrap();
        assert_eq!(out.dims(), &[1, 1, 4, 4]);
        // Corner sees a 2x2 window of ones -> 4; centre sees 3x3 -> 9.
        assert_eq!(out.at(&[0, 0, 0, 0]).unwrap(), 4.0);
        assert_eq!(out.at(&[0, 0, 1, 1]).unwrap(), 9.0);
    }

    #[test]
    fn stride_two_downsamples() {
        let input = Tensor::ones(&[1, 1, 4, 4]);
        let weight = Tensor::ones(&[1, 1, 2, 2]);
        let bias = Tensor::zeros(&[1]);
        let out =
            conv2d_forward(&input, &weight, &bias, Conv2dParams { stride: 2, padding: 0 }).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert!(out.as_slice().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn channel_mismatch_rejected() {
        let input = Tensor::zeros(&[1, 2, 4, 4]);
        let weight = Tensor::zeros(&[1, 3, 2, 2]);
        let bias = Tensor::zeros(&[1]);
        assert!(conv2d_forward(&input, &weight, &bias, Conv2dParams::default()).is_err());
    }

    /// Finite-difference gradient check across input, weight and bias.
    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let input = init::uniform(&mut rng, &[2, 2, 5, 5], -1.0, 1.0);
        let weight = init::uniform(&mut rng, &[3, 2, 3, 3], -0.5, 0.5);
        let bias = init::uniform(&mut rng, &[3], -0.1, 0.1);
        let params = Conv2dParams { stride: 1, padding: 1 };
        // Random upstream gradient; scalar loss L = sum(out * g_up).
        let out = conv2d_forward(&input, &weight, &bias, params).unwrap();
        let g_up = init::uniform(&mut rng, out.dims(), -1.0, 1.0);
        let grads = conv2d_backward(&input, &weight, &g_up, params).unwrap();

        let loss = |inp: &Tensor, wt: &Tensor, b: &Tensor| -> f32 {
            conv2d_forward(inp, wt, b, params).unwrap().dot(&g_up).unwrap()
        };
        let eps = 1e-2f32;

        // Check a sample of input coordinates.
        for &k in &[0usize, 7, 23, 49, 60] {
            let mut up = input.clone();
            up.as_mut_slice()[k] += eps;
            let mut dn = input.clone();
            dn.as_mut_slice()[k] -= eps;
            let fd = (loss(&up, &weight, &bias) - loss(&dn, &weight, &bias)) / (2.0 * eps);
            let an = grads.d_input.as_slice()[k];
            assert!((fd - an).abs() < 0.05, "d_input[{k}]: fd {fd} vs {an}");
        }
        // Check a sample of weight coordinates.
        for &k in &[0usize, 5, 17, 30, 53] {
            let mut up = weight.clone();
            up.as_mut_slice()[k] += eps;
            let mut dn = weight.clone();
            dn.as_mut_slice()[k] -= eps;
            let fd = (loss(&input, &up, &bias) - loss(&input, &dn, &bias)) / (2.0 * eps);
            let an = grads.d_weight.as_slice()[k];
            assert!((fd - an).abs() < 0.05, "d_weight[{k}]: fd {fd} vs {an}");
        }
        // Check all bias coordinates.
        for k in 0..3 {
            let mut up = bias.clone();
            up.as_mut_slice()[k] += eps;
            let mut dn = bias.clone();
            dn.as_mut_slice()[k] -= eps;
            let fd = (loss(&input, &weight, &up) - loss(&input, &weight, &dn)) / (2.0 * eps);
            let an = grads.d_bias.as_slice()[k];
            assert!((fd - an).abs() < 0.05, "d_bias[{k}]: fd {fd} vs {an}");
        }
    }

    #[test]
    fn backward_shapes() {
        let input = Tensor::zeros(&[2, 3, 8, 8]);
        let weight = Tensor::zeros(&[4, 3, 3, 3]);
        let bias = Tensor::zeros(&[4]);
        let params = Conv2dParams { stride: 2, padding: 1 };
        let out = conv2d_forward(&input, &weight, &bias, params).unwrap();
        assert_eq!(out.dims(), &[2, 4, 4, 4]);
        let grads = conv2d_backward(&input, &weight, &out, params).unwrap();
        assert_eq!(grads.d_input.dims(), input.dims());
        assert_eq!(grads.d_weight.dims(), weight.dims());
        assert_eq!(grads.d_bias.dims(), bias.dims());
    }
}
