//! Naive reference kernels.
//!
//! These are the original per-image, deeply nested loops the compute
//! engine and the layer kernels of [`crate::layers`] replaced —
//! retained as the semantic ground truth the fast paths are tested
//! (and benchmarked) against. Max pooling, activations and scale-bias
//! are plain per-element loops; each convolution output element is a
//! strict sequential `f32` accumulation in the **canonical order**
//! shared with the direct kernels of [`crate::gemm`]:
//!
//! * forward: bias first, then `(ic, ky, kx)` ascending, with
//!   out-of-image taps contributing explicit `weight x 0` terms (the
//!   zeros the direct kernels read from their zero-padded copy);
//! * backward data: `(oc, ky, kx)` ascending over the *flipped* kernel
//!   (the transposed-convolution order of the weight flip in
//!   [`crate::engine`]);
//! * backward weights/bias: output pixels in row-major ascending order.
//!
//! Because both paths sum identical terms in identical order, the
//! direct engine is bit-identical to these kernels — that equivalence
//! is pinned by property tests and by the proxy-training determinism
//! suite.

use crate::layers::{ConvParams, DwConvParams, ScaleBiasParams};
use crate::tensor::Tensor;
use codesign_dnn::quant::Activation;

/// Input value at `(c, y, x)` with zero padding outside the image.
#[inline]
fn padded(x: &Tensor, c: usize, y: isize, xx: isize) -> f32 {
    if y >= 0 && (y as usize) < x.height() && xx >= 0 && (xx as usize) < x.width() {
        x.at(c, y as usize, xx as usize)
    } else {
        0.0
    }
}

/// Standard convolution forward pass, same padding, stride 1.
///
/// # Panics
///
/// Panics when `x` does not match the parameter geometry.
pub fn conv_forward(x: &Tensor, p: &ConvParams) -> Tensor {
    assert_eq!(x.channels(), p.in_ch, "conv input channel mismatch");
    let (h, w) = (x.height(), x.width());
    let pad = (p.k / 2) as isize;
    let mut y = Tensor::zeros(&[p.out_ch, h, w]);
    for oc in 0..p.out_ch {
        for oy in 0..h {
            for ox in 0..w {
                let mut acc = p.bias[oc];
                for ic in 0..p.in_ch {
                    for ky in 0..p.k {
                        for kx in 0..p.k {
                            let iy = oy as isize + ky as isize - pad;
                            let ix = ox as isize + kx as isize - pad;
                            acc += padded(x, ic, iy, ix) * p.w(oc, ic, ky, kx);
                        }
                    }
                }
                *y.at_mut(oc, oy, ox) = acc;
            }
        }
    }
    y
}

/// Standard convolution backward pass: returns `(dx, dweights, dbias)`.
pub fn conv_backward(x: &Tensor, p: &ConvParams, dy: &Tensor) -> (Tensor, Vec<f32>, Vec<f32>) {
    let (h, w) = (x.height(), x.width());
    let pad = (p.k / 2) as isize;
    let mut db = vec![0.0f32; p.out_ch];
    for (oc, d) in db.iter_mut().enumerate() {
        for oy in 0..h {
            for ox in 0..w {
                *d += dy.at(oc, oy, ox);
            }
        }
    }
    let mut dw = vec![0.0f32; p.weights.len()];
    for oc in 0..p.out_ch {
        for ic in 0..p.in_ch {
            for ky in 0..p.k {
                for kx in 0..p.k {
                    let mut acc = 0.0f32;
                    for oy in 0..h {
                        for ox in 0..w {
                            let iy = oy as isize + ky as isize - pad;
                            let ix = ox as isize + kx as isize - pad;
                            acc += dy.at(oc, oy, ox) * padded(x, ic, iy, ix);
                        }
                    }
                    dw[((oc * p.in_ch + ic) * p.k + ky) * p.k + kx] = acc;
                }
            }
        }
    }
    // Backward data as the transposed convolution: gradient taps in
    // ascending (oc, ky, kx) order over the flipped kernel, padded with
    // `k - 1 - pad` (equal to `pad` only for odd kernels).
    let tpad = (p.k - 1) as isize - pad;
    let mut dx = Tensor::zeros(&[p.in_ch, h, w]);
    for ic in 0..p.in_ch {
        for iy in 0..h {
            for ix in 0..w {
                let mut acc = 0.0f32;
                for oc in 0..p.out_ch {
                    for ky in 0..p.k {
                        for kx in 0..p.k {
                            let oy = iy as isize + ky as isize - tpad;
                            let ox = ix as isize + kx as isize - tpad;
                            acc += padded(dy, oc, oy, ox) * p.w(oc, ic, p.k - 1 - ky, p.k - 1 - kx);
                        }
                    }
                }
                *dx.at_mut(ic, iy, ix) = acc;
            }
        }
    }
    (dx, dw, db)
}

/// Depth-wise convolution forward pass, same padding, stride 1.
///
/// # Panics
///
/// Panics when `x` does not match the parameter geometry.
pub fn dwconv_forward(x: &Tensor, p: &DwConvParams) -> Tensor {
    assert_eq!(x.channels(), p.ch, "dwconv channel mismatch");
    let (h, w) = (x.height(), x.width());
    let pad = (p.k / 2) as isize;
    let mut y = Tensor::zeros(&[p.ch, h, w]);
    for c in 0..p.ch {
        for oy in 0..h {
            for ox in 0..w {
                let mut acc = p.bias[c];
                for ky in 0..p.k {
                    for kx in 0..p.k {
                        let iy = oy as isize + ky as isize - pad;
                        let ix = ox as isize + kx as isize - pad;
                        acc += padded(x, c, iy, ix) * p.w(c, ky, kx);
                    }
                }
                *y.at_mut(c, oy, ox) = acc;
            }
        }
    }
    y
}

/// Depth-wise convolution backward pass: `(dx, dweights, dbias)`.
pub fn dwconv_backward(x: &Tensor, p: &DwConvParams, dy: &Tensor) -> (Tensor, Vec<f32>, Vec<f32>) {
    let (h, w) = (x.height(), x.width());
    let pad = (p.k / 2) as isize;
    let mut db = vec![0.0f32; p.ch];
    for (c, d) in db.iter_mut().enumerate() {
        for oy in 0..h {
            for ox in 0..w {
                *d += dy.at(c, oy, ox);
            }
        }
    }
    let mut dw = vec![0.0f32; p.weights.len()];
    for c in 0..p.ch {
        for ky in 0..p.k {
            for kx in 0..p.k {
                let mut acc = 0.0f32;
                for oy in 0..h {
                    for ox in 0..w {
                        let iy = oy as isize + ky as isize - pad;
                        let ix = ox as isize + kx as isize - pad;
                        acc += dy.at(c, oy, ox) * padded(x, c, iy, ix);
                    }
                }
                dw[(c * p.k + ky) * p.k + kx] = acc;
            }
        }
    }
    let tpad = (p.k - 1) as isize - pad;
    let mut dx = Tensor::zeros(&[p.ch, h, w]);
    for c in 0..p.ch {
        for iy in 0..h {
            for ix in 0..w {
                let mut acc = 0.0f32;
                for ky in 0..p.k {
                    for kx in 0..p.k {
                        let oy = iy as isize + ky as isize - tpad;
                        let ox = ix as isize + kx as isize - tpad;
                        acc += padded(dy, c, oy, ox) * p.w(c, p.k - 1 - ky, p.k - 1 - kx);
                    }
                }
                *dx.at_mut(c, iy, ix) = acc;
            }
        }
    }
    (dx, dw, db)
}

/// Max pooling with window `k` and stride `k`: `f32::max` folded over
/// each window in row-major order, seeded with `-inf`.
pub fn maxpool_forward(x: &Tensor, k: usize) -> Tensor {
    let (c, h, w) = (x.channels(), x.height(), x.width());
    let mut y = Tensor::zeros(&[c, h / k, w / k]);
    for cc in 0..c {
        for yy in 0..h / k {
            for xx in 0..w / k {
                let mut m = f32::NEG_INFINITY;
                for dy in 0..k {
                    for dx in 0..k {
                        m = m.max(x.at(cc, yy * k + dy, xx * k + dx));
                    }
                }
                *y.at_mut(cc, yy, xx) = m;
            }
        }
    }
    y
}

/// Max-pooling backward: each window's gradient is added (to a zeroed
/// `dx`) at its first strict maximum, scanning from the window's first
/// element, which keeps the gradient when nothing beats `-inf`.
pub fn maxpool_backward(x: &Tensor, k: usize, dy: &Tensor) -> Tensor {
    let (c, h, w) = (x.channels(), x.height(), x.width());
    let mut dx = Tensor::zeros(&[c, h, w]);
    for cc in 0..c {
        for yy in 0..h / k {
            for xx in 0..w / k {
                let (mut best, mut by, mut bx) = (f32::NEG_INFINITY, yy * k, xx * k);
                for dy_ in 0..k {
                    for dx_ in 0..k {
                        let v = x.at(cc, yy * k + dy_, xx * k + dx_);
                        if v > best {
                            best = v;
                            by = yy * k + dy_;
                            bx = xx * k + dx_;
                        }
                    }
                }
                *dx.at_mut(cc, by, bx) += dy.at(cc, yy, xx);
            }
        }
    }
    dx
}

/// Activation forward, one [`Activation::apply`] per element.
pub fn activation_forward(x: &Tensor, act: Activation) -> Tensor {
    let mut y = x.clone();
    for v in y.data_mut() {
        *v = act.apply(*v);
    }
    y
}

/// Activation backward: the gradient is zeroed where `x <= 0` or
/// `x >= clip`, and passes elsewhere (NaN inputs included).
pub fn activation_backward(x: &Tensor, act: Activation, dy: &Tensor) -> Tensor {
    let mut dx = dy.clone();
    let clip = act.clip().unwrap_or(f32::INFINITY);
    for (g, &xi) in dx.data_mut().iter_mut().zip(x.data()) {
        if xi <= 0.0 || xi >= clip {
            *g = 0.0;
        }
    }
    dx
}

/// Folded batch-norm forward: `y = x * scale[c] + bias[c]`.
pub fn scale_bias_forward(x: &Tensor, p: &ScaleBiasParams) -> Tensor {
    let (c, h, w) = (x.channels(), x.height(), x.width());
    let mut y = Tensor::zeros(&[c, h, w]);
    for cc in 0..c {
        for yy in 0..h {
            for xx in 0..w {
                *y.at_mut(cc, yy, xx) = x.at(cc, yy, xx) * p.scale[cc] + p.bias[cc];
            }
        }
    }
    y
}

/// Folded batch-norm backward: `(dx, dscale, dbias)`, the parameter
/// gradients summed over pixels in row-major order from `0.0`.
pub fn scale_bias_backward(
    x: &Tensor,
    p: &ScaleBiasParams,
    dy: &Tensor,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let (c, h, w) = (x.channels(), x.height(), x.width());
    let mut dx = Tensor::zeros(&[c, h, w]);
    let mut ds = vec![0.0f32; c];
    let mut db = vec![0.0f32; c];
    for cc in 0..c {
        for yy in 0..h {
            for xx in 0..w {
                let g = dy.at(cc, yy, xx);
                ds[cc] += g * x.at(cc, yy, xx);
                db[cc] += g;
                *dx.at_mut(cc, yy, xx) = g * p.scale[cc];
            }
        }
    }
    (dx, ds, db)
}
