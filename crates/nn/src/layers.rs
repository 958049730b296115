//! Forward and backward passes for the co-design layer zoo.
//!
//! All spatial operators use the same conventions as the hardware IR in
//! [`codesign_dnn::layer`]: "same" padding for convolutions (stride 1)
//! and non-overlapping windows for pooling. The convolutions run on the
//! compute engine ([`crate::engine`]); the original naive kernels live
//! on in [`crate::reference`].
//!
//! Every op takes one `C x H x W` image or an `N x C x H x W` batch
//! (see [`Tensor::stack`]) and keeps its rank: row `i` of a batch's
//! result is bit-identical to the op run on image `i` alone, and
//! parameter gradients are per-image subtotals summed in image order.

use crate::tensor::Tensor;
use codesign_dnn::quant::Activation;

/// Parameters of a standard convolution: weights `[oc][ic][k][k]`
/// (flattened) and per-output-channel bias.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvParams {
    /// Kernel size.
    pub k: usize,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Flattened weights, length `oc * ic * k * k`.
    pub weights: Vec<f32>,
    /// Bias, length `oc`.
    pub bias: Vec<f32>,
}

impl ConvParams {
    /// Zero-initialized parameters of the given geometry.
    pub fn zeros(k: usize, in_ch: usize, out_ch: usize) -> Self {
        Self {
            k,
            in_ch,
            out_ch,
            weights: vec![0.0; out_ch * in_ch * k * k],
            bias: vec![0.0; out_ch],
        }
    }

    #[inline]
    pub(crate) fn w(&self, oc: usize, ic: usize, dy: usize, dx: usize) -> f32 {
        self.weights[((oc * self.in_ch + ic) * self.k + dy) * self.k + dx]
    }
}

/// Parameters of a depth-wise convolution: weights `[c][k][k]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DwConvParams {
    /// Kernel size.
    pub k: usize,
    /// Channel count.
    pub ch: usize,
    /// Flattened weights, length `c * k * k`.
    pub weights: Vec<f32>,
    /// Bias, length `c`.
    pub bias: Vec<f32>,
}

impl DwConvParams {
    /// Zero-initialized parameters.
    pub fn zeros(k: usize, ch: usize) -> Self {
        Self {
            k,
            ch,
            weights: vec![0.0; ch * k * k],
            bias: vec![0.0; ch],
        }
    }

    #[inline]
    pub(crate) fn w(&self, c: usize, dy: usize, dx: usize) -> f32 {
        self.weights[(c * self.k + dy) * self.k + dx]
    }
}

/// Parameters of a folded batch-norm: per-channel scale and bias.
///
/// At inference batch normalization folds into `y = x * scale + bias`;
/// we train that folded form directly, which keeps the software model
/// aligned with what the accelerator executes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleBiasParams {
    /// Per-channel scale, initialized to 1.
    pub scale: Vec<f32>,
    /// Per-channel bias, initialized to 0.
    pub bias: Vec<f32>,
}

impl ScaleBiasParams {
    /// Identity scale-bias over `ch` channels.
    pub fn identity(ch: usize) -> Self {
        Self {
            scale: vec![1.0; ch],
            bias: vec![0.0; ch],
        }
    }
}

// Slice-level kernels: pooling walks any run of `H x W` planes,
// scale-bias one `C x H x W` slab at a time, so an op walks a batch
// buffer with zero copies and each image's result is the one it gets
// alone. The naive loops they replaced live on in [`crate::reference`].
// The pooling kernels and the scale-bias backward stay out of line:
// inlined into their one caller each, LLVM compiles them to slower
// loops (up to 1.6x on the proxy network's small planes, measured on a
// 2-core AVX2 host).

/// Max pooling of every `h x w` plane of `x` into `y`, window and
/// stride `k`: each output folds `f32::max` over its window in
/// row-major order, seeded with `-inf`. Rows and columns past the last
/// whole window are not read.
#[inline(never)]
fn maxpool_planes(x: &[f32], h: usize, w: usize, k: usize, y: &mut [f32]) {
    let (oh, ow) = (h / k, w / k);
    if oh * ow == 0 {
        return;
    }
    for (xp, yp) in x.chunks_exact(h * w).zip(y.chunks_exact_mut(oh * ow)) {
        for (rows, yrow) in xp.chunks_exact(k * w).zip(yp.chunks_exact_mut(ow)) {
            if k == 2 {
                // The builder's only window: two rows at a time, which
                // the compiler turns into vector max operations.
                let (r0, r1) = rows.split_at(w);
                for ((o, a), b) in yrow
                    .iter_mut()
                    .zip(r0.chunks_exact(2))
                    .zip(r1.chunks_exact(2))
                {
                    *o = f32::NEG_INFINITY.max(a[0]).max(a[1]).max(b[0]).max(b[1]);
                }
            } else {
                yrow.fill(f32::NEG_INFINITY);
                for row in rows.chunks_exact(w) {
                    for (o, win) in yrow.iter_mut().zip(row.chunks_exact(k)) {
                        for &v in win {
                            *o = o.max(v);
                        }
                    }
                }
            }
        }
    }
}

/// Gradient routing of one 2x2 window `[a0, a1; b0, b1]`: `0.0 + g` at
/// the first strict maximum in row-major order, scanning from the
/// window's first element (so an all-`-inf` or all-NaN window routes
/// there), `0.0` elsewhere. Branch-free, so runs of windows vectorize.
#[inline(always)]
fn route_window2(a0: f32, a1: f32, b0: f32, b1: f32, g: f32) -> [f32; 4] {
    let m0 = f32::NEG_INFINITY.max(a0);
    let t1 = a1 > m0;
    let m1 = if t1 { a1 } else { m0 };
    let t2 = b0 > m1;
    let m2 = if t2 { b0 } else { m1 };
    let t3 = b1 > m2;
    let g = 0.0 + g;
    let pick = |won: bool| if won { g } else { 0.0 };
    [
        pick(!t1 & !t2 & !t3),
        pick(t1 & !t2 & !t3),
        pick(t2 & !t3),
        pick(t3),
    ]
}

/// Output columns per fixed-size block of the `k = 2` backward pass:
/// whole arrays carry no aliasing questions, so the compiler
/// vectorizes them unconditionally (a plain loop over the two
/// gradient rows fell back to branchy scalar code). One baseline
/// vector wide, so narrow planes leave short tails.
const POOL_BLOCK: usize = 4;

/// Max-pooling backward over every plane: each window's gradient lands
/// on its first strict maximum (see [`route_window2`]) as `0.0 + g` on
/// the zeroed `dx`; every other element, leftover rows and columns
/// included, stays `0.0`.
#[inline(never)]
fn maxpool_backward_planes(x: &[f32], h: usize, w: usize, k: usize, g: &[f32], dx: &mut [f32]) {
    let (oh, ow) = (h / k, w / k);
    if oh * ow == 0 {
        return;
    }
    let planes = x
        .chunks_exact(h * w)
        .zip(g.chunks_exact(oh * ow))
        .zip(dx.chunks_exact_mut(h * w));
    for ((xp, gp), dp) in planes {
        let bands = xp
            .chunks_exact(k * w)
            .zip(gp.chunks_exact(ow))
            .zip(dp.chunks_exact_mut(k * w));
        for ((rows, grow), drows) in bands {
            if k == 2 {
                let (r0, r1) = rows.split_at(w);
                let (d0, d1) = drows.split_at_mut(w);
                let mut j = 0;
                while j + POOL_BLOCK <= ow {
                    const B: usize = POOL_BLOCK;
                    let cols = 2 * j..2 * (j + B);
                    let a: &[f32; 2 * B] = r0[cols.clone()].try_into().expect("a block");
                    let b: &[f32; 2 * B] = r1[cols.clone()].try_into().expect("a block");
                    let gb: &[f32; B] = grow[j..j + B].try_into().expect("a block");
                    let (mut o0, mut o1) = ([0.0f32; 2 * B], [0.0f32; 2 * B]);
                    for (l, &gv) in gb.iter().enumerate() {
                        let [p, q, r, s] =
                            route_window2(a[2 * l], a[2 * l + 1], b[2 * l], b[2 * l + 1], gv);
                        (o0[2 * l], o0[2 * l + 1], o1[2 * l], o1[2 * l + 1]) = (p, q, r, s);
                    }
                    d0[cols.clone()].copy_from_slice(&o0);
                    d1[cols].copy_from_slice(&o1);
                    j += B;
                }
                for (j, &gv) in grow.iter().enumerate().skip(j) {
                    let (c0, c1) = (2 * j, 2 * j + 1);
                    let [p, q, r, s] = route_window2(r0[c0], r0[c1], r1[c0], r1[c1], gv);
                    (d0[c0], d0[c1], d1[c0], d1[c1]) = (p, q, r, s);
                }
            } else {
                for (xx, &gv) in grow.iter().enumerate() {
                    let (mut best, mut arg) = (f32::NEG_INFINITY, xx * k);
                    for i in (0..k).flat_map(|dy| (0..k).map(move |dx| dy * w + xx * k + dx)) {
                        let take = rows[i] > best;
                        best = if take { rows[i] } else { best };
                        arg = if take { i } else { arg };
                    }
                    drows[arg] += gv;
                }
            }
        }
    }
}

/// Average pooling of each of `planes` `h x w` planes of `x` into `y`.
fn avgpool_planes(x: &[f32], planes: usize, h: usize, w: usize, k: usize, y: &mut [f32]) {
    let (oh, ow) = (h / k, w / k);
    let norm = (k * k) as f32;
    for pl in 0..planes {
        for yy in 0..oh {
            for xx in 0..ow {
                let mut s = 0.0;
                for dy in 0..k {
                    for dx in 0..k {
                        s += x[(pl * h + yy * k + dy) * w + xx * k + dx];
                    }
                }
                y[(pl * oh + yy) * ow + xx] = s / norm;
            }
        }
    }
}

/// Average-pooling backward over each of `planes` planes.
fn avgpool_backward_planes(planes: usize, h: usize, w: usize, k: usize, g: &[f32], dx: &mut [f32]) {
    let (oh, ow) = (h / k, w / k);
    let norm = (k * k) as f32;
    for pl in 0..planes {
        for yy in 0..oh {
            for xx in 0..ow {
                let gv = g[(pl * oh + yy) * ow + xx] / norm;
                for dy_ in 0..k {
                    for dx_ in 0..k {
                        dx[(pl * h + yy * k + dy_) * w + xx * k + dx_] += gv;
                    }
                }
            }
        }
    }
}

fn scale_bias_image(x: &[f32], p: &ScaleBiasParams, plane: usize, y: &mut [f32]) {
    for (cc, (&s, &b)) in p.scale.iter().zip(&p.bias).enumerate() {
        for (yv, &xv) in y[cc * plane..(cc + 1) * plane]
            .iter_mut()
            .zip(&x[cc * plane..(cc + 1) * plane])
        {
            *yv = xv * s + b;
        }
    }
}

/// One image's scale-bias backward, in place: turns the gradient `g`
/// into `dx`, accumulates this image's subtotals into `ds` / `db`
/// (callers keep per-image grouping).
#[inline(never)]
fn scale_bias_backward_image(
    x: &[f32],
    p: &ScaleBiasParams,
    plane: usize,
    g: &mut [f32],
    ds: &mut [f32],
    db: &mut [f32],
) {
    for (cc, &s) in p.scale.iter().enumerate() {
        let span = cc * plane..(cc + 1) * plane;
        // Same accumulation order as summing into `ds` / `db` directly,
        // but in registers: one write per channel.
        let (mut dsc, mut dbc) = (ds[cc], db[cc]);
        for (gv, &xv) in g[span.clone()].iter_mut().zip(&x[span]) {
            dsc += *gv * xv;
            dbc += *gv;
            *gv *= s;
        }
        ds[cc] = dsc;
        db[cc] = dbc;
    }
}

/// The shape of `x` with an `h x w` plane in place of its own.
fn with_plane(x: &Tensor, h: usize, w: usize) -> Vec<usize> {
    let mut shape = x.shape().to_vec();
    let rank = shape.len();
    shape[rank - 2..].copy_from_slice(&[h, w]);
    shape
}

/// Max pooling with window `k` and stride `k`.
pub fn maxpool_forward(x: &Tensor, k: usize) -> Tensor {
    let (_, _, h, w) = x.dims();
    let mut y = Tensor::zeros(&with_plane(x, h / k, w / k));
    maxpool_planes(x.data(), h, w, k, y.data_mut());
    y
}

/// Max pooling backward: each window's gradient goes to its first
/// strict maximum, or to the window's first element when no value
/// beats `-inf` (all `-inf` or NaN).
pub fn maxpool_backward(x: &Tensor, k: usize, dy: &Tensor) -> Tensor {
    let (_, _, h, w) = x.dims();
    let mut dx = Tensor::zeros(x.shape());
    maxpool_backward_planes(x.data(), h, w, k, dy.data(), dx.data_mut());
    dx
}

/// Average pooling with window `k` and stride `k`.
pub fn avgpool_forward(x: &Tensor, k: usize) -> Tensor {
    let (n, c, h, w) = x.dims();
    let mut y = Tensor::zeros(&with_plane(x, h / k, w / k));
    avgpool_planes(x.data(), n * c, h, w, k, y.data_mut());
    y
}

/// Average pooling backward: gradient spread uniformly over the window.
pub fn avgpool_backward(x: &Tensor, k: usize, dy: &Tensor) -> Tensor {
    let (n, c, h, w) = x.dims();
    let mut dx = Tensor::zeros(x.shape());
    avgpool_backward_planes(n * c, h, w, k, dy.data(), dx.data_mut());
    dx
}

/// Folded batch-norm forward: `y = x * scale[c] + bias[c]`.
pub fn scale_bias_forward(x: &Tensor, p: &ScaleBiasParams) -> Tensor {
    let (_, c, h, w) = x.dims();
    let mut y = Tensor::zeros(x.shape());
    let images = x.data().chunks_exact(c * h * w);
    for (xi, yi) in images.zip(y.data_mut().chunks_exact_mut(c * h * w)) {
        scale_bias_image(xi, p, h * w, yi);
    }
    y
}

/// Folded batch-norm backward: `(dx, dscale, dbias)`, with `dx`
/// written over `dy`'s buffer and the parameter gradients summed as
/// per-image subtotals in image order.
pub fn scale_bias_backward(
    x: &Tensor,
    p: &ScaleBiasParams,
    mut dy: Tensor,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let (_, c, h, w) = x.dims();
    assert_eq!(dy.shape(), x.shape(), "scale-bias gradient shape mismatch");
    let mut ds = vec![0.0f32; c];
    let mut db = vec![0.0f32; c];
    let mut ds_img = vec![0.0f32; c];
    let mut db_img = vec![0.0f32; c];
    let images = x.data().chunks_exact(c * h * w);
    for (xi, gi) in images.zip(dy.data_mut().chunks_exact_mut(c * h * w)) {
        ds_img.fill(0.0);
        db_img.fill(0.0);
        scale_bias_backward_image(xi, p, h * w, gi, &mut ds_img, &mut db_img);
        for (d, s) in ds.iter_mut().zip(&ds_img) {
            *d += s;
        }
        for (d, s) in db.iter_mut().zip(&db_img) {
            *d += s;
        }
    }
    (dy, ds, db)
}

/// Activation forward (element-wise): `max(x, 0)`, then `min(·, clip)`
/// for the clipped variants.
pub fn activation_forward(x: &Tensor, act: Activation) -> Tensor {
    let clip = act.clip().unwrap_or(f32::INFINITY);
    let y = x.data().iter().map(|v| v.max(0.0).min(clip)).collect();
    Tensor::from_vec(x.shape(), y)
}

/// Activation backward, masking `dy` in place: the gradient passes
/// where the input was in the active (non-clipped, positive) region,
/// and where it was NaN.
pub fn activation_backward(x: &Tensor, act: Activation, mut dy: Tensor) -> Tensor {
    assert_eq!(dy.shape(), x.shape(), "activation gradient shape mismatch");
    let clip = act.clip().unwrap_or(f32::INFINITY);
    for (g, &xi) in dy.data_mut().iter_mut().zip(x.data()) {
        *g = if xi <= 0.0 || xi >= clip { 0.0 } else { *g };
    }
    dy
}

/// Global average pooling: `C x H x W -> [C]`, `N x C x H x W -> [N, C]`.
/// Each mean sums its plane in row-major order.
pub fn gap_forward(x: &Tensor) -> Tensor {
    let (_, _, h, w) = x.dims();
    let norm = (h * w) as f32;
    let mut y = Tensor::zeros(&x.shape()[..x.shape().len() - 2]);
    for (m, plane) in y.data_mut().iter_mut().zip(x.data().chunks_exact(h * w)) {
        let mut s = 0.0;
        for &v in plane {
            s += v;
        }
        *m = s / norm;
    }
    y
}

/// Global average pooling backward (`dy` is `[C]` or `[N, C]`).
pub fn gap_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    let (_, _, h, w) = x.dims();
    let norm = (h * w) as f32;
    let mut dx = Tensor::zeros(x.shape());
    for (plane, &g) in dx.data_mut().chunks_exact_mut(h * w).zip(dy.data()) {
        plane.fill(g / norm);
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{conv_backward, conv_forward, dwconv_backward, dwconv_forward, Engine};
    use codesign_parallel::Parallelism;
    use proptest::prelude::*;

    fn finite_diff_check(
        f: &dyn Fn(&Tensor) -> f32,
        grad: &Tensor,
        x: &Tensor,
        samples: &[(usize, usize, usize)],
    ) {
        let eps = 1e-3;
        for &(c, y, xx) in samples {
            let mut xp = x.clone();
            *xp.at_mut(c, y, xx) += eps;
            let mut xm = x.clone();
            *xm.at_mut(c, y, xx) -= eps;
            let numeric = (f(&xp) - f(&xm)) / (2.0 * eps);
            let analytic = grad.at(c, y, xx);
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + numeric.abs()),
                "grad mismatch at ({c},{y},{xx}): numeric {numeric} analytic {analytic}"
            );
        }
    }

    fn ramp_tensor(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..n).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1).collect(),
        )
    }

    fn ramp_params(k: usize, ic: usize, oc: usize) -> ConvParams {
        let mut p = ConvParams::zeros(k, ic, oc);
        for (i, w) in p.weights.iter_mut().enumerate() {
            *w = ((i * 5 % 11) as f32 - 5.0) * 0.05;
        }
        for (i, b) in p.bias.iter_mut().enumerate() {
            *b = i as f32 * 0.01;
        }
        p
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 conv with identity weights reproduces the input channel.
        let x = ramp_tensor(&[2, 4, 4]);
        let mut p = ConvParams::zeros(1, 2, 2);
        p.weights[0] = 1.0; // oc0 <- ic0
        p.weights[3] = 1.0; // oc1 <- ic1
        let y = conv_forward(&x, &p, Engine::default());
        assert_eq!(y, x);
    }

    #[test]
    fn conv_same_padding_keeps_size() {
        let x = ramp_tensor(&[3, 5, 7]);
        let y = conv_forward(&x, &ramp_params(3, 3, 4), Engine::default());
        assert_eq!(y.shape(), &[4, 5, 7]);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let x = ramp_tensor(&[2, 4, 4]);
        let p = ramp_params(3, 2, 3);
        let y = conv_forward(&x, &p, Engine::default());
        let dy = Tensor::full(y.shape(), 1.0);
        let (dx, dw, db) = conv_backward(&x, &p, &dy, Engine::default(), true);
        let dx = dx.expect("input gradient requested");
        // d(sum y)/dx via finite differences.
        let f = |x: &Tensor| {
            conv_forward(x, &p, Engine::default())
                .data()
                .iter()
                .sum::<f32>()
        };
        finite_diff_check(&f, &dx, &x, &[(0, 0, 0), (1, 2, 3), (0, 3, 1)]);
        // Bias gradient of sum-loss equals the number of output pixels.
        for &g in &db {
            assert!((g - 16.0).abs() < 1e-4);
        }
        assert_eq!(dw.len(), p.weights.len());
    }

    #[test]
    fn even_kernel_conv_keeps_size_and_gradients_check_out() {
        // Even kernel sizes also run as "same"-size convolutions (the
        // output grid stays the input grid); the transposed-conv
        // backward pads with k-1-pad, so the gradient must still match
        // finite differences.
        let x = ramp_tensor(&[2, 5, 6]);
        let p = ramp_params(2, 2, 3);
        let y = conv_forward(&x, &p, Engine::default());
        assert_eq!(y.shape(), &[3, 5, 6]);
        let dy = Tensor::full(y.shape(), 1.0);
        let (dx, dw, db) = conv_backward(&x, &p, &dy, Engine::default(), true);
        let dx = dx.expect("input gradient requested");
        let f = |x: &Tensor| {
            conv_forward(x, &p, Engine::default())
                .data()
                .iter()
                .sum::<f32>()
        };
        finite_diff_check(&f, &dx, &x, &[(0, 0, 0), (1, 2, 3), (0, 4, 5)]);
        assert_eq!(dw.len(), p.weights.len());
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn even_kernel_dwconv_gradients_check_out() {
        let x = ramp_tensor(&[3, 4, 6]);
        let mut p = DwConvParams::zeros(4, 3);
        for (i, w) in p.weights.iter_mut().enumerate() {
            *w = ((i % 7) as f32 - 3.0) * 0.05;
        }
        let y = dwconv_forward(&x, &p, Engine::default());
        assert_eq!(y.shape(), x.shape());
        let dy = Tensor::full(y.shape(), 1.0);
        let (dx, _, _) = dwconv_backward(&x, &p, &dy, Engine::default(), true);
        let dx = dx.expect("input gradient requested");
        let f = |x: &Tensor| {
            dwconv_forward(x, &p, Engine::default())
                .data()
                .iter()
                .sum::<f32>()
        };
        finite_diff_check(&f, &dx, &x, &[(0, 0, 0), (2, 3, 5), (1, 1, 2)]);
    }

    #[test]
    fn dwconv_gradients_match_finite_differences() {
        let x = ramp_tensor(&[3, 4, 4]);
        let mut p = DwConvParams::zeros(3, 3);
        for (i, w) in p.weights.iter_mut().enumerate() {
            *w = ((i % 5) as f32 - 2.0) * 0.1;
        }
        let y = dwconv_forward(&x, &p, Engine::default());
        assert_eq!(y.shape(), x.shape());
        let dy = Tensor::full(y.shape(), 1.0);
        let (dx, _dw, _db) = dwconv_backward(&x, &p, &dy, Engine::default(), true);
        let dx = dx.expect("input gradient requested");
        let f = |x: &Tensor| {
            dwconv_forward(x, &p, Engine::default())
                .data()
                .iter()
                .sum::<f32>()
        };
        finite_diff_check(&f, &dx, &x, &[(0, 1, 1), (2, 3, 0)]);
    }

    #[test]
    fn maxpool_selects_maximum() {
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let y = maxpool_forward(&x, 2);
        assert_eq!(y.data(), &[5.0]);
        let dy = Tensor::from_vec(&[1, 1, 1], vec![2.0]);
        let dx = maxpool_backward(&x, 2, &dy);
        assert_eq!(dx.data(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn avgpool_averages() {
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 6.0]);
        let y = avgpool_forward(&x, 2);
        assert_eq!(y.data(), &[3.0]);
        let dx = avgpool_backward(&x, 2, &Tensor::from_vec(&[1, 1, 1], vec![4.0]));
        assert!(dx.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn scale_bias_round_trip() {
        let x = ramp_tensor(&[2, 3, 3]);
        let p = ScaleBiasParams::identity(2);
        assert_eq!(scale_bias_forward(&x, &p), x);
        let mut p2 = ScaleBiasParams::identity(2);
        p2.scale = vec![2.0, 0.5];
        p2.bias = vec![1.0, -1.0];
        let y = scale_bias_forward(&x, &p2);
        assert!((y.at(0, 1, 1) - (x.at(0, 1, 1) * 2.0 + 1.0)).abs() < 1e-6);
        let (dx, ds, db) = scale_bias_backward(&x, &p2, Tensor::full(&[2, 3, 3], 1.0));
        assert!((dx.at(0, 0, 0) - 2.0).abs() < 1e-6);
        assert_eq!(db, vec![9.0, 9.0]);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn activation_clips_and_masks_gradient() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 2.0, 5.0, 9.0]);
        let y = activation_forward(&x, Activation::Relu4);
        assert_eq!(y.data(), &[0.0, 2.0, 4.0, 4.0]);
        let dx = activation_backward(&x, Activation::Relu4, Tensor::full(&[4], 1.0));
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn gap_means_and_distributes() {
        let x = Tensor::from_vec(&[2, 1, 2], vec![1.0, 3.0, 10.0, 20.0]);
        let y = gap_forward(&x);
        assert_eq!(y.data(), &[2.0, 15.0]);
        let dx = gap_backward(&x, &Tensor::from_vec(&[2], vec![2.0, 4.0]));
        assert_eq!(dx.data(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn parallel_conv_matches_serial() {
        // 32 output channels crosses the parallel threshold; compare to
        // an 8-channel-at-a-time serial computation via identical params.
        let x = ramp_tensor(&[4, 6, 6]);
        let p = ramp_params(3, 4, 32);
        let y = conv_forward(&x, &p, Engine::default());
        // Serial reference: evaluate channel oc with a 1-output-channel
        // parameter slice.
        for oc in [0usize, 7, 19, 31] {
            let mut p1 = ConvParams::zeros(3, 4, 1);
            let stride = 4 * 9;
            p1.weights
                .copy_from_slice(&p.weights[oc * stride..(oc + 1) * stride]);
            p1.bias[0] = p.bias[oc];
            let y1 = conv_forward(&x, &p1, Engine::default());
            for yy in 0..6 {
                for xx in 0..6 {
                    assert!((y.at(oc, yy, xx) - y1.at(0, yy, xx)).abs() < 1e-5);
                }
            }
        }
    }

    /// Window 1 of a `[1, 2, 4]` input holds only `-inf`: its gradient
    /// stays inside the window, on its first element `(0, 2)`, and never
    /// lands on the plane's top-left pixel.
    #[test]
    fn maxpool_backward_keeps_gradient_inside_an_all_neg_inf_window() {
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(&[1, 2, 4], vec![1.0, 2.0, ninf, ninf, 3.0, 5.0, ninf, ninf]);
        let dy = Tensor::from_vec(&[1, 1, 2], vec![10.0, 20.0]);
        let expect = [0.0, 0.0, 20.0, 0.0, 0.0, 10.0, 0.0, 0.0];
        assert_eq!(maxpool_backward(&x, 2, &dy).data(), &expect);
        assert_eq!(
            crate::reference::maxpool_backward(&x, 2, &dy).data(),
            &expect
        );
        let xb = Tensor::stack(&[x.clone(), x]);
        let dyb = Tensor::stack(&[dy.clone(), dy]);
        let dxb = maxpool_backward(&xb, 2, &dyb);
        assert_eq!(dxb.image(0), &expect);
        assert_eq!(dxb.image(1), &expect);
    }

    /// Values that stress the bit-identity contract: signed zeros,
    /// exact activation thresholds, infinities, NaN, a subnormal, and
    /// ties, mixed half and half with an ordinary ramp.
    fn awkward(len: usize, seed: u64) -> Vec<f32> {
        const PALETTE: [f32; 10] = [
            0.0,
            -0.0,
            0.0,
            4.0,
            8.0,
            f32::NAN,
            f32::NEG_INFINITY,
            f32::INFINITY,
            1e-40,
            -2.5,
        ];
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = (state >> 33) as usize;
                if r.is_multiple_of(2) {
                    PALETTE[(r / 2) % PALETTE.len()]
                } else {
                    ((r / 2) % 1_000) as f32 * 0.013 - 3.0
                }
            })
            .collect()
    }

    /// Bit patterns, with every NaN as the canonical one: IEEE 754
    /// leaves NaN signs and payloads to the hardware, and the compiler
    /// may commute the operands of a product, so only NaN-ness is part
    /// of the contract.
    fn vbits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        vbits(t.data())
    }

    /// `n` random `c x h x w` images and their batch.
    fn images(n: usize, shape: [usize; 3], seed: u64) -> (Vec<Tensor>, Tensor) {
        let len: usize = shape.iter().product();
        let imgs: Vec<Tensor> = (0..n as u64)
            .map(|i| Tensor::from_vec(&shape, awkward(len, seed ^ (i << 40))))
            .collect();
        let batch = Tensor::stack(&imgs);
        (imgs, batch)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Max pooling, single and batched, is bitwise the naive loop
        /// of `reference`, also for `k = 3` and for planes whose sides
        /// `k` does not divide (leftover rows and columns get zero
        /// gradient).
        #[test]
        fn prop_maxpool_matches_reference_bitwise(
            n in 1usize..4,
            c in 1usize..4,
            k in 1usize..4,
            oh in 1usize..5,
            ow in 1usize..20,
            extra in 0usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let (h, w) = (oh * k + extra / 3 % k, ow * k + extra % k);
            let (xs, xb) = images(n, [c, h, w], seed);
            let (gs, gb) = images(n, [c, oh, ow], !seed);
            let y = maxpool_forward(&xb, k);
            let dx = maxpool_backward(&xb, k, &gb);
            for (i, (x, g)) in xs.iter().zip(&gs).enumerate() {
                let want_y = crate::reference::maxpool_forward(x, k);
                let want_dx = crate::reference::maxpool_backward(x, k, g);
                prop_assert_eq!(bits(&maxpool_forward(x, k)), bits(&want_y));
                prop_assert_eq!(bits(&maxpool_backward(x, k, g)), bits(&want_dx));
                prop_assert_eq!(vbits(y.image(i)), bits(&want_y));
                prop_assert_eq!(vbits(dx.image(i)), bits(&want_dx));
            }
        }

        /// Activations, forward and backward, are bitwise the naive
        /// per-element loops, at every variant.
        #[test]
        fn prop_activation_matches_reference_bitwise(
            len in 1usize..200,
            seed in 0u64..u64::MAX,
        ) {
            let x = Tensor::from_vec(&[len], awkward(len, seed));
            let g = Tensor::from_vec(&[len], awkward(len, !seed));
            for act in Activation::ALL {
                prop_assert_eq!(
                    bits(&activation_forward(&x, act)),
                    bits(&crate::reference::activation_forward(&x, act))
                );
                prop_assert_eq!(
                    bits(&activation_backward(&x, act, g.clone())),
                    bits(&crate::reference::activation_backward(&x, act, &g))
                );
            }
        }

        /// Scale-bias, single and batched, is bitwise the naive loops;
        /// batched parameter gradients are per-image subtotals summed
        /// in image order.
        #[test]
        fn prop_scale_bias_matches_reference_bitwise(
            n in 1usize..4,
            c in 1usize..5,
            h in 1usize..7,
            w in 1usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let p = ScaleBiasParams {
                scale: awkward(c, seed ^ 1),
                bias: awkward(c, seed ^ 2),
            };
            let (xs, xb) = images(n, [c, h, w], seed);
            let (gs, gb) = images(n, [c, h, w], !seed);
            let y = scale_bias_forward(&xb, &p);
            let (dx, ds, db) = scale_bias_backward(&xb, &p, gb);
            let (mut want_ds, mut want_db) = (vec![0.0f32; c], vec![0.0f32; c]);
            for (i, (x, g)) in xs.iter().zip(&gs).enumerate() {
                let want_y = crate::reference::scale_bias_forward(x, &p);
                let (want_dx, ds_i, db_i) = crate::reference::scale_bias_backward(x, &p, g);
                prop_assert_eq!(bits(&scale_bias_forward(x, &p)), bits(&want_y));
                let (dx_i, ds_1, db_1) = scale_bias_backward(x, &p, g.clone());
                prop_assert_eq!(bits(&dx_i), bits(&want_dx));
                prop_assert_eq!(vbits(&ds_1), vbits(&ds_i));
                prop_assert_eq!(vbits(&db_1), vbits(&db_i));
                prop_assert_eq!(vbits(y.image(i)), bits(&want_y));
                prop_assert_eq!(vbits(dx.image(i)), bits(&want_dx));
                for (d, s) in want_ds.iter_mut().zip(&ds_i) {
                    *d += s;
                }
                for (d, s) in want_db.iter_mut().zip(&db_i) {
                    *d += s;
                }
            }
            prop_assert_eq!(vbits(&ds), vbits(&want_ds));
            prop_assert_eq!(vbits(&db), vbits(&want_db));
        }

        /// Every layer op, forward and backward, on a stacked batch:
        /// row `i` is the op run on image `i` alone, bit for bit, and
        /// the batch's parameter gradients are the per-image ones
        /// summed in image order from zero.
        #[test]
        fn prop_batch_rows_match_single_images(
            n in 1usize..4,
            c in 1usize..5,
            oh in 1usize..4,
            ow in 1usize..7,
            k in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let (h, w) = (oh * k, ow * k);
            let (xs, xb) = images(n, [c, h, w], seed);
            let (gs, gb) = images(n, [c, h, w], !seed);
            let (ps, pb) = images(n, [c, oh, ow], seed ^ 3);
            // GAP gradients: one `[c]` row per image, and their `[n, c]` batch.
            let vs: Vec<Tensor> = (0..n as u64)
                .map(|i| Tensor::from_vec(&[c], awkward(c, seed ^ (i << 20))))
                .collect();
            let vb = Tensor::from_vec(&[n, c], vs.iter().flat_map(|v| v.data().to_vec()).collect());
            // Per-image parameter gradients summed in image order.
            let sum = |parts: &[Vec<f32>]| -> Vec<f32> {
                let mut total = vec![0.0f32; parts[0].len()];
                for part in parts {
                    for (t, v) in total.iter_mut().zip(part) {
                        *t += v;
                    }
                }
                total
            };

            let conv = ConvParams {
                weights: awkward(c * c * k * k, seed ^ 4),
                bias: awkward(c, seed ^ 5),
                ..ConvParams::zeros(k, c, c)
            };
            let dw = DwConvParams {
                weights: awkward(c * k * k, seed ^ 6),
                bias: awkward(c, seed ^ 7),
                ..DwConvParams::zeros(k, c)
            };
            let sb = ScaleBiasParams {
                scale: awkward(c, seed ^ 8),
                bias: awkward(c, seed ^ 9),
            };
            for engine in [
                Engine::Reference,
                Engine::Gemm(Parallelism::Fixed(1)),
                Engine::Gemm(Parallelism::Fixed(3)),
            ] {
                let y = conv_forward(&xb, &conv, engine);
                let (dx, dwb, dbb) = conv_backward(&xb, &conv, &gb, engine, true);
                let (mut dws, mut dbs) = (Vec::new(), Vec::new());
                for (i, (x, g)) in xs.iter().zip(&gs).enumerate() {
                    prop_assert_eq!(vbits(y.image(i)), bits(&conv_forward(x, &conv, engine)));
                    let (dx_i, dw_i, db_i) = conv_backward(x, &conv, g, engine, true);
                    prop_assert_eq!(vbits(dx.as_ref().unwrap().image(i)), bits(&dx_i.unwrap()));
                    dws.push(dw_i);
                    dbs.push(db_i);
                }
                prop_assert_eq!(vbits(&dwb), vbits(&sum(&dws)));
                prop_assert_eq!(vbits(&dbb), vbits(&sum(&dbs)));

                let y = dwconv_forward(&xb, &dw, engine);
                let (dx, dwb, dbb) = dwconv_backward(&xb, &dw, &gb, engine, true);
                let (mut dws, mut dbs) = (Vec::new(), Vec::new());
                for (i, (x, g)) in xs.iter().zip(&gs).enumerate() {
                    prop_assert_eq!(vbits(y.image(i)), bits(&dwconv_forward(x, &dw, engine)));
                    let (dx_i, dw_i, db_i) = dwconv_backward(x, &dw, g, engine, true);
                    prop_assert_eq!(vbits(dx.as_ref().unwrap().image(i)), bits(&dx_i.unwrap()));
                    dws.push(dw_i);
                    dbs.push(db_i);
                }
                prop_assert_eq!(vbits(&dwb), vbits(&sum(&dws)));
                prop_assert_eq!(vbits(&dbb), vbits(&sum(&dbs)));
            }

            let (ymax, dmax) = (maxpool_forward(&xb, k), maxpool_backward(&xb, k, &pb));
            let (yavg, davg) = (avgpool_forward(&xb, k), avgpool_backward(&xb, k, &pb));
            let ysb = scale_bias_forward(&xb, &sb);
            let (dsb, dsb_s, dsb_b) = scale_bias_backward(&xb, &sb, gb.clone());
            let (ygap, dgap) = (gap_forward(&xb), gap_backward(&xb, &vb));
            prop_assert_eq!(ygap.shape(), &[n, c]);
            let (mut dss, mut dbs) = (Vec::new(), Vec::new());
            for (i, ((x, g), p)) in xs.iter().zip(&gs).zip(&ps).enumerate() {
                prop_assert_eq!(vbits(ymax.image(i)), bits(&maxpool_forward(x, k)));
                prop_assert_eq!(vbits(dmax.image(i)), bits(&maxpool_backward(x, k, p)));
                prop_assert_eq!(vbits(yavg.image(i)), bits(&avgpool_forward(x, k)));
                prop_assert_eq!(vbits(davg.image(i)), bits(&avgpool_backward(x, k, p)));
                prop_assert_eq!(vbits(ysb.image(i)), bits(&scale_bias_forward(x, &sb)));
                let (dx_i, ds_i, db_i) = scale_bias_backward(x, &sb, g.clone());
                prop_assert_eq!(vbits(dsb.image(i)), bits(&dx_i));
                dss.push(ds_i);
                dbs.push(db_i);
                for act in Activation::ALL {
                    let (ya, da) = (
                        activation_forward(&xb, act),
                        activation_backward(&xb, act, gb.clone()),
                    );
                    prop_assert_eq!(vbits(ya.image(i)), bits(&activation_forward(x, act)));
                    prop_assert_eq!(
                        vbits(da.image(i)),
                        bits(&activation_backward(x, act, g.clone()))
                    );
                }
                let gap = gap_forward(x);
                prop_assert_eq!(gap.shape(), &[c]);
                prop_assert_eq!(vbits(ygap.image(i)), bits(&gap));
                prop_assert_eq!(vbits(dgap.image(i)), bits(&gap_backward(x, &vs[i])));
            }
            prop_assert_eq!(vbits(&dsb_s), vbits(&sum(&dss)));
            prop_assert_eq!(vbits(&dsb_b), vbits(&sum(&dbs)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_activation_forward_backward_shapes(n in 1usize..32) {
            let x = Tensor::full(&[n], 0.5);
            for act in Activation::ALL {
                let y = activation_forward(&x, act);
                prop_assert_eq!(y.shape(), x.shape());
                let dx = activation_backward(&x, act, y);
                prop_assert_eq!(dx.shape(), x.shape());
            }
        }

        #[test]
        fn prop_maxpool_output_dominates(h in 2usize..8, w in 2usize..8) {
            let x = ramp_tensor(&[2, h * 2, w * 2]);
            let y = maxpool_forward(&x, 2);
            // Every pooled value appears in the input.
            for &v in y.data() {
                prop_assert!(x.data().contains(&v));
            }
        }

        #[test]
        fn prop_gap_mean_matches(h in 1usize..6, w in 1usize..6, v in -5.0f32..5.0) {
            let x = Tensor::full(&[3, h, w], v);
            let y = gap_forward(&x);
            for &m in y.data() {
                prop_assert!((m - v).abs() < 1e-5);
            }
        }
    }
}
