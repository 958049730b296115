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
//!
//! Each op has one compute kernel, over the image-interleaved layout of
//! [`Lanes`]: one pixel of a channel is one
//! vector of eight images, so every lane runs its own image's chain.
//! The public functions here pack their input, run that kernel and
//! unpack; [`crate::network::Network`] runs the kernels directly, on a
//! batch it packs once per pass. The scale-bias gradients and the GAP
//! means sum one chain per lane, eight images at a time, and the
//! gradients' per-image subtotals are lanes, summed over the batch's
//! images in order.
//!
//! Scale-bias, the activations and max pooling are one kernel, the
//! [`Epilogue`] of a Bundle stage, built from one per-element helper
//! each: `x * s + b` as a multiply then an add (never a fused
//! multiply-add), `max(v, 0)` then `min(·, clip)`, and the pool's
//! `f32::max` fold. A standalone layer is the epilogue of its one op;
//! a stage runs the ones after its convolution in one pass, forward
//! over row bands as the convolution writes them, backward recomputing
//! every value from the convolution output (a pool window's maximum is
//! read from the stage output when the network kept it). Either way
//! each element takes the same operations in the same order, and the
//! gradient chains run over a plane's pixels in row-major order, so the
//! bits do not depend on how the ops are grouped. The backward pass
//! runs three chains per plane: the scale-bias gradients `ds` and `db`,
//! and the sum of the gradient it hands back, which is the bias
//! gradient of the convolution before the epilogue; a network stage
//! passes it on, so the convolution's backward pass makes no pass of
//! its own over that gradient (a convolution without an epilogue
//! still does).

use crate::lanes::{add_lanes, pixel_sums, Lanes, LANES};
use crate::simd;
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

// Lane kernels: every op walks the image-interleaved buffer of
// [`Lanes`] plane by plane, one pixel a vector of eight images,
// so each lane runs exactly the chain its image runs alone. Each body
// runs through `simd::dispatch`, compiled once per build like the
// convolution kernels. The bodies are loops over slices with no branch
// inside: a missing scale-bias runs as its identity (see
// [`ChannelOps`]), the activation is chosen once per band
// ([`with_value!`]), and lanes are selected with bit masks, so the
// compiler turns every loop into straight vector code. State a loop
// carries or rewrites (window maxima, routing masks, gradient chains)
// lives in local arrays, which the compiler keeps in registers; through
// a slice it would be reloaded after every store. The public functions
// pack, run the lane kernel and unpack; the naive loops the kernels
// replaced live on in [`crate::reference`].

/// Folded batch-norm of one value: a multiply, then an add. Never one
/// fused multiply-add, whose single rounding gives other bits.
#[inline(always)]
fn affine(x: f32, scale: f32, bias: f32) -> f32 {
    x * scale + bias
}

/// The activation of one value: `max(v, 0)`, then `min(·, clip)`
/// (`clip` is `+inf` for `Relu`).
#[inline(always)]
fn activate(v: f32, clip: f32) -> f32 {
    v.max(0.0).min(clip)
}

/// The activation gradient `g` at input `u`: it passes where `u` was
/// inside `(lo, hi)` — `(0, clip)`, the active region — and where it was
/// NaN; NaN bounds pass every gradient.
#[inline(always)]
fn activate_grad(u: f32, g: f32, lo: f32, hi: f32) -> f32 {
    keep(!((u <= lo) | (u >= hi)), g)
}

/// Runs `$body` with `$value` bound to what the pool reads at a conv
/// output of `$ops`'s channel, one closure per activation, so the body's
/// loops carry no branch on it.
macro_rules! with_value {
    ($ops:expr, |$value:ident| $body:expr) => {{
        let (scale, bias) = $ops.affine;
        match $ops.clip {
            Some(clip) => {
                let $value = |z: f32| activate(affine(z, scale, bias), clip);
                $body
            }
            None => {
                let $value = |z: f32| affine(z, scale, bias);
                $body
            }
        }
    }};
}

/// The ops that follow a convolution in a Bundle stage, in IR order:
/// folded batch-norm (scale-bias), then the activation, then max
/// pooling with window and stride `pool`, each optional; a standalone
/// layer is the epilogue of its one op (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Epilogue<'a> {
    /// Folded batch-norm.
    pub scale_bias: Option<&'a ScaleBiasParams>,
    /// Activation.
    pub act: Option<Activation>,
    /// Max-pooling window and stride.
    pub pool: Option<usize>,
}

/// An [`Epilogue`] at one channel. A missing scale-bias is scale `1`
/// and bias `-0.0`, which leave every value's bits as they are
/// (`x · 1 = x` and `x + -0.0 = x`, signed zeros and NaN included).
#[derive(Clone, Copy)]
struct ChannelOps {
    affine: (f32, f32),
    clip: Option<f32>,
    pool: Option<usize>,
}

/// The gradient chains of one plane, one lane per image, each from
/// `0.0` over the plane's pixels in row-major order: the scale-bias
/// gradients `ds` and `db`, and `dz`, the sum of the input gradient
/// (the bias gradient of the convolution before the epilogue).
#[derive(Clone, Copy, Default)]
struct Chains {
    ds: [f32; LANES],
    db: [f32; LANES],
    dz: [f32; LANES],
}

impl Epilogue<'_> {
    /// The output plane of an `h x w` input plane.
    pub(crate) fn out_dims(&self, h: usize, w: usize) -> (usize, usize) {
        match self.pool {
            Some(k) => (h / k, w / k),
            None => (h, w),
        }
    }

    /// Max pooling alone.
    pub(crate) fn max_pool(k: usize) -> Self {
        Epilogue {
            pool: Some(k),
            ..Epilogue::default()
        }
    }

    fn at(&self, c: usize) -> ChannelOps {
        let affine = self.scale_bias.map(|p| (p.scale[c], p.bias[c]));
        ChannelOps {
            affine: affine.unwrap_or((1.0, -0.0)),
            clip: self.act.map(|a| a.clip().unwrap_or(f32::INFINITY)),
            pool: self.pool,
        }
    }

    /// Forward over whole rows `z` of channel `c`'s plane, `w` pixels
    /// wide (`k` rows per output row when pooling with window `k`, with
    /// `w >= k`), into the output rows `y`. Each pooled output folds
    /// `f32::max` over its window in row-major order, seeded with `-inf`.
    #[inline(always)]
    pub(crate) fn forward_rows(&self, c: usize, w: usize, z: &[f32], y: &mut [f32]) {
        let ops = self.at(c);
        with_value!(ops, |value| {
            let Some(k) = ops.pool else {
                for (y, &z) in y.iter_mut().zip(z) {
                    *y = value(z);
                }
                return;
            };
            let (band, out) = (k * w * LANES, w / k * LANES);
            for (zb, yr) in z.chunks_exact(band).zip(y.chunks_exact_mut(out)) {
                fold_windows(k, zb, yr, f32::NEG_INFINITY, |a, z| a.max(value(z)));
            }
        })
    }
}

/// The activation mask and the scale-bias backward of channel `ops` over
/// rows, in place: `g` is masked at the activation input, the lane
/// chains take `ds += g · z` and `db += g`, `g` becomes `g · scale`, and
/// `dz` takes `g`.
#[inline(always)]
fn grad_rows(ops: &ChannelOps, z: &[f32], g: &mut [f32], chains: &mut Chains) {
    let (lo, hi) = ops.clip.map_or((f32::NAN, f32::NAN), |clip| (0.0, clip));
    let (scale, bias) = ops.affine;
    let mut c = *chains;
    for (gv, zv) in g.chunks_exact_mut(LANES).zip(z.chunks_exact(LANES)) {
        let (mut gl, zl) = (vector(gv), vector(zv));
        for l in 0..LANES {
            let u = affine(zl[l], scale, bias);
            let g = activate_grad(u, gl[l], lo, hi);
            c.ds[l] += g * zl[l];
            c.db[l] += g;
            gl[l] = g * scale;
            c.dz[l] += gl[l];
        }
        gv.copy_from_slice(&gl);
    }
    *chains = c;
}

/// Max-pooling backward over one band of `k` rows `row` floats wide,
/// the pool reading `value` at each conv output of `z`: each window's
/// `pooled` gradient lands, as `0.0 + g`, on its first element in
/// row-major order equal to its maximum (an `f32::max` fold from
/// `-inf`, which NaN never wins), or on its first element when no value
/// beats `-inf`; all else in `g` gets `0.0`. `maxima`, when given, holds
/// each window's maximum: the forward pass's fold.
#[inline(always)]
fn route_band(
    value: impl Fn(f32) -> f32,
    (k, row): (usize, usize),
    z: &[f32],
    (pooled, maxima): (&[f32], Option<&[f32]>),
    g: &mut [f32],
) {
    let width = k * LANES;
    for (j, gp) in pooled.chunks_exact(LANES).enumerate() {
        let mut best = maxima.map_or([f32::NEG_INFINITY; LANES], |m| vector(&m[j * LANES..]));
        for zr in z.chunks_exact(row).take(k * usize::from(maxima.is_none())) {
            for zv in zr[j * width..][..width].chunks_exact(LANES) {
                let zv = vector(zv);
                for l in 0..LANES {
                    best[l] = best[l].max(value(zv[l]));
                }
            }
        }
        let (gp, mut todo) = (vector(gp), [u32::MAX; LANES]);
        for (zr, gr) in z.chunks_exact(row).zip(g.chunks_exact_mut(row)) {
            let (zw, gw) = (&zr[j * width..][..width], &mut gr[j * width..][..width]);
            for (zv, gv) in zw.chunks_exact(LANES).zip(gw.chunks_exact_mut(LANES)) {
                let (zv, mut routed) = (vector(zv), [0.0f32; LANES]);
                for l in 0..LANES {
                    let top = mask(value(zv[l]) == best[l]) | mask(best[l] == f32::NEG_INFINITY);
                    let hit = todo[l] & top;
                    todo[l] &= !hit;
                    routed[l] = f32::from_bits((0.0 + gp[l]).to_bits() & hit);
                }
                gv.copy_from_slice(&routed);
            }
        }
    }
    for gr in g.chunks_exact_mut(row) {
        gr[pooled.len() * k..].fill(0.0);
    }
}

/// Folds each window of a band of `k` rows `z` into the window's `out`
/// vector, from `seed` and in row-major order.
#[inline(always)]
fn fold_windows(k: usize, z: &[f32], out: &mut [f32], seed: f32, fold: impl Fn(f32, f32) -> f32) {
    out.fill(seed);
    for zr in z.chunks_exact(z.len() / k) {
        for (acc, zw) in out.chunks_exact_mut(LANES).zip(zr.chunks_exact(k * LANES)) {
            let mut m = vector(acc);
            for zv in zw.chunks_exact(LANES) {
                for (a, &v) in m.iter_mut().zip(zv) {
                    *a = fold(*a, v);
                }
            }
            acc.copy_from_slice(&m);
        }
    }
}

/// The vector at the start of `v` as a local array.
#[inline(always)]
fn vector<T: Copy>(v: &[T]) -> [T; LANES] {
    v[..LANES].try_into().expect("LANES lanes")
}

/// All ones where `b` holds, else zero.
#[inline(always)]
fn mask(b: bool) -> u32 {
    (b as u32).wrapping_neg()
}

/// `v` where `keep` holds, `+0.0` elsewhere: a bit mask, not a branch.
#[inline(always)]
fn keep(keep: bool, v: f32) -> f32 {
    f32::from_bits(v.to_bits() & mask(keep))
}

/// Runs `e` over every plane of `x`.
pub(crate) fn epilogue_lanes(x: &Lanes, e: &Epilogue) -> Lanes {
    let (n, c, h, w) = x.dims();
    let (oh, ow) = e.out_dims(h, w);
    let mut y = Lanes::uninit(n, c, oh, ow);
    let out_plane = oh * ow * LANES;
    if out_plane == 0 {
        return y;
    }
    let used = oh * e.pool.unwrap_or(1) * w * LANES;
    let planes = x.planes().zip(y.data_mut().chunks_exact_mut(out_plane));
    simd::dispatch(
        simd::active_level(),
        #[inline(always)]
        || {
            for ((cc, xp), yp) in planes {
                e.forward_rows(cc, w, &xp[..used], yp);
            }
        },
    );
    y
}

/// The backward pass of [`epilogue_lanes`] from the output gradient
/// `dy`: `(dx, dscale, dbias, dx_sums)`, the middle two empty without
/// scale-bias. `dx_sums` sums each channel of `dx` as per-image
/// row-major pixel sums in image order: the bias gradient of a
/// convolution that `x` is the output of. `y`, the forward output when
/// the caller kept it, gives each pool window's maximum, which is
/// otherwise folded again.
pub(crate) fn epilogue_backward_lanes(
    x: &Lanes,
    e: &Epilogue,
    dy: Lanes,
    y: Option<&Lanes>,
) -> (Lanes, Vec<f32>, Vec<f32>, Vec<f32>) {
    let (n, c, h, w) = x.dims();
    let (oh, ow) = e.out_dims(h, w);
    assert_eq!(
        dy.dims(),
        (n, c, oh, ow),
        "epilogue gradient shape mismatch"
    );
    let (mut g, pooled) = match e.pool {
        Some(_) => (Lanes::uninit(n, c, h, w), Some(dy)),
        None => (dy, None),
    };
    let y = y.filter(|_| pooled.is_some()).inspect(|y| {
        assert_eq!(y.dims(), (n, c, oh, ow), "epilogue output shape mismatch");
    });
    let sb_len = if e.scale_bias.is_some() { c } else { 0 };
    let (mut ds, mut db, mut dz) = (vec![0.0f32; sb_len], vec![0.0f32; sb_len], vec![0.0; c]);
    let (row, wins) = (w * LANES, ow * LANES);
    // A plane runs in spans: pooled, its bands of pool rows, then the
    // rows below the last band; unpooled, the whole plane. Every span
    // runs through one call of `grad_rows`, so each element takes the
    // same machine code whatever the epilogue holds.
    let span = e.pool.map_or(h, |k| k).max(1) * row;
    let planes = x.planes().zip(g.data_mut().chunks_exact_mut(h * row));
    simd::dispatch(
        simd::active_level(),
        #[inline(always)]
        || {
            for (i, ((cc, zp), gp)) in planes.enumerate() {
                let (ops, mut sums) = (e.at(cc), Chains::default());
                let spans = zp.chunks(span.max(1)).zip(gp.chunks_mut(span.max(1)));
                for (b, (zb, gb)) in spans.enumerate() {
                    if let (Some(k), Some(pooled)) = (ops.pool, &pooled) {
                        if b < oh {
                            let at = (i * oh + b) * wins..(i * oh + b + 1) * wins;
                            let band = (&pooled.data()[at.clone()], y.map(|y| &y.data()[at]));
                            with_value!(ops, |value| route_band(value, (k, row), zb, band, gb));
                        } else {
                            gb.fill(0.0);
                        }
                    }
                    grad_rows(&ops, zb, gb, &mut sums);
                }
                let valid = x.valid(i / c);
                if e.scale_bias.is_some() {
                    add_lanes(&mut ds[cc], &sums.ds, valid);
                    add_lanes(&mut db[cc], &sums.db, valid);
                }
                add_lanes(&mut dz[cc], &sums.dz, valid);
            }
        },
    );
    (g, ds, db, dz)
}

/// Average pooling on lanes: each output sums its window in row-major
/// order from `0.0`, then divides by `k * k`. Rows and columns past the
/// last whole window are never visited.
pub(crate) fn avgpool_lanes(x: &Lanes, k: usize) -> Lanes {
    let (_, c, h, w) = x.dims();
    let (oh, ow) = (h / k, w / k);
    let mut y = x.zeros_like(c, oh, ow);
    if oh * ow == 0 {
        return y;
    }
    let norm = (k * k) as f32;
    let planes = x
        .planes()
        .zip(y.data_mut().chunks_exact_mut(oh * ow * LANES));
    simd::dispatch(
        simd::active_level(),
        #[inline(always)]
        || {
            for ((_, xp), yp) in planes {
                for (zb, yr) in xp
                    .chunks_exact(k * w * LANES)
                    .zip(yp.chunks_exact_mut(ow * LANES))
                {
                    fold_windows(k, zb, yr, 0.0, |a, v| a + v);
                    for v in yr {
                        *v /= norm;
                    }
                }
            }
        },
    );
    y
}

/// Average-pooling backward on lanes: each window element gets
/// `0.0 + g / (k * k)`; leftover rows and columns stay `0.0`.
pub(crate) fn avgpool_backward_lanes(x: &Lanes, k: usize, dy: &Lanes) -> Lanes {
    let (_, c, h, w) = x.dims();
    let mut dx = x.zeros_like(c, h, w);
    let ow = w / k;
    if (h / k) * ow == 0 {
        return dx;
    }
    let norm = (k * k) as f32;
    let planes = dy
        .planes()
        .zip(dx.data_mut().chunks_exact_mut(h * w * LANES));
    simd::dispatch(
        simd::active_level(),
        #[inline(always)]
        || {
            for ((_, gp), dp) in planes {
                for (gr, db) in gp
                    .chunks_exact(ow * LANES)
                    .zip(dp.chunks_exact_mut(k * w * LANES))
                {
                    for dr in db.chunks_exact_mut(w * LANES) {
                        for (g, dw) in gr.chunks_exact(LANES).zip(dr.chunks_exact_mut(k * LANES)) {
                            for d in dw.chunks_exact_mut(LANES) {
                                for (d, &gl) in d.iter_mut().zip(g) {
                                    *d += gl / norm;
                                }
                            }
                        }
                    }
                }
            }
        },
    );
    dx
}

/// Global average pooling on lanes: one row of `c` per image, each
/// mean summing its plane in row-major order.
pub(crate) fn gap_lanes(x: &Lanes) -> Lanes {
    let (_, c, h, w) = x.dims();
    let norm = (h * w) as f32;
    let mut y = x.zeros_like(c, 1, 1);
    let planes = x.planes().zip(y.data_mut().chunks_exact_mut(LANES));
    simd::dispatch(
        simd::active_level(),
        #[inline(always)]
        || {
            for ((_, xp), m) in planes {
                for (ml, s) in m.iter_mut().zip(pixel_sums(xp)) {
                    *ml = s / norm;
                }
            }
        },
    );
    y.into_rows()
}

/// Global average pooling backward on lanes: `dy` holds one row of `c`
/// per image.
pub(crate) fn gap_backward_lanes(x: &Lanes, dy: &Lanes) -> Lanes {
    let (_, c, h, w) = x.dims();
    let norm = (h * w) as f32;
    let mut dx = x.zeros_like(c, h, w);
    let planes = dx
        .data_mut()
        .chunks_exact_mut(h * w * LANES)
        .zip(dy.planes());
    simd::dispatch(
        simd::active_level(),
        #[inline(always)]
        || {
            for (plane, (_, g)) in planes {
                let g = vector(g).map(|v| v / norm);
                for v in plane.chunks_exact_mut(LANES) {
                    v.copy_from_slice(&g);
                }
            }
        },
    );
    dx
}

/// Max pooling with window `k` and stride `k`.
pub fn maxpool_forward(x: &Tensor, k: usize) -> Tensor {
    epilogue_forward(x, &Epilogue::max_pool(k))
}

/// Max pooling backward: each window's gradient goes to its first
/// element equal to its maximum, or to the window's first element when
/// no value beats `-inf` (all `-inf` or NaN).
pub fn maxpool_backward(x: &Tensor, k: usize, dy: &Tensor) -> Tensor {
    epilogue_backward(x, &Epilogue::max_pool(k), dy.clone()).0
}

/// Average pooling with window `k` and stride `k`.
pub fn avgpool_forward(x: &Tensor, k: usize) -> Tensor {
    avgpool_lanes(&Lanes::pack(x), k).unpack_like(x)
}

/// Average pooling backward: gradient spread uniformly over the window.
pub fn avgpool_backward(x: &Tensor, k: usize, dy: &Tensor) -> Tensor {
    avgpool_backward_lanes(&Lanes::pack(x), k, &Lanes::pack(dy)).unpack_like(x)
}

/// Folded batch-norm forward: `y = x * scale[c] + bias[c]`.
pub fn scale_bias_forward(x: &Tensor, p: &ScaleBiasParams) -> Tensor {
    let e = Epilogue {
        scale_bias: Some(p),
        ..Epilogue::default()
    };
    epilogue_forward(x, &e)
}

/// Folded batch-norm backward: `(dx, dscale, dbias)`, with the
/// parameter gradients summed as per-image subtotals in image order.
pub fn scale_bias_backward(
    x: &Tensor,
    p: &ScaleBiasParams,
    dy: Tensor,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    assert_eq!(dy.shape(), x.shape(), "scale-bias gradient shape mismatch");
    let e = Epilogue {
        scale_bias: Some(p),
        ..Epilogue::default()
    };
    epilogue_backward(x, &e, dy)
}

/// A stage's epilogue over one `C x H x W` image or an `N x C x H x W`
/// batch of convolution outputs `z`, as a network stage runs it.
pub fn epilogue_forward(z: &Tensor, e: &Epilogue) -> Tensor {
    epilogue_lanes(&Lanes::pack(z), e).unpack_like(z)
}

/// The backward pass of [`epilogue_forward`] from the output gradient
/// `dy`: `(dz, dscale, dbias)`, the last two empty without scale-bias.
pub fn epilogue_backward(z: &Tensor, e: &Epilogue, dy: Tensor) -> (Tensor, Vec<f32>, Vec<f32>) {
    let (dz, ds, db, _) = epilogue_backward_lanes(&Lanes::pack(z), e, Lanes::pack(&dy), None);
    (dz.unpack_like(z), ds, db)
}

/// Activation forward (element-wise, any rank): `max(x, 0)`, then
/// `min(·, clip)` for the clipped variants.
pub fn activation_forward(x: &Tensor, act: Activation) -> Tensor {
    let e = Epilogue {
        act: Some(act),
        ..Epilogue::default()
    };
    let y = epilogue_forward(
        &Tensor::from_vec(&[1, 1, 1, x.len()], x.data().to_vec()),
        &e,
    );
    Tensor::from_vec(x.shape(), y.data().to_vec())
}

/// Activation backward (element-wise, any rank): the gradient passes
/// where the input was active (positive, below the clip) or NaN.
pub fn activation_backward(x: &Tensor, act: Activation, dy: Tensor) -> Tensor {
    assert_eq!(dy.shape(), x.shape(), "activation gradient shape mismatch");
    let e = Epilogue {
        act: Some(act),
        ..Epilogue::default()
    };
    let flat = |t: &Tensor| Tensor::from_vec(&[1, 1, 1, t.len()], t.data().to_vec());
    let (dx, _, _) = epilogue_backward(&flat(x), &e, flat(&dy));
    Tensor::from_vec(x.shape(), dx.data().to_vec())
}

/// Global average pooling: `C x H x W -> [C]`, `N x C x H x W -> [N, C]`.
/// Each mean sums its plane in row-major order.
pub fn gap_forward(x: &Tensor) -> Tensor {
    gap_lanes(&Lanes::pack(x)).unpack_like(x)
}

/// Global average pooling backward (`dy` is `[C]` or `[N, C]`).
pub fn gap_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    gap_backward_lanes(&Lanes::pack(x), &Lanes::pack_rows(dy)).unpack_like(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{conv_backward, conv_forward, dwconv_backward, dwconv_forward, Engine};
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
    fn wide_conv_matches_per_channel_reference() {
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
            for engine in [Engine::Reference, Engine::Gemm] {
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
