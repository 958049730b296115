//! The convolution compute engine: direct kernels over the
//! image-interleaved layout, with a naive fallback.
//!
//! [`Engine`] selects how the runtime executes (depth-wise)
//! convolutions. There is one forward and one backward entry per
//! convolution kind, and each takes one `C x H x W` image or an
//! `N x C x H x W` batch (an image runs as a batch of one). The public
//! entries pack their input into the layout of [`Lanes`] — the
//! batch's images as the vector lanes — run the one lane kernel and
//! unpack; [`crate::network::Network`] packs once per pass and runs
//! every layer on lanes.
//!
//! * [`Engine::Gemm`] — the fast path. Whole mini-batches run through
//!   the implicit-GEMM kernels of [`crate::gemm`], which read every
//!   patch row straight from the interleaved buffer (from one
//!   zero-padded copy of the batch for `k > 1`) and write interleaved
//!   output. The backward-data pass is the same kernel run as a
//!   transposed convolution over flipped weights, and weight and bias
//!   gradients accumulate one lane per image, summed over the lanes in
//!   image order. The network's backward pass asks for no input
//!   gradient at layer 0 (see [`crate::network::Network::backward`]).
//! * [`Engine::Reference`] — the retained per-image naive loops of
//!   [`crate::reference`], used as ground truth by tests and benches:
//!   each image is unpacked, run through the naive kernel and packed
//!   back.
//!
//! Both paths accumulate every output element in the same canonical
//! order (see the [`crate::reference`] docs), so they are
//! **bit-identical** to each other. Both run on the calling thread: a
//! split of each kernel's output-channel blocks over workers cost more
//! CPU than it saved on proxy training, so the kernels have none.

use crate::gemm::{self, ConvShape};
use crate::lanes::{add_lanes, pixel_sums, Lanes};
use crate::layers::{epilogue_lanes, ConvParams, DwConvParams, Epilogue};
use crate::reference;
use crate::scratch;
use crate::simd;
use crate::tensor::Tensor;
use std::fmt;

/// Convolution execution strategy of a [`crate::network::Network`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// Per-image naive nested loops (the retained seed kernels).
    Reference,
    /// Batched direct (implicit-GEMM) kernels, run on the calling
    /// thread.
    #[default]
    Gemm,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Reference => write!(f, "reference"),
            Engine::Gemm => write!(f, "gemm"),
        }
    }
}

/// The direct-kernel geometry of a convolution over a batch.
fn shape_of(x: &Lanes, cin: usize, cout: usize, k: usize, depthwise: bool) -> ConvShape {
    let (n, c, h, w) = x.dims();
    assert_eq!(c, cin, "convolution input channel mismatch");
    ConvShape {
        n,
        cin,
        cout,
        h,
        w,
        k,
        depthwise,
    }
}

/// "Same" convolution forward pass: the output grid is the input grid
/// for every kernel size (even-k kernels included). Returns the output
/// and, for a non-empty `epi`, the output of `epi` run over it.
fn forward(
    x: &Lanes,
    s: &ConvShape,
    weights: &[f32],
    bias: &[f32],
    epi: &Epilogue,
    engine: Engine,
    reference: impl Fn(&Tensor) -> Tensor,
) -> (Lanes, Option<Lanes>) {
    if engine == Engine::Reference {
        let z = x.map_images(reference);
        let y = (*epi != Epilogue::default()).then(|| epilogue_lanes(&z, epi));
        return (z, y);
    }
    let mut y = (*epi != Epilogue::default()).then(|| {
        let (oh, ow) = epi.out_dims(s.h, s.w);
        Lanes::uninit(s.n, s.cout, oh, ow)
    });
    let fused = y.as_mut().map(|y| (epi, y.data_mut()));
    let level = simd::active_level();
    let z = gemm::correlate_lanes(level, s, x, weights, Some(bias), s.k / 2, fused);
    (Lanes::from_data(s.n, s.cout, s.h, s.w, z), y)
}

/// Backward pass: `(dx, dweights, dbias)`, with `dx` computed only when
/// `input_grad` asks for it. Parameter gradients are per-image
/// subtotals summed in image order from `0.0`. `dbias`, when the stage
/// epilogue's backward pass already summed it in the same order (see
/// [`crate::layers`]), is taken as given by the direct kernels; the
/// reference path sums its own.
fn grads(
    (x, dy, dbias): (&Lanes, &Lanes, Option<Vec<f32>>),
    s: &ConvShape,
    weights: &[f32],
    engine: Engine,
    input_grad: bool,
    reference: impl Fn(&Tensor, &Tensor) -> (Tensor, Vec<f32>, Vec<f32>),
) -> (Option<Lanes>, Vec<f32>, Vec<f32>) {
    assert_eq!(
        dy.dims(),
        (s.n, s.cout, s.h, s.w),
        "convolution gradient shape mismatch"
    );
    if engine == Engine::Reference {
        let mut db = vec![0.0f32; s.cout];
        let mut dw = vec![0.0f32; weights.len()];
        let mut dx = x.zeros_like(s.cin, s.h, s.w);
        for i in 0..s.n {
            let (dxi, dwi, dbi) = reference(&x.image(i), &dy.image(i));
            for (d, v) in dw.iter_mut().chain(&mut db).zip(dwi.iter().chain(&dbi)) {
                *d += v;
            }
            dx.set_image(i, &dxi);
        }
        return (input_grad.then_some(dx), dw, db);
    }
    let level = simd::active_level();
    // Bias gradient: row-major pixel sums, one lane per image.
    let db = dbias.unwrap_or_else(|| {
        let mut db = vec![0.0f32; s.cout];
        for (i, (oc, g)) in dy.planes().enumerate() {
            add_lanes(&mut db[oc], &pixel_sums(g), dy.valid(i / s.cout));
        }
        db
    });
    let dw = gemm::weight_grads_lanes(level, s, x, dy.data());
    // Data gradient: the transposed convolution — the same kernel over
    // dY with flipped, channel-transposed weights, padded `k - 1 - pad`
    // (equal to `pad` only for odd kernels).
    let dx = input_grad.then(|| {
        let flipped = flip_weights(weights, s.cout, s.patch_channels(), s.k);
        let t = ConvShape {
            cin: s.cout,
            cout: s.cin,
            ..*s
        };
        let dx = gemm::correlate_lanes(level, &t, dy, &flipped, None, s.k - 1 - s.k / 2, None);
        scratch::recycle(flipped);
        Lanes::from_data(s.n, s.cin, s.h, s.w, dx)
    });
    (dx, dw, db)
}

/// Spatially flips and channel-transposes convolution weights for the
/// backward-data (transposed-convolution) pass: input layout
/// `[oc][ic][ky][kx]` (flattened), output layout `[ic][oc][ky][kx]`
/// with both spatial axes reversed, so that the transposed convolution
/// of `dy` with the flipped weights ([`gemm::correlate`]) accumulates
/// each element's terms in ascending `(oc, ky, kx)` order — no
/// scatter-style `col2im` needed.
fn flip_weights(weights: &[f32], oc: usize, ic: usize, k: usize) -> Vec<f32> {
    assert_eq!(weights.len(), oc * ic * k * k, "weight length disagrees");
    // The flip is a bijection, so every element is written: the arena
    // buffer needs no zeroing.
    let mut out = scratch::take(weights.len());
    for o in 0..oc {
        for i in 0..ic {
            for ky in 0..k {
                for kx in 0..k {
                    out[((i * oc + o) * k + (k - 1 - ky)) * k + (k - 1 - kx)] =
                        weights[((o * ic + i) * k + ky) * k + kx];
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Standard convolution
// ---------------------------------------------------------------------

/// Convolution forward pass (same padding, stride 1) over one image or
/// a batch.
///
/// # Panics
///
/// Panics when `x` is not rank 3 or 4 or disagrees with the parameter
/// geometry.
pub fn conv_forward(x: &Tensor, p: &ConvParams, engine: Engine) -> Tensor {
    let (z, _) = conv_forward_lanes(&Lanes::pack(x), p, &Epilogue::default(), engine);
    z.unpack_like(x)
}

/// [`conv_forward`] over the image-interleaved layout, followed by the
/// stage epilogue `epi`: the convolution output, and the epilogue's
/// output when `epi` is not empty.
pub(crate) fn conv_forward_lanes(
    x: &Lanes,
    p: &ConvParams,
    epi: &Epilogue,
    engine: Engine,
) -> (Lanes, Option<Lanes>) {
    let s = shape_of(x, p.in_ch, p.out_ch, p.k, false);
    forward(x, &s, &p.weights, &p.bias, epi, engine, |img| {
        reference::conv_forward(img, p)
    })
}

/// Convolution backward pass over one image or a batch: `(dx,
/// dweights, dbias)`, with `dx` only when `input_grad` asks for it (the
/// network input's gradient is never read). Weight and bias gradients
/// are per-image subtotals summed in image order.
pub fn conv_backward(
    x: &Tensor,
    p: &ConvParams,
    dy: &Tensor,
    engine: Engine,
    input_grad: bool,
) -> (Option<Tensor>, Vec<f32>, Vec<f32>) {
    let (xl, dyl) = (Lanes::pack(x), Lanes::pack(dy));
    let (dx, dw, db) = conv_backward_lanes(&xl, p, &dyl, None, engine, input_grad);
    (dx.map(|dx| dx.unpack_like(x)), dw, db)
}

/// [`conv_backward`] over the image-interleaved layout; `dbias`, when
/// given, is the bias gradient the stage epilogue's backward pass
/// summed (see [`grads`]).
pub(crate) fn conv_backward_lanes(
    x: &Lanes,
    p: &ConvParams,
    dy: &Lanes,
    dbias: Option<Vec<f32>>,
    engine: Engine,
    input_grad: bool,
) -> (Option<Lanes>, Vec<f32>, Vec<f32>) {
    let s = shape_of(x, p.in_ch, p.out_ch, p.k, false);
    let naive = |xi: &Tensor, gi: &Tensor| reference::conv_backward(xi, p, gi);
    grads((x, dy, dbias), &s, &p.weights, engine, input_grad, naive)
}

// ---------------------------------------------------------------------
// Depth-wise convolution (one single-channel convolution per channel)
// ---------------------------------------------------------------------

/// Depth-wise convolution forward pass over one image or a batch.
///
/// # Panics
///
/// Panics when `x` is not rank 3 or 4 or disagrees with the parameter
/// geometry.
pub fn dwconv_forward(x: &Tensor, p: &DwConvParams, engine: Engine) -> Tensor {
    let (z, _) = dwconv_forward_lanes(&Lanes::pack(x), p, &Epilogue::default(), engine);
    z.unpack_like(x)
}

/// [`dwconv_forward`] over the image-interleaved layout, followed by the
/// stage epilogue `epi` (see [`conv_forward_lanes`]).
pub(crate) fn dwconv_forward_lanes(
    x: &Lanes,
    p: &DwConvParams,
    epi: &Epilogue,
    engine: Engine,
) -> (Lanes, Option<Lanes>) {
    let s = shape_of(x, p.ch, p.ch, p.k, true);
    forward(x, &s, &p.weights, &p.bias, epi, engine, |img| {
        reference::dwconv_forward(img, p)
    })
}

/// Depth-wise counterpart of [`conv_backward`].
pub fn dwconv_backward(
    x: &Tensor,
    p: &DwConvParams,
    dy: &Tensor,
    engine: Engine,
    input_grad: bool,
) -> (Option<Tensor>, Vec<f32>, Vec<f32>) {
    let (xl, dyl) = (Lanes::pack(x), Lanes::pack(dy));
    let (dx, dw, db) = dwconv_backward_lanes(&xl, p, &dyl, None, engine, input_grad);
    (dx.map(|dx| dx.unpack_like(x)), dw, db)
}

/// [`dwconv_backward`] over the image-interleaved layout (see
/// [`conv_backward_lanes`]).
pub(crate) fn dwconv_backward_lanes(
    x: &Lanes,
    p: &DwConvParams,
    dy: &Lanes,
    dbias: Option<Vec<f32>>,
    engine: Engine,
    input_grad: bool,
) -> (Option<Lanes>, Vec<f32>, Vec<f32>) {
    let s = shape_of(x, p.ch, p.ch, p.k, true);
    let naive = |xi: &Tensor, gi: &Tensor| reference::dwconv_backward(xi, p, gi);
    grads((x, dy, dbias), &s, &p.weights, engine, input_grad, naive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_round_trips() {
        let (oc, ic, k) = (3, 2, 3);
        let w: Vec<f32> = (0..oc * ic * k * k)
            .map(|i| ((i * 5 % 17) as f32 - 8.0) * 0.1)
            .collect();
        let flipped = flip_weights(&w, oc, ic, k);
        assert_eq!(flip_weights(&flipped, ic, oc, k), w);
        // Spot check: input (oc=1, ic=0, ky=0, kx=2) lands at output
        // (ic=0, oc=1) with both spatial axes reversed.
        let (oc_i, ic_i, ky, kx) = (1usize, 0usize, 0usize, 2usize);
        let src = ((oc_i * ic + ic_i) * k + ky) * k + kx;
        let dst = ((ic_i * oc + oc_i) * k + (k - 1 - ky)) * k + (k - 1 - kx);
        assert_eq!(flipped[dst], w[src]);
    }
}
