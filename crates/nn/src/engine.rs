//! The convolution compute engine: batched direct kernels with a naive
//! fallback.
//!
//! [`Engine`] selects how the runtime executes (depth-wise)
//! convolutions. There is one forward and one backward entry per
//! convolution kind, and each takes one `C x H x W` image or an
//! `N x C x H x W` batch (an image runs as a batch of one):
//!
//! * [`Engine::Gemm`] — the fast path. Whole mini-batches run through
//!   the implicit-GEMM kernels of [`crate::gemm`], which read every
//!   patch row straight from the planar `N x C x H x W` buffers (from a
//!   zero-padded copy for `k > 1`) and write planar output — nothing is
//!   lowered or un-interleaved. The backward-data pass is the same
//!   kernel run as a transposed convolution over flipped weights, and
//!   weight/bias gradients accumulate per-image subtotals in image
//!   order. The network's backward pass asks for no input gradient at
//!   layer 0 (see [`crate::network::Network::backward`]).
//! * [`Engine::Reference`] — the retained per-image naive loops of
//!   [`crate::reference`], used as ground truth by tests and benches.
//!
//! Both paths accumulate every output element in the same canonical
//! order (see the [`crate::reference`] docs), so they are
//! **bit-identical** to each other — and the direct path is
//! bit-identical to itself at any worker count, because threads only
//! partition images.

use crate::gemm::{self, ConvShape};
use crate::im2col::flip_weights;
use crate::layers::{ConvParams, DwConvParams};
use crate::reference;
use crate::scratch;
use crate::simd;
use crate::tensor::Tensor;
use codesign_parallel::Parallelism;
use std::fmt;

/// Convolution execution strategy of a [`crate::network::Network`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// Per-image naive nested loops (the retained seed kernels).
    Reference,
    /// Batched direct (implicit-GEMM) kernels with the given
    /// worker-count knob.
    Gemm(Parallelism),
}

impl Default for Engine {
    fn default() -> Self {
        Engine::Gemm(Parallelism::Auto)
    }
}

impl Engine {
    /// Worker count the direct kernels run with (1 for the reference
    /// path, which is strictly sequential).
    pub fn threads(self) -> usize {
        match self {
            Engine::Reference => 1,
            Engine::Gemm(par) => par.threads(),
        }
    }

    /// Pins [`Parallelism::Auto`] to the hardware thread count
    /// ([`codesign_parallel::hardware_threads`]), so a stored engine
    /// carries a fixed worker count. Results are identical either way —
    /// only scheduling changes.
    #[must_use]
    pub fn resolved(self) -> Engine {
        match self {
            Engine::Gemm(Parallelism::Auto) => {
                Engine::Gemm(Parallelism::Fixed(Parallelism::Auto.threads()))
            }
            other => other,
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Reference => write!(f, "reference"),
            Engine::Gemm(par) => write!(f, "gemm(x{par})"),
        }
    }
}

fn map_images(x: &Tensor, f: impl Fn(&Tensor) -> Tensor) -> Tensor {
    let images: Vec<Tensor> = x.unstack().iter().map(f).collect();
    Tensor::stack(&images)
}

/// Shared assembly of the per-image reference backward paths: runs
/// `backward` on every `(image, gradient)` pair and sums the parameter
/// gradients as per-image subtotals in image order — the canonical
/// grouping the batched direct path reproduces bit-for-bit. One helper
/// for both conv and dwconv so the two cannot drift.
fn reference_backward_batch(
    x: &Tensor,
    dy: &Tensor,
    wlen: usize,
    blen: usize,
    backward: impl Fn(&Tensor, &Tensor) -> (Tensor, Vec<f32>, Vec<f32>),
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let mut dw = vec![0.0f32; wlen];
    let mut db = vec![0.0f32; blen];
    let mut dxs = Vec::with_capacity(x.dims().0);
    for (xi, gi) in x.unstack().iter().zip(dy.unstack().iter()) {
        let (dx, dwi, dbi) = backward(xi, gi);
        for (d, s) in dw.iter_mut().zip(&dwi) {
            *d += s;
        }
        for (d, s) in db.iter_mut().zip(&dbi) {
            *d += s;
        }
        dxs.push(dx);
    }
    (Tensor::stack(&dxs), dw, db)
}

/// The direct-kernel geometry of a convolution over one image (rank 3)
/// or a batch (rank 4).
fn shape_of(x: &Tensor, cin: usize, cout: usize, k: usize, depthwise: bool) -> ConvShape {
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

/// The shape of `x` with `c` channels in place of its own.
fn with_channels(x: &Tensor, c: usize) -> Vec<usize> {
    let mut shape = x.shape().to_vec();
    let rank = shape.len();
    shape[rank - 3] = c;
    shape
}

/// "Same" convolution forward pass over one image or a batch: the
/// output grid is the input grid for every kernel size (even-k kernels
/// included).
fn forward(
    x: &Tensor,
    s: &ConvShape,
    weights: &[f32],
    bias: &[f32],
    engine: Engine,
    reference: impl Fn(&Tensor) -> Tensor,
) -> Tensor {
    match engine {
        Engine::Reference if x.shape().len() == 3 => reference(x),
        Engine::Reference => map_images(x, reference),
        Engine::Gemm(par) => {
            let level = simd::active_level();
            let y = gemm::correlate(
                level,
                s,
                x.data(),
                weights,
                Some(bias),
                s.k / 2,
                par.threads(),
            );
            Tensor::from_vec(&with_channels(x, s.cout), y)
        }
    }
}

/// Backward pass over one image or a batch: `(dx, dweights, dbias)`,
/// with `dx` computed only when `input_grad` asks for it. Parameter
/// gradients are per-image subtotals summed in image order.
fn grads(
    x: &Tensor,
    dy: &Tensor,
    s: &ConvShape,
    weights: &[f32],
    engine: Engine,
    input_grad: bool,
    reference: impl Fn(&Tensor, &Tensor) -> (Tensor, Vec<f32>, Vec<f32>),
) -> (Option<Tensor>, Vec<f32>, Vec<f32>) {
    assert_eq!(
        dy.shape(),
        with_channels(x, s.cout),
        "convolution gradient shape mismatch"
    );
    let threads = match engine {
        Engine::Gemm(par) => par.threads(),
        Engine::Reference => {
            let (dx, dw, db) = if x.shape().len() == 3 {
                reference(x, dy)
            } else {
                reference_backward_batch(x, dy, weights.len(), s.cout, reference)
            };
            return (input_grad.then_some(dx), dw, db);
        }
    };
    let level = simd::active_level();
    let plane = s.h * s.w;
    // Bias gradient: row-major pixel sums, one subtotal per image.
    let mut db = vec![0.0f32; s.cout];
    for g in dy.data().chunks_exact(s.cout * plane) {
        for (d, gc) in db.iter_mut().zip(g.chunks_exact(plane)) {
            let mut sum = 0.0f32;
            for &v in gc {
                sum += v;
            }
            *d += sum;
        }
    }
    let dw = gemm::weight_grads(level, s, x.data(), dy.data(), threads);
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
        let dx = gemm::correlate(
            level,
            &t,
            dy.data(),
            &flipped,
            None,
            s.k - 1 - s.k / 2,
            threads,
        );
        scratch::recycle(flipped);
        Tensor::from_vec(x.shape(), dx)
    });
    (dx, dw, db)
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
    let s = shape_of(x, p.in_ch, p.out_ch, p.k, false);
    forward(x, &s, &p.weights, &p.bias, engine, |img| {
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
    let s = shape_of(x, p.in_ch, p.out_ch, p.k, false);
    grads(x, dy, &s, &p.weights, engine, input_grad, |xi, gi| {
        reference::conv_backward(xi, p, gi)
    })
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
    let s = shape_of(x, p.ch, p.ch, p.k, true);
    forward(x, &s, &p.weights, &p.bias, engine, |img| {
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
    let s = shape_of(x, p.ch, p.ch, p.k, true);
    grads(x, dy, &s, &p.weights, engine, input_grad, |xi, gi| {
        reference::dwconv_backward(xi, p, gi)
    })
}
