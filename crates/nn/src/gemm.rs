//! Implicit-GEMM f32 convolution kernels over the image-interleaved
//! layout, with a bit-reproducibility contract.
//!
//! A stride-1 "same" convolution is the matrix product
//! `Y[oc][p] = init[oc] + Σ_t W[oc][t] · X[t][p]` over the patch
//! matrix `X`, whose row `t = (ic, ky, kx)` is the input plane `ic`
//! shifted by `(ky, kx)`. These kernels never materialize `X`: a tap
//! table holds the offset of every row `t` inside the (zero-padded)
//! input, and the micro-kernels in [`crate::simd`] read each row
//! straight from the image-interleaved buffer of [`Lanes`],
//! where one pixel of a channel is one vector of eight images. Two
//! kernels cover the three convolution passes of training:
//!
//! * [`correlate`] — the forward pass, and the backward-data pass as
//!   the transposed convolution over weights flipped by
//!   [`crate::engine`]'s backward pass, with `k - 1 - pad` padding. One
//!   zero-padded copy of the whole batch for `k > 1` (`k = 1` reads the
//!   input itself), which the batch keeps (`Lanes::padded`) for the
//!   weight gradient of the same convolution, weights packed once per call, and blocks
//!   of 4 output channels sharing every input load; one output pixel is
//!   one vector, so no row or plane ever runs a scalar tail. In a Bundle
//!   stage it also runs the stage's epilogue ([`Epilogue`]): it writes
//!   each block's output in row bands of the pool's height and turns
//!   every band into the stage output while the band is in L1.
//! * [`weight_grads`] — `dW = dY · Xᵀ` with lane-wise accumulators:
//!   each lane is one image's subtotal, and the result sums lanes
//!   `0..n` in image order. It reads the padded copy the forward pass
//!   left with the batch, so a `k > 1` input is padded once per step.
//!   Depth-wise layers run the same kernel over one channel's plane.
//!
//! The int8 engine runs [`correlate`]'s lane kernel too, over
//! integer-valued codes, where every chain is an exact integer sum (see
//! [`crate::quantized`]).
//!
//! The public functions take planar `N x C x H x W` slices; each packs
//! its inputs into lanes, runs the one lane kernel, and unpacks.
//!
//! # Determinism contract
//!
//! Every output element is a strict, sequential `f32` accumulation in
//! the **canonical order** of [`crate::reference`]: the init value (the
//! bias, or `0.0`), then the taps in ascending `(ic, ky, kx)` order —
//! padding taps included, as explicit `w x 0` terms read from the
//! zero-padded copy — for convolutions; output pixels in row-major
//! ascending order, one `0.0`-seeded subtotal per image summed in
//! image order, for weight gradients. Each lane is one image's chain;
//! channel and tap blocking, and the row bands of a fused epilogue, only
//! decide how many independent chains advance per instruction and
//! when, so the result is byte-identical at every [`SimdLevel`] and to
//! the naive loops in [`crate::reference`]. The epilogue reads each
//! finished output element and computes it with the same per-element
//! helpers, in the same order, as the standalone layers. The kernels
//! run on the calling thread. `tests/simd_equivalence.rs`,
//! `tests/engine_equivalence.rs` and `tests/stage_equivalence.rs` pin
//! all three.

use crate::lanes::{self, add_lanes, valid_lanes, Lanes, LANES};
use crate::layers::Epilogue;
use crate::scratch;
use crate::simd::{self, f32_conv_pixels, SimdLevel};

/// Weight-gradient taps per micro-kernel call when nine do not divide
/// the taps.
const GRAD_TAPS: usize = 8;

/// Geometry of a batch of stride-1 "same" convolutions over
/// `n x cin x h x w` input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Images in the batch.
    pub n: usize,
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Plane height (input and output).
    pub h: usize,
    /// Plane width (input and output).
    pub w: usize,
    /// Kernel size.
    pub k: usize,
    /// Depth-wise: `cin == cout` and output channel `c` reads input
    /// channel `c` only, with weights `[c][k][k]`.
    pub depthwise: bool,
}

impl ConvShape {
    /// Input channels one output channel reads: 1 when depth-wise.
    pub fn patch_channels(&self) -> usize {
        if self.depthwise {
            1
        } else {
            self.cin
        }
    }

    /// Weight count, `cout x patch_channels x k x k`.
    pub fn weights_len(&self) -> usize {
        self.cout * self.patch_channels() * self.k * self.k
    }

    /// Groups of [`LANES`] images.
    fn groups(&self) -> usize {
        self.n.div_ceil(LANES)
    }

    fn check(&self) {
        assert!(self.k > 0, "kernel size must be positive");
        assert!(
            !self.depthwise || self.cin == self.cout,
            "depth-wise convolution needs cin == cout"
        );
    }

    fn assert_input(&self, x: &[f32]) {
        self.check();
        assert_eq!(
            x.len(),
            self.n * self.cin * self.h * self.w,
            "input length disagrees with shape"
        );
    }

    fn assert_lanes(&self, x: &[f32], channels: usize) {
        self.check();
        assert_eq!(
            x.len(),
            self.groups() * channels * self.h * self.w * LANES,
            "lane buffer length disagrees with shape"
        );
    }
}

/// Where the patch-matrix rows live: tap offsets (in floats) in
/// canonical `(ic, ky, kx)` order, the `(rows, len, stride)` pixel walk
/// of the output grid over the source, and the pixels of one source
/// plane.
struct Layout {
    taps: Vec<usize>,
    geometry: (usize, usize, usize),
    src_plane: usize,
}

impl Layout {
    /// `k = 1` reads the input itself; larger kernels read rows of a
    /// zero-padded copy.
    fn new(s: &ConvShape) -> Layout {
        let (h, w, k) = (s.h, s.w, s.k);
        let stride = w + k - 1;
        let (geometry, src_plane) = ((h, w, stride), (h + k - 1) * stride);
        let stride = geometry.2;
        let taps = (0..s.patch_channels())
            .flat_map(|ic| {
                (0..k).flat_map(move |ky| {
                    (0..k).map(move |kx| (ic * src_plane + ky * stride + kx) * LANES)
                })
            })
            .collect();
        Layout {
            taps,
            geometry,
            src_plane,
        }
    }
}

/// The source of every plane of `x`: `x` itself for `k = 1`, else its
/// zero-padded copy with `pad` rows and columns before each plane and
/// `k - 1 - pad` after, which `x` keeps for the next pass with the same
/// padding ([`Lanes::padded`]): the weight gradient reads the copy the
/// forward pass made.
fn source<'a>(s: &ConvShape, x: &'a Lanes, pad: usize) -> &'a [f32] {
    match s.k {
        1 => x.data(),
        k => x.padded(pad, k - 1 - pad),
    }
}

/// Output channels per block: 4 while they last, then single channels
/// (wider blocks spill the accumulators out of the 16 vector
/// registers). A standard block shares every input load; a depth-wise
/// block reads one plane per channel, and gains four independent
/// chains. The packed weights follow the same partition.
fn block_width(s: &ConvShape, oc: usize) -> usize {
    if s.cout - oc >= 4 {
        4
    } else {
        1
    }
}

/// `[oc][t]` weights repacked block by block as `[t][ob]`, so the block
/// starting at channel `oc` sits at `oc * ckk`.
fn pack_blocks(s: &ConvShape, weights: &[f32], ckk: usize) -> Vec<f32> {
    let mut out = scratch::take(weights.len());
    let mut oc = 0;
    while oc < s.cout {
        let ob = block_width(s, oc);
        for t in 0..ckk {
            for j in 0..ob {
                out[oc * ckk + t * ob + j] = weights[(oc + j) * ckk + t];
            }
        }
        oc += ob;
    }
    out
}

/// The direct convolution: `n x cout x h x w` output with
/// `y[oc][oy][ox] = init[oc] + Σ_(ic, ky, kx) w[oc][ic][ky][kx] · x[ic][oy + ky - pad][ox + kx - pad]`,
/// out-of-image taps reading `0.0`, each element accumulated in that
/// order (see the module docs), at SIMD `level`. `init` of `None`
/// seeds with zeros. Packs `x`, runs the lane kernel, and unpacks.
///
/// # Panics
///
/// Panics when `x`, `weights` or `init` disagree with the shape, or
/// `pad >= k`.
pub fn correlate(
    level: SimdLevel,
    s: &ConvShape,
    x: &[f32],
    weights: &[f32],
    init: Option<&[f32]>,
    pad: usize,
) -> Vec<f32> {
    s.assert_input(x);
    let plane = s.h * s.w;
    let x = Lanes::from_data(
        s.n,
        s.cin,
        s.h,
        s.w,
        lanes::interleave(x, s.n, s.cin * plane),
    );
    let y = correlate_lanes(level, s, &x, weights, init, pad, None);
    lanes::deinterleave(&y, s.n, s.cout * plane)
}

/// [`correlate`] over the image-interleaved layout: `x` holds the
/// batch's groups of `cin` planes, the result its groups of `cout`.
///
/// With `fused = Some((e, y))` it also runs the epilogue `e` into `y`,
/// band by band, while each band of output rows is in L1 (rows below the
/// last whole pool window run none: no pool reads them).
pub(crate) fn correlate_lanes(
    level: SimdLevel,
    s: &ConvShape,
    x: &Lanes,
    weights: &[f32],
    init: Option<&[f32]>,
    pad: usize,
    mut fused: Option<(&Epilogue, &mut [f32])>,
) -> Vec<f32> {
    s.assert_lanes(x.data(), s.cin);
    assert_eq!(
        weights.len(),
        s.weights_len(),
        "weight length disagrees with shape"
    );
    assert!(pad < s.k, "padding {pad} must be below the kernel size");
    if let Some(init) = init {
        assert_eq!(init.len(), s.cout, "init length disagrees with cout");
    }
    let layout = Layout::new(s);
    let ckk = layout.taps.len();
    let (plane, src_group) = (s.h * s.w, s.cin * layout.src_plane * LANES);
    let (taps, (_, len, stride)) = (&layout.taps, layout.geometry);
    let src = source(s, x, pad);
    let wpack = pack_blocks(s, weights, ckk);
    let mut out = scratch::take(s.groups() * s.cout * plane * LANES);
    let (band, out_plane) = match &fused {
        Some((e, y)) => {
            let (oh, ow) = e.out_dims(s.h, s.w);
            let out_plane = oh * ow * LANES;
            assert_eq!(
                y.len(),
                s.groups() * s.cout * out_plane,
                "epilogue output length disagrees with shape"
            );
            (e.pool.unwrap_or(1), out_plane)
        }
        None => (s.h.max(1), 0),
    };
    let out_band = out_plane / (s.h / band).max(1);
    let seed = |oc: usize| init.map_or(0.0, |b| b[oc]);
    for g in 0..s.groups() {
        let image = &src[g * src_group..(g + 1) * src_group];
        let mut oc = 0;
        while oc < s.cout {
            let ob = block_width(s, oc);
            let yb = &mut out[(g * s.cout + oc) * plane * LANES..][..ob * plane * LANES];
            // Depth-wise channels read their own planes, one apart.
            let (src, step) = if s.depthwise {
                let planes = oc * layout.src_plane * LANES..(oc + ob) * layout.src_plane * LANES;
                (&image[planes], layout.src_plane * LANES)
            } else {
                (image, 0)
            };
            let wb = &wpack[oc * ckk..(oc + ob) * ckk];
            for r0 in (0..s.h).step_by(band) {
                let rows = band.min(s.h - r0);
                let (src, dst) = (&src[r0 * stride * LANES..], &mut yb[r0 * len * LANES..]);
                let geo = (rows, len, stride);
                if ob == 4 {
                    let init = std::array::from_fn(|j| seed(oc + j));
                    f32_conv_pixels::<4>(level, src, step, taps, wb, init, geo, dst, plane);
                } else {
                    f32_conv_pixels::<1>(level, src, step, taps, wb, [seed(oc)], geo, dst, plane);
                }
                let full = rows == band && out_band > 0;
                let Some((e, y)) = fused.as_mut().filter(|_| full) else {
                    continue;
                };
                for j in 0..ob {
                    let z = &yb[(j * plane + r0 * len) * LANES..][..rows * len * LANES];
                    let at = ((g * s.cout + oc + j) * out_plane) + r0 / band * out_band;
                    let y = &mut y[at..][..out_band];
                    simd::dispatch(
                        level,
                        #[inline(always)]
                        || e.forward_rows(oc + j, len, z, y),
                    );
                }
            }
            oc += ob;
        }
    }
    scratch::recycle(wpack);
    out
}

/// Weight gradient of the convolution [`correlate`] computes with
/// `pad = k / 2`: for every image, `dw_img[oc][t] = Σ_p dy[oc][p] ·
/// X[t][p]` over output pixels `p` in row-major ascending order,
/// starting from `0.0`; the result sums those subtotals in image
/// order. Weight layout as in [`correlate`]. Packs `x` and `dy`, and
/// runs the lane kernel.
///
/// # Panics
///
/// Panics when `x` or `dy` disagree with the shape.
pub fn weight_grads(level: SimdLevel, s: &ConvShape, x: &[f32], dy: &[f32]) -> Vec<f32> {
    s.assert_input(x);
    let plane = s.h * s.w;
    assert_eq!(
        dy.len(),
        s.n * s.cout * plane,
        "gradient length disagrees with shape"
    );
    let x = Lanes::from_data(
        s.n,
        s.cin,
        s.h,
        s.w,
        lanes::interleave(x, s.n, s.cin * plane),
    );
    let dy = lanes::interleave(dy, s.n, s.cout * plane);
    weight_grads_lanes(level, s, &x, &dy)
}

/// [`weight_grads`] over the image-interleaved layout: each lane
/// accumulates one image's subtotal, and every output channel sums
/// lanes `0..n` in image order.
pub(crate) fn weight_grads_lanes(
    level: SimdLevel,
    s: &ConvShape,
    x: &Lanes,
    dy: &[f32],
) -> Vec<f32> {
    s.assert_lanes(x.data(), s.cin);
    s.assert_lanes(dy, s.cout);
    let layout = Layout::new(s);
    let ckk = layout.taps.len();
    let (plane, src_group) = (s.h * s.w, s.cin * layout.src_plane * LANES);
    let src = source(s, x, s.k / 2);
    let mut dw = vec![0.0f32; s.weights_len()];
    for (oc, row) in dw.chunks_exact_mut(ckk).enumerate() {
        for g in 0..s.groups() {
            let image = &src[g * src_group..(g + 1) * src_group];
            // A depth-wise channel reads its own plane only.
            let src = if s.depthwise {
                &image[oc * layout.src_plane * LANES..(oc + 1) * layout.src_plane * LANES]
            } else {
                image
            };
            let g_dy = &dy[(g * s.cout + oc) * plane * LANES..][..plane * LANES];
            let valid = valid_lanes(s.n, g);
            grad_taps(level, src, &layout.taps, g_dy, layout.geometry, |t, acc| {
                add_lanes(&mut row[t], acc, valid);
            });
        }
    }
    dw
}

/// Runs every tap through the gradient micro-kernel, handing each
/// finished tap's lanes to `store(tap, lanes)`: in blocks of nine when
/// they divide the taps (every 3x3 kernel), else [`GRAD_TAPS`] at a
/// time and the remainder one by one. A block's chains advance
/// together, so wider blocks hide more of the add latency.
fn grad_taps(
    level: SimdLevel,
    src: &[f32],
    taps: &[usize],
    dy: &[f32],
    geometry: (usize, usize, usize),
    mut store: impl FnMut(usize, &[f32; LANES]),
) {
    let kernel = (level, src, dy, geometry);
    if taps.len().is_multiple_of(9) {
        grad_blocks::<9>(kernel, taps, 0, &mut store);
    } else {
        let whole = taps.len() / GRAD_TAPS * GRAD_TAPS;
        grad_blocks::<GRAD_TAPS>(kernel, &taps[..whole], 0, &mut store);
        grad_blocks::<1>(kernel, &taps[whole..], whole, &mut store);
    }
}

/// What every gradient micro-kernel call of one [`grad_taps`] shares:
/// level, source, gradient plane and geometry.
type GradKernel<'a> = (SimdLevel, &'a [f32], &'a [f32], (usize, usize, usize));

/// [`grad_taps`] over whole blocks of `TB` taps, the first being tap
/// `t0`.
fn grad_blocks<const TB: usize>(
    (level, src, dy, geometry): GradKernel<'_>,
    taps: &[usize],
    t0: usize,
    store: &mut impl FnMut(usize, &[f32; LANES]),
) {
    for (b, block) in taps.chunks_exact(TB).enumerate() {
        let block = block.try_into().expect("a block of TB taps");
        let acc = simd::f32_grad_taps::<TB>(level, src, block, dy, geometry);
        for (j, lanes) in acc.iter().enumerate() {
            store(t0 + b * TB + j, lanes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::active_level;
    use proptest::prelude::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn ramp(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 % 23) as f32 - 11.0) * scale)
            .collect()
    }

    fn shape(
        n: usize,
        cin: usize,
        cout: usize,
        h: usize,
        w: usize,
        k: usize,
        dw: bool,
    ) -> ConvShape {
        ConvShape {
            n,
            cin,
            cout: if dw { cin } else { cout },
            h,
            w,
            k,
            depthwise: dw,
        }
    }

    /// Input value at `(img, ic, iy, ix)`, zero outside the image.
    fn at(s: &ConvShape, x: &[f32], img: usize, ic: usize, iy: isize, ix: isize) -> f32 {
        if iy < 0 || ix < 0 || iy >= s.h as isize || ix >= s.w as isize {
            return 0.0;
        }
        x[((img * s.cin + ic) * s.h + iy as usize) * s.w + ix as usize]
    }

    /// Textbook nested loops in the canonical order: init, then
    /// ascending `(ic, ky, kx)`.
    fn naive_correlate(
        s: &ConvShape,
        x: &[f32],
        wts: &[f32],
        init: Option<&[f32]>,
        pad: usize,
    ) -> Vec<f32> {
        let patch_ch = s.patch_channels();
        let mut out = Vec::new();
        for img in 0..s.n {
            for oc in 0..s.cout {
                for oy in 0..s.h {
                    for ox in 0..s.w {
                        let mut acc = init.map_or(0.0, |b| b[oc]);
                        for ci in 0..patch_ch {
                            let ic = if s.depthwise { oc } else { ci };
                            for ky in 0..s.k {
                                for kx in 0..s.k {
                                    let iy = (oy + ky) as isize - pad as isize;
                                    let ix = (ox + kx) as isize - pad as isize;
                                    let wv = wts[((oc * patch_ch + ci) * s.k + ky) * s.k + kx];
                                    acc += at(s, x, img, ic, iy, ix) * wv;
                                }
                            }
                        }
                        out.push(acc);
                    }
                }
            }
        }
        out
    }

    /// Per-image `0.0`-seeded subtotals over row-major pixels, summed
    /// in image order.
    fn naive_weight_grads(s: &ConvShape, x: &[f32], dy: &[f32]) -> Vec<f32> {
        let patch_ch = s.patch_channels();
        let pad = s.k / 2;
        let mut dw = vec![0.0f32; s.weights_len()];
        for img in 0..s.n {
            for oc in 0..s.cout {
                for ci in 0..patch_ch {
                    let ic = if s.depthwise { oc } else { ci };
                    for ky in 0..s.k {
                        for kx in 0..s.k {
                            let mut acc = 0.0f32;
                            for oy in 0..s.h {
                                for ox in 0..s.w {
                                    let g = dy[((img * s.cout + oc) * s.h + oy) * s.w + ox];
                                    let iy = (oy + ky) as isize - pad as isize;
                                    let ix = (ox + kx) as isize - pad as isize;
                                    acc += g * at(s, x, img, ic, iy, ix);
                                }
                            }
                            dw[((oc * patch_ch + ci) * s.k + ky) * s.k + kx] += acc;
                        }
                    }
                }
            }
        }
        dw
    }

    const SHAPES: [(usize, usize, usize, usize, usize, usize, bool); 7] = [
        (1, 1, 1, 1, 1, 1, false),
        (2, 3, 8, 5, 11, 3, false),
        (1, 5, 13, 4, 9, 1, false),
        (2, 4, 3, 6, 17, 2, false),
        (1, 2, 5, 3, 8, 5, false),
        (2, 6, 6, 7, 19, 3, true),
        (1, 3, 3, 2, 9, 4, true),
    ];

    #[test]
    fn correlate_matches_naive_bitwise() {
        for (n, cin, cout, h, w, k, dw) in SHAPES {
            let s = shape(n, cin, cout, h, w, k, dw);
            let x = ramp(n * cin * h * w, 0.05);
            let wts = ramp(s.weights_len(), 0.03);
            let bias = ramp(s.cout, 0.2);
            for pad in [k / 2, k - 1 - k / 2] {
                let expect = naive_correlate(&s, &x, &wts, Some(&bias), pad);
                assert_eq!(
                    bits(&correlate(active_level(), &s, &x, &wts, Some(&bias), pad)),
                    bits(&expect),
                    "{s:?} pad={pad}"
                );
                let expect0 = naive_correlate(&s, &x, &wts, None, pad);
                assert_eq!(
                    bits(&correlate(active_level(), &s, &x, &wts, None, pad)),
                    bits(&expect0)
                );
            }
        }
    }

    #[test]
    fn correlate_is_bitwise_identical_at_every_simd_level() {
        for (n, cin, cout, h, w, k, dw) in SHAPES {
            let s = shape(n, cin, cout, h, w, k, dw);
            let x = ramp(n * cin * h * w, 0.05);
            let wts = ramp(s.weights_len(), 0.03);
            let bias = ramp(s.cout, 0.2);
            let expect = naive_correlate(&s, &x, &wts, Some(&bias), k / 2);
            let dy = ramp(n * s.cout * h * w, 0.07);
            let expect_dw = naive_weight_grads(&s, &x, &dy);
            for level in crate::simd::available_levels() {
                assert_eq!(
                    bits(&correlate(level, &s, &x, &wts, Some(&bias), k / 2)),
                    bits(&expect),
                    "level {level} diverged at {s:?}"
                );
                assert_eq!(
                    bits(&weight_grads(level, &s, &x, &dy)),
                    bits(&expect_dw),
                    "level {level} weight gradient diverged at {s:?}"
                );
            }
        }
    }

    /// Weight gradients are per-image subtotals summed in image order.
    #[test]
    fn weight_grads_sum_per_image_subtotals() {
        for (n, cin, cout, h, w, k, dw) in SHAPES {
            let s = shape(n, cin, cout, h, w, k, dw);
            let x = ramp(n * cin * h * w, 0.1);
            let dy = ramp(n * s.cout * h * w, 0.07);
            let expect = naive_weight_grads(&s, &x, &dy);
            assert_eq!(
                bits(&weight_grads(active_level(), &s, &x, &dy)),
                bits(&expect),
                "{s:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "weight length disagrees")]
    fn correlate_rejects_bad_shapes() {
        let s = shape(1, 2, 3, 2, 2, 3, false);
        let _ = correlate(active_level(), &s, &[1.0; 8], &[1.0; 5], None, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_correlate_bitwise_stable(
            n in 1usize..3,
            cin in 1usize..6,
            cout in 1usize..14,
            h in 1usize..6,
            w in 1usize..20,
            k in 1usize..5,
            dw in 0u8..2,
        ) {
            let s = shape(n, cin, cout, h, w, k, dw == 1);
            let x = ramp(n * cin * h * w, 0.02);
            let wts = ramp(s.weights_len(), 0.04);
            prop_assert_eq!(
                bits(&correlate(active_level(), &s, &x, &wts, None, k / 2)),
                bits(&naive_correlate(&s, &x, &wts, None, k / 2))
            );
            let dy = ramp(n * s.cout * h * w, 0.03);
            prop_assert_eq!(
                bits(&weight_grads(active_level(), &s, &x, &dy)),
                bits(&naive_weight_grads(&s, &x, &dy))
            );
        }

        /// Depth-wise weight gradients run with channels as vector
        /// lanes; channel counts on both sides of a lane multiple must
        /// match the naive per-channel chains at every SIMD level.
        #[test]
        fn prop_depthwise_weight_grads_bitwise_at_every_level(
            n in 1usize..3,
            c in 1usize..20,
            h in 1usize..7,
            w in 1usize..13,
            k in 1usize..6,
        ) {
            let s = shape(n, c, c, h, w, k, true);
            let x = ramp(n * c * h * w, 0.02);
            let dy = ramp(n * c * h * w, 0.03);
            let expect = bits(&naive_weight_grads(&s, &x, &dy));
            for level in crate::simd::available_levels() {
                prop_assert_eq!(bits(&weight_grads(level, &s, &x, &dy)), expect.clone());
            }
        }
    }
}
