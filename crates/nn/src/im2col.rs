//! im2col lowering for the int8 engine, and the weight flip of the
//! transposed convolution.
//!
//! [`im2row_grid_i8`] unrolls every output pixel's receptive field into
//! one contiguous row of a patch matrix (the row-major flavour of the
//! classic im2col), so a quantized convolution becomes a single
//! [`crate::qgemm::qgemm_nt`] call: patch-matrix rows dotted against
//! weight rows. Padding is materialized as explicit zero codes, which
//! moves every boundary branch out of the GEMM inner loop; under the
//! symmetric quantization grid code `0` *is* real `0.0`, so the integer
//! path adds the same `weight x 0` padding terms as the float paths.
//!
//! The f32 engine does not lower at all: its implicit-GEMM kernels
//! ([`crate::gemm`]) read the patch rows straight from the planar
//! input. It shares [`flip_weights`], which turns the backward-data
//! pass into a transposed convolution over the output gradient — so no
//! scatter-style `col2im` is needed anywhere.
//!
//! Layouts (all row-major):
//!
//! * input: `groups` contiguous image planes of `c x h x w` (a rank-4
//!   `N x C x H x W` batch is `N` planes of `c = C`; a depth-wise pass
//!   treats the same buffer as `N*C` planes of `c = 1`);
//! * patch matrix: `groups * oh * ow` rows of `c * k * k` columns, row
//!   `g * oh * ow + oy * ow + ox`, column `(ic * k + ky) * k + kx`.

use crate::scratch;
use codesign_parallel::parallel_chunks_mut;

/// Output spatial size of a `k`-kernel convolution over `h x w` input
/// with the given stride and symmetric zero padding.
///
/// # Panics
///
/// Panics when the kernel (minus padding) does not fit the input or
/// `stride` is zero.
pub fn conv_output_size(h: usize, w: usize, k: usize, stride: usize, pad: usize) -> (usize, usize) {
    assert!(stride > 0, "stride must be positive");
    assert!(
        h + 2 * pad >= k && w + 2 * pad >= k,
        "kernel {k} with pad {pad} does not fit {h}x{w} input"
    );
    (
        (h + 2 * pad - k) / stride + 1,
        (w + 2 * pad - k) / stride + 1,
    )
}

/// Unrolls `groups` planes of `i8` activation codes into the patch
/// matrix described in the module docs, over an explicit output grid,
/// parallelized over planes.
///
/// "Same"-size convolutions keep the input grid (`oh = h`, `ow = w`)
/// for *every* kernel size — with `pad = k / 2` the size
/// [`conv_output_size`] derives only coincides for odd `k` — so the
/// engine pins the grid here. Taps reaching past the padded input read
/// as code `0`, like padding.
///
/// # Panics
///
/// Panics when `x` is not `groups * c * h * w` long or `stride` is 0.
#[allow(clippy::too_many_arguments)] // raw geometry is the whole API
pub fn im2row_grid_i8(
    x: &[i8],
    groups: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    (oh, ow): (usize, usize),
    threads: usize,
) -> Vec<i8> {
    let mut rows = scratch::take_zeroed_i8(groups * c * k * k * oh * ow);
    fill_patch_rows(
        x,
        &mut rows,
        groups,
        c,
        h,
        w,
        k,
        stride,
        pad,
        (oh, ow),
        threads,
    );
    rows
}

/// Element-type-generic patch gather behind [`im2row_grid_i8`]; `rows`
/// must arrive zeroed (padding taps are skipped, not written).
#[allow(clippy::too_many_arguments)]
fn fill_patch_rows<T: Copy + Send + Sync>(
    x: &[T],
    rows: &mut [T],
    groups: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    (oh, ow): (usize, usize),
    threads: usize,
) {
    assert!(stride > 0, "stride must be positive");
    assert_eq!(
        x.len(),
        groups * c * h * w,
        "input length disagrees with geometry"
    );
    let ckk = c * k * k;
    let plane_rows = oh * ow * ckk;
    let threads = crate::gemm::capped_threads(
        threads,
        groups * plane_rows,
        crate::gemm::COPY_ELEMS_PER_WORKER,
    );
    parallel_chunks_mut(rows, plane_rows, threads, |g, plane| {
        let img = &x[g * c * h * w..(g + 1) * c * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let row = &mut plane[(oy * ow + ox) * ckk..(oy * ow + ox + 1) * ckk];
                for ic in 0..c {
                    for ky in 0..k {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let dst = &mut row[(ic * k + ky) * k..(ic * k + ky + 1) * k];
                        if iy < 0 || iy >= h as isize {
                            continue; // already zero
                        }
                        let src_row =
                            &img[(ic * h + iy as usize) * w..(ic * h + iy as usize + 1) * w];
                        for (kx, d) in dst.iter_mut().enumerate() {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix >= 0 && ix < w as isize {
                                *d = src_row[ix as usize];
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Spatially flips and channel-transposes convolution weights for the
/// backward-data (transposed-convolution) pass.
///
/// Input layout `[oc][ic][ky][kx]` (flattened), output layout
/// `[ic][oc][ky][kx]` with both spatial axes reversed, so that the
/// transposed convolution of `dy` with the flipped weights
/// ([`crate::gemm::correlate`]) accumulates each element's terms in
/// ascending `(oc, ky, kx)` order.
pub fn flip_weights(weights: &[f32], oc: usize, ic: usize, k: usize) -> Vec<f32> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 5 % 17) as f32 - 8.0) * 0.1)
            .collect()
    }

    /// Direct (unoptimized) patch gather used as the test oracle.
    #[allow(clippy::too_many_arguments)]
    fn gather(
        x: &[f32],
        groups: usize,
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Vec<f32> {
        let (oh, ow) = conv_output_size(h, w, k, stride, pad);
        // Exact capacity from the output geometry: one push per
        // (group, output pixel, patch element), so the oracle never
        // reallocates mid-gather.
        let mut rows = Vec::with_capacity(groups * oh * ow * c * k * k);
        for g in 0..groups {
            for oy in 0..oh {
                for ox in 0..ow {
                    for ic in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize
                                {
                                    x[((g * c + ic) * h + iy as usize) * w + ix as usize]
                                } else {
                                    0.0
                                };
                                rows.push(v);
                            }
                        }
                    }
                }
            }
        }
        rows
    }

    /// `i8` codes cycling through the whole range.
    fn codes(len: usize) -> Vec<i8> {
        (0..len)
            .map(|i| ((i * 11 % 255) as i32 - 127) as i8)
            .collect()
    }

    /// The `i8` lowering read as floats, for comparison with [`gather`].
    #[allow(clippy::too_many_arguments)]
    fn lower_as_f32(
        x: &[i8],
        groups: usize,
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
        threads: usize,
    ) -> Vec<f32> {
        let grid = conv_output_size(h, w, k, stride, pad);
        im2row_grid_i8(x, groups, c, h, w, k, stride, pad, grid, threads)
            .iter()
            .map(|&v| v as f32)
            .collect()
    }

    #[test]
    fn identity_1x1_lowering() {
        let x = codes(2 * 3 * 4);
        let rows = im2row_grid_i8(&x, 1, 2, 3, 4, 1, 1, 0, (3, 4), 1);
        // Each row is the pixel's 2 channel values.
        assert_eq!(rows.len(), 3 * 4 * 2);
        assert_eq!(rows[0], x[0]);
        assert_eq!(rows[1], x[12]);
    }

    #[test]
    fn output_size_math() {
        assert_eq!(conv_output_size(8, 8, 3, 1, 1), (8, 8)); // same padding
        assert_eq!(conv_output_size(8, 8, 3, 2, 1), (4, 4));
        assert_eq!(conv_output_size(7, 9, 5, 1, 2), (7, 9));
        assert_eq!(conv_output_size(6, 6, 2, 2, 0), (3, 3));
    }

    #[test]
    fn flip_round_trips() {
        let (oc, ic, k) = (3, 2, 3);
        let w = ramp(oc * ic * k * k);
        let flipped = flip_weights(&w, oc, ic, k);
        assert_eq!(flip_weights(&flipped, ic, oc, k), w);
        // Spot check: input (oc=1, ic=0, ky=0, kx=2) lands at output
        // (ic=0, oc=1) with both spatial axes reversed.
        let (oc_i, ic_i, ky, kx) = (1usize, 0usize, 0usize, 2usize);
        let src = ((oc_i * ic + ic_i) * k + ky) * k + kx;
        let dst = ((ic_i * oc + oc_i) * k + (k - 1 - ky)) * k + (k - 1 - kx);
        assert_eq!(flipped[dst], w[src]);
    }

    #[test]
    fn i8_lowering_matches_float_lowering() {
        let (groups, c, h, w, k, stride) = (2usize, 2usize, 5usize, 6usize, 3usize, 1usize);
        let pad = k / 2;
        let xi = codes(groups * c * h * w);
        let xf: Vec<f32> = xi.iter().map(|&v| v as f32).collect();
        assert_eq!(
            lower_as_f32(&xi, groups, c, h, w, k, stride, pad, 2),
            gather(&xf, groups, c, h, w, k, stride, pad),
            "integer and float lowerings disagree"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_matches_direct_gather(
            groups in 1usize..3,
            c in 1usize..4,
            h in 1usize..8,
            w in 1usize..8,
            k in 1usize..4,
            stride in 1usize..3,
            threads in 1usize..5,
        ) {
            // `pad = k / 2` keeps the kernel inside the padded input
            // for every sampled shape.
            let pad = k / 2;
            let x = codes(groups * c * h * w);
            let xf: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            prop_assert_eq!(
                lower_as_f32(&x, groups, c, h, w, k, stride, pad, threads),
                gather(&xf, groups, c, h, w, k, stride, pad)
            );
        }
    }
}
