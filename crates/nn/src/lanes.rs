//! The image-interleaved batch layout every layer computes in.
//!
//! A batch of `n` images of `C x H x W` is stored as groups of
//! [`LANES`] images, groups outermost, each group laid out
//! `[c][h][w][LANES]`: one pixel of one channel is one `LANES`-wide
//! vector holding that pixel of eight images. Lanes past `n` in the last
//! group are packed as zeros; every op keeps lanes independent, and no
//! result ever reads a lane past `n`.
//!
//! Each lane is one image's own accumulation chain, so a kernel that
//! advances a vector advances eight per-image chains in their canonical
//! order, and per-image subtotals (weight, bias and scale gradients) are
//! simply lanes, summed over lanes `0..n` in image order.

use crate::scratch;
use crate::tensor::Tensor;
use std::cell::OnceCell;

/// Images per vector: one AVX2 register, two SSE2 registers.
pub(crate) const LANES: usize = 8;

/// A batch in the image-interleaved layout the runtime computes in:
/// groups of eight images, one pixel of one channel a vector holding
/// that pixel of each image (see the module docs of [`crate::gemm`]).
/// Its contents are private to the crate;
/// [`crate::network::Network::forward_train`] returns its training cache
/// as a `Vec` of these, for [`crate::network::Network::backward`].
#[derive(Debug, Clone, Default)]
pub struct Lanes {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    /// Rows of a vector per image (a GAP output): unpacks as `[c]` or
    /// `[n, c]` instead of `C x 1 x 1` planes.
    flat: bool,
    data: Vec<f32>,
    /// The zero-padded copy of [`Lanes::padded`], keyed by its
    /// `(before, after)` padding.
    padded: OnceCell<((usize, usize), Vec<f32>)>,
}

impl Lanes {
    /// A zeroed batch of `n` images of `c x h x w`.
    pub(crate) fn zeros(n: usize, c: usize, h: usize, w: usize) -> Lanes {
        let data = scratch::take_zeroed(n.div_ceil(LANES) * c * h * w * LANES);
        Lanes::from_data(n, c, h, w, data)
    }

    /// `n` images of `c x h x w`, unspecified: the kernel writes them all.
    pub(crate) fn uninit(n: usize, c: usize, h: usize, w: usize) -> Lanes {
        let data = scratch::take(n.div_ceil(LANES) * c * h * w * LANES);
        Lanes::from_data(n, c, h, w, data)
    }

    /// Wraps a kernel's output buffer for `n` images of `c x h x w`.
    pub(crate) fn from_data(n: usize, c: usize, h: usize, w: usize, data: Vec<f32>) -> Lanes {
        assert_eq!(
            data.len(),
            n.div_ceil(LANES) * c * h * w * LANES,
            "lane buffer length disagrees with its shape"
        );
        Lanes {
            n,
            c,
            h,
            w,
            flat: false,
            data,
            padded: OnceCell::new(),
        }
    }

    /// Packs one `C x H x W` image (a batch of one) or an
    /// `N x C x H x W` batch.
    ///
    /// # Panics
    ///
    /// Panics for tensors that are neither rank 3 nor rank 4.
    pub(crate) fn pack(x: &Tensor) -> Lanes {
        let (n, c, h, w) = x.dims();
        Lanes::from_data(n, c, h, w, interleave(x.data(), n, c * h * w))
    }

    /// Packs one `[c]` vector (a batch of one) or the rows of an
    /// `[n, c]` matrix, as `c x 1 x 1` images that unpack as rows.
    ///
    /// # Panics
    ///
    /// Panics for tensors that are neither rank 1 nor rank 2.
    pub(crate) fn pack_rows(x: &Tensor) -> Lanes {
        let (n, c) = match *x.shape() {
            [c] => (1, c),
            [n, c] => (n, c),
            ref s => panic!("row gradients need a [c] or [n, c] tensor, got {s:?}"),
        };
        let mut rows = Lanes::from_data(n, c, 1, 1, interleave(x.data(), n, c));
        rows.flat = true;
        rows
    }

    /// The inverse of [`Lanes::pack`] / [`Lanes::pack_rows`]: a rank-4
    /// (or `[n, c]`) tensor when `batched`, else the one image's rank-3
    /// (or `[c]`) tensor.
    ///
    /// # Panics
    ///
    /// Panics when not `batched` and the batch holds more than one image.
    pub(crate) fn unpack(&self, batched: bool) -> Tensor {
        let mut shape = if self.flat {
            vec![self.c]
        } else {
            vec![self.c, self.h, self.w]
        };
        if batched {
            shape.insert(0, self.n);
        } else {
            assert_eq!(self.n, 1, "a batch of {} is not one image", self.n);
        }
        Tensor::from_vec(&shape, deinterleave(&self.data, self.n, self.image_len()))
    }

    /// The batch as an `N x C x H x W` tensor (`N x C` for rows), or
    /// `None` for an empty training-cache slot.
    pub fn to_tensor(&self) -> Option<Tensor> {
        (self.n > 0).then(|| self.unpack(true))
    }

    /// [`Lanes::unpack`] to the rank of the tensor this batch (or its
    /// input) was packed from: batched for a rank-4 `x`.
    pub(crate) fn unpack_like(&self, x: &Tensor) -> Tensor {
        self.unpack(x.shape().len() == 4)
    }

    /// Image `i` as a rank-3 tensor.
    pub(crate) fn image(&self, i: usize) -> Tensor {
        let (g, l) = (i / LANES, i % LANES);
        let len = self.image_len();
        let group = &self.data[g * len * LANES..(g + 1) * len * LANES];
        let data = group.chunks_exact(LANES).map(|v| v[l]).collect();
        Tensor::from_vec(&[self.c, self.h, self.w], data)
    }

    /// Overwrites image `i` with a rank-3 tensor of this batch's shape.
    pub(crate) fn set_image(&mut self, i: usize, img: &Tensor) {
        assert_eq!(
            img.shape(),
            [self.c, self.h, self.w],
            "image shape mismatch"
        );
        let (g, l) = (i / LANES, i % LANES);
        let len = self.image_len();
        let group = &mut self.data_mut()[g * len * LANES..(g + 1) * len * LANES];
        for (v, &s) in group.chunks_exact_mut(LANES).zip(img.data()) {
            v[l] = s;
        }
    }

    /// Runs `f` on every image and packs the results, which must share
    /// one shape.
    pub(crate) fn map_images(&self, f: impl Fn(&Tensor) -> Tensor) -> Lanes {
        let mut out: Option<Lanes> = None;
        for i in 0..self.n {
            let y = f(&self.image(i));
            let out = out.get_or_insert_with(|| {
                let (_, c, h, w) = y.dims();
                Lanes::zeros(self.n, c, h, w)
            });
            out.set_image(i, &y);
        }
        out.expect("a batch holds at least one image")
    }

    /// `(n, c, h, w)`.
    pub(crate) fn dims(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Elements of one image, `c * h * w`.
    fn image_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Every plane of every group, `(channel, plane)` in storage order.
    pub(crate) fn planes(&self) -> impl Iterator<Item = (usize, &[f32])> {
        let c = self.c;
        self.data
            .chunks_exact(self.h * self.w * LANES)
            .enumerate()
            .map(move |(i, p)| (i % c, p))
    }

    /// Valid lanes (images) of group `g`, in image order.
    pub(crate) fn valid(&self, g: usize) -> usize {
        valid_lanes(self.n, g)
    }

    /// The lanes of every vector that hold images (`0..n`), in storage
    /// order: whole vectors in full groups, a prefix in the last.
    pub(crate) fn images_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        let (n, len) = (self.n, self.image_len());
        self.data_mut()
            .chunks_mut(len * LANES)
            .enumerate()
            .flat_map(move |(g, group)| {
                let valid = valid_lanes(n, g);
                group.chunks_exact_mut(LANES).map(move |v| &mut v[..valid])
            })
    }

    /// The zero-padded copy of every plane: `before` zero rows and
    /// columns ahead of each plane's own, `after` behind, so a plane of
    /// `h x w` becomes `(h + before + after) x (w + before + after)`. The
    /// first call builds the copy and the batch keeps it, so a
    /// convolution's weight gradient reads the copy its forward pass
    /// made; one batch is only ever padded one way.
    pub(crate) fn padded(&self, before: usize, after: usize) -> &[f32] {
        // Only the border is zeroed: the rest is the copy.
        let (padding, copy) = self.padded.get_or_init(|| {
            let (row, stride) = (self.w * LANES, (self.w + before + after) * LANES);
            let plane = (self.h + before + after) * stride;
            let mut out = scratch::take(self.n.div_ceil(LANES) * self.c * plane);
            let planes = self.data.chunks_exact(self.h * row);
            for (src, dst) in planes.zip(out.chunks_exact_mut(plane)) {
                let (top, rest) = dst.split_at_mut(before * stride);
                let (body, bottom) = rest.split_at_mut(self.h * stride);
                top.fill(0.0);
                bottom.fill(0.0);
                for (r, drow) in src.chunks_exact(row).zip(body.chunks_exact_mut(stride)) {
                    let (left, rest) = drow.split_at_mut(before * LANES);
                    let (mid, right) = rest.split_at_mut(row);
                    left.fill(0.0);
                    mid.copy_from_slice(r);
                    right.fill(0.0);
                }
            }
            ((before, after), out)
        });
        assert_eq!(*padding, (before, after), "a batch is padded one way");
        copy
    }

    /// The raw buffer.
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    /// The raw buffer, mutable. The padded copy, if any, goes back to the
    /// scratch pool: it would go stale.
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        if let Some((_, copy)) = self.padded.take() {
            scratch::recycle(copy);
        }
        &mut self.data
    }

    /// The shape of `self` with `c` channels of `h x w`: a zeroed
    /// buffer for the same images.
    pub(crate) fn zeros_like(&self, c: usize, h: usize, w: usize) -> Lanes {
        Lanes::zeros(self.n, c, h, w)
    }

    /// The same images as rows of `c` (a GAP output).
    pub(crate) fn into_rows(mut self) -> Lanes {
        assert_eq!(self.h * self.w, 1, "only 1 x 1 planes are rows");
        self.flat = true;
        self
    }
}

/// A dropped batch's buffers go back to the scratch pool: warm memory.
impl Drop for Lanes {
    fn drop(&mut self) {
        self.data_mut(); // recycles the padded copy
        scratch::recycle(std::mem::take(&mut self.data));
    }
}

/// Valid lanes of group `g` in a batch of `n` images.
pub(crate) fn valid_lanes(n: usize, g: usize) -> usize {
    n.saturating_sub(g * LANES).min(LANES)
}

/// Adds lanes `0..valid` of `acc` into `total`, in image order: the
/// per-image subtotals of a lane-wise reduction.
#[inline]
pub(crate) fn add_lanes(total: &mut f32, acc: &[f32; LANES], valid: usize) {
    for &v in &acc[..valid] {
        *total += v;
    }
}

/// Lane-wise sums of one plane's pixels in row-major order, each lane
/// starting from `0.0`.
#[inline]
pub(crate) fn pixel_sums(plane: &[f32]) -> [f32; LANES] {
    let mut acc = [0.0f32; LANES];
    for v in plane.chunks_exact(LANES) {
        for (a, &x) in acc.iter_mut().zip(v) {
            *a += x;
        }
    }
    acc
}

/// `n` contiguous images of `len` elements, interleaved into groups of
/// [`LANES`] (lanes past `n` zero).
pub(crate) fn interleave(src: &[f32], n: usize, len: usize) -> Vec<f32> {
    assert_eq!(src.len(), n * len, "source length disagrees with n x len");
    let mut out = scratch::take_zeroed(n.div_ceil(LANES) * len * LANES);
    for (g, images) in src.chunks(len * LANES).enumerate() {
        let group = &mut out[g * len * LANES..(g + 1) * len * LANES];
        for (l, img) in images.chunks_exact(len).enumerate() {
            for (v, &s) in group.chunks_exact_mut(LANES).zip(img) {
                v[l] = s;
            }
        }
    }
    out
}

/// The inverse of [`interleave`]: `n` contiguous images of `len`.
pub(crate) fn deinterleave(src: &[f32], n: usize, len: usize) -> Vec<f32> {
    assert_eq!(
        src.len(),
        n.div_ceil(LANES) * len * LANES,
        "lane buffer length disagrees with n x len"
    );
    let mut out = vec![0.0f32; n * len];
    for (g, images) in out.chunks_mut(len * LANES).enumerate() {
        let group = &src[g * len * LANES..(g + 1) * len * LANES];
        for (l, img) in images.chunks_exact_mut(len).enumerate() {
            for (d, v) in img.iter_mut().zip(group.chunks_exact(LANES)) {
                *d = v[l];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{conv_backward_lanes, dwconv_backward_lanes, Engine};
    use crate::layers::ScaleBiasParams;
    use crate::layers::{epilogue_backward_lanes, ConvParams, DwConvParams, Epilogue};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A packed batch of `n` ramp images of `c x h x w`, and the same
    /// batch with garbage (NaN, infinities, huge values) in every lane
    /// past `n`.
    fn clean_and_dirty(n: usize, c: usize, h: usize, w: usize, seed: usize) -> (Lanes, Lanes) {
        let len = c * h * w;
        let data = (0..n * len)
            .map(|i| ((i * 7 + seed) % 23) as f32 * 0.1 - 1.1)
            .collect();
        let clean = Lanes::pack(&Tensor::from_vec(&[n, c, h, w], data));
        let mut dirty = clean.clone();
        let garbage = [f32::NAN, f32::INFINITY, -1e30, f32::NEG_INFINITY, 7.5];
        let valid = dirty.valid(n.div_ceil(LANES) - 1);
        let last = (n.div_ceil(LANES) - 1) * len * LANES;
        for (i, v) in dirty.data_mut()[last..].chunks_exact_mut(LANES).enumerate() {
            for (l, x) in v.iter_mut().enumerate().skip(valid) {
                *x = garbage[(i + l) % garbage.len()];
            }
        }
        (clean, dirty)
    }

    /// Whatever lanes past `n` hold, no output lane and no lane-summed
    /// gradient (weights, bias, scale) of the backward passes reads it.
    #[test]
    fn padding_lanes_never_reach_a_result() {
        let engine = Engine::Gemm;
        for n in [1usize, 3, 9] {
            let (x, xd) = clean_and_dirty(n, 3, 4, 6, 1);
            let (g, gd) = clean_and_dirty(n, 3, 4, 6, 5);
            let mut conv = ConvParams::zeros(3, 3, 3);
            conv.weights
                .iter_mut()
                .enumerate()
                .for_each(|(i, w)| *w = (i % 5) as f32 * 0.2 - 0.4);
            let dw = DwConvParams {
                weights: conv.weights[..27].to_vec(),
                ..DwConvParams::zeros(3, 3)
            };
            let (dx, dwc, dbc) = conv_backward_lanes(&x, &conv, &g, None, engine, true);
            let (dxd, dwcd, dbcd) = conv_backward_lanes(&xd, &conv, &gd, None, engine, true);
            assert_eq!(dx.unwrap().unpack(true), dxd.unwrap().unpack(true));
            assert_eq!(
                (bits(&dwc), bits(&dbc)),
                (bits(&dwcd), bits(&dbcd)),
                "conv at n={n}"
            );
            let (_, dwd, dbd) = dwconv_backward_lanes(&x, &dw, &g, None, engine, false);
            let (_, dwdd, dbdd) = dwconv_backward_lanes(&xd, &dw, &gd, None, engine, false);
            assert_eq!(
                (bits(&dwd), bits(&dbd)),
                (bits(&dwdd), bits(&dbdd)),
                "dwconv at n={n}"
            );
            let sb = ScaleBiasParams::identity(3);
            let e = Epilogue {
                scale_bias: Some(&sb),
                ..Epilogue::default()
            };
            let (dxs, ds, db, _) = epilogue_backward_lanes(&x, &e, g.clone(), None);
            let (dxsd, dsd, dbd, _) = epilogue_backward_lanes(&xd, &e, gd.clone(), None);
            assert_eq!(dxs.unpack(true), dxsd.unpack(true));
            assert_eq!(
                (bits(&ds), bits(&db)),
                (bits(&dsd), bits(&dbd)),
                "scale-bias at n={n}"
            );
        }
    }

    #[test]
    fn pack_and_unpack_round_trip_at_every_group_size() {
        for n in [1usize, 3, 8, 9, 17] {
            let x = Tensor::from_vec(&[n, 2, 3, 5], (0..n * 30).map(|i| i as f32).collect());
            let lanes = Lanes::pack(&x);
            assert_eq!(lanes.data().len(), n.div_ceil(LANES) * 30 * LANES);
            assert_eq!(lanes.unpack(true), x);
            for (i, img) in x.unstack().iter().enumerate() {
                assert_eq!(&lanes.image(i), img);
            }
            // Lanes past `n` are packed as zeros.
            let last = lanes.valid(n.div_ceil(LANES) - 1);
            let group = (n.div_ceil(LANES) - 1) * 30 * LANES;
            for v in lanes.data()[group..].chunks_exact(LANES) {
                assert!(v[last..].iter().all(|&z| z == 0.0));
            }
        }
        let rows = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32).collect());
        assert_eq!(Lanes::pack_rows(&rows).unpack(true), rows);
        let one = Tensor::from_vec(&[2, 2, 2], (0..8).map(|i| i as f32).collect());
        assert_eq!(Lanes::pack(&one).unpack(false), one);
    }
}
