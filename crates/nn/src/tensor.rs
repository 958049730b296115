//! Dense `f32` tensors in channel-major (`C x H x W`) layout, with an
//! `N x C x H x W` batch view; every layer op takes either rank.

use std::fmt;

/// A dense tensor of `f32` values.
///
/// Single images are rank-3 `C x H x W`; a mini-batch is a rank-4
/// `N x C x H x W` tensor built with [`Tensor::stack`], whose per-image
/// slabs are contiguous (see [`Tensor::image`]). Rank-1 tensors (e.g.
/// the 4-vector of box outputs) are shaped `[n]`; batched network
/// outputs are rank-2 `[N, n]` with one row per image.
///
/// # Example
///
/// ```
/// use codesign_nn::Tensor;
///
/// let mut t = Tensor::zeros(&[2, 3, 4]);
/// *t.at_mut(1, 2, 3) = 5.0;
/// assert_eq!(t.at(1, 2, 3), 5.0);
/// assert_eq!(t.len(), 24);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(
            !shape.is_empty() && shape.iter().all(|&d| d > 0),
            "invalid tensor shape {shape:?}"
        );
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let mut t = Self::zeros(shape);
        t.data.fill(value);
        t
    }

    /// Builds a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` disagrees with the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} does not match data length {}",
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Stacks rank-3 `C x H x W` images into one rank-4 `N x C x H x W`
    /// batch tensor.
    ///
    /// # Panics
    ///
    /// Panics when `images` is empty, an image is not rank 3, or the
    /// shapes disagree.
    pub fn stack(images: &[Tensor]) -> Tensor {
        assert!(!images.is_empty(), "cannot stack an empty batch");
        let first = images[0].shape();
        assert_eq!(first.len(), 3, "stack() needs CxHxW images");
        let mut data = Vec::with_capacity(images.len() * images[0].len());
        for img in images {
            assert_eq!(img.shape(), first, "stack() needs uniform image shapes");
            data.extend_from_slice(img.data());
        }
        Tensor::from_vec(&[images.len(), first[0], first[1], first[2]], data)
    }

    /// Splits a rank-4 batch back into rank-3 images (the inverse of
    /// [`Tensor::stack`]).
    ///
    /// # Panics
    ///
    /// Panics for tensors that are not rank 4.
    pub fn unstack(&self) -> Vec<Tensor> {
        assert_eq!(self.shape.len(), 4, "unstack() needs an NxCxHxW tensor");
        let shape3 = [self.shape[1], self.shape[2], self.shape[3]];
        (0..self.batch())
            .map(|n| Tensor::from_vec(&shape3, self.image(n).to_vec()))
            .collect()
    }

    /// Leading-axis length: the batch size of a rank-2 or rank-4 tensor.
    ///
    /// # Panics
    ///
    /// Panics for rank-1 / rank-3 (single-image) tensors.
    pub fn batch(&self) -> usize {
        assert!(
            self.shape.len() == 2 || self.shape.len() == 4,
            "batch() needs an NxCxHxW or Nxm tensor, got {:?}",
            self.shape
        );
        self.shape[0]
    }

    /// Contiguous slice of one leading-axis element: image `n` of a
    /// rank-4 batch (a `C*H*W` slab) or row `n` of a rank-2 output.
    ///
    /// # Panics
    ///
    /// Panics for rank-1 / rank-3 (single-image) tensors, like
    /// [`Tensor::batch`] — a lone image must be [`Tensor::stack`]ed
    /// before the batch slab API applies.
    pub fn image(&self, n: usize) -> &[f32] {
        let stride = self.image_len();
        &self.data[n * stride..(n + 1) * stride]
    }

    /// Element count of one leading-axis slab (`len / batch`).
    ///
    /// # Panics
    ///
    /// Panics for rank-1 / rank-3 (single-image) tensors.
    pub fn image_len(&self) -> usize {
        self.data.len() / self.batch()
    }

    /// Shape of one `C x H x W` image or an `N x C x H x W` batch as
    /// `(n, c, h, w)`, an image read as a batch of one: the layer ops
    /// run the same code at either rank.
    ///
    /// # Panics
    ///
    /// Panics for tensors that are neither rank 3 nor rank 4.
    pub(crate) fn dims(&self) -> (usize, usize, usize, usize) {
        match self.shape[..] {
            [c, h, w] => (1, c, h, w),
            [n, c, h, w] => (n, c, h, w),
            ref s => panic!("layer ops need a CxHxW or NxCxHxW tensor, got {s:?}"),
        }
    }

    /// Channel count for a rank-3 tensor.
    ///
    /// # Panics
    ///
    /// Panics for tensors that are not rank 3.
    pub fn channels(&self) -> usize {
        assert_eq!(self.shape.len(), 3, "channels() needs a CxHxW tensor");
        self.shape[0]
    }

    /// Height for a rank-3 tensor.
    pub fn height(&self) -> usize {
        assert_eq!(self.shape.len(), 3, "height() needs a CxHxW tensor");
        self.shape[1]
    }

    /// Width for a rank-3 tensor.
    pub fn width(&self) -> usize {
        assert_eq!(self.shape.len(), 3, "width() needs a CxHxW tensor");
        self.shape[2]
    }

    #[inline]
    fn index3(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 3);
        (c * self.shape[1] + y) * self.shape[2] + x
    }

    /// Element access for rank-3 tensors.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices in debug builds.
    #[inline]
    pub fn at(&self, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.index3(c, y, x)]
    }

    /// Mutable element access for rank-3 tensors.
    #[inline]
    pub fn at_mut(&mut self, c: usize, y: usize, x: usize) -> &mut f32 {
        let i = self.index3(c, y, x);
        &mut self.data[i]
    }

    /// Largest absolute value, or 0 for an all-zero tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// In-place element-wise addition of `other` scaled by `alpha`.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_scaled");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `factor`.
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tensor{:?} (mean {:.4})", self.shape, self.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_indexing() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        *t.at_mut(1, 2, 3) = 7.0;
        assert_eq!(t.at(1, 2, 3), 7.0);
        assert_eq!(t.at(0, 0, 0), 0.0);
        assert_eq!(t.channels(), 2);
        assert_eq!(t.height(), 3);
        assert_eq!(t.width(), 4);
    }

    #[test]
    #[should_panic(expected = "invalid tensor shape")]
    fn zero_dim_rejected() {
        let _ = Tensor::zeros(&[2, 0, 4]);
    }

    #[test]
    #[should_panic(expected = "does not match data length")]
    fn from_vec_checks_length() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 5]);
    }

    #[test]
    fn stack_and_unstack_round_trip() {
        let a = Tensor::full(&[2, 3, 4], 1.0);
        let mut b = Tensor::full(&[2, 3, 4], 2.0);
        *b.at_mut(1, 2, 3) = -5.0;
        let batch = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(batch.shape(), &[2, 2, 3, 4]);
        assert_eq!(batch.batch(), 2);
        assert_eq!(batch.image_len(), 24);
        assert_eq!(batch.image(0), a.data());
        assert_eq!(batch.image(1), b.data());
        assert_eq!(batch.unstack(), vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "uniform image shapes")]
    fn stack_rejects_mixed_shapes() {
        let _ = Tensor::stack(&[Tensor::zeros(&[1, 2, 2]), Tensor::zeros(&[1, 2, 3])]);
    }

    #[test]
    fn rank2_rows_via_image() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.batch(), 2);
        assert_eq!(t.image(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::full(&[4], 1.0);
        let b = Tensor::full(&[4], 2.0);
        a.add_scaled(&b, 0.5);
        assert!(a.data().iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn max_abs_and_mean() {
        let t = Tensor::from_vec(&[4], vec![-3.0, 1.0, 2.0, 0.0]);
        assert_eq!(t.max_abs(), 3.0);
        assert_eq!(t.mean(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_scale_then_mean(v in -10.0f32..10.0, k in -4.0f32..4.0) {
            let mut t = Tensor::full(&[3, 2, 2], v);
            t.scale(k);
            prop_assert!((t.mean() - v * k).abs() < 1e-4);
        }

        #[test]
        fn prop_index_round_trip(c in 0usize..3, y in 0usize..4, x in 0usize..5) {
            let mut t = Tensor::zeros(&[3, 4, 5]);
            *t.at_mut(c, y, x) = 9.0;
            prop_assert_eq!(t.at(c, y, x), 9.0);
            prop_assert_eq!(t.data().iter().filter(|&&v| v == 9.0).count(), 1);
        }
    }
}
