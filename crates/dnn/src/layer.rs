//! DNN layer operators and shape algebra.
//!
//! Each operator corresponds to a configurable hardware IP template from
//! the paper's IP pool (Sec. 4.2): standard convolution 1x1 / 3x3 / 5x5,
//! depth-wise convolution 3x3 / 5x5 / 7x7, max / average pooling,
//! normalization and activation.

use crate::error::DnnError;
use crate::quant::Activation;
use std::fmt;

/// Shape of an activation tensor in `C x H x W` layout (one image).
///
/// # Example
///
/// ```
/// use codesign_dnn::TensorShape;
///
/// let s = TensorShape::new(32, 80, 160);
/// assert_eq!(s.elements(), 32 * 80 * 160);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorShape {
    /// Number of channels.
    pub c: usize,
    /// Spatial height.
    pub h: usize,
    /// Spatial width.
    pub w: usize,
}

impl TensorShape {
    /// Creates a shape from channels, height and width.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Self { c, h, w }
    }

    /// Total number of elements (`c * h * w`).
    pub fn elements(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Number of spatial positions (`h * w`).
    pub fn pixels(&self) -> usize {
        self.h * self.w
    }

    /// Returns this shape with a different channel count.
    pub fn with_channels(self, c: usize) -> Self {
        Self { c, ..self }
    }

    /// Returns this shape spatially down-sampled by `factor` in both
    /// dimensions (floor division, matching stride-`factor` pooling).
    pub fn downsampled(self, factor: usize) -> Self {
        Self {
            c: self.c,
            h: self.h / factor,
            w: self.w / factor,
        }
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.c, self.h, self.w)
    }
}

/// Pooling flavor for the pooling IP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum pooling.
    Max,
    /// Average pooling.
    Avg,
}

impl fmt::Display for PoolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolKind::Max => write!(f, "max"),
            PoolKind::Avg => write!(f, "avg"),
        }
    }
}

/// A DNN layer operator, i.e. one use of a hardware IP template.
///
/// Spatial operators use "same" padding (output spatial size equals input
/// spatial size) except pooling, which divides the spatial size by its
/// stride. This matches the Tile-Arch accelerator, which keeps a common
/// tile size across layers (Sec. 4.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LayerOp {
    /// Standard convolution with square kernel `k`, producing
    /// `out_channels` output channels, stride 1, same padding.
    Conv {
        /// Kernel size (1, 3 or 5 in the paper's IP pool).
        k: usize,
        /// Number of output channels.
        out_channels: usize,
    },
    /// Depth-wise convolution with square kernel `k`; channel count is
    /// preserved, stride 1, same padding.
    DwConv {
        /// Kernel size (3, 5 or 7 in the paper's IP pool).
        k: usize,
    },
    /// Pooling with window `k` and stride `k` (non-overlapping).
    Pool {
        /// Pooling flavor.
        kind: PoolKind,
        /// Window and stride.
        k: usize,
    },
    /// Batch normalization (folded into a scale + bias at inference).
    BatchNorm,
    /// Activation function. The choice also fixes the feature-map
    /// quantization (see [`crate::quant`]).
    Activation {
        /// Activation function.
        act: Activation,
    },
    /// Global average pooling over the full spatial extent; reduces
    /// `CxHxW` to `Cx1x1`. Used by the detection head.
    GlobalAvgPool,
}

impl LayerOp {
    /// Convenience constructor for a standard convolution.
    pub fn conv(k: usize, out_channels: usize) -> Self {
        LayerOp::Conv { k, out_channels }
    }

    /// Convenience constructor for a depth-wise convolution.
    pub fn dw_conv(k: usize) -> Self {
        LayerOp::DwConv { k }
    }

    /// Convenience constructor for a max pooling layer.
    pub fn max_pool(k: usize) -> Self {
        LayerOp::Pool {
            kind: PoolKind::Max,
            k,
        }
    }

    /// Convenience constructor for an activation layer.
    pub fn activation(act: Activation) -> Self {
        LayerOp::Activation { act }
    }

    /// True for operators that consume DSP multipliers on the FPGA
    /// (convolutions); pooling / norm / activation are LUT-only IPs.
    pub fn is_computational(&self) -> bool {
        matches!(self, LayerOp::Conv { .. } | LayerOp::DwConv { .. })
    }

    /// Infers the output shape for an input of shape `input`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] when the operator cannot be
    /// applied: kernel larger than the feature map, pooling that does not
    /// divide the spatial size, or zero-sized inputs.
    pub fn output_shape(&self, input: TensorShape) -> Result<TensorShape, DnnError> {
        if input.c == 0 || input.h == 0 || input.w == 0 {
            return Err(DnnError::ShapeMismatch {
                op: self.to_string(),
                reason: format!("zero-sized input {input}"),
            });
        }
        match *self {
            LayerOp::Conv { k, out_channels } => {
                if k > input.h || k > input.w {
                    return Err(DnnError::ShapeMismatch {
                        op: self.to_string(),
                        reason: format!("kernel {k} exceeds feature map {input}"),
                    });
                }
                if out_channels == 0 {
                    return Err(DnnError::ShapeMismatch {
                        op: self.to_string(),
                        reason: "zero output channels".into(),
                    });
                }
                Ok(input.with_channels(out_channels))
            }
            LayerOp::DwConv { k } => {
                if k > input.h || k > input.w {
                    return Err(DnnError::ShapeMismatch {
                        op: self.to_string(),
                        reason: format!("kernel {k} exceeds feature map {input}"),
                    });
                }
                Ok(input)
            }
            LayerOp::Pool { k, .. } => {
                if k == 0 || input.h < k || input.w < k {
                    return Err(DnnError::ShapeMismatch {
                        op: self.to_string(),
                        reason: format!("pool window {k} exceeds feature map {input}"),
                    });
                }
                Ok(TensorShape::new(input.c, input.h / k, input.w / k))
            }
            LayerOp::BatchNorm | LayerOp::Activation { .. } => Ok(input),
            LayerOp::GlobalAvgPool => Ok(TensorShape::new(input.c, 1, 1)),
        }
    }

    /// Number of multiply-accumulate operations to evaluate this layer
    /// on an input of shape `input` (one image).
    ///
    /// Pooling, normalization and activation are counted as zero MACs:
    /// on the accelerator they are LUT-implemented element-wise IPs whose
    /// cost is modeled separately.
    pub fn macs(&self, input: TensorShape) -> u64 {
        match *self {
            LayerOp::Conv { k, out_channels } => {
                (k * k * input.c * out_channels) as u64 * input.pixels() as u64
            }
            LayerOp::DwConv { k } => (k * k * input.c) as u64 * input.pixels() as u64,
            _ => 0,
        }
    }

    /// Number of trainable weight parameters of this layer for an input
    /// of shape `input` (biases included for convolutions, scale + bias
    /// for batch norm).
    pub fn params(&self, input: TensorShape) -> u64 {
        match *self {
            LayerOp::Conv { k, out_channels } => {
                (k * k * input.c * out_channels + out_channels) as u64
            }
            LayerOp::DwConv { k } => (k * k * input.c + input.c) as u64,
            LayerOp::BatchNorm => (2 * input.c) as u64,
            _ => 0,
        }
    }
}

impl fmt::Display for LayerOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LayerOp::Conv { k, out_channels } => write!(f, "conv{k}x{k}({out_channels})"),
            LayerOp::DwConv { k } => write!(f, "dw-conv{k}x{k}"),
            LayerOp::Pool { kind, k } => write!(f, "{kind}-pool{k}x{k}"),
            LayerOp::BatchNorm => write!(f, "batchnorm"),
            LayerOp::Activation { act } => write!(f, "{act}"),
            LayerOp::GlobalAvgPool => write!(f, "global-avg-pool"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::Activation;
    use proptest::prelude::*;

    #[test]
    fn conv_preserves_spatial_size() {
        let s = TensorShape::new(3, 80, 160);
        let out = LayerOp::conv(3, 16).output_shape(s).unwrap();
        assert_eq!(out, TensorShape::new(16, 80, 160));
    }

    #[test]
    fn dwconv_preserves_shape() {
        let s = TensorShape::new(24, 40, 80);
        let out = LayerOp::dw_conv(3).output_shape(s).unwrap();
        assert_eq!(out, s);
    }

    #[test]
    fn pool_halves_spatial_size() {
        let s = TensorShape::new(16, 80, 160);
        let out = LayerOp::max_pool(2).output_shape(s).unwrap();
        assert_eq!(out, TensorShape::new(16, 40, 80));
    }

    #[test]
    fn global_pool_collapses_spatial_dims() {
        let s = TensorShape::new(4, 10, 20);
        let out = LayerOp::GlobalAvgPool.output_shape(s).unwrap();
        assert_eq!(out, TensorShape::new(4, 1, 1));
    }

    #[test]
    fn oversized_kernel_is_rejected() {
        let s = TensorShape::new(3, 2, 2);
        assert!(LayerOp::conv(5, 8).output_shape(s).is_err());
        assert!(LayerOp::dw_conv(7).output_shape(s).is_err());
    }

    #[test]
    fn zero_input_is_rejected() {
        let s = TensorShape::new(0, 8, 8);
        assert!(LayerOp::conv(1, 8).output_shape(s).is_err());
    }

    #[test]
    fn zero_out_channels_rejected() {
        let s = TensorShape::new(3, 8, 8);
        assert!(LayerOp::conv(1, 0).output_shape(s).is_err());
    }

    #[test]
    fn conv_mac_count_matches_formula() {
        let s = TensorShape::new(8, 10, 10);
        // 3*3*8*16 MACs per pixel, 100 pixels.
        assert_eq!(LayerOp::conv(3, 16).macs(s), 3 * 3 * 8 * 16 * 100);
    }

    #[test]
    fn dwconv_macs_are_cheaper_than_conv() {
        let s = TensorShape::new(32, 20, 20);
        assert!(LayerOp::dw_conv(3).macs(s) < LayerOp::conv(3, 32).macs(s));
    }

    #[test]
    fn elementwise_ops_have_zero_macs() {
        let s = TensorShape::new(8, 8, 8);
        assert_eq!(LayerOp::BatchNorm.macs(s), 0);
        assert_eq!(LayerOp::activation(Activation::Relu).macs(s), 0);
        assert_eq!(LayerOp::max_pool(2).macs(s), 0);
    }

    #[test]
    fn param_counts() {
        let s = TensorShape::new(8, 8, 8);
        assert_eq!(LayerOp::conv(1, 4).params(s), 8 * 4 + 4);
        assert_eq!(LayerOp::dw_conv(3).params(s), 9 * 8 + 8);
        assert_eq!(LayerOp::BatchNorm.params(s), 16);
        assert_eq!(LayerOp::GlobalAvgPool.params(s), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(LayerOp::conv(3, 64).to_string(), "conv3x3(64)");
        assert_eq!(LayerOp::dw_conv(5).to_string(), "dw-conv5x5");
        assert_eq!(LayerOp::max_pool(2).to_string(), "max-pool2x2");
    }

    #[test]
    fn computational_classification() {
        assert!(LayerOp::conv(1, 8).is_computational());
        assert!(LayerOp::dw_conv(3).is_computational());
        assert!(!LayerOp::max_pool(2).is_computational());
        assert!(!LayerOp::BatchNorm.is_computational());
    }

    proptest! {
        #[test]
        fn prop_conv_output_channels(c in 1usize..64, h in 5usize..64, w in 5usize..64,
                                     oc in 1usize..128) {
            let out = LayerOp::conv(3, oc)
                .output_shape(TensorShape::new(c, h, w))
                .unwrap();
            prop_assert_eq!(out.c, oc);
            prop_assert_eq!(out.h, h);
            prop_assert_eq!(out.w, w);
        }

        #[test]
        fn prop_pool_never_grows(c in 1usize..64, h in 2usize..64, w in 2usize..64) {
            let s = TensorShape::new(c, h, w);
            let out = LayerOp::max_pool(2).output_shape(s).unwrap();
            prop_assert!(out.h <= h && out.w <= w);
            prop_assert_eq!(out.c, c);
        }

        #[test]
        fn prop_macs_scale_with_pixels(c in 1usize..16, h in 4usize..32, w in 4usize..32) {
            let s1 = TensorShape::new(c, h, w);
            let s2 = TensorShape::new(c, 2 * h, w);
            let op = LayerOp::conv(3, 8);
            prop_assert_eq!(op.macs(s2), 2 * op.macs(s1));
        }

        #[test]
        fn prop_downsampled_shape(c in 1usize..8, h in 4usize..64, w in 4usize..64) {
            let s = TensorShape::new(c, h, w).downsampled(2);
            prop_assert_eq!(s.h, h / 2);
            prop_assert_eq!(s.w, w / 2);
        }
    }
}
