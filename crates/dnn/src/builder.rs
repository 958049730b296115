//! Bottom-up DNN construction from a design point.
//!
//! The builder elaborates a [`DesignPoint`] into a concrete [`Dnn`]
//! following the Bundle-Arch template (paper Fig. 2): a stem convolution
//! brings the 3-channel input image to the base width, the Bundle is
//! replicated `N` times with channel expansion applied at each
//! replication's entry and 2x2 down-sampling at the reserved spots
//! between replications, and a detection head (conv 1x1 to 4 box
//! coordinates + global average pooling) closes the model — the
//! single-object bounding-box task of the DAC-SDC competition.

use crate::dnn::{Dnn, LayerInstance};
use crate::error::DnnError;
use crate::layer::{LayerOp, TensorShape};
use crate::space::DesignPoint;

/// Default network input: native DAC-SDC 640x360 frames (`3 x 360 x
/// 640` in CHW).
pub const DEFAULT_INPUT: TensorShape = TensorShape {
    c: 3,
    h: 360,
    w: 640,
};

/// Number of detection outputs: normalized `(cx, cy, w, h)` of the
/// single object box.
pub const BOX_OUTPUTS: usize = 4;

/// Builds concrete [`Dnn`] models from [`DesignPoint`]s.
///
/// # Example
///
/// ```
/// use codesign_dnn::{bundle, builder::DnnBuilder, space::DesignPoint, TensorShape};
///
/// # fn main() -> Result<(), codesign_dnn::DnnError> {
/// let b = bundle::enumerate_bundles()[12]; // Bundle 13
/// let dnn = DnnBuilder::new()
///     .input(TensorShape::new(3, 96, 192))
///     .build(&DesignPoint::initial(b, 4))?;
/// assert_eq!(dnn.output_shape().c, 4); // (cx, cy, w, h)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DnnBuilder {
    input: TensorShape,
    stem_kernel: usize,
    method1_body: bool,
}

impl Default for DnnBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DnnBuilder {
    /// Creates a builder with the DAC-SDC default input (3x160x320).
    pub fn new() -> Self {
        Self {
            input: DEFAULT_INPUT,
            stem_kernel: 3,
            method1_body: false,
        }
    }

    /// Sets the input image shape.
    pub fn input(mut self, input: TensorShape) -> Self {
        self.input = input;
        self
    }

    /// Switches to *method#1* DNN construction from the coarse-grained
    /// Bundle evaluation (Sec. 5.1.1): a fixed head and tail with a
    /// single Bundle replication in the middle. The design point's `N`,
    /// `X` and `Π` vectors are ignored except for the first entry.
    ///
    /// The default is *method#2*: the Bundle replicated `N` times.
    pub fn method1(mut self, enabled: bool) -> Self {
        self.method1_body = enabled;
        self
    }

    /// A stable fingerprint of the builder configuration (input shape,
    /// stem kernel, construction method), FNV-1a folded. Estimate
    /// caches salt their keys with it so estimators configured for
    /// different input resolutions or construction methods never share
    /// entries.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for v in [
            self.input.c as u64,
            self.input.h as u64,
            self.input.w as u64,
            self.stem_kernel as u64,
            self.method1_body as u64,
        ] {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// Number of Bundle replications the builder's construction method
    /// elaborates for `point`: the point's `N` under *method#2*, a
    /// single replication under *method#1*.
    pub fn body_replications(&self, point: &DesignPoint) -> usize {
        if self.method1_body {
            1
        } else {
            point.replications()
        }
    }

    /// Whether a 2x2 down-sampling layer closes replication `rep`:
    /// the point's `X` vector under *method#2*, between-replication
    /// spots under *method#1*.
    pub fn downsample_at(&self, point: &DesignPoint, rep: usize) -> bool {
        if self.method1_body {
            rep + 1 < self.body_replications(point)
        } else {
            point.downsampling().get(rep).copied().unwrap_or(false)
        }
    }

    /// Elaborates the stem segment — 3 input channels to the base width,
    /// with one fixed 2x2 down-sampling to shed the full-resolution
    /// compute (standard detector practice) — appending its layers to
    /// `layers` and returning the shape entering the first Bundle
    /// replication.
    ///
    /// Together with [`replication`](Self::replication) and
    /// [`head`](Self::head) this exposes the exact per-segment
    /// elaboration that [`build`](Self::build) concatenates, so
    /// incremental consumers (the `codesign-hls` estimate plan) can
    /// re-elaborate only the segments a design-point move touched.
    /// Unlike `build`, the segment methods do **not** validate `point`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] when the input is smaller
    /// than the stem kernel.
    pub fn stem(
        &self,
        point: &DesignPoint,
        layers: &mut Vec<LayerInstance>,
    ) -> Result<TensorShape, DnnError> {
        let mut shape = self.input;
        shape = push(
            layers,
            LayerOp::conv(self.stem_kernel, point.base_channels),
            shape,
            None,
        )?;
        shape = push(layers, LayerOp::BatchNorm, shape, None)?;
        shape = push(layers, LayerOp::activation(point.activation), shape, None)?;
        push(layers, LayerOp::max_pool(2), shape, None)
    }

    /// Elaborates Bundle replication `rep` from the shape its
    /// predecessor produced, appending the replication's layers to
    /// `layers` and returning its output shape. See [`stem`](Self::stem)
    /// for the segment contract.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] when down-sampling has shrunk
    /// the feature map below the Bundle's kernels.
    pub fn replication(
        &self,
        point: &DesignPoint,
        rep: usize,
        input: TensorShape,
        layers: &mut Vec<LayerInstance>,
    ) -> Result<TensorShape, DnnError> {
        let mut shape = input;
        let width = point.channels_at(rep);
        for op in point.bundle.elaborate(width, point.activation) {
            shape = push(layers, op, shape, Some(rep))?;
        }
        // Depth-wise-only bundles cannot widen channels themselves;
        // Bundle-Arch reserves channel-expansion spots between IPs,
        // realized as a pointwise conv when the width must change.
        if shape.c != width {
            shape = push(layers, LayerOp::conv(1, width), shape, Some(rep))?;
            shape = push(
                layers,
                LayerOp::activation(point.activation),
                shape,
                Some(rep),
            )?;
        }
        if self.downsample_at(point, rep) {
            shape = push(layers, LayerOp::max_pool(2), shape, Some(rep))?;
        }
        Ok(shape)
    }

    /// Elaborates the detection head — 1x1 conv to 4 box outputs plus
    /// global average pooling — from the final replication's output
    /// shape, appending its layers to `layers` and returning the
    /// network's output shape. See [`stem`](Self::stem) for the segment
    /// contract.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] for an empty input shape.
    pub fn head(
        &self,
        input: TensorShape,
        layers: &mut Vec<LayerInstance>,
    ) -> Result<TensorShape, DnnError> {
        let shape = push(layers, LayerOp::conv(1, BOX_OUTPUTS), input, None)?;
        push(layers, LayerOp::GlobalAvgPool, shape, None)
    }

    /// Elaborates `point` into a concrete DNN.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidParameter`] when the point fails
    /// [`DesignPoint::validate`], and [`DnnError::ShapeMismatch`] when
    /// down-sampling shrinks feature maps below the Bundle's kernels.
    pub fn build(&self, point: &DesignPoint) -> Result<Dnn, DnnError> {
        point.validate()?;
        let reps = self.body_replications(point);
        let mut layers = Vec::new();
        let mut shape = self.stem(point, &mut layers)?;
        for rep in 0..reps {
            shape = self.replication(point, rep, shape, &mut layers)?;
        }
        self.head(shape, &mut layers)?;

        let name = format!(
            "{} x{} pf{} {}",
            point.bundle.id(),
            reps,
            point.parallel_factor,
            point.activation
        );
        Ok(Dnn::from_parts(
            name,
            self.input,
            point.quantization(),
            layers,
        ))
    }
}

fn push(
    layers: &mut Vec<LayerInstance>,
    op: LayerOp,
    input: TensorShape,
    bundle_rep: Option<usize>,
) -> Result<TensorShape, DnnError> {
    let output = op.output_shape(input)?;
    layers.push(LayerInstance {
        op,
        input,
        output,
        bundle_rep,
    });
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{bundle_by_id, enumerate_bundles, BundleId};
    use crate::quant::Activation;
    use proptest::prelude::*;

    #[test]
    fn builds_all_18_bundles() {
        for b in enumerate_bundles() {
            let dnn = DnnBuilder::new()
                .build(&DesignPoint::initial(b, 3))
                .unwrap_or_else(|e| panic!("{b}: {e}"));
            assert!(dnn.total_macs() > 0, "{b}");
        }
    }

    #[test]
    fn output_is_box_vector() {
        let b = bundle_by_id(BundleId(13)).unwrap();
        let dnn = DnnBuilder::new()
            .build(&DesignPoint::initial(b, 4))
            .unwrap();
        assert_eq!(dnn.output_shape(), TensorShape::new(BOX_OUTPUTS, 1, 1));
    }

    #[test]
    fn method1_uses_single_replication() {
        let b = bundle_by_id(BundleId(1)).unwrap();
        let point = DesignPoint::initial(b, 4);
        let m1 = DnnBuilder::new().method1(true).build(&point).unwrap();
        let m2 = DnnBuilder::new().build(&point).unwrap();
        assert!(m1.layer_count() < m2.layer_count());
        let reps_in_m1: std::collections::HashSet<_> =
            m1.layers().iter().filter_map(|l| l.bundle_rep).collect();
        assert_eq!(reps_in_m1.len(), 1);
    }

    #[test]
    fn downsampling_shrinks_feature_maps() {
        let b = bundle_by_id(BundleId(1)).unwrap();
        let mut point = DesignPoint::initial(b, 3);
        point.downsample = vec![true, true, false];
        let dnn = DnnBuilder::new().build(&point).unwrap();
        // Input 360x640, stem pool /2 => 180x320, two more /2 => 45x80.
        let last_conv = dnn
            .layers()
            .iter()
            .rev()
            .find(|l| l.op.is_computational())
            .unwrap();
        assert_eq!((last_conv.input.h, last_conv.input.w), (45, 80));
    }

    #[test]
    fn dw_only_bundle_gets_expansion_conv() {
        // Bundle 4 is a bare dw-conv3x3: it cannot widen channels, so the
        // builder must insert pointwise convs at expansion spots.
        let b = bundle_by_id(BundleId(4)).unwrap();
        let mut point = DesignPoint::initial(b, 3);
        point.expansion = vec![1.0, 2.0, 2.0];
        let dnn = DnnBuilder::new().build(&point).unwrap();
        let has_pointwise = dnn
            .layers()
            .iter()
            .any(|l| matches!(l.op, LayerOp::Conv { k: 1, .. }) && l.bundle_rep.is_some());
        assert!(has_pointwise);
        assert!(dnn.max_channels() > point.base_channels);
    }

    #[test]
    fn segments_concatenate_to_build() {
        // The stem / replication / head segment methods are the exact
        // decomposition of build(); incremental estimation relies on it.
        for method1 in [false, true] {
            let builder = DnnBuilder::new().method1(method1);
            let b = bundle_by_id(BundleId(13)).unwrap();
            let point = DesignPoint::initial(b, 4);
            let dnn = builder.build(&point).unwrap();
            let mut layers = Vec::new();
            let mut shape = builder.stem(&point, &mut layers).unwrap();
            for rep in 0..builder.body_replications(&point) {
                let mut rep_layers = Vec::new();
                shape = builder
                    .replication(&point, rep, shape, &mut rep_layers)
                    .unwrap();
                layers.extend(rep_layers);
            }
            builder.head(shape, &mut layers).unwrap();
            assert_eq!(dnn.layers(), &layers[..], "method1={method1}");
        }
    }

    #[test]
    fn too_much_downsampling_is_rejected() {
        let b = bundle_by_id(BundleId(3)).unwrap(); // conv5x5 needs >=5x5 maps
        let mut point = DesignPoint::initial(b, 8);
        point.downsample = vec![true; 8];
        point.expansion = vec![1.0; 8];
        let err = DnnBuilder::new()
            .input(TensorShape::new(3, 64, 64))
            .build(&point)
            .unwrap_err();
        assert!(matches!(err, DnnError::ShapeMismatch { .. }));
    }

    #[test]
    fn invalid_point_is_rejected() {
        let b = bundle_by_id(BundleId(1)).unwrap();
        let mut point = DesignPoint::initial(b, 3);
        point.parallel_factor = 7;
        assert!(DnnBuilder::new().build(&point).is_err());
    }

    #[test]
    fn quantization_follows_activation() {
        let b = bundle_by_id(BundleId(13)).unwrap();
        let mut point = DesignPoint::initial(b, 2);
        point.activation = Activation::Relu4;
        let dnn = DnnBuilder::new().build(&point).unwrap();
        assert_eq!(dnn.quantization(), crate::quant::Quantization::Int8);
    }

    #[test]
    fn more_replications_mean_more_macs() {
        let b = bundle_by_id(BundleId(13)).unwrap();
        let small = DnnBuilder::new()
            .build(&DesignPoint::initial(b, 2))
            .unwrap();
        let large = DnnBuilder::new()
            .build(&DesignPoint::initial(b, 5))
            .unwrap();
        assert!(large.total_macs() > small.total_macs());
        assert!(large.total_params() > small.total_params());
    }

    proptest! {
        #[test]
        fn prop_any_valid_point_builds(id in 1usize..=18, reps in 1usize..5,
                                       pf_idx in 0usize..3) {
            let b = bundle_by_id(BundleId(id)).unwrap();
            let mut point = DesignPoint::initial(b, reps);
            point.parallel_factor = crate::space::PARALLEL_FACTORS[pf_idx];
            let dnn = DnnBuilder::new().build(&point);
            prop_assert!(dnn.is_ok());
            let dnn = dnn.unwrap();
            prop_assert_eq!(dnn.output_shape().c, BOX_OUTPUTS);
            // Shapes chain between consecutive layers.
            for w in dnn.layers().windows(2) {
                prop_assert_eq!(w[0].output, w[1].input);
            }
        }

        #[test]
        fn prop_channels_never_exceed_cap(id in 1usize..=18, reps in 1usize..5) {
            let b = bundle_by_id(BundleId(id)).unwrap();
            let mut point = DesignPoint::initial(b, reps);
            point.max_channels = 128;
            let dnn = DnnBuilder::new().build(&point).unwrap();
            prop_assert!(dnn.max_channels() <= 128);
        }
    }
}
