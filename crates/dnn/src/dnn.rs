//! Concrete DNN models: an elaborated sequence of layer instances with
//! resolved shapes.

use crate::layer::{LayerOp, TensorShape};
use crate::quant::Quantization;
use std::fmt;

/// One layer of a concrete DNN with resolved input / output shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerInstance {
    /// The operator.
    pub op: LayerOp,
    /// Input activation shape.
    pub input: TensorShape,
    /// Output activation shape.
    pub output: TensorShape,
    /// Index of the Bundle replication this layer belongs to, or `None`
    /// for stem / head layers outside any Bundle.
    pub bundle_rep: Option<usize>,
}

impl LayerInstance {
    /// MACs to evaluate this layer on one image.
    pub fn macs(&self) -> u64 {
        self.op.macs(self.input)
    }

    /// Trainable parameter count.
    pub fn params(&self) -> u64 {
        self.op.params(self.input)
    }

    /// Bytes of the output feature map under quantization `q`.
    pub fn output_bytes(&self, q: Quantization) -> u64 {
        (self.output.elements() * q.bytes()) as u64
    }
}

impl fmt::Display for LayerInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} : {} -> {}", self.op, self.input, self.output)
    }
}

/// A concrete DNN: an ordered list of layer instances from input image
/// to detection output, produced by [`crate::builder::DnnBuilder`].
///
/// # Example
///
/// ```
/// use codesign_dnn::{bundle, builder::DnnBuilder, space::DesignPoint};
///
/// # fn main() -> Result<(), codesign_dnn::DnnError> {
/// let b = bundle::enumerate_bundles()[0];
/// let dnn = DnnBuilder::new().build(&DesignPoint::initial(b, 2))?;
/// println!("{} layers, {} MMACs", dnn.layers().len(), dnn.total_macs() / 1_000_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dnn {
    layers: Vec<LayerInstance>,
    input: TensorShape,
    quantization: Quantization,
    name: String,
}

impl Dnn {
    /// Assembles a DNN from its parts. Intended for use by the builder;
    /// shapes are assumed to chain correctly.
    pub(crate) fn from_parts(
        name: String,
        input: TensorShape,
        quantization: Quantization,
        layers: Vec<LayerInstance>,
    ) -> Self {
        debug_assert!(layers.windows(2).all(|w| w[0].output == w[1].input));
        Self {
            layers,
            input,
            quantization,
            name,
        }
    }

    /// Human-readable model name (e.g. `"bundle-13 x4"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input image shape.
    pub fn input_shape(&self) -> TensorShape {
        self.input
    }

    /// Output shape of the final layer.
    pub fn output_shape(&self) -> TensorShape {
        self.layers.last().map(|l| l.output).unwrap_or(self.input)
    }

    /// Quantization scheme of weights and feature maps.
    pub fn quantization(&self) -> Quantization {
        self.quantization
    }

    /// The layer instances in execution order.
    pub fn layers(&self) -> &[LayerInstance] {
        &self.layers
    }

    /// Total number of layers `L` (Table 1).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Total MACs for one image.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerInstance::macs).sum()
    }

    /// Total trainable parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(LayerInstance::params).sum()
    }

    /// Total weight bytes under the model's quantization scheme.
    pub fn weight_bytes(&self) -> u64 {
        self.total_params() * self.quantization.bytes() as u64
    }

    /// Largest intermediate feature map in bytes — the quantity that
    /// must fit (tiled) in on-chip BRAM.
    pub fn peak_activation_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.output_bytes(self.quantization))
            .max()
            .unwrap_or(0)
    }

    /// Widest channel count anywhere in the model.
    pub fn max_channels(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.output.c.max(l.input.c))
            .max()
            .unwrap_or(self.input.c)
    }
}

impl fmt::Display for Dnn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({} layers, {:.1} MMAC, {:.1} KB weights, {})",
            self.name,
            self.layer_count(),
            self.total_macs() as f64 / 1e6,
            self.weight_bytes() as f64 / 1024.0,
            self.quantization
        )?;
        for layer in &self.layers {
            writeln!(f, "  {layer}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DnnBuilder;
    use crate::bundle::{bundle_by_id, BundleId};
    use crate::space::DesignPoint;

    fn sample_dnn() -> Dnn {
        let b = bundle_by_id(BundleId(13)).unwrap();
        DnnBuilder::new()
            .build(&DesignPoint::initial(b, 3))
            .unwrap()
    }

    #[test]
    fn shapes_chain() {
        let dnn = sample_dnn();
        for w in dnn.layers().windows(2) {
            assert_eq!(w[0].output, w[1].input);
        }
    }

    #[test]
    fn totals_are_positive() {
        let dnn = sample_dnn();
        assert!(dnn.total_macs() > 0);
        assert!(dnn.total_params() > 0);
        assert!(dnn.peak_activation_bytes() > 0);
    }

    #[test]
    fn weight_bytes_respect_quantization() {
        let dnn = sample_dnn();
        assert_eq!(
            dnn.weight_bytes(),
            dnn.total_params() * dnn.quantization().bytes() as u64
        );
    }

    #[test]
    fn display_lists_every_layer() {
        let dnn = sample_dnn();
        let text = dnn.to_string();
        assert_eq!(
            text.lines().count(),
            dnn.layer_count() + 1,
            "one header line plus one line per layer"
        );
    }
}
