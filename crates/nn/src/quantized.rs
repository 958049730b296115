//! Post-training quantized inference.
//!
//! The accelerator computes in fixed point: int8 feature maps under
//! `Relu4` / `Relu8`, int16 under plain `Relu` (Sec. 5.1.2). This module
//! quantizes a trained [`Network`] per-tensor (symmetric, max-abs
//! scaling) **once** at [`QuantizedNetwork::quantize`] time and offers
//! two execution paths:
//!
//! * [`QuantizedNetwork::forward`] — *fake quantization*: float kernels
//!   over grid-snapped weights, with activations re-snapped to the grid
//!   after every layer. Works for every scheme; this is the historical
//!   output contract and it is preserved bit-for-bit.
//! * [`QuantizedNetwork::forward_int8`] — the real integer engine
//!   (Int8 scheme only): `i8` weight and activation codes end-to-end,
//!   held as integer-valued floats in the image-interleaved layout and
//!   run through the float lane kernels, whose sums over codes are
//!   exact, with one scale-based requantization after every layer (the
//!   private `qengine` program). Deterministic at every SIMD level, and
//!   faster than the fake-quantized float path.
//!
//! Comparing either path with the float output measures the accuracy
//! cost of a quantization scheme — the signal behind the paper's
//! fine-grained Bundle evaluation (Fig. 5).

use crate::engine::Engine;
use crate::lanes::Lanes;
use crate::network::{Network, NnLayer};
use crate::qengine::{self, LaneOp, QOp};
use crate::simd;
use crate::tensor::Tensor;
use codesign_dnn::quant::Quantization;

/// A network executing in simulated fixed-point arithmetic.
///
/// # Example
///
/// ```
/// use codesign_dnn::{bundle, builder::DnnBuilder, space::DesignPoint, TensorShape};
/// use codesign_dnn::quant::Quantization;
/// use codesign_nn::{Network, QuantizedNetwork, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let b = bundle::enumerate_bundles()[0];
/// let dnn = DnnBuilder::new()
///     .input(TensorShape::new(3, 16, 32))
///     .build(&DesignPoint::initial(b, 1))?;
/// let net = Network::from_dnn(&dnn, 11)?;
/// let qnet = QuantizedNetwork::quantize(&net, Quantization::Int8);
/// let out = qnet.forward(&Tensor::full(&[3, 16, 32], 0.5));
/// let out_i8 = qnet.forward_int8(&Tensor::full(&[3, 16, 32], 0.5));
/// assert_eq!(out.shape(), &[4]);
/// assert_eq!(out_i8.shape(), &[4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    /// Weight-snapped float layers (the fake-quantization path);
    /// snapping happens once here, not per forward call.
    layers: Vec<NnLayer>,
    /// The compiled integer program — `Some` exactly for the Int8
    /// scheme.
    int8: Option<Vec<QOp>>,
    scheme: Quantization,
    engine: Engine,
}

impl QuantizedNetwork {
    /// Quantizes a trained network under `scheme`. Weights are snapped
    /// to their per-layer grids here, once; `forward` calls only pay
    /// for inference. The engine is inherited from `net` — override
    /// with [`QuantizedNetwork::with_engine`].
    pub fn quantize(net: &Network, scheme: Quantization) -> Self {
        let act_scale = activation_scale(scheme);
        let layers: Vec<NnLayer> = net
            .layers()
            .iter()
            .map(|layer| {
                let wscale = normalize_scale(layer_max_abs(layer), scheme);
                quantize_layer(layer, wscale, scheme)
            })
            .collect();
        let int8 = (scheme == Quantization::Int8).then(|| {
            net.layers()
                .iter()
                .map(|layer| compile_qop(layer, scheme, act_scale))
                .collect()
        });
        Self {
            layers,
            int8,
            scheme,
            engine: net.engine(),
        }
    }

    /// Replaces the execution engine of the float kernels of
    /// [`QuantizedNetwork::forward`]. Results are byte-identical on every
    /// engine.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The quantization scheme in use.
    pub fn scheme(&self) -> Quantization {
        self.scheme
    }

    /// True when [`QuantizedNetwork::forward_int8`] is available (the
    /// Int8 scheme).
    pub fn has_int8(&self) -> bool {
        self.int8.is_some()
    }

    /// Fake-quantized inference on one `C x H x W` image or an
    /// `N x C x H x W` batch: float kernels on this network's engine
    /// over the pre-snapped weights, activations snapped to the scheme's
    /// grid after every layer — the round-trip error matches what the
    /// fixed-point accelerator accumulates. Like
    /// [`Network::forward`], the input is packed once and every layer
    /// runs on the image-interleaved layout. Output is bit-identical to
    /// the historical per-call-requantizing implementation, and row `i`
    /// of a batch's output to image `i` alone.
    pub fn forward(&self, image: &Tensor) -> Tensor {
        let act_scale = activation_scale(self.scheme);
        let mut x = Lanes::pack(image);
        snap(&mut x, act_scale, self.scheme);
        for layer in &self.layers {
            x = layer.forward(&x, self.engine);
            snap(&mut x, act_scale, self.scheme);
        }
        x.unpack_like(image)
    }

    /// Real integer inference on one `C x H x W` image or an
    /// `N x C x H x W` batch: the input is packed and quantized to `i8`
    /// codes once, every layer runs on codes (the private `qengine`
    /// program), and the final codes are dequantized to `f32`.
    /// Deterministic: byte-identical at every SIMD level, and row `i` of
    /// a batch's output to image `i` alone.
    ///
    /// # Panics
    ///
    /// Panics for schemes other than [`Quantization::Int8`] — int16
    /// feature maps keep the fake-quantized float path (`forward`).
    pub fn forward_int8(&self, image: &Tensor) -> Tensor {
        let prog = self
            .int8
            .as_ref()
            .expect("forward_int8 requires the Int8 scheme; use forward() for Int16");
        let act_scale = activation_scale(self.scheme);
        let mut x = Lanes::pack(image);
        for v in x.data_mut() {
            *v = self.scheme.quantize(*v, act_scale) as f32;
        }
        let mut y = qengine::run(prog, x, simd::active_level());
        for v in y.data_mut() {
            *v = self.scheme.dequantize(*v as i32, act_scale);
        }
        y.unpack_like(image)
    }

    /// Measured inference for accuracy scoring, on an image or a batch:
    /// the real integer engine when the scheme supports it, the
    /// fake-quantized float path otherwise (int16).
    pub fn forward_measured(&self, image: &Tensor) -> Tensor {
        if self.has_int8() {
            self.forward_int8(image)
        } else {
            self.forward(image)
        }
    }

    /// Mean absolute output deviation between the quantized and float
    /// networks over a set of calibration images.
    pub fn deviation_from(&self, float_net: &Network, images: &[Tensor]) -> f32 {
        self.deviation_with(float_net, images, Self::forward)
    }

    /// [`QuantizedNetwork::deviation_from`] for the integer engine:
    /// deviation of `forward_int8` outputs from the float network.
    pub fn int8_deviation_from(&self, float_net: &Network, images: &[Tensor]) -> f32 {
        self.deviation_with(float_net, images, Self::forward_int8)
    }

    fn deviation_with(
        &self,
        float_net: &Network,
        images: &[Tensor],
        forward: impl Fn(&Self, &Tensor) -> Tensor,
    ) -> f32 {
        if images.is_empty() {
            return 0.0;
        }
        // One stacked batch; rows sum in image order, as one image at a
        // time would.
        let batch = Tensor::stack(images);
        let (qf, ff) = (forward(self, &batch), float_net.forward(&batch));
        let mut total = 0.0f32;
        for (a, b) in qf.data().iter().zip(ff.data()) {
            total += (a - b).abs();
        }
        total / qf.len().max(1) as f32
    }
}

/// Largest finite absolute value — the max-abs fold skips NaN and
/// infinity so a single poisoned weight cannot zero (NaN pushed through
/// `quantize` saturates to code 0) or blow up every other weight's
/// grid.
fn max_abs(v: &[f32]) -> f32 {
    v.iter()
        .map(|x| x.abs())
        .filter(|x| x.is_finite())
        .fold(0.0f32, f32::max)
}

/// The tensor whose max-abs sets a layer's weight grid.
fn layer_max_abs(layer: &NnLayer) -> f32 {
    match layer {
        NnLayer::Conv(p) => max_abs(&p.weights),
        NnLayer::DwConv(p) => max_abs(&p.weights),
        NnLayer::ScaleBias(p) => max_abs(&p.scale),
        _ => 1.0,
    }
}

fn normalize_scale(max_abs: f32, scheme: Quantization) -> f32 {
    let (_, hi) = scheme.code_range();
    if max_abs > 0.0 {
        max_abs / hi as f32
    } else {
        // All-zero (or all-non-finite) tensors get a unit grid.
        1.0
    }
}

/// Activation grid: `Relu8`-compatible range [−8, 8] mapped onto the
/// scheme's codes. (The codes below zero are spent on pre-activation
/// values, matching the accelerator's symmetric datapath.)
fn activation_scale(scheme: Quantization) -> f32 {
    let (_, hi) = scheme.code_range();
    8.0 / hi as f32
}

/// Snaps every image's values onto the scheme's grid, in place; lanes
/// past the batch's images are left as they are.
fn snap(x: &mut Lanes, scale: f32, scheme: Quantization) {
    for v in x.images_mut().flatten() {
        let code = scheme.quantize(*v, scale);
        *v = scheme.dequantize(code, scale);
    }
}

fn quantize_vec(v: &[f32], scale: f32, scheme: Quantization) -> Vec<f32> {
    v.iter()
        .map(|&x| scheme.dequantize(scheme.quantize(x, scale), scale))
        .collect()
}

fn quantize_layer(layer: &NnLayer, wscale: f32, scheme: Quantization) -> NnLayer {
    match layer {
        NnLayer::Conv(p) => {
            let mut q = p.clone();
            q.weights = quantize_vec(&p.weights, wscale, scheme);
            q.bias = quantize_vec(&p.bias, wscale, scheme);
            NnLayer::Conv(q)
        }
        NnLayer::DwConv(p) => {
            let mut q = p.clone();
            q.weights = quantize_vec(&p.weights, wscale, scheme);
            q.bias = quantize_vec(&p.bias, wscale, scheme);
            NnLayer::DwConv(q)
        }
        NnLayer::ScaleBias(p) => {
            let mut q = p.clone();
            q.scale = quantize_vec(&p.scale, wscale, scheme);
            q.bias = quantize_vec(&p.bias, wscale, scheme);
            NnLayer::ScaleBias(q)
        }
        other => other.clone(),
    }
}

/// Compiles one float layer into its integer-program step. Weight codes
/// come from the same grid as the snapped float layer, so both paths
/// see identical weight values; biases are grid-snapped then
/// pre-divided by the activation scale (the requantization offset).
fn compile_qop(layer: &NnLayer, scheme: Quantization, act_scale: f32) -> QOp {
    let range = scheme.code_range();
    let offsets = |bias: &[f32], wscale: f32| -> Vec<f32> {
        let inv_as = 1.0 / act_scale;
        quantize_vec(bias, wscale, scheme)
            .iter()
            .map(|b| b * inv_as)
            .collect()
    };
    let conv = |cout: usize, k: usize, depthwise: bool, weights: &[f32], bias: &[f32]| {
        let wscale = normalize_scale(max_abs(weights), scheme);
        let weights = weights
            .iter()
            .map(|&w| scheme.quantize(w, wscale) as f32)
            .collect();
        QOp {
            op: Some(LaneOp::Conv {
                cout,
                k,
                depthwise,
                weights,
            }),
            affine: Some((vec![wscale; cout], offsets(bias, wscale))),
            range,
        }
    };
    let step = |op: Option<LaneOp>, range| QOp {
        op,
        affine: None,
        range,
    };
    match layer {
        NnLayer::Conv(p) => conv(p.out_ch, p.k, false, &p.weights, &p.bias),
        NnLayer::DwConv(p) => conv(p.ch, p.k, true, &p.weights, &p.bias),
        NnLayer::ScaleBias(p) => {
            let wscale = normalize_scale(max_abs(&p.scale), scheme);
            QOp {
                op: None,
                affine: Some((
                    quantize_vec(&p.scale, wscale, scheme),
                    offsets(&p.bias, wscale),
                )),
                range,
            }
        }
        NnLayer::MaxPool(k) => step(Some(LaneOp::MaxPool(*k)), range),
        NnLayer::AvgPool(k) => step(Some(LaneOp::AvgPool(*k)), range),
        // A ReLU is the clamp to [0, the clip value's code].
        NnLayer::Act(a) => {
            let hi = a.clip().map_or(range.1, |c| scheme.quantize(c, act_scale));
            step(None, (0, hi))
        }
        NnLayer::Gap => step(Some(LaneOp::Gap), range),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::builder::DnnBuilder;
    use codesign_dnn::bundle::{bundle_by_id, BundleId};
    use codesign_dnn::space::DesignPoint;
    use codesign_dnn::TensorShape;
    use proptest::prelude::*;

    fn tiny_net() -> Network {
        let b = bundle_by_id(BundleId(1)).unwrap();
        let mut p = DesignPoint::initial(b, 1);
        p.base_channels = 8;
        let dnn = DnnBuilder::new()
            .input(TensorShape::new(3, 8, 16))
            .build(&p)
            .unwrap();
        Network::from_dnn(&dnn, 21).unwrap()
    }

    /// The pre-hoist implementation: re-snap the weights on every call,
    /// exactly as the historical `forward` did. The hoisted version
    /// must reproduce it bit-for-bit.
    fn legacy_forward(net: &Network, scheme: Quantization, image: &Tensor) -> Tensor {
        let act_scale = activation_scale(scheme);
        let mut x = Lanes::pack(image);
        snap(&mut x, act_scale, scheme);
        for layer in net.layers() {
            let wscale = normalize_scale(layer_max_abs(layer), scheme);
            let snapped = quantize_layer(layer, wscale, scheme);
            x = snapped.forward(&x, net.engine());
            snap(&mut x, act_scale, scheme);
        }
        x.unpack(false)
    }

    #[test]
    fn hoisted_forward_preserves_legacy_contract() {
        let net = tiny_net();
        for scheme in [Quantization::Int8, Quantization::Int16] {
            let q = QuantizedNetwork::quantize(&net, scheme);
            for v in [0.0f32, 0.3, 0.9] {
                let img = Tensor::full(&[3, 8, 16], v);
                assert_eq!(
                    q.forward(&img).data(),
                    legacy_forward(&net, scheme, &img).data(),
                    "scheme {scheme} input {v}"
                );
            }
        }
    }

    #[test]
    fn int16_is_closer_to_float_than_int8() {
        let net = tiny_net();
        let images: Vec<Tensor> = (0..4)
            .map(|i| Tensor::full(&[3, 8, 16], 0.1 + 0.2 * i as f32))
            .collect();
        let q8 = QuantizedNetwork::quantize(&net, Quantization::Int8);
        let q16 = QuantizedNetwork::quantize(&net, Quantization::Int16);
        let d8 = q8.deviation_from(&net, &images);
        let d16 = q16.deviation_from(&net, &images);
        assert!(
            d16 <= d8 + 1e-6,
            "int16 deviation {d16} should not exceed int8 deviation {d8}"
        );
    }

    #[test]
    fn quantized_output_shape_matches() {
        let net = tiny_net();
        let q = QuantizedNetwork::quantize(&net, Quantization::Int8);
        let out = q.forward(&Tensor::full(&[3, 8, 16], 0.4));
        assert_eq!(out.shape(), &[4]);
        assert_eq!(q.scheme(), Quantization::Int8);
    }

    #[test]
    fn int8_engine_output_shape_matches() {
        let net = tiny_net();
        let q = QuantizedNetwork::quantize(&net, Quantization::Int8);
        assert!(q.has_int8());
        let out = q.forward_int8(&Tensor::full(&[3, 8, 16], 0.4));
        assert_eq!(out.shape(), &[4]);
    }

    #[test]
    fn int8_engine_tracks_the_float_network() {
        let net = tiny_net();
        let q = QuantizedNetwork::quantize(&net, Quantization::Int8);
        let images: Vec<Tensor> = (0..4)
            .map(|i| Tensor::full(&[3, 8, 16], 0.1 + 0.2 * i as f32))
            .collect();
        let d_fake = q.deviation_from(&net, &images);
        let d_int8 = q.int8_deviation_from(&net, &images);
        // The integer engine accumulates exactly where the fake path
        // rounds at every step, so it should not be meaningfully worse.
        assert!(
            d_int8 <= d_fake * 2.0 + 0.05,
            "int8 deviation {d_int8} far exceeds fake-quant deviation {d_fake}"
        );
    }

    /// A batch of any size — one lane, a partial group, a full group,
    /// a group and one — gives each image's output bits alone.
    #[test]
    fn int8_batch_rows_match_single_images() {
        let net = tiny_net();
        let q = QuantizedNetwork::quantize(&net, Quantization::Int8);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in [1usize, 3, 8, 9] {
            let images: Vec<Tensor> = (0..n)
                .map(|i| {
                    let data = (0..3 * 8 * 16)
                        .map(|j| ((i * 31 + j * 17) % 53) as f32 / 53.0 - 0.2)
                        .collect();
                    Tensor::from_vec(&[3, 8, 16], data)
                })
                .collect();
            let out = q.forward_int8(&Tensor::stack(&images));
            assert_eq!(out.shape(), &[n, 4]);
            for (i, img) in images.iter().enumerate() {
                let row: Vec<u32> = out.image(i).iter().map(|v| v.to_bits()).collect();
                assert_eq!(row, bits(&q.forward_int8(img)), "row {i} of {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires the Int8 scheme")]
    fn int16_rejects_integer_path() {
        let net = tiny_net();
        let q = QuantizedNetwork::quantize(&net, Quantization::Int16);
        assert!(!q.has_int8());
        let _ = q.forward_int8(&Tensor::full(&[3, 8, 16], 0.4));
    }

    #[test]
    fn measured_forward_picks_the_real_engine_when_available() {
        let net = tiny_net();
        let img = Tensor::full(&[3, 8, 16], 0.4);
        let q8 = QuantizedNetwork::quantize(&net, Quantization::Int8);
        assert_eq!(
            q8.forward_measured(&img).data(),
            q8.forward_int8(&img).data()
        );
        let q16 = QuantizedNetwork::quantize(&net, Quantization::Int16);
        assert_eq!(q16.forward_measured(&img).data(), q16.forward(&img).data());
    }

    #[test]
    fn nan_weight_does_not_poison_the_grid() {
        // A single NaN (or infinite) weight must not collapse the whole
        // layer's scale; the finite weights still define the grid.
        let finite = [0.5f32, -2.0, 1.25];
        assert_eq!(max_abs(&finite), 2.0);
        let mut poisoned = finite.to_vec();
        poisoned.push(f32::NAN);
        poisoned.push(f32::INFINITY);
        assert_eq!(max_abs(&poisoned), 2.0, "non-finite values must be skipped");
        let scale = normalize_scale(max_abs(&poisoned), Quantization::Int8);
        assert!(scale.is_finite() && scale > 0.0);
    }

    #[test]
    fn all_nonfinite_weights_fall_back_to_unit_scale() {
        let poisoned = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        assert_eq!(max_abs(&poisoned), 0.0);
        assert_eq!(normalize_scale(0.0, Quantization::Int8), 1.0);
        assert_eq!(normalize_scale(0.0, Quantization::Int16), 1.0);
    }

    #[test]
    fn int16_deviation_is_small() {
        let net = tiny_net();
        let q = QuantizedNetwork::quantize(&net, Quantization::Int16);
        let images = vec![Tensor::full(&[3, 8, 16], 0.5)];
        let d = q.deviation_from(&net, &images);
        assert!(d < 0.05, "int16 deviation too large: {d}");
    }

    #[test]
    fn empty_calibration_set_gives_zero() {
        let net = tiny_net();
        let q = QuantizedNetwork::quantize(&net, Quantization::Int8);
        assert_eq!(q.deviation_from(&net, &[]), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_quantized_forward_is_deterministic(v in 0.0f32..1.0) {
            let net = tiny_net();
            let q = QuantizedNetwork::quantize(&net, Quantization::Int8);
            let img = Tensor::full(&[3, 8, 16], v);
            prop_assert_eq!(q.forward(&img), q.forward(&img));
            prop_assert_eq!(q.forward_int8(&img), q.forward_int8(&img));
        }
    }
}
