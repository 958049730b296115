//! Executable, trainable networks compiled from the co-design DNN IR.
//!
//! A network runs in **Bundle stages**, the software form of the
//! paper's pipelined IP chain (conv → BN → activation → pool). A stage
//! is a convolution or depth-wise convolution plus the scale-bias,
//! activation and max pooling that follow it in the IR, in that order;
//! each is optional, and any other layer (average pooling, GAP, an op
//! that follows no convolution) is a stage of its own. The stages are
//! grouped once, when the network is compiled.
//!
//! Forward, a stage is one lane pass: the convolution writes its output
//! row band by row band, and the stage's [`Epilogue`] turns each band
//! into the stage output while it is still in L1. A stage writes two
//! tensors, its convolution output and its output. Backward, one pass
//! per stage recomputes the scale-bias and the activation mask from the
//! cached convolution output, reads each pool window's maximum from the
//! stage output (the next stage's cached input), and turns the stage
//! output's gradient into the convolution output's and its sum, which
//! the convolution's backward pass takes as its gradient and its bias
//! gradient. Every bit is the one the layers
//! give run one by one: the epilogue and the standalone layers share
//! their per-element arithmetic and its order (see [`crate::layers`]).

use crate::engine::{
    conv_backward_lanes, conv_forward_lanes, dwconv_backward_lanes, dwconv_forward_lanes, Engine,
};
pub use crate::lanes::Lanes;
use crate::layers::{
    avgpool_backward_lanes, avgpool_lanes, epilogue_backward_lanes, epilogue_lanes,
    gap_backward_lanes, gap_lanes, ConvParams, DwConvParams, Epilogue, ScaleBiasParams,
};
use crate::tensor::Tensor;
use codesign_dnn::layer::{LayerOp, PoolKind};
use codesign_dnn::quant::Activation;
use codesign_dnn::Dnn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::ops::Range;

/// Errors from compiling a DNN into an executable network.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NnError {
    /// The DNN contains an operator the runtime cannot execute.
    UnsupportedOp {
        /// Display form of the operator.
        op: String,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::UnsupportedOp { op } => write!(f, "unsupported operator {op}"),
        }
    }
}

impl std::error::Error for NnError {}

/// One executable layer with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum NnLayer {
    /// Standard convolution.
    Conv(ConvParams),
    /// Depth-wise convolution.
    DwConv(DwConvParams),
    /// Max pooling with window / stride `k`.
    MaxPool(usize),
    /// Average pooling with window / stride `k`.
    AvgPool(usize),
    /// Folded batch-norm.
    ScaleBias(ScaleBiasParams),
    /// Activation.
    Act(Activation),
    /// Global average pooling.
    Gap,
}

impl NnLayer {
    /// Runs the layer on a packed batch on `engine`.
    pub(crate) fn forward(&self, x: &Lanes, engine: Engine) -> Lanes {
        let none = Epilogue::default();
        match self {
            NnLayer::Conv(p) => conv_forward_lanes(x, p, &none, engine).0,
            NnLayer::DwConv(p) => dwconv_forward_lanes(x, p, &none, engine).0,
            NnLayer::AvgPool(k) => avgpool_lanes(x, *k),
            NnLayer::Gap => gap_lanes(x),
            op => epilogue_lanes(x, &epilogue_of(std::slice::from_ref(op))),
        }
    }
}

/// The epilogue of `ops`: scale-bias, activation and max-pool layers.
fn epilogue_of(ops: &[NnLayer]) -> Epilogue<'_> {
    let mut e = Epilogue::default();
    for op in ops {
        match op {
            NnLayer::ScaleBias(p) => e.scale_bias = Some(p),
            NnLayer::Act(a) => e.act = Some(*a),
            NnLayer::MaxPool(k) => e.pool = Some(*k),
            _ => unreachable!("{op:?} is no epilogue op"),
        }
    }
    e
}

/// Groups `layers` into stages: each convolution with the scale-bias,
/// activation and max pool after it, in that order; other layers alone.
fn stages(layers: &[NnLayer]) -> Vec<Range<usize>> {
    let mut stages = Vec::new();
    let mut start = 0;
    while start < layers.len() {
        let mut end = start + 1;
        if matches!(layers[start], NnLayer::Conv(_) | NnLayer::DwConv(_)) {
            let order: [fn(&NnLayer) -> bool; 3] = [
                |l| matches!(l, NnLayer::ScaleBias(_)),
                |l| matches!(l, NnLayer::Act(_)),
                |l| matches!(l, NnLayer::MaxPool(_)),
            ];
            for next in order {
                end += usize::from(layers.get(end).is_some_and(next));
            }
        }
        stages.push(start..end);
        start = end;
    }
    stages
}

/// Gradient and momentum buffers of one layer (empty for parameter-free
/// layers).
#[derive(Debug, Clone, Default)]
struct LayerState {
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    mom_w: Vec<f32>,
    mom_b: Vec<f32>,
}

/// An executable, trainable network.
///
/// # Example
///
/// ```
/// use codesign_dnn::{bundle, builder::DnnBuilder, space::DesignPoint, TensorShape};
/// use codesign_nn::{Network, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let b = bundle::enumerate_bundles()[0];
/// let dnn = DnnBuilder::new()
///     .input(TensorShape::new(3, 16, 32))
///     .build(&DesignPoint::initial(b, 1))?;
/// let mut net = Network::from_dnn(&dnn, 7)?;
/// let out = net.forward(&Tensor::zeros(&[3, 16, 32]));
/// assert_eq!(out.shape(), &[4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<NnLayer>,
    /// The layers of each stage, grouped once (see the module docs).
    stages: Vec<Range<usize>>,
    state: Vec<LayerState>,
    input_shape: [usize; 3],
    engine: Engine,
}

impl Network {
    /// Compiles `dnn` into an executable network with He-uniform weight
    /// initialization seeded by `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnsupportedOp`] for operators outside the
    /// runtime's layer zoo.
    pub fn from_dnn(dnn: &Dnn, seed: u64) -> Result<Self, NnError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(dnn.layer_count());
        for inst in dnn.layers() {
            let layer = match inst.op {
                LayerOp::Conv { k, out_channels } => {
                    let mut p = ConvParams::zeros(k, inst.input.c, out_channels);
                    he_init(&mut p.weights, k * k * inst.input.c, &mut rng);
                    NnLayer::Conv(p)
                }
                LayerOp::DwConv { k } => {
                    let mut p = DwConvParams::zeros(k, inst.input.c);
                    he_init(&mut p.weights, k * k, &mut rng);
                    NnLayer::DwConv(p)
                }
                LayerOp::Pool {
                    kind: PoolKind::Max,
                    k,
                } => NnLayer::MaxPool(k),
                LayerOp::Pool {
                    kind: PoolKind::Avg,
                    k,
                } => NnLayer::AvgPool(k),
                LayerOp::BatchNorm => NnLayer::ScaleBias(ScaleBiasParams::identity(inst.input.c)),
                LayerOp::Activation { act } => NnLayer::Act(act),
                LayerOp::GlobalAvgPool => NnLayer::Gap,
                ref other => {
                    return Err(NnError::UnsupportedOp {
                        op: other.to_string(),
                    })
                }
            };
            layers.push(layer);
        }
        let state = layers.iter().map(|_| LayerState::default()).collect();
        let s = dnn.input_shape();
        Ok(Self {
            stages: stages(&layers),
            layers,
            state,
            input_shape: [s.c, s.h, s.w],
            engine: Engine::default(),
        })
    }

    /// The expected input shape `[c, h, w]`.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }

    /// The convolution compute engine in use.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Selects the convolution compute engine. The engine changes *how*
    /// convolutions execute, never *what* they compute: results are
    /// bit-identical across engines.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The executable layers.
    pub fn layers(&self) -> &[NnLayer] {
        &self.layers
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                NnLayer::Conv(p) => p.weights.len() + p.bias.len(),
                NnLayer::DwConv(p) => p.weights.len() + p.bias.len(),
                NnLayer::ScaleBias(p) => p.scale.len() + p.bias.len(),
                _ => 0,
            })
            .sum()
    }

    /// Inference on one `C x H x W` image or an `N x C x H x W` batch
    /// (see [`Tensor::stack`]): an image gives one output vector, a
    /// batch one output row per image. Row `i` of a batch's output is
    /// bit-identical to the output of image `i` alone. The input is
    /// packed once and every stage runs on the image-interleaved layout
    /// of [`Lanes`].
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.run(Lanes::pack(x), None).unpack_like(x)
    }

    /// Training forward pass over an image or a batch: the stage pass of
    /// [`Network::forward`], plus the cache [`Network::backward`] reads,
    /// one slot per layer: each stage's input, then its convolution
    /// output when it has an epilogue, the other slots empty.
    pub fn forward_train(&self, x: &Tensor) -> (Tensor, Vec<Lanes>) {
        let (out, cache) = self.forward_train_lanes(Lanes::pack(x));
        (out.unpack_like(x), cache)
    }

    /// [`Network::forward_train`] on a packed batch.
    pub(crate) fn forward_train_lanes(&self, x: Lanes) -> (Lanes, Vec<Lanes>) {
        let mut cache = Vec::with_capacity(self.layers.len());
        let out = self.run(x, Some(&mut cache));
        (out, cache)
    }

    /// Runs every stage on a packed batch, filling `cache` when given.
    fn run(&self, mut x: Lanes, mut cache: Option<&mut Vec<Lanes>>) -> Lanes {
        for stage in &self.stages {
            let tail = &self.layers[stage.start + 1..stage.end];
            let epi = epilogue_of(tail);
            let (z, y) = match &self.layers[stage.start] {
                NnLayer::Conv(p) => conv_forward_lanes(&x, p, &epi, self.engine),
                NnLayer::DwConv(p) => dwconv_forward_lanes(&x, p, &epi, self.engine),
                op => (op.forward(&x, self.engine), None),
            };
            let Some(cache) = cache.as_deref_mut() else {
                x = y.unwrap_or(z);
                continue;
            };
            cache.push(x);
            x = match y {
                Some(y) => {
                    cache.push(z);
                    cache.resize_with(cache.len() + tail.len() - 1, Lanes::default);
                    y
                }
                None => z,
            };
        }
        x
    }

    /// Backward pass: accumulates parameter gradients from `grad_out`
    /// (the loss gradient w.r.t. the output of
    /// [`Network::forward_train`], one row per image for a batch) using
    /// that pass's cache, one pass per stage: the epilogue's gradient
    /// routing, then the convolution's backward pass.
    ///
    /// Parameter gradients are summed over a batch as **per-image
    /// subtotals in image order**, so one batched call accumulates
    /// bit-identical state to one call per image — the mini-batch SGD
    /// semantics are engine-independent. It stops once layer 0's
    /// parameter gradients are accumulated: the gradient of the network
    /// input is never computed.
    ///
    /// # Panics
    ///
    /// Panics when `cache` does not come from this network's forward
    /// pass (length mismatch).
    pub fn backward(&mut self, cache: &[Lanes], grad_out: &Tensor) {
        assert_eq!(cache.len(), self.layers.len(), "stale training cache");
        let engine = self.engine;
        let mut g = Lanes::pack_rows(grad_out);
        for stage in self.stages.iter().rev() {
            let i = stage.start;
            let skip_head = matches!(
                self.layers[i],
                NnLayer::Conv(_) | NnLayer::DwConv(_) | NnLayer::AvgPool(_) | NnLayer::Gap
            );
            let e0 = i + usize::from(skip_head);
            // The epilogue's backward pass sums the convolution's bias
            // gradient on its way.
            let dbias = if e0 < stage.end {
                let epi = epilogue_of(&self.layers[e0..stage.end]);
                // The next stage's input is this stage's output.
                let (z, y) = (&cache[e0], cache.get(stage.end));
                let (dz, ds, db, dz_sums) = epilogue_backward_lanes(z, &epi, g, y);
                if epi.scale_bias.is_some() {
                    accumulate(&mut self.state[e0], &ds, &db);
                }
                g = dz;
                Some(dz_sums)
            } else {
                None
            };
            let x = &cache[i];
            // Layer 0's input gradient is the network input's, which
            // nothing reads: its convolutions skip that pass.
            g = match &self.layers[i] {
                NnLayer::Conv(p) => {
                    let (dx, dw, db) = conv_backward_lanes(x, p, &g, dbias, engine, i > 0);
                    accumulate(&mut self.state[i], &dw, &db);
                    let Some(dx) = dx else { break };
                    dx
                }
                NnLayer::DwConv(p) => {
                    let (dx, dw, db) = dwconv_backward_lanes(x, p, &g, dbias, engine, i > 0);
                    accumulate(&mut self.state[i], &dw, &db);
                    let Some(dx) = dx else { break };
                    dx
                }
                NnLayer::AvgPool(k) => avgpool_backward_lanes(x, *k, &g),
                NnLayer::Gap => gap_backward_lanes(x, &g),
                _ => g,
            };
        }
    }

    /// SGD-with-momentum step; consumes and clears the accumulated
    /// gradients.
    pub fn sgd_step(&mut self, lr: f32, momentum: f32) {
        for (layer, st) in self.layers.iter_mut().zip(&mut self.state) {
            if st.grad_w.is_empty() && st.grad_b.is_empty() {
                continue;
            }
            let (w, b): (&mut [f32], &mut [f32]) = match layer {
                NnLayer::Conv(p) => (&mut p.weights, &mut p.bias),
                NnLayer::DwConv(p) => (&mut p.weights, &mut p.bias),
                NnLayer::ScaleBias(p) => (&mut p.scale, &mut p.bias),
                _ => continue,
            };
            if st.mom_w.len() != w.len() {
                st.mom_w = vec![0.0; w.len()];
            }
            if st.mom_b.len() != b.len() {
                st.mom_b = vec![0.0; b.len()];
            }
            for ((wi, gi), mi) in w.iter_mut().zip(&st.grad_w).zip(&mut st.mom_w) {
                *mi = momentum * *mi + gi;
                *wi -= lr * *mi;
            }
            for ((bi, gi), mi) in b.iter_mut().zip(&st.grad_b).zip(&mut st.mom_b) {
                *mi = momentum * *mi + gi;
                *bi -= lr * *mi;
            }
            st.grad_w.clear();
            st.grad_b.clear();
        }
    }
}

fn accumulate(state: &mut LayerState, dw: &[f32], db: &[f32]) {
    if state.grad_w.len() != dw.len() {
        state.grad_w = vec![0.0; dw.len()];
    }
    if state.grad_b.len() != db.len() {
        state.grad_b = vec![0.0; db.len()];
    }
    for (a, g) in state.grad_w.iter_mut().zip(dw) {
        *a += g;
    }
    for (a, g) in state.grad_b.iter_mut().zip(db) {
        *a += g;
    }
}

fn he_init(weights: &mut [f32], fan_in: usize, rng: &mut StdRng) {
    let limit = (6.0f32 / fan_in.max(1) as f32).sqrt();
    for w in weights {
        *w = rng.random_range(-limit..limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::builder::DnnBuilder;
    use codesign_dnn::bundle::{bundle_by_id, BundleId};
    use codesign_dnn::space::DesignPoint;
    use codesign_dnn::TensorShape;

    fn tiny_net(seed: u64) -> Network {
        let b = bundle_by_id(BundleId(13)).unwrap();
        let mut p = DesignPoint::initial(b, 1);
        p.base_channels = 8;
        let dnn = DnnBuilder::new()
            .input(TensorShape::new(3, 8, 16))
            .build(&p)
            .unwrap();
        Network::from_dnn(&dnn, seed).unwrap()
    }

    #[test]
    fn compiles_and_runs() {
        let net = tiny_net(1);
        let out = net.forward(&Tensor::zeros(&[3, 8, 16]));
        assert_eq!(out.shape(), &[4]);
        assert!(net.parameter_count() > 0);
    }

    #[test]
    fn init_is_seed_deterministic() {
        let a = tiny_net(5).forward(&Tensor::full(&[3, 8, 16], 0.3));
        let b = tiny_net(5).forward(&Tensor::full(&[3, 8, 16], 0.3));
        let c = tiny_net(6).forward(&Tensor::full(&[3, 8, 16], 0.3));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn training_reduces_loss_on_fixed_target() {
        let mut net = tiny_net(3);
        let image = Tensor::full(&[3, 8, 16], 0.5);
        let target = [0.4f32, 0.6, 0.3, 0.2];
        let loss = |out: &Tensor| -> f32 {
            out.data()
                .iter()
                .zip(&target)
                .map(|(o, t)| (o - t) * (o - t))
                .sum::<f32>()
                / 4.0
        };
        let initial = loss(&net.forward(&image));
        for _ in 0..60 {
            let (out, cache) = net.forward_train(&image);
            let mut grad = Tensor::zeros(&[4]);
            for (i, t) in target.iter().enumerate() {
                grad.data_mut()[i] = 2.0 * (out.data()[i] - t) / 4.0;
            }
            net.backward(&cache, &grad);
            net.sgd_step(0.05, 0.9);
        }
        let trained = loss(&net.forward(&image));
        assert!(
            trained < initial * 0.2,
            "loss did not drop: {initial} -> {trained}"
        );
    }

    #[test]
    fn forward_train_matches_forward() {
        let net = tiny_net(9);
        let image = Tensor::full(&[3, 8, 16], 0.2);
        let (out, cache) = net.forward_train(&image);
        assert_eq!(out, net.forward(&image));
        assert_eq!(cache.len(), net.layers().len());
    }

    #[test]
    fn sgd_without_gradients_is_a_no_op() {
        let mut net = tiny_net(4);
        let before = net.forward(&Tensor::full(&[3, 8, 16], 0.1));
        net.sgd_step(0.1, 0.9);
        let after = net.forward(&Tensor::full(&[3, 8, 16], 0.1));
        assert_eq!(before, after);
    }

    /// Once one training step has run, an identical step takes every
    /// buffer from the scratch pool: the pool holds the same buffers and
    /// bytes after the step as before, so none was allocated (it would
    /// have been recycled), grown or lost.
    #[test]
    fn a_warm_training_step_takes_every_buffer_from_the_pool() {
        let mut net = tiny_net(8);
        let images: Vec<Tensor> = (0..8)
            .map(|i| Tensor::full(&[3, 8, 16], 0.1 * i as f32))
            .collect();
        let mut batch = Lanes::pack(&Tensor::stack(&images));
        // One step as the trainer runs it: the batch is lent to the
        // training cache and taken back.
        let mut step = |net: &mut Network| {
            let (out, mut cache) = net.forward_train_lanes(std::mem::take(&mut batch));
            let out = out.unpack(true);
            let grad = out.data().iter().map(|o| o - 0.5).collect();
            net.backward(&cache, &Tensor::from_vec(out.shape(), grad));
            net.sgd_step(0.01, 0.9);
            batch = std::mem::take(&mut cache[0]);
        };
        step(&mut net);
        let warm = crate::scratch::stats();
        step(&mut net);
        assert_eq!(crate::scratch::stats(), warm, "(pooled buffers, bytes)");
    }

    #[test]
    #[should_panic(expected = "stale training cache")]
    fn backward_rejects_stale_cache() {
        let mut net = tiny_net(2);
        net.backward(&[], &Tensor::zeros(&[4]));
    }
}
