//! Mini-batch SGD training on the bounding-box regression task.
//!
//! Candidate DNNs in the co-design flow are "directly trained on the
//! target task in a proxyless manner … for a small number of epochs (20
//! in the experiment)" (Sec. 5.1.1). The trainer reproduces that proxy
//! training: mean-squared-error regression of the normalized
//! `(cx, cy, w, h)` box against seeded synthetic data.
//!
//! # Mini-batch semantics (pinned)
//!
//! Gradients accumulate across every image of a batch and
//! [`Network::sgd_step`] fires **once per batch** with the learning
//! rate divided by the batch length. Every engine runs the same loop:
//! each batch is stacked and packed into the image-interleaved layout of
//! [`Lanes`] once per training, and executes as
//! one pass (one call per layer) with the batch's images as the vector
//! lanes. [`crate::engine::Engine::Reference`] runs its naive
//! convolution kernels image by image inside that call. The parameter
//! updates are bit-identical on every engine and to one
//! forward/backward per image — the batched pass sums per-image
//! gradient subtotals in image order.

use crate::lanes::Lanes;
use crate::network::Network;
use crate::tensor::Tensor;

/// Hyper-parameters of the proxy training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set (the paper uses 20 for
    /// coarse evaluation).
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Images per gradient step.
    pub batch_size: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            learning_rate: 0.05,
            momentum: 0.9,
            batch_size: 8,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss after each epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// Final-epoch loss, or infinity for an empty run.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::INFINITY)
    }
}

/// Runs proxy training of candidate networks.
///
/// # Example
///
/// ```
/// use codesign_nn::train::{TrainConfig, Trainer};
///
/// let trainer = Trainer::new(TrainConfig { epochs: 5, ..TrainConfig::default() });
/// assert_eq!(trainer.config().epochs, 5);
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given hyper-parameters.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The hyper-parameters in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Mean-squared-error loss and gradient over a raw output slice.
    fn mse_loss_slice(output: &[f32], target: &[f32; 4]) -> (f32, Vec<f32>) {
        let n = output.len().min(4);
        let mut grad = vec![0.0f32; output.len()];
        let mut loss = 0.0f32;
        for (i, t) in target.iter().enumerate().take(n) {
            let d = output[i] - t;
            loss += d * d;
            grad[i] = 2.0 * d / n as f32;
        }
        (loss / n as f32, grad)
    }

    /// Mean-squared-error loss and its gradient for one sample.
    pub fn mse_loss(output: &Tensor, target: &[f32; 4]) -> (f32, Tensor) {
        let (loss, grad) = Self::mse_loss_slice(output.data(), target);
        (loss, Tensor::from_vec(output.shape(), grad))
    }

    /// Trains `net` on `(images, boxes)` pairs, one stacked mini-batch
    /// per step on [`Network::engine`], and reports the loss trajectory
    /// (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when `images` and `boxes` differ in length or the dataset
    /// is empty.
    pub fn train(&self, net: &mut Network, images: &[Tensor], boxes: &[[f32; 4]]) -> TrainReport {
        assert_eq!(images.len(), boxes.len(), "images / boxes length mismatch");
        assert!(!images.is_empty(), "empty training set");
        let bs = self.config.batch_size.max(1);
        // The batches never change across epochs — stack and pack each
        // into the image-interleaved layout once. Each step lends its
        // batch to the training cache and takes it back after the
        // backward pass, with the padded copy the first convolution made
        // of it.
        let mut batches: Vec<(Lanes, &[[f32; 4]])> = images
            .chunks(bs)
            .zip(boxes.chunks(bs))
            .map(|(bi, bb)| (Lanes::pack(&Tensor::stack(bi)), bb))
            .collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        for _epoch in 0..self.config.epochs {
            let mut epoch_loss = 0.0f32;
            for (batch, batch_boxes) in &mut batches {
                let (out, mut cache) = net.forward_train_lanes(std::mem::take(batch));
                let out = out.unpack(true);
                let mut grad = Vec::with_capacity(out.len());
                for (i, target) in batch_boxes.iter().enumerate() {
                    let (loss, g) = Self::mse_loss_slice(out.image(i), target);
                    epoch_loss += loss;
                    grad.extend_from_slice(&g);
                }
                net.backward(&cache, &Tensor::from_vec(out.shape(), grad));
                *batch = std::mem::take(cache.first_mut().expect("the first stage's input"));
                net.sgd_step(
                    self.config.learning_rate / batch_boxes.len() as f32,
                    self.config.momentum,
                );
            }
            epoch_losses.push(epoch_loss / images.len() as f32);
        }
        TrainReport { epoch_losses }
    }

    /// Mean IoU-style evaluation hook: average loss of `net` on a
    /// held-out set (lower is better; IoU proper lives in the dataset
    /// crate, which owns box geometry), run in stacked mini-batches.
    pub fn evaluate_loss(&self, net: &Network, images: &[Tensor], boxes: &[[f32; 4]]) -> f32 {
        assert_eq!(images.len(), boxes.len());
        if images.is_empty() {
            return f32::INFINITY;
        }
        let mut total = 0.0f32;
        let bs = self.config.batch_size.max(1);
        for (batch_images, batch_boxes) in images.chunks(bs).zip(boxes.chunks(bs)) {
            let out = net.forward(&Tensor::stack(batch_images));
            for (i, target) in batch_boxes.iter().enumerate() {
                total += Self::mse_loss_slice(out.image(i), target).0;
            }
        }
        total / images.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::builder::DnnBuilder;
    use codesign_dnn::bundle::{bundle_by_id, BundleId};
    use codesign_dnn::space::DesignPoint;
    use codesign_dnn::TensorShape;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn synthetic_set(n: usize, seed: u64) -> (Vec<Tensor>, Vec<[f32; 4]>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut images = Vec::new();
        let mut boxes = Vec::new();
        for _ in 0..n {
            let v: f32 = rng.random_range(0.0..1.0);
            images.push(Tensor::full(&[3, 8, 16], v));
            // A learnable relation between brightness and the box.
            boxes.push([v * 0.5 + 0.2, 0.5, 0.3, 0.3]);
        }
        (images, boxes)
    }

    #[test]
    fn mse_loss_and_grad() {
        let out = Tensor::from_vec(&[4], vec![0.5, 0.5, 0.5, 0.5]);
        let target = [0.5, 0.7, 0.5, 0.5];
        let (loss, grad) = Trainer::mse_loss(&out, &target);
        assert!((loss - 0.04 / 4.0).abs() < 1e-6);
        assert!((grad.data()[1] + 0.1).abs() < 1e-6);
        assert_eq!(grad.data()[0], 0.0);
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = tiny_net(17);
        let (images, boxes) = synthetic_set(12, 3);
        let trainer = Trainer::new(TrainConfig {
            epochs: 12,
            learning_rate: 0.05,
            momentum: 0.9,
            batch_size: 4,
        });
        let report = trainer.train(&mut net, &images, &boxes);
        assert_eq!(report.epoch_losses.len(), 12);
        assert!(
            report.final_loss() < report.epoch_losses[0] * 0.7,
            "loss did not drop: {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn evaluate_loss_matches_training_signal() {
        let mut net = tiny_net(29);
        let (images, boxes) = synthetic_set(8, 5);
        let trainer = Trainer::new(TrainConfig {
            epochs: 8,
            ..TrainConfig::default()
        });
        let before = trainer.evaluate_loss(&net, &images, &boxes);
        trainer.train(&mut net, &images, &boxes);
        let after = trainer.evaluate_loss(&net, &images, &boxes);
        assert!(after < before);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_set_rejected() {
        let mut net = tiny_net(1);
        Trainer::new(TrainConfig::default()).train(&mut net, &[], &[]);
    }

    #[test]
    fn default_config_matches_paper() {
        assert_eq!(TrainConfig::default().epochs, 20);
    }
}
