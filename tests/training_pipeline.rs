//! Cross-crate training pipeline: dataset -> IR -> executable network
//! -> proxy training -> quantized inference, i.e. the software half of
//! the co-design loop end to end.

use codesign_dataset::{mean_iou, BoundingBox, SyntheticDataset};
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::quant::Quantization;
use codesign_dnn::space::DesignPoint;
use codesign_dnn::TensorShape;
use codesign_nn::network::Network;
use codesign_nn::quantized::QuantizedNetwork;
use codesign_nn::train::{TrainConfig, Trainer};

const H: usize = 16;
const W: usize = 32;

fn tiny_point(bundle: usize) -> DesignPoint {
    let mut p = DesignPoint::initial(bundle_by_id(BundleId(bundle)).unwrap(), 1);
    p.base_channels = 8;
    p.max_channels = 16;
    p
}

fn train_small(bundle: usize, epochs: usize) -> (Network, Vec<[f32; 4]>, Vec<codesign_nn::Tensor>) {
    let dnn = DnnBuilder::new()
        .input(TensorShape::new(3, H, W))
        .build(&tiny_point(bundle))
        .unwrap();
    let mut net = Network::from_dnn(&dnn, 99).unwrap();
    let ds = SyntheticDataset::new(H, W, 31);
    let (images, boxes) = ds.training_pairs(40);
    Trainer::new(TrainConfig {
        epochs,
        learning_rate: 0.08,
        momentum: 0.9,
        batch_size: 8,
    })
    .train(&mut net, &images[..32], &boxes[..32]);
    (net, boxes[32..].to_vec(), images[32..].to_vec())
}

#[test]
fn trained_network_beats_untrained_network() {
    let dnn = DnnBuilder::new()
        .input(TensorShape::new(3, H, W))
        .build(&tiny_point(13))
        .unwrap();
    let untrained = Network::from_dnn(&dnn, 99).unwrap();
    let (trained, eval_boxes, eval_images) = train_small(13, 12);

    let score = |net: &Network| {
        let preds: Vec<BoundingBox> = eval_images
            .iter()
            .map(|x| BoundingBox::from_prediction(net.forward(x).data()))
            .collect();
        let truths: Vec<BoundingBox> = eval_boxes
            .iter()
            .map(|b| BoundingBox::new(b[0] as f64, b[1] as f64, b[2] as f64, b[3] as f64))
            .collect();
        mean_iou(&preds, &truths)
    };
    assert!(
        score(&trained) > score(&untrained),
        "training did not improve IoU: {} vs {}",
        score(&trained),
        score(&untrained)
    );
}

#[test]
fn quantized_inference_stays_close_after_training() {
    let (net, _, eval_images) = train_small(13, 8);
    let q16 = QuantizedNetwork::quantize(&net, Quantization::Int16);
    let q8 = QuantizedNetwork::quantize(&net, Quantization::Int8);
    let d16 = q16.deviation_from(&net, &eval_images);
    let d8 = q8.deviation_from(&net, &eval_images);
    assert!(d16 <= d8 + 1e-6, "int16 must deviate no more than int8");
    assert!(d16 < 0.08, "int16 deviation too large: {d16}");
    assert!(d8 < 0.25, "int8 deviation suspiciously large: {d8}");
}

#[test]
fn every_selected_bundle_is_trainable() {
    // The five Pareto bundles must all run through the training stack.
    for id in [1usize, 3, 13, 15, 17] {
        let dnn = DnnBuilder::new()
            .input(TensorShape::new(3, H, W))
            .build(&tiny_point(id))
            .unwrap_or_else(|e| panic!("bundle {id}: {e}"));
        let mut net = Network::from_dnn(&dnn, 7).unwrap();
        let ds = SyntheticDataset::new(H, W, id as u64);
        let (images, boxes) = ds.training_pairs(8);
        let report = Trainer::new(TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        })
        .train(&mut net, &images, &boxes);
        assert!(report.final_loss().is_finite(), "bundle {id} diverged");
    }
}

#[test]
fn dataset_and_network_shapes_agree() {
    let ds = SyntheticDataset::new(H, W, 0);
    let sample = &ds.samples(1)[0];
    let dnn = DnnBuilder::new()
        .input(TensorShape::new(3, H, W))
        .build(&tiny_point(15))
        .unwrap();
    let net = Network::from_dnn(&dnn, 0).unwrap();
    assert_eq!(
        net.input_shape(),
        [
            sample.image.channels(),
            sample.image.height(),
            sample.image.width()
        ]
    );
    let out = net.forward(&sample.image);
    assert_eq!(out.len(), 4);
}

/// Order-sensitive checksum over the bits of every trainable parameter.
fn parameter_checksum(net: &Network) -> u64 {
    use codesign_nn::network::NnLayer;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for layer in net.layers() {
        let params: [&[f32]; 2] = match layer {
            NnLayer::Conv(p) => [&p.weights, &p.bias],
            NnLayer::DwConv(p) => [&p.weights, &p.bias],
            NnLayer::ScaleBias(p) => [&p.scale, &p.bias],
            _ => continue,
        };
        for v in params.into_iter().flatten() {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Golden pin: the trained parameters of one proxy training, bit for
/// bit. Unlike the engine-equivalence tests, which compare two paths
/// that share the pooling, activation and scale-bias kernels, this
/// catches drift in any kernel of the training step.
#[test]
fn trained_parameters_match_golden_checksum() {
    let (net, _, _) = train_small(13, 8);
    assert_eq!(parameter_checksum(&net), 5_409_200_423_389_946_333);
}
