//! The compute-engine contract: the direct-kernel path is
//! **bit-identical** to the retained naive reference kernels — forward
//! and backward, for any shape and kernel size, batched or per-image — and mini-batch SGD produces identical parameter
//! updates on either path. Every comparison is on bits (`to_bits`), so
//! `-0.0` and `+0.0` count as different results.

use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::space::DesignPoint;
use codesign_dnn::TensorShape;
use codesign_nn::engine::{conv_backward, conv_forward, dwconv_backward, dwconv_forward};
use codesign_nn::layers::{ConvParams, DwConvParams};
use codesign_nn::network::NnLayer;
use codesign_nn::train::{TrainConfig, Trainer};
use codesign_nn::{Engine, Network, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|_| rng.random_range(-1.0..1.0)).collect())
}

fn rng_conv(k: usize, ic: usize, oc: usize, rng: &mut StdRng) -> ConvParams {
    let mut p = ConvParams::zeros(k, ic, oc);
    for w in &mut p.weights {
        *w = rng.random_range(-0.5..0.5);
    }
    for b in &mut p.bias {
        *b = rng.random_range(-0.2..0.2);
    }
    p
}

fn rng_dwconv(k: usize, ch: usize, rng: &mut StdRng) -> DwConvParams {
    let mut p = DwConvParams::zeros(k, ch);
    for w in &mut p.weights {
        *w = rng.random_range(-0.5..0.5);
    }
    for b in &mut p.bias {
        *b = rng.random_range(-0.2..0.2);
    }
    p
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every trainable parameter of `net`, as bits, in layer order.
fn param_bits(net: &Network) -> Vec<u32> {
    let mut out = Vec::new();
    for layer in net.layers() {
        let (w, b) = match layer {
            NnLayer::Conv(p) => (&p.weights, &p.bias),
            NnLayer::DwConv(p) => (&p.weights, &p.bias),
            NnLayer::ScaleBias(p) => (&p.scale, &p.bias),
            _ => continue,
        };
        out.extend(bits(w));
        out.extend(bits(b));
    }
    out
}

// Odd and even sizes: even kernels keep the input grid too, via
// `k - 1 - pad` transposed-conv padding.
const KERNELS: [usize; 5] = [1, 2, 3, 4, 5];

proptest! {
    // Few cases over the proxy network's shapes (planes up to 24 x 48,
    // up to 32 channels), so both the vector-wide main loops and their
    // tails run.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Forward + backward of the standard convolution: direct kernels,
    /// batched or not, equal the naive reference bit for bit.
    #[test]
    fn prop_conv_matches_reference_bitwise(
        seed in 0u64..1000,
        n in 1usize..3,
        ic in 1usize..33,
        oc in 1usize..33,
        h in 1usize..25,
        w in 1usize..50,
        k_idx in 0usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = KERNELS[k_idx];
        let p = rng_conv(k, ic, oc, &mut rng);
        let images: Vec<Tensor> = (0..n).map(|_| rng_tensor(&[ic, h, w], &mut rng)).collect();
        let batch = Tensor::stack(&images);
        let gemm = Engine::Gemm;

        let y_ref = conv_forward(&batch, &p, Engine::Reference);
        let y_gemm = conv_forward(&batch, &p, gemm);
        prop_assert_eq!(bits(y_ref.data()), bits(y_gemm.data()));
        // Per-image entry point agrees with the batched rows.
        let y_single = conv_forward(&images[0], &p, gemm);
        prop_assert_eq!(bits(y_single.data()), bits(y_gemm.image(0)));

        let dy: Vec<Tensor> = (0..n).map(|_| rng_tensor(&[oc, h, w], &mut rng)).collect();
        let dy_batch = Tensor::stack(&dy);
        let (dx_r, dw_r, db_r) = conv_backward(&batch, &p, &dy_batch, Engine::Reference, true);
        let (dx_g, dw_g, db_g) = conv_backward(&batch, &p, &dy_batch, gemm, true);
        let (dx_r, dx_g) = (dx_r.unwrap(), dx_g.unwrap());
        prop_assert_eq!(bits(dx_r.data()), bits(dx_g.data()));
        prop_assert_eq!(bits(&dw_r), bits(&dw_g));
        prop_assert_eq!(bits(&db_r), bits(&db_g));
        let (dx_1, _, _) = conv_backward(&images[0], &p, &dy[0], gemm, true);
        prop_assert_eq!(bits(dx_1.unwrap().data()), bits(dx_g.image(0)));
    }

    /// Same contract for the depth-wise convolution.
    #[test]
    fn prop_dwconv_matches_reference_bitwise(
        seed in 0u64..1000,
        n in 1usize..3,
        ch in 1usize..33,
        h in 1usize..25,
        w in 1usize..50,
        k_idx in 0usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = KERNELS[k_idx];
        let p = rng_dwconv(k, ch, &mut rng);
        let images: Vec<Tensor> = (0..n).map(|_| rng_tensor(&[ch, h, w], &mut rng)).collect();
        let batch = Tensor::stack(&images);
        let gemm = Engine::Gemm;

        let y_ref = dwconv_forward(&batch, &p, Engine::Reference);
        let y_gemm = dwconv_forward(&batch, &p, gemm);
        prop_assert_eq!(bits(y_ref.data()), bits(y_gemm.data()));
        let y_single = dwconv_forward(&images[0], &p, gemm);
        prop_assert_eq!(bits(y_single.data()), bits(y_gemm.image(0)));

        let dy: Vec<Tensor> = (0..n).map(|_| rng_tensor(&[ch, h, w], &mut rng)).collect();
        let dy_batch = Tensor::stack(&dy);
        let (dx_r, dw_r, db_r) = dwconv_backward(&batch, &p, &dy_batch, Engine::Reference, true);
        let (dx_g, dw_g, db_g) = dwconv_backward(&batch, &p, &dy_batch, gemm, true);
        let (dx_r, dx_g) = (dx_r.unwrap(), dx_g.unwrap());
        prop_assert_eq!(bits(dx_r.data()), bits(dx_g.data()));
        prop_assert_eq!(bits(&dw_r), bits(&dw_g));
        prop_assert_eq!(bits(&db_r), bits(&db_g));
        let (dx_1, _, _) = dwconv_backward(&images[0], &p, &dy[0], gemm, true);
        prop_assert_eq!(bits(dx_1.unwrap().data()), bits(dx_g.image(0)));
    }
}

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
        images.push(rng_tensor(&[3, 8, 16], &mut rng));
        boxes.push([
            rng.random_range(0.2..0.8),
            rng.random_range(0.2..0.8),
            0.3,
            0.3,
        ]);
    }
    (images, boxes)
}

#[test]
fn batched_network_forward_matches_per_image() {
    let net = tiny_net(11);
    let (images, _) = synthetic_set(5, 3);
    let out = net.forward(&Tensor::stack(&images));
    assert_eq!(out.shape(), &[5, 4]);
    for (i, img) in images.iter().enumerate() {
        assert_eq!(
            bits(out.image(i)),
            bits(net.forward(img).data()),
            "batched row {i} diverged from per-image forward"
        );
    }
}

/// The pinned mini-batch SGD semantics: per-image execution (reference
/// engine) and batched GEMM execution produce **identical** parameter
/// updates for the same seed — gradients accumulate across the batch
/// and `sgd_step` fires once per batch on both paths.
#[test]
fn per_image_and_batched_training_update_parameters_identically() {
    let (images, boxes) = synthetic_set(12, 7);
    let trainer = Trainer::new(TrainConfig {
        epochs: 3,
        learning_rate: 0.05,
        momentum: 0.9,
        batch_size: 5, // uneven final batch on purpose
    });

    let mut per_image = tiny_net(21).with_engine(Engine::Reference);
    let report_ref = trainer.train(&mut per_image, &images, &boxes);

    let mut batched = tiny_net(21).with_engine(Engine::Gemm);
    let report = trainer.train(&mut batched, &images, &boxes);
    assert_eq!(
        param_bits(&per_image),
        param_bits(&batched),
        "parameters diverged"
    );
    assert_eq!(
        bits(&report_ref.epoch_losses),
        bits(&report.epoch_losses),
        "loss trajectory diverged"
    );
    assert_eq!(
        trainer.evaluate_loss(&per_image, &images, &boxes).to_bits(),
        trainer.evaluate_loss(&batched, &images, &boxes).to_bits()
    );
}

/// `sgd_step` applies the accumulated batch gradient exactly once: a
/// batched `train` epoch equals manually accumulating per-image
/// backward passes and stepping once per batch.
#[test]
fn sgd_steps_once_per_batch() {
    let (images, boxes) = synthetic_set(6, 9);
    let (lr, momentum, bs) = (0.05f32, 0.9f32, 3usize);

    let mut manual = tiny_net(33).with_engine(Engine::Reference);
    for (bi, bb) in images.chunks(bs).zip(boxes.chunks(bs)) {
        for (image, target) in bi.iter().zip(bb) {
            let (out, cache) = manual.forward_train(image);
            let (_, grad) = Trainer::mse_loss(&out, target);
            manual.backward(&cache, &grad);
        }
        manual.sgd_step(lr / bi.len() as f32, momentum);
    }

    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        learning_rate: lr,
        momentum,
        batch_size: bs,
    });
    let mut batched = tiny_net(33).with_engine(Engine::Gemm);
    trainer.train(&mut batched, &images, &boxes);

    assert_eq!(param_bits(&manual), param_bits(&batched));
}

/// A kernel that skipped padding taps would keep the sign of a `-0.0`
/// result: here only the explicit `w x 0` padding terms turn the
/// reference's `-0.0 + (-0.0 x w)` into `+0.0`.
#[test]
fn padding_taps_decide_the_sign_of_zero() {
    let x = Tensor::from_vec(&[1, 1, 1, 1], vec![-0.0]);
    let mut conv = ConvParams::zeros(3, 1, 1);
    conv.weights.fill(0.5);
    conv.bias[0] = -0.0;
    let mut dw = DwConvParams::zeros(3, 1);
    dw.weights.fill(0.5);
    dw.bias[0] = -0.0;
    for engine in [Engine::Reference, Engine::Gemm] {
        let y = conv_forward(&x, &conv, engine);
        assert_eq!(bits(y.data()), [0.0f32.to_bits()], "conv under {engine}");
        let y = dwconv_forward(&x, &dw, engine);
        assert_eq!(bits(y.data()), [0.0f32.to_bits()], "dwconv under {engine}");
    }
}

/// Three SGD steps on a network whose layer 0 is a 3x3 convolution —
/// the layer whose input gradient the batched backward pass skips —
/// leave bit-identical parameters under the reference engine and the
/// direct kernels.
#[test]
fn three_sgd_steps_match_reference_with_3x3_first_conv() {
    let (images, boxes) = synthetic_set(6, 13);
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        learning_rate: 0.05,
        momentum: 0.9,
        batch_size: 2, // three batches: three steps
    });
    let mut reference = tiny_net(5).with_engine(Engine::Reference);
    assert!(
        matches!(&reference.layers()[0], NnLayer::Conv(p) if p.k == 3),
        "layer 0 must be a 3x3 convolution"
    );
    trainer.train(&mut reference, &images, &boxes);
    let mut direct = tiny_net(5).with_engine(Engine::Gemm);
    trainer.train(&mut direct, &images, &boxes);
    assert_eq!(param_bits(&reference), param_bits(&direct));
}

/// Batches that fill one lane, part of a group, exactly one group, and
/// whole groups plus a partial one run `Network::forward`,
/// `forward_train` + `backward` + `sgd_step`, and `Trainer::train`
/// bit-identically to the reference engine: outputs, loss trajectory
/// and parameters.
#[test]
fn partial_lane_groups_match_reference_bitwise() {
    let step = |net: &mut Network, batch: &Tensor, boxes: &[[f32; 4]]| {
        let (out, cache) = net.forward_train(batch);
        let targets = boxes.iter().flatten();
        let grad = out.data().iter().zip(targets).map(|(o, t)| o - t).collect();
        net.backward(&cache, &Tensor::from_vec(out.shape(), grad));
        net.sgd_step(0.05, 0.9);
        (bits(out.data()), param_bits(net))
    };
    for n in [1usize, 3, 8, 9, 17] {
        let (images, boxes) = synthetic_set(n, 40 + n as u64);
        let batch = Tensor::stack(&images);
        let trainer = Trainer::new(TrainConfig {
            epochs: 2,
            learning_rate: 0.05,
            momentum: 0.9,
            batch_size: n,
        });
        let reference = || tiny_net(3).with_engine(Engine::Reference);
        let want_out = bits(reference().forward(&batch).data());
        let want_step = step(&mut reference(), &batch, &boxes);
        let mut want_net = reference();
        let want_report = trainer.train(&mut want_net, &images, &boxes);
        let direct = || tiny_net(3).with_engine(Engine::Gemm);
        assert_eq!(
            bits(direct().forward(&batch).data()),
            want_out,
            "forward of {n} images"
        );
        assert_eq!(
            step(&mut direct(), &batch, &boxes),
            want_step,
            "one SGD step on {n} images"
        );
        let mut net = direct();
        let report = trainer.train(&mut net, &images, &boxes);
        assert_eq!(
            bits(&report.epoch_losses),
            bits(&want_report.epoch_losses),
            "loss trajectory on {n} images"
        );
        assert_eq!(
            param_bits(&net),
            param_bits(&want_net),
            "trained parameters on {n} images"
        );
    }
}

/// Lanes are independent: one image of a batch holding NaN, `+inf` and
/// `-inf` pixels leaves every other image's output row bit-identical to
/// that image run alone, in its own lane group and in the next one.
#[test]
fn a_non_finite_image_leaves_the_other_rows_untouched() {
    let (mut images, _) = synthetic_set(11, 23);
    let poisoned = images[4].data_mut();
    poisoned[0] = f32::NAN;
    poisoned[17] = f32::INFINITY;
    poisoned[100] = f32::NEG_INFINITY;
    poisoned[200] = f32::NAN;
    let batch = Tensor::stack(&images);
    for engine in [Engine::Reference, Engine::Gemm] {
        let net = tiny_net(11).with_engine(engine);
        let out = net.forward(&batch);
        for (i, img) in images.iter().enumerate().filter(|&(i, _)| i != 4) {
            assert_eq!(
                bits(out.image(i)),
                bits(net.forward(img).data()),
                "row {i} under {engine} saw the non-finite image"
            );
        }
    }
}
