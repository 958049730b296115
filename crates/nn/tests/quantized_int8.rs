//! End-to-end contract of the int8 inference engine: same seed ⇒
//! byte-identical outputs at every SIMD level and on either float
//! engine, outputs land on the activation grid, and the integer path
//! tracks the float network about as closely as the fake-quantized
//! float path does.

use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::quant::Quantization;
use codesign_dnn::space::DesignPoint;
use codesign_dnn::TensorShape;
use codesign_nn::{Engine, Network, QuantizedNetwork, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn trained_like_net(bundle: usize, seed: u64) -> Network {
    let b = bundle_by_id(BundleId(bundle)).unwrap();
    let mut p = DesignPoint::initial(b, 1);
    p.base_channels = 8;
    let dnn = DnnBuilder::new()
        .input(TensorShape::new(3, 16, 24))
        .build(&p)
        .unwrap();
    Network::from_dnn(&dnn, seed).unwrap()
}

fn rng_image(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..3 * 16 * 24)
        .map(|_| rng.random_range(0.0..1.0))
        .collect();
    Tensor::from_vec(&[3, 16, 24], data)
}

/// Same seed, same input ⇒ byte-identical int8 outputs whichever float
/// engine the network carries (and at whatever SIMD level the host
/// dispatches), and byte-identical fake-quantized outputs, Int8 and
/// Int16, on the reference engine and the direct kernels.
#[test]
fn int8_forward_is_byte_identical_across_engines() {
    for bundle in [1, 13, 15] {
        let net = trained_like_net(bundle, 77);
        for scheme in [Quantization::Int8, Quantization::Int16] {
            let quantize = |e| QuantizedNetwork::quantize(&net, scheme).with_engine(e);
            let (reference, gemm) = (quantize(Engine::Reference), quantize(Engine::Gemm));
            for img_seed in 0..4u64 {
                let img = rng_image(img_seed);
                let at = format!("bundle {bundle} {scheme} image {img_seed}");
                assert_eq!(
                    bits(&gemm.forward(&img)),
                    bits(&reference.forward(&img)),
                    "{at}: the engine changed fake-quant bytes"
                );
                if scheme == Quantization::Int8 {
                    assert_eq!(
                        gemm.forward_int8(&img).data(),
                        reference.forward_int8(&img).data(),
                        "{at}: the engine changed int8 bytes"
                    );
                }
            }
        }
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Rebuilding the quantized network from the same float network is a
/// pure function: the integer program round-trips.
#[test]
fn int8_quantization_round_trips() {
    let net = trained_like_net(13, 99);
    let qa = QuantizedNetwork::quantize(&net, Quantization::Int8);
    let qb = QuantizedNetwork::quantize(&net, Quantization::Int8);
    let img = rng_image(5);
    assert_eq!(qa.forward_int8(&img).data(), qb.forward_int8(&img).data());
    assert_eq!(qa.forward(&img).data(), qb.forward(&img).data());
}

/// Every int8 output value sits exactly on the activation grid
/// (code · act_scale for an integer code in the scheme's range).
#[test]
fn int8_outputs_land_on_the_activation_grid() {
    let net = trained_like_net(13, 21);
    let q = QuantizedNetwork::quantize(&net, Quantization::Int8);
    let act_scale = 8.0 / 127.0;
    let out = q.forward_int8(&rng_image(1));
    for &v in out.data() {
        let code = v / act_scale;
        assert!(
            (code - code.round()).abs() < 1e-4 && (-128.0..=127.0).contains(&code),
            "output {v} is not an int8 activation code"
        );
    }
}

/// The integer engine's deviation from the float network stays in the
/// same band as the fake-quantized float path — exact i32 accumulation
/// replaces per-step f32 rounding, so it must not be wildly worse.
#[test]
fn int8_deviation_stays_comparable_to_fake_quantization() {
    let net = trained_like_net(13, 55);
    let q = QuantizedNetwork::quantize(&net, Quantization::Int8);
    let images: Vec<Tensor> = (0..6).map(rng_image).collect();
    let d_fake = q.deviation_from(&net, &images);
    let d_int8 = q.int8_deviation_from(&net, &images);
    assert!(
        d_int8 <= d_fake * 2.0 + 0.05,
        "int8 deviation {d_int8} implausibly above fake-quant deviation {d_fake}"
    );
}

/// Golden checksum over every `forward_int8` output bit of bundles 1,
/// 13 and 15 on four random images. The integer engine's arithmetic is
/// exact, so no change of layout, kernel or summation order may move
/// this value.
#[test]
fn int8_forward_bits_are_pinned() {
    let mut sum = 0xcbf2_9ce4_8422_2325u64;
    for bundle in [1, 13, 15] {
        let q = QuantizedNetwork::quantize(&trained_like_net(bundle, 77), Quantization::Int8);
        for img_seed in 0..4u64 {
            for b in bits(&q.forward_int8(&rng_image(img_seed))) {
                sum = (sum ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    assert_eq!(
        sum, 10_169_167_473_445_845_433,
        "int8 output bits drifted: {sum}"
    );
}
