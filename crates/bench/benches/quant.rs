//! Quantized-inference microbench: float forward vs fake-quantized
//! forward vs the real int8 integer engine on a representative
//! candidate network, plus float and int8 forward of 8 stacked images
//! per call.
//!
//! The nn runtime computes with a batch's images as the vector lanes, so
//! one image fills one lane of eight: `forward_f32` / `forward_int8`
//! (one image per call) and `forward_f32_batch8` / `forward_int8_batch8`
//! (8 images per call, timed per image) put a number on what a lone
//! image pays. Each batch arm asserts that row `i` of its output is
//! image `i` run alone, bit for bit.
//!
//! The fake-quantized path pays the full float inference *plus* a
//! grid-snapping pass after every layer — it exists to model accuracy,
//! not to be fast. The int8 engine executes the same network as `i8`
//! codes end-to-end, through the float lane kernels whose sums over
//! codes are exact, so it must beat the fake path while staying close
//! to the float outputs; both facts land in the committed
//! `BENCH_quant.json` (one forward pass per sample, measured with
//! `codesign_bench::perf::measure`, plus the measured mean output
//! deviations).

use codesign_bench::perf::{emit_bench_json, measure, BenchRecord, Timing};
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::quant::Quantization;
use codesign_dnn::space::DesignPoint;
use codesign_dnn::TensorShape;
use codesign_nn::{Engine, Network, QuantizedNetwork, Tensor};

fn candidate_net() -> Network {
    // The DNN1-3 block family (dw3x3 + conv1x1) at deployment-like
    // width on a half-resolution DAC-SDC frame.
    let b = bundle_by_id(BundleId(13)).unwrap();
    let mut p = DesignPoint::initial(b, 2);
    p.base_channels = 16;
    let dnn = DnnBuilder::new()
        .input(TensorShape::new(3, 24, 48))
        .build(&p)
        .unwrap();
    Network::from_dnn(&dnn, 42)
        .unwrap()
        .with_engine(Engine::Gemm)
}

fn ramp_image() -> Tensor {
    let data: Vec<f32> = (0..3 * 24 * 48)
        .map(|i| (i * 37 % 101) as f32 / 101.0)
        .collect();
    Tensor::from_vec(&[3, 24, 48], data)
}

fn calibration_image(i: usize) -> Tensor {
    let data: Vec<f32> = (0..3 * 24 * 48)
        .map(|j| ((i * 13 + j * 41) % 97) as f32 / 97.0)
        .collect();
    Tensor::from_vec(&[3, 24, 48], data)
}

/// A timing of `images` images per call, as the time per image.
fn per_image(t: Timing, images: u32) -> Timing {
    Timing {
        median: t.median / images,
        min: t.min / images,
        p90: t.p90 / images,
        samples: t.samples,
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn main() {
    let net = candidate_net();
    let qnet = QuantizedNetwork::quantize(&net, Quantization::Int8);
    let img = ramp_image();
    let f32_forward = measure(50, || (), |()| net.forward(&img));
    let fake_forward = measure(50, || (), |()| qnet.forward(&img));
    let int8_forward = measure(50, || (), |()| qnet.forward_int8(&img));

    let batch: Vec<Tensor> = (0..8).map(calibration_image).collect();
    let stacked = Tensor::stack(&batch);
    let f32_batch8 = measure(50, || (), |()| net.forward(&stacked));
    let int8_batch8 = measure(50, || (), |()| qnet.forward_int8(&stacked));
    for (i, image) in batch.iter().enumerate() {
        assert_eq!(
            bits(f32_batch8.output.image(i)),
            bits(net.forward(image).data()),
            "row {i} of the batch DIVERGED from its image run alone"
        );
        assert_eq!(
            bits(int8_batch8.output.image(i)),
            bits(qnet.forward_int8(image).data()),
            "row {i} of the int8 batch DIVERGED from its image run alone"
        );
    }

    // Accuracy context: mean output deviation from the float network,
    // for both quantized paths, over a handful of calibration images.
    let images = &batch[..4];
    let dev_fake = qnet.deviation_from(&net, images);
    let dev_int8 = qnet.int8_deviation_from(&net, images);

    let records = [
        BenchRecord::timing("forward_f32", f32_forward.timing),
        BenchRecord::timing("forward_f32_batch8", per_image(f32_batch8.timing, 8))
            .with_metric("images_per_call", 8.0),
        BenchRecord::timing("forward_fake_quant", fake_forward.timing)
            .with_metric("deviation", dev_fake as f64),
        BenchRecord::speedup_over("forward_int8", int8_forward.timing, fake_forward.timing)
            .with_metric("deviation", dev_int8 as f64),
        BenchRecord::timing("forward_int8_batch8", per_image(int8_batch8.timing, 8))
            .with_metric("images_per_call", 8.0),
    ];
    emit_bench_json("quant", &records).expect("write BENCH_quant.json");
}
