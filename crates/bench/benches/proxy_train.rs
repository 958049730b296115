//! Proxy-training bench: the naive per-image reference kernels vs the
//! batched direct-kernel compute engine, on the paper's example
//! candidate and on the network `flow_measured` trains.
//!
//! * `train_*` arms train the **default** proxy config (the paper's
//!   20-epoch protocol) once per sample, each measured with
//!   `codesign_bench::perf::measure`. The Bundle-13 x 1 GEMM arm must
//!   return the reference arm's IoU bit for bit.
//! * `*_winner_*` arms run the design a 15-FPS PYNQ-Z1 flow publishes
//!   (the one `flow_measured` proxy-trains). Its measured int8 IoU must
//!   be the golden one, bit for bit (the engine-invariance asserts
//!   cannot catch drift in the stage epilogue, which both engines
//!   share), and its training must return the reference engine's IoU
//!   bit for bit;
//!   `forward_train_winner_batch8` and `backward_winner_batch8` time one
//!   training step's two passes over one batch of 8, and the forward
//!   output must equal `Network::forward`'s.
//!
//! Emits `BENCH_proxy_train.json`.

use codesign_bench::perf::{emit_bench_json, measure, BenchRecord};
use codesign_core::accuracy::ProxyEvaluator;
use codesign_core::flow::{CoDesignFlow, FlowConfig};
use codesign_dataset::SyntheticDataset;
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::space::DesignPoint;
use codesign_dnn::TensorShape;
use codesign_nn::{Engine, Network, Tensor};
use codesign_sim::device::pynq_z1;

/// The candidate the paper's examples train: a Bundle-13
/// (dw3x3 + conv1x1) network.
fn candidate() -> DesignPoint {
    let b = bundle_by_id(BundleId(13)).expect("bundle 13");
    DesignPoint::initial(b, 1)
}

/// `flow_measured`'s `quality_iou`: the winner's measured int8 IoU,
/// 0.10766532718934912.
const WINNER_MEASURED_IOU_BITS: u64 = 4_592_422_525_101_735_732;

/// The design `flow_measured` proxy-trains, the one a 15-FPS flow on
/// the PYNQ-Z1 publishes, and its measured int8 IoU.
fn winner() -> (DesignPoint, f64) {
    let out = CoDesignFlow::new(FlowConfig {
        targets_fps: vec![15.0],
        ..FlowConfig::for_device(pynq_z1())
    })
    .with_measured_quantization(ProxyEvaluator::default())
    .run()
    .expect("the 15-FPS flow runs");
    let design = &out.designs[0];
    let iou = design.measured_iou.expect("the winner is measured");
    (design.point.clone(), iou)
}

fn evaluator(engine: Engine) -> ProxyEvaluator {
    ProxyEvaluator {
        engine,
        ..ProxyEvaluator::default()
    }
}

/// `point`'s proxy network as [`ProxyEvaluator::evaluate`] builds it,
/// and its first training batch.
fn proxy_batch(point: &DesignPoint) -> (Network, Tensor, Vec<[f32; 4]>) {
    let eval = ProxyEvaluator::default();
    let mut proxy = point.clone();
    proxy.base_channels = point.base_channels.min(8);
    proxy.max_channels = point.max_channels.min(32);
    let dnn = DnnBuilder::new()
        .input(TensorShape::new(3, eval.image_h, eval.image_w))
        .build(&proxy)
        .expect("the proxy network builds");
    let net = Network::from_dnn(&dnn, eval.seed)
        .expect("the proxy network compiles")
        .with_engine(Engine::Gemm);
    let batch = eval.config.batch_size;
    let (images, boxes) =
        SyntheticDataset::new(eval.image_h, eval.image_w, eval.seed).training_pairs(batch);
    (net, Tensor::stack(&images), boxes)
}

fn main() {
    let point = candidate();
    let naive = measure(
        5,
        || (),
        |()| evaluator(Engine::Reference).evaluate(&point).unwrap(),
    );
    let mut records = vec![BenchRecord::timing("train_naive_reference", naive.timing)];
    let gemm = measure(
        20,
        || (),
        |()| evaluator(Engine::Gemm).evaluate(&point).unwrap(),
    );
    assert_eq!(
        gemm.output.to_bits(),
        naive.output.to_bits(),
        "gemm DIVERGED from the naive reference — determinism bug!"
    );
    records.push(BenchRecord::speedup_over(
        "train_gemm_1_workers",
        gemm.timing,
        naive.timing,
    ));

    let (winner, measured) = winner();
    assert_eq!(
        measured.to_bits(),
        WINNER_MEASURED_IOU_BITS,
        "the winner's measured int8 IoU drifted: {measured}"
    );
    let reference = evaluator(Engine::Reference).evaluate(&winner).unwrap();
    let arm = measure(
        20,
        || (),
        |()| evaluator(Engine::Gemm).evaluate(&winner).unwrap(),
    );
    assert_eq!(
        arm.output.to_bits(),
        reference.to_bits(),
        "the winner's training DIVERGED from the reference engine — determinism bug!"
    );
    records.push(BenchRecord::timing("train_winner_1_worker", arm.timing));

    let (mut net, batch, boxes) = proxy_batch(&winner);
    let forward = measure(50, || (), |()| net.forward_train(&batch));
    let (out, cache) = forward.output;
    assert_eq!(
        out,
        net.forward(&batch),
        "the training forward pass DIVERGED from Network::forward"
    );
    records.push(BenchRecord::timing(
        "forward_train_winner_batch8",
        forward.timing,
    ));
    let grad: Vec<f32> = out
        .data()
        .iter()
        .zip(boxes.iter().flatten())
        .map(|(o, t)| 2.0 * (o - t) / 4.0)
        .collect();
    let grad = Tensor::from_vec(out.shape(), grad);
    let backward = measure(50, || (), |()| net.backward(&cache, &grad));
    records.push(BenchRecord::timing(
        "backward_winner_batch8",
        backward.timing,
    ));

    emit_bench_json("proxy_train", &records).expect("write BENCH_proxy_train.json");
}
