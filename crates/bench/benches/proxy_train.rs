//! Proxy-training bench: the naive per-image reference kernels vs the
//! batched direct-kernel compute engine at 1 and 4 workers.
//!
//! Every arm trains the **default** proxy config (the paper's 20-epoch
//! protocol), is measured once with `codesign_bench::perf::measure`,
//! and must return the reference arm's IoU bit for bit. Emits
//! `BENCH_proxy_train.json`.

use codesign_bench::perf::{emit_bench_json, measure, BenchRecord};
use codesign_core::accuracy::ProxyEvaluator;
use codesign_core::parallel::Parallelism;
use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::space::DesignPoint;
use codesign_nn::Engine;

/// GEMM worker counts compared against the naive reference kernels.
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// The candidate the paper's examples train: a Bundle-13
/// (dw3x3 + conv1x1) network.
fn candidate() -> DesignPoint {
    let b = bundle_by_id(BundleId(13)).expect("bundle 13");
    DesignPoint::initial(b, 1)
}

fn evaluator(engine: Engine) -> ProxyEvaluator {
    ProxyEvaluator {
        engine,
        ..ProxyEvaluator::default()
    }
}

fn main() {
    let point = candidate();
    let naive = measure(
        5,
        || (),
        |()| evaluator(Engine::Reference).evaluate(&point).unwrap(),
    );
    let mut records = vec![BenchRecord::timing("train_naive_reference", naive.timing)];
    for threads in THREAD_COUNTS {
        let gemm = measure(
            5,
            || (),
            |()| {
                evaluator(Engine::Gemm(Parallelism::Fixed(threads)))
                    .evaluate(&point)
                    .unwrap()
            },
        );
        assert_eq!(
            gemm.output.to_bits(),
            naive.output.to_bits(),
            "gemm x{threads} DIVERGED from the naive reference — determinism bug!"
        );
        records.push(BenchRecord::speedup_over(
            &format!("train_gemm_{threads}_workers"),
            gemm.timing,
            naive.timing,
        ));
    }
    emit_bench_json("proxy_train", &records).expect("write BENCH_proxy_train.json");
}
