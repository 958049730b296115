//! Proxy-training bench: the naive per-image reference kernels vs the
//! batched direct-kernel compute engine at 1 and 4 workers.
//!
//! Two parts:
//!
//! * criterion-style timed samples on a shortened (4-epoch) proxy run,
//!   one per engine arm;
//! * a single head-to-head run of the **default** proxy config (the
//!   paper's 20-epoch protocol) printing the wall-clock speedup and
//!   checking the bit-identity contract across all arms.

use codesign_bench::{emit_bench_json, BenchRecord};
use codesign_core::accuracy::ProxyEvaluator;
use codesign_core::parallel::Parallelism;
use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::space::DesignPoint;
use codesign_nn::train::TrainConfig;
use codesign_nn::Engine;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

/// GEMM worker counts compared against the naive reference kernels.
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// The candidate the paper's examples train: a Bundle-13
/// (dw3x3 + conv1x1) network.
fn candidate() -> DesignPoint {
    let b = bundle_by_id(BundleId(13)).expect("bundle 13");
    DesignPoint::initial(b, 1)
}

fn evaluator(engine: Engine, epochs: usize) -> ProxyEvaluator {
    ProxyEvaluator {
        config: TrainConfig {
            epochs,
            ..TrainConfig::default()
        },
        engine,
        ..ProxyEvaluator::default()
    }
}

fn bench_proxy_train(c: &mut Criterion) {
    let point = candidate();
    let mut group = c.benchmark_group("proxy_train");
    // Real criterion requires at least 10 samples; the compat shim
    // accepts any value, so stay swap-compatible.
    group.sample_size(10);
    group.bench_function("naive", |b| {
        b.iter(|| evaluator(Engine::Reference, 4).evaluate(&point).unwrap())
    });
    for threads in THREAD_COUNTS {
        group.bench_function(&format!("gemm/threads{threads}"), |b| {
            b.iter(|| {
                evaluator(Engine::Gemm(Parallelism::Fixed(threads)), 4)
                    .evaluate(&point)
                    .unwrap()
            })
        });
    }
    group.finish();

    // Head-to-head on the default proxy config (20 epochs): wall clock
    // plus the determinism contract — every arm must return the same
    // bits.
    let epochs = TrainConfig::default().epochs;
    let t0 = Instant::now();
    let naive = evaluator(Engine::Reference, epochs)
        .evaluate(&point)
        .unwrap();
    let t_naive = t0.elapsed();
    let mut records = vec![BenchRecord::timing("train_naive_reference", t_naive)];
    for threads in THREAD_COUNTS {
        let t1 = Instant::now();
        let gemm = evaluator(Engine::Gemm(Parallelism::Fixed(threads)), epochs)
            .evaluate(&point)
            .unwrap();
        let t_gemm = t1.elapsed();
        println!(
            "proxy_train: naive {t_naive:?} vs gemm x{threads} {t_gemm:?} \
             ({:.2}x), results {}",
            t_naive.as_secs_f64() / t_gemm.as_secs_f64().max(1e-9),
            if naive.to_bits() == gemm.to_bits() {
                "are bit-identical"
            } else {
                "DIVERGED — determinism bug!"
            }
        );
        records.push(BenchRecord::speedup_over(
            &format!("train_gemm_{threads}_workers"),
            t_gemm,
            t_naive,
        ));
    }
    match emit_bench_json("proxy_train", &records) {
        Ok(path) => println!("proxy_train: wrote {}", path.display()),
        Err(e) => eprintln!("proxy_train: could not write BENCH_proxy_train.json: {e}"),
    }
}

criterion_group!(benches, bench_proxy_train);
criterion_main!(benches);
