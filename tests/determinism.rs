//! Determinism suite for the parallel co-design engine.
//!
//! Two contracts under test:
//!
//! * `CoDesignFlow` output is a pure function of `FlowConfig` — same
//!   seed ⇒ byte-identical output, for *any* worker count, because
//!   every work item derives a private SplitMix64 seed and results
//!   merge in work-item order.
//! * `ProxyEvaluator` (real batched proxy training on the GEMM compute
//!   engine) is bit-identical to the naive per-image reference kernels,
//!   at any worker count.
//!
//! The `CODESIGN_PARALLELISM` environment variable (also read by the
//! `exp_*` binaries) picks the "parallel" side of the 1-vs-N
//! comparison, so CI can sweep thread counts in a matrix; it defaults
//! to 4.

use codesign_core::accuracy::ProxyEvaluator;
use codesign_core::flow::{CoDesignFlow, FlowConfig, FlowOutput};
use codesign_core::parallel::Parallelism;
use codesign_dataset::SyntheticDataset;
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::quant::Activation;
use codesign_dnn::space::DesignPoint;
use codesign_dnn::TensorShape;
use codesign_nn::network::NnLayer;
use codesign_nn::train::{TrainConfig, Trainer};
use codesign_nn::{Engine, Network};
use codesign_sim::device::pynq_z1;

/// Worker count of the parallel arm (`CODESIGN_PARALLELISM`, default 4).
fn parallel_arm() -> usize {
    match Parallelism::from_env("CODESIGN_PARALLELISM") {
        Parallelism::Fixed(n) => n,
        Parallelism::Auto => 4,
    }
}

fn run_flow(seed: u64, threads: usize) -> FlowOutput {
    CoDesignFlow::new(FlowConfig {
        targets_fps: vec![15.0],
        candidates_per_bundle: 2,
        coarse_pf_sweep: vec![16],
        seed,
        parallelism: Parallelism::Fixed(threads),
        ..FlowConfig::for_device(pynq_z1())
    })
    .run()
    .expect("flow runs")
}

/// Full structural equality of two flow outputs, including the
/// generated C and the simulated reports.
fn assert_identical(a: &FlowOutput, b: &FlowOutput) {
    assert_eq!(a.coarse, b.coarse, "coarse evaluations differ");
    assert_eq!(a.selected_bundles, b.selected_bundles);
    assert_eq!(a.candidates, b.candidates, "candidate sets differ");
    assert_eq!(a.designs.len(), b.designs.len());
    for (x, y) in a.designs.iter().zip(&b.designs) {
        assert_eq!(x.point, y.point);
        assert_eq!(x.accuracy, y.accuracy);
        assert_eq!(x.latency_ms, y.latency_ms);
        assert_eq!(x.report, y.report);
        assert_eq!(x.code, y.code, "generated C drifted");
    }
}

#[test]
fn same_seed_same_output() {
    let threads = parallel_arm();
    let a = run_flow(2019, threads);
    let b = run_flow(2019, threads);
    assert_identical(&a, &b);
}

#[test]
fn parallel_output_matches_sequential() {
    let seq = run_flow(2019, 1);
    let par = run_flow(2019, parallel_arm());
    assert_identical(&seq, &par);
    // The shared estimate cache sees the same queries either way.
    assert_eq!(
        seq.cache_stats.total(),
        par.cache_stats.total(),
        "query volume must not depend on the worker count"
    );
}

#[test]
fn distinct_seeds_explore_but_stay_in_the_band() {
    let threads = parallel_arm();
    let a = run_flow(2019, threads);
    let b = run_flow(4242, threads);
    // Different trajectories...
    assert_ne!(
        a.candidates
            .iter()
            .map(|(_, c)| c.point.clone())
            .collect::<Vec<_>>(),
        b.candidates
            .iter()
            .map(|(_, c)| c.point.clone())
            .collect::<Vec<_>>(),
        "distinct seeds should explore distinct candidate sets"
    );
    // ...but every candidate of either run still lands inside its
    // target's FPS acceptance window.
    for out in [&a, &b] {
        for (fps_target, c) in &out.candidates {
            let target_ms = 1000.0 / fps_target;
            let tolerance_ms = target_ms - 1000.0 / (fps_target + 1.5);
            assert!(
                (c.latency_ms - target_ms).abs() < tolerance_ms,
                "candidate at {:.2} ms outside the {fps_target} FPS band (±{tolerance_ms:.2} ms)",
                c.latency_ms
            );
        }
    }
}

/// A small proxy-training run with the given NN compute engine.
fn proxy_iou(engine: Engine) -> f64 {
    let b = bundle_by_id(BundleId(13)).expect("bundle 13");
    let mut point = DesignPoint::initial(b, 1);
    point.base_channels = 8;
    let eval = ProxyEvaluator {
        image_h: 16,
        image_w: 32,
        train_samples: 16,
        eval_samples: 8,
        config: TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        },
        engine,
        ..ProxyEvaluator::default()
    };
    eval.evaluate(&point).expect("proxy training runs")
}

/// Batched GEMM proxy training is bit-identical to the naive per-image
/// reference path — the compute engine only changes wall clock, never
/// results.
#[test]
fn proxy_training_is_engine_invariant() {
    let reference = proxy_iou(Engine::Reference);
    let gemm = proxy_iou(Engine::Gemm);
    assert_eq!(
        reference.to_bits(),
        gemm.to_bits(),
        "GEMM engine diverged from the reference path: {reference} vs {gemm}"
    );
}

/// Golden pin for proxy training itself: the default engine's IoU, bit
/// for bit. The engine-invariance test above compares paths that share
/// the pooling, activation and scale-bias kernels, so it cannot catch
/// drift in those; this value can.
#[test]
fn proxy_training_matches_golden_iou() {
    let iou = proxy_iou(Engine::default());
    assert_eq!(
        iou.to_bits(),
        4_594_843_188_456_620_654,
        "proxy IoU drifted: {iou}"
    );
}

/// Golden pin for the number `flow_measured` reports as `quality_iou`:
/// the measured int8 IoU of the design a 15-FPS PYNQ-Z1 flow publishes,
/// proxy-trained at the paper's default protocol. The engine-invariance
/// test cannot catch drift in the stage epilogue, which both engines
/// share; this value can. Ignored by default (about 30 s in a debug
/// build); CI runs it in release at every SIMD level.
#[test]
#[ignore]
fn proxy_winner_measured_iou_matches_golden() {
    let out = CoDesignFlow::new(FlowConfig {
        targets_fps: vec![15.0],
        ..FlowConfig::for_device(pynq_z1())
    })
    .with_measured_quantization(ProxyEvaluator::default())
    .run()
    .expect("the 15-FPS flow runs");
    let iou = out.designs[0].measured_iou.expect("the winner is measured");
    assert_eq!(
        iou.to_bits(),
        4_592_422_525_101_735_732,
        "the winner's measured IoU drifted: {iou}"
    );
}

/// Golden pin over the shapes a Bundle stage can take: Bundles 1, 3,
/// 6, 13 and 17 at every activation, each trained for one epoch on 11
/// images (one full lane group and one partial one), checksummed over the
/// bits of every trained parameter. The odd 31 x 31 input makes the
/// stem pool and the down-sampling pool after replication 0 each drop
/// a row and a column; Bundle 6 (depth-wise only) widens through the
/// expansion spot, a 1x1 convolution followed by an activation with no
/// scale-bias.
#[test]
fn proxy_stage_shapes_match_golden_checksum() {
    let (h, w) = (31, 31);
    let mut sum = 0xcbf2_9ce4_8422_2325u64;
    for id in [1, 3, 6, 13, 17] {
        for act in [Activation::Relu, Activation::Relu4, Activation::Relu8] {
            let mut point = DesignPoint::initial(bundle_by_id(BundleId(id)).expect("bundle"), 2);
            point.base_channels = 8;
            point.max_channels = 16;
            point.activation = act;
            point.downsample = vec![true, false];
            point.expansion = vec![2.0, 1.0];
            let dnn = DnnBuilder::new()
                .input(TensorShape::new(3, h, w))
                .build(&point)
                .expect("stage-shape network builds");
            let mut net = Network::from_dnn(&dnn, 5).expect("network compiles");
            let (images, boxes) = SyntheticDataset::new(h, w, id as u64).training_pairs(11);
            Trainer::new(TrainConfig {
                epochs: 1,
                batch_size: 8,
                ..TrainConfig::default()
            })
            .train(&mut net, &images, &boxes);
            for layer in net.layers() {
                let params: [&[f32]; 2] = match layer {
                    NnLayer::Conv(p) => [&p.weights, &p.bias],
                    NnLayer::DwConv(p) => [&p.weights, &p.bias],
                    NnLayer::ScaleBias(p) => [&p.scale, &p.bias],
                    _ => continue,
                };
                for v in params.into_iter().flatten() {
                    sum = (sum ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    assert_eq!(
        sum, 15_704_469_750_211_162_645,
        "trained stage-shape parameters drifted"
    );
}

/// Golden pin for the incremental-estimation engine and the sharded
/// estimate cache: the flow output must be **byte-identical to the
/// pre-incremental seed** (captured from the full-rebuild,
/// single-lock-cache implementation of PR 3) at any worker count.
///
/// Catches any drift in the `EstimatePlan` fold order, the canonical
/// cache key, or the cache sharding — all of which must be pure
/// optimizations. The cache totals are pinned too: the plan issues
/// exactly one counted lookup per priced design point, like the old
/// `estimate_point`-per-probe loop did. At one worker no two searches
/// race on a key, so the hit/miss split is pinned too: answering repeat
/// probes from a per-search memo must not move a single count.
#[test]
fn flow_output_matches_full_rebuild_seed_golden() {
    for threads in [1, parallel_arm()] {
        let out = run_flow(2019, threads);
        assert_eq!(out.candidates.len(), 14, "threads={threads}");
        let d = &out.designs[0];
        assert_eq!(d.point.bundle.id(), BundleId(13));
        assert_eq!(d.point.n_replications, 5);
        assert_eq!(d.point.downsample, vec![true, false, false, false, false]);
        assert_eq!(d.point.expansion, vec![1.0, 2.0, 2.0, 1.0, 1.0]);
        assert_eq!(d.point.parallel_factor, 200);
        assert_eq!(d.point.activation, codesign_dnn::quant::Activation::Relu4);
        assert_eq!(d.accuracy.to_bits(), 0x3fe676d5ffad6350);
        assert_eq!(d.latency_ms.to_bits(), 0x404975a1cac08312);
        assert_eq!(d.report.total_cycles, 5_091_900);
        assert_eq!(
            out.cache_stats.total(),
            5_053,
            "probe-for-probe parity with the full-rebuild estimator broke"
        );
        if threads == 1 {
            let stats = out.cache_stats;
            assert_eq!(
                (stats.hits, stats.misses),
                (4_672, 381),
                "the one-worker hit/miss split drifted"
            );
        }
    }
}

#[test]
fn cache_stats_report_real_reuse() {
    let out = run_flow(2019, parallel_arm());
    assert!(
        out.cache_stats.hit_rate() > 0.5,
        "estimate-cache hit rate {:.1}% — memoization broke ({})",
        out.cache_stats.hit_rate() * 100.0,
        out.cache_stats
    );
}

/// The paper flow (three FPS targets) at seed 2019, warm-started from a
/// store: a cold run fills a cache, a fresh cache is preloaded from its
/// snapshot, and a second run on that cache is counted. The lookup total
/// and the hits served by preloaded entries are pinned at every worker
/// count (preloaded entries exist before the run, so no race can move
/// them), and the hit/miss split at one worker. The pin covers restarts
/// that revisit a depth the same search has already tried: every lookup
/// they make is a memo hit, counted as a store hit when its entry was
/// preloaded.
#[test]
fn warm_store_flow_counts_are_pinned() {
    use codesign_hls::cache::EstimateCache;
    use std::sync::Arc;

    for threads in [1, parallel_arm()] {
        let flow = || {
            CoDesignFlow::new(FlowConfig {
                seed: 2019,
                parallelism: Parallelism::Fixed(threads),
                ..FlowConfig::for_device(pynq_z1())
            })
        };
        let cold_cache = Arc::new(EstimateCache::new());
        let cold = flow()
            .with_estimate_cache(Arc::clone(&cold_cache))
            .run()
            .expect("cold flow runs");
        let warm_cache = Arc::new(EstimateCache::new());
        for (key, estimate) in cold_cache.snapshot_ok() {
            assert!(warm_cache.preload(&key, estimate));
        }
        let warm = flow()
            .with_estimate_cache(Arc::clone(&warm_cache))
            .run()
            .expect("warm flow runs");
        assert_identical(&cold, &warm);
        let stats = warm_cache.stats();
        assert_eq!(
            (stats.total(), warm_cache.store_hits()),
            (18_648, 18_648),
            "warm lookups or store hits drifted (threads={threads})"
        );
        if threads == 1 {
            assert_eq!(
                (stats.hits, stats.misses),
                (18_648, 0),
                "the one-worker warm hit/miss split drifted"
            );
        }
    }
}
