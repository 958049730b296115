//! SCD estimator-probe bench: the incremental [`EstimatePlan`] against
//! the full rebuild-per-probe `estimate_point` baseline, the warm SCD
//! stage of the paper flow, plus the end-to-end `scd_search` and
//! `exp_fig4`-style flow wall clock at 1 and 4 workers.
//!
//! Each arm is measured once with `codesign_bench::perf::measure` and
//! recorded in `BENCH_scd.json`:
//!
//! * one SCD-shaped probe walk (three unit-move probes, then one
//!   committed move — exactly the query pattern of Algorithm 1) per
//!   sample, priced by full rebuilds and through the incremental plan,
//!   uncached, with the incremental-vs-rebuild speedup (target ≥ 3x).
//!   A full rebuild (`probe_walk_full_rebuild`) elaborates the whole
//!   DNN, derives every pipeline group's slot afresh and folds them;
//!   the plan runs the same derivation and fold on the slots it does
//!   not keep;
//! * the same walk on a warm estimate cache, every probe a hit, also
//!   reported as ns per probe. One plan prices every sample, so after
//!   the first sample each probe is a hit in the plan's own probe memo:
//!   the arm times key assembly, one hash and one memo probe;
//! * the 30 SCD cells of the paper flow (seed 1) on a warm cache, every
//!   lookup a hit, on 1 thread and on 2 threads sharing the one cache,
//!   reported as ns per lookup per thread (each thread runs the whole
//!   sweep, so a rise at 2 threads is the cost of sharing);
//! * the same cells on a fresh cache per sample, on 1 thread: every
//!   first lookup of a search misses and stages, so this arm times the
//!   miss path and its slot-body memo;
//! * one `simulate` of the paper flow's 15 FPS winner (seed 1), the
//!   Tile-Arch run of the finalize stage;
//! * one `scd_search`, and one small flow at 1 and at 4 workers.
//!
//! Every walk arm must produce the full rebuild's latency checksum;
//! every warm sweep the first sweep's candidates with no cache miss;
//! the cold sweep the same candidates with a warm sweep's lookup total;
//! and the simulation the report the flow published.

use codesign_bench::experiments::{default_device, ScdSweep};
use codesign_bench::perf::{emit_bench_json, measure, BenchRecord, Timing};
use codesign_core::accuracy::AccuracyModel;
use codesign_core::flow::{CoDesignFlow, FlowConfig};
use codesign_core::parallel::Parallelism;
use codesign_core::pipeline::calibrate;
use codesign_core::search::{scd_search, ScdConfig};
use codesign_dnn::bundle::{bundle_by_id, Bundle, BundleId};
use codesign_dnn::quant::Activation;
use codesign_dnn::space::DesignPoint;
use codesign_hls::cache::EstimateCache;
use codesign_hls::incremental::{EstimatePlan, MoveCoord};
use codesign_hls::model::{Estimate, EstimateError, HlsEstimator};
use codesign_sim::pipeline::{simulate, AccelConfig};
use std::sync::Arc;

/// The SCD-shaped probe walk: at each step price all three unit moves
/// from the current point, then commit one of them (round-robin over
/// the coordinates, alternating direction to stay inside the domain).
/// Deterministic so both arms price the identical point sequence.
const WALK_STEPS: usize = 40;

fn walk_bundle() -> Bundle {
    bundle_by_id(BundleId(13)).expect("bundle 13")
}

fn walk_estimator() -> HlsEstimator {
    let bundle = walk_bundle();
    let params = calibrate(&bundle, &default_device()).expect("calibration");
    HlsEstimator::new(params, default_device())
}

fn start_point() -> DesignPoint {
    let mut point = DesignPoint::initial(walk_bundle(), 3);
    point.parallel_factor = 64;
    point
}

fn walk_moves(step: usize) -> [(MoveCoord, isize); 3] {
    let dir = if step.is_multiple_of(2) { 1 } else { -1 };
    [
        (MoveCoord::Replications, dir),
        (MoveCoord::Expansion, dir),
        (MoveCoord::Downsampling, -dir),
    ]
}

/// PF rung probed at walk step `step` — the `choose_max_parallel_factor`
/// part of the SCD probe mix (the ladder binary search prices the same
/// structure at many parallel factors).
fn walk_pf(step: usize) -> usize {
    [16, 48, 100, 160, 216][step % 5]
}

/// `point` moved `dir` units along `coord`.
fn moved(point: &DesignPoint, coord: MoveCoord, dir: isize) -> DesignPoint {
    let mut target = point.clone();
    coord.apply(&mut target, dir);
    target
}

/// The walk priced through the incremental plan, committing each step's
/// move (no cache: every probe stages).
fn run_walk_incremental(estimator: &HlsEstimator) -> (u64, usize) {
    let mut point = start_point();
    let mut plan = EstimatePlan::new(estimator, &point).expect("initial point elaborates");
    let mut checksum = 0u64;
    let mut probes = 0usize;
    let mut tally = |est: Result<Estimate, _>, probes: &mut usize| {
        if let Ok(est) = est {
            checksum = checksum.wrapping_mul(31).wrapping_add(est.latency_cycles);
        }
        *probes += 1;
    };
    for step in 0..WALK_STEPS {
        let moves = walk_moves(step);
        for &(coord, dir) in &moves {
            tally(plan.probe(&moved(&point, coord, dir)), &mut probes);
        }
        let mut pf_probe = point.clone();
        pf_probe.parallel_factor = walk_pf(step);
        tally(plan.probe(&pf_probe), &mut probes);
        let (coord, dir) = moves[step % 3];
        coord.apply(&mut point, dir);
        plan.commit(&point).expect("walk stays valid");
    }
    (checksum, probes)
}

/// Every point the walk probes, in probe order.
fn walk_targets() -> Vec<DesignPoint> {
    let mut point = start_point();
    let mut targets = Vec::with_capacity(WALK_STEPS * 4);
    for step in 0..WALK_STEPS {
        let moves = walk_moves(step);
        for &(coord, dir) in &moves {
            targets.push(moved(&point, coord, dir));
        }
        let mut pf_probe = point.clone();
        pf_probe.parallel_factor = walk_pf(step);
        targets.push(pf_probe);
        let (coord, dir) = moves[step % 3];
        coord.apply(&mut point, dir);
    }
    targets
}

/// Prices the walk's `targets` in order with `price`: by full rebuilds
/// (the pre-incremental behavior of `scd_search`: elaborate, derive
/// every slot, fold), or by plan probes on
/// a warm cache, where every probe is a hit and the timed work is the
/// hit path alone — key assembly, one hash, one shard probe. Returns a
/// latency checksum so the arms can be compared for bit-identity.
fn price_walk(
    targets: &[DesignPoint],
    price: impl Fn(&DesignPoint) -> Result<Estimate, EstimateError>,
) -> (u64, usize) {
    let mut checksum = 0u64;
    for target in targets {
        if let Ok(est) = price(target) {
            checksum = checksum.wrapping_mul(31).wrapping_add(est.latency_cycles);
        }
    }
    (checksum, targets.len())
}

fn small_flow(threads: usize) -> CoDesignFlow {
    CoDesignFlow::new(FlowConfig {
        targets_fps: vec![15.0],
        candidates_per_bundle: 3,
        coarse_pf_sweep: vec![16],
        parallelism: Parallelism::Fixed(threads),
        ..FlowConfig::for_device(default_device())
    })
}

fn main() {
    let estimator = walk_estimator();
    let targets = walk_targets();
    let full_rebuild = |p: &DesignPoint| estimator.estimate_point(p);
    let full = measure(30, || (), |()| price_walk(&targets, full_rebuild));
    let incremental = measure(30, || (), |()| run_walk_incremental(&estimator));
    assert_eq!(
        full.output, incremental.output,
        "incremental walk DIVERGED from the full rebuild — determinism bug!"
    );

    // Warm-cache arm: the walk once to fill a cache, then timed with
    // every probe a hit.
    let cache = Arc::new(EstimateCache::new());
    let cached = estimator.clone().with_cache(Arc::clone(&cache));
    let plan = EstimatePlan::new(&cached, &start_point()).expect("initial point elaborates");
    let warm = |p: &DesignPoint| plan.probe(p);
    price_walk(&targets, warm);
    let misses = cache.stats().misses;
    let warm_walk = measure(200, || (), |()| price_walk(&targets, warm));
    assert_eq!(cache.stats().misses, misses, "warm walk missed the cache");
    assert_eq!(
        warm_walk.output, full.output,
        "warm-cache walk DIVERGED from the full rebuild — determinism bug!"
    );
    let warm_ns_per_probe = warm_walk.timing.median.as_secs_f64() * 1e9 / targets.len() as f64;

    // Warm SCD sweep: the paper flow's cells once to fill a shared
    // cache, once more to count a sweep's lookups, then timed on 1
    // thread and on 2 threads (the caller and one spawned thread) that
    // each run the whole sweep against the one cache.
    let sweep_cache = Arc::new(EstimateCache::new());
    let sweep = ScdSweep::paper(1, &sweep_cache).expect("paper flow cells");
    let cold = sweep.run();
    let before = sweep_cache.stats();
    sweep.run();
    let lookups = sweep_cache.stats().total() - before.total();
    let sweep_1 = measure(20, || (), |()| vec![sweep.run()]);
    let sweep_2 = measure(
        20,
        || (),
        |()| {
            std::thread::scope(|s| {
                let other = s.spawn(|| sweep.run());
                let mine = sweep.run();
                vec![mine, other.join().expect("sweep thread")]
            })
        },
    );
    assert_eq!(
        sweep_cache.stats().misses,
        before.misses,
        "warm sweep missed the cache"
    );
    for out in sweep_1.output.iter().chain(&sweep_2.output) {
        assert!(
            *out == cold,
            "warm sweep DIVERGED from the cold sweep — determinism bug!"
        );
    }
    let ns_per_lookup = |t: &Timing| t.median.as_secs_f64() * 1e9 / lookups as f64;

    // Cold sweep: a fresh cache per sample, set up (coarse stage and
    // calibrations) off the clock; the cache and cells are returned so
    // they are dropped off the clock too.
    let cold_sweep = measure(
        10,
        || {
            let cache = Arc::new(EstimateCache::new());
            let sweep = ScdSweep::paper(1, &cache).expect("paper flow cells");
            (cache, sweep)
        },
        |(cache, sweep)| (sweep.run(), cache.stats().total(), (cache, sweep)),
    );
    let (cold_out, cold_lookups, _) = &cold_sweep.output;
    assert!(
        *cold_out == cold,
        "cold sweep DIVERGED from the first sweep — determinism bug!"
    );
    assert_eq!(
        *cold_lookups, lookups,
        "a cold sweep's lookup total differs from a warm sweep's"
    );

    // One simulation of the paper flow's 15 FPS winner.
    let device = default_device();
    let paper = CoDesignFlow::new(FlowConfig {
        seed: 1,
        parallelism: Parallelism::Fixed(1),
        ..FlowConfig::for_device(device.clone())
    })
    .run()
    .expect("paper flow runs");
    let winner = paper
        .designs
        .iter()
        .find(|d| d.target_fps == 15.0)
        .expect("the paper flow meets 15 FPS");
    let accel = AccelConfig::for_point(&winner.point);
    let simulated = measure(
        200,
        || (),
        |()| simulate(&winner.dnn, &accel, &device).expect("the winner simulates"),
    );
    assert_eq!(
        simulated.output, winner.report,
        "simulation DIVERGED from the flow's report — determinism bug!"
    );

    let scd_cfg = ScdConfig {
        latency_target_ms: 60.0,
        tolerance_ms: 5.0,
        candidates: 8,
        max_iterations: 200,
        ..ScdConfig::default()
    };
    let model = AccuracyModel::paper_calibrated();
    let bundle = walk_bundle();
    let search = measure(
        30,
        || (),
        |()| scd_search(&bundle, &estimator, &model, &scd_cfg, Activation::Relu),
    );
    assert!(!search.output.is_empty(), "scd_search found no candidate");

    // Flow wall clock at 1 and 4 workers: the exp_fig4-scale trajectory
    // numbers (outputs stay bit-identical across worker counts; the
    // determinism suite pins that).
    let flow1 = measure(20, || (), |()| small_flow(1).run().unwrap());
    let flow4 = measure(20, || (), |()| small_flow(4).run().unwrap());

    let records = [
        BenchRecord::timing("probe_walk_full_rebuild", full.timing),
        BenchRecord::speedup_over("probe_walk_incremental", incremental.timing, full.timing),
        BenchRecord::timing("probe_walk_warm_cache", warm_walk.timing)
            .with_metric("ns_per_probe", warm_ns_per_probe),
        BenchRecord::timing("warm_sweep_1_worker", sweep_1.timing)
            .with_metric("lookups", lookups as f64)
            .with_metric("ns_per_lookup", ns_per_lookup(&sweep_1.timing)),
        BenchRecord::timing("warm_sweep_2_workers", sweep_2.timing)
            .with_metric("lookups", lookups as f64)
            .with_metric("ns_per_lookup", ns_per_lookup(&sweep_2.timing)),
        BenchRecord::timing("cold_sweep_1_worker", cold_sweep.timing)
            .with_metric("lookups", lookups as f64)
            .with_metric("ns_per_lookup", ns_per_lookup(&cold_sweep.timing)),
        BenchRecord::timing("simulate_paper_point", simulated.timing),
        BenchRecord::timing("scd_search_end_to_end", search.timing),
        BenchRecord::timing("flow_small_1_worker", flow1.timing),
        BenchRecord::timing("flow_small_4_workers", flow4.timing),
    ];
    emit_bench_json("scd", &records).expect("write BENCH_scd.json");
}
