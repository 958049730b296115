//! Warm-vs-cold persistence bench: the same co-design flow run against
//! an empty estimate cache, against a cache preloaded from a persistent
//! [`EstimateStore`], and resumed from a [`FlowCheckpoint`] directory
//! that already holds every SCD cell.
//!
//! The contract being measured is the tentpole of the persistence
//! layer: a warm start must be *bit-identical* to a cold run (same
//! Pareto designs, same generated C) while skipping the closed-form
//! estimate re-derivation for every design point priced before. Each
//! arm is measured with `codesign_bench::perf::measure`; its untimed
//! set-up gives every sample fresh state (an empty cache, a cache
//! preloaded from the store, a freshly interrupted checkpoint). A
//! fourth arm persists a warm-started cache nothing was added to, which
//! must write no record. Emits `BENCH_persist.json` (cold wall clock,
//! warm speedup + store hit rate, no-op persist, resume speedup).
//! Everything on disk lives in one scratch directory, removed when the
//! bench ends or panics.

use codesign_bench::perf::{emit_bench_json, measure, BenchRecord};
use codesign_core::checkpoint::FlowCheckpoint;
use codesign_core::flow::{CoDesignFlow, FlowConfig, FlowError, FlowOutput};
use codesign_core::observe::{CancelToken, FlowEvent};
use codesign_hls::cache::EstimateCache;
use codesign_hls::store::EstimateStore;
use codesign_sim::device::pynq_z1;
use codesign_store::TempDir;
use std::path::Path;
use std::sync::Arc;

/// The full default flow (three FPS targets, default sweep) — enough
/// estimator traffic for the warm/cold gap to be measurable.
fn config() -> FlowConfig {
    FlowConfig::for_device(pynq_z1())
}

/// Runs the flow against `cache`.
fn run_with_cache(cache: &Arc<EstimateCache>) -> FlowOutput {
    let flow = CoDesignFlow::new(config()).with_estimate_cache(Arc::clone(cache));
    flow.run().expect("flow run")
}

/// A run directory at `dir` holding every SCD cell of a run interrupted
/// after its last one, reopened for a resume that only has to rerun the
/// coarse stage and finalize.
fn interrupted_checkpoint(dir: &Path) -> (CoDesignFlow, FlowCheckpoint) {
    {
        let flow = CoDesignFlow::new(config());
        let ckpt = FlowCheckpoint::open(dir, flow.config()).expect("open checkpoint");
        let token = CancelToken::new();
        let trip = token.clone();
        let observer = move |event: &FlowEvent| {
            if matches!(event, FlowEvent::ScdSearchFinished { done, total, .. } if done == total) {
                trip.cancel();
            }
        };
        let interrupted = flow.run_checkpointed(&ckpt, &observer, &token);
        assert!(matches!(interrupted, Err(FlowError::Cancelled)));
    }
    let flow = CoDesignFlow::new(config());
    let ckpt = FlowCheckpoint::open(dir, flow.config()).expect("reopen checkpoint");
    (flow, ckpt)
}

fn assert_bit_identical(cold: &FlowOutput, other: &FlowOutput, what: &str) {
    assert_eq!(cold.candidates, other.candidates, "{what}: candidates");
    assert_eq!(cold.designs.len(), other.designs.len(), "{what}: designs");
    for (a, b) in cold.designs.iter().zip(&other.designs) {
        assert_eq!(a.point, b.point, "{what}: design point");
        assert_eq!(a.report, b.report, "{what}: simulation report");
        assert_eq!(a.code, b.code, "{what}: generated C");
    }
}

fn main() {
    let scratch = TempDir::new("codesign_bench_persist").expect("create bench scratch dir");
    let store_path = scratch.join("store.log");
    let ckpt_dir = scratch.join("ckpt");

    // Cold: an empty cache per sample; the last one's estimates are
    // spilled to the store.
    let cold = measure(
        5,
        || Arc::new(EstimateCache::new()),
        |cache| (run_with_cache(&cache), cache),
    );
    let (cold_out, cold_cache) = &cold.output;
    let persisted = EstimateStore::open(&store_path)
        .expect("open store")
        .persist_from(cold_cache)
        .expect("persist estimates");

    // Warm: each sample is a "restarted process" that preloads the
    // store, then reruns the identical flow. Every estimate it needs is
    // already priced.
    let warm = measure(
        5,
        || {
            let cache = Arc::new(EstimateCache::new());
            let mut store = EstimateStore::open(&store_path).expect("reopen store");
            let loaded = store.load_into(&cache);
            (cache, loaded)
        },
        |(cache, loaded)| (run_with_cache(&cache), cache, loaded),
    );
    let (warm_out, warm_cache, loaded) = &warm.output;
    assert_bit_identical(cold_out, warm_out, "warm start");
    let stats = warm_cache.stats();
    let lookups = (stats.hits + stats.misses) as f64;
    let store_hit_rate = warm_cache.store_hits() as f64 / lookups.max(1.0);
    assert!(
        store_hit_rate > 0.5,
        "warm start must serve most estimates from the store (got {:.1}%)",
        store_hit_rate * 1e2
    );

    // No-op persist: a warm-started cache holds only what the store
    // wrote, so persisting it writes nothing. The store and cache are
    // returned so they drop outside the clock; `measure` drops them
    // before the next set-up, which releases the store's lock.
    let noop = measure(
        5,
        || {
            let cache = EstimateCache::new();
            let mut store = EstimateStore::open(&store_path).expect("reopen store");
            store.load_into(&cache);
            (cache, store)
        },
        |(cache, mut store)| {
            let written = store.persist_from(&cache).expect("no-op persist");
            (written, cache, store)
        },
    );
    assert_eq!(
        noop.output.0, 0,
        "a warm-started, unchanged cache has nothing new to persist"
    );

    // Resume: every cell comes from disk; the coarse stage and
    // finalization recompute.
    let resume = measure(
        5,
        || interrupted_checkpoint(&ckpt_dir),
        |(flow, ckpt)| {
            flow.run_checkpointed(
                &ckpt,
                &codesign_core::observe::NullObserver,
                &CancelToken::new(),
            )
            .expect("resume")
        },
    );
    assert_bit_identical(cold_out, &resume.output, "checkpoint resume");

    let records = [
        BenchRecord::timing("cold_flow", cold.timing)
            .with_metric("estimates_persisted", persisted as f64),
        BenchRecord::speedup_over("warm_flow", warm.timing, cold.timing)
            .with_metric("estimates_loaded", *loaded as f64)
            .with_metric("store_hits", warm_cache.store_hits() as f64)
            .with_metric("store_hit_rate", store_hit_rate),
        BenchRecord::timing("persist_noop", noop.timing)
            .with_metric("records_written", noop.output.0 as f64),
        BenchRecord::speedup_over("resume_from_checkpoint", resume.timing, cold.timing),
    ];
    emit_bench_json("persist", &records).expect("write BENCH_persist.json");
}
