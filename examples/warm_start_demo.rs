//! Persistence walkthrough: run a co-design flow cold, persist its
//! estimates, then "restart" and rerun warm from the store — and
//! separately interrupt a checkpointed run and resume it.
//!
//! Exits non-zero unless:
//! - the warm rerun is byte-identical to the cold run (same Pareto
//!   candidates, same simulation reports, same generated C),
//! - more than half of the warm run's estimate lookups are served by
//!   entries preloaded from the store,
//! - resuming the interrupted checkpointed run is also byte-identical
//!   and faster than the cold run,
//!
//! so CI can use it as the warm-start smoke test.
//!
//! Run with: `cargo run --release --example warm_start_demo`

use fpga_dnn_codesign::core::checkpoint::{segment_path, FlowCheckpoint};
use fpga_dnn_codesign::core::flow::{CoDesignFlow, FlowConfig, FlowError, FlowOutput};
use fpga_dnn_codesign::core::observe::{CancelToken, FlowEvent, NullObserver};
use fpga_dnn_codesign::hls::cache::EstimateCache;
use fpga_dnn_codesign::hls::store::EstimateStore;
use fpga_dnn_codesign::sim::device::pynq_z1;
use fpga_dnn_codesign::store::TempDir;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn config() -> FlowConfig {
    FlowConfig::for_device(pynq_z1())
}

fn run_with_cache(cache: &Arc<EstimateCache>) -> (FlowOutput, Duration) {
    let flow = CoDesignFlow::new(config()).with_estimate_cache(Arc::clone(cache));
    let t0 = Instant::now();
    let out = flow.run().expect("flow run");
    (out, t0.elapsed())
}

fn check_bit_identical(
    cold: &FlowOutput,
    other: &FlowOutput,
    what: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    if cold.candidates != other.candidates {
        return Err(format!("{what}: Pareto candidates differ from the cold run").into());
    }
    if cold.designs.len() != other.designs.len() {
        return Err(format!("{what}: design count differs from the cold run").into());
    }
    for (a, b) in cold.designs.iter().zip(&other.designs) {
        if a.point != b.point || a.report != b.report || a.code != b.code {
            return Err(format!("{what}: a design differs from the cold run").into());
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scratch = TempDir::new("codesign_warm_start_demo")?;
    let store_path = scratch.join("store.log");
    let ckpt_dir = scratch.join("ckpt");

    // --- Cold run: nothing on disk yet. ---------------------------------
    let cold_cache = Arc::new(EstimateCache::new());
    let (cold_out, cold_wall) = run_with_cache(&cold_cache);
    let mut store = EstimateStore::open(&store_path)?;
    let persisted = store.persist_from(&cold_cache)?;
    drop(store);
    println!(
        "cold run:   {:>7.1} ms, {} Pareto designs, {persisted} estimates persisted to {}",
        cold_wall.as_secs_f64() * 1e3,
        cold_out.designs.len(),
        store_path.display(),
    );

    // --- Warm run: a fresh process preloads the store. ------------------
    let warm_cache = Arc::new(EstimateCache::new());
    let mut store = EstimateStore::open(&store_path)?;
    let loaded = store.load_into(&warm_cache);
    let (warm_out, warm_wall) = run_with_cache(&warm_cache);
    check_bit_identical(&cold_out, &warm_out, "warm run")?;
    let stats = warm_cache.stats();
    let lookups = stats.hits + stats.misses;
    let hit_rate = warm_cache.store_hits() as f64 / (lookups.max(1)) as f64;
    println!(
        "warm run:   {:>7.1} ms ({:.2}x), {loaded} estimates preloaded, \
         {:.1}% of {lookups} lookups served by the store",
        warm_wall.as_secs_f64() * 1e3,
        cold_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9),
        hit_rate * 1e2,
    );
    if hit_rate <= 0.5 {
        return Err(format!(
            "store hit rate {:.1}% — the warm run barely used the store",
            hit_rate * 1e2
        )
        .into());
    }
    if warm_wall > cold_wall.mul_f64(2.0) {
        return Err("warm run was dramatically slower than the cold run".into());
    }

    // --- Interrupt + resume a checkpointed run. -------------------------
    {
        let flow = CoDesignFlow::new(config());
        let ckpt = FlowCheckpoint::open(&ckpt_dir, flow.config())?;
        let token = CancelToken::new();
        let trip = token.clone();
        let observer = move |event: &FlowEvent| {
            if matches!(event, FlowEvent::ScdSearchFinished { done, total, .. } if done == total) {
                trip.cancel();
            }
        };
        match flow.run_checkpointed(&ckpt, &observer, &token) {
            Err(FlowError::Cancelled) => {}
            other => {
                return Err(format!("expected a cancelled first attempt, got {other:?}").into())
            }
        }
    }
    println!(
        "interrupted: run directory left at {} ({} bytes of cells)",
        ckpt_dir.display(),
        std::fs::metadata(segment_path(&ckpt_dir, 0)).map_or(0, |m| m.len()),
    );
    let flow = CoDesignFlow::new(config());
    let ckpt = FlowCheckpoint::open(&ckpt_dir, flow.config())?;
    let t0 = Instant::now();
    let resumed = flow.run_checkpointed(&ckpt, &NullObserver, &CancelToken::new())?;
    let resume_wall = t0.elapsed();
    check_bit_identical(&cold_out, &resumed, "resumed run")?;
    println!(
        "resumed:    {:>7.1} ms ({:.2}x over cold), every SCD cell read from disk",
        resume_wall.as_secs_f64() * 1e3,
        cold_wall.as_secs_f64() / resume_wall.as_secs_f64().max(1e-9),
    );
    if resume_wall >= cold_wall {
        return Err("resume was not faster than the cold run".into());
    }
    if ckpt_dir.exists() {
        return Err("the run directory must be deleted after a successful resume".into());
    }

    println!("\nwarm_start_demo: OK");
    Ok(())
}
