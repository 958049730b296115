//! The shard layer: the paper flow through the `codesign-shard`
//! supervisor, with this binary as its worker.

use crate::flow::{design_iou, paper_config};
use crate::metrics::Report;
use crate::stats::{median, median_ms, timed, Agreement};
use crate::{parallelism, Run, SPAWN_PROBE};
use codesign_core::evaluate::EvalMethod;
use codesign_core::{coarse_evaluate_parallel, select_bundles, AccuracyModel};
use codesign_core::{BundleEvaluation, FlowConfig, FlowOutput};
use codesign_dnn::bundle::enumerate_bundles;
use codesign_shard::{
    canonical_output_bytes, read_segment, segment_path, ShardConfig, ShardReport,
};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Worker processes alive at once; the shard count is automatic
/// (twice this).
const WORKERS: usize = 2;

/// Repetitions of each traced probe.
const PROBE_REPS: usize = 10;

/// Sharded sweeps per traced run.
const SWEEPS: usize = 10;

/// One sweep with `dir` as its shard directory.
fn sweep_once(dir: &Path, flow: FlowConfig) -> Result<(FlowOutput, ShardReport), String> {
    let mut config = ShardConfig::new(dir.to_path_buf(), flow).map_err(|e| e.to_string())?;
    config.workers = WORKERS;
    codesign_shard::run(&config).map_err(|e| e.to_string())
}

/// Reads every segment a sweep left; returns (ms, bytes).
fn read_segments(dir: &Path, shards: usize) -> Result<(f64, f64), String> {
    let paths: Vec<_> = (0..shards).map(|s| segment_path(dir, s)).collect();
    let bytes: u64 = paths
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()))
        .sum::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let (read, wall) = timed(|| {
        paths
            .iter()
            .map(|p| read_segment(p))
            .collect::<Result<Vec<_>, _>>()
    });
    read.map_err(|e| e.to_string())?;
    Ok((wall, bytes as f64))
}

/// `shard.coarse_ms`: the supervisor's in-process coarse stage.
fn coarse_stage(cfg: &FlowConfig) {
    let model = AccuracyModel::paper_calibrated();
    let coarse = coarse_evaluate_parallel(
        &enumerate_bundles(),
        &cfg.device,
        &cfg.coarse_pf_sweep,
        EvalMethod::Replicated {
            n: cfg.eval_replications,
        },
        &model,
        cfg.clock_mhz,
        cfg.parallelism.threads(),
    )
    .expect("the paper configuration evaluates");
    let max_pf = cfg.coarse_pf_sweep.iter().copied().max().unwrap_or(16);
    let at_max: Vec<BundleEvaluation> = coarse
        .into_iter()
        .filter(|e| e.parallel_factor == max_pf)
        .collect();
    std::hint::black_box(select_bundles(&at_max));
}

/// The shard layer, from the traced `flow_paper` run: [`SWEEPS`] sweeps
/// of the pool's seeds through the supervisor, each recorded in
/// `agreement` so that it must match the in-process flow of its seed,
/// plus the spawn, coarse-stage and segment-read probes. `inprocess_ms`
/// is the untraced flow p50 of the same configuration.
///
/// # Errors
///
/// A probe that could not run (segment read, directory removal, spawn).
pub fn probe(
    run: &Run<'_>,
    report: &mut Report,
    seeds: &[u64],
    agreement: &mut Agreement<usize, (Vec<u8>, f64)>,
    inprocess_ms: f64,
) -> Result<(), String> {
    let par = parallelism();
    let mut walls = Vec::new();
    let (mut spawned, mut retries, mut reclaims) = (Vec::new(), 0.0, 0.0);
    let (mut segment_ms, mut segment_bytes) = (Vec::new(), Vec::new());
    for n in 0..SWEEPS {
        let dir = run.scratch.join(format!("sweep-{n}"));
        let seed_ix = n % seeds.len();
        report.attempted += 1;
        let (outcome, wall) = timed(|| sweep_once(&dir, paper_config(seeds[seed_ix], par)));
        if let Ok((_, shard_report)) = &outcome {
            let (ms, bytes) = read_segments(&dir, shard_report.shards)?;
            segment_ms.push(ms);
            segment_bytes.push(bytes);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        match outcome {
            Ok((out, shard_report)) => {
                walls.push(wall);
                let attempts = shard_report.shards - shard_report.reused_shards
                    + shard_report.retries as usize;
                spawned.push(attempts as f64);
                retries += f64::from(shard_report.retries);
                reclaims += f64::from(shard_report.lease_reclaims);
                agreement.observe(seed_ix, (canonical_output_bytes(&out), design_iou(&out)));
            }
            Err(_) => report.failed += 1,
        }
    }
    let sweep_ms = median(&walls);
    report.set("shard.sweep_ms", sweep_ms);
    report.set("shard.inprocess_ms", inprocess_ms);
    report.set("shard.overhead_ms", sweep_ms - inprocess_ms);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut spawn_failed = false;
    let spawn = median_ms(PROBE_REPS, Duration::ZERO, || {
        let status = Command::new(&exe)
            .arg(SPAWN_PROBE)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status();
        spawn_failed |= !matches!(status, Ok(s) if s.success());
    });
    if spawn_failed {
        return Err("the spawn probe failed".into());
    }
    report.set("shard.spawn_ms", spawn);
    let cfg = paper_config(seeds[0], par);
    report.set(
        "shard.coarse_ms",
        median_ms(PROBE_REPS, Duration::ZERO, || coarse_stage(&cfg)),
    );
    report.set("shard.segment_read_ms", median(&segment_ms));
    report.set("shard.segment_bytes", median(&segment_bytes));
    report.set("shard.workers_spawned", median(&spawned));
    report.set("shard.retries", retries);
    report.set("shard.lease_reclaims", reclaims);
    Ok(())
}
