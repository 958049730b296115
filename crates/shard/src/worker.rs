//! The worker-process side of the sharded search.
//!
//! A worker is a re-exec of the supervisor's own binary with a handful
//! of environment variables (see the `*_ENV` constants) naming the
//! shard directory, the shard index, and the attempt number. It reads
//! the [`SweepSpec`], derives its contiguous cell range from the shard
//! index alone, computes each cell with the shared recipe
//! ([`pipeline::run_cell`], with the estimator [`pipeline::Estimators`]
//! fits on the Bundle's first cell), and appends one record per cell to
//! its private segment log. Everything a cell computes is seeded from what
//! the cell *is*, so two attempts at the same shard — including an
//! attempt resuming after its predecessor was `kill -9`'d mid-append —
//! write byte-identical records. Those are the records a checkpointed
//! in-process run appends to segment 0 of its run directory, so shard
//! 0 of a one-shard sweep resumes whatever such a run left there.
//!
//! [`pipeline::run_cell`]: codesign_core::pipeline::run_cell
//! [`pipeline::Estimators`]: codesign_core::pipeline::Estimators
//!
//! # Liveness protocol
//!
//! The worker's stdout is a pipe to its supervisor. Before each cell
//! the worker writes one byte to it and flushes; the supervisor
//! considers a worker hung when nothing arrives for a full lease period
//! and reclaims the shard with `SIGKILL`. A write that fails means the
//! supervisor is gone, and the worker stops. The only file a worker
//! writes besides its segment is [`heartbeat_path`], once, at start:
//! `pid N`, so that tools and tests can find a live worker.
//!
//! # Fault sites
//!
//! Deterministic chaos hooks (see `codesign-faults`), all keyed by
//! shard index except the per-cell delay:
//!
//! * `shard.worker.crash` — on attempt 0, abort mid-append after half
//!   the shard's pending cells, leaving a torn frame at the tail.
//! * `shard.worker.poison` — abort on *every* attempt: the shard can
//!   only be quarantined.
//! * `shard.worker.hang` — on attempt 0, stop writing to the pipe and
//!   sleep until the lease reaper kills the process.
//! * `shard.cell.delay` — sleep before computing a cell (keyed by the
//!   cell's global index), widening race windows for kill tests.

use codesign_core::checkpoint::{encode_cell, open_segment, segment_path, SweepSpec};
use codesign_core::flow::FlowError;
use codesign_core::pipeline::{run_cell, Cell, Estimators};
use codesign_core::AccuracyModel;
use codesign_faults::{plan_from_env, FaultAction, FaultPlan};
use codesign_hls::cache::EstimateCache;
use codesign_store::ByteWriter;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::ShardError;

/// Set (to any value) to make the binary run as a worker.
pub const WORKER_ENV: &str = "CODESIGN_SHARD_WORKER";
/// The run directory (spec, segments, pid files).
pub const DIR_ENV: &str = "CODESIGN_SHARD_DIR";
/// This worker's shard index.
pub const INDEX_ENV: &str = "CODESIGN_SHARD_INDEX";
/// Attempt number for this shard (0 on first assignment).
pub const ATTEMPT_ENV: &str = "CODESIGN_SHARD_ATTEMPT";

/// Path of the file in which shard `shard`'s latest worker records its
/// pid (`pid N`) inside a shard directory.
pub fn heartbeat_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("hb-{shard}"))
}

/// Worker-mode entry point, called first thing in `main`. When the
/// worker environment is absent this returns immediately; when present
/// it runs the shard to completion and **exits the process** (0 on
/// success, 1 on error) — worker processes never fall through into the
/// CLI.
pub fn maybe_run_worker() {
    if std::env::var_os(WORKER_ENV).is_none() {
        return;
    }
    match run_worker_from_env() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("codesign-shard worker failed: {e}");
            std::process::exit(1);
        }
    }
}

fn env_usize(name: &str) -> Result<usize, ShardError> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ShardError::Spec(format!("missing or invalid {name} in worker env")))
}

fn run_worker_from_env() -> Result<(), ShardError> {
    let dir = std::env::var_os(DIR_ENV)
        .map(PathBuf::from)
        .ok_or_else(|| ShardError::Spec(format!("missing {DIR_ENV} in worker env")))?;
    let shard = env_usize(INDEX_ENV)?;
    let attempt = env_usize(ATTEMPT_ENV)?;
    let faults = plan_from_env().map_err(|e| ShardError::Spec(e.to_string()))?;
    run_worker(&dir, shard, attempt, faults.as_deref())
}

/// Records this worker's pid at [`heartbeat_path`] via temp + rename.
/// Best-effort: the file only helps find a live worker, so a failure
/// to write it must not kill a healthy one.
fn record_pid(dir: &Path, shard: usize) {
    let tmp = dir.join(format!("hb-{shard}.tmp"));
    if std::fs::write(&tmp, format!("pid {}\n", std::process::id())).is_ok() {
        let _ = std::fs::rename(&tmp, heartbeat_path(dir, shard));
    }
}

fn triggered(faults: Option<&FaultPlan>, site: &str, index: u64) -> Option<FaultAction> {
    let plan = faults?;
    match plan.decide_at(site, index) {
        FaultAction::Proceed => None,
        action => Some(action),
    }
}

/// Runs one shard to completion: read the spec, resume the segment,
/// compute every remaining cell, append, sync, done.
///
/// # Errors
///
/// Spec/segment/calibration failures; injected faults abort or hang
/// the process instead of returning.
pub fn run_worker(
    dir: &Path,
    shard: usize,
    attempt: usize,
    faults: Option<&FaultPlan>,
) -> Result<(), ShardError> {
    let spec = SweepSpec::read(dir)?;
    if shard >= spec.shards {
        return Err(ShardError::Spec(format!(
            "shard index {shard} out of range 0..{}",
            spec.shards
        )));
    }

    record_pid(dir, shard);

    // Poison: this shard aborts on every attempt — only quarantine
    // ends it.
    if triggered(faults, "shard.worker.poison", shard as u64).is_some() {
        std::process::abort();
    }

    let cells = spec.cells();
    let range = spec.shard_cells(shard);
    let (mut log, done) = open_segment(&segment_path(dir, shard))?;
    let pending: Vec<&Cell> = cells[range]
        .iter()
        .filter(|c| !done.contains_key(&c.index))
        .collect();

    // Crash: on the first attempt, die mid-append after half the
    // pending cells — the retry resumes from the torn tail.
    let crash_after =
        if attempt == 0 && triggered(faults, "shard.worker.crash", shard as u64).is_some() {
            Some(pending.len() / 2)
        } else {
            None
        };
    // Hang: on the first attempt, go silent and wait for the lease
    // reaper.
    let hang = attempt == 0 && triggered(faults, "shard.worker.hang", shard as u64).is_some();

    let cfg = &spec.config;
    let model = AccuracyModel::paper_calibrated();
    // Calibration is deterministic per Bundle × device, so workers that
    // share a Bundle agree with each other and with the in-process flow.
    let estimators = Estimators::new(&cfg.device, Arc::new(EstimateCache::new()));
    let mut pipe = std::io::stdout().lock();
    for (appended, cell) in pending.iter().enumerate() {
        // One byte renews the lease; a failed write means the
        // supervisor is gone.
        pipe.write_all(b".")?;
        pipe.flush()?;

        if crash_after == Some(appended) {
            // Simulate a power-cut / SIGKILL mid-append: a frame header
            // promising more payload than will ever arrive, then abort
            // without unwinding.
            let _ = std::fs::OpenOptions::new()
                .append(true)
                .open(segment_path(dir, shard))
                .and_then(|mut f| {
                    f.write_all(&1_000u32.to_le_bytes())?;
                    f.write_all(&0xdead_beef_dead_beefu64.to_le_bytes())?;
                    f.write_all(&[0xab; 13])?;
                    f.sync_all()
                });
            std::process::abort();
        }
        if hang {
            // Stay silent forever; the supervisor's lease reaper will
            // SIGKILL us once the lease expires.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        if let Some(FaultAction::Delay(d)) =
            triggered(faults, "shard.cell.delay", cell.index as u64)
        {
            std::thread::sleep(d);
        }

        let estimator = estimators
            .get(cell.bundle, || {})
            .map_err(FlowError::from)?;
        let found = run_cell(cfg, cell, estimator, &model);
        let mut record = ByteWriter::new();
        encode_cell(&mut record, cell.index, &found);
        log.append(record.as_bytes())?;
    }
    // Edge case: a crash shard with nothing pending (all cells resumed
    // from the segment) still has to die on attempt 0 so the injection
    // is observable; there is no append to tear, so a plain abort.
    if crash_after.is_some() && pending.is_empty() {
        std::process::abort();
    }
    log.sync()?;
    Ok(())
}
