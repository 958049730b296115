//! The supervisor: spawn, lease, reclaim, retry, quarantine, merge.
//!
//! [`run`] executes the shared co-design recipe
//! ([`codesign_core::pipeline`]) with its SCD cells fanned out across
//! worker *processes* (not threads): the supervisor runs
//! `pipeline::coarse_stage` itself, writes the [`SweepSpec`], and then
//! drives a simple state machine over the shards —
//!
//! ```text
//! pending ──spawn──▶ running ──exit 0 + segment verified──▶ done
//!    ▲                  │
//!    │   nonzero exit / signal / lease expired (attempt += 1)
//!    └──────────────────┤
//!                       └── attempts > max_retries ──▶ quarantined
//! ```
//!
//! Liveness is lease-based: a running worker must bump its heartbeat
//! file at least once per lease period or the supervisor `SIGKILL`s it
//! and reclaims the shard. Exit status is *not* trusted on its own —
//! a worker that exits 0 with an incomplete segment (torn tail ate its
//! last cells) is treated as a failure and retried. Workers still
//! running when the supervisor returns — on success, cancellation or
//! an error — are killed and reaped.
//!
//! When every shard is done, the segments' cells are gathered into one
//! map by global cell index, and `pipeline::merge` and
//! `pipeline::finalize` — the same calls, on the same map, the
//! in-process flow makes — reproduce its [`FlowOutput`] byte for byte —
//! see
//! [`canonical_output_bytes`](crate::canonical_output_bytes) for what
//! "byte for byte" means. A run with quarantined shards returns
//! [`ShardError::Quarantined`] instead of a silently-partial output.

use codesign_core::checkpoint::config_fingerprint;
use codesign_core::flow::{DesignOutcome, FlowConfig, FlowOutput};
use codesign_core::observe::CancelState;
use codesign_core::pipeline;
use codesign_core::{AccuracyModel, CancelToken, Candidate};
use codesign_faults::SPEC_ENV;
use codesign_sim::report::CacheStats;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::manifest::{Manifest, PlanRecord};
use crate::segment::{read_segment, segment_path};
use crate::spec::SweepSpec;
use crate::worker::{heartbeat_path, ATTEMPT_ENV, DIR_ENV, INDEX_ENV, WORKER_ENV};
use crate::ShardError;

/// How the sharded run is laid out and supervised.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Directory holding spec, manifest, segments, and heartbeats.
    /// Created if absent; reusing a directory resumes its finished
    /// shards (same config required).
    pub dir: PathBuf,
    /// The flow configuration (its `parallelism` only affects the
    /// supervisor's own coarse stage; workers are single-threaded).
    pub flow: FlowConfig,
    /// Maximum worker processes alive at once (minimum 1).
    pub workers: usize,
    /// Number of shards to partition the grid into; `0` picks
    /// `2 × workers`, clamped to the cell count.
    pub shards: usize,
    /// Failed attempts a shard may accumulate beyond its first before
    /// being quarantined (`max_retries = 2` allows 3 attempts total).
    pub max_retries: u32,
    /// Heartbeat lease: a worker silent for this long is presumed hung
    /// and killed.
    pub lease: Duration,
    /// The worker binary — normally the supervisor's own executable.
    /// Tests pass `env!("CARGO_BIN_EXE_codesign-shard")`.
    pub worker_exe: PathBuf,
    /// Fault-plan spec to place in each worker's environment (see
    /// `codesign-faults`); `None` scrubs any inherited spec so chaos
    /// never leaks into workers by accident.
    pub fault_spec: Option<String>,
}

impl ShardConfig {
    /// A config with conservative supervision defaults: 2 workers,
    /// auto shard count, 2 retries, 30-second lease, this process's
    /// own executable as the worker.
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`] when the current executable cannot be
    /// resolved.
    pub fn new(dir: PathBuf, flow: FlowConfig) -> Result<Self, ShardError> {
        Ok(Self {
            dir,
            flow,
            workers: 2,
            shards: 0,
            max_retries: 2,
            lease: Duration::from_secs(30),
            worker_exe: std::env::current_exe()?,
            fault_spec: None,
        })
    }
}

/// What the supervision layer did, alongside the merged output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shards the grid was partitioned into.
    pub shards: usize,
    /// Total grid cells.
    pub cells: usize,
    /// Shards reused from a previous run's segments (verified, not
    /// recomputed).
    pub reused_shards: usize,
    /// Failed attempts that were retried.
    pub retries: u32,
    /// Leases reclaimed from silent workers (SIGKILL + reassign).
    pub lease_reclaims: u32,
}

struct Running {
    shard: usize,
    attempt: u32,
    child: Child,
    heartbeat: Option<Vec<u8>>,
    deadline: Instant,
}

/// The live worker processes. Dropping a `std::process::Child` does not
/// kill it, so every way out of the supervision loop — an error
/// included — goes through this guard, which kills and reaps them all.
struct Workers(Vec<Running>);

impl Drop for Workers {
    fn drop(&mut self) {
        for r in &mut self.0 {
            let _ = r.child.kill();
            let _ = r.child.wait();
        }
    }
}

/// Runs the sharded search to completion. Equivalent to
/// [`run_with_cancel`] with a token that never fires.
///
/// # Errors
///
/// See [`run_with_cancel`].
pub fn run(config: &ShardConfig) -> Result<(FlowOutput, ShardReport), ShardError> {
    run_with_cancel(config, &CancelToken::new())
}

/// Runs the sharded search to completion, checking `cancel` between
/// supervision steps (a fired token kills every worker and returns
/// [`ShardError::Cancelled`]).
///
/// The output's decisions — coarse evaluations, selection, candidates
/// and designs — are bit-identical to the in-process flow's. Two fields
/// are not: `cache_stats` is zeroed, because the worker caches die with
/// their processes, and every design's `measured_iou` is `None`,
/// because measured quantization is an in-process flow option only.
///
/// # Errors
///
/// [`ShardError::Quarantined`] when any shard exhausted its retry
/// budget; [`ShardError::Spec`] when the directory holds a different
/// run's plan; plus I/O, log, and flow failures.
pub fn run_with_cancel(
    config: &ShardConfig,
    cancel: &CancelToken,
) -> Result<(FlowOutput, ShardReport), ShardError> {
    config.flow.validate()?;
    std::fs::create_dir_all(&config.dir)?;
    let cfg = &config.flow;

    // The coarse stage runs in-process: it is cheap, fully
    // deterministic, and its output (the Bundle selection) is an input
    // to the sharding plan itself.
    let (coarse, selected) = pipeline::coarse_stage(cfg, &AccuracyModel::paper_calibrated())?;

    let cells = pipeline::cells(&cfg.targets_fps, &selected);
    let workers = config.workers.max(1);
    let shards = match config.shards {
        0 => 2 * workers,
        n => n,
    }
    .clamp(1, cells.len().max(1));
    let spec = SweepSpec {
        config: cfg.clone(),
        selected: selected.clone(),
        shards,
    };
    spec.write(&config.dir)?;

    // Manifest: open (exclusive — a second supervisor is locked out),
    // replay, and either verify or record the plan.
    let (mut manifest, state) = Manifest::open(&config.dir)?;
    let plan = PlanRecord {
        fingerprint: config_fingerprint(cfg),
        shards,
        cells: cells.len(),
    };
    match state.plan {
        None => manifest.record_plan(plan)?,
        Some(existing) if existing == plan => {}
        Some(existing) => {
            return Err(ShardError::Spec(format!(
                "shard directory holds a different run's plan \
                 (found {existing:?}, this run is {plan:?}) — use a fresh directory"
            )));
        }
    }

    // A shard is complete when its segment covers every cell it owns.
    let complete = |shard: usize| -> Result<bool, ShardError> {
        let covered = read_segment(&segment_path(&config.dir, shard))?;
        Ok(spec.shard_cells(shard).all(|i| covered.contains_key(&i)))
    };

    // Re-verify previously-Done shards against their segments; a
    // recorded Done whose segment lost cells (tampering, partial copy)
    // is demoted and recomputed rather than trusted.
    let mut done: BTreeSet<usize> = BTreeSet::new();
    for &shard in &state.done {
        if shard < shards && complete(shard)? {
            done.insert(shard);
        }
    }
    let mut report = ShardReport {
        shards,
        cells: cells.len(),
        reused_shards: done.len(),
        retries: 0,
        lease_reclaims: 0,
    };

    let mut pending: VecDeque<usize> = (0..shards).filter(|s| !done.contains(s)).collect();
    let mut attempts: Vec<u32> = vec![0; shards];
    let mut quarantined: BTreeSet<usize> = BTreeSet::new();
    let mut running = Workers(Vec::new());

    while done.len() + quarantined.len() < shards {
        if cancel.state() != CancelState::Live {
            return Err(ShardError::Cancelled);
        }

        // Spawn up to the worker budget.
        while running.0.len() < workers {
            let Some(shard) = pending.pop_front() else {
                break;
            };
            let attempt = attempts[shard];
            let mut cmd = Command::new(&config.worker_exe);
            cmd.env(WORKER_ENV, "1")
                .env(DIR_ENV, &config.dir)
                .env(INDEX_ENV, shard.to_string())
                .env(ATTEMPT_ENV, attempt.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit());
            match &config.fault_spec {
                Some(s) => cmd.env(SPEC_ENV, s),
                None => cmd.env_remove(SPEC_ENV),
            };
            let child = cmd.spawn()?;
            let pid = child.id();
            running.0.push(Running {
                shard,
                attempt,
                child,
                heartbeat: None,
                deadline: Instant::now() + config.lease,
            });
            manifest.record_claim(shard, attempt, pid)?;
        }

        // Poll back to front, so `swap_remove` only moves entries that
        // were already polled.
        for idx in (0..running.0.len()).rev() {
            let r = &mut running.0[idx];
            let failure = if let Some(status) = r.child.try_wait()? {
                if !status.success() {
                    Some(format!("worker {status}"))
                } else if complete(r.shard)? {
                    manifest.record_done(r.shard, r.attempt)?;
                    done.insert(r.shard);
                    None
                } else {
                    Some("exited 0 with incomplete segment".to_string())
                }
            } else {
                // Still running: lease bookkeeping off the heartbeat file.
                let beat = std::fs::read(heartbeat_path(&config.dir, r.shard)).ok();
                if beat.is_some() && beat != r.heartbeat {
                    r.heartbeat = beat;
                    r.deadline = Instant::now() + config.lease;
                    continue;
                }
                if Instant::now() <= r.deadline {
                    continue;
                }
                let _ = r.child.kill();
                let _ = r.child.wait();
                report.lease_reclaims += 1;
                Some("lease expired (no heartbeat)".to_string())
            };
            let r = running.0.swap_remove(idx);
            let Some(reason) = failure else {
                continue;
            };
            manifest.record_failed(r.shard, r.attempt, &reason)?;
            attempts[r.shard] += 1;
            if attempts[r.shard] > config.max_retries {
                manifest.record_quarantined(r.shard, attempts[r.shard])?;
                quarantined.insert(r.shard);
            } else {
                report.retries += 1;
                pending.push_back(r.shard);
            }
        }

        std::thread::sleep(Duration::from_millis(15));
    }
    if !quarantined.is_empty() {
        return Err(ShardError::Quarantined {
            shards: quarantined.into_iter().collect(),
        });
    }

    // Merge: segments in canonical shard order, keyed by global cell
    // index. Workers are reaped, so segment locks are stale at worst.
    let mut by_cell: BTreeMap<usize, Vec<Candidate>> = BTreeMap::new();
    for shard in 0..shards {
        by_cell.append(&mut read_segment(&segment_path(&config.dir, shard))?);
    }
    let missing: Vec<usize> = (0..cells.len())
        .filter(|i| !by_cell.contains_key(i))
        .collect();
    if !missing.is_empty() {
        return Err(ShardError::IncompleteMerge { missing });
    }

    let (candidates, best_per_target) = pipeline::merge(cfg, &cells, &by_cell);
    let mut designs: Vec<DesignOutcome> = Vec::new();
    for (fps, best) in &best_per_target {
        if cancel.state() != CancelState::Live {
            return Err(ShardError::Cancelled);
        }
        // Measured quantization is an in-process flow option only.
        designs.push(pipeline::finalize(cfg, *fps, best, None)?);
    }

    let output = FlowOutput {
        coarse,
        selected_bundles: selected,
        candidates,
        designs,
        // Worker caches died with their processes; the merged output
        // carries zeroed stats, consistent with "cache stats describe
        // the run, not the answer".
        cache_stats: CacheStats::default(),
    };
    Ok((output, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_resolves_current_exe() {
        let cfg = ShardConfig::new(
            std::env::temp_dir().join("codesign_shard_cfg"),
            FlowConfig::for_device(codesign_sim::device::pynq_z1()),
        )
        .unwrap();
        assert!(!cfg.worker_exe.as_os_str().is_empty());
        assert_eq!(cfg.shards, 0);
        assert_eq!(cfg.max_retries, 2);
    }

    fn small_config(dir: PathBuf) -> ShardConfig {
        let _ = std::fs::remove_dir_all(&dir);
        let flow = FlowConfig {
            targets_fps: vec![15.0],
            candidates_per_bundle: 2,
            coarse_pf_sweep: vec![16],
            ..FlowConfig::for_device(codesign_sim::device::pynq_z1())
        };
        ShardConfig::new(dir, flow).unwrap()
    }

    #[test]
    fn spawn_failure_surfaces_as_io_error() {
        let dir =
            std::env::temp_dir().join(format!("codesign_shard_badexe_{}", std::process::id()));
        let mut cfg = small_config(dir.clone());
        cfg.worker_exe = PathBuf::from("/nonexistent/worker/binary");
        match run(&cfg) {
            Err(ShardError::Io(_)) => {}
            other => panic!("expected Io error, got {:?}", other.map(|(_, r)| r)),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn an_early_error_kills_the_running_workers() {
        use std::os::unix::fs::PermissionsExt;
        let dir =
            std::env::temp_dir().join(format!("codesign_shard_orphan_{}", std::process::id()));
        let mut cfg = small_config(dir.clone());
        cfg.workers = 2;
        cfg.shards = 2;
        std::fs::create_dir_all(&dir).unwrap();
        // Shard 1 records its pid and sleeps; shard 0 waits for that,
        // then leaves a segment that fails to decode and exits 0, so the
        // supervisor errors out while shard 1 is still running.
        let script = dir.join("worker.sh");
        std::fs::write(
            &script,
            r#"#!/bin/sh
d="$CODESIGN_SHARD_DIR"
if [ "$CODESIGN_SHARD_INDEX" = 1 ]; then
    echo $$ > "$d/pid.tmp" && mv "$d/pid.tmp" "$d/pid-1"
    exec sleep 30
fi
while [ ! -f "$d/pid-1" ]; do sleep 0.01; done
printf 'junk-junk-junk-junk!' > "$d/seg-0.log"
"#,
        )
        .unwrap();
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
        cfg.worker_exe = script;

        assert!(run(&cfg).is_err(), "a junk segment must fail the run");
        let pid = std::fs::read_to_string(dir.join("pid-1")).unwrap();
        let alive = Command::new("sh")
            .args(["-c", &format!("kill -0 {}", pid.trim())])
            .stderr(Stdio::null())
            .status()
            .unwrap()
            .success();
        assert!(
            !alive,
            "shard 1's worker (pid {}) outlived the supervisor",
            pid.trim()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
