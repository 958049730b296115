//! The supervisor: spawn, lease, reclaim, retry, quarantine.
//!
//! [`run`] hands the co-design recipe to the flow's own driver
//! ([`CoDesignFlow::run_with`]), which runs the coarse stage, pins the
//! plan in the run directory's spec, merges, finalizes and assembles
//! the output exactly as the in-process flow does. The supervisor
//! supplies only the SCD stage: it fans the grid's shards out across
//! worker *processes* (not threads) and drives a simple state machine
//! over them —
//!
//! ```text
//! pending ──spawn──▶ running ──exit 0 + segment verified──▶ done
//!    ▲                  │
//!    │   nonzero exit / signal / lease expired (attempt += 1)
//!    └──────────────────┤
//!                       └── attempts > max_retries ──▶ quarantined
//! ```
//!
//! A shard directory is a run directory
//! ([`codesign_core::checkpoint`]) and holds no supervision state of
//! its own: it is `spec.bin` plus one segment log per shard, and a
//! restart reuses every shard whose segment already covers its cells.
//! The supervisor opens it through the same [`FlowCheckpoint::open`] a
//! checkpointed in-process run uses: its lock, taken before `spec.bin`
//! is read or written, keeps a second run out of a directory in use,
//! and a restart with a different config, selection or shard count
//! fails. So either executor can finish a directory the other started,
//! and the supervisor keeps the directory when it is done.
//!
//! Liveness is a pipe: each worker's stdout is read by one thread that
//! forwards every read to a channel, and the supervisor blocks on that
//! channel until the earliest lease deadline. A byte renews the
//! worker's lease; a worker silent for a whole lease is `SIGKILL`ed and
//! its shard reclaimed; end of file means the worker exited, and it is
//! reaped. Exit status is *not* trusted on its own — a worker that
//! exits 0 with an incomplete segment (torn tail ate its last cells) is
//! treated as a failure and retried. Each failed attempt prints one
//! line with its reason to stderr. Workers still running when the
//! supervisor returns — on success or on an error — are killed and
//! reaped.
//!
//! Each verified segment's cells join the stage's map by global cell
//! index, so the driver merges and finalizes the same map the
//! in-process flow would — see
//! [`canonical_output_bytes`](crate::canonical_output_bytes) for what
//! "byte for byte" means. A run with quarantined shards returns
//! [`ShardError::Quarantined`] instead of a silently-partial output.

use codesign_core::checkpoint::{read_segment, segment_path, FlowCheckpoint};
use codesign_core::flow::{CoDesignFlow, FlowConfig, FlowOutput, ScdStage};
use codesign_core::observe::{CancelToken, NullObserver};
use codesign_faults::SPEC_ENV;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::worker::{ATTEMPT_ENV, DIR_ENV, INDEX_ENV, WORKER_ENV};
use crate::ShardError;

/// How the sharded run is laid out and supervised.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// The run directory: the spec, the segments, the workers' pid
    /// files and the run's lock. Created if absent; reusing a
    /// directory resumes its finished shards (same config required).
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
    /// Heartbeat window: a worker that writes nothing to its stdout
    /// pipe for this long is presumed hung and killed.
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

/// One read off a worker's stdout pipe: `(shard, attempt, eof)`, where
/// `eof` is false for some bytes and true for end of file.
type Event = (usize, u32, bool);

struct Running {
    shard: usize,
    attempt: u32,
    child: Child,
    reader: JoinHandle<()>,
    deadline: Instant,
}

impl Running {
    /// Kills the child when `kill`, reaps it, then joins its pipe
    /// reader, which has seen end of file once the child is gone.
    fn reap(mut self, kill: bool) -> io::Result<ExitStatus> {
        if kill {
            let _ = self.child.kill();
        }
        let status = self.child.wait();
        let _ = self.reader.join();
        status
    }
}

/// The live worker processes. Dropping a `std::process::Child` does not
/// kill it, so every way out of the supervision loop — an error
/// included — goes through this guard, which kills and reaps them all.
struct Workers(Vec<Running>);

impl Drop for Workers {
    fn drop(&mut self) {
        for r in self.0.drain(..) {
            let _ = r.reap(true);
        }
    }
}

/// Starts a worker on `shard` with its stdout piped to a reader thread
/// that forwards each read to `events`.
fn spawn(
    config: &ShardConfig,
    shard: usize,
    attempt: u32,
    events: &Sender<Event>,
) -> Result<Running, ShardError> {
    let mut cmd = Command::new(&config.worker_exe);
    cmd.env(WORKER_ENV, "1")
        .env(DIR_ENV, &config.dir)
        .env(INDEX_ENV, shard.to_string())
        .env(ATTEMPT_ENV, attempt.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    match &config.fault_spec {
        Some(s) => cmd.env(SPEC_ENV, s),
        None => cmd.env_remove(SPEC_ENV),
    };
    let mut child = cmd.spawn()?;
    let mut pipe = child.stdout.take().expect("stdout is piped");
    let events = events.clone();
    let reader = std::thread::Builder::new().spawn(move || {
        let mut buf = [0u8; 64];
        loop {
            let eof = match pipe.read(&mut buf) {
                Ok(n) => n == 0,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => true,
            };
            if events.send((shard, attempt, eof)).is_err() || eof {
                return;
            }
        }
    });
    let reader = reader.inspect_err(|_| {
        let _ = child.kill();
        let _ = child.wait();
    })?;
    Ok(Running {
        shard,
        attempt,
        child,
        reader,
        deadline: Instant::now() + config.lease,
    })
}

/// Runs the sharded search to completion.
///
/// The flow's own driver ([`CoDesignFlow::run_with`]) runs the recipe
/// around the SCD stage; this supplies the stage's worker processes.
/// The output's decisions — coarse evaluations, selection, candidates
/// and designs — are bit-identical to the in-process flow's. Two fields
/// are not: `cache_stats` is zeroed, because the worker caches die with
/// their processes, and every design's `measured_iou` is `None`,
/// because measured quantization is an in-process flow option only.
///
/// # Errors
///
/// [`ShardError::Log`] with
/// [`LogError::Locked`](codesign_store::LogError::Locked) when another
/// live run holds the directory; [`ShardError::Quarantined`] when any
/// shard exhausted its retry budget; [`ShardError::Spec`] when the
/// directory holds a different run's spec, and [`ShardError::Codec`]
/// when its spec does not decode; plus I/O, log, and flow failures.
pub fn run(config: &ShardConfig) -> Result<(FlowOutput, ShardReport), ShardError> {
    config.flow.validate()?;
    // Holds the directory's lock until this function returns: one run
    // per directory, and any spec in it is this config's.
    let ckpt = FlowCheckpoint::open(&config.dir, &config.flow)?;
    let shards = match config.shards {
        0 => 2 * config.workers.max(1),
        n => n,
    };
    let mut report = ShardReport::default();
    let search = |stage: ScdStage<'_>| supervise(config, stage, &mut report);
    let output = CoDesignFlow::new(config.flow.clone()).run_with(
        Some(&ckpt),
        Some(shards),
        &NullObserver,
        &CancelToken::new(),
        search,
    )?;
    Ok((output, report))
}

/// The SCD stage on worker processes: runs every shard whose cells
/// the stage has not found yet, and adds each finished segment's cells.
fn supervise(
    config: &ShardConfig,
    stage: ScdStage<'_>,
    report: &mut ShardReport,
) -> Result<(), ShardError> {
    let spec = stage.spec.expect("a run with a directory has a plan");
    let shards = spec.shards;
    // A shard is complete when `cells` holds every cell it owns.
    let covers =
        |cells: &BTreeMap<usize, _>, shard| spec.shard_cells(shard).all(|i| cells.contains_key(&i));
    let mut done: BTreeSet<usize> = (0..shards).filter(|&s| covers(stage.found, s)).collect();
    report.shards = shards;
    report.cells = stage.cells.len();
    report.reused_shards = done.len();

    let mut pending: VecDeque<usize> = (0..shards).filter(|s| !done.contains(s)).collect();
    let mut attempts: Vec<u32> = vec![0; shards];
    let mut quarantined: BTreeSet<usize> = BTreeSet::new();
    let (events, inbox) = mpsc::channel();
    let mut guard = Workers(Vec::new());
    let running = &mut guard.0;

    while done.len() + quarantined.len() < shards {
        // Spawn up to the worker budget.
        while running.len() < config.workers.max(1) {
            let Some(shard) = pending.pop_front() else {
                break;
            };
            running.push(spawn(config, shard, attempts[shard], &events)?);
        }

        // Every unfinished shard is pending or running, and the budget
        // is at least 1, so something is running here.
        let deadline = running.iter().map(|r| r.deadline).min();
        let wait = deadline.map_or(Duration::ZERO, |d| {
            d.saturating_duration_since(Instant::now())
        });
        let mut failures: Vec<(usize, u32, String)> = Vec::new();
        match inbox.recv_timeout(wait) {
            Ok((shard, attempt, eof)) => {
                // Reads from an attempt already reclaimed match nothing.
                let Some(idx) = running
                    .iter()
                    .position(|r| r.shard == shard && r.attempt == attempt)
                else {
                    continue;
                };
                if !eof {
                    running[idx].deadline = Instant::now() + config.lease;
                    continue;
                }
                let status = running.swap_remove(idx).reap(false)?;
                let reason = if status.success() {
                    // The worker is reaped, so its segment is final.
                    let segment = read_segment(&segment_path(&config.dir, shard))?;
                    if covers(&segment, shard) {
                        stage.found.extend(segment);
                        done.insert(shard);
                        continue;
                    }
                    "exited 0 with incomplete segment".to_string()
                } else {
                    format!("worker {status}")
                };
                failures.push((shard, attempt, reason));
            }
            Err(_) => {
                let now = Instant::now();
                for idx in (0..running.len()).rev() {
                    if running[idx].deadline > now {
                        continue;
                    }
                    let r = running.swap_remove(idx);
                    failures.push((r.shard, r.attempt, "lease expired (no heartbeat)".into()));
                    report.lease_reclaims += 1;
                    r.reap(true)?;
                }
            }
        }
        for (shard, attempt, reason) in failures {
            eprintln!("codesign-shard: shard {shard} attempt {attempt} failed: {reason}");
            attempts[shard] += 1;
            if attempts[shard] > config.max_retries {
                quarantined.insert(shard);
            } else {
                report.retries += 1;
                pending.push_back(shard);
            }
        }
    }
    if !quarantined.is_empty() {
        return Err(ShardError::Quarantined {
            shards: quarantined.into_iter().collect(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_core::checkpoint::{LOCK_FILE, SPEC_FILE};
    use codesign_store::{LockFile, LogError, TempDir};

    #[test]
    fn default_config_resolves_current_exe() {
        let cfg = ShardConfig::new(
            PathBuf::from("codesign_shard_cfg"),
            FlowConfig::for_device(codesign_sim::device::pynq_z1()),
        )
        .unwrap();
        assert!(!cfg.worker_exe.as_os_str().is_empty());
        assert_eq!(cfg.shards, 0);
        assert_eq!(cfg.max_retries, 2);
    }

    fn small_config(dir: &TempDir) -> ShardConfig {
        let flow = FlowConfig {
            targets_fps: vec![15.0],
            candidates_per_bundle: 2,
            coarse_pf_sweep: vec![16],
            ..FlowConfig::for_device(codesign_sim::device::pynq_z1())
        };
        ShardConfig::new(dir.path().to_owned(), flow).unwrap()
    }

    #[test]
    fn spawn_failure_surfaces_as_io_error() {
        let dir = TempDir::new("codesign_shard_badexe").unwrap();
        let mut cfg = small_config(&dir);
        cfg.worker_exe = PathBuf::from("/nonexistent/worker/binary");
        match run(&cfg) {
            Err(ShardError::Io(_)) => {}
            other => panic!("expected Io error, got {:?}", other.map(|(_, r)| r)),
        }
    }

    #[test]
    fn second_supervisor_on_same_dir_is_locked_out() {
        let dir = TempDir::new("codesign_shard_locked").unwrap();
        let cfg = small_config(&dir);
        let _first = LockFile::acquire(&dir.join(LOCK_FILE)).unwrap();
        match run(&cfg) {
            Err(ShardError::Log(LogError::Locked { .. })) => {}
            other => panic!("expected Locked, got {:?}", other.map(|(_, r)| r)),
        }
        assert!(
            !dir.join(SPEC_FILE).exists(),
            "a locked-out supervisor must not write the spec"
        );
    }

    #[cfg(unix)]
    #[test]
    fn an_early_error_kills_the_running_workers() {
        use std::os::unix::fs::PermissionsExt;
        let dir = TempDir::new("codesign_shard_orphan").unwrap();
        let mut cfg = small_config(&dir);
        cfg.workers = 2;
        cfg.shards = 2;
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
    }
}
