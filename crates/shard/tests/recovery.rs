//! Recovery pins: a real `kill -9` mid-run, quarantine + restart, a
//! hung worker's lease reclaim, and a locked-out second supervisor.
//!
//! These tests exercise the supervision machinery against genuinely
//! dead processes, not simulated failures: the first SIGKILLs a live
//! worker found through its heartbeat file, the second poisons a shard
//! until quarantine and then restarts the sweep in the same directory
//! to show finished shards are reused and the final bytes still match
//! a clean run. Two more check that a silent worker is killed and its
//! shard recomputed, and that a second supervisor pointed at a
//! directory in use fails without touching the first run. The last
//! feeds both executors run directories they must refuse, with a typed
//! error and no panic.

use codesign_core::checkpoint::{CheckpointError, FlowCheckpoint, SweepSpec};
use codesign_core::flow::FlowConfig;
use codesign_dnn::bundle::BundleId;
use codesign_shard::supervisor::{run, ShardConfig};
use codesign_shard::worker::heartbeat_path;
use codesign_shard::{canonical_output_bytes, ShardError};
use codesign_sim::device::pynq_z1;
use codesign_store::{CodecError, TempDir};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn flow_config() -> FlowConfig {
    FlowConfig {
        targets_fps: vec![15.0],
        candidates_per_bundle: 2,
        coarse_pf_sweep: vec![16],
        ..FlowConfig::for_device(pynq_z1())
    }
}

fn shard_config(dir: PathBuf, workers: usize, fault_spec: Option<&str>) -> ShardConfig {
    ShardConfig {
        dir,
        flow: flow_config(),
        workers,
        shards: 2,
        max_retries: 2,
        lease: Duration::from_secs(60),
        worker_exe: PathBuf::from(env!("CARGO_BIN_EXE_codesign-shard")),
        fault_spec: fault_spec.map(str::to_string),
    }
}

/// Parses the `pid N` line of a heartbeat file.
fn heartbeat_pid(dir: &std::path::Path, shard: usize) -> Option<u32> {
    let body = std::fs::read_to_string(heartbeat_path(dir, shard)).ok()?;
    body.lines()
        .find_map(|line| line.strip_prefix("pid "))
        .and_then(|pid| pid.trim().parse().ok())
}

#[test]
fn kill_nine_mid_append_recovers_byte_identically() {
    let tmp = TempDir::new("codesign_shard_recovery").unwrap();
    let dir = tmp.join("kill9");
    // Per-cell delays keep each worker alive for seconds, so the kill
    // below lands mid-shard, after some appends and before others.
    let config = shard_config(dir.clone(), 2, Some("seed=1;shard.cell.delay=delay(250)"));

    let supervisor = {
        let config = config.clone();
        std::thread::spawn(move || run(&config))
    };

    // Find a live worker through its heartbeat and SIGKILL it. Retry
    // until one kill lands — a worker that already exited is ESRCH and
    // we just try the next poll.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut killed = false;
    'hunt: while Instant::now() < deadline {
        for shard in 0..2 {
            if let Some(pid) = heartbeat_pid(&dir, shard) {
                let status = std::process::Command::new("kill")
                    .args(["-9", &pid.to_string()])
                    .status()
                    .expect("spawn kill");
                if status.success() {
                    killed = true;
                    break 'hunt;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(killed, "never found a live worker to kill");

    let (output, report) = supervisor
        .join()
        .expect("supervisor thread")
        .expect("run survives a kill -9");
    assert!(
        report.retries >= 1,
        "the SIGKILL'd worker must have been retried, got {report:?}"
    );

    // Byte identity against a clean single-worker run (no faults, no
    // delays) in a fresh directory.
    let (clean, _) = run(&shard_config(tmp.join("kill9_ref"), 1, None)).expect("reference run");
    assert_eq!(
        canonical_output_bytes(&output),
        canonical_output_bytes(&clean),
        "output after kill -9 recovery differs from the clean run"
    );
}

#[test]
fn poison_shard_is_quarantined_then_restart_completes() {
    let tmp = TempDir::new("codesign_shard_recovery").unwrap();
    let dir = tmp.join("poison");
    // Shard 1 aborts on *every* attempt; with max_retries = 1 it burns
    // 2 attempts and is quarantined. Shard 0 completes normally.
    let mut config = shard_config(dir.clone(), 2, Some("seed=3;shard.worker.poison=panic@1"));
    config.max_retries = 1;
    match run(&config) {
        Err(ShardError::Quarantined { shards }) => assert_eq!(shards, vec![1]),
        other => panic!(
            "expected quarantine, got {:?}",
            other.map(|(_, report)| report)
        ),
    }

    // Restart the sweep in the same directory without the poison: the
    // finished shard is reused, the quarantined one recomputed.
    let restart = shard_config(dir, 2, None);
    let (output, report) = run(&restart).expect("restart completes");
    assert_eq!(
        report.reused_shards, 1,
        "the healthy shard's segment must be reused, got {report:?}"
    );

    let (clean, _) = run(&shard_config(tmp.join("poison_ref"), 1, None)).expect("reference run");
    assert_eq!(
        canonical_output_bytes(&output),
        canonical_output_bytes(&clean),
        "post-quarantine restart output differs from the clean run"
    );
}

#[test]
fn hung_worker_loses_its_lease_and_the_shard_is_recomputed() {
    let tmp = TempDir::new("codesign_shard_recovery").unwrap();
    // Shard 0's first attempt stops heartbeating before its first cell
    // and sleeps; the supervisor must kill it when its 300 ms lease
    // runs out and hand the shard to a second attempt.
    let mut config = shard_config(
        tmp.join("hang"),
        2,
        Some("seed=5;shard.worker.hang=panic@0"),
    );
    config.lease = Duration::from_millis(300);
    let (output, report) = run(&config).expect("run survives a hung worker");
    assert_eq!(report.lease_reclaims, 1, "{report:?}");
    assert_eq!(report.retries, 1, "{report:?}");

    let (clean, _) = run(&shard_config(tmp.join("hang_ref"), 1, None)).expect("reference run");
    assert_eq!(
        canonical_output_bytes(&output),
        canonical_output_bytes(&clean),
        "output after a lease reclaim differs from the clean run"
    );
}

#[test]
fn a_locked_out_second_supervisor_leaves_the_first_run_alone() {
    let tmp = TempDir::new("codesign_shard_recovery").unwrap();
    let dir = tmp.join("locked_out");
    // Run A, at 15 FPS: one worker, two shards and slow cells, so
    // shard 1's worker starts well after run B below has come and gone.
    let first = shard_config(dir.clone(), 1, Some("seed=1;shard.cell.delay=delay(150)"));
    let supervisor = {
        let first = first.clone();
        std::thread::spawn(move || run(&first))
    };

    // Wait for run A's first worker, then point run B, with another
    // config, at the same directory while A still holds it.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !dir.join("seg-0.log").exists() {
        assert!(Instant::now() < deadline, "run A never started a worker");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut second = shard_config(dir, 1, None);
    second.flow.targets_fps = vec![20.0];
    assert!(
        run(&second).is_err(),
        "a second supervisor on a held directory must fail"
    );

    let (output, _) = supervisor
        .join()
        .expect("supervisor thread")
        .expect("run A completes");
    let (clean, _) =
        run(&shard_config(tmp.join("locked_out_ref"), 1, None)).expect("reference run");
    assert_eq!(
        canonical_output_bytes(&output),
        canonical_output_bytes(&clean),
        "the locked-out supervisor changed the first run's output"
    );
}

#[test]
fn foreign_run_directories_are_typed_errors() {
    let tmp = TempDir::new("codesign_shard_recovery").unwrap();
    // A checksum-valid spec that selects a Bundle outside the paper's
    // enumeration. A checkpointed run reads the spec when it opens the
    // directory, before `run_checkpointed` is called.
    for bundle in [0, 99] {
        let config = shard_config(tmp.join(format!("bundle_{bundle}")), 1, None);
        std::fs::create_dir_all(&config.dir).unwrap();
        let spec = SweepSpec {
            config: config.flow.clone(),
            selected: vec![BundleId(bundle)],
            shards: 1,
        };
        spec.write(&config.dir).unwrap();
        let unknown = CodecError::InvalidTag {
            what: "bundle id",
            tag: bundle as u64,
        };
        match FlowCheckpoint::open(&config.dir, &config.flow) {
            Err(CheckpointError::Codec(e)) => assert_eq!(e, unknown),
            other => panic!("bundle {bundle}: checkpoint open gave {:?}", other.err()),
        }
        match run(&config) {
            Err(ShardError::Codec(e)) => assert_eq!(e, unknown),
            other => panic!("bundle {bundle}: sharded run gave {:?}", other.map(|o| o.1)),
        }
    }

    // A plain file where the directory belongs, as a checkpoint written
    // before checkpoints were directories would be.
    let file = tmp.join("plain_file");
    std::fs::write(&file, b"a single-file checkpoint").unwrap();
    let open = FlowCheckpoint::open(&file, &flow_config());
    assert!(
        matches!(open, Err(CheckpointError::Io(_))),
        "{:?}",
        open.err()
    );
    let sharded = run(&shard_config(file.clone(), 1, None));
    assert!(
        matches!(sharded, Err(ShardError::Io(_))),
        "{:?}",
        sharded.map(|o| o.1)
    );
}
