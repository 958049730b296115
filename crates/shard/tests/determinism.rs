//! The headline pin: sharded output is byte-identical to the
//! in-process flow at any worker count, with or without injected
//! worker crashes.
//!
//! Identity is asserted over [`canonical_output_bytes`] — the same
//! artifact the CI smoke leg `cmp`s — so "the same result" means the
//! same coarse records, Bundle selection, Pareto candidates, finalized
//! design points, objectives, and generated-C checksums, byte for
//! byte. The same holds for a directory a checkpointed in-process run
//! was interrupted in and the supervisor finished, and for a directory
//! the supervisor left with a quarantined shard and a checkpointed run
//! finished.

use codesign_core::checkpoint::FlowCheckpoint;
use codesign_core::flow::{CoDesignFlow, FlowConfig, FlowError};
use codesign_core::observe::{CancelToken, FlowEvent, NullObserver};
use codesign_core::Parallelism;
use codesign_shard::supervisor::{run, ShardConfig};
use codesign_shard::{canonical_output_bytes, ShardError};
use codesign_sim::device::pynq_z1;
use codesign_sim::report::CacheStats;
use codesign_store::TempDir;
use std::path::PathBuf;
use std::time::Duration;

/// The in-process legs (the direct flow, the checkpointed run and the
/// supervisor's coarse stage) run at `CODESIGN_PARALLELISM` workers, as
/// CI's determinism matrix sets it; workers are single-threaded.
fn flow_config() -> FlowConfig {
    FlowConfig {
        targets_fps: vec![15.0],
        candidates_per_bundle: 2,
        coarse_pf_sweep: vec![16],
        parallelism: Parallelism::from_env("CODESIGN_PARALLELISM"),
        ..FlowConfig::for_device(pynq_z1())
    }
}

fn shard_config(dir: PathBuf, workers: usize, fault_spec: Option<&str>) -> ShardConfig {
    ShardConfig {
        dir,
        flow: flow_config(),
        workers,
        shards: 4,
        max_retries: 2,
        lease: Duration::from_secs(60),
        // Never default to current_exe here: the test harness binary
        // would re-run the whole suite in every "worker".
        worker_exe: PathBuf::from(env!("CARGO_BIN_EXE_codesign-shard")),
        fault_spec: fault_spec.map(str::to_string),
    }
}

#[test]
fn sharded_output_matches_in_process_flow_at_any_worker_count() {
    let tmp = TempDir::new("codesign_shard_determinism").unwrap();
    let direct = CoDesignFlow::new(flow_config()).run().expect("direct flow");
    let direct_bytes = canonical_output_bytes(&direct);

    let (out_1, report_1) = run(&shard_config(tmp.join("w1"), 1, None)).expect("1-worker run");
    let (out_4, report_4) = run(&shard_config(tmp.join("w4"), 4, None)).expect("4-worker run");

    assert_eq!(
        canonical_output_bytes(&out_1),
        direct_bytes,
        "1-worker sharded output differs from the in-process flow"
    );
    assert_eq!(
        canonical_output_bytes(&out_4),
        direct_bytes,
        "4-worker sharded output differs from the in-process flow"
    );

    // The grid is (1 target × selected Bundles × 2 arms).
    let expected_cells = direct.selected_bundles.len() * 2;
    assert_eq!(report_1.cells, expected_cells);
    assert_eq!(report_4.cells, expected_cells);
    assert_eq!(report_1.shards, 4);
    assert_eq!(report_1.retries, 0, "clean run must not retry");
    assert_eq!(report_4.retries, 0, "clean run must not retry");
    assert_eq!(report_4.lease_reclaims, 0);

    // The designs themselves (not just their bytes) agree.
    assert_eq!(direct.candidates, out_4.candidates);
    assert_eq!(direct.designs.len(), out_4.designs.len());
    for (a, b) in direct.designs.iter().zip(&out_4.designs) {
        assert_eq!(a.point, b.point);
        assert_eq!(a.code, b.code);
    }

    // The two fields the canonical bytes leave out describe the run:
    // no sharded design is measured, and worker caches die with their
    // processes.
    for out in [&out_1, &out_4] {
        assert!(out.designs.iter().all(|d| d.measured_iou.is_none()));
        assert_eq!(out.cache_stats, CacheStats::default());
    }
}

#[test]
fn injected_crashes_do_not_change_a_bit() {
    let tmp = TempDir::new("codesign_shard_determinism").unwrap();
    // Shards 1 and 3 abort mid-append on their first attempt, leaving
    // torn segment tails; their retries resume from the torn tail.
    let (crashed, report) = run(&shard_config(
        tmp.join("crash"),
        4,
        Some("seed=7;shard.worker.crash=panic@1,3"),
    ))
    .expect("run with injected crashes");
    assert!(
        report.retries >= 2,
        "both injected crashes must show up as retries, got {report:?}"
    );

    let (clean, clean_report) =
        run(&shard_config(tmp.join("crash_ref"), 1, None)).expect("reference run");
    assert_eq!(clean_report.retries, 0);
    assert_eq!(
        canonical_output_bytes(&crashed),
        canonical_output_bytes(&clean),
        "crash-recovered output differs from the clean run"
    );
}

#[test]
fn a_checkpointed_run_finished_by_the_supervisor_matches_the_in_process_flow() {
    let tmp = TempDir::new("codesign_shard_determinism").unwrap();
    let direct = CoDesignFlow::new(flow_config()).run().expect("direct flow");
    let mut config = shard_config(tmp.join("from_checkpoint"), 1, None);
    config.shards = 1;

    // Interrupt a checkpointed run after a few cells: its directory
    // holds a one-shard spec and part of segment 0.
    {
        let flow = CoDesignFlow::new(flow_config());
        let ckpt = FlowCheckpoint::open(&config.dir, flow.config()).expect("open run directory");
        let token = CancelToken::new();
        let sink = |e: &FlowEvent| {
            if matches!(e, FlowEvent::ScdSearchFinished { done: 3, .. }) {
                token.cancel();
            }
        };
        let interrupted = flow.run_checkpointed(&ckpt, &sink, &token);
        assert!(matches!(interrupted, Err(FlowError::Cancelled)));
    }

    let (finished, report) = run(&config).expect("the supervisor finishes the directory");
    assert_eq!(report.shards, 1);
    assert_eq!(report.reused_shards, 0, "segment 0 still missed cells");
    assert_eq!(
        canonical_output_bytes(&finished),
        canonical_output_bytes(&direct),
        "a checkpointed run finished by the supervisor differs from the in-process flow"
    );
}

#[test]
fn a_quarantined_sweep_finished_by_a_checkpointed_run_matches_the_in_process_flow() {
    let tmp = TempDir::new("codesign_shard_determinism").unwrap();
    let direct = CoDesignFlow::new(flow_config()).run().expect("direct flow");
    // Shard 1 aborts on every attempt, so the sweep ends with three of
    // its four segments complete and shard 1's cells missing.
    let poison = Some("seed=3;shard.worker.poison=panic@1");
    let mut config = shard_config(tmp.join("to_checkpoint"), 2, poison);
    config.max_retries = 0;
    match run(&config) {
        Err(ShardError::Quarantined { shards }) => assert_eq!(shards, vec![1]),
        other => panic!("expected quarantine, got {:?}", other.map(|o| o.1)),
    }

    let flow = CoDesignFlow::new(flow_config());
    let ckpt = FlowCheckpoint::open(&config.dir, flow.config()).expect("open run directory");
    let finished = flow
        .run_checkpointed(&ckpt, &NullObserver, &CancelToken::new())
        .expect("the checkpointed run finishes the directory");
    assert_eq!(
        canonical_output_bytes(&finished),
        canonical_output_bytes(&direct),
        "a sweep finished by a checkpointed run differs from the in-process flow"
    );
}
