//! Pins the checkpoint/resume contract: a flow interrupted mid-run and
//! resumed from its [`FlowCheckpoint`] directory produces output
//! **bit-identical** to an uninterrupted run, and finished cells are
//! taken from disk instead of recomputed.

use codesign_core::checkpoint::{
    encode_cell, open_segment, read_segment, segment_path, FlowCheckpoint, SPEC_FILE,
};
use codesign_core::flow::{CoDesignFlow, FlowConfig, FlowError, FlowOutput};
use codesign_core::observe::{CancelToken, FlowEvent, NullObserver};
use codesign_core::{pipeline, Parallelism};
use codesign_dnn::bundle::BundleId;
use codesign_sim::device::pynq_z1;
use codesign_store::{ByteWriter, RecordLog, StreamKind, TempDir};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn small_config() -> FlowConfig {
    FlowConfig {
        targets_fps: vec![15.0],
        candidates_per_bundle: 2,
        coarse_pf_sweep: vec![16],
        ..FlowConfig::for_device(pynq_z1())
    }
}

#[test]
fn resumed_run_is_bit_identical_to_uninterrupted() {
    let baseline = CoDesignFlow::new(small_config()).run().unwrap();

    let tmp = TempDir::new("codesign_core_resume").unwrap();
    let path = tmp.join("bit_identity");

    // First attempt: cancel as soon as the first SCD cell finishes —
    // the spec and that cell are on disk by then, the rest of the SCD
    // stage is not.
    {
        let flow = CoDesignFlow::new(small_config());
        let ckpt = FlowCheckpoint::open(&path, flow.config()).unwrap();
        let token = CancelToken::new();
        let cancel_from_observer = token.clone();
        let sink = move |e: &FlowEvent| {
            if matches!(e, FlowEvent::ScdSearchFinished { .. }) {
                cancel_from_observer.cancel();
            }
        };
        let result = flow.run_checkpointed(&ckpt, &sink, &token);
        assert!(matches!(result, Err(FlowError::Cancelled)));
    }
    assert!(path.exists(), "interrupted run must leave its checkpoint");

    // Second attempt: resume. The stored cells come from disk, the
    // missing ones recompute, and the final output is bit-identical to
    // the uninterrupted baseline.
    let flow = CoDesignFlow::new(small_config());
    let ckpt = FlowCheckpoint::open(&path, flow.config()).unwrap();
    assert!(ckpt.has_restored_stages());
    let events = Mutex::new(Vec::new());
    let sink = |e: &FlowEvent| events.lock().unwrap().push(e.clone());
    let resumed = flow
        .run_checkpointed(&ckpt, &sink, &CancelToken::new())
        .unwrap();

    assert_eq!(baseline.coarse, resumed.coarse);
    assert_eq!(baseline.selected_bundles, resumed.selected_bundles);
    assert_eq!(baseline.candidates, resumed.candidates);
    assert_eq!(baseline.designs.len(), resumed.designs.len());
    for (a, b) in baseline.designs.iter().zip(&resumed.designs) {
        assert_eq!(a.point, b.point);
        assert_eq!(a.report, b.report);
        assert_eq!(a.code, b.code, "generated C must be byte-stable");
    }

    let events = events.into_inner().unwrap();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FlowEvent::ScdSearchFinished { .. })),
        "unfinished SCD stage must recompute"
    );
    assert!(
        !path.exists(),
        "successful completion must delete the checkpoint"
    );
}

#[test]
fn fully_checkpointed_run_replays_the_search_stage_too() {
    let tmp = TempDir::new("codesign_core_resume").unwrap();
    let path = tmp.join("full_replay");

    // Cancel after the search stage is already on disk, by cancelling
    // when the first design is finalized.
    {
        let flow = CoDesignFlow::new(small_config());
        let ckpt = FlowCheckpoint::open(&path, flow.config()).unwrap();
        let token = CancelToken::new();
        let cancel_from_observer = token.clone();
        let sink = move |e: &FlowEvent| {
            if matches!(e, FlowEvent::ScdSearchFinished { done, total, .. } if done == total) {
                cancel_from_observer.cancel();
            }
        };
        let result = flow.run_checkpointed(&ckpt, &sink, &token);
        assert!(matches!(result, Err(FlowError::Cancelled)));
    }

    let flow = CoDesignFlow::new(small_config());
    let ckpt = FlowCheckpoint::open(&path, flow.config()).unwrap();
    let events = Mutex::new(Vec::new());
    let sink = |e: &FlowEvent| events.lock().unwrap().push(e.clone());
    let resumed = flow
        .run_checkpointed(&ckpt, &sink, &CancelToken::new())
        .unwrap();
    let events = events.into_inner().unwrap();
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, FlowEvent::ScdSearchFinished { .. })),
        "restored SCD stage must not re-run"
    );
    let baseline = CoDesignFlow::new(small_config()).run().unwrap();
    assert_eq!(baseline.candidates, resumed.candidates);
    assert_eq!(baseline.designs[0].code, resumed.designs[0].code);
    assert!(!path.exists());
}

#[test]
fn uninterrupted_checkpointed_run_matches_plain_run_and_cleans_up() {
    let tmp = TempDir::new("codesign_core_resume").unwrap();
    let path = tmp.join("clean");
    let flow = CoDesignFlow::new(small_config());
    let ckpt = FlowCheckpoint::open(&path, flow.config()).unwrap();
    let out = flow
        .run_checkpointed(&ckpt, &NullObserver, &CancelToken::new())
        .unwrap();
    let plain = CoDesignFlow::new(small_config()).run().unwrap();
    assert_eq!(out.candidates, plain.candidates);
    assert_eq!(out.designs[0].code, plain.designs[0].code);
    assert!(!path.exists(), "checkpoint must be deleted on success");
}

/// Runs `config` against a fresh checkpoint at `path` and cancels it on
/// the first `ScdSearchFinished { done, total }` for which `stop` holds.
/// Returns how many cells finished (each one is on disk) and the grid
/// size.
fn interrupt(
    path: &Path,
    config: &FlowConfig,
    stop: impl Fn(usize, usize) -> bool + Sync,
) -> (usize, usize) {
    let flow = CoDesignFlow::new(config.clone());
    let ckpt = FlowCheckpoint::open(path, flow.config()).unwrap();
    let token = CancelToken::new();
    let finished = AtomicUsize::new(0);
    let grid = AtomicUsize::new(0);
    let sink = |e: &FlowEvent| {
        if let FlowEvent::ScdSearchFinished { done, total, .. } = *e {
            finished.fetch_add(1, Ordering::Relaxed);
            grid.store(total, Ordering::Relaxed);
            if stop(done, total) {
                token.cancel();
            }
        }
    };
    let result = flow.run_checkpointed(&ckpt, &sink, &token);
    assert!(matches!(result, Err(FlowError::Cancelled)));
    (finished.into_inner(), grid.into_inner())
}

/// Resumes `config` from the checkpoint at `path`, with every event.
fn resume(path: &Path, config: &FlowConfig) -> (FlowOutput, Vec<FlowEvent>) {
    let flow = CoDesignFlow::new(config.clone());
    let ckpt = FlowCheckpoint::open(path, flow.config()).unwrap();
    let events = Mutex::new(Vec::new());
    let sink = |e: &FlowEvent| events.lock().unwrap().push(e.clone());
    let out = flow
        .run_checkpointed(&ckpt, &sink, &CancelToken::new())
        .unwrap();
    assert!(!path.exists(), "a finished resume deletes its checkpoint");
    (out, events.into_inner().unwrap())
}

fn assert_bit_identical(expected: &FlowOutput, actual: &FlowOutput) {
    assert_eq!(expected.coarse, actual.coarse);
    assert_eq!(expected.selected_bundles, actual.selected_bundles);
    assert_eq!(expected.candidates, actual.candidates);
    assert_eq!(expected.designs.len(), actual.designs.len());
    for (a, b) in expected.designs.iter().zip(&actual.designs) {
        assert_eq!(a.point, b.point);
        assert_eq!(a.report, b.report);
        assert_eq!(a.code, b.code, "generated C must be byte-stable");
    }
}

#[test]
fn interrupted_search_resumes_only_its_missing_cells() {
    let tmp = TempDir::new("codesign_core_resume").unwrap();
    for threads in [1, 4] {
        let config = FlowConfig {
            parallelism: Parallelism::Fixed(threads),
            ..small_config()
        };
        let plain = CoDesignFlow::new(config.clone()).run().unwrap();
        let path = tmp.join(format!("per_cell_{threads}"));

        // Cells in flight when the token fires still finish, so at 4
        // workers more than 3 may be on disk.
        let (first, total) = interrupt(&path, &config, |done, _| done == 3);
        assert!((3..total).contains(&first), "{first} of {total} cells");

        let (resumed, events) = resume(&path, &config);
        let mut done: Vec<usize> = events
            .iter()
            .filter_map(|e| match *e {
                FlowEvent::ScdSearchFinished { done, .. } => Some(done),
                _ => None,
            })
            .collect();
        assert_eq!(first + done.len(), total, "only missing cells re-run");
        // `done` counts on from the restored cells; at 4 workers two
        // events may reach the observer out of order, so sort first.
        done.sort_unstable();
        assert_eq!(done, (first + 1..=total).collect::<Vec<_>>());
        assert_bit_identical(&plain, &resumed);
    }
}

#[test]
fn checkpoint_cut_anywhere_reopens_and_resumes_bit_identically() {
    let config = small_config();
    let plain = CoDesignFlow::new(config.clone()).run().unwrap();
    let tmp = TempDir::new("codesign_core_resume").unwrap();
    let full = tmp.join("cut_full");
    interrupt(&full, &config, |done, total| done == total);
    let spec = std::fs::read(full.join(SPEC_FILE)).unwrap();
    let bytes = std::fs::read(segment_path(&full, 0)).unwrap();

    // Record boundaries: a 16-byte log header, then frames of a 12-byte
    // head (u32 length, u64 checksum) and the payload.
    let mut boundaries = vec![16];
    let mut end = 16;
    while end < bytes.len() {
        let len = u32::from_le_bytes(bytes[end..end + 4].try_into().unwrap()) as usize;
        end += 12 + len;
        boundaries.push(end);
    }
    assert_eq!(end, bytes.len());
    assert!(boundaries.len() > 4, "one record per cell");

    let mut cuts = boundaries.clone();
    cuts.extend(boundaries.windows(2).map(|w| (w[0] + w[1]) / 2));
    let path = tmp.join("cut");
    for cut in cuts {
        std::fs::create_dir_all(&path).unwrap();
        std::fs::write(path.join(SPEC_FILE), &spec).unwrap();
        std::fs::write(segment_path(&path, 0), &bytes[..cut]).unwrap();
        let (resumed, _) = resume(&path, &config);
        assert_bit_identical(&plain, &resumed);
    }
}

#[test]
fn a_cell_record_outside_the_grid_is_ignored() {
    let config = small_config();
    let plain = CoDesignFlow::new(config.clone()).run().unwrap();
    let tmp = TempDir::new("codesign_core_resume").unwrap();
    let path = tmp.join("outside_grid");
    interrupt(&path, &config, |done, _| done == 1);
    {
        // A well-formed, checksum-valid cell record for a cell index no
        // grid of this config has.
        let segment = segment_path(&path, 0);
        let (mut log, _, _) = RecordLog::open(&segment, StreamKind::ShardSegment).unwrap();
        let mut w = ByteWriter::new();
        encode_cell(&mut w, 999, &[plain.candidates[0].1.clone()]);
        log.append(w.as_bytes()).unwrap();
    }
    let (resumed, _) = resume(&path, &config);
    assert_bit_identical(&plain, &resumed);
}

#[test]
fn a_resume_calibrates_only_the_bundles_with_missing_cells() {
    let config = small_config();
    let plain = CoDesignFlow::new(config.clone()).run().unwrap();
    let tmp = TempDir::new("codesign_core_resume").unwrap();
    let path = tmp.join("calibrate_missing");
    interrupt(&path, &config, |done, total| done == total);
    // Leave every cell of Bundles 1 and 13 on disk, and no other.
    let segment = segment_path(&path, 0);
    let stored = read_segment(&segment).unwrap();
    std::fs::remove_file(&segment).unwrap();
    let (mut log, _) = open_segment(&segment).unwrap();
    for cell in pipeline::cells(&config.targets_fps, &plain.selected_bundles) {
        if [BundleId(1), BundleId(13)].contains(&cell.bundle) {
            let mut w = ByteWriter::new();
            encode_cell(&mut w, cell.index, &stored[&cell.index]);
            log.append(w.as_bytes()).unwrap();
        }
    }
    drop(log);

    let (resumed, events) = resume(&path, &config);
    let mut calibrated: Vec<usize> = events
        .iter()
        .filter_map(|e| match *e {
            FlowEvent::BundleCalibrated { bundle, total, .. } => {
                assert_eq!(total, 3, "three Bundles have missing cells");
                Some(bundle)
            }
            _ => None,
        })
        .collect();
    calibrated.sort_unstable();
    assert_eq!(calibrated, [3, 15, 17]);
    assert_bit_identical(&plain, &resumed);
}
