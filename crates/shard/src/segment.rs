//! Per-worker result segments.
//!
//! Each shard's worker appends its results to its own [`RecordLog`]
//! (stream kind [`StreamKind::ShardSegment`]) at
//! [`segment_path`]`(dir, shard)` — one record per grid cell, keyed by
//! the cell's global index. One file per shard means workers never
//! share a write path, so no cross-process append interleaving can
//! reorder anything; the supervisor merges by cell index, which every
//! partition produces in the same total order.
//!
//! A record is the cell's global index and its candidates, written by
//! [`encode_cell`] and read by [`decode_cell`]. The codec lives in
//! `codesign_core::checkpoint`, whose flow checkpoints store their cell
//! records in the same bytes. A record is the cell's *complete* result:
//! the append is the commit point. A worker killed mid-append leaves a
//! torn frame that the log's recovery truncates on the next open, so a
//! retried attempt resumes from the last whole cell and recomputes the
//! rest — the cell's seed depends only on what the cell is, so the
//! recomputed bytes match what the dead worker would have written.
//!
//! [`encode_cell`]: codesign_core::checkpoint::encode_cell

use codesign_core::checkpoint::decode_cell;
use codesign_core::Candidate;
use codesign_store::{ByteReader, LogOptions, RecordLog, StreamKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::ShardError;

/// Path of shard `shard`'s segment log inside a shard directory.
pub fn segment_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("seg-{shard}.log"))
}

/// Opens (creating if absent) a segment log for appending, replaying
/// whatever whole records survived — the worker-resume entry point.
/// Torn tails are truncated by the log itself; duplicate cell records
/// resolve last-write-wins (identical bytes anyway, by determinism).
///
/// # Errors
///
/// [`ShardError::Log`] on open failures. A dead previous attempt's
/// stale advisory lock is taken over, not an error.
pub fn open_segment(
    path: &Path,
) -> Result<(RecordLog, BTreeMap<usize, Vec<Candidate>>), ShardError> {
    let (log, records, _recovery) =
        RecordLog::open_with(path, StreamKind::ShardSegment, LogOptions::default())?;
    let mut cells = BTreeMap::new();
    for payload in &records {
        // A framed record that fails to decode is schema drift; drop it
        // and let the worker recompute that cell.
        if let Ok((index, candidates)) = decode_cell(&mut ByteReader::new(payload)) {
            cells.insert(index, candidates);
        }
    }
    Ok((log, cells))
}

/// Reads a segment's whole records without keeping a write handle —
/// the supervisor's merge entry point (workers are reaped first, so a
/// leftover lock is always stale and taken over).
///
/// # Errors
///
/// [`ShardError::Log`] on open failures.
pub fn read_segment(path: &Path) -> Result<BTreeMap<usize, Vec<Candidate>>, ShardError> {
    let (_log, cells) = open_segment(path)?;
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_core::checkpoint::encode_cell;
    use codesign_dnn::bundle::{bundle_by_id, BundleId};
    use codesign_dnn::quant::Activation;
    use codesign_dnn::space::DesignPoint;
    use codesign_hls::model::Estimate;
    use codesign_sim::report::ResourceUsage;
    use codesign_store::ByteWriter;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("codesign_shard_segment_tests")
            .join(format!(
                "{name}_{}_{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cell_record(index: usize, found: &[Candidate]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_cell(&mut w, index, found);
        w.into_bytes()
    }

    fn candidate(accuracy: f64) -> Candidate {
        Candidate {
            point: DesignPoint {
                bundle: bundle_by_id(BundleId(1)).unwrap(),
                n_replications: 2,
                downsample: vec![true, false],
                expansion: vec![1.0, 1.5],
                parallel_factor: 8,
                activation: Activation::Relu,
                base_channels: 24,
                max_channels: 96,
            },
            estimate: Estimate {
                latency_cycles: 1_000,
                resources: ResourceUsage::default(),
            },
            latency_ms: 40.0,
            accuracy,
        }
    }

    #[test]
    fn segment_records_round_trip_and_resume() {
        let dir = temp_dir("roundtrip");
        let path = segment_path(&dir, 3);
        {
            let (mut log, cells) = open_segment(&path).unwrap();
            assert!(cells.is_empty());
            log.append(&cell_record(7, &[candidate(0.5), candidate(0.6)]))
                .unwrap();
            log.append(&cell_record(8, &[])).unwrap();
            log.sync().unwrap();
        }
        let cells = read_segment(&path).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[&7].len(), 2);
        assert!((cells[&7][1].accuracy - 0.6).abs() < 1e-12);
        assert!(cells[&8].is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_on_resume() {
        let dir = temp_dir("torn");
        let path = segment_path(&dir, 0);
        {
            let (mut log, _) = open_segment(&path).unwrap();
            log.append(&cell_record(0, &[candidate(0.4)])).unwrap();
            log.sync().unwrap();
        }
        // Simulate a kill -9 mid-append: a frame header promising more
        // bytes than were ever written.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap();
            f.write_all(&0xdead_beef_dead_beefu64.to_le_bytes())
                .unwrap();
            f.write_all(&[0xab; 10]).unwrap();
        }
        let (mut log, cells) = open_segment(&path).unwrap();
        assert_eq!(cells.len(), 1, "whole record survives, torn one does not");
        // The truncated log accepts new appends cleanly.
        log.append(&cell_record(1, &[candidate(0.7)])).unwrap();
        log.sync().unwrap();
        drop(log);
        let cells = read_segment(&path).unwrap();
        assert_eq!(cells.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
