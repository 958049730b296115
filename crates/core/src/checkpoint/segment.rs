//! Per-shard cell segments.
//!
//! Each shard of a run appends its finished cells to its own
//! [`RecordLog`] (stream kind [`StreamKind::ShardSegment`]) at
//! [`segment_path`]`(dir, shard)` — one record per grid cell, keyed by
//! the cell's global index. One file per shard means writers never
//! share a write path, so no cross-process append interleaving can
//! reorder anything; readers merge by cell index, which every
//! partition produces in the same total order. A checkpointed run is a
//! one-shard run and appends to segment 0.
//!
//! A record is the cell's global index and its candidates, written by
//! [`encode_cell`](super::encode_cell) and read by
//! [`decode_cell`](super::decode_cell). A record is the cell's
//! *complete* result: the append is the commit point. A writer killed
//! mid-append leaves a torn frame that readers skip and the next
//! writer's open truncates, so a retried attempt resumes from the last
//! whole cell and recomputes the rest — the cell's seed depends only on what the
//! cell is, so the recomputed bytes match what the dead writer would
//! have written.

use super::{decode_cell, CheckpointError};
use crate::search::Candidate;
use codesign_store::{ByteReader, RecordLog, StreamKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Path of shard `shard`'s segment log inside a run directory.
pub fn segment_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("seg-{shard}.log"))
}

/// Opens (creating if absent) a segment log for appending, replaying
/// whatever whole records survived — the resume entry point. Torn
/// tails are truncated by the log itself; duplicate cell records
/// resolve last-write-wins (identical bytes anyway, by determinism).
///
/// # Errors
///
/// [`CheckpointError::Log`] on open failures. A dead previous attempt's
/// stale advisory lock is taken over, not an error.
pub fn open_segment(
    path: &Path,
) -> Result<(RecordLog, BTreeMap<usize, Vec<Candidate>>), CheckpointError> {
    let (log, records, _recovery) = RecordLog::open(path, StreamKind::ShardSegment)?;
    Ok((log, decode_cells(&records)))
}

/// Reads a segment's whole records read-only — the merge entry point.
/// It takes no lock and writes nothing, so it succeeds while a writer
/// holds the segment; a missing segment reads as empty.
///
/// # Errors
///
/// [`CheckpointError::Log`] when the file is not a segment log or
/// cannot be read.
pub fn read_segment(path: &Path) -> Result<BTreeMap<usize, Vec<Candidate>>, CheckpointError> {
    let records = RecordLog::read(path, StreamKind::ShardSegment)?;
    Ok(decode_cells(&records))
}

fn decode_cells(records: &[Vec<u8>]) -> BTreeMap<usize, Vec<Candidate>> {
    // A framed record that fails to decode is schema drift; drop it and
    // let the writer recompute that cell.
    records
        .iter()
        .filter_map(|payload| decode_cell(&mut ByteReader::new(payload)).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::{candidate, cell_bytes as cell_record};
    use codesign_store::log::lock_path;
    use codesign_store::TempDir;

    #[test]
    fn segment_records_round_trip_and_resume() {
        let dir = TempDir::new("codesign_core_segment").unwrap();
        let path = segment_path(dir.path(), 3);
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
    }

    #[test]
    fn torn_tail_is_dropped_on_resume() {
        let dir = TempDir::new("codesign_core_segment").unwrap();
        let path = segment_path(dir.path(), 0);
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
    }

    #[test]
    fn reading_a_segment_writes_nothing_and_ignores_a_live_writer() {
        let dir = TempDir::new("codesign_core_segment").unwrap();
        let path = segment_path(dir.path(), 0);
        assert!(read_segment(&path).unwrap().is_empty());
        assert!(!path.exists(), "a read created the segment");
        assert!(!lock_path(&path).exists(), "a read took the lock");

        let (mut log, _) = open_segment(&path).unwrap();
        log.append(&cell_record(4, &[candidate(0.5)])).unwrap();
        let cells = read_segment(&path).unwrap();
        assert_eq!(cells.keys().collect::<Vec<_>>(), [&4]);
        // The writer still owns the log and keeps appending.
        log.append(&cell_record(5, &[])).unwrap();
        drop(log);
        assert_eq!(read_segment(&path).unwrap().len(), 2);
    }
}
