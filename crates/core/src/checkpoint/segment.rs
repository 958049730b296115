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
//! mid-append leaves a torn frame that the log's recovery truncates on
//! the next open, so a retried attempt resumes from the last whole cell
//! and recomputes the rest — the cell's seed depends only on what the
//! cell is, so the recomputed bytes match what the dead writer would
//! have written.

use super::{decode_cell, CheckpointError};
use crate::search::Candidate;
use codesign_store::{ByteReader, LogOptions, RecordLog, StreamKind};
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
    let (log, records, _recovery) =
        RecordLog::open_with(path, StreamKind::ShardSegment, LogOptions::default())?;
    let mut cells = BTreeMap::new();
    for payload in &records {
        // A framed record that fails to decode is schema drift; drop it
        // and let the writer recompute that cell.
        if let Ok((index, candidates)) = decode_cell(&mut ByteReader::new(payload)) {
            cells.insert(index, candidates);
        }
    }
    Ok((log, cells))
}

/// Reads a segment's whole records without keeping a write handle —
/// the merge entry point (writers are gone first, so a leftover lock
/// is always stale and taken over).
///
/// # Errors
///
/// [`CheckpointError::Log`] on open failures.
pub fn read_segment(path: &Path) -> Result<BTreeMap<usize, Vec<Candidate>>, CheckpointError> {
    let (_log, cells) = open_segment(path)?;
    Ok(cells)
}
