//! A crash-safe append-only log of checksummed records.
//!
//! # File format
//!
//! ```text
//! header:  magic "CDSLOG01" (8) | version u32 LE | kind u32 LE
//! record:  payload_len u32 LE | fnv1a(payload) u64 LE | payload bytes
//! record:  ...
//! ```
//!
//! Records are appended and never rewritten, so the only corruption a
//! crash can produce is a *torn tail*: the last record's frame or
//! payload only partially on disk. [`RecordLog::open`] therefore scans
//! the file front to back, keeps every record whose length frame fits
//! and whose FNV-1a checksum matches, and truncates the file at the
//! first invalid byte — a crash mid-append loses at most the record
//! that was being written, never an earlier one.
//!
//! The header's [`StreamKind`] tags what the records mean (estimate
//! store vs run-directory segment), so pointing one
//! subsystem at the other's file is a typed [`LogError::WrongKind`]
//! instead of garbage decodes.
//!
//! # Single-writer guard
//!
//! Appends are positioned writes from an in-memory `end` offset, so
//! two processes appending to one file would silently interleave and
//! corrupt each other's frames. Every open therefore acquires an
//! advisory [`LockFile`] at `<path>.lock`; a second writer gets a typed
//! [`LogError::Locked`] instead of a corrupted log, and locks abandoned
//! by dead processes are taken over automatically.
//! [`RecordLog::read`] replays a log without opening it for writing.

use crate::fnv1a;
use crate::lock::{LockError, LockFile};
use codesign_faults::FaultPlan;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every log file.
pub const MAGIC: [u8; 8] = *b"CDSLOG01";

/// Current format version written to new files.
pub const VERSION: u32 = 1;

const HEADER_LEN: u64 = 16;
const FRAME_LEN: u64 = 12;

/// What a log's records contain. Stored in the header; checked on open.
///
/// Tags 2 and 3 stay unassigned: they named the retired single-file
/// flow checkpoint and shard manifest, and a file written under either
/// must keep failing as [`LogError::WrongKind`], never decode as a new
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StreamKind {
    /// Analytic-estimate records of `codesign_hls::store`.
    EstimateStore,
    /// Per-shard cell segments of a run directory
    /// (`codesign_core::checkpoint`).
    ShardSegment,
}

impl StreamKind {
    fn to_u32(self) -> u32 {
        match self {
            StreamKind::EstimateStore => 1,
            StreamKind::ShardSegment => 4,
        }
    }

    fn from_u32(v: u32) -> Option<Self> {
        match v {
            1 => Some(StreamKind::EstimateStore),
            4 => Some(StreamKind::ShardSegment),
            _ => None,
        }
    }
}

impl fmt::Display for StreamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamKind::EstimateStore => write!(f, "estimate-store"),
            StreamKind::ShardSegment => write!(f, "shard-segment"),
        }
    }
}

/// Failure to open or append to a log.
#[derive(Debug)]
#[non_exhaustive]
pub enum LogError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file exists but does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The file holds a different record stream than requested.
    WrongKind {
        /// Kind requested by the caller.
        expected: StreamKind,
        /// Kind tag found in the header (raw, may be unknown).
        found: u32,
    },
    /// Another live process holds the log's advisory writer lock.
    Locked {
        /// Path of the contended lock file.
        lock_path: PathBuf,
        /// Pid recorded in the lock file.
        owner_pid: u32,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log io error: {e}"),
            LogError::BadMagic => write!(f, "not a codesign record log (bad magic)"),
            LogError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "log format version {found} not supported (max {VERSION})"
                )
            }
            LogError::WrongKind { expected, found } => {
                write!(f, "log holds stream kind {found}, expected {expected}")
            }
            LogError::Locked {
                lock_path,
                owner_pid,
            } => {
                write!(
                    f,
                    "log locked by live pid {owner_pid} ({})",
                    lock_path.display()
                )
            }
        }
    }
}

impl From<LockError> for LogError {
    fn from(e: LockError) -> Self {
        match e {
            LockError::Held { path, owner_pid } => LogError::Locked {
                lock_path: path,
                owner_pid,
            },
            LockError::Io(e) => LogError::Io(e),
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

/// What [`RecordLog::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Bytes of torn tail that were truncated away (0 after a clean
    /// shutdown).
    pub truncated_bytes: u64,
}

/// An append-only log open for reading and appending.
#[derive(Debug)]
pub struct RecordLog {
    file: File,
    path: PathBuf,
    /// Byte offset appends go to (end of last valid record).
    end: u64,
    faults: Option<Arc<FaultPlan>>,
    /// Advisory single-writer lock; releases on drop or
    /// [`unlock`](Self::unlock).
    lock: Option<LockFile>,
}

impl RecordLog {
    /// Opens (creating if absent) the log at `path` for `kind`,
    /// returning the log, every intact record, and a [`Recovery`]
    /// report. A torn tail from a crashed append is truncated; all
    /// records before it load normally.
    ///
    /// # Errors
    ///
    /// [`LogError::BadMagic`] / [`UnsupportedVersion`](LogError::UnsupportedVersion)
    /// / [`WrongKind`](LogError::WrongKind) for a file that is not this
    /// stream, and I/O failures.
    pub fn open(path: &Path, kind: StreamKind) -> Result<(Self, Vec<Vec<u8>>, Recovery), LogError> {
        Self::open_with(path, kind, None)
    }

    /// [`open`](Self::open) with a fault-injection plan consulted at the
    /// log's I/O sites (`store.open`, `store.append`, `store.sync`).
    /// `None`, the production configuration, costs one `Option` check
    /// per call.
    ///
    /// # Errors
    ///
    /// Everything [`open`](Self::open) returns, plus an injected I/O
    /// error when the plan's `store.open` schedule fires.
    pub fn open_with(
        path: &Path,
        kind: StreamKind,
        faults: Option<Arc<FaultPlan>>,
    ) -> Result<(Self, Vec<Vec<u8>>, Recovery), LogError> {
        if let Some(plan) = &faults {
            plan.fail_io("store.open")?;
        }
        let lock = Some(LockFile::acquire(&lock_path(path))?);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        if file_len == 0 {
            // Fresh file: write the header.
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(&MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            header.extend_from_slice(&kind.to_u32().to_le_bytes());
            file.write_all(&header)?;
            file.flush()?;
            return Ok((
                Self {
                    file,
                    path: path.to_path_buf(),
                    end: HEADER_LEN,
                    faults,
                    lock,
                },
                Vec::new(),
                Recovery::default(),
            ));
        }

        let mut bytes = Vec::with_capacity(file_len as usize);
        file.read_to_end(&mut bytes)?;
        let (records, offset) = scan(&bytes, kind)?;
        let truncated_bytes = file_len - offset as u64;
        if truncated_bytes > 0 {
            file.set_len(offset as u64)?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                end: offset as u64,
                faults,
                lock,
            },
            records,
            Recovery { truncated_bytes },
        ))
    }

    /// Reads every intact record of the log at `path` without opening
    /// it for writing: no lock is taken, no header is written and a
    /// torn tail is left for the next writer to truncate, so a live
    /// writer may hold the log meanwhile. A missing or empty file reads
    /// as no records.
    ///
    /// # Errors
    ///
    /// [`LogError::BadMagic`] / [`UnsupportedVersion`](LogError::UnsupportedVersion)
    /// / [`WrongKind`](LogError::WrongKind) for a file that is not this
    /// stream, and I/O failures.
    pub fn read(path: &Path, kind: StreamKind) -> Result<Vec<Vec<u8>>, LogError> {
        match std::fs::read(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Ok(bytes) if bytes.is_empty() => Ok(Vec::new()),
            bytes => Ok(scan(&bytes?, kind)?.0),
        }
    }

    /// Appends one record and flushes it to the OS; [`sync`](Self::sync)
    /// makes it durable.
    ///
    /// # Errors
    ///
    /// Propagates write failures; the log position is unchanged on
    /// error, so a failed append can be retried or abandoned without
    /// corrupting earlier records.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if let Some(plan) = &self.faults {
            plan.fail_io("store.append")?;
        }
        let mut frame = Vec::with_capacity(FRAME_LEN as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.end += frame.len() as u64;
        Ok(())
    }

    /// Forces written records to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// Propagates `sync_data` failures.
    pub fn sync(&self) -> io::Result<()> {
        if let Some(plan) = &self.faults {
            plan.fail_io("store.sync")?;
        }
        self.file.sync_data()
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Releases the advisory single-writer lock without closing the
    /// log. After this another writer may open the same path, so the
    /// caller must guarantee no further appends race it — the intended
    /// use is a graceful shutdown that keeps the handle alive (e.g. a
    /// server whose owner outlives its final sync). Idempotent.
    pub fn unlock(&mut self) {
        self.lock = None;
    }
}

/// Checks a log's header against `kind`, then walks its frames front
/// to back: every record whose frame fits and whose checksum matches,
/// and the offset where that intact prefix ends.
fn scan(bytes: &[u8], kind: StreamKind) -> Result<(Vec<Vec<u8>>, usize), LogError> {
    if bytes.len() < HEADER_LEN as usize || bytes[..8] != MAGIC {
        return Err(LogError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4"));
    if version > VERSION {
        return Err(LogError::UnsupportedVersion { found: version });
    }
    let found_kind = u32::from_le_bytes(bytes[12..16].try_into().expect("4"));
    if StreamKind::from_u32(found_kind) != Some(kind) {
        return Err(LogError::WrongKind {
            expected: kind,
            found: found_kind,
        });
    }

    let mut records = Vec::new();
    let mut offset = HEADER_LEN as usize;
    loop {
        let rest = &bytes[offset..];
        if rest.len() < FRAME_LEN as usize {
            break; // torn frame (or clean EOF when empty)
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4")) as usize;
        let checksum = u64::from_le_bytes(rest[4..12].try_into().expect("8"));
        let Some(payload) = rest.get(FRAME_LEN as usize..FRAME_LEN as usize + len) else {
            break; // torn payload
        };
        if fnv1a(payload) != checksum {
            break; // torn or corrupt: stop before it
        }
        records.push(payload.to_vec());
        offset += FRAME_LEN as usize + len;
    }
    Ok((records, offset))
}

/// Sibling lock-file path guarding the log at `path` (full file name
/// plus a `.lock` suffix, so `a.log` and `a.log2` never collide).
pub fn lock_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".lock");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    #[test]
    fn fresh_log_round_trips_records() {
        let dir = TempDir::new("codesign_store_log").unwrap();
        let path = dir.join("fresh");
        {
            let (mut log, records, recovery) =
                RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
            assert!(records.is_empty());
            assert_eq!(recovery, Recovery::default());
            log.append(b"alpha").unwrap();
            log.append(b"").unwrap();
            log.append(&[0xffu8; 300]).unwrap();
        }
        let (_log, records, recovery) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
        assert_eq!(
            records,
            vec![b"alpha".to_vec(), Vec::new(), vec![0xffu8; 300]]
        );
        assert_eq!(recovery.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = TempDir::new("codesign_store_log").unwrap();
        let path = dir.join("torn");
        let full_len = {
            let (mut log, _, _) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
            log.append(b"first").unwrap();
            log.append(b"second record").unwrap();
            std::fs::metadata(&path).unwrap().len()
        };
        // Chop bytes off the tail one at a time: every prefix must
        // recover cleanly, losing only the record the cut lands in.
        // (Recovery itself truncates the file, so each cut is taken
        // from a pristine copy of the full log.)
        let full_bytes = std::fs::read(&path).unwrap();
        for keep in (HEADER_LEN..full_len).rev() {
            std::fs::write(&path, &full_bytes[..keep as usize]).unwrap();
            let (_, records, recovery) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
            let first_whole = HEADER_LEN + FRAME_LEN + 5;
            let expected: Vec<Vec<u8>> = if keep >= first_whole {
                vec![b"first".to_vec()]
            } else {
                vec![]
            };
            assert_eq!(records, expected, "cut at {keep}");
            // After recovery the file is truncated to the last good
            // record, so a second open sees a clean log.
            assert!(recovery.truncated_bytes <= full_len);
            let (_, again, clean) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
            assert_eq!(again, records);
            assert_eq!(clean.truncated_bytes, 0);
        }
    }

    #[test]
    fn appends_after_recovery_continue_the_log() {
        let dir = TempDir::new("codesign_store_log").unwrap();
        let path = dir.join("resume");
        {
            let (mut log, _, _) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
            log.append(b"keep").unwrap();
            log.append(b"will be torn").unwrap();
        }
        // Tear the second record's payload.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        {
            let (mut log, records, recovery) =
                RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
            assert_eq!(records, vec![b"keep".to_vec()]);
            assert!(recovery.truncated_bytes > 0);
            log.append(b"appended after crash").unwrap();
        }
        let (_, records, _) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
        assert_eq!(
            records,
            vec![b"keep".to_vec(), b"appended after crash".to_vec()]
        );
    }

    #[test]
    fn corrupt_checksum_stops_the_scan() {
        let dir = TempDir::new("codesign_store_log").unwrap();
        let path = dir.join("corrupt");
        {
            let (mut log, _, _) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
            log.append(b"good").unwrap();
            log.append(b"flipped").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one payload bit of the last record
        std::fs::write(&path, &bytes).unwrap();
        let (_, records, recovery) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
        assert_eq!(records, vec![b"good".to_vec()]);
        assert!(recovery.truncated_bytes > 0);
    }

    #[test]
    fn kind_and_magic_are_enforced() {
        let dir = TempDir::new("codesign_store_log").unwrap();
        let path = dir.join("kinds");
        {
            let (mut log, _, _) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
            log.append(b"payload").unwrap();
        }
        assert!(matches!(
            RecordLog::open(&path, StreamKind::ShardSegment),
            Err(LogError::WrongKind { .. })
        ));
        std::fs::write(&path, b"definitely not a log file").unwrap();
        assert!(matches!(
            RecordLog::open(&path, StreamKind::EstimateStore),
            Err(LogError::BadMagic)
        ));
    }

    #[test]
    fn injected_append_failure_is_retryable() {
        let dir = TempDir::new("codesign_store_log").unwrap();
        let path = dir.join("inject_append");
        // Rate 1.0: every store.append decision fires.
        let plan = codesign_faults::FaultPlan::from_spec("seed=7;store.append=io%1").unwrap();
        let (mut log, _, _) =
            RecordLog::open_with(&path, StreamKind::EstimateStore, Some(plan.clone())).unwrap();
        let err = log.append(b"blocked").unwrap_err();
        assert!(codesign_faults::is_injected(&err));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
        // A log without the plan picks up where the failed one left
        // off: no partial frame was written.
        drop(log);
        let (mut log, records, _) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
        assert!(records.is_empty());
        log.append(b"retried").unwrap();
        drop(log);
        let (_, records, _) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
        assert_eq!(records, vec![b"retried".to_vec()]);
        assert_eq!(plan.injected("store.append"), 1);
    }

    #[test]
    fn injected_open_failure_fires_before_touching_disk() {
        let dir = TempDir::new("codesign_store_log").unwrap();
        let path = dir.join("inject_open");
        let plan = codesign_faults::FaultPlan::from_spec("seed=11;store.open=io%1").unwrap();
        let err = RecordLog::open_with(&path, StreamKind::EstimateStore, Some(plan)).unwrap_err();
        assert!(matches!(err, LogError::Io(_)));
        assert!(!path.exists());
        assert!(!lock_path(&path).exists());
    }

    #[test]
    fn second_writer_is_rejected_while_log_is_open() {
        let dir = TempDir::new("codesign_store_log").unwrap();
        let path = dir.join("single_writer");
        let (mut log, _, _) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
        assert!(lock_path(&path).exists());
        log.append(b"one").unwrap();
        // A concurrent open of the same file is a typed lock error,
        // not an interleaved writer.
        let err = RecordLog::open(&path, StreamKind::EstimateStore).unwrap_err();
        match err {
            LogError::Locked { owner_pid, .. } => assert_eq!(owner_pid, std::process::id()),
            other => panic!("expected Locked, got {other}"),
        }
        // Releasing the first writer releases the lock.
        drop(log);
        assert!(!lock_path(&path).exists());
        let (_, records, _) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
        assert_eq!(records, vec![b"one".to_vec()]);
    }

    #[test]
    fn future_version_is_rejected() {
        let dir = TempDir::new("codesign_store_log").unwrap();
        let path = dir.join("version");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&(VERSION + 1).to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            RecordLog::open(&path, StreamKind::EstimateStore),
            Err(LogError::UnsupportedVersion { .. })
        ));
    }
}
