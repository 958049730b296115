//! Persistence primitives: a compact binary codec and a crash-safe
//! append-only record log.
//!
//! The workspace has no serialization dependency: everything that must
//! survive the process — the sharded analytic-estimate cache, co-design
//! flow checkpoints — is serialized through this crate's hand-rolled
//! codec:
//!
//! * [`codec`] — little-endian fixed-width and LEB128 varint primitives
//!   over byte buffers, with typed decode errors. No data model, no
//!   reflection: callers write explicit `encode`/`decode` pairs, which
//!   keeps the wire format auditable and byte-stable across PRs.
//! * [`log`] — [`RecordLog`], an append-only file of
//!   checksummed records behind a versioned header. A crash mid-append
//!   loses at most the record being written: on re-open the log scans
//!   from the start, keeps every record whose length frame and FNV-1a
//!   checksum validate, and truncates the torn tail.
//! * [`lock`] — [`LockFile`], the advisory single-writer lock every
//!   record log holds, so two processes can never interleave appends
//!   into one file; stale locks left by dead processes are taken over
//!   automatically.
//! * [`temp`] — [`TempDir`], the drop-guarded scratch directory every
//!   test, bench and example writes its logs and run directories into.
//!
//! Domain encodings (estimate records, checkpoint stages) live next to
//! their types in `codesign-hls` and `codesign-core`; this crate stays
//! std-only (its only dependency is the equally std-only
//! `codesign-faults` harness) so any crate in the workspace can
//! persist without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod lock;
pub mod log;
pub mod temp;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use lock::{LockError, LockFile};
pub use log::{LogError, RecordLog, StreamKind};
pub use temp::TempDir;

/// FNV-1a over `bytes` — the checksum used for log records and the
/// fingerprint hash used by flow checkpoints. The one implementation
/// lives in `codesign-faults`, which folds fault-site names with it.
pub use codesign_faults::fnv1a;

/// The fault-injection plan [`RecordLog::open_with`] consults at the
/// log's I/O sites, named here so a crate that opens logs needs no
/// dependency on `codesign-faults` of its own.
pub use codesign_faults::FaultPlan;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
