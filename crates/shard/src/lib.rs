//! Crash-tolerant multi-process sharded co-design search.
//!
//! The co-design recipe lives once, in [`codesign_core::pipeline`], and
//! one driver runs it for every executor
//! ([`CoDesignFlow::run_with`](codesign_core::flow::CoDesignFlow::run_with)).
//! Its SCD stage is a pure grid of
//! [`Cell`](codesign_core::pipeline::Cell)s, one independent search per
//! `(FPS target, selected Bundle, quantization arm)`, each seeded from
//! what the cell *is* rather than when it runs. That makes it safe to
//! split across OS processes. This crate supplies only that stage, and
//! the process supervision needed to survive those processes dying;
//! the coarse stage, merge and finalize are the driver's:
//!
//! * [`supervisor`] — asks the driver for a shard count, spawns worker
//!   processes (re-execs of this crate's own binary), hands out shards
//!   under leases that each worker renews by writing to its stdout
//!   pipe, reclaims leases from crashed or hung workers, retries with a
//!   bounded budget, and quarantines shards that keep failing instead
//!   of retrying forever.
//! * [`worker`] — the child-process side: reads the
//!   [`SweepSpec`](codesign_core::checkpoint::SweepSpec), computes its
//!   cells, appends results to its own segment log, and
//!   resumes mid-shard after a crash by replaying what the torn-tail
//!   recovery of its segment preserved.
//! * [`output`] — a canonical byte serialization of the final
//!   [`FlowOutput`](codesign_core::FlowOutput), the artifact the
//!   determinism pins compare.
//!
//! A shard directory is a run directory, the one a checkpointed
//! in-process run also uses ([`codesign_core::checkpoint`]): `spec.bin`
//! plus the segment logs. That is all a restart reads, and a directory
//! either executor left behind can be finished by the other at the same
//! shard count. The supervisor's attempt counts and quarantines live in
//! memory, so a restarted run gives every unfinished shard a fresh
//! retry budget and reuses every shard whose segment covers its cells.
//!
//! Two output fields differ from the in-process flow's: a sharded run
//! reports `measured_iou: None` for every design and zeroed
//! `cache_stats`, because measured quantization is an in-process option
//! and worker caches die with their processes.
//!
//! The contract, enforced by this crate's tests: the merged output is
//! **byte-identical** across one process, N processes, and N processes
//! with workers killed mid-append — crashes cost wall-clock, never
//! bits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use codesign_core::checkpoint::CheckpointError;
use codesign_core::flow::FlowError;
use codesign_store::{CodecError, LogError};
use std::fmt;
use std::io;

pub mod output;
pub mod supervisor;
pub mod worker;

pub use codesign_core::checkpoint::{read_segment, segment_path};
pub use output::canonical_output_bytes;
pub use supervisor::{run, ShardConfig, ShardReport};
pub use worker::maybe_run_worker;

/// Everything the sharded search can fail with.
#[derive(Debug)]
#[non_exhaustive]
pub enum ShardError {
    /// An I/O operation failed.
    Io(io::Error),
    /// A record log failed to open or append, or a second supervisor
    /// was locked out of a shard directory in use.
    Log(LogError),
    /// Stored bytes did not decode.
    Codec(CodecError),
    /// A stage of the shared recipe failed (coarse stage, calibration,
    /// or finalization).
    Flow(FlowError),
    /// The sweep spec was missing, corrupt, or pinned a different
    /// configuration than this run's.
    Spec(String),
    /// One or more shards exhausted their retry budget and were
    /// quarantined; their cells are missing from the output.
    Quarantined {
        /// The quarantined shard indices, ascending.
        shards: Vec<usize>,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard i/o error: {e}"),
            ShardError::Log(e) => write!(f, "shard log error: {e}"),
            ShardError::Codec(e) => write!(f, "shard decode error: {e}"),
            ShardError::Flow(e) => write!(f, "shard flow error: {e}"),
            ShardError::Spec(reason) => write!(f, "sweep spec error: {reason}"),
            ShardError::Quarantined { shards } => {
                write!(
                    f,
                    "{} shard(s) quarantined after retries: {shards:?}",
                    shards.len()
                )
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Io(e) => Some(e),
            ShardError::Log(e) => Some(e),
            ShardError::Codec(e) => Some(e),
            ShardError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> Self {
        ShardError::Io(e)
    }
}

impl From<FlowError> for ShardError {
    fn from(e: FlowError) -> Self {
        ShardError::Flow(e)
    }
}

impl From<CheckpointError> for ShardError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(e) => ShardError::Io(e),
            CheckpointError::Log(e) => ShardError::Log(e),
            CheckpointError::Codec(e) => ShardError::Codec(e),
            spec => ShardError::Spec(spec.to_string()),
        }
    }
}
