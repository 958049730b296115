//! Advisory single-writer lock files.
//!
//! A [`LockFile`] guards a [`RecordLog`](crate::RecordLog) (or any
//! other single-writer resource) against concurrent writers on the
//! same host. The lock is a sibling file created with `O_EXCL`
//! (`create_new`), so acquisition is atomic on every filesystem worth
//! running on; its body records the owner's pid and acquisition time:
//!
//! ```text
//! pid 12345
//! acquired_unix_ms 1719870000123
//! ```
//!
//! A crashed owner leaves the file behind, so acquisition performs
//! *stale-lock takeover*: if the recorded pid is provably dead (Linux:
//! no `/proc/<pid>` directory), the lock file is removed and
//! acquisition retried. A live owner is reported as a typed
//! [`LockError::Held`] instead of blocking. The lock is advisory —
//! it only protects against writers that also acquire it — which is
//! exactly the contract the record log needs: every writer in this
//! workspace goes through [`RecordLog::open`](crate::RecordLog::open).

use std::fmt;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Attempts before giving up on a takeover race (two processes
/// repeatedly observing and deleting each other's stale locks).
const MAX_ATTEMPTS: u32 = 16;

/// A lock file younger than this with unreadable content is treated as
/// "owner still writing its pid" rather than stale.
const INFANT_GRACE: Duration = Duration::from_secs(2);

/// Failure to acquire a [`LockFile`].
#[derive(Debug)]
#[non_exhaustive]
pub enum LockError {
    /// Another live process holds the lock.
    Held {
        /// Path of the contended lock file.
        path: PathBuf,
        /// Pid recorded in the lock file.
        owner_pid: u32,
    },
    /// Underlying filesystem failure.
    Io(io::Error),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Held { path, owner_pid } => {
                write!(f, "lock {} held by live pid {owner_pid}", path.display())
            }
            LockError::Io(e) => write!(f, "lock io error: {e}"),
        }
    }
}

impl std::error::Error for LockError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LockError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LockError {
    fn from(e: io::Error) -> Self {
        LockError::Io(e)
    }
}

/// An acquired advisory lock. Released (the file removed) on drop.
#[derive(Debug)]
pub struct LockFile {
    path: PathBuf,
}

impl LockFile {
    /// Acquires the lock file at `path`, taking over stale locks left
    /// by dead processes.
    ///
    /// # Errors
    ///
    /// [`LockError::Held`] when a live process owns the lock, and I/O
    /// failures.
    pub fn acquire(path: &Path) -> Result<Self, LockError> {
        for _ in 0..MAX_ATTEMPTS {
            match OpenOptions::new().write(true).create_new(true).open(path) {
                Ok(mut file) => {
                    let now_ms = SystemTime::now()
                        .duration_since(UNIX_EPOCH)
                        .map(|d| d.as_millis())
                        .unwrap_or(0);
                    let body = format!("pid {}\nacquired_unix_ms {now_ms}\n", std::process::id());
                    file.write_all(body.as_bytes())?;
                    file.flush()?;
                    return Ok(Self {
                        path: path.to_path_buf(),
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    match holder_pid(path) {
                        Some(pid) if pid_alive(pid) => {
                            return Err(LockError::Held {
                                path: path.to_path_buf(),
                                owner_pid: pid,
                            });
                        }
                        Some(_) => {
                            // Provably dead owner: take the lock over.
                            // remove_file racing another taker is fine
                            // — exactly one create_new wins next loop.
                            let _ = std::fs::remove_file(path);
                        }
                        None => {
                            // Unreadable or pid-less: either a crash
                            // between create and write (stale) or an
                            // owner mid-write (not). Grace-period on
                            // file age decides.
                            if lock_age(path).is_none_or(|age| age > INFANT_GRACE) {
                                let _ = std::fs::remove_file(path);
                            } else {
                                std::thread::sleep(Duration::from_millis(20));
                            }
                        }
                    }
                }
                Err(e) => return Err(LockError::Io(e)),
            }
        }
        Err(LockError::Io(io::Error::other(format!(
            "gave up acquiring {} after {MAX_ATTEMPTS} takeover races",
            path.display()
        ))))
    }

    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Parses the owner pid out of a lock file's body.
fn holder_pid(path: &Path) -> Option<u32> {
    let body = std::fs::read_to_string(path).ok()?;
    let first = body.lines().next()?;
    first.strip_prefix("pid ")?.trim().parse().ok()
}

/// Age of the lock file since its last modification.
fn lock_age(path: &Path) -> Option<Duration> {
    let modified = std::fs::metadata(path).ok()?.modified().ok()?;
    SystemTime::now().duration_since(modified).ok()
}

/// Whether `pid` names a live process.
///
/// On Linux this is a `/proc/<pid>` existence check. On other
/// platforms there is no portable std-only liveness probe, so the
/// conservative answer is "alive" — stale locks there are never stolen
/// automatically and must be removed by hand. Every supported CI and
/// deployment target of this workspace is Linux.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    #[test]
    fn second_acquire_fails_while_held_and_succeeds_after_drop() {
        let dir = TempDir::new("codesign_store_lock").unwrap();
        let path = dir.join("exclusive.lock");
        let first = LockFile::acquire(&path).unwrap();
        let err = LockFile::acquire(&path).unwrap_err();
        match err {
            LockError::Held { owner_pid, .. } => {
                assert_eq!(owner_pid, std::process::id());
            }
            other => panic!("expected Held, got {other}"),
        }
        drop(first);
        assert!(!path.exists(), "drop removes the lock file");
        let second = LockFile::acquire(&path).unwrap();
        drop(second);
    }

    #[test]
    fn stale_lock_of_dead_pid_is_taken_over() {
        if !cfg!(target_os = "linux") {
            return; // takeover requires /proc liveness probing
        }
        let dir = TempDir::new("codesign_store_lock").unwrap();
        let path = dir.join("stale.lock");
        // No real process gets pid 0 on Linux (it is the idle task,
        // invisible in /proc), so this lock is provably stale.
        std::fs::write(&path, "pid 0\nacquired_unix_ms 0\n").unwrap();
        let lock = LockFile::acquire(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains(&format!("pid {}", std::process::id())));
        drop(lock);
    }

    #[test]
    fn fresh_unreadable_lock_is_not_stolen() {
        let dir = TempDir::new("codesign_store_lock").unwrap();
        let path = dir.join("infant.lock");
        // Content without a pid line, mtime = now: acquisition must
        // not steal it inside the grace period; it retries and then
        // gives up with an error rather than returning Held.
        std::fs::write(&path, "garbage").unwrap();
        let err = LockFile::acquire(&path).unwrap_err();
        assert!(matches!(err, LockError::Io(_)));
        assert!(path.exists());
    }
}
