//! [`TempDir`], the one owner of a scratch directory.
//!
//! Every test, bench and example that needs files on disk (record
//! logs, estimate stores, checkpoint and shard run directories) takes
//! them from a `TempDir`, so nothing outlives the code that made it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes the directories one process creates under one tag.
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A directory under [`std::env::temp_dir`] owned by one value.
/// Dropping it removes the directory with all its contents, on success
/// and on unwind alike.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<temp>/<tag>-<pid>-<n>`, where `n` counts the
    /// directories this process has created. A directory a crashed
    /// process with the same pid left under that name is emptied first.
    ///
    /// # Errors
    ///
    /// Propagates the failure to remove a stale directory or to create
    /// the new one.
    pub fn new(tag: &str) -> io::Result<Self> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Self::create(std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id())))
    }

    fn create(path: PathBuf) -> io::Result<Self> {
        match std::fs::remove_dir_all(&path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `name` inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a panic here would abort an unwinding test.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populate(dir: &TempDir) -> PathBuf {
        let nested = dir.join("run").join("seg");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(nested.join("seg-0.log"), b"bytes").unwrap();
        std::fs::write(dir.join("spec.bin"), b"spec").unwrap();
        dir.path().to_owned()
    }

    #[test]
    fn same_tag_gives_distinct_paths() {
        let a = TempDir::new("codesign_temp_same").unwrap();
        let b = TempDir::new("codesign_temp_same").unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
    }

    #[test]
    fn nested_tree_is_removed_on_drop() {
        let dir = TempDir::new("codesign_temp_drop").unwrap();
        let path = populate(&dir);
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn nested_tree_is_removed_on_panic() {
        let mut seen = None;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = TempDir::new("codesign_temp_panic").unwrap();
            seen = Some(populate(&dir));
            panic!("test failed");
        }));
        assert!(unwound.is_err());
        assert!(!seen.unwrap().exists());
    }

    #[test]
    fn stale_directory_is_emptied_on_creation() {
        let crashed = TempDir::new("codesign_temp_stale").unwrap();
        let path = populate(&crashed);
        std::mem::forget(crashed);
        let dir = TempDir::create(path.clone()).unwrap();
        assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 0);
        drop(dir);
        assert!(!path.exists());
    }
}
