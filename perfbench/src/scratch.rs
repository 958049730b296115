//! The one directory a run writes to, removed when the run ends.

use std::path::{Path, PathBuf};

/// Prefix of the scratch directory created in the working directory.
pub const PREFIX: &str = ".perfbench-tmp-";

/// A directory owned by one run. Dropping it removes it with all its
/// contents, on success and on unwind alike, so shard sweep
/// directories and the serve store never outlive the run.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<parent>/.perfbench-tmp-<pid>`, emptying a stale one a
    /// crashed run with the same process id left behind.
    ///
    /// # Errors
    ///
    /// Propagates the directory creation failure.
    pub fn create_in(parent: &Path) -> std::io::Result<Self> {
        let path = parent.join(format!("{PREFIX}{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a panic here would abort an unwinding run.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parent(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn populate(scratch: &ScratchDir) {
        let nested = scratch.path().join("sweep-0");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(nested.join("segment-0.log"), b"bytes").unwrap();
    }

    #[test]
    fn removed_on_success() {
        let parent = parent("ok");
        let scratch = ScratchDir::create_in(&parent).unwrap();
        populate(&scratch);
        drop(scratch);
        assert_eq!(std::fs::read_dir(&parent).unwrap().count(), 0);
        std::fs::remove_dir(&parent).unwrap();
    }

    #[test]
    fn removed_on_panic() {
        let parent = parent("panic");
        let unwound = std::panic::catch_unwind(|| {
            let scratch = ScratchDir::create_in(&parent).unwrap();
            populate(&scratch);
            panic!("workload failed");
        });
        assert!(unwound.is_err());
        assert_eq!(std::fs::read_dir(&parent).unwrap().count(), 0);
        std::fs::remove_dir(&parent).unwrap();
    }
}
