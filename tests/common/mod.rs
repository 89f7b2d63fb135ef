//! Helpers shared by the integration tests.

// Each test crate compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A temporary directory owned by one test, deleted (with everything in
/// it) when the guard drops — also when the test panics. The name
/// carries the tag, the process id and a per-process sequence number,
/// so tests running on parallel threads never share a directory.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh, empty directory `mantra-<tag>-<pid>-<seq>`.
    pub fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mantra-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
