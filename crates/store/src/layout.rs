//! On-disk working-directory layout.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::StoreError;

/// The on-disk home of one KNN computation.
///
/// ```text
/// <root>/
///   meta.bin                  engine metadata (n, k, m, iteration)
///   parts/
///     p0042.profiles          profiles of partition 42's users
///     p0042.knn               KNN-graph slice of partition 42's users
///   tuples/                   empty: legacy tuple scratch only
///   updates.log               phase-5 lazy profile-update queue
/// ```
///
/// Older working directories may also hold files that nothing writes
/// any more: `parts/p0042.accum`, the per-partition top-K state phase 4
/// kept on disk before its accumulators moved into RAM;
/// `parts/p0042.{in,out}_edges`, the edge streams phase 1 wrote; and
/// `tuples/t0001_0007.tuples` with its `.run*` spill runs, the tuple
/// buckets phase 2 wrote before phase 4 generated candidates in RAM.
/// [`WorkingDir::clear_tuples`] deletes the accumulator and tuple
/// files; the edge files are left in place, unread.
///
/// `WorkingDir` only computes paths and creates directories; record
/// parsing lives in [`crate::record_file`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkingDir {
    root: PathBuf,
}

impl WorkingDir {
    /// Opens (creating if needed) a working directory rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directories cannot be created.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        for sub in ["parts", "tuples"] {
            let dir = root.join(sub);
            std::fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        }
        Ok(WorkingDir { root })
    }

    /// Creates a fresh uniquely-named working directory under the
    /// system temp dir — the standard harness for tests and examples.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if creation fails.
    pub fn temp(prefix: &str) -> Result<Self, StoreError> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "{prefix}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let mut root = std::env::temp_dir();
        root.push("ooc-knn");
        root.push(unique);
        Self::create(root)
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the engine metadata file.
    pub fn meta_path(&self) -> PathBuf {
        self.root.join("meta.bin")
    }

    /// Path of partition `p`'s in-edge file.
    pub fn in_edges_path(&self, p: u32) -> PathBuf {
        self.root.join("parts").join(format!("p{p:04}.in_edges"))
    }

    /// Path of partition `p`'s out-edge file.
    pub fn out_edges_path(&self, p: u32) -> PathBuf {
        self.root.join("parts").join(format!("p{p:04}.out_edges"))
    }

    /// Path of partition `p`'s profile file.
    pub fn profiles_path(&self, p: u32) -> PathBuf {
        self.root.join("parts").join(format!("p{p:04}.profiles"))
    }

    /// Path of partition `p`'s legacy top-K accumulator file (see the
    /// type docs).
    pub fn accum_path(&self, p: u32) -> PathBuf {
        self.root.join("parts").join(format!("p{p:04}.accum"))
    }

    /// Path of partition `p`'s persisted KNN-graph slice (the scored
    /// out-edges of its users) — written after each iteration so a run
    /// can resume from disk.
    pub fn knn_path(&self, p: u32) -> PathBuf {
        self.root.join("parts").join(format!("p{p:04}.knn"))
    }

    /// Path of the user→partition assignment file.
    pub fn assignment_path(&self) -> PathBuf {
        self.root.join("assignment.bin")
    }

    /// Path of the user→cluster assignment file (written only when a
    /// run uses the clustering pre-pass; absent otherwise).
    pub fn clusters_path(&self) -> PathBuf {
        self.root.join("clusters.bin")
    }

    /// Path of the tuple bucket for the partition pair `(i, j)` — the
    /// on-disk materialization of the PI-graph edge `(Ri, Rj)`.
    pub fn tuples_path(&self, i: u32, j: u32) -> PathBuf {
        self.root
            .join("tuples")
            .join(format!("t{i:04}_{j:04}.tuples"))
    }

    /// Path of the phase-5 profile-update log.
    pub fn updates_path(&self) -> PathBuf {
        self.root.join("updates.log")
    }

    /// Path of the generation commit record (absent in pre-protocol
    /// legacy layouts; see `knn_store::commit`).
    pub fn commit_path(&self) -> PathBuf {
        self.root.join("commit.bin")
    }

    /// Removes every legacy scratch file: everything under `tuples/`
    /// and any `parts/*.accum` file.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if a directory cannot be read or a
    /// file cannot be removed.
    pub fn clear_tuples(&self) -> Result<(), StoreError> {
        for (sub, only_ext) in [("tuples", None), ("parts", Some("accum"))] {
            let dir = self.root.join(sub);
            let entries = std::fs::read_dir(&dir).map_err(|e| StoreError::io(&dir, e))?;
            for entry in entries {
                let path = entry.map_err(|e| StoreError::io(&dir, e))?.path();
                if only_ext.is_none_or(|ext| path.extension() == Some(ext.as_ref())) {
                    std::fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))?;
                }
            }
        }
        Ok(())
    }

    /// Recursively deletes the working directory. Intended for tests
    /// and example cleanup.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn destroy(self) -> Result<(), StoreError> {
        std::fs::remove_dir_all(&self.root).map_err(|e| StoreError::io(&self.root, e))
    }

    /// Total size in bytes of every file under the working directory.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn disk_usage(&self) -> Result<u64, StoreError> {
        fn walk(dir: &Path) -> std::io::Result<u64> {
            let mut total = 0;
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                let meta = entry.metadata()?;
                if meta.is_dir() {
                    total += walk(&entry.path())?;
                } else {
                    total += meta.len();
                }
            }
            Ok(total)
        }
        walk(&self.root).map_err(|e| StoreError::io(&self.root, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_makes_subdirectories() {
        let wd = WorkingDir::temp("layout_create").unwrap();
        assert!(wd.root().join("parts").is_dir());
        assert!(wd.root().join("tuples").is_dir());
        wd.destroy().unwrap();
    }

    #[test]
    fn temp_dirs_are_unique() {
        let a = WorkingDir::temp("layout_unique").unwrap();
        let b = WorkingDir::temp("layout_unique").unwrap();
        assert_ne!(a.root(), b.root());
        a.destroy().unwrap();
        b.destroy().unwrap();
    }

    #[test]
    fn paths_are_stable_and_distinct() {
        let wd = WorkingDir::temp("layout_paths").unwrap();
        assert_ne!(wd.in_edges_path(1), wd.out_edges_path(1));
        assert_ne!(wd.profiles_path(1), wd.accum_path(1));
        assert_ne!(wd.tuples_path(1, 2), wd.tuples_path(2, 1));
        assert_eq!(wd.tuples_path(1, 2), wd.tuples_path(1, 2));
        wd.destroy().unwrap();
    }

    #[test]
    fn clear_tuples_removes_only_buckets() {
        let wd = WorkingDir::temp("layout_clear").unwrap();
        std::fs::write(wd.tuples_path(0, 1), b"x").unwrap();
        std::fs::write(wd.profiles_path(0), b"y").unwrap();
        std::fs::write(wd.accum_path(0), b"z").unwrap();
        wd.clear_tuples().unwrap();
        assert!(!wd.tuples_path(0, 1).exists());
        assert!(
            !wd.accum_path(0).exists(),
            "legacy accumulators are scratch"
        );
        assert!(wd.profiles_path(0).exists());
        wd.destroy().unwrap();
    }

    #[test]
    fn disk_usage_counts_file_bytes() {
        let wd = WorkingDir::temp("layout_usage").unwrap();
        std::fs::write(wd.profiles_path(0), vec![0u8; 100]).unwrap();
        std::fs::write(wd.tuples_path(0, 0), vec![0u8; 50]).unwrap();
        assert_eq!(wd.disk_usage().unwrap(), 150);
        wd.destroy().unwrap();
    }
}
