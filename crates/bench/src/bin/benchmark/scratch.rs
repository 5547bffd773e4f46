//! The one scratch directory of a benchmark process.
//!
//! Every shard directory of a run lives under a directory whose name no
//! other process (or test thread) can share, and which is removed when the
//! run ends — on success, on a failed pass and on a panic alike.  A fixed
//! name would let two concurrent runs delete each other's shards.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Parent of the scratch directories when `--scratch-dir` is not given:
/// inside the working directory, because the benchmark contract lets a run
/// write nowhere else.
pub const DEFAULT_BASE: &str = ".bench_scratch";

/// Distinguishes scratch directories made by one process (unit tests run on
/// parallel threads of one pid).
static SEQUENCE: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory, removed on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
    /// The base directory, when this run created it (and so may remove it
    /// again once it is empty).
    created_base: Option<PathBuf>,
}

impl ScratchDir {
    /// Create `<base>/run-<pid>-<nanos>-<n>`, making `base` if needed.
    pub fn create(base: &Path) -> std::io::Result<Self> {
        let created_base = (!base.exists()).then(|| base.to_path_buf());
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|since| since.as_nanos())
            .unwrap_or(0);
        // ordering: Relaxed — a uniqueness counter that publishes no data
        let sequence = SEQUENCE.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("run-{}-{nanos}-{sequence}", std::process::id()));
        // Base and run directory in one call: a concurrent run that removes
        // the (then empty) base between two calls would make the second
        // fail.
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path, created_base })
    }

    /// The scratch directory of a run, or why the run cannot take place.
    pub fn for_run(base: &Path) -> Result<Self, String> {
        ScratchDir::create(base).map_err(|e| {
            format!(
                "cannot create a scratch directory under {}: {e}",
                base.display()
            )
        })
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(base) = &self.created_base {
            // Fails, harmlessly, while another run still has a directory
            // in it.
            let _ = std::fs::remove_dir(base);
        }
    }
}

/// Total size of the files in `directory` whose extension is `extension` —
/// the shard files only.  The manifest and the journal are left out: they
/// carry timings and differ by a few bytes from run to run.
pub fn shard_bytes(directory: &Path, extension: &str) -> std::io::Result<u64> {
    let mut bytes = 0;
    for entry in std::fs::read_dir(directory)? {
        let entry = entry?;
        if entry.path().extension().is_some_and(|e| e == extension) {
            bytes += entry.metadata()?.len();
        }
    }
    Ok(bytes)
}

/// The file-system type `path` lives on (`tmpfs`, `ext4`, …), from the
/// longest matching mount point in `/proc/mounts`; `"unknown"` elsewhere.
pub fn fs_kind(path: &Path) -> String {
    let resolved = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_device), Some(mount), Some(kind)) =
            (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if resolved.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), kind));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_unique_and_removed_on_drop() {
        let base = std::env::temp_dir().join(format!("kron-benchmark-test-{}", std::process::id()));
        let first = ScratchDir::create(&base).unwrap();
        let second = ScratchDir::create(&base).unwrap();
        assert_ne!(first.path(), second.path());
        assert!(first.path().is_dir() && second.path().is_dir());
        let (first_path, second_path) = (first.path().to_path_buf(), second.path().to_path_buf());
        drop(first);
        assert!(!first_path.exists());
        assert!(
            second_path.is_dir(),
            "dropping one run must not touch another"
        );
        drop(second);
        assert!(!second_path.exists());
        let _ = std::fs::remove_dir(&base);
    }

    #[test]
    fn shard_bytes_counts_by_extension_only() {
        let base =
            std::env::temp_dir().join(format!("kron-benchmark-bytes-{}", std::process::id()));
        let scratch = ScratchDir::create(&base).unwrap();
        std::fs::write(scratch.path().join("block_00000.kbkz"), [0u8; 10]).unwrap();
        std::fs::write(scratch.path().join("block_00001.kbkz"), [0u8; 5]).unwrap();
        std::fs::write(scratch.path().join("manifest.json"), [0u8; 100]).unwrap();
        std::fs::write(scratch.path().join("progress.jsonl"), [0u8; 100]).unwrap();
        assert_eq!(shard_bytes(scratch.path(), "kbkz").unwrap(), 15);
        assert_eq!(shard_bytes(scratch.path(), "tsv").unwrap(), 0);
        drop(scratch);
        let _ = std::fs::remove_dir(&base);
    }

    #[test]
    fn fs_kind_names_something() {
        assert!(!fs_kind(&std::env::temp_dir()).is_empty());
    }
}
