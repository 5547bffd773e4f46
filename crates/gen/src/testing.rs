//! Test support shared by this crate's unit tests and the workspace's
//! integration tests: a scratch directory that cannot collide with another
//! test's, and a byte-level builder for block files no writer in this crate
//! produces — compressed blocks with frames cut where the test wants them.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{encode_frame, Fnv1a, BLOCK_MAGIC, BLOCK_VERSION_COMPRESSED};

/// A fresh, empty scratch directory that is unique per call — process id
/// plus a process-wide counter, so neither parallel test threads nor
/// concurrent test processes ever share one — and removed again on drop.
#[derive(Debug)]
pub struct TestDir(PathBuf);

impl TestDir {
    /// Create a scratch directory whose name starts with `label`, clearing
    /// anything a crashed earlier process left at the same path.  Should
    /// the creation fail, the first use of the path reports it.
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // ordering: a unique-id counter; it publishes no other data
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("kron_test_{label}_{}_{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::create_dir_all(&path);
        TestDir(path)
    }
}

impl Deref for TestDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The bytes of a compressed ([`BLOCK_VERSION_COMPRESSED`]) block file with
/// one frame per element of `frames`.  The compressed sink cuts frames at
/// [`FRAME_EDGES`](crate::codec::FRAME_EDGES) only, so a multi-frame shard
/// small enough to corrupt byte by byte needs a writer that cuts where it
/// is told; readers accept frames of any size.
pub fn compressed_block_bytes(nrows: u64, ncols: u64, frames: &[&[(u64, u64)]]) -> Vec<u8> {
    let mut payload = Vec::new();
    for frame in frames {
        encode_frame(frame, &mut payload);
    }
    let edges: usize = frames.iter().map(|frame| frame.len()).sum();
    let words = [
        nrows,
        ncols,
        edges as u64,
        payload.len() as u64,
        Fnv1a::hash(&payload),
    ];
    let mut bytes = BLOCK_MAGIC.to_vec();
    bytes.extend_from_slice(&BLOCK_VERSION_COMPRESSED.to_le_bytes());
    bytes.extend(words.iter().flat_map(|word| word.to_le_bytes()));
    bytes.extend_from_slice(&payload);
    bytes
}
