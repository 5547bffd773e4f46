//! # kron-gen
//!
//! Communication-free parallel generation of Kronecker power-law graphs —
//! the implementation of §V of Kepner et al. (2018).
//!
//! The algorithm:
//!
//! 1. Split the design `A = ⊗_k A_k` into two factors `A = B ⊗ C` such that
//!    both factors fit comfortably in one worker's memory
//!    ([`split::choose_split`]).
//! 2. Extract the non-zero triples of `B` in column-major (CSC) order and
//!    hand each of the `N_p` workers a contiguous, equal-size slice
//!    ([`partition::Partition`]).
//! 3. Each worker independently streams its block `A_p = B_p ⊗ C`
//!    ([`source::SourceRun::stream_worker`] of a
//!    [`source::KroneckerSource`] run) — no inter-worker communication is
//!    needed, and every worker produces the same number of edges.
//! 4. The blocks together are exactly the designed graph; the single
//!    self-loop of the triangle-control construction is filtered in-stream
//!    by whichever worker owns it ([`source::KroneckerSource`]).
//! 5. Properties (degree distribution, edge counts, balance, max degree,
//!    power-law fit, custom metrics) are measured in-stream by the
//!    pluggable [`metrics`] engine without ever assembling the full graph,
//!    reproducing the paper's "measured = predicted" validation at whatever
//!    scale fits the machine — and the [`replay`] source streams existing
//!    shard sets back through the same engine, so any graph on disk can be
//!    re-validated, permuted, filtered, or re-sharded without
//!    regeneration.
//! 6. The whole line — design, split, partition, chunked expand, sink,
//!    streamed validation — is one API: the [`pipeline::Pipeline`] builder,
//!    generic over a pluggable [`source::EdgeSource`].  The exact Kronecker
//!    expansion ([`source::KroneckerSource`]), the raw `B ⊗ C` product, and
//!    non-Kronecker generators (the R-MAT sampler in `kron-rmat`) all
//!    stream through the same terminals.  Per chunk, a worker's share of
//!    the source goes source [+ relabel] → observe → consume: the optional
//!    in-stream [`permute::FeistelPermutation`] relabels vertices
//!    (Graph500's shuffle without the `O(V)` table), the degree histogram
//!    accumulates in `O(vertices)` memory, and a pluggable
//!    [`sink::EdgeSink`] consumes the chunk (TSV or compressed
//!    shard, counter, COO block, or any custom impl — [`sink`] also
//!    provides tee/filter-map combinators and a degree-only validator), so
//!    generation *and* validation both run as bounded-memory streams at
//!    scales whose edges never fit in memory.  Every run
//!    yields a [`manifest::RunManifest`] reproducibility record — source
//!    kind and seeds included — written as `manifest.json` next to file
//!    output.  The pre-pipeline entry points (the materialising generator,
//!    the shard driver, the block writers) were removed in PR 12; use
//!    [`pipeline::Pipeline`].
//!
//! On a shared-memory machine the "processors" are rayon tasks; the
//! per-worker work and the communication structure (none) are identical to
//! the paper's distributed setting, so the scaling *shape* — linear in the
//! number of workers until memory bandwidth saturates — carries over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod codec;
pub mod fault;
mod json;
pub mod manifest;
pub mod metrics;
pub mod partition;
pub mod permute;
pub mod pipeline;
pub mod replay;
pub mod scaling;
pub mod sink;
pub mod source;
pub mod split;
pub mod stats;
pub mod testing;

pub use chunk::EdgeChunk;
pub use codec::Fnv1a;
pub use fault::{FaultKind, FaultSchedule, FaultySink, FaultySource, PlannedFault};
pub use manifest::{
    JournalHeader, ProgressJournal, RunManifest, ShardRecord, MANIFEST_FILE_NAME,
    PROGRESS_FILE_NAME,
};
pub use metrics::{
    BalanceReport, MetricContext, MetricObserver, MetricRecord, MetricSuite, MetricsReport,
    PredicateCountMetric, StreamingMetric,
};
pub use partition::Partition;
pub use permute::FeistelPermutation;
pub use pipeline::{
    DesignPipeline, Pipeline, RetryPolicy, RunReport, SelfLoopPolicy, ShardFailure,
};
pub use replay::{shard_checksum, ReplaySource};
pub use scaling::{ScalingModel, ScalingPoint};
pub use sink::{
    BlockFileSet, BlockFormat, CooSink, CountingSink, DegreeOnlySink, EdgeSink, FilterMapSink,
    TeeSink, TsvShardSink,
};
pub use source::{EdgeSource, KroneckerSource, SourceDescriptor, SourceRun};
pub use split::{choose_split, choose_split_with_fallback, SplitPlan};
pub use stats::GenerationStats;

/// Lock a mutex whose guarded state stays consistent across a panic, taking
/// the guard even if another thread panicked while holding it.
///
/// This is safe for the fault plan and the metrics merge slots because a
/// poisoning panic never goes unnoticed: it happens on a worker, and the
/// vendored rayon re-raises a worker's panic at the join, so the run panics
/// there and nothing read after the poison is ever used.  Durable state
/// (the progress journal) must not use this: it fails closed instead.
fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Tests of the shard formats across the three modules that share them:
/// [`sink`] writes a shard, [`codec`] lays it out, [`replay`] reads it back.
/// The module is named for the file these tests were written in, whose
/// contents moved to those three, so their ids stay comparable across the
/// move.
#[cfg(test)]
mod writer {
    mod tests {
        use std::path::{Path, PathBuf};

        use kron_core::CoreError;
        use kron_sparse::{CooMatrix, SparseError};

        use crate::codec::{
            BlockHeader, Fnv1a, BLOCK_HEADER_COMPRESSED_LEN, BLOCK_MAGIC, BLOCK_VERSION_COMPRESSED,
        };
        use crate::sink::{
            prepare_directory, write_tsv_edges, BlockFileSet, BlockFormat, CompressedShardSink,
            EdgeSink,
        };
        use crate::testing::TestDir;

        /// Read one compressed shard of a 64-vertex graph the way a user
        /// does, taking the error out from under the shard's path — which
        /// must be there.
        fn read_shard(path: &Path) -> Result<CooMatrix<u64>, SparseError> {
            let set = BlockFileSet {
                directory: path.parent().unwrap().to_path_buf(),
                files: vec![path.to_path_buf()],
                vertices: 64,
                format: BlockFormat::Compressed,
            };
            set.read_assembled().map_err(|error| match error {
                CoreError::Sparse(SparseError::WithPath {
                    path: named,
                    source,
                }) => {
                    assert_eq!(named, path.display().to_string());
                    *source
                }
                other => panic!("the error does not name the shard: {other}"),
            })
        }

        #[test]
        fn binary_reader_rejects_corrupt_headers() {
            let dir = TestDir::new("binary_corrupt");
            let path = dir.join("bad.kbkz");
            std::fs::write(&path, b"NOPE").unwrap();
            assert!(read_shard(&path).is_err());
            // A version nobody ever wrote, and the 40-byte header of an empty
            // raw-binary (v3) shard: the second is told how to get its graph
            // back.
            for (version, fields, says) in [
                (99u32, 24, &["version 99"][..]),
                (3, 32, &["version 3", "raw-binary", "write_compressed"]),
            ] {
                let mut bytes = BLOCK_MAGIC.to_vec();
                bytes.extend_from_slice(&version.to_le_bytes());
                bytes.resize(8 + fields, 0);
                std::fs::write(&path, &bytes).unwrap();
                match read_shard(&path) {
                    Err(SparseError::Parse { message, .. }) => {
                        assert!(says.iter().all(|part| message.contains(part)), "{message}")
                    }
                    other => panic!("version {version}: {other:?}"),
                }
            }
        }

        /// Write a valid v4 compressed shard and return its path, for the
        /// corruption tests to mutilate.  Offsets in the v4 layout: nnz at 24,
        /// payload_len at 32, checksum at 40, payload (frames) at 48; a frame
        /// is [count u32][byte_len u32][varint body].
        fn compressed_fixture(name: &str) -> (TestDir, PathBuf, Vec<(u64, u64)>) {
            let dir = TestDir::new(name);
            let path = dir.join("block_00000.kbkz");
            let edges: Vec<(u64, u64)> = (0..100u64).map(|i| (i % 64, (i * 7) % 64)).collect();
            let mut sink = CompressedShardSink::create(&path, 64, 64).unwrap();
            sink.consume(&edges).unwrap();
            sink.finish().unwrap();
            (dir, path, edges)
        }

        fn patched(path: &Path, mutate: impl FnOnce(&mut Vec<u8>)) {
            let mut bytes = std::fs::read(path).unwrap();
            mutate(&mut bytes);
            std::fs::write(path, &bytes).unwrap();
        }

        /// Re-seal a deliberately mutated payload so the corruption under test
        /// is reached *past* the checksum gate.
        fn refresh_v4_checksum(bytes: &mut [u8]) {
            let sum = Fnv1a::hash(&bytes[BLOCK_HEADER_COMPRESSED_LEN as usize..]);
            bytes[40..48].copy_from_slice(&sum.to_le_bytes());
        }

        #[test]
        fn compressed_round_trip_and_header_fields() {
            let (_dir, path, edges) = compressed_fixture("v4_round_trip");
            let block = read_shard(&path).unwrap();
            let decoded: Vec<(u64, u64)> = block.iter().map(|(r, c, _)| (r, c)).collect();
            assert_eq!(decoded, edges);
            let bytes = std::fs::read(&path).unwrap();
            let file_len = bytes.len() as u64;
            assert_eq!(bytes[4..8], BLOCK_VERSION_COMPRESSED.to_le_bytes());
            let header = BlockHeader::read(file_len, &mut &bytes[..]).unwrap();
            assert_eq!((header.nrows, header.ncols), (64, 64));
            assert_eq!(header.nnz, edges.len() as u64);
            assert_eq!(file_len, BLOCK_HEADER_COMPRESSED_LEN + header.payload_len);
            assert!(
                header.payload_len < 16 * edges.len() as u64,
                "the fixture must actually compress"
            );
        }

        #[test]
        fn compressed_flipped_payload_byte_fails_as_checksum_mismatch() {
            let (_dir, path, _) = compressed_fixture("v4_flip");
            patched(&path, |bytes| bytes[60] ^= 1);
            match read_shard(&path) {
                Err(SparseError::ChecksumMismatch { expected, actual }) => {
                    assert_ne!(expected, actual)
                }
                other => panic!("expected a checksum mismatch, got {other:?}"),
            }
        }

        #[test]
        fn compressed_truncated_file_fails_the_length_check() {
            let (_dir, path, _) = compressed_fixture("v4_truncate");
            patched(&path, |bytes| {
                bytes.pop();
            });
            let err = read_shard(&path).unwrap_err();
            assert!(
                err.to_string().contains("but the file is"),
                "truncation must fail on declared vs actual length: {err}"
            );
        }

        #[test]
        fn compressed_inflated_payload_len_fails_the_length_check() {
            let (_dir, path, _) = compressed_fixture("v4_payload_len");
            patched(&path, |bytes| {
                let declared = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
                bytes[32..40].copy_from_slice(&(declared + 1).to_le_bytes());
            });
            let err = read_shard(&path).unwrap_err();
            assert!(err.to_string().contains("but the file is"), "{err}");
        }

        #[test]
        fn compressed_frame_overrunning_the_payload_is_rejected() {
            let (_dir, path, _) = compressed_fixture("v4_frame_overrun");
            patched(&path, |bytes| {
                // Inflate the first frame's byte_len (offset 52) past the
                // payload's end, then re-seal so the checksum gate passes.
                let byte_len = u32::from_le_bytes(bytes[52..56].try_into().unwrap());
                bytes[52..56].copy_from_slice(&(byte_len + 8).to_le_bytes());
                refresh_v4_checksum(bytes);
            });
            let err = read_shard(&path).unwrap_err();
            assert!(err.to_string().contains("remain"), "{err}");
        }

        #[test]
        fn compressed_frame_count_disagreeing_with_nnz_is_rejected() {
            // nnz inflated, payload untouched: the checksum still matches, the
            // frames decode cleanly, and only the decoded-entry count can tell.
            let (_dir, path, _) = compressed_fixture("v4_nnz");
            patched(&path, |bytes| {
                let nnz = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
                bytes[24..32].copy_from_slice(&(nnz + 1).to_le_bytes());
            });
            let err = read_shard(&path).unwrap_err();
            assert!(err.to_string().contains("frames decode"), "{err}");
        }

        #[test]
        fn compressed_truncated_frame_header_is_rejected() {
            let (_dir, path, _) = compressed_fixture("v4_frame_header");
            patched(&path, |bytes| {
                // Append 4 junk bytes (half a frame header), grow the declared
                // payload to match, and re-seal: every outer gate passes and the
                // frame loop must catch the dangling half-header itself.
                bytes.extend_from_slice(&[0u8; 4]);
                let declared = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
                bytes[32..40].copy_from_slice(&(declared + 4).to_le_bytes());
                refresh_v4_checksum(bytes);
            });
            let err = read_shard(&path).unwrap_err();
            assert!(err.to_string().contains("ends mid frame header"), "{err}");
        }

        #[test]
        fn fnv1a_matches_published_test_vectors() {
            assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
            assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
            assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
            // Incremental hashing equals one-shot hashing.
            let mut hasher = Fnv1a::new();
            hasher.update(b"foo");
            hasher.update(b"bar");
            assert_eq!(hasher.finish(), Fnv1a::hash(b"foobar"));
        }

        #[test]
        fn tsv_lines_match_the_standard_formatter_at_every_digit_count() {
            // 0, every power of ten and its neighbours (so every digit count,
            // odd and even, at both ends), and the largest u64.
            let mut values = vec![0u64, 9, 10, 99, 100, u64::MAX];
            let mut power = 1u64;
            loop {
                values.extend([power - 1, power, power + 1]);
                match power.checked_mul(10) {
                    Some(next) => power = next,
                    None => break,
                }
            }
            // Every value as a row against every value as a column: ~150 KiB
            // of text, so the formatter's tile fills and flushes many times.
            let edges: Vec<(u64, u64)> = values
                .iter()
                .flat_map(|&row| values.iter().map(move |&col| (row, col)))
                .collect();
            let expected: String = edges
                .iter()
                .map(|(row, col)| format!("{row}\t{col}\t1\n"))
                .collect();
            let mut written = Vec::new();
            let mut hasher = Fnv1a::new();
            hasher.update(b"earlier chunk");
            // Two calls, so the hasher is seen to carry across chunks.
            let (head, tail) = edges.split_at(edges.len() / 3);
            write_tsv_edges(&mut written, head, &mut hasher).unwrap();
            write_tsv_edges(&mut written, tail, &mut hasher).unwrap();
            assert_eq!(String::from_utf8(written).unwrap(), expected);
            let mut second_pass = Fnv1a::new();
            second_pass.update(b"earlier chunk");
            second_pass.update(expected.as_bytes());
            assert_eq!(hasher, second_pass);

            let mut nothing = Vec::new();
            write_tsv_edges(&mut nothing, &[], &mut hasher).unwrap();
            assert!(nothing.is_empty());
            assert_eq!(hasher, second_pass);
        }

        #[test]
        fn format_table_round_trips_and_keeps_extensions_distinct() {
            for format in BlockFormat::ALL {
                assert_eq!(BlockFormat::from_label(format.label()), Ok(format));
            }
            let mut extensions = BlockFormat::ALL.map(BlockFormat::extension).to_vec();
            extensions.sort_unstable();
            extensions.dedup();
            assert_eq!(extensions.len(), BlockFormat::ALL.len());
            // Terminals that leave no shard files have no format, and neither
            // has the retired raw-binary terminal: both errors name the label,
            // the second says how to get the graph back.
            for (label, says) in [
                ("counting", "no shard format"),
                ("binary", "write_compressed"),
            ] {
                match BlockFormat::from_label(label) {
                    Err(CoreError::InvalidConfig { message }) => {
                        assert!(
                            message.contains(label) && message.contains(says),
                            "{message}"
                        )
                    }
                    other => panic!("{label}: {other:?}"),
                }
            }
        }

        #[test]
        fn file_names_are_worker_ordered() {
            let dir = TestDir::new("names");
            let files = prepare_directory(&dir, 2, BlockFormat::Tsv).unwrap();
            assert_eq!(files[0], dir.join("block_00000.tsv"));
            assert_eq!(files[1], dir.join("block_00001.tsv"));
            assert!(dir.is_dir(), "the shard directory is created up front");
        }
    }
}
