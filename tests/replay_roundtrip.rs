//! The replay-validation loop: a shard set streamed back from disk must
//! measure exactly what its generation run measured.
//!
//! These tests pin the tentpole guarantee of the streaming-metrics engine +
//! `ReplaySource` pair: for the same shard layout (as many replay workers as
//! generation workers), the replay's `MetricsReport` — degree histogram,
//! counts, max degree, slope fit, per-worker balance — is *equal* to the
//! generation-time report, across TSV and compressed formats, permuted and
//! plain runs, and both histogram modes.  Corrupt and missing shards must
//! fail with errors naming the offending file.

use std::path::{Path, PathBuf};

use extreme_graphs::core::CoreError;
use extreme_graphs::gen::codec::BLOCK_HEADER_COMPRESSED_LEN;
use extreme_graphs::gen::manifest::MANIFEST_FILE_NAME;
use extreme_graphs::gen::testing::{compressed_block_bytes, TestDir};
use extreme_graphs::gen::{
    BlockFileSet, BlockFormat, EdgeChunk, EdgeSource, Fnv1a, Pipeline, ReplaySource, RunManifest,
    RunReport, SourceRun,
};
use extreme_graphs::sparse::SparseError;
use extreme_graphs::{KroneckerDesign, SelfLoop};

fn generate(dir: &Path, binary: bool, workers: usize) -> RunReport<PathBuf> {
    let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre).unwrap();
    let pipeline = Pipeline::for_design(&design)
        .workers(workers)
        .split_index(2)
        .max_c_edges(200_000);
    let report = if binary {
        pipeline.write_compressed(dir).unwrap()
    } else {
        pipeline.write_tsv(dir).unwrap()
    };
    assert!(report.is_valid());
    report
}

fn replay(dir: &Path, workers: usize) -> RunReport<u64> {
    let source = ReplaySource::from_directory(dir).unwrap();
    let report = Pipeline::for_source(source)
        .workers(workers)
        .count()
        .unwrap();
    assert!(
        report.is_valid(),
        "replay validation failed: {:?}",
        report.validation.failures()
    );
    assert!(report.predicted.is_none(), "a replay only measures");
    report
}

#[test]
fn replayed_metrics_are_bit_identical_across_formats() {
    for (binary, label) in [(false, "tsv"), (true, "compressed")] {
        let dir = TestDir::new(&format!("identical_{label}"));
        let generated = generate(&dir, binary, 4);
        let replayed = replay(&dir, 4);

        // The whole typed report is equal — histogram, counts, max degree,
        // slope fit, per-worker balance.
        assert_eq!(
            replayed.metrics, generated.metrics,
            "{label} replay changed the metrics"
        );
        // The replay manifest names its source and the same totals.
        assert_eq!(replayed.manifest.source, "replay");
        assert_eq!(replayed.manifest.total_edges, generated.edge_count());
        assert_eq!(replayed.manifest.vertices, generated.manifest.vertices);
    }
}

#[test]
fn permuted_shards_replay_to_the_same_invariant_metrics() {
    let dir = TestDir::new("permuted");
    let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Leaf).unwrap();
    let generated = Pipeline::for_design(&design)
        .workers(3)
        .split_index(2)
        .max_c_edges(200_000)
        .permute_vertices(0xD15C)
        .write_compressed(&dir)
        .unwrap();
    let replayed = replay(&dir, 3);
    // The shards hold relabelled edges; the degree structure is invariant,
    // so the replay measures exactly what generation measured.
    assert_eq!(replayed.metrics, generated.metrics);
}

#[test]
fn worker_count_changes_balance_but_nothing_else() {
    let dir = TestDir::new("other_workers");
    let generated = generate(&dir, true, 4);
    // Replaying 4 shards on 2 workers: the graph-level metrics still match;
    // only the per-worker balance sheet reflects the new layout.
    let replayed = replay(&dir, 2).metrics;
    assert_ne!(replayed.balance, generated.metrics.balance);
    assert_eq!(
        replayed.degree_histogram,
        generated.metrics.degree_histogram
    );
    assert_eq!(replayed.edges, generated.metrics.edges);
    assert_eq!(replayed.self_loops, generated.metrics.self_loops);
    assert_eq!(replayed.max_degree, generated.metrics.max_degree);
    assert_eq!(replayed.power_law, generated.metrics.power_law);
    assert_eq!(
        replayed.balance.edges_per_worker.iter().sum::<u64>(),
        generated.edge_count()
    );
}

#[test]
fn shared_histogram_mode_replays_identically_too() {
    let dir = TestDir::new("shared_mode");
    let generated = generate(&dir, true, 3);
    let source = ReplaySource::from_directory(&dir).unwrap();
    let report = Pipeline::for_source(source)
        .workers(3)
        .max_histogram_bytes(0) // force the run-wide atomic vector
        .count()
        .unwrap();
    assert_eq!(report.metrics, generated.metrics);
}

#[test]
fn corrupt_shards_fail_the_replay_naming_the_file() {
    for (binary, label) in [(false, "tsv"), (true, "compressed")] {
        let dir = TestDir::new(&format!("corrupt_{label}"));
        let _ = generate(&dir, binary, 3);
        let victim = dir.join(if binary {
            "block_00001.kbkz"
        } else {
            "block_00001.tsv"
        });
        if binary {
            // Truncate the body so the header count no longer matches.
            let bytes = std::fs::read(&victim).unwrap();
            std::fs::write(&victim, &bytes[..bytes.len() - 7]).unwrap();
        } else {
            std::fs::write(&victim, "0\t1\t1\ngarbage line\n").unwrap();
        }
        let source = ReplaySource::from_directory(&dir).unwrap();
        let error = Pipeline::for_source(source).workers(3).count().unwrap_err();
        let message = error.to_string();
        assert!(
            message.contains("block_00001"),
            "{label} error must name the shard: {message}"
        );
    }
}

#[test]
fn missing_shards_fail_the_replay_naming_the_file() {
    let dir = TestDir::new("missing");
    let _ = generate(&dir, true, 3);
    std::fs::remove_file(dir.join("block_00002.kbkz")).unwrap();
    let source = ReplaySource::from_directory(&dir).unwrap();
    let error = Pipeline::for_source(source).workers(3).count().unwrap_err();
    assert!(matches!(error, CoreError::Sparse(_)));
    assert!(
        error.to_string().contains("block_00002"),
        "error must name the missing shard: {error}"
    );
}

#[test]
fn replay_manifest_round_trips_with_metric_records() {
    let dir = TestDir::new("replay_manifest");
    let out = TestDir::new("replay_manifest_out");
    let generated = generate(&dir, true, 2);
    // Replay → re-shard to TSV: format conversion without regeneration,
    // emitting a fresh manifest (metrics included) next to the new shards.
    let source = ReplaySource::from_directory(&dir).unwrap();
    let report = Pipeline::for_source(source)
        .workers(2)
        .write_tsv(&out)
        .unwrap();
    assert_eq!(report.metrics, generated.metrics);

    let on_disk = RunManifest::read_from(&out.join(MANIFEST_FILE_NAME)).unwrap();
    assert_eq!(on_disk, report.manifest);
    assert_eq!(on_disk.source, "replay");
    assert_eq!(on_disk.sink, "tsv");
    assert!(!on_disk.metrics.is_empty());
    assert_eq!(RunManifest::from_json(&on_disk.to_json()).unwrap(), on_disk);

    // …and the converted TSV shards replay to the same metrics again.
    let again = Pipeline::for_source(ReplaySource::from_directory(&out).unwrap())
        .workers(2)
        .count()
        .unwrap();
    assert_eq!(again.metrics, generated.metrics);
}

/// A four-frame v4 shard small enough to corrupt byte by byte: 40 edges
/// over 40 vertices, ten a frame.
struct SmallV4Shard {
    dir: TestDir,
    path: PathBuf,
    edges: Vec<(u64, u64)>,
    bytes: Vec<u8>,
}

const SMALL_VERTICES: u64 = 40;
const SMALL_FRAME: usize = 10;

impl SmallV4Shard {
    fn new(label: &str) -> Self {
        let edges: Vec<(u64, u64)> = (0..40u64)
            .map(|j| (j * 7 % SMALL_VERTICES, j * 13 % SMALL_VERTICES))
            .collect();
        let frames: Vec<&[(u64, u64)]> = edges.chunks(SMALL_FRAME).collect();
        let bytes = compressed_block_bytes(SMALL_VERTICES, SMALL_VERTICES, &frames);
        let dir = TestDir::new(label);
        let path = dir.join("block_00000.kbkz");
        SmallV4Shard {
            dir,
            path,
            edges,
            bytes,
        }
    }

    /// Put `bytes` on disk as the shard and replay it the way a user does.
    fn count(&self, bytes: &[u8]) -> Result<RunReport<u64>, CoreError> {
        std::fs::write(&self.path, bytes).unwrap();
        Pipeline::for_source(self.source()).workers(1).count()
    }

    /// Replay `bytes` one edge per chunk, so the sink has seen every edge
    /// that came before a failure.
    fn stream(&self, bytes: &[u8]) -> (Vec<(u64, u64)>, Result<u64, SparseError>) {
        std::fs::write(&self.path, bytes).unwrap();
        let (run, _) = self.source().prepare(1).unwrap();
        let mut seen = Vec::new();
        let mut chunk = EdgeChunk::new(1);
        let result = run.stream_worker::<SparseError, _>(0, &mut chunk, |edges| {
            seen.extend_from_slice(edges);
            Ok(())
        });
        (seen, result)
    }

    fn source(&self) -> ReplaySource {
        ReplaySource::from_file_set(&BlockFileSet {
            directory: self.dir.to_path_buf(),
            files: vec![self.path.clone()],
            vertices: SMALL_VERTICES,
            format: BlockFormat::Compressed,
        })
    }

    /// Byte offsets of the four frame headers within the file.
    fn frame_header_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::new();
        let mut at = BLOCK_HEADER_COMPRESSED_LEN as usize;
        while at < self.bytes.len() {
            offsets.push(at);
            let byte_len = u32::from_le_bytes(self.bytes[at + 4..at + 8].try_into().unwrap());
            at += 8 + byte_len as usize;
        }
        offsets
    }
}

/// The error under the shard's path, which must be there.
fn in_shard(error: &SparseError) -> &SparseError {
    match error {
        SparseError::WithPath { path, source } => {
            assert!(
                path.contains("block_00000.kbkz"),
                "wrong shard named: {path}"
            );
            source
        }
        other => panic!("the error does not name the shard: {other}"),
    }
}

#[test]
fn every_flipped_payload_byte_of_a_v4_shard_is_a_checksum_mismatch() {
    let shard = SmallV4Shard::new("v4_flips");
    let payload_start = BLOCK_HEADER_COMPRESSED_LEN as usize;
    assert!(shard.count(&shard.bytes).unwrap().is_valid());
    let headers = shard.frame_header_offsets();
    assert_eq!(headers.len(), 4, "the fixture must have several frames");

    // What each flip would have surfaced as had the checksum not been
    // there to catch it (found by re-sealing the checksum over the flipped
    // payload), so that the cases the streaming reader has to get right
    // are known to be among the flips tried.
    let mut symptoms = std::collections::BTreeSet::new();
    for at in payload_start..shard.bytes.len() {
        // Every single-bit flip and the whole-byte one.
        for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
            let mut flipped = shard.bytes.clone();
            flipped[at] ^= mask;

            // As found on disk: always the checksum, never the symptom and
            // never a clean pass.
            match shard.count(&flipped) {
                Err(CoreError::Sparse(error)) => assert!(
                    matches!(in_shard(&error), SparseError::ChecksumMismatch { .. }),
                    "byte {at} ^ {mask:#04x}: {error}"
                ),
                other => panic!("byte {at} ^ {mask:#04x}: {other:?}"),
            }

            let sealed = Fnv1a::hash(&flipped[payload_start..]);
            flipped[40..48].copy_from_slice(&sealed.to_le_bytes());
            let (seen, streamed) = shard.stream(&flipped);
            let in_header = headers.iter().any(|&h| (h..h + 8).contains(&at));
            let symptom = match streamed.as_ref().map_err(in_shard) {
                Ok(_) => {
                    assert_ne!(seen, shard.edges, "a flipped byte decoded unchanged");
                    "a different valid graph"
                }
                Err(SparseError::Parse { .. }) if in_header => "bad frame header",
                Err(SparseError::Parse { .. }) => "undecodable frame",
                Err(SparseError::IndexOutOfBounds { .. }) => {
                    // The edges before the offender got through: the
                    // frames before the flipped one as written, the rest
                    // (deltas shifted by the flip) at least in range.
                    let intact = SMALL_FRAME * headers.iter().rposition(|&h| h <= at).unwrap();
                    assert_eq!(seen[..intact], shard.edges[..intact], "byte {at}");
                    assert!(seen
                        .iter()
                        .all(|&(row, col)| row < SMALL_VERTICES && col < SMALL_VERTICES));
                    match seen.len() % SMALL_FRAME {
                        0 => "first edge of a frame out of range",
                        9 => "last edge of a frame out of range",
                        _ => "middle edge of a frame out of range",
                    }
                }
                Err(other) => panic!("byte {at} ^ {mask:#04x}: unexpected {other}"),
            };
            symptoms.insert(symptom);
        }
    }
    let expected = [
        "a different valid graph",
        "bad frame header",
        "first edge of a frame out of range",
        "last edge of a frame out of range",
        "middle edge of a frame out of range",
        "undecodable frame",
    ];
    assert_eq!(symptoms.into_iter().collect::<Vec<_>>(), expected);
}

#[test]
fn every_truncation_of_a_v4_shard_is_a_typed_error_naming_it() {
    let shard = SmallV4Shard::new("v4_truncations");
    // Every shorter file, and one a byte longer than its header declares.
    let mut longer = shard.bytes.clone();
    longer.push(0);
    let damaged = (0..shard.bytes.len())
        .map(|keep| &shard.bytes[..keep])
        .chain([longer.as_slice()]);
    for bytes in damaged {
        match shard.count(bytes) {
            Err(CoreError::Sparse(error)) => {
                in_shard(&error);
            }
            other => panic!("{} of {} bytes: {other:?}", bytes.len(), shard.bytes.len()),
        }
    }
}

#[test]
fn every_flipped_header_bit_of_a_v4_shard_is_a_typed_error_naming_it() {
    let shard = SmallV4Shard::new("v4_header_flips");
    for bit in 0..8 * BLOCK_HEADER_COMPRESSED_LEN as usize {
        let (at, mask) = (bit / 8, 1u8 << (bit % 8));
        let mut flipped = shard.bytes.clone();
        flipped[at] ^= mask;
        let error = match shard.count(&flipped) {
            Err(CoreError::Sparse(error)) => error,
            other => panic!("byte {at} ^ {mask:#04x}: {other:?}"),
        };
        // Which field the bit is in decides what the reader can say.
        let message = error.to_string();
        let as_expected = match (at, in_shard(&error)) {
            (0..=3, SparseError::Parse { .. }) => message.contains("bad block magic"),
            (4..=7, SparseError::Parse { .. }) => message.contains("unsupported block version"),
            (8..=23, SparseError::DimensionMismatch { .. }) => true,
            (24..=31, SparseError::Parse { .. }) => message.contains("frames decode 40"),
            (32..=39, SparseError::Parse { .. }) => message.contains("but the file is"),
            (40..=47, SparseError::ChecksumMismatch { .. }) => true,
            _ => false,
        };
        assert!(as_expected, "byte {at} ^ {mask:#04x}: {message}");
    }
}

#[test]
fn a_shard_declaring_another_graph_is_a_dimension_mismatch_on_every_read_path() {
    let is_a_dimension_mismatch = |error: CoreError, path: &str| match error {
        CoreError::Sparse(error) => {
            assert!(
                error.to_string().contains("block_00001.kbkz"),
                "{path}: {error}"
            );
            let SparseError::WithPath { source, .. } = &error else {
                panic!("{path}: the error does not name the shard: {error}");
            };
            assert!(
                matches!(**source, SparseError::DimensionMismatch { .. }),
                "{path}: {error}"
            );
        }
        other => panic!("{path}: {other:?}"),
    };
    let dir = TestDir::new("other_dimensions");
    let generated = generate(&dir, true, 3);
    // One more row than the run has vertices.  The payload and its checksum
    // are untouched, so every other gate passes.
    let victim = dir.join("block_00001.kbkz");
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[8..16].copy_from_slice(&(generated.metrics.vertices + 1).to_le_bytes());
    std::fs::write(&victim, &bytes).unwrap();

    let replayed = Pipeline::for_source(ReplaySource::from_directory(&dir).unwrap())
        .workers(3)
        .count();
    is_a_dimension_mismatch(replayed.unwrap_err(), "replay");
    let assembled = generated.files.as_ref().unwrap().read_assembled();
    is_a_dimension_mismatch(assembled.unwrap_err(), "read_assembled");
    // Resume's checksum pre-pass hashes the payload, which is intact: it
    // keeps the shard, and the re-verification that streams it back refuses.
    let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre).unwrap();
    let resumed = Pipeline::for_design(&design)
        .workers(3)
        .split_index(2)
        .max_c_edges(200_000)
        .resume(&dir);
    is_a_dimension_mismatch(resumed.unwrap_err(), "resume");
}
