//! Replaying existing shard sets through the pipeline: validate any edge
//! stream on disk, not just the one you just generated.
//!
//! Related generators validate their output *after the fact*, reading the
//! generated files back from disk; our pipeline could only measure a graph
//! *while* generating it.  [`ReplaySource`] closes that gap: it implements
//! [`EdgeSource`] over a directory of TSV or compressed shards — typically one a
//! file-writing [`Pipeline`](crate::pipeline::Pipeline) terminal produced,
//! located through its `manifest.json` — so the design → generate →
//! **validate** loop runs as a standalone stage.  Any graph on disk can be
//! re-measured (full [`MetricsReport`](crate::metrics::MetricsReport),
//! identical to the generation-time one for the same shard layout),
//! re-validated, permuted, filtered, re-sharded, or converted between
//! formats — without regenerating a single edge:
//!
//! ```no_run
//! use kron_gen::{Pipeline, ReplaySource};
//!
//! // Re-measure a shard directory written by an earlier run…
//! let source = ReplaySource::from_directory(std::path::Path::new("/data/run1"))?;
//! let report = Pipeline::for_source(source).workers(8).count()?;
//! // …the streamed metrics must reproduce what the generation measured.
//! assert!(report.is_valid());
//! # Ok::<(), kron_core::CoreError>(())
//! ```
//!
//! Shards stream through the same bounded-memory chunk machinery as
//! generation: TSV shards line by line, compressed (v4) shards frame by
//! frame.  Every I/O or parse failure names the shard it occurred in
//! ([`SparseError::WithPath`]), so one corrupt file in a thousand-shard set
//! is identifiable from the error alone.  This module is the crate's one
//! shard reader: [`BlockFileSet::read_assembled`] and [`shard_checksum`]
//! live here too, beside the streams they are built from.
//!
//! A v4 shard's bytes are touched once: its checksum is taken inside the
//! frame decoder's loop ([`codec::decode_frame_checksummed`] — FNV-1a's
//! serial multiply chain hides behind the varint decoding instead of
//! costing a second pass), the decoder's observer absorbing exactly each
//! frame's payload whether the frame decodes or not, so the choice between
//! reporting a decode error and a checksum mismatch reads one finished
//! hash.  Decoded frames are bounds-scanned and handed on whole rather
//! than edge by edge.  [`Pipeline::resume`](crate::pipeline::Pipeline::resume)
//! re-verifies the shards it keeps through the same function.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

use kron_core::validate::{FieldCheck, ValidationReport};
use kron_core::{CoreError, GraphProperties};
use kron_sparse::{CooMatrix, SparseError};

use crate::chunk::EdgeChunk;
use crate::codec::{self, BlockHeader, Fnv1a};
use crate::manifest::{RunManifest, MANIFEST_FILE_NAME};
use crate::partition::Partition;
use crate::sink::{BlockFileSet, BlockFormat, CooSink, EdgeSink};
use crate::source::{EdgeSource, SourceDescriptor, SourceRun};
use crate::split::SplitPlan;

/// An [`EdgeSource`] that streams an existing shard set back through the
/// pipeline.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    files: Vec<PathBuf>,
    /// Expected whole-file checksum per shard (same order as `files`), from
    /// the manifest's `shards` records.  Compressed shards carry their
    /// checksum in the header and verify it regardless; this sidecar is what
    /// makes *TSV* shards verifiable.  `None` (pre-checksum manifests,
    /// hand-built file sets) skips verification for that shard.
    checksums: Vec<Option<u64>>,
    format: BlockFormat,
    vertices: u64,
    expected_edges: Option<u64>,
    star_points: Vec<u64>,
    self_loop: String,
}

impl ReplaySource {
    /// Open the shard set a file-writing pipeline terminal left under
    /// `directory`, using its `manifest.json` for the format, vertex count,
    /// expected edge total, and per-worker file layout.  Only the file
    /// *names* are taken from the manifest, so a relocated (copied, synced,
    /// renamed-parent) shard directory replays in place.
    pub fn from_directory(directory: &Path) -> Result<Self, CoreError> {
        let manifest = RunManifest::read_from(&directory.join(MANIFEST_FILE_NAME))
            .map_err(CoreError::Sparse)?;
        let format = BlockFormat::from_label(&manifest.sink)?;
        if manifest.outputs.is_empty() {
            return Err(CoreError::InvalidConfig {
                message: "manifest records no output shards".into(),
            });
        }
        let files = manifest
            .outputs
            .iter()
            .map(|output| {
                let name =
                    Path::new(output)
                        .file_name()
                        .ok_or_else(|| CoreError::InvalidConfig {
                            message: format!("manifest output \"{output}\" has no file name"),
                        })?;
                Ok(directory.join(name))
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        // Match checksum records to files by name — the manifest's `shards`
        // array may be sparse (quarantined workers) or absent (pre-checksum
        // manifests).
        let checksums = files
            .iter()
            .map(|file| {
                let name = file.file_name().map(|n| n.to_string_lossy().to_string());
                manifest
                    .shards
                    .iter()
                    .find(|shard| Some(&shard.file) == name.as_ref())
                    .map(|shard| shard.checksum)
            })
            .collect();
        let vertices = manifest
            .vertices
            .parse::<u64>()
            .map_err(|_| CoreError::InvalidConfig {
                message: format!(
                    "manifest vertex count {} does not fit an indexable graph",
                    manifest.vertices
                ),
            })?;
        Ok(ReplaySource {
            files,
            checksums,
            format,
            vertices,
            expected_edges: Some(manifest.total_edges),
            star_points: manifest.star_points,
            self_loop: manifest.self_loop,
        })
    }

    /// Replay the files of a [`BlockFileSet`] directly (no manifest needed —
    /// for shard sets produced by the pre-manifest writers or assembled by
    /// hand).  Without a manifest the replay has no expected edge count, so
    /// validation checks the vertex count only.
    pub fn from_file_set(files: &BlockFileSet) -> Self {
        ReplaySource {
            checksums: vec![None; files.files.len()],
            files: files.files.clone(),
            format: files.format,
            vertices: files.vertices,
            expected_edges: None,
            star_points: Vec::new(),
            self_loop: "None".to_string(),
        }
    }

    /// The shard files the source will stream, in original worker order.
    pub fn files(&self) -> &[PathBuf] {
        &self.files
    }

    /// The on-disk format of the shards.
    pub fn format(&self) -> BlockFormat {
        self.format
    }
}

impl EdgeSource for ReplaySource {
    type Run = ReplayRun;

    fn vertices(&self) -> Result<u64, CoreError> {
        Ok(self.vertices)
    }

    fn prepare(&self, workers: usize) -> Result<(ReplayRun, Vec<String>), CoreError> {
        if workers == 0 {
            return Err(CoreError::InvalidConfig {
                message: "a replay run needs at least one worker".into(),
            });
        }
        let mut warnings = Vec::new();
        if workers > self.files.len() {
            warnings.push(format!(
                "replaying {} shard(s) on {workers} workers leaves {} worker(s) idle",
                self.files.len(),
                workers - self.files.len()
            ));
        }
        Ok((
            ReplayRun {
                source: self.clone(),
                partition: Partition::even(self.files.len(), workers),
            },
            warnings,
        ))
    }
}

/// The prepared state of one replay run: the source description plus the
/// contiguous assignment of shard files to workers.  Replaying a shard set
/// on as many workers as wrote it reproduces the generation run's
/// per-worker layout exactly (worker `p` streams `block_<p>`), which is what
/// makes the two runs' metric reports comparable worker for worker.
#[derive(Debug, Clone)]
pub struct ReplayRun {
    source: ReplaySource,
    partition: Partition,
}

impl SourceRun for ReplayRun {
    fn stream_worker<E, F>(
        &self,
        worker: usize,
        chunk: &mut EdgeChunk,
        mut sink: F,
    ) -> Result<u64, E>
    where
        E: From<SparseError>,
        F: FnMut(&[(u64, u64)]) -> Result<(), E>,
    {
        chunk.try_flush(&mut sink)?;
        let mut delivered = 0u64;
        for index in self.partition.range(worker) {
            delivered += stream_shard(
                &self.source.files[index],
                self.source.format,
                self.source.vertices,
                self.source.checksums[index],
                chunk,
                &mut sink,
            )?;
        }
        Ok(delivered)
    }

    fn predicted_properties(&self) -> Option<GraphProperties> {
        // A replay measures; the property sheet of the stored graph is
        // whatever the metrics engine finds.
        None
    }

    fn validate(&self, measured: &GraphProperties) -> ValidationReport {
        let mut checks = vec![FieldCheck::exact(
            "vertices",
            self.source.vertices,
            &measured.vertices,
        )];
        if let Some(expected) = self.source.expected_edges {
            checks.push(FieldCheck::exact("edges", expected, &measured.edges));
        }
        ValidationReport::from_checks(checks)
    }

    fn split_plan(&self) -> Option<SplitPlan> {
        None
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor {
            kind: "replay",
            seed: None,
            star_points: self.source.star_points.clone(),
            self_loop: self.source.self_loop.clone(),
            vertices: self.source.vertices.to_string(),
            predicted_edges: self
                .source
                .expected_edges
                .map(|edges| edges.to_string())
                .unwrap_or_else(|| "unknown".to_string()),
            split_index: 0,
            max_c_edges: 0,
            max_b_edges: 0,
            self_loop_policy: "replay".to_string(),
        }
    }
}

/// Wrap a shard-local failure with the shard's path and lift it into the
/// stream's error type.
fn shard_error<E: From<SparseError>>(path: &Path, error: SparseError) -> E {
    E::from(SparseError::with_path(path, error))
}

/// Move one decoded frame into the stream: a single bounds scan over the
/// whole frame, then whole chunks handed to `sink` — straight from `frame`
/// while the chunk is empty, through a bulk copy when it holds a leftover.
/// The sink sees what pushing the frame edge by edge would show it: slices
/// of exactly the chunk's capacity, the tail left buffered in the chunk.  An
/// out-of-range edge still lets the edges before it through.
fn push_frame<E, F>(
    path: &Path,
    vertices: u64,
    chunk: &mut EdgeChunk,
    sink: &mut F,
    frame: &[(u64, u64)],
) -> Result<(), E>
where
    E: From<SparseError>,
    F: FnMut(&[(u64, u64)]) -> Result<(), E>,
{
    // Branch-free, so the scan vectorises; the position of an offender
    // matters only on the failure path.
    let largest = frame
        .iter()
        .fold(0u64, |largest, &(row, col)| largest.max(row).max(col));
    let valid = if largest < vertices {
        frame.len()
    } else {
        frame
            .iter()
            .position(|&(row, col)| row >= vertices || col >= vertices)
            .unwrap_or(frame.len())
    };
    let mut rest = &frame[..valid];
    while !rest.is_empty() {
        if chunk.is_empty() && rest.len() >= chunk.capacity() {
            let (whole, after) = rest.split_at(chunk.capacity());
            sink(whole)?;
            rest = after;
        } else {
            let (run, after) = rest.split_at(chunk.remaining().min(rest.len()));
            chunk.fill_spare(run.len(), |spare| spare.copy_from_slice(run));
            rest = after;
            if chunk.is_full() {
                chunk.try_flush(sink)?;
            }
        }
    }
    match frame.get(valid) {
        Some(&(row, col)) => Err(shard_error(
            path,
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: vertices,
                ncols: vertices,
            },
        )),
        None => Ok(()),
    }
}

/// Stream one shard of `format` through the chunk in bounded memory,
/// verifying it as it streams, and return the number of edges delivered —
/// the one shard reader behind replay,
/// [`Pipeline::resume`](crate::pipeline::Pipeline::resume)'s re-verification
/// and [`BlockFileSet::read_assembled`].  `expected_checksum` is the sidecar
/// checksum of the manifest or journal; only TSV shards need it, compressed
/// shards carry theirs in the header.
pub(crate) fn stream_shard<E, F>(
    path: &Path,
    format: BlockFormat,
    vertices: u64,
    expected_checksum: Option<u64>,
    chunk: &mut EdgeChunk,
    sink: &mut F,
) -> Result<u64, E>
where
    E: From<SparseError>,
    F: FnMut(&[(u64, u64)]) -> Result<(), E>,
{
    match format {
        BlockFormat::Tsv => stream_tsv_shard(path, vertices, expected_checksum, chunk, sink),
        BlockFormat::Compressed => stream_binary_shard(path, vertices, chunk, sink),
    }
}

/// Longest line a TSV shard may hold, newline included.  The writer's
/// longest is 44 bytes (two 20-digit labels, two tabs, the `1`, the
/// newline); the rest is room for hand-written comments.  A longer line —
/// or a file with no newline at all — is a parse error naming the line,
/// never a line buffer the size of the file.
const TSV_LINE_LIMIT: usize = 4096;

/// Stream one TSV shard (`row<TAB>col[<TAB>value]` lines, `#` comments)
/// through the chunk without materialising it.  Lines are at most
/// [`TSV_LINE_LIMIT`] bytes and UTF-8.
///
/// When `expected_checksum` is given (from the run's manifest or progress
/// journal), the whole file is FNV-1a-hashed as it streams and verified at
/// the end; a mismatch fails with [`SparseError::ChecksumMismatch`] naming
/// the shard.
fn stream_tsv_shard<E, F>(
    path: &Path,
    vertices: u64,
    expected_checksum: Option<u64>,
    chunk: &mut EdgeChunk,
    sink: &mut F,
) -> Result<u64, E>
where
    E: From<SparseError>,
    F: FnMut(&[(u64, u64)]) -> Result<(), E>,
{
    let file = std::fs::File::open(path).map_err(|e| shard_error(path, e.into()))?;
    let mut reader = BufReader::with_capacity(1 << 18, file);
    let mut delivered = 0u64;
    let mut hasher = Fnv1a::new();
    // One reused line buffer for the whole shard — `lines()` would allocate
    // a fresh String per edge on the replay hot path — read through `take`,
    // so it never grows past the limit plus one byte.
    let mut line = Vec::new();
    let mut number = 0usize;
    loop {
        line.clear();
        let read = (&mut reader)
            .take(TSV_LINE_LIMIT as u64 + 1)
            .read_until(b'\n', &mut line)
            .map_err(|e| shard_error(path, e.into()))?;
        if read == 0 {
            break;
        }
        number += 1;
        let parse_error = |message: String| {
            shard_error::<E>(
                path,
                SparseError::Parse {
                    line: number,
                    message,
                },
            )
        };
        if read > TSV_LINE_LIMIT {
            return Err(parse_error(format!(
                "line longer than {TSV_LINE_LIMIT} bytes"
            )));
        }
        if expected_checksum.is_some() {
            // read_until hands back the exact bytes read (newline
            // included), so hashing the lines hashes the file.
            hasher.update(&line);
        }
        let trimmed = std::str::from_utf8(&line)
            .map_err(|e| parse_error(format!("not UTF-8: {e}")))?
            .trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let mut endpoint = |what: &str| -> Result<u64, E> {
            fields
                .next()
                .ok_or_else(|| parse_error(format!("missing {what}")))?
                .parse::<u64>()
                .map_err(|e| parse_error(format!("bad {what}: {e}")))
        };
        let row = endpoint("row")?;
        let col = endpoint("col")?;
        // Bounds-check here, where the line number is known, so an
        // out-of-range endpoint reports shard *and* line.
        if row >= vertices || col >= vertices {
            return Err(parse_error(format!(
                "edge ({row}, {col}) out of bounds for {vertices} vertices"
            )));
        }
        chunk.push(row, col);
        if chunk.is_full() {
            chunk.try_flush(sink)?;
        }
        delivered += 1;
    }
    if let Some(expected) = expected_checksum {
        let actual = hasher.finish();
        if actual != expected {
            return Err(shard_error(
                path,
                SparseError::ChecksumMismatch { expected, actual },
            ));
        }
    }
    chunk.try_flush(sink)?;
    Ok(delivered)
}

/// Stream one compressed (v4) shard through the chunk, one bounded slab per
/// delta/varint frame.  The header must describe a `vertices × vertices`
/// graph.  The payload checksum the header carries is verified as the shard
/// streams, and a mismatch fails with [`SparseError::ChecksumMismatch`]
/// naming the shard — including when the corruption first surfaces as an
/// undecodable frame or an out-of-bounds edge mid-stream.
fn stream_binary_shard<E, F>(
    path: &Path,
    vertices: u64,
    chunk: &mut EdgeChunk,
    sink: &mut F,
) -> Result<u64, E>
where
    E: From<SparseError>,
    F: FnMut(&[(u64, u64)]) -> Result<(), E>,
{
    let file = std::fs::File::open(path).map_err(|e| shard_error(path, e.into()))?;
    let file_len = file
        .metadata()
        .map_err(|e| shard_error(path, e.into()))?
        .len();
    let mut reader = BufReader::with_capacity(1 << 18, &file);
    // The codec validates magic, version, and the declared payload length
    // against the actual file length before anything streams.
    let header = BlockHeader::read(file_len, &mut reader).map_err(|e| shard_error(path, e))?;
    if header.nrows != vertices || header.ncols != vertices {
        return Err(shard_error(
            path,
            SparseError::DimensionMismatch {
                op: "shard header",
                left: (header.nrows, header.ncols),
                right: (vertices, vertices),
            },
        ));
    }
    let (nnz, expected) = (header.nnz, header.checksum);

    // Delta/varint frames, one bounded slab per frame: read each
    // frame's 8-byte header, then its body (at most ~1.3 MiB for a
    // full frame of worst-case varints), hashing everything so the
    // header checksum is verified once the payload is exhausted.
    let mut hasher = Fnv1a::new();
    let mut body = Vec::new();
    let mut frame = Vec::new();
    let mut decoded = 0u64;
    let mut remaining = header.payload_len;
    let parse_error = |message: String| SparseError::Parse { line: 0, message };
    let streamed: Result<(), E> = loop {
        if remaining == 0 {
            break Ok(());
        }
        if remaining < codec::FRAME_HEADER_LEN as u64 {
            break Err(shard_error(
                path,
                parse_error("compressed shard payload ends mid frame header".into()),
            ));
        }
        let mut frame_head = [0u8; codec::FRAME_HEADER_LEN];
        reader
            .read_exact(&mut frame_head)
            .map_err(|e| shard_error(path, e.into()))?;
        hasher.update(&frame_head);
        remaining -= codec::FRAME_HEADER_LEN as u64;
        let (count, byte_len) = codec::frame_header(&frame_head);
        if u64::from(byte_len) > remaining {
            break Err(shard_error(
                path,
                parse_error(format!(
                    "compressed shard frame declares {byte_len} bytes but only {remaining} remain"
                )),
            ));
        }
        body.resize(byte_len as usize, 0);
        reader
            .read_exact(&mut body)
            .map_err(|e| shard_error(path, e.into()))?;
        remaining -= u64::from(byte_len);
        // One pass over the body: the hash absorbs each byte as the
        // decoder loads it — all of `body`, also when decoding fails.
        let delivered = codec::decode_frame_checksummed(count, &body, &mut frame, &mut hasher)
            .map_err(|e| shard_error(path, e))
            .and_then(|()| {
                decoded += u64::from(count);
                push_frame(path, vertices, chunk, sink, &frame)
            });
        if delivered.is_err() {
            break delivered;
        }
    };
    if let Err(err) = streamed {
        // A corrupt byte surfaces as garbage — a frame header that
        // does not fit, an undecodable frame, a wildly out-of-range
        // edge — long before the end-of-payload checksum would run.
        // Prefer reporting the cause over the symptom: hash the unread
        // remainder and, if the stored checksum disagrees, the shard is
        // corrupt.  When the checksum *does* match (a genuine
        // downstream failure over an intact shard), the original error
        // stands.
        let mut drain = vec![0u8; 1 << 16];
        while remaining > 0 {
            let take = remaining.min(drain.len() as u64) as usize;
            if reader.read_exact(&mut drain[..take]).is_err() {
                break;
            }
            hasher.update(&drain[..take]);
            remaining -= take as u64;
        }
        let actual = hasher.finish();
        if remaining == 0 && actual != expected {
            return Err(shard_error(
                path,
                SparseError::ChecksumMismatch { expected, actual },
            ));
        }
        return Err(err);
    }
    let actual = hasher.finish();
    if actual != expected {
        return Err(shard_error(
            path,
            SparseError::ChecksumMismatch { expected, actual },
        ));
    }
    if decoded != nnz {
        return Err(shard_error(
            path,
            SparseError::Parse {
                line: 0,
                message: format!(
                    "compressed shard declares {nnz} entries but its frames decode {decoded}"
                ),
            },
        ));
    }
    chunk.try_flush(sink)?;
    Ok(nnz)
}

impl BlockFileSet {
    /// Read every block file back and assemble the full adjacency matrix.
    ///
    /// Both formats stream through the reader replay uses, into one
    /// [`CooSink`]: a failure names the shard it occurred in
    /// ([`SparseError::WithPath`]) — and, in a TSV shard, the line — so a
    /// corrupt file in a large set is identifiable from the error alone.
    /// A TSV value column is not read; generated shards always write `1`.
    pub fn read_assembled(&self) -> Result<CooMatrix<u64>, CoreError> {
        let mut all = CooSink::new(self.vertices);
        let mut chunk = EdgeChunk::new(EdgeChunk::DEFAULT_CAPACITY);
        let mut collect = |edges: &[(u64, u64)]| all.consume(edges);
        for file in &self.files {
            stream_shard(
                file,
                self.format,
                self.vertices,
                None,
                &mut chunk,
                &mut collect,
            )?;
        }
        Ok(all.finish_with_checksum()?.0)
    }
}

/// Recompute the checksum a shard *should* carry by streaming its bytes
/// back from disk: for TSV shards the FNV-1a hash of the whole file, for
/// compressed shards the hash of the payload after the header (equal to the
/// checksum the header stores).  Errors are annotated with the shard path.
///
/// This is what `Pipeline::resume` uses to decide whether a shard recorded
/// in the progress journal is still intact or must be regenerated.
pub fn shard_checksum(path: &Path, format: BlockFormat) -> Result<u64, SparseError> {
    let attempt = || -> Result<u64, SparseError> {
        let file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = std::io::BufReader::with_capacity(1 << 18, file);
        if format == BlockFormat::Compressed {
            // Position the reader past the header; the header itself is
            // validated in passing.
            BlockHeader::read(file_len, &mut reader)?;
        }
        let mut hasher = Fnv1a::new();
        let mut buffer = [0u8; 1 << 16];
        loop {
            let read = reader.read(&mut buffer)?;
            if read == 0 {
                break;
            }
            hasher.update(&buffer[..read]);
        }
        Ok(hasher.finish())
    };
    attempt().map_err(|e| SparseError::with_path(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::testing::TestDir;
    use kron_core::{KroneckerDesign, SelfLoop};

    /// Write a three-worker run of `format` under `dir` and return the edges
    /// it must hold, sorted — taken from the design's own realisation, which
    /// never touches a shard codec.
    fn written_run(dir: &Path, format: BlockFormat) -> Vec<(u64, u64)> {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let pipeline = Pipeline::for_design(&design)
            .workers(3)
            .split_index(1)
            .max_c_edges(100_000);
        let report = match format {
            BlockFormat::Tsv => pipeline.write_tsv(dir),
            BlockFormat::Compressed => pipeline.write_compressed(dir),
        }
        .unwrap();
        assert!(report.is_valid());
        let mut edges: Vec<(u64, u64)> = design
            .realize(1_000_000)
            .unwrap()
            .iter()
            .map(|(r, c, _)| (r, c))
            .collect();
        edges.sort_unstable();
        edges
    }

    #[test]
    fn replay_streams_the_exact_stored_edge_set() {
        for format in BlockFormat::ALL {
            let dir = TestDir::new(&format!("stream_{format:?}"));
            let expected = written_run(&dir, format);
            let source = ReplaySource::from_directory(&dir).unwrap();
            assert_eq!(source.format(), format);
            assert_eq!(source.files().len(), 3);

            let (run, warnings) = source.prepare(3).unwrap();
            assert!(warnings.is_empty());
            let mut replayed = Vec::new();
            for worker in 0..3 {
                let mut chunk = EdgeChunk::new(513);
                run.stream_worker::<SparseError, _>(worker, &mut chunk, |edges| {
                    replayed.extend_from_slice(edges);
                    Ok(())
                })
                .unwrap();
            }
            replayed.sort_unstable();
            assert_eq!(replayed, expected, "{format:?} replay changed the edges");
        }
    }

    /// Write `edges` as one v4 shard under `dir`.
    fn v4_shard(dir: &Path, index: usize, vertices: u64, edges: &[(u64, u64)]) -> PathBuf {
        use crate::sink::{CompressedShardSink, EdgeSink};
        let path = dir.join(format!("block_{index:05}.kbkz"));
        let mut sink = CompressedShardSink::create(&path, vertices, vertices).unwrap();
        sink.consume(edges).unwrap();
        sink.finish_with_checksum().unwrap().0
    }

    #[test]
    fn the_sink_sees_whole_chunks_whatever_the_frames_look_like() {
        // Shards of two full frames and a bit, one frame and a bit, exactly
        // one frame, and a sliver: at every capacity below, frame ends
        // straddle chunk ends somewhere.
        let vertices = 1u64 << 20;
        let lengths = [2 * codec::FRAME_EDGES + 17, 70_001, codec::FRAME_EDGES, 5];
        let dir = TestDir::new("chunk_shape");
        let mut next = 0u64;
        let shards: Vec<Vec<(u64, u64)>> = lengths
            .iter()
            .map(|&len| {
                (0..len)
                    .map(|_| {
                        next += 1;
                        (next % vertices, next.wrapping_mul(0x9E37_79B9) % vertices)
                    })
                    .collect()
            })
            .collect();
        let files: Vec<PathBuf> = shards
            .iter()
            .enumerate()
            .map(|(index, edges)| v4_shard(&dir, index, vertices, edges))
            .collect();
        let source = ReplaySource::from_file_set(&BlockFileSet {
            directory: dir.to_path_buf(),
            files,
            vertices,
            format: BlockFormat::Compressed,
        });
        let leftover = (7u64, 9u64);
        for shards_per_worker in [1usize, 2, 4] {
            let workers = lengths.len() / shards_per_worker;
            let (run, _) = source.prepare(workers).unwrap();
            for capacity in [1usize, 3, 4096, 65_536, 100_000] {
                for worker in 0..workers {
                    // A leftover edge in the chunk on entry goes out first,
                    // on its own.
                    let mut chunk = EdgeChunk::new(capacity);
                    chunk.push(leftover.0, leftover.1);
                    let mut slices: Vec<usize> = Vec::new();
                    let mut seen: Vec<(u64, u64)> = Vec::new();
                    let delivered = run
                        .stream_worker::<SparseError, _>(worker, &mut chunk, |edges| {
                            slices.push(edges.len());
                            seen.extend_from_slice(edges);
                            Ok(())
                        })
                        .unwrap();
                    assert!(chunk.is_empty(), "a shard's tail must be flushed");

                    let mine = &shards[worker * shards_per_worker..][..shards_per_worker];
                    let mut expected_edges = vec![leftover];
                    let mut expected_slices = vec![1];
                    for shard in mine {
                        expected_edges.extend_from_slice(shard);
                        expected_slices
                            .extend(std::iter::repeat_n(capacity, shard.len() / capacity));
                        if shard.len() % capacity != 0 {
                            expected_slices.push(shard.len() % capacity);
                        }
                    }
                    let context = format!("capacity {capacity}, worker {worker} of {workers}");
                    assert_eq!(delivered as usize, expected_edges.len() - 1, "{context}");
                    assert_eq!(slices, expected_slices, "{context}");
                    assert!(seen == expected_edges, "{context}: edges differ");
                }
            }
        }
    }

    #[test]
    fn resume_reverifies_multi_frame_shards_to_the_uninterrupted_report() {
        // 276 480 edges on two workers: three frames a shard.  Resume keeps
        // worker 0's shard (streaming it back through this module's v4
        // branch) and regenerates worker 1's.
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9, 16], SelfLoop::None).unwrap();
        let pipeline = || Pipeline::for_design(&design).workers(2);
        let whole_dir = TestDir::new("resume_shape_whole");
        let whole = pipeline().write_compressed(&whole_dir).unwrap();
        assert!(whole.edge_count() / 2 > 2 * codec::FRAME_EDGES as u64);
        for capacity in [1usize, 3, 4096, 65_536, 100_000] {
            let dir = TestDir::new("resume_shape");
            let first = pipeline().write_compressed(&dir).unwrap();
            std::fs::remove_file(&first.outputs[1]).unwrap();
            let resumed = pipeline().chunk_capacity(capacity).resume(&dir).unwrap();
            assert!(
                resumed
                    .manifest
                    .warnings
                    .iter()
                    .any(|note| note.contains("1 shard(s) verified")),
                "one shard must take the skip path: {:?}",
                resumed.manifest.warnings
            );
            assert_eq!(resumed.metrics, whole.metrics, "capacity {capacity}");
            for (resumed, whole) in resumed.outputs.iter().zip(&whole.outputs) {
                assert_eq!(
                    std::fs::read(resumed).unwrap(),
                    std::fs::read(whole).unwrap()
                );
            }
        }
    }

    #[test]
    fn idle_workers_warn_and_deliver_nothing() {
        let dir = TestDir::new("idle_workers");
        let expected = written_run(&dir, BlockFormat::Compressed);
        let source = ReplaySource::from_directory(&dir).unwrap();
        let (run, warnings) = source.prepare(5).unwrap();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("idle"));
        let mut replayed = Vec::new();
        for worker in 0..5 {
            let mut chunk = EdgeChunk::new(64);
            run.stream_worker::<SparseError, _>(worker, &mut chunk, |edges| {
                replayed.extend_from_slice(edges);
                Ok(())
            })
            .unwrap();
        }
        replayed.sort_unstable();
        assert_eq!(replayed, expected);
    }

    #[test]
    fn errors_name_the_failing_shard() {
        let dir = TestDir::new("corrupt");
        let _ = written_run(&dir, BlockFormat::Compressed);
        // Corrupt the middle shard's magic.
        let victim = dir.join("block_00001.kbkz");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[..4].copy_from_slice(b"NOPE");
        std::fs::write(&victim, &bytes).unwrap();

        let source = ReplaySource::from_directory(&dir).unwrap();
        let (run, _) = source.prepare(3).unwrap();
        let mut chunk = EdgeChunk::new(64);
        let error = run
            .stream_worker::<SparseError, _>(1, &mut chunk, |_| Ok(()))
            .unwrap_err();
        assert!(
            error.to_string().contains("block_00001"),
            "error must name the shard: {error}"
        );

        // A missing shard is named too.
        std::fs::remove_file(&victim).unwrap();
        let error = run
            .stream_worker::<SparseError, _>(1, &mut chunk, |_| Ok(()))
            .unwrap_err();
        assert!(error.to_string().contains("block_00001"), "{error}");
    }

    #[test]
    fn tsv_parse_errors_carry_line_numbers_and_bounds_are_checked() {
        let dir = TestDir::new("bad_tsv");
        let path = dir.join("block_00000.tsv");
        std::fs::write(&path, "0\t1\t1\n# comment\n\nnot-a-number\t2\t1\n").unwrap();
        let set = BlockFileSet {
            directory: dir.to_path_buf(),
            files: vec![path.clone()],
            vertices: 4,
            format: BlockFormat::Tsv,
        };
        let source = ReplaySource::from_file_set(&set);
        let (run, _) = source.prepare(1).unwrap();
        let mut chunk = EdgeChunk::new(64);
        let error = run
            .stream_worker::<SparseError, _>(0, &mut chunk, |_| Ok(()))
            .unwrap_err();
        let message = error.to_string();
        assert!(message.contains("block_00000.tsv"), "{message}");
        assert!(message.contains("line 4"), "{message}");

        // An out-of-bounds endpoint is rejected with the shard *and* the
        // offending line named.
        std::fs::write(&path, "0\t1\t1\n0\t9\t1\n").unwrap();
        let error = run
            .stream_worker::<SparseError, _>(0, &mut chunk, |_| Ok(()))
            .unwrap_err();
        assert!(error.to_string().contains("out of bounds"), "{error}");
        assert!(error.to_string().contains("block_00000.tsv"), "{error}");
        assert!(error.to_string().contains("line 2"), "{error}");
    }

    /// Stream the TSV shard at `path` of a `vertices`-vertex graph: the
    /// outcome, and the edges the sink was handed.
    fn stream_tsv(
        path: &Path,
        vertices: u64,
        checksum: Option<u64>,
    ) -> (Result<u64, SparseError>, Vec<(u64, u64)>) {
        let mut chunk = EdgeChunk::new(7);
        let mut seen = Vec::new();
        let mut collect = |edges: &[(u64, u64)]| {
            seen.extend_from_slice(edges);
            Ok::<(), SparseError>(())
        };
        let outcome = stream_shard(
            path,
            BlockFormat::Tsv,
            vertices,
            checksum,
            &mut chunk,
            &mut collect,
        );
        (outcome, seen)
    }

    /// The error inside `error`, which must name the shard at `path`.
    fn named_by<'e>(error: &'e SparseError, path: &Path) -> &'e SparseError {
        match error {
            SparseError::WithPath {
                path: named,
                source,
            } => {
                assert_eq!(named, &path.display().to_string());
                source
            }
            other => panic!("expected an error naming {}: {other:?}", path.display()),
        }
    }

    #[test]
    fn tsv_lines_longer_than_the_limit_are_parse_errors_naming_the_line() {
        let dir = TestDir::new("tsv_line_limit");
        let path = dir.join("block_00000.tsv");
        // A comment of exactly the limit, newline included, is still a line.
        let longest = format!("#{}\n", "x".repeat(TSV_LINE_LIMIT - 2));
        std::fs::write(&path, format!("0\t1\t1\n{longest}1\t0\t1\n")).unwrap();
        assert_eq!(stream_tsv(&path, 2, None).0.unwrap(), 2);
        // One byte more is not, and neither is a megabyte with no newline.
        let too_long = format!("0\t1\t1\n#{}\n", "x".repeat(TSV_LINE_LIMIT - 1));
        for (text, at) in [(too_long, 2), ("7".repeat(1 << 20), 1)] {
            std::fs::write(&path, text).unwrap();
            let error = stream_tsv(&path, 2, None).0.unwrap_err();
            match named_by(&error, &path) {
                SparseError::Parse { line, message } => {
                    assert_eq!(*line, at);
                    assert!(message.contains("longer than 4096 bytes"), "{message}");
                }
                other => panic!("expected a parse error: {other:?}"),
            }
        }
    }

    mod properties {
        use super::*;
        use crate::sink::TsvShardSink;
        use proptest::prelude::*;

        /// A TSV stream delivers what it counts, or fails with a typed error
        /// naming the shard — whatever the file holds.
        fn stream_checked(
            path: &Path,
            vertices: u64,
            checksum: Option<u64>,
        ) -> Result<u64, SparseError> {
            let (outcome, seen) = stream_tsv(path, vertices, checksum);
            match &outcome {
                Ok(delivered) => assert_eq!(*delivered, seen.len() as u64),
                Err(error) => assert!(
                    matches!(
                        named_by(error, path),
                        SparseError::Parse { .. } | SparseError::ChecksumMismatch { .. }
                    ),
                    "{error}"
                ),
            }
            outcome
        }

        /// A TSV shard of `edges` written by the sink at `path`, and the
        /// checksum the run would record for it.
        fn written_shard(path: &Path, edges: &[(u64, u64)]) -> Option<u64> {
            let mut sink = TsvShardSink::create(path).unwrap();
            sink.consume(edges).unwrap();
            sink.finish_with_checksum().unwrap().1
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn arbitrary_bytes_give_their_edges_or_a_typed_error(
                noise in proptest::collection::vec(any::<u8>(), 0..400),
                // Mostly what shards are made of, so the parser is reached,
                // not only the UTF-8 check.
                letters in proptest::collection::vec(0usize..16, 0..400),
                vertices in 0u64..64,
            ) {
                const SHARD_BYTES: &[u8; 16] = b"0123456789\t\t\n\n# ";
                let dir = TestDir::new("tsv_noise");
                let path = dir.join("block_00000.tsv");
                let shardlike: Vec<u8> = letters.iter().map(|&letter| SHARD_BYTES[letter]).collect();
                for bytes in [noise, shardlike] {
                    std::fs::write(&path, &bytes).unwrap();
                    let hash = Fnv1a::hash(&bytes);
                    stream_checked(&path, vertices, None).ok();
                    stream_checked(&path, vertices, Some(hash)).ok();
                    prop_assert!(stream_checked(&path, vertices, Some(!hash)).is_err());
                }
            }

            #[test]
            fn every_truncation_of_a_valid_shard_is_a_typed_error(
                edges in proptest::collection::vec((0u64..1_000, 0u64..1_000), 1..16),
            ) {
                let dir = TestDir::new("tsv_truncate");
                let whole = dir.join("whole.tsv");
                let checksum = written_shard(&whole, &edges);
                let (outcome, seen) = stream_tsv(&whole, 1_000, checksum);
                prop_assert_eq!(outcome.unwrap(), edges.len() as u64);
                prop_assert_eq!(&seen, &edges);
                let bytes = std::fs::read(&whole).unwrap();
                let path = dir.join("block_00000.tsv");
                for len in 0..bytes.len() {
                    std::fs::write(&path, &bytes[..len]).unwrap();
                    prop_assert!(
                        stream_checked(&path, 1_000, checksum).is_err(),
                        "the {len}-byte prefix passed"
                    );
                }
            }

            #[test]
            fn labels_past_the_vertex_count_are_parse_errors_naming_their_line(
                edges in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..32),
            ) {
                // The largest label is out of range in a graph of exactly that
                // many vertices.
                let vertices = edges.iter().map(|&(row, col)| row.max(col)).max().unwrap();
                let first = edges
                    .iter()
                    .position(|&(row, col)| row >= vertices || col >= vertices)
                    .unwrap();
                let dir = TestDir::new("tsv_bounds");
                let path = dir.join("block_00000.tsv");
                let checksum = written_shard(&path, &edges);
                let (outcome, seen) = stream_tsv(&path, vertices, checksum);
                let error = outcome.unwrap_err();
                match named_by(&error, &path) {
                    SparseError::Parse { line, message } => {
                        prop_assert_eq!(*line, first + 1);
                        prop_assert!(message.contains("out of bounds"), "{}", message);
                    }
                    other => panic!("expected a parse error: {other:?}"),
                }
                prop_assert!(edges[..first].starts_with(&seen));
            }
        }
    }

    #[test]
    fn directories_without_a_replayable_run_are_rejected() {
        // No manifest at all.
        let dir = TestDir::new("no_manifest");
        assert!(ReplaySource::from_directory(&dir).is_err());

        // A counting run's manifest has no shards to replay.
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        let report = Pipeline::for_design(&design).workers(2).count().unwrap();
        report
            .manifest
            .write_to(&dir.join(MANIFEST_FILE_NAME))
            .unwrap();
        assert!(matches!(
            ReplaySource::from_directory(&dir),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn zero_workers_rejected() {
        let dir = TestDir::new("zero_workers");
        let _ = written_run(&dir, BlockFormat::Tsv);
        let source = ReplaySource::from_directory(&dir).unwrap();
        assert!(matches!(
            source.prepare(0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn descriptor_reflects_the_replayed_manifest() {
        let dir = TestDir::new("descriptor");
        let _ = written_run(&dir, BlockFormat::Compressed);
        let source = ReplaySource::from_directory(&dir).unwrap();
        let (run, _) = source.prepare(2).unwrap();
        let descriptor = run.descriptor();
        assert_eq!(descriptor.kind, "replay");
        assert_eq!(descriptor.star_points, vec![3, 4, 5]);
        assert_eq!(descriptor.self_loop, "Centre");
        assert_eq!(descriptor.self_loop_policy, "replay");
        assert_eq!(descriptor.vertices, "120");
        assert!(run.predicted_properties().is_none());
        assert!(run.split_plan().is_none());
    }
}
