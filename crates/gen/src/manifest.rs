//! Run manifests: the reproducibility record of a pipeline run.
//!
//! Every [`Pipeline`](crate::pipeline::Pipeline) run produces a
//! [`RunManifest`] capturing the design spec, the full generation
//! configuration, the output paths, and the per-worker edge counts — enough
//! to re-run the exact same generation or to audit a directory of shards
//! long after the run.  File-writing terminals drop the manifest as
//! `manifest.json` next to the shards, and append to the
//! [`ProgressJournal`] (`progress.jsonl`) as workers finish.
//!
//! This module owns the *schema* of those two files and nothing of their
//! syntax: each of the four records has one private `Record` impl that
//! lists its keys once for writing and once for reading, shared by the
//! manifest and the journal; the JSON itself — layout, escaping, the strict
//! bounded parser — is the crate's private `json` module.  Writing and
//! reading are round-trip exact (including `u64` counts beyond 2^53 and
//! shortest-representation `f64` seconds), and reading stays tolerant of
//! what older and newer writers produce: fields added later have documented
//! defaults and unknown keys are ignored.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use kron_sparse::SparseError;

use crate::json::{schema_error, Field, Json};
use crate::metrics::MetricRecord;
use crate::sink::StagedFile;

/// The name under which file-writing pipeline terminals store the manifest,
/// inside the shard directory.
pub const MANIFEST_FILE_NAME: &str = "manifest.json";

/// The name of the progress journal file-writing pipeline terminals append
/// to as workers finish, inside the shard directory — the record
/// [`Pipeline::resume`](crate::pipeline::Pipeline::resume) reads to decide
/// which shards are already done.
pub const PROGRESS_FILE_NAME: &str = "progress.jsonl";

/// One completed shard: the per-worker durability record the progress
/// journal appends when a worker's sink finishes, and the manifest's
/// `shards` array carries for replay-time verification.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRecord {
    /// The worker that produced the shard.
    pub worker: usize,
    /// File name of the shard (relative to the run directory, like the
    /// manifest's `outputs`, so a relocated directory stays resumable).
    pub file: String,
    /// Edges the shard holds.
    pub edges: u64,
    /// FNV-1a checksum of the shard — the whole file for TSV, the payload
    /// after the header for compressed (see
    /// [`shard_checksum`](crate::replay::shard_checksum)).
    pub checksum: u64,
}

/// The serialisable record of one pipeline run: design spec, configuration,
/// outputs, and per-worker results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// The edge-source kind the run streamed from (`"kronecker"`,
    /// `"kronecker_raw"`, `"rmat"`, …).  Manifests written before the
    /// generic-source pipeline lack this field; they parse as
    /// `"kronecker"` (or `"kronecker_raw"` when their `self_loop_policy`
    /// says `"keep_raw"`), which is what those runs were.
    pub source: String,
    /// The sampling seed of a seeded source (`None` for the exact Kronecker
    /// expansion).  Absent in pre-source manifests, parsed as `None`.
    pub source_seed: Option<u64>,
    /// The seed of the in-stream Feistel vertex permutation, when the run
    /// relabelled vertices.  Absent in pre-source manifests, parsed as
    /// `None`.
    pub permutation_seed: Option<u64>,
    /// Star points `m̂` of the design, in constituent order (empty when the
    /// design is not a pure star product).
    pub star_points: Vec<u64>,
    /// Self-loop placement of the design (`"None"`, `"Centre"`, `"Leaf"`).
    pub self_loop: String,
    /// Exact designed vertex count, as a decimal string (may exceed `u64`).
    pub vertices: String,
    /// Exact predicted edge count of the run's target, as a decimal string
    /// (may exceed `u64`): the designed final graph's edges, or the raw
    /// product's `nnz_with_loops` for a `keep_raw` run — always the count
    /// the run's validation compared `total_edges` against.
    pub predicted_edges: String,
    /// Number of workers the run used.
    pub workers: usize,
    /// The `B ⊗ C` split index the run executed.
    pub split_index: usize,
    /// Memory budget for the replicated `C` factor, in stored entries.
    pub max_c_edges: u64,
    /// Memory budget for the partitioned `B` factor, in stored entries.
    pub max_b_edges: u64,
    /// Capacity of each worker's reusable edge chunk.
    pub chunk_capacity: usize,
    /// Memory budget for the streaming degree histogram, in bytes.
    pub max_histogram_bytes: u64,
    /// Self-loop policy of the run (`"remove_designed"` or `"keep_raw"`).
    pub self_loop_policy: String,
    /// The terminal sink kind (`"counting"`, `"coo"`, `"tsv"`,
    /// `"compressed"`, `"custom"`).
    pub sink: String,
    /// Output directory of a file-writing run, if any.
    pub directory: Option<String>,
    /// Output file paths, in worker order (empty for non-file sinks).
    pub outputs: Vec<String>,
    /// Edges delivered per worker, in worker order.
    pub edges_per_worker: Vec<u64>,
    /// Total edges delivered to the sinks.
    pub total_edges: u64,
    /// Wall-clock generation time in seconds.
    pub seconds: f64,
    /// Whether the streamed validation matched the prediction exactly.
    pub exact_match: bool,
    /// Warnings recorded during the run (e.g. a fallback split).
    pub warnings: Vec<String>,
    /// Completion records of the run's shards, in worker order (empty for
    /// non-file sinks, and for quarantined workers that never finished a
    /// shard).  Absent in manifests written before crash-safe runs, parsed
    /// as empty.
    pub shards: Vec<ShardRecord>,
    /// Name/value records of the streaming-metrics engine (built-ins first,
    /// custom metrics after) — see
    /// [`MetricsReport::records`](crate::metrics::MetricsReport::records).
    /// Absent in manifests written before the metrics engine, parsed as
    /// empty; unknown names are preserved verbatim, so newer engines'
    /// records survive older readers.
    pub metrics: Vec<MetricRecord>,
}

impl RunManifest {
    /// Serialise the manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_object().to_document()
    }

    /// Parse a manifest back from its JSON form.
    ///
    /// The source-kind and seed fields were added by the generic-source
    /// pipeline; manifests written before it parse with their documented
    /// defaults, so old shard directories stay auditable.
    pub fn from_json(text: &str) -> Result<Self, SparseError> {
        RunManifest::from_fields(Json::parse(text)?.named("manifest"))
    }

    /// Write the manifest as JSON to `path`, crash-safely: the bytes stage
    /// at `<path>.tmp`, are fsynced, and only then renamed into place, so a
    /// crash mid-write never leaves a truncated manifest under the final
    /// name (and a previous manifest stays intact until the new one is
    /// durable).
    pub fn write_to(&self, path: &Path) -> Result<(), SparseError> {
        // Unbuffered: the document goes out in one write.
        let mut staged = StagedFile::stage(path, 0)?;
        let (writer, _) = staged.parts();
        if let Err(error) = writer.write_all(self.to_json().as_bytes()) {
            staged.abandon();
            return Err(SparseError::with_path(path, error.into()));
        }
        staged.commit(None)?;
        Ok(())
    }

    /// Read a manifest back from a JSON file.
    pub fn read_from(path: &Path) -> Result<Self, SparseError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| SparseError::with_path(path, e.into()))?;
        RunManifest::from_json(&text).map_err(|e| SparseError::with_path(path, e))
    }
}

/// The run-identity line opening a progress journal: enough configuration
/// to check that a resuming pipeline would regenerate the *same* shards the
/// interrupted run was producing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// The edge-source kind ([`SourceDescriptor::kind`](crate::source::SourceDescriptor)).
    pub source: String,
    /// The sampling seed of a seeded source, if any.
    pub source_seed: Option<u64>,
    /// The seed of the in-stream vertex permutation, if any.
    pub permutation_seed: Option<u64>,
    /// Number of workers (and therefore shards) of the run.
    pub workers: usize,
    /// Designed vertex count, as a decimal string.
    pub vertices: String,
    /// The file sink kind (`"tsv"` or `"compressed"`).
    pub sink: String,
}

/// The append-only progress journal of a file-writing run
/// (`progress.jsonl`): one `run` header line identifying the run, then one
/// `shard` line per completed shard, appended (flushed and fsynced) the
/// moment each worker's sink finishes.  Lines are self-contained JSON
/// objects, so a crash mid-append costs at most the last line — the reader
/// skips anything it cannot parse, and an unreadable shard record merely
/// means that shard is regenerated on resume.
///
/// When a worker's shard is regenerated by a resumed run, a fresh line is
/// appended rather than rewriting the file; the *last* record per worker
/// wins.  The journal is kept after a successful run (it doubles as an
/// audit trail), and unknown `kind` lines are ignored so future journal
/// versions stay readable.
#[derive(Debug)]
pub struct ProgressJournal {
    file: std::sync::Mutex<std::fs::File>,
    path: PathBuf,
}

impl ProgressJournal {
    /// Where the journal lives inside a run directory.
    pub fn path_in(directory: &Path) -> PathBuf {
        directory.join(PROGRESS_FILE_NAME)
    }

    /// Start a fresh journal for a new run, truncating any previous one and
    /// durably recording the run header.
    pub fn create(directory: &Path, header: &JournalHeader) -> Result<Self, SparseError> {
        let path = Self::path_in(directory);
        let file =
            std::fs::File::create(&path).map_err(|e| SparseError::with_path(&path, e.into()))?;
        let journal = ProgressJournal {
            file: std::sync::Mutex::new(file),
            path,
        };
        journal.append_line(&journal_line("run", header))?;
        Ok(journal)
    }

    /// Reopen an existing journal for appending — what a resumed run uses,
    /// so completion records of the interrupted run are never lost, even if
    /// the resume itself crashes.
    pub fn open_for_append(directory: &Path) -> Result<Self, SparseError> {
        let path = Self::path_in(directory);
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| SparseError::with_path(&path, e.into()))?;
        Ok(ProgressJournal {
            file: std::sync::Mutex::new(file),
            path,
        })
    }

    /// Durably append one shard completion record.  Called concurrently by
    /// workers as they finish; each record is flushed and fsynced before
    /// the call returns, so a later crash cannot take it back.
    pub fn record_shard(&self, record: &ShardRecord) -> Result<(), SparseError> {
        self.append_line(&journal_line("shard", record))
    }

    fn append_line(&self, line: &str) -> Result<(), SparseError> {
        // lint:allow(no-expect) -- a poisoned journal mutex means another worker already panicked mid-record; continuing could corrupt the journal
        let mut file = self.file.lock().expect("journal lock poisoned");
        let mut attempt = || -> std::io::Result<()> {
            file.write_all(line.as_bytes())?;
            file.sync_data()
        };
        attempt().map_err(|e| SparseError::with_path(&self.path, e.into()))
    }

    /// Read a run directory's journal back: the run header plus the
    /// *effective* shard records (last record per worker wins, workers in
    /// ascending order).  Unparsable lines — a torn final append, future
    /// record kinds — are skipped; a journal with no readable header is an
    /// error, because nothing can be safely resumed from it.
    pub fn read(directory: &Path) -> Result<(JournalHeader, Vec<ShardRecord>), SparseError> {
        let path = Self::path_in(directory);
        let text =
            std::fs::read_to_string(&path).map_err(|e| SparseError::with_path(&path, e.into()))?;
        let mut header: Option<JournalHeader> = None;
        let mut latest: std::collections::BTreeMap<usize, ShardRecord> =
            std::collections::BTreeMap::new();
        for line in text.lines() {
            // A line that does not parse — blank, or torn by a crash
            // mid-append — never happened.
            let Ok(json) = Json::parse(line) else {
                continue;
            };
            let line = json.named("journal line");
            match line.get("kind").and_then(Field::string).as_deref() {
                Ok("run") => {
                    if let Ok(parsed) = JournalHeader::from_fields(line) {
                        header = Some(parsed);
                    }
                }
                Ok("shard") => {
                    if let Ok(record) = ShardRecord::from_fields(line) {
                        latest.insert(record.worker, record);
                    }
                }
                _ => {}
            }
        }
        let header = header.ok_or_else(|| {
            SparseError::with_path(&path, schema_error("progress journal has no run header"))
        })?;
        Ok((header, latest.into_values().collect()))
    }
}

/// One journal line: `{"kind": …, <the record's fields>}` and a newline.
fn journal_line(kind: &str, record: &impl Record) -> String {
    let fields = std::iter::once(("kind", kind.into())).chain(record.to_fields());
    let mut line = Json::object(fields).to_line();
    line.push('\n');
    line
}

/// The one JSON definition of a record: its keys, listed once for writing
/// and once for reading, for the manifest and the journal alike.  The two
/// lists are held together by the `no_key_is_written_unread_or_read_unwritten`
/// test, not by the reader — unknown keys must stay ignorable.
trait Record: Sized {
    /// The record's fields in document order.
    fn to_fields(&self) -> Vec<(&'static str, Json)>;

    /// The record read back from the object holding those fields.
    fn from_fields(object: Field<'_>) -> Result<Self, SparseError>;

    fn to_object(&self) -> Json {
        Json::object(self.to_fields())
    }
}

impl Record for RunManifest {
    fn to_fields(&self) -> Vec<(&'static str, Json)> {
        fn records(records: &[impl Record]) -> Json {
            Json::array(records.iter().map(Record::to_object))
        }
        let strings = |values: &[String]| Json::array(values.iter().map(String::as_str));
        let numbers = |values: &[u64]| Json::array(values.iter().copied());
        vec![
            ("source", self.source.as_str().into()),
            ("source_seed", self.source_seed.into()),
            ("permutation_seed", self.permutation_seed.into()),
            ("star_points", numbers(&self.star_points)),
            ("self_loop", self.self_loop.as_str().into()),
            ("vertices", self.vertices.as_str().into()),
            ("predicted_edges", self.predicted_edges.as_str().into()),
            ("workers", self.workers.into()),
            ("split_index", self.split_index.into()),
            ("max_c_edges", self.max_c_edges.into()),
            ("max_b_edges", self.max_b_edges.into()),
            ("chunk_capacity", self.chunk_capacity.into()),
            ("max_histogram_bytes", self.max_histogram_bytes.into()),
            ("self_loop_policy", self.self_loop_policy.as_str().into()),
            ("sink", self.sink.as_str().into()),
            ("directory", self.directory.as_deref().into()),
            ("outputs", strings(&self.outputs)),
            ("edges_per_worker", numbers(&self.edges_per_worker)),
            ("total_edges", self.total_edges.into()),
            ("seconds", self.seconds.into()),
            ("exact_match", Json::Bool(self.exact_match)),
            ("warnings", strings(&self.warnings)),
            ("shards", records(&self.shards)),
            ("metrics", records(&self.metrics)),
        ]
    }

    fn from_fields(object: Field<'_>) -> Result<Self, SparseError> {
        let self_loop_policy = object.get("self_loop_policy")?.string()?;
        let source = match object.find("source") {
            Some(source) => source.string()?,
            // Pre-source manifests could only have come from the Kronecker
            // engine; keep-raw runs were the raw-product stream.
            None if self_loop_policy == "keep_raw" => "kronecker_raw".to_string(),
            None => "kronecker".to_string(),
        };
        // Added with crash-safe runs (`shards`) and the streaming-metrics
        // engine (`metrics`): older manifests simply recorded none.
        let shards = object.find("shards").map(|f| f.list(Record::from_fields));
        let metrics = object.find("metrics").map(|f| f.list(Record::from_fields));
        Ok(RunManifest {
            source,
            source_seed: object.optional("source_seed", Field::number)?,
            permutation_seed: object.optional("permutation_seed", Field::number)?,
            star_points: object.get("star_points")?.list(Field::number)?,
            self_loop: object.get("self_loop")?.string()?,
            vertices: object.get("vertices")?.string()?,
            predicted_edges: object.get("predicted_edges")?.string()?,
            workers: object.get("workers")?.number()?,
            split_index: object.get("split_index")?.number()?,
            max_c_edges: object.get("max_c_edges")?.number()?,
            max_b_edges: object.get("max_b_edges")?.number()?,
            chunk_capacity: object.get("chunk_capacity")?.number()?,
            max_histogram_bytes: object.get("max_histogram_bytes")?.number()?,
            self_loop_policy,
            sink: object.get("sink")?.string()?,
            directory: object
                .get("directory")?
                .nullable()
                .map(Field::string)
                .transpose()?,
            outputs: object.get("outputs")?.list(Field::string)?,
            edges_per_worker: object.get("edges_per_worker")?.list(Field::number)?,
            total_edges: object.get("total_edges")?.number()?,
            seconds: object.get("seconds")?.number()?,
            exact_match: object.get("exact_match")?.bool()?,
            warnings: object.get("warnings")?.list(Field::string)?,
            shards: shards.transpose()?.unwrap_or_default(),
            metrics: metrics.transpose()?.unwrap_or_default(),
        })
    }
}

impl Record for JournalHeader {
    fn to_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("source", self.source.as_str().into()),
            ("source_seed", self.source_seed.into()),
            ("permutation_seed", self.permutation_seed.into()),
            ("workers", self.workers.into()),
            ("vertices", self.vertices.as_str().into()),
            ("sink", self.sink.as_str().into()),
        ]
    }

    fn from_fields(object: Field<'_>) -> Result<Self, SparseError> {
        Ok(JournalHeader {
            source: object.get("source")?.string()?,
            source_seed: object.optional("source_seed", Field::number)?,
            permutation_seed: object.optional("permutation_seed", Field::number)?,
            workers: object.get("workers")?.number()?,
            vertices: object.get("vertices")?.string()?,
            sink: object.get("sink")?.string()?,
        })
    }
}

impl Record for ShardRecord {
    fn to_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("worker", self.worker.into()),
            ("file", self.file.as_str().into()),
            ("edges", self.edges.into()),
            ("checksum", self.checksum.into()),
        ]
    }

    fn from_fields(object: Field<'_>) -> Result<Self, SparseError> {
        Ok(ShardRecord {
            worker: object.get("worker")?.number()?,
            file: object.get("file")?.string()?,
            edges: object.get("edges")?.number()?,
            checksum: object.get("checksum")?.number()?,
        })
    }
}

impl Record for MetricRecord {
    fn to_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", self.name.as_str().into()),
            ("value", self.value.as_str().into()),
        ]
    }

    fn from_fields(object: Field<'_>) -> Result<Self, SparseError> {
        Ok(MetricRecord {
            name: object.get("name")?.string()?,
            value: object.get("value")?.string()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TestDir;

    fn sample() -> RunManifest {
        RunManifest {
            source: "kronecker".into(),
            source_seed: None,
            permutation_seed: Some(77),
            star_points: vec![3, 4, 5, 9],
            self_loop: "Centre".into(),
            vertices: "3600".into(),
            predicted_edges: "13166".into(),
            workers: 4,
            split_index: 2,
            max_c_edges: 1 << 20,
            max_b_edges: 1 << 24,
            chunk_capacity: 65536,
            max_histogram_bytes: 1 << 30,
            self_loop_policy: "remove_designed".into(),
            sink: "compressed".into(),
            directory: Some("/tmp/run with \"quotes\" and \\slashes\\".into()),
            outputs: vec![
                "/tmp/block_00000.kbkz".into(),
                "/tmp/block_00001.kbkz".into(),
            ],
            edges_per_worker: vec![3292, 3291, 3292, 3291],
            total_edges: 13166,
            seconds: 0.123456789,
            exact_match: true,
            warnings: vec!["unicode é → ok\nsecond line".into()],
            shards: vec![
                ShardRecord {
                    worker: 0,
                    file: "block_00000.kbkz".into(),
                    edges: 6583,
                    checksum: u64::MAX - 9,
                },
                ShardRecord {
                    worker: 1,
                    file: "block_00001.kbkz".into(),
                    edges: 6583,
                    checksum: 42,
                },
            ],
            metrics: vec![
                MetricRecord::new("edges", 13166u64),
                MetricRecord::new("power_law_alpha", "1.0"),
                MetricRecord::new("odd \"name\"", "with\ttab"),
            ],
        }
    }

    /// The second golden sample: every field at its "empty" form.
    fn sparse_sample() -> RunManifest {
        RunManifest {
            source: "rmat".into(),
            source_seed: Some(u64::MAX),
            permutation_seed: None,
            star_points: Vec::new(),
            directory: None,
            outputs: Vec::new(),
            warnings: vec!["\u{1}\u{1f}é😀/\\\"\t\r\n".into()],
            shards: Vec::new(),
            metrics: Vec::new(),
            ..sample()
        }
    }

    fn sample_header() -> JournalHeader {
        JournalHeader {
            source: "rmat".into(),
            source_seed: Some(u64::MAX),
            permutation_seed: None,
            workers: 2,
            vertices: "3600".into(),
            sink: "compressed".into(),
        }
    }

    const GOLDEN_MANIFEST: &str = r#"{
  "source": "kronecker",
  "source_seed": null,
  "permutation_seed": 77,
  "star_points": [3, 4, 5, 9],
  "self_loop": "Centre",
  "vertices": "3600",
  "predicted_edges": "13166",
  "workers": 4,
  "split_index": 2,
  "max_c_edges": 1048576,
  "max_b_edges": 16777216,
  "chunk_capacity": 65536,
  "max_histogram_bytes": 1073741824,
  "self_loop_policy": "remove_designed",
  "sink": "compressed",
  "directory": "/tmp/run with \"quotes\" and \\slashes\\",
  "outputs": ["/tmp/block_00000.kbkz", "/tmp/block_00001.kbkz"],
  "edges_per_worker": [3292, 3291, 3292, 3291],
  "total_edges": 13166,
  "seconds": 0.123456789,
  "exact_match": true,
  "warnings": ["unicode é → ok\nsecond line"],
  "shards": [
    {"worker": 0, "file": "block_00000.kbkz", "edges": 6583, "checksum": 18446744073709551606},
    {"worker": 1, "file": "block_00001.kbkz", "edges": 6583, "checksum": 42}
  ],
  "metrics": [
    {"name": "edges", "value": "13166"},
    {"name": "power_law_alpha", "value": "1.0"},
    {"name": "odd \"name\"", "value": "with\ttab"}
  ]
}
"#;

    const GOLDEN_SPARSE_MANIFEST: &str = r#"{
  "source": "rmat",
  "source_seed": 18446744073709551615,
  "permutation_seed": null,
  "star_points": [],
  "self_loop": "Centre",
  "vertices": "3600",
  "predicted_edges": "13166",
  "workers": 4,
  "split_index": 2,
  "max_c_edges": 1048576,
  "max_b_edges": 16777216,
  "chunk_capacity": 65536,
  "max_histogram_bytes": 1073741824,
  "self_loop_policy": "remove_designed",
  "sink": "compressed",
  "directory": null,
  "outputs": [],
  "edges_per_worker": [3292, 3291, 3292, 3291],
  "total_edges": 13166,
  "seconds": 0.123456789,
  "exact_match": true,
  "warnings": ["\u0001\u001fé😀/\\\"\t\r\n"],
  "shards": [],
  "metrics": []
}
"#;

    const GOLDEN_JOURNAL: &str = r#"{"kind": "run", "source": "rmat", "source_seed": 18446744073709551615, "permutation_seed": null, "workers": 2, "vertices": "3600", "sink": "compressed"}
{"kind": "shard", "worker": 0, "file": "block_00000.kbkz", "edges": 6583, "checksum": 18446744073709551606}
"#;

    /// The layout is the contract: tests elsewhere edit these files as text,
    /// and directories written by earlier builds must keep reading back.
    #[test]
    fn manifest_and_journal_bytes_are_pinned() {
        assert_eq!(sample().to_json(), GOLDEN_MANIFEST);
        assert_eq!(sparse_sample().to_json(), GOLDEN_SPARSE_MANIFEST);
        let dir = TestDir::new("journal_golden_bytes");
        let journal = ProgressJournal::create(&dir, &sample_header()).unwrap();
        journal.record_shard(&sample().shards[0]).unwrap();
        drop(journal);
        let written = std::fs::read_to_string(ProgressJournal::path_in(&dir)).unwrap();
        assert_eq!(written, GOLDEN_JOURNAL);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let manifest = sample();
        let json = manifest.to_json();
        let parsed = RunManifest::from_json(&json).unwrap();
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn source_fields_round_trip_for_every_kind() {
        let mut manifest = sample();
        manifest.source = "rmat".into();
        manifest.source_seed = Some(u64::MAX - 5);
        manifest.permutation_seed = None;
        manifest.star_points.clear();
        let parsed = RunManifest::from_json(&manifest.to_json()).unwrap();
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.source_seed, Some(u64::MAX - 5));
        assert_eq!(parsed.permutation_seed, None);
    }

    #[test]
    fn manifests_written_before_the_source_fields_still_parse() {
        // A pre-source manifest: serialise a modern one, then strip the
        // three new lines — exactly the document the previous pipeline
        // wrote.
        let mut expected = sample();
        let json: String = expected
            .to_json()
            .lines()
            .filter(|line| {
                !line.trim_start().starts_with("\"source\"")
                    && !line.trim_start().starts_with("\"source_seed\"")
                    && !line.trim_start().starts_with("\"permutation_seed\"")
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!json.contains("\"source\""), "strip must remove the fields");
        let parsed = RunManifest::from_json(&json).unwrap();
        expected.source = "kronecker".into();
        expected.source_seed = None;
        expected.permutation_seed = None;
        assert_eq!(parsed, expected);

        // A keep-raw manifest from the old pipeline was the raw-product
        // stream, and parses as that source kind.
        let raw = json.replace("\"remove_designed\"", "\"keep_raw\"");
        assert_eq!(
            RunManifest::from_json(&raw).unwrap().source,
            "kronecker_raw"
        );

        // null seeds are equivalent to absent ones.
        let with_nulls = json.replacen(
            "{\n",
            "{\n  \"source_seed\": null,\n  \"permutation_seed\": null,\n",
            1,
        );
        let parsed = RunManifest::from_json(&with_nulls).unwrap();
        assert_eq!(parsed.source_seed, None);
        assert_eq!(parsed.permutation_seed, None);
    }

    #[test]
    fn round_trip_preserves_u64_beyond_f64_precision_and_null_directory() {
        let mut manifest = sample();
        manifest.total_edges = u64::MAX - 1;
        manifest.edges_per_worker = vec![u64::MAX - 1, 9_007_199_254_740_993];
        manifest.directory = None;
        manifest.outputs.clear();
        manifest.warnings.clear();
        manifest.metrics.clear();
        manifest.seconds = 1.0 / 3.0;
        let parsed = RunManifest::from_json(&manifest.to_json()).unwrap();
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn manifests_without_metric_records_still_parse() {
        // A pre-metrics manifest: the whole "metrics" entry absent.  The
        // entry is the document's last, so cut it and re-close the object.
        let mut expected = sample();
        let json = expected.to_json();
        let start = json.find("  \"metrics\":").expect("metrics entry present");
        let stripped = format!("{}\n}}\n", json[..start].trim_end_matches([',', '\n']));
        assert!(!stripped.contains("\"metrics\""));
        let parsed = RunManifest::from_json(&stripped).unwrap();
        expected.metrics.clear();
        assert_eq!(parsed, expected);

        // Malformed metric entries fail cleanly.
        let bad = json.replace("\"value\": \"13166\"", "\"value\": 13166");
        assert!(RunManifest::from_json(&bad).is_err());
    }

    #[test]
    fn manifests_without_shard_records_still_parse() {
        // A pre-crash-safety manifest: the whole "shards" entry absent.
        let mut expected = sample();
        let json = expected.to_json();
        let start = json.find("  \"shards\":").expect("shards entry present");
        let end = json.find("  \"metrics\":").expect("metrics entry present");
        let stripped = format!("{}{}", &json[..start], &json[end..]);
        assert!(!stripped.contains("\"shards\""));
        let parsed = RunManifest::from_json(&stripped).unwrap();
        expected.shards.clear();
        assert_eq!(parsed, expected);

        // Malformed shard entries fail cleanly.
        let bad = json.replace("\"checksum\": 42", "\"checksum\": \"42\"");
        assert!(RunManifest::from_json(&bad).is_err());
    }

    #[test]
    fn progress_journal_round_trips_with_last_record_winning() {
        let dir = TestDir::new("journal_round_trip");
        let header = JournalHeader {
            source: "kronecker".into(),
            source_seed: None,
            permutation_seed: Some(0xFEED),
            workers: 3,
            vertices: "3600".into(),
            sink: "compressed".into(),
        };
        let journal = ProgressJournal::create(&dir, &header).unwrap();
        let first = ShardRecord {
            worker: 1,
            file: "block_00001.kbkz".into(),
            edges: 10,
            checksum: 111,
        };
        let replacement = ShardRecord {
            worker: 1,
            file: "block_00001.kbkz".into(),
            edges: 12,
            checksum: 222,
        };
        let other = ShardRecord {
            worker: 0,
            file: "block_00000.kbkz".into(),
            edges: 9,
            checksum: 333,
        };
        journal.record_shard(&first).unwrap();
        journal.record_shard(&other).unwrap();
        drop(journal);
        // A resumed run appends; it must not clobber existing records.
        let reopened = ProgressJournal::open_for_append(&dir).unwrap();
        reopened.record_shard(&replacement).unwrap();
        drop(reopened);

        let (read_header, records) = ProgressJournal::read(&dir).unwrap();
        assert_eq!(read_header, header);
        assert_eq!(records, vec![other, replacement]);
    }

    #[test]
    fn progress_journal_tolerates_a_torn_final_append() {
        let dir = TestDir::new("journal_torn");
        let header = JournalHeader {
            source: "rmat".into(),
            source_seed: Some(7),
            permutation_seed: None,
            workers: 2,
            vertices: "1024".into(),
            sink: "tsv".into(),
        };
        let journal = ProgressJournal::create(&dir, &header).unwrap();
        journal
            .record_shard(&ShardRecord {
                worker: 0,
                file: "block_00000.tsv".into(),
                edges: 5,
                checksum: 99,
            })
            .unwrap();
        drop(journal);
        // Simulate a crash mid-append: a half-written record on the last
        // line, plus a future record kind that must be ignored.
        let path = ProgressJournal::path_in(&dir);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\": \"lease\", \"worker\": 1}\n");
        text.push_str("{\"kind\": \"shard\", \"worker\": 1, \"fi");
        std::fs::write(&path, text).unwrap();

        let (read_header, records) = ProgressJournal::read(&dir).unwrap();
        assert_eq!(read_header, header);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].worker, 0);
    }

    #[test]
    fn progress_journal_requires_a_header_and_a_file() {
        let dir = TestDir::new("journal_missing");
        // No journal at all.
        let error = ProgressJournal::read(&dir).unwrap_err();
        assert!(error.to_string().contains(PROGRESS_FILE_NAME), "{error}");
        // A journal whose header line is unreadable cannot be resumed from.
        std::fs::write(
            ProgressJournal::path_in(&dir),
            "{\"kind\": \"shard\", \"worker\": 0, \"file\": \"x\", \"edges\": 1, \"checksum\": 2}\n",
        )
        .unwrap();
        let error = ProgressJournal::read(&dir).unwrap_err();
        assert!(error.to_string().contains("no run header"), "{error}");
    }

    #[test]
    fn missing_fields_and_garbage_fail_cleanly() {
        assert!(RunManifest::from_json("not json").is_err());
        assert!(RunManifest::from_json("{}").is_err());
        assert!(RunManifest::from_json("{\"star_points\": [1,2]}").is_err());
        let json = sample().to_json();
        assert!(RunManifest::from_json(&json[..json.len() - 3]).is_err());
        assert!(RunManifest::from_json(&format!("{json} trailing")).is_err());
        // Near-JSON the reader once let through, planted as the value on
        // line 3 — and the error says line 3.
        for bad in ["--", "1e", "01", "1.", "[1-2]", "\"raw\nnewline\""] {
            let seed = format!("\"source_seed\": {bad}");
            let planted = json.replacen("\"source_seed\": null", &seed, 1);
            match RunManifest::from_json(&planted) {
                Err(SparseError::Parse { line: 3, .. }) => {}
                other => panic!("{bad:?} must be a parse error on line 3, got {other:?}"),
            }
        }
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let parsed = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(parsed, Json::String("😀".to_string()));
    }

    #[test]
    fn malformed_surrogates_fail_cleanly() {
        // High surrogate followed by a non-surrogate escape must be a parse
        // error, not an arithmetic underflow.
        assert!(Json::parse("\"\\ud800\\u0041\"").is_err());
        // Lone halves are errors too.
        assert!(Json::parse("\"\\ud800\"").is_err());
        assert!(Json::parse("\"\\udc00\"").is_err());
        // Four hex digits, not whatever `from_str_radix` takes.
        assert!(Json::parse("\"\\u+041\"").is_err());
        assert!(Json::parse("\"\\u12\"").is_err());
    }

    #[test]
    fn hostile_nesting_is_a_typed_error_not_a_stack_overflow() {
        for opener in ["[", "{\"a\":"] {
            let deep = opener.repeat((1 << 20) / opener.len());
            match RunManifest::from_json(&deep) {
                Err(SparseError::Parse { line: 1, message }) => {
                    assert!(message.contains("nested deeper than"), "{message}")
                }
                other => panic!("expected the depth error, got {other:?}"),
            }
            // In the journal it is one more line that does not parse.
            let dir = TestDir::new("journal_hostile_nesting");
            drop(ProgressJournal::create(&dir, &sample_header()).unwrap());
            let path = ProgressJournal::path_in(&dir);
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, format!("{text}{deep}\n")).unwrap();
            let (header, records) = ProgressJournal::read(&dir).unwrap();
            assert_eq!(header, sample_header());
            assert!(records.is_empty());
        }
    }

    /// The schema-drift guard: what `to_fields` writes and what
    /// `from_fields` reads are the same keys.  `sample` must hold a
    /// non-default value in every field that has a default.
    fn assert_keys_in_balance<R: Record + PartialEq + std::fmt::Debug>(sample: &R) {
        let read = |fields: Vec<(&'static str, Json)>| {
            R::from_fields(Json::object(fields).named("sample"))
        };
        // Every key the reader needs is written…
        assert_eq!(read(sample.to_fields()).as_ref(), Ok(sample));
        // …and every key written is read: without it the record is refused
        // or comes back different.
        for (dropped, _) in sample.to_fields() {
            let mut fields = sample.to_fields();
            fields.retain(|(key, _)| *key != dropped);
            assert_ne!(
                read(fields).as_ref(),
                Ok(sample),
                "\"{dropped}\" is written but never read back"
            );
        }
    }

    #[test]
    fn no_key_is_written_unread_or_read_unwritten() {
        let manifest = RunManifest {
            source: "rmat".into(),
            source_seed: Some(5),
            ..sample()
        };
        assert_keys_in_balance(&manifest);
        assert_keys_in_balance(&JournalHeader {
            permutation_seed: Some(0xFEED),
            ..sample_header()
        });
        assert_keys_in_balance(&manifest.shards[0]);
        assert_keys_in_balance(&manifest.metrics[0]);
    }

    #[test]
    fn every_cut_or_damaged_manifest_is_a_typed_error_or_a_manifest() {
        let typed_or_whole = |text: &str| match RunManifest::from_json(text) {
            Ok(_) => true,
            Err(SparseError::Parse { .. }) => false,
            Err(other) => panic!("untyped failure {other:?} for {text:?}"),
        };
        let closing = GOLDEN_MANIFEST.rfind('}').unwrap();
        for (cut, _) in GOLDEN_MANIFEST.char_indices() {
            if cut <= closing {
                assert!(!typed_or_whole(&GOLDEN_MANIFEST[..cut]), "cut at {cut}");
            }
        }
        let mut survivors = 0;
        for at in 0..GOLDEN_MANIFEST.len() {
            for byte in *b"\"\\{[,0\n" {
                let mut damaged = GOLDEN_MANIFEST.as_bytes().to_vec();
                damaged[at] = byte;
                survivors += usize::from(typed_or_whole(&String::from_utf8_lossy(&damaged)));
            }
        }
        // Some damage is harmless — a digit inside a number, a byte inside a
        // string — so both outcomes were exercised.
        assert!(survivors > 100, "{survivors}");
    }

    #[test]
    fn every_truncation_of_a_journal_reads_back_what_survived_the_cut() {
        let dir = TestDir::new("journal_every_truncation");
        let journal = ProgressJournal::create(&dir, &sample_header()).unwrap();
        let records: Vec<ShardRecord> = (0..3)
            .map(|worker| ShardRecord {
                worker,
                file: format!("block_{worker:05}.tsv"),
                edges: 10 + worker as u64,
                checksum: u64::MAX - worker as u64,
            })
            .collect();
        for record in &records {
            journal.record_shard(record).unwrap();
        }
        drop(journal);
        let path = ProgressJournal::path_in(&dir);
        let whole = std::fs::read(&path).unwrap();
        for cut in 0..=whole.len() {
            std::fs::write(&path, &whole[..cut]).unwrap();
            // A line counts from the byte that closes its object.
            let closed = whole[..cut].iter().filter(|&&b| b == b'}').count();
            match ProgressJournal::read(&dir) {
                Ok((header, read)) => {
                    assert_eq!(header, sample_header(), "cut at {cut}");
                    assert_eq!(read, records[..closed - 1], "cut at {cut}");
                }
                Err(error) => {
                    assert_eq!(closed, 0, "cut at {cut}: {error}");
                    assert!(error.to_string().contains("no run header"), "{error}");
                }
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = TestDir::new("manifest_file_round_trip");
        let path = dir.join(MANIFEST_FILE_NAME);
        let manifest = sample();
        manifest.write_to(&path).unwrap();
        assert_eq!(RunManifest::read_from(&path).unwrap(), manifest);
    }
}
