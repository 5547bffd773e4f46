//! Run manifests: the reproducibility record of a pipeline run.
//!
//! Every [`Pipeline`](crate::pipeline::Pipeline) run produces a
//! [`RunManifest`] capturing the design spec, the full generation
//! configuration, the output paths, and the per-worker edge counts — enough
//! to re-run the exact same generation or to audit a directory of shards
//! long after the run.  File-writing terminals drop the manifest as
//! `manifest.json` next to the shards.
//!
//! The manifest derives the workspace's serde traits, but the vendored serde
//! is API-only, so the JSON encoding that actually ships is implemented here:
//! [`RunManifest::to_json`] emits it and [`RunManifest::from_json`] parses it
//! back, and the two are round-trip exact (including `u64` counts beyond
//! 2^53 and shortest-representation `f64` seconds).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use kron_sparse::SparseError;

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
        let mut out = String::new();
        out.push_str("{\n");
        write_string(&mut out, "source", &self.source);
        write_optional_u64(&mut out, "source_seed", self.source_seed);
        write_optional_u64(&mut out, "permutation_seed", self.permutation_seed);
        write_u64_array(&mut out, "star_points", &self.star_points);
        write_string(&mut out, "self_loop", &self.self_loop);
        write_string(&mut out, "vertices", &self.vertices);
        write_string(&mut out, "predicted_edges", &self.predicted_edges);
        write_number(&mut out, "workers", &self.workers.to_string());
        write_number(&mut out, "split_index", &self.split_index.to_string());
        write_number(&mut out, "max_c_edges", &self.max_c_edges.to_string());
        write_number(&mut out, "max_b_edges", &self.max_b_edges.to_string());
        write_number(&mut out, "chunk_capacity", &self.chunk_capacity.to_string());
        write_number(
            &mut out,
            "max_histogram_bytes",
            &self.max_histogram_bytes.to_string(),
        );
        write_string(&mut out, "self_loop_policy", &self.self_loop_policy);
        write_string(&mut out, "sink", &self.sink);
        match &self.directory {
            Some(dir) => write_string(&mut out, "directory", dir),
            None => write_number(&mut out, "directory", "null"),
        }
        write_string_array(&mut out, "outputs", &self.outputs);
        write_u64_array(&mut out, "edges_per_worker", &self.edges_per_worker);
        write_number(&mut out, "total_edges", &self.total_edges.to_string());
        // `{:?}` prints the shortest decimal that parses back to the same
        // f64, which is what makes the round-trip exact.
        write_number(&mut out, "seconds", &format!("{:?}", self.seconds));
        write_number(
            &mut out,
            "exact_match",
            if self.exact_match { "true" } else { "false" },
        );
        write_string_array(&mut out, "warnings", &self.warnings);
        write_shard_array(&mut out, "shards", &self.shards);
        write_metric_array(&mut out, "metrics", &self.metrics);
        // Strip the trailing comma of the last entry.
        let trimmed = out.trim_end_matches([',', '\n']).len();
        out.truncate(trimmed);
        out.push_str("\n}\n");
        out
    }

    /// Parse a manifest back from its JSON form.
    ///
    /// The source-kind and seed fields were added by the generic-source
    /// pipeline; manifests written before it parse with their documented
    /// defaults, so old shard directories stay auditable.
    pub fn from_json(text: &str) -> Result<Self, SparseError> {
        let value = JsonValue::parse(text)?;
        let obj = value.as_object("manifest root")?;
        let self_loop_policy = get(obj, "self_loop_policy")?.as_string("self_loop_policy")?;
        let source = match get_optional(obj, "source") {
            Some(value) => value.as_string("source")?,
            // Pre-source manifests could only have come from the Kronecker
            // engine; keep-raw runs were the raw-product stream.
            None if self_loop_policy == "keep_raw" => "kronecker_raw".to_string(),
            None => "kronecker".to_string(),
        };
        Ok(RunManifest {
            source,
            source_seed: optional_u64(obj, "source_seed")?,
            permutation_seed: optional_u64(obj, "permutation_seed")?,
            star_points: get(obj, "star_points")?.as_u64_array("star_points")?,
            self_loop: get(obj, "self_loop")?.as_string("self_loop")?,
            vertices: get(obj, "vertices")?.as_string("vertices")?,
            predicted_edges: get(obj, "predicted_edges")?.as_string("predicted_edges")?,
            workers: get(obj, "workers")?.as_u64("workers")? as usize,
            split_index: get(obj, "split_index")?.as_u64("split_index")? as usize,
            max_c_edges: get(obj, "max_c_edges")?.as_u64("max_c_edges")?,
            max_b_edges: get(obj, "max_b_edges")?.as_u64("max_b_edges")?,
            chunk_capacity: get(obj, "chunk_capacity")?.as_u64("chunk_capacity")? as usize,
            max_histogram_bytes: get(obj, "max_histogram_bytes")?.as_u64("max_histogram_bytes")?,
            self_loop_policy,
            sink: get(obj, "sink")?.as_string("sink")?,
            directory: match get(obj, "directory")? {
                JsonValue::Null => None,
                value => Some(value.as_string("directory")?),
            },
            outputs: get(obj, "outputs")?.as_string_array("outputs")?,
            edges_per_worker: get(obj, "edges_per_worker")?.as_u64_array("edges_per_worker")?,
            total_edges: get(obj, "total_edges")?.as_u64("total_edges")?,
            seconds: get(obj, "seconds")?.as_f64("seconds")?,
            exact_match: get(obj, "exact_match")?.as_bool("exact_match")?,
            warnings: get(obj, "warnings")?.as_string_array("warnings")?,
            // Added with crash-safe runs; older manifests recorded no
            // shard checksums.
            shards: match get_optional(obj, "shards") {
                Some(value) => parse_shard_array(value)?,
                None => Vec::new(),
            },
            // Added with the streaming-metrics engine; older manifests
            // simply recorded no metric values.
            metrics: match get_optional(obj, "metrics") {
                Some(value) => parse_metric_array(value)?,
                None => Vec::new(),
            },
        })
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
        let mut line = String::from("{\"kind\": \"run\", \"source\": ");
        push_json_string(&mut line, &header.source);
        line.push_str(", \"source_seed\": ");
        push_optional_u64(&mut line, header.source_seed);
        line.push_str(", \"permutation_seed\": ");
        push_optional_u64(&mut line, header.permutation_seed);
        let _ = write!(line, ", \"workers\": {}, \"vertices\": ", header.workers);
        push_json_string(&mut line, &header.vertices);
        line.push_str(", \"sink\": ");
        push_json_string(&mut line, &header.sink);
        line.push_str("}\n");
        journal.append_line(&line)?;
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
        let mut line = String::from("{\"kind\": \"shard\", ");
        // push_shard_object writes the braces; splice its body instead.
        let mut body = String::new();
        push_shard_object(&mut body, record);
        line.push_str(&body[1..]);
        line.push('\n');
        self.append_line(&line)
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
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let Ok(value) = JsonValue::parse(trimmed) else {
                continue; // torn append from a crash: the line never happened
            };
            let Ok(obj) = value.as_object("journal line") else {
                continue;
            };
            match get_optional(obj, "kind").and_then(|k| k.as_string("kind").ok()) {
                Some(kind) if kind == "run" => {
                    if let Ok(parsed) = parse_journal_header(obj) {
                        header = Some(parsed);
                    }
                }
                Some(kind) if kind == "shard" => {
                    if let Ok(record) = parse_shard_object(&JsonValue::Object(obj.to_vec())) {
                        latest.insert(record.worker, record);
                    }
                }
                _ => {}
            }
        }
        let header = header.ok_or_else(|| {
            SparseError::with_path(&path, parse_error("progress journal has no run header"))
        })?;
        Ok((header, latest.into_values().collect()))
    }
}

fn push_optional_u64(out: &mut String, value: Option<u64>) {
    match value {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

fn parse_journal_header(obj: &[(String, JsonValue)]) -> Result<JournalHeader, SparseError> {
    Ok(JournalHeader {
        source: get(obj, "source")?.as_string("journal source")?,
        source_seed: optional_u64(obj, "source_seed")?,
        permutation_seed: optional_u64(obj, "permutation_seed")?,
        workers: get(obj, "workers")?.as_u64("journal workers")? as usize,
        vertices: get(obj, "vertices")?.as_string("journal vertices")?,
        sink: get(obj, "sink")?.as_string("journal sink")?,
    })
}

fn write_key(out: &mut String, key: &str) {
    let _ = write!(out, "  \"{key}\": ");
}

fn write_number(out: &mut String, key: &str, literal: &str) {
    write_key(out, key);
    out.push_str(literal);
    out.push_str(",\n");
}

fn write_string(out: &mut String, key: &str, value: &str) {
    write_key(out, key);
    push_json_string(out, value);
    out.push_str(",\n");
}

fn write_optional_u64(out: &mut String, key: &str, value: Option<u64>) {
    match value {
        Some(v) => write_number(out, key, &v.to_string()),
        None => write_number(out, key, "null"),
    }
}

fn write_u64_array(out: &mut String, key: &str, values: &[u64]) {
    write_key(out, key);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push_str("],\n");
}

fn write_metric_array(out: &mut String, key: &str, records: &[MetricRecord]) {
    write_key(out, key);
    out.push('[');
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"name\": ");
        push_json_string(out, &record.name);
        out.push_str(", \"value\": ");
        push_json_string(out, &record.value);
        out.push('}');
    }
    if !records.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
}

fn write_shard_array(out: &mut String, key: &str, shards: &[ShardRecord]) {
    write_key(out, key);
    out.push('[');
    for (i, shard) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_shard_object(out, shard);
    }
    if !shards.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
}

/// The single definition of a shard record's JSON object, shared by the
/// manifest's `shards` array and the progress journal's `shard` lines.
fn push_shard_object(out: &mut String, shard: &ShardRecord) {
    let _ = write!(out, "{{\"worker\": {}, \"file\": ", shard.worker);
    push_json_string(out, &shard.file);
    let _ = write!(
        out,
        ", \"edges\": {}, \"checksum\": {}}}",
        shard.edges, shard.checksum
    );
}

fn parse_shard_object(value: &JsonValue) -> Result<ShardRecord, SparseError> {
    let obj = value.as_object("shard record")?;
    Ok(ShardRecord {
        worker: get(obj, "worker")?.as_u64("shard worker")? as usize,
        file: get(obj, "file")?.as_string("shard file")?,
        edges: get(obj, "edges")?.as_u64("shard edges")?,
        checksum: get(obj, "checksum")?.as_u64("shard checksum")?,
    })
}

fn parse_shard_array(value: &JsonValue) -> Result<Vec<ShardRecord>, SparseError> {
    let JsonValue::Array(items) = value else {
        return Err(parse_error("shards must be a JSON array"));
    };
    items.iter().map(parse_shard_object).collect()
}

fn parse_metric_array(value: &JsonValue) -> Result<Vec<MetricRecord>, SparseError> {
    let JsonValue::Array(items) = value else {
        return Err(parse_error("metrics must be a JSON array"));
    };
    items
        .iter()
        .map(|item| {
            let obj = item.as_object("metrics entry")?;
            Ok(MetricRecord {
                name: get(obj, "name")?.as_string("metric name")?,
                value: get(obj, "value")?.as_string("metric value")?,
            })
        })
        .collect()
}

fn write_string_array(out: &mut String, key: &str, values: &[String]) {
    write_key(out, key);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_string(out, v);
    }
    out.push_str("],\n");
}

fn push_json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The JSON subset the manifest round-trips through.  Numbers keep their
/// source text so `u64` counts beyond 2^53 survive exactly.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Null,
    Bool(bool),
    Number(String),
    String(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

fn parse_error(message: impl Into<String>) -> SparseError {
    SparseError::Parse {
        line: 0,
        message: message.into(),
    }
}

fn get<'v>(obj: &'v [(String, JsonValue)], key: &str) -> Result<&'v JsonValue, SparseError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| parse_error(format!("manifest is missing the \"{key}\" field")))
}

/// A field that later pipeline versions added: absent in older manifests.
fn get_optional<'v>(obj: &'v [(String, JsonValue)], key: &str) -> Option<&'v JsonValue> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// An optional `u64` field: absent and `null` both mean `None`.
fn optional_u64(obj: &[(String, JsonValue)], key: &str) -> Result<Option<u64>, SparseError> {
    match get_optional(obj, key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(value) => value.as_u64(key).map(Some),
    }
}

impl JsonValue {
    fn parse(text: &str) -> Result<JsonValue, SparseError> {
        let mut cursor = Cursor {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = cursor.value()?;
        cursor.skip_whitespace();
        if cursor.pos != cursor.bytes.len() {
            return Err(parse_error("trailing content after the JSON document"));
        }
        Ok(value)
    }

    fn as_object(&self, what: &str) -> Result<&[(String, JsonValue)], SparseError> {
        match self {
            JsonValue::Object(fields) => Ok(fields),
            _ => Err(parse_error(format!("{what} must be a JSON object"))),
        }
    }

    fn as_string(&self, what: &str) -> Result<String, SparseError> {
        match self {
            JsonValue::String(s) => Ok(s.clone()),
            _ => Err(parse_error(format!("{what} must be a JSON string"))),
        }
    }

    fn as_bool(&self, what: &str) -> Result<bool, SparseError> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(parse_error(format!("{what} must be a JSON boolean"))),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, SparseError> {
        match self {
            JsonValue::Number(text) => text
                .parse::<u64>()
                .map_err(|_| parse_error(format!("{what} is not a u64: {text}"))),
            _ => Err(parse_error(format!("{what} must be a JSON number"))),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, SparseError> {
        match self {
            JsonValue::Number(text) => text
                .parse::<f64>()
                .map_err(|_| parse_error(format!("{what} is not a number: {text}"))),
            _ => Err(parse_error(format!("{what} must be a JSON number"))),
        }
    }

    fn as_u64_array(&self, what: &str) -> Result<Vec<u64>, SparseError> {
        match self {
            JsonValue::Array(items) => items.iter().map(|item| item.as_u64(what)).collect(),
            _ => Err(parse_error(format!("{what} must be a JSON array"))),
        }
    }

    fn as_string_array(&self, what: &str) -> Result<Vec<String>, SparseError> {
        match self {
            JsonValue::Array(items) => items.iter().map(|item| item.as_string(what)).collect(),
            _ => Err(parse_error(format!("{what} must be a JSON array"))),
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, SparseError> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| parse_error("unexpected end of JSON"))
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), SparseError> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(parse_error(format!(
                "expected '{}' at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, SparseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(parse_error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, SparseError> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::String(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(parse_error(format!(
                "unexpected character '{}' at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn object(&mut self) -> Result<JsonValue, SparseError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.expect_byte(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                other => {
                    return Err(parse_error(format!(
                        "expected ',' or '}}' in object, found '{}'",
                        other as char
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, SparseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                other => {
                    return Err(parse_error(format!(
                        "expected ',' or ']' in array, found '{}'",
                        other as char
                    )))
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, SparseError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(parse_error("empty number"));
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        Ok(JsonValue::Number(text))
    }

    fn string(&mut self) -> Result<String, SparseError> {
        if self.peek()? != b'"' {
            return Err(parse_error(format!("expected string at byte {}", self.pos)));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| parse_error("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| parse_error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: a following \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(parse_error(
                                            "high surrogate not followed by a low surrogate",
                                        ));
                                    }
                                    0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    return Err(parse_error("lone high surrogate"));
                                }
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| parse_error("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(parse_error(format!(
                                "unknown escape '\\{}'",
                                other as char
                            )))
                        }
                    }
                }
                b => {
                    // Collect the full UTF-8 sequence starting at this byte.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    let slice = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| parse_error("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(slice)
                        .map_err(|_| parse_error("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, SparseError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| parse_error("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| parse_error("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| parse_error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
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
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let parsed = JsonValue::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(parsed, JsonValue::String("😀".to_string()));
    }

    #[test]
    fn malformed_surrogates_fail_cleanly() {
        // High surrogate followed by a non-surrogate escape must be a parse
        // error, not an arithmetic underflow.
        assert!(JsonValue::parse("\"\\ud800\\u0041\"").is_err());
        // Lone halves are errors too.
        assert!(JsonValue::parse("\"\\ud800\"").is_err());
        assert!(JsonValue::parse("\"\\udc00\"").is_err());
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
