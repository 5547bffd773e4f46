//! The traced run: per-layer numbers from a staged replica of the engine.
//!
//! The engine's worker loop is `source → (permute) → observe → sink`, then
//! `finish → finalize → validate → manifest`.  The replica drives that same
//! chain at `workers = 1` through public API only and records a span
//! around every call into a layer.  A layer's self time is its span minus
//! its children, so the time a source spends producing edges is its
//! `stream_worker` span minus the time spent in the closure it calls.
//!
//! Three things run per repetition, each under its own root span:
//!
//! * `pass` — the replica proper, with the workload's sink run
//!   synchronously (no writer thread), so encode + checksum + write show
//!   up as `sink.consume` instead of hiding behind the producer;
//! * `kernels` — isolated public kernels over the chunks of the same
//!   stream: the shared (atomic) degree accumulator, the frame codec, the
//!   checksum, the sampler, the accumulator merge;
//! * `pass_buffered` — `kron_shard_v4` only: the chain again with the
//!   double-buffered sink the engine really uses, to time how long the
//!   producer sits in `consume` handing chunks to the writer thread.
//!
//! An untraced `Pipeline` pass at one worker runs beside every repetition;
//! `pipeline.coverage` is the replica's total over that pass's time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;

use kron_core::validate::measure_from_histogram;
use kron_core::{KroneckerDesign, SelfLoop};
use kron_gen::chunk::EdgeChunk;
use kron_gen::codec::{decode_frame, encode_frame, frame_header, FRAME_EDGES, FRAME_HEADER_LEN};
use kron_gen::sink::{CompressedShardSink, CountingSink, DoubleBufferedSink, TsvShardSink};
use kron_gen::{
    shard_checksum, BlockFormat, EdgeSink, EdgeSource, FeistelPermutation, Fnv1a, JournalHeader,
    KroneckerSource, ProgressJournal, ReplaySource, RunManifest, ShardRecord, SourceRun,
    MANIFEST_FILE_NAME,
};
use kron_rmat::RmatSource;
use kron_sparse::{DegreeAccumulator, SharedDegreeAccumulator, SparseError};

use crate::output::{json_string, Outcome, Tally, PER_LAYER};
use crate::provenance;
use crate::run::{checked_pass, Config};
use crate::scratch::ScratchDir;
use crate::stats::{median, percentile};
use crate::workload::{prepare, Expectations, PassReport, Prepared, Signature, Terminal};

/// Fewest repetitions of a traced run under a time budget.
const MIN_TRACED_REPS: usize = 2;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The repetition the span belongs to; spans of one repetition share
    /// it.
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder; nothing is written until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start the next repetition; returns its identifier.
    pub fn begin_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Open a span as a child of the innermost open one.  The clock is read
    /// last, so the recorder's own bookkeeping falls outside the span.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            parent: self.open.last().copied(),
            run: self.run,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.now();
        id
    }

    /// Close the innermost open span, which must be `id`.  The clock is
    /// read first.
    pub fn exit(&mut self, id: u32) {
        let now = self.now();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Close whatever a failed call left open.
    fn close_all(&mut self) {
        while let Some(&id) = self.open.last() {
            self.exit(id);
        }
    }

    /// Time one call as a span.
    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let value = call();
        self.exit(id);
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut text = String::from("[\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\": {id}, \"parent\": {parent}, \"run\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                span.run,
                json_string(span.name),
                span.start_ns,
                span.end_ns,
                if id + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        text.push(']');
        text
    }
}

/// Per span name, over one repetition: total time, self time (total minus
/// the children's totals) and how many spans there were.
#[derive(Debug, Default)]
pub struct RunSummary {
    total: BTreeMap<&'static str, u64>,
    self_time: BTreeMap<&'static str, u64>,
    count: BTreeMap<&'static str, u64>,
}

impl RunSummary {
    pub fn of(spans: &[Span], run: u32) -> Self {
        let mut in_children = vec![0u64; spans.len()];
        for span in spans.iter().filter(|span| span.run == run) {
            if let Some(parent) = span.parent {
                in_children[parent as usize] += span.duration();
            }
        }
        let mut summary = RunSummary::default();
        for (id, span) in spans.iter().enumerate().filter(|(_, s)| s.run == run) {
            *summary.total.entry(span.name).or_default() += span.duration();
            *summary.self_time.entry(span.name).or_default() +=
                span.duration().saturating_sub(in_children[id]);
            *summary.count.entry(span.name).or_default() += 1;
        }
        summary
    }

    pub fn total(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0) as f64
    }

    pub fn self_time(&self, name: &str) -> f64 {
        self.self_time.get(name).copied().unwrap_or(0) as f64
    }

    pub fn count(&self, name: &str) -> f64 {
        self.count.get(name).copied().unwrap_or(0) as f64
    }
}

/// The span names of one kind of source: its `prepare` call and its
/// `stream_worker` call.
struct SourceSpans {
    prepare: &'static str,
    stream: &'static str,
}

const KRONECKER_SPANS: SourceSpans = SourceSpans {
    prepare: "split.prepare",
    stream: "source.stream_worker",
};
const RMAT_SPANS: SourceSpans = SourceSpans {
    prepare: "rmat.prepare",
    stream: "rmat.stream_worker",
};
const REPLAY_SPANS: SourceSpans = SourceSpans {
    prepare: "replay.prepare",
    stream: "replay.stream_worker",
};

fn sparse(error: SparseError) -> String {
    error.to_string()
}

/// What the replica's stream delivered and measured.
struct Staged<O> {
    output: O,
    checksum: Option<u64>,
    delivered: u64,
    valid: bool,
    signature: Signature,
    degrees: DegreeAccumulator,
}

/// The engine's worker chain at one worker, a span around each call:
/// prepare → (permutation) → sink create → stream { permute, observe,
/// consume } → finish → finalize → validate.
fn staged_chain<S: EdgeSource, K: EdgeSink>(
    tracer: &mut Tracer,
    names: &SourceSpans,
    source: &S,
    permutation_seed: Option<u64>,
    make_sink: impl FnOnce() -> Result<K, SparseError>,
) -> Result<Staged<K::Output>, String> {
    let vertices = source.vertices().map_err(|e| e.to_string())?;
    let (run, _warnings) = tracer
        .span(names.prepare, || source.prepare(1))
        .map_err(|e| e.to_string())?;
    let permutation = permutation_seed
        .map(|seed| tracer.span("permute.build", || FeistelPermutation::new(vertices, seed)));
    let mut sink = tracer.span("sink.create", make_sink).map_err(sparse)?;
    let mut degrees = tracer.span("metrics.create", || {
        DegreeAccumulator::rows_only(vertices, vertices)
    });
    let mut chunk = EdgeChunk::new(EdgeChunk::DEFAULT_CAPACITY);
    let mut relabelled: Vec<(u64, u64)> = Vec::new();
    let mut walking: Vec<u32> = Vec::new();

    let stream = tracer.enter(names.stream);
    let delivered = run
        .stream_worker::<SparseError, _>(0, &mut chunk, |edges| {
            // As in the engine: the degree metrics count the source's
            // labels, the sink sees the relabelled ones.
            let out: &[(u64, u64)] = match permutation.as_ref() {
                Some(permutation) => {
                    let id = tracer.enter("permute.apply");
                    permutation.apply_edges_into(edges, &mut relabelled, &mut walking);
                    tracer.exit(id);
                    &relabelled
                }
                None => edges,
            };
            let id = tracer.enter("metrics.observe");
            degrees.record(edges);
            tracer.exit(id);
            let id = tracer.enter("sink.consume");
            let consumed = sink.consume(out);
            tracer.exit(id);
            consumed
        })
        .map_err(sparse)?;
    tracer.exit(stream);

    let (output, checksum) = tracer
        .span("sink.finish", || sink.finish_with_checksum())
        .map_err(sparse)?;
    let finalize = tracer.enter("metrics.finalize");
    let mut histogram = degrees.row_histogram();
    let measured = measure_from_histogram(vertices, &histogram, degrees.self_loop_count());
    black_box(measured.power_law_fit());
    histogram.remove(&0);
    let signature = Signature {
        vertices,
        edges: degrees.edge_count(),
        self_loops: degrees.self_loop_count(),
        max_degree: degrees.max_row_degree(),
        degree_histogram: histogram,
    };
    tracer.exit(finalize);
    let validation = tracer.span("validate.compare", || run.validate(&measured));
    Ok(Staged {
        output,
        checksum,
        delivered,
        valid: validation.is_exact_match(),
        signature,
        degrees,
    })
}

/// Hold the replica to what the pipeline pass beside it produced: same
/// count, same measurement, and — for a shard — the same checksum, which
/// shows the replica wrote the very bytes the engine does.
fn check_staged<O>(
    prepared: &Prepared,
    staged: &Staged<O>,
    pipeline: &PassReport,
) -> Result<(), String> {
    if !staged.valid {
        return Err("measured properties differ from the predicted ones".into());
    }
    if staged.delivered != prepared.edges {
        return Err(format!(
            "delivered {} edges, expected {}",
            staged.delivered, prepared.edges
        ));
    }
    if staged.signature != pipeline.signature {
        return Err("degree histogram, counts or max degree differ from the pipeline's".into());
    }
    let expected = pipeline.manifest.shards.first().map(|shard| shard.checksum);
    if prepared.workload.terminal.writes_shards() && staged.checksum != expected {
        return Err("shard checksum differs from the pipeline's single-worker shard".into());
    }
    Ok(())
}

/// The `pass` root of one repetition for one kind of source: the chain with
/// the workload's own sink, and around it what the engine does for a file
/// run — journal before, journal record and manifest after.
fn staged_pass<S: EdgeSource>(
    tracer: &mut Tracer,
    names: &SourceSpans,
    source: &S,
    prepared: &Prepared,
    pipeline: &PassReport,
    directory: &Path,
) -> Result<DegreeAccumulator, String> {
    let vertices = prepared.vertices;
    let terminal = prepared.workload.terminal;
    let permutation_seed =
        (terminal == Terminal::PermuteCount).then_some(prepared.permutation_seed);
    if !terminal.writes_shards() {
        let staged = staged_chain(tracer, names, source, permutation_seed, || {
            Ok(CountingSink::new())
        })?;
        check_staged(prepared, &staged, pipeline)?;
        return Ok(staged.degrees);
    }

    std::fs::create_dir_all(directory).map_err(|e| e.to_string())?;
    let manifest = &pipeline.manifest;
    let journal = tracer
        .span("manifest.journal_append", || {
            ProgressJournal::create(
                directory,
                &JournalHeader {
                    source: manifest.source.clone(),
                    source_seed: manifest.source_seed,
                    permutation_seed: manifest.permutation_seed,
                    workers: 1,
                    vertices: manifest.vertices.clone(),
                    sink: manifest.sink.clone(),
                },
            )
        })
        .map_err(sparse)?;
    let (staged, file) = if terminal == Terminal::ShardV4 {
        let file = directory.join("block_00000.kbkz");
        let staged = staged_chain(tracer, names, source, permutation_seed, || {
            CompressedShardSink::create(&file, vertices, vertices)
        })?;
        (staged, file)
    } else {
        let file = directory.join("block_00000.tsv");
        let staged = staged_chain(tracer, names, source, permutation_seed, || {
            TsvShardSink::create(&file)
        })?;
        (staged, file)
    };
    if staged.output != file {
        return Err("the sink finished somewhere else than asked".into());
    }
    let record = ShardRecord {
        worker: 0,
        file: file
            .file_name()
            .map(|name| name.to_string_lossy().into_owned())
            .unwrap_or_default(),
        edges: staged.delivered,
        checksum: staged.checksum.unwrap_or(0),
    };
    tracer
        .span("manifest.journal_append", || journal.record_shard(&record))
        .map_err(sparse)?;
    // The pipeline pass's manifest stands in for the one the engine would
    // assemble here: same fields, same size.
    tracer
        .span("manifest.write", || {
            manifest.write_to(&directory.join(MANIFEST_FILE_NAME))
        })
        .map_err(sparse)?;
    check_staged(prepared, &staged, pipeline)?;
    Ok(staged.degrees)
}

/// `kron_shard_v4` again with the sink the engine really uses: the producer
/// only copies each chunk and hands it to the writer thread, so the time it
/// spends inside `consume` is time it waits for the writer.
fn buffered_pass<S: EdgeSource>(
    tracer: &mut Tracer,
    source: &S,
    prepared: &Prepared,
    pipeline: &PassReport,
    directory: &Path,
) -> Result<(), String> {
    std::fs::create_dir_all(directory).map_err(|e| e.to_string())?;
    let vertices = prepared.vertices;
    let file = directory.join("block_00000.kbkz");
    let (run, _warnings) = source.prepare(1).map_err(|e| e.to_string())?;
    let mut sink = DoubleBufferedSink::new(
        CompressedShardSink::create(&file, vertices, vertices).map_err(sparse)?,
    );
    let mut degrees = DegreeAccumulator::rows_only(vertices, vertices);
    let mut chunk = EdgeChunk::new(EdgeChunk::DEFAULT_CAPACITY);
    let stream = tracer.enter("buffered.stream_worker");
    let delivered = run
        .stream_worker::<SparseError, _>(0, &mut chunk, |edges| {
            degrees.record(edges);
            let id = tracer.enter("sink.handoff");
            let consumed = sink.consume(edges);
            tracer.exit(id);
            consumed
        })
        .map_err(sparse)?;
    tracer.exit(stream);
    let (_, checksum) = tracer
        .span("buffered.finish", || sink.finish_with_checksum())
        .map_err(sparse)?;
    if delivered != prepared.edges {
        return Err(format!(
            "delivered {delivered} edges, expected {}",
            prepared.edges
        ));
    }
    if checksum != pipeline.manifest.shards.first().map(|shard| shard.checksum) {
        return Err("shard checksum differs from the pipeline's single-worker shard".into());
    }
    Ok(())
}

/// Counts the kernels produce beside their spans.
#[derive(Debug, Default)]
struct KernelCounts {
    encode_bytes: u64,
    frames: u64,
    checksum_bytes: u64,
}

/// Isolated kernels over the chunks of the same stream: the shared
/// (atomic) accumulator always, the frame codec when the workload's format
/// is v4.
fn stream_kernels<S: EdgeSource>(
    tracer: &mut Tracer,
    source: &S,
    prepared: &Prepared,
    counts: &mut KernelCounts,
) -> Result<(), String> {
    let codec = prepared.workload.terminal.shard_extension() == Some("kbkz");
    let (run, _warnings) = source.prepare(1).map_err(|e| e.to_string())?;
    let shared = SharedDegreeAccumulator::rows_only(prepared.vertices, prepared.vertices);
    let mut chunk = EdgeChunk::new(EdgeChunk::DEFAULT_CAPACITY);
    let mut frame: Vec<u8> = Vec::new();
    let mut decoded: Vec<(u64, u64)> = Vec::new();
    let stream = tracer.enter("kernels.stream_worker");
    run.stream_worker::<SparseError, _>(0, &mut chunk, |edges| {
        let id = tracer.enter("metrics.observe_shared");
        shared.record(edges);
        tracer.exit(id);
        if !codec {
            return Ok(());
        }
        for piece in edges.chunks(FRAME_EDGES) {
            frame.clear();
            let id = tracer.enter("codec.encode");
            encode_frame(piece, &mut frame);
            tracer.exit(id);
            counts.encode_bytes += frame.len() as u64;
            counts.frames += 1;
            let (head, body) = frame.split_at(FRAME_HEADER_LEN);
            let mut header = [0u8; FRAME_HEADER_LEN];
            header.copy_from_slice(head);
            let (count, _) = frame_header(&header);
            let id = tracer.enter("codec.decode");
            let result = decode_frame(count, body, &mut decoded);
            tracer.exit(id);
            result?;
            if decoded != piece {
                return Err(SparseError::Io("frame did not decode to its input".into()));
            }
        }
        Ok(())
    })
    .map_err(sparse)?;
    tracer.exit(stream);
    if shared.edge_count() != prepared.edges {
        return Err("the kernel stream delivered a different edge count".into());
    }
    Ok(())
}

/// The checksum kernel and the verify-only pass over a set of shard files:
/// `Fnv1a::update` over the bytes with the reads left out of the span, then
/// `shard_checksum` whole (read + hash).
fn file_kernels(
    tracer: &mut Tracer,
    files: &[PathBuf],
    format: BlockFormat,
    counts: &mut KernelCounts,
) -> Result<(), String> {
    let mut block = vec![0u8; 1 << 20];
    for path in files {
        let mut file = std::fs::File::open(path).map_err(|e| e.to_string())?;
        let mut hasher = Fnv1a::new();
        loop {
            let read = file.read(&mut block).map_err(|e| e.to_string())?;
            if read == 0 {
                break;
            }
            tracer.span("writer.checksum", || hasher.update(&block[..read]));
            counts.checksum_bytes += read as u64;
        }
        black_box(hasher.finish());
        tracer
            .span("replay.verify_only", || shard_checksum(path, format))
            .map_err(sparse)?;
    }
    Ok(())
}

/// What the roots of one repetition share.
struct Rep<'a> {
    prepared: &'a Prepared,
    /// The untraced pipeline pass that ran beside this repetition.
    pipeline: &'a PassReport,
    scratch: &'a Path,
}

/// One repetition's roots for one kind of source.
fn traced_rep<S: EdgeSource>(
    tracer: &mut Tracer,
    names: &SourceSpans,
    source: &S,
    rep: &Rep<'_>,
    tally: &mut Tally,
    counts: &mut KernelCounts,
) {
    let Rep {
        prepared,
        pipeline,
        scratch,
    } = *rep;
    let terminal = prepared.workload.terminal;
    let staged_dir = scratch.join("staged");
    let buffered_dir = scratch.join("buffered");

    tracer.enter("pass");
    let staged = staged_pass(tracer, names, source, prepared, pipeline, &staged_dir);
    tracer.close_all();
    let degrees = tally.record("staged replica", staged);

    tracer.enter("kernels");
    let mut result = stream_kernels(tracer, source, prepared, counts);
    if let (Ok(()), Some(degrees)) = (&result, &degrees) {
        let mut merged = DegreeAccumulator::rows_only(prepared.vertices, prepared.vertices);
        tracer.span("metrics.merge", || merged.merge(degrees));
        black_box(merged.edge_count());
    }
    let shard_files: Option<(Vec<PathBuf>, BlockFormat)> = match terminal {
        Terminal::ShardV4 => Some((
            vec![staged_dir.join("block_00000.kbkz")],
            BlockFormat::Compressed,
        )),
        Terminal::ShardTsv => Some((vec![staged_dir.join("block_00000.tsv")], BlockFormat::Tsv)),
        Terminal::ReplayV4 => prepared
            .replay_input
            .as_deref()
            .and_then(|input| ReplaySource::from_directory(input).ok())
            .map(|replay| (replay.files().to_vec(), replay.format())),
        Terminal::Count | Terminal::PermuteCount => None,
    };
    if let (Ok(()), Some((files, format))) = (&result, &shard_files) {
        result = file_kernels(tracer, files, *format, counts);
    }
    if result.is_ok() && terminal.shard_extension().is_some() {
        let directory = prepared.replay_input.as_deref().unwrap_or(&staged_dir);
        result = tracer
            .span("manifest.read", || {
                RunManifest::read_from(&directory.join(MANIFEST_FILE_NAME))
            })
            .map(|_| ())
            .map_err(sparse);
    }
    tracer.close_all();
    tally.record("isolated kernels", result);

    if terminal == Terminal::ShardV4 {
        tracer.enter("pass_buffered");
        let result = buffered_pass(tracer, source, prepared, pipeline, &buffered_dir);
        tracer.close_all();
        tally.record("double-buffered replica", result);
    }
    let _ = std::fs::remove_dir_all(&staged_dir);
    let _ = std::fs::remove_dir_all(&buffered_dir);
}

/// One repetition's per-layer values, from its spans and counts.
fn layer_values(
    summary: &RunSummary,
    counts: &KernelCounts,
    prepared: &Prepared,
    // What the pipeline pass beside the repetition wrote or, replaying,
    // read; at one worker the replica's shard is byte for byte the same
    // (same checksum).
    shard_bytes: u64,
) -> BTreeMap<&'static str, f64> {
    let terminal = prepared.workload.terminal;
    let edges = prepared.edges as f64;
    let kronecker = prepared.design.is_some() && terminal != Terminal::ReplayV4;
    let replay = terminal == Terminal::ReplayV4;
    let rmat = prepared.design.is_none();
    let when = |condition: bool, value: f64| if condition { value } else { 0.0 };
    let written = when(terminal.writes_shards(), shard_bytes as f64);
    BTreeMap::from([
        ("design.build_ns", summary.total("design.build")),
        ("design.predict_ns", summary.total("design.predict")),
        ("split.prepare_ns", summary.total("split.prepare")),
        (
            "source.expand_ns",
            summary.self_time("source.stream_worker"),
        ),
        ("source.edges", when(kronecker, edges)),
        (
            "source.chunks",
            when(kronecker, summary.count("sink.consume")),
        ),
        ("rmat.prepare_ns", summary.total("rmat.prepare")),
        ("rmat.sample_ns", summary.self_time("rmat.stream_worker")),
        ("rmat.fill_kernel_ns", summary.total("rmat.fill_kernel")),
        ("rmat.edges", when(rmat, edges)),
        ("permute.build_ns", summary.total("permute.build")),
        ("permute.apply_ns", summary.total("permute.apply")),
        (
            "permute.edges",
            when(terminal == Terminal::PermuteCount, edges),
        ),
        ("metrics.observe_ns", summary.total("metrics.observe")),
        (
            "metrics.observe_shared_ns",
            summary.total("metrics.observe_shared"),
        ),
        ("metrics.merge_ns", summary.total("metrics.merge")),
        ("metrics.finalize_ns", summary.total("metrics.finalize")),
        ("metrics.histogram_bytes", prepared.vertices as f64 * 8.0),
        ("validate.compare_ns", summary.total("validate.compare")),
        ("codec.encode_ns", summary.total("codec.encode")),
        ("codec.encode_bytes", counts.encode_bytes as f64),
        ("codec.decode_ns", summary.total("codec.decode")),
        ("codec.frames", counts.frames as f64),
        ("writer.checksum_ns", summary.total("writer.checksum")),
        ("writer.checksum_bytes", counts.checksum_bytes as f64),
        ("sink.create_ns", summary.total("sink.create")),
        ("sink.consume_ns", summary.total("sink.consume")),
        ("sink.finish_ns", summary.total("sink.finish")),
        ("sink.bytes", written),
        ("sink.bytes_per_edge", written / edges),
        ("sink.handoff_wait_ns", summary.total("sink.handoff")),
        ("replay.open_ns", summary.total("replay.open")),
        (
            "replay.stream_ns",
            summary.self_time("replay.stream_worker"),
        ),
        ("replay.verify_only_ns", summary.total("replay.verify_only")),
        ("replay.bytes", when(replay, shard_bytes as f64)),
        ("manifest.write_ns", summary.total("manifest.write")),
        ("manifest.read_ns", summary.total("manifest.read")),
        (
            "manifest.journal_append_ns",
            summary.total("manifest.journal_append"),
        ),
        ("pipeline.staged_total_ns", summary.total("pass")),
    ])
}

/// The traced run of one workload: set up once, then repeat { untraced
/// pipeline pass at one worker, staged replica, kernels } for the budget,
/// and report the median of every per-layer metric.
pub fn traced(config: &Config) -> Result<(Outcome, Tracer), String> {
    let scratch = ScratchDir::for_run(&config.scratch_base)?;
    let prepared = prepare(config.workload, config.seed, config.smoke, scratch.path())?;
    let terminal = prepared.workload.terminal;
    let mut expect = Expectations::new(&prepared);
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut per_rep: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut pass_w1_ns: Vec<f64> = Vec::new();

    let started = Instant::now();
    let mut reps = 0;
    while config
        .budget
        .wants_more(reps, started.elapsed(), MIN_TRACED_REPS)
    {
        reps += 1;
        let Some(pipeline) = checked_pass(
            &prepared,
            &mut expect,
            &mut tally,
            1,
            &scratch.path().join("pipeline"),
            &format!("untraced pipeline pass {reps} at 1 worker"),
        ) else {
            continue;
        };
        pass_w1_ns.push(pipeline.seconds * 1e9);

        let run = tracer.begin_run();
        let mut counts = KernelCounts::default();
        if let Some(stars) = prepared.design.as_ref().and_then(|d| d.star_points()) {
            let design = tracer.span("design.build", || {
                KroneckerDesign::from_star_points(&stars, SelfLoop::None)
            });
            if let Ok(design) = design {
                black_box(tracer.span("design.predict", || design.properties()));
            }
        }
        let rep = Rep {
            prepared: &prepared,
            pipeline: &pipeline,
            scratch: scratch.path(),
        };
        match (prepared.design.as_ref(), terminal) {
            (None, _) => {
                let source = RmatSource::new(prepared.rmat, prepared.rmat_seed)
                    .map_err(|e| e.to_string())?;
                traced_rep(
                    &mut tracer,
                    &RMAT_SPANS,
                    &source,
                    &rep,
                    &mut tally,
                    &mut counts,
                );
                // The sampler alone, over the same sample indices.
                let sampler = source.generator().batch_sampler();
                let mut slots = vec![(0u64, 0u64); EdgeChunk::DEFAULT_CAPACITY];
                let mut index = 0u64;
                while index < prepared.edges {
                    let len = ((prepared.edges - index) as usize).min(slots.len());
                    tracer.span("rmat.fill_kernel", || {
                        sampler.fill(index, &mut slots[..len])
                    });
                    black_box(&slots);
                    index += len as u64;
                }
            }
            (Some(_), Terminal::ReplayV4) => {
                let input = prepared
                    .replay_input
                    .as_deref()
                    .ok_or("replay_v4 was not prepared with a shard set")?;
                // Opening the shard set is part of the replayed pass.
                let root = tracer.enter("pass");
                let source = tracer.span("replay.open", || ReplaySource::from_directory(input));
                tracer.exit(root);
                let source = source.map_err(|e| e.to_string())?;
                traced_rep(
                    &mut tracer,
                    &REPLAY_SPANS,
                    &source,
                    &rep,
                    &mut tally,
                    &mut counts,
                );
            }
            (Some(design), _) => traced_rep(
                &mut tracer,
                &KRONECKER_SPANS,
                &KroneckerSource::new(design),
                &rep,
                &mut tally,
                &mut counts,
            ),
        }
        let summary = RunSummary::of(tracer.spans(), run);
        per_rep.push(layer_values(
            &summary,
            &counts,
            &prepared,
            pipeline.shard_bytes,
        ));
    }

    let consume_ns: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|span| span.name == "sink.consume")
        .map(|span| span.duration() as f64)
        .collect();
    let median_of = |name: &str| {
        let values: Vec<f64> = per_rep
            .iter()
            .filter_map(|values| values.get(name).copied())
            .collect();
        median(&values)
    };
    let pass_w1 = median(&pass_w1_ns);
    let staged_total = median_of("pipeline.staged_total_ns");
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "sink.consume_chunk_p50_ns" => percentile(&consume_ns, 50.0),
                "sink.consume_chunk_p99_ns" => percentile(&consume_ns, 99.0),
                // Computed, not measured: what the synchronous sink spends
                // beyond encoding and hashing — buffer copies and writes.
                "sink.write_residual_ns" if terminal.writes_shards() => {
                    (median_of("sink.consume_ns")
                        - median_of("codec.encode_ns")
                        - median_of("writer.checksum_ns"))
                    .max(0.0)
                }
                "pipeline.pass_w1_ns" => pass_w1,
                "pipeline.coverage" if pass_w1 > 0.0 => staged_total / pass_w1,
                "pipeline.overhead_ns" => pass_w1 - staged_total,
                _ => median_of(name),
            };
            (name, unit, value)
        })
        .collect();

    let mut provenance = provenance::host(
        config.workload.name,
        config.seed,
        config.smoke,
        scratch.path(),
    );
    provenance.raw("trace", true);
    provenance.raw("workers", "[1]");
    provenance.raw("traced_reps", reps);
    provenance.raw("spans", tracer.spans().len());
    provenance.raw("edges", prepared.edges);
    provenance.raw("vertices", prepared.vertices);
    provenance.raw("chunk_capacity", EdgeChunk::DEFAULT_CAPACITY);
    let outcome = Outcome {
        workload: config.workload.name,
        metrics,
        ungated: Vec::new(),
        notes: Vec::new(),
        tally,
        provenance,
    };
    Ok((outcome, tracer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Budget;
    use crate::workload::WORKLOADS;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let span = |parent, run, name, start_ns, end_ns| Span {
            parent,
            run,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(None, 1, "stream", 0, 100),
            span(Some(0), 1, "observe", 10, 30),
            span(Some(0), 1, "consume", 30, 70),
            span(Some(2), 1, "encode", 35, 60),
            span(Some(0), 1, "observe", 70, 80),
            span(None, 2, "stream", 200, 1_000),
        ];
        let summary = RunSummary::of(&spans, 1);
        assert_eq!(summary.total("stream"), 100.0);
        assert_eq!(summary.self_time("stream"), 30.0);
        assert_eq!(summary.total("observe"), 30.0);
        assert_eq!(summary.count("observe"), 2.0);
        assert_eq!(summary.self_time("consume"), 15.0);
        assert_eq!(summary.total("absent"), 0.0);
        assert_eq!(RunSummary::of(&spans, 2).total("stream"), 800.0);
    }

    #[test]
    fn the_tracer_nests_spans_and_prints_them() {
        let mut tracer = Tracer::new();
        let run = tracer.begin_run();
        let outer = tracer.enter("outer");
        tracer.span("inner", || ());
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans.iter().all(|span| span.run == run));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = tracer.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\": \"inner\""));
        assert!(json.contains("\"parent\": null") && json.contains("\"parent\": 0"));
    }

    #[test]
    fn every_workload_smokes_traced_with_every_layer_metric_and_no_failure() {
        for workload in WORKLOADS {
            let config = Config {
                workload,
                seed: 20_180_304,
                budget: Budget::Reps(1),
                smoke: true,
                scratch_base: std::env::temp_dir().join("kron-benchmark-tests"),
            };
            let (outcome, tracer) = traced(&config).unwrap();
            assert!(outcome.correct(), "{}", outcome.describe());
            let names: Vec<_> = outcome.metrics.iter().map(|(name, _, _)| *name).collect();
            let expected: Vec<_> = PER_LAYER.iter().map(|(name, _, _)| *name).collect();
            assert_eq!(names, expected, "{}", workload.name);
            assert!(!tracer.spans().is_empty());

            let value = |name: &str| {
                outcome
                    .metrics
                    .iter()
                    .find(|(n, _, _)| *n == name)
                    .map(|(_, _, v)| *v)
                    .unwrap()
            };
            let terminal = workload.terminal;
            assert!(value("pipeline.pass_w1_ns") > 0.0);
            assert!(value("pipeline.staged_total_ns") > 0.0);
            assert!(value("pipeline.coverage") > 0.0);
            assert!(value("metrics.observe_ns") > 0.0);
            assert!(value("metrics.observe_shared_ns") > 0.0);
            // The layers a workload bypasses read exactly 0.
            assert_eq!(
                value("permute.apply_ns") > 0.0,
                terminal == Terminal::PermuteCount,
                "{}",
                workload.name
            );
            assert_eq!(value("rmat.sample_ns") > 0.0, workload.name == "rmat_count");
            assert_eq!(
                value("rmat.fill_kernel_ns") > 0.0,
                workload.name == "rmat_count"
            );
            assert_eq!(
                value("replay.stream_ns") > 0.0,
                terminal == Terminal::ReplayV4
            );
            assert_eq!(
                value("replay.open_ns") > 0.0,
                terminal == Terminal::ReplayV4
            );
            assert_eq!(
                value("sink.handoff_wait_ns") > 0.0,
                terminal == Terminal::ShardV4
            );
            assert_eq!(value("sink.bytes") > 0.0, terminal.writes_shards());
            assert_eq!(value("manifest.write_ns") > 0.0, terminal.writes_shards());
            assert_eq!(
                value("codec.encode_ns") > 0.0,
                matches!(terminal, Terminal::ShardV4 | Terminal::ReplayV4)
            );
            assert_eq!(
                value("writer.checksum_ns") > 0.0,
                terminal.shard_extension().is_some()
            );
            assert_eq!(
                value("source.expand_ns") > 0.0,
                !matches!(terminal, Terminal::ReplayV4) && workload.name != "rmat_count"
            );
        }
    }
}
