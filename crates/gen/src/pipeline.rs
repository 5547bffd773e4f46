//! The unified design → generate → validate pipeline.
//!
//! The paper's workflow is one straight line — design a graph, generate it
//! communication-free, validate that measured equals predicted — and
//! [`Pipeline`] is that line as one API, generic over *where the edges come
//! from*: any [`EdgeSource`].  The exact Kronecker expansion
//! ([`KroneckerSource`]), the Graph500-style R-MAT sampler
//! (`kron_rmat::RmatSource`), and the raw `B ⊗ C` product all run through
//! the same terminals:
//!
//! ```no_run
//! use kron_core::{KroneckerDesign, SelfLoop};
//! use kron_gen::Pipeline;
//!
//! let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre)?;
//! let report = Pipeline::for_design(&design)
//!     .workers(8)
//!     .permute_vertices(0xFEED)  // Feistel relabelling, no O(V) table
//!     .write_compressed(std::path::Path::new("/data/run1"))?;
//! assert!(report.validation.is_exact_match());
//! println!("{}", report.manifest.to_json());
//! # Ok::<(), kron_core::CoreError>(())
//! ```
//!
//! * [`Pipeline::count`] — generate and validate, store nothing.
//! * [`Pipeline::collect_coo`] — per-worker in-memory COO blocks.
//! * [`Pipeline::write_tsv`] / [`Pipeline::write_compressed`] — one shard
//!   file per worker, plus a `manifest.json` reproducibility record and a
//!   `progress.jsonl` journal.
//! * [`Pipeline::resume`] — finish an interrupted or partly quarantined file
//!   run from its journal, bit-identically.
//! * [`Pipeline::into_sinks`] — any custom [`EdgeSink`] factory.
//!
//! Every terminal is the same engine, and the engine is §V's worker written
//! down once — each stage of a worker's life is one private method of
//! `Stages` with one call site:
//!
//! 1. **plan** (`run`) — a `WorkerPlan` settled before any worker starts:
//!    generate the shard, or re-verify one a resume already proved complete
//!    (`reverify`).
//! 2. **attempt under retry** — `RetryPolicy::run` owns the attempt count,
//!    the backoff sleep and the give-up test; its one caller decides whether
//!    a spent shard fails the run or is quarantined.
//! 3. **per chunk: source [+ relabel] → observe → consume** (`attempt`) —
//!    the worker's deterministic share streams through a reusable chunk
//!    ([`SourceRun::stream_worker`], or
//!    [`SourceRun::stream_worker_relabelled`] under
//!    [`Pipeline::permute_vertices`]: no `O(V)` permutation table, seed
//!    captured in the manifest); the streaming metrics observe each chunk,
//!    then the worker's sink consumes it.  A failed attempt abandons its
//!    sink and drops its metrics unfolded, so it leaves nothing behind.
//!    An attempt ends with [`EdgeSink::finish_with_checksum`] (for a shard
//!    file: flush → fsync → rename), so a failed finish is retried too.
//! 4. **seal** (`seal`) — outside the retry loop, because it cannot be
//!    taken back: the worker's metrics fold into the run's, then the shard's
//!    record is appended to the journal — only ever after the rename.
//!
//! Every terminal returns a [`RunReport`]: the sink outputs, the
//! [`MetricsReport`] (counts, degrees, per-worker balance), the streamed
//! [`ValidationReport`] (field-by-field for everything the source can
//! predict exactly; measured-only otherwise), and a serialisable
//! [`RunManifest`] recording the source kind, every seed, the wall-clock
//! time and the warnings.  Every backend, in-memory or on-disk, gets
//! bounded-memory generation *and* validation; this builder is the only way
//! to generate.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rayon::prelude::*;

use kron_core::validate::ValidationReport;
use kron_core::{CoreError, GraphProperties, KroneckerDesign};
use kron_sparse::{CooMatrix, SparseError};

use crate::chunk::EdgeChunk;
use crate::manifest::{
    JournalHeader, ProgressJournal, RunManifest, ShardRecord, MANIFEST_FILE_NAME,
};
use crate::metrics::{
    check_metric_names, MetricsEngine, MetricsReport, PredicateCountMetric, RunShape, WorkerMetrics,
};
use crate::permute::FeistelPermutation;
use crate::replay::{shard_checksum, stream_shard};
use crate::sink::{
    prepare_directory, BlockFileSet, BlockFormat, CooSink, CountingSink, EdgeSink, ShardSink,
    StagedFile,
};
use crate::source::{EdgeSource, KroneckerSource, SourceRun};
use crate::split::SplitPlan;

pub use crate::source::SelfLoopPolicy;

/// How a pipeline run responds to a *transient* worker failure — a sink
/// write error, a source read hiccup — before giving up on the shard: the
/// whole worker attempt is thrown away ([`EdgeSink::abandon`] removes any
/// partial temporary file, the worker's metrics check-out is discarded
/// unfolded) and the attempt is re-run from the start after a bounded
/// exponential backoff.  Re-running is safe because every
/// [`SourceRun`] streams a worker's share deterministically and sinks stage
/// into temporary files, so a failed attempt leaves nothing behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail on the first error).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Upper bound the doubling backoff is clamped to.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// No retries — the default pipeline fails fast.
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// Never retry: the first worker error fails (or quarantines) the shard.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Retry up to `max_retries` times with a 10 ms initial backoff doubling
    /// to at most one second.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }

    /// The backoff before 0-based retry `attempt`: `base * 2^attempt`,
    /// clamped to `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doubled = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt.min(31)).unwrap_or(u32::MAX));
        doubled.min(self.max_backoff)
    }

    /// Run `attempt` until it succeeds or the retries are spent, sleeping
    /// [`backoff`](Self::backoff) before each retry.  Either way the number
    /// of attempts made comes back, beside the value or the *last* error.
    fn run<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, CoreError>,
    ) -> Result<(T, u32), (CoreError, u32)> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match attempt() {
                Ok(value) => return Ok((value, attempts)),
                Err(error) if attempts > self.max_retries => return Err((error, attempts)),
                Err(_) => std::thread::sleep(self.backoff(attempts - 1)),
            }
        }
    }
}

/// One shard the run could not produce: the typed quarantine record a
/// fault-tolerant run ([`Pipeline::quarantine_failures`]) returns in
/// [`RunReport::failures`] instead of failing the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFailure {
    /// The worker whose shard failed.
    pub worker: usize,
    /// The output file the shard would have landed in, for file terminals.
    pub path: Option<PathBuf>,
    /// The error of the last attempt.
    pub error: CoreError,
    /// Attempts made (1 + retries).
    pub attempts: u32,
}

/// The concrete pipeline type of a Kronecker-design run — what
/// [`Pipeline::for_design`] returns.
pub type DesignPipeline<'d> = Pipeline<KroneckerSource<'d>>;

/// A fluent builder for one design → generate → validate run over any
/// [`EdgeSource`].
///
/// Engine knobs (workers, chunk size, histogram budget, the optional vertex
/// permutation) live on the pipeline; source-specific knobs (the `B ⊗ C`
/// split and factor budgets of a Kronecker run, the sampling seed of an
/// R-MAT run) live on the source.  For the common Kronecker case,
/// [`Pipeline::for_design`] starts a pipeline whose source setters are
/// forwarded straight from the builder, so the pre-generic API reads
/// unchanged.
#[derive(Debug, Clone)]
pub struct Pipeline<S> {
    source: S,
    workers: usize,
    chunk_capacity: usize,
    max_histogram_bytes: u64,
    permutation_seed: Option<u64>,
    metrics: Vec<PredicateCountMetric>,
    retry: RetryPolicy,
    quarantine: bool,
    /// Set when the worker count is still the clamped default
    /// ([`clamped_default_workers`]): the warning the run reports, cleared
    /// by an explicit [`Pipeline::workers`].
    default_worker_note: Option<String>,
}

/// Default worker count.
const DEFAULT_WORKERS: usize = 4;
/// Default streaming-histogram budget, in bytes (1 GiB).
const DEFAULT_MAX_HISTOGRAM_BYTES: u64 = 1 << 30;

/// [`DEFAULT_WORKERS`] clamped to the host's available parallelism, with a
/// warning when the clamp engaged.
///
/// Oversubscribing a small host costs real throughput (the Figure-3 sweep
/// measured 8 workers *slower* than 4 on a 4-thread machine), so a pipeline
/// whose worker count was never chosen by the caller runs at most
/// `available` workers.  Only the *default* is clamped: an explicit worker
/// count — [`Pipeline::workers`], or a resume matching its journal — is
/// always honoured, because the worker count is part of a run's
/// deterministic configuration (shard layout and journal compatibility
/// depend on it).
fn clamped_default_workers(available: usize) -> (usize, Option<String>) {
    if available == 0 || available >= DEFAULT_WORKERS {
        (DEFAULT_WORKERS, None)
    } else {
        (
            available,
            Some(format!(
                "default worker count {DEFAULT_WORKERS} exceeds the host's available \
                 parallelism; running {available} worker(s) — set workers explicitly to override"
            )),
        )
    }
}

/// The host's available parallelism, for clamping the *default* worker
/// count.  Host-dependent by design — it only ever selects how many workers
/// share the stream, never what the stream contains (the edge multiset is
/// identical for every worker count).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(DEFAULT_WORKERS)
}

impl<'d> Pipeline<KroneckerSource<'d>> {
    /// Start a pipeline over `design` with default configuration.  The
    /// default worker count is clamped to the host's available parallelism
    /// (with a run warning); set [`Pipeline::workers`] to override.
    pub fn for_design(design: &'d KroneckerDesign) -> Self {
        Pipeline::for_source(KroneckerSource::new(design))
    }

    /// Pin the `B ⊗ C` split index (`B` = first `split_index` constituents)
    /// instead of choosing it automatically.
    pub fn split_index(mut self, split_index: usize) -> Self {
        self.source = self.source.split_index(split_index);
        self
    }

    /// Set the memory budget for the replicated `C` factor, in stored
    /// entries (also the budget the automatic split choice honours).
    pub fn max_c_edges(mut self, max_c_edges: u64) -> Self {
        self.source = self.source.max_c_edges(max_c_edges);
        self
    }

    /// Set the guard on `nnz(B)`, the partitioned factor's triple count: a
    /// larger `B` is refused with [`CoreError::TooLargeToRealise`].  `B` is
    /// never stored — each worker computes its triples from `B`'s factors —
    /// so the guard sizes no allocation.
    pub fn max_b_edges(mut self, max_b_edges: u64) -> Self {
        self.source = self.source.max_b_edges(max_b_edges);
        self
    }

    /// Set the self-loop policy.
    pub fn self_loop_policy(mut self, policy: SelfLoopPolicy) -> Self {
        self.source = self.source.self_loop_policy(policy);
        self
    }

    /// Shorthand for [`SelfLoopPolicy::KeepRaw`]: stream the raw `B ⊗ C`
    /// product, self-loops included.
    pub fn raw_product(self) -> Self {
        self.self_loop_policy(SelfLoopPolicy::KeepRaw)
    }
}

impl<S: EdgeSource> Pipeline<S> {
    /// Start a pipeline over any [`EdgeSource`] with default engine
    /// configuration — the entry point for non-Kronecker sources:
    ///
    /// ```ignore
    /// let report = Pipeline::for_source(RmatSource::new(params, seed)?)
    ///     .workers(8)
    ///     .count()?;
    /// ```
    pub fn for_source(source: S) -> Self {
        let (workers, note) = clamped_default_workers(host_parallelism());
        Pipeline {
            source,
            workers,
            chunk_capacity: EdgeChunk::DEFAULT_CAPACITY,
            max_histogram_bytes: DEFAULT_MAX_HISTOGRAM_BYTES,
            permutation_seed: None,
            metrics: Vec::new(),
            retry: RetryPolicy::none(),
            quarantine: false,
            default_worker_note: note,
        }
    }

    /// Set the number of workers (rayon tasks; the paper's "processors").
    /// An explicit count is never clamped — it is part of the run's
    /// deterministic configuration.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self.default_worker_note = None;
        self
    }

    /// Set the capacity of each worker's reusable edge chunk.  A capacity
    /// whose buffer would exceed `isize::MAX` bytes fails the run with
    /// [`CoreError::InvalidConfig`] before anything is written; a buffer
    /// the host cannot allocate fails the worker with
    /// [`SparseError::TooLarge`].
    pub fn chunk_capacity(mut self, chunk_capacity: usize) -> Self {
        self.chunk_capacity = chunk_capacity;
        self
    }

    /// Set the memory budget for a flat streaming degree histogram, in
    /// bytes.  A run whose source declares [column
    /// windows](SourceRun::column_windows) — a Kronecker run, fresh or
    /// resumed — counts the *column* endpoints in windows of `|V_C|` labels
    /// per worker and allocates no vector to budget.  Every other run —
    /// R-MAT, replay — counts the *row* endpoints in per-vertex vectors, and
    /// this budget governs it: while the peak of per-worker vectors of
    /// 2-byte cells — `(concurrent workers + 1) × vertices × 2` bytes, since
    /// a vector is summed into the run's and handed on the moment its
    /// worker finishes — fits the budget, each worker counts privately at
    /// full speed; beyond
    /// it the run switches to a single shared atomic vector — `O(vertices)`
    /// total no matter the worker count, at the price of one relaxed
    /// `fetch_add` per edge.  A flat run that may retry or quarantine
    /// always counts privately, with a warning that it exceeds this budget,
    /// because the shared vector cannot roll back a failed attempt.
    pub fn max_histogram_bytes(mut self, max_histogram_bytes: u64) -> Self {
        self.max_histogram_bytes = max_histogram_bytes;
        self
    }

    /// Relabel every vertex through a seeded [`FeistelPermutation`] as the
    /// edges stream — no `O(vertices)` permutation table — so the heavy
    /// vertices of the released graph are not identifiable by index
    /// (Graph500's post-generation shuffle, fused into generation).  The
    /// permutation is an exact bijection on `[0, vertices)`: every degree-
    /// and loop-preserving guarantee holds, validation still passes, and the
    /// seed is recorded in the manifest so the run stays reproducible.
    ///
    /// The source decides how its chunks are relabelled
    /// ([`SourceRun::stream_worker_relabelled`]): a Kronecker run images the
    /// row and column label ranges of each `B`-triple and gathers per edge,
    /// which keeps two image tables of `8·|V_C|` bytes per worker (at most
    /// 16 MiB together at the default `max_c_edges`); every other source
    /// relabels edge by edge with scratch the size of one chunk.  Both
    /// deliver the same stream.
    pub fn permute_vertices(mut self, seed: u64) -> Self {
        self.permutation_seed = Some(seed);
        self
    }

    /// Register one custom [`PredicateCountMetric`]: each worker counts the
    /// edges of every chunk delivered to its sink that satisfy it, the
    /// counts are summed as workers finish, and the total lands in
    /// [`RunReport::metrics`] and the manifest.  The built-in metrics
    /// (degree histogram, counts, max degree, balance, power-law fit) always
    /// run; this adds to them.  A name a built-in record uses, or one
    /// registered twice, fails the run with [`CoreError::InvalidConfig`]
    /// before anything is written.
    pub fn with_metric(mut self, metric: PredicateCountMetric) -> Self {
        self.metrics.push(metric);
        self
    }

    /// Retry a failed worker attempt under `retry` before giving up on its
    /// shard.  A retried attempt restarts the worker's deterministic stream
    /// from scratch (the failed sink is [abandoned](EdgeSink::abandon), its
    /// metrics discarded), so a transient fault costs time, never
    /// correctness.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Degrade gracefully on permanent worker failures: instead of failing
    /// the whole run when a worker exhausts its retries, record a
    /// [`ShardFailure`] in [`RunReport::failures`], count the worker's
    /// delivered edges as zero, and complete every other shard.  A later
    /// [`Pipeline::resume`] regenerates exactly the missing shards.
    pub fn quarantine_failures(mut self, quarantine: bool) -> Self {
        self.quarantine = quarantine;
        self
    }

    /// Generate and validate with a [`CountingSink`] per worker: no output
    /// at all — the cheapest way to reproduce measured-equals-predicted at
    /// scales far beyond memory for edges.
    pub fn count(self) -> Result<RunReport<u64>, CoreError> {
        let spec = SinkSpec::Memory("counting");
        self.run_with(spec, |_| Ok(CountingSink::new()), None)
    }

    /// Generate into one in-memory [`CooSink`] block per worker (tests and
    /// small graphs).
    pub fn collect_coo(self) -> Result<RunReport<CooMatrix<u64>>, CoreError> {
        let vertices = self.source.vertices()?;
        let spec = SinkSpec::Memory("coo");
        self.run_with(spec, |_| Ok(CooSink::new(vertices)), None)
    }

    /// Generate into one TSV shard per worker under `directory`, and write
    /// the run's `manifest.json` next to the shards.
    pub fn write_tsv(self, directory: &Path) -> Result<RunReport<PathBuf>, CoreError> {
        self.write_shards(directory, BlockFormat::Tsv, None)
    }

    /// Generate into one compressed (v4 delta/varint) shard per worker
    /// under `directory`, and write the run's `manifest.json` next to the
    /// shards.  Each worker's sink runs double-buffered: encoding and
    /// writing happen on a dedicated writer thread, overlapped with
    /// generation, behind a bounded two-chunk queue.
    pub fn write_compressed(self, directory: &Path) -> Result<RunReport<PathBuf>, CoreError> {
        self.write_shards(directory, BlockFormat::Compressed, None)
    }

    /// Generate into custom sinks: `make_sink(worker)` creates the sink each
    /// worker streams into.  This is the extension point every new backend
    /// (sockets, compressed files, columnar stores) plugs into.
    pub fn into_sinks<K, F>(self, make_sink: F) -> Result<RunReport<K::Output>, CoreError>
    where
        K: EdgeSink,
        K::Output: Send,
        F: Fn(usize) -> Result<K, SparseError> + Sync,
    {
        self.run_with(SinkSpec::Memory("custom"), make_sink, None)
    }

    /// Resume an interrupted (or partially quarantined) file-writing run
    /// from the progress journal in `directory`.
    ///
    /// The pipeline must be configured exactly as the interrupted run was —
    /// same source, seeds, workers, and permutation; any disagreement with
    /// the journal header is rejected up front with
    /// [`CoreError::ResumeMismatch`], because every source streams a
    /// worker's share deterministically *per configuration* and a resumed
    /// run mixing configurations would silently produce a different graph.
    ///
    /// Each shard the journal records as complete is re-verified by checksum
    /// on disk: verified shards are *skipped* (their edges stream back
    /// through the metrics engine, so the report still measures the whole
    /// graph), missing or corrupt shards are regenerated (with a warning
    /// naming the shard), and orphaned `.tmp` staging files from the crash
    /// are deleted.  The result is bit-identical — shard bytes and
    /// [`MetricsReport`] — to the same run never having been interrupted.
    pub fn resume(self, directory: &Path) -> Result<RunReport<PathBuf>, CoreError> {
        self.check_config()?;
        let (header, records) = ProgressJournal::read(directory)?;
        let (journal_seed, seed) = (header.permutation_seed, self.permutation_seed);
        journal_agrees("workers", header.workers, self.workers)?;
        journal_agrees("permutation_seed", fmt_seed(journal_seed), fmt_seed(seed))?;
        let vertices = self.source.vertices()?;
        let format = BlockFormat::from_label(&header.sink)?;
        journal_agrees("vertices", header.vertices, vertices)?;

        let files = prepare_directory(directory, self.workers, format)?;
        let mut notes = Vec::new();
        let removed = StagedFile::sweep(directory).map_err(CoreError::Sparse)?;
        if removed > 0 {
            notes.push(format!(
                "resume: removed {removed} orphaned .tmp staging file(s) left by the \
                 interrupted run"
            ));
        }
        // Verification is a pre-pass: every plan is settled before any
        // worker runs, so a shard that fails it is regenerated by a worker
        // that has fed nothing into a (possibly shared) histogram yet.
        let mut plans: Vec<WorkerPlan<PathBuf>> =
            (0..self.workers).map(|_| WorkerPlan::Generate).collect();
        let mut verified = 0;
        for record in records {
            let Some(expected) = files.get(record.worker) else {
                continue;
            };
            if Some(record.file.as_str()) != expected.file_name().and_then(|n| n.to_str()) {
                // A record from a different layout (e.g. a renamed file):
                // nothing safe to skip, regenerate the shard.
                continue;
            }
            let path = directory.join(&record.file);
            match shard_checksum(&path, format) {
                Ok(actual) if actual == record.checksum => {
                    verified += 1;
                    let worker = record.worker;
                    plans[worker] = WorkerPlan::Reverify(VerifiedShard {
                        output: expected.clone(),
                        path,
                        format,
                        record,
                    });
                }
                Ok(actual) => notes.push(format!(
                    "resume: shard {} failed checksum verification (journal \
                     {:#018x}, disk {actual:#018x}); regenerating",
                    record.file, record.checksum
                )),
                Err(_) => notes.push(format!(
                    "resume: shard {} missing or unreadable; regenerating",
                    record.file
                )),
            }
        }
        notes.push(format!(
            "resume: {verified} shard(s) verified complete, {} to generate",
            self.workers - verified
        ));
        let resumed = Resumed {
            source: header.source,
            source_seed: header.source_seed,
            notes,
            plans,
        };
        self.write_shards(directory, format, Some(resumed))
    }

    /// The shard-file terminal behind `write_*` and `resume`: one shard of
    /// `format` per worker under `directory`, the progress journal, and the
    /// manifest.
    fn write_shards(
        self,
        directory: &Path,
        format: BlockFormat,
        resumed: Option<Resumed<PathBuf>>,
    ) -> Result<RunReport<PathBuf>, CoreError> {
        let vertices = self.source.vertices()?;
        let files = prepare_directory(directory, self.workers, format)?;
        let spec = SinkSpec::Shards(BlockFileSet {
            directory: directory.to_path_buf(),
            files: files.clone(),
            vertices,
            format,
        });
        let make_sink = |worker: usize| ShardSink::create(format, &files[worker], vertices);
        self.run_with(spec, make_sink, resumed)
    }

    /// The engine: prepare the source and the state every worker shares,
    /// carry out each worker's plan through the [`Stages`] in parallel, and
    /// assemble the report (validation + manifest included).
    fn run_with<K, F>(
        self,
        spec: SinkSpec,
        make_sink: F,
        resumed: Option<Resumed<K::Output>>,
    ) -> Result<RunReport<K::Output>, CoreError>
    where
        K: EdgeSink,
        K::Output: Send,
        F: Fn(usize) -> Result<K, SparseError> + Sync,
    {
        self.check_config()?;
        let vertices = self.source.vertices()?;
        let (source_run, mut warnings) = self.source.prepare(self.workers)?;
        warnings.extend(self.default_worker_note.clone());
        let descriptor = source_run.descriptor();
        let resuming = resumed.is_some();
        let plans: Vec<WorkerPlan<K::Output>> = match resumed {
            Some(resumed) => {
                // Source kind and seed are only known once the source is
                // prepared; no file has been touched yet.
                let (journal_seed, seed) = (resumed.source_seed, descriptor.seed);
                journal_agrees("source", resumed.source, descriptor.kind)?;
                journal_agrees("source_seed", fmt_seed(journal_seed), fmt_seed(seed))?;
                warnings.extend(resumed.notes);
                resumed.plans
            }
            None => (0..self.workers).map(|_| WorkerPlan::Generate).collect(),
        };
        let header = JournalHeader {
            source: descriptor.kind.to_string(),
            source_seed: descriptor.seed,
            permutation_seed: self.permutation_seed,
            workers: self.workers,
            vertices: descriptor.vertices.clone(),
            sink: spec.label().to_string(),
        };
        let run = RunShape {
            vertices,
            workers: self.workers,
            windows: source_run.column_windows(),
            fault_tolerant: self.retry.max_retries > 0 || self.quarantine,
            max_histogram_bytes: self.max_histogram_bytes,
        };
        let engine =
            MetricsEngine::new(&self.metrics, run, &mut warnings).map_err(CoreError::Sparse)?;
        let journal = spec.open_journal(resuming, &header)?;
        let permutation = self
            .permutation_seed
            .map(|seed| FeistelPermutation::new(vertices, seed));

        // Wall-clock time is reported to operators in the manifest's
        // `seconds` only; it never feeds the edge stream, which stays
        // (seed, index)-derived.
        #[allow(clippy::disallowed_methods)]
        // lint:allow(no-ambient-time) -- operator-facing run timing only; the edge stream never reads the clock
        let started = Instant::now();
        let stages = Stages {
            retry: &self.retry,
            quarantine: self.quarantine,
            chunk_capacity: self.chunk_capacity,
            source_run: &source_run,
            permutation: permutation.as_ref(),
            engine: &engine,
            make_sink: &make_sink,
            journal: journal.as_ref(),
            outputs: spec.shards().map_or(&[], |set| &set.files),
            vertices,
        };
        let plans: Vec<(usize, WorkerPlan<K::Output>)> = plans.into_iter().enumerate().collect();
        let worker_results: Vec<Result<WorkerOutcome<K::Output>, CoreError>> = plans
            .into_par_iter()
            .map(|(worker, plan)| stages.run(worker, plan))
            .collect();
        let elapsed = started.elapsed();

        let mut outputs = Vec::with_capacity(self.workers);
        let mut edges_per_worker = Vec::with_capacity(self.workers);
        let mut failures = Vec::new();
        let mut shards = Vec::new();
        for result in worker_results {
            match result? {
                WorkerOutcome::Done {
                    output,
                    delivered,
                    record,
                } => {
                    outputs.push(output);
                    edges_per_worker.push(delivered);
                    shards.extend(record);
                }
                WorkerOutcome::Quarantined(failure) => {
                    edges_per_worker.push(0);
                    failures.push(failure);
                }
            }
        }
        let (measured, metrics) = engine
            .finalize(edges_per_worker)
            .map_err(CoreError::Sparse)?;
        for failure in &failures {
            warnings.push(format!(
                "worker {} quarantined after {} attempt(s): {}",
                failure.worker, failure.attempts, failure.error
            ));
        }

        let predicted = source_run.predicted_properties();
        let validation = source_run.validate(&measured);
        let paths = |paths: &[PathBuf]| paths.iter().map(|p| p.display().to_string()).collect();
        let manifest = RunManifest {
            source: descriptor.kind.to_string(),
            source_seed: descriptor.seed,
            permutation_seed: self.permutation_seed,
            star_points: descriptor.star_points,
            self_loop: descriptor.self_loop,
            vertices: descriptor.vertices,
            predicted_edges: descriptor.predicted_edges,
            workers: self.workers,
            split_index: descriptor.split_index,
            max_c_edges: descriptor.max_c_edges,
            max_b_edges: descriptor.max_b_edges,
            chunk_capacity: self.chunk_capacity,
            max_histogram_bytes: self.max_histogram_bytes,
            self_loop_policy: descriptor.self_loop_policy,
            sink: spec.label().to_string(),
            directory: spec.shards().map(|set| set.directory.display().to_string()),
            outputs: spec.shards().map_or_else(Vec::new, |set| paths(&set.files)),
            edges_per_worker: metrics.balance.edges_per_worker.clone(),
            total_edges: metrics.balance.edges_per_worker.iter().sum(),
            seconds: elapsed.as_secs_f64(),
            exact_match: validation.is_exact_match(),
            warnings,
            shards,
            metrics: metrics.records(),
        };
        debug_assert_eq!(manifest.total_edges, metrics.edges);
        let files = match spec {
            SinkSpec::Memory(_) => None,
            SinkSpec::Shards(set) => {
                manifest
                    .write_to(&set.directory.join(MANIFEST_FILE_NAME))
                    .map_err(CoreError::Sparse)?;
                Some(set)
            }
        };

        Ok(RunReport {
            outputs,
            split: source_run.split_plan(),
            predicted,
            metrics,
            validation,
            failures,
            manifest,
            files,
        })
    }

    /// The checks every terminal makes before it writes anything: at least
    /// one worker, a chunk capacity whose buffer can be sized, and custom
    /// metric names no record of the run shares.
    fn check_config(&self) -> Result<(), CoreError> {
        if self.workers == 0 {
            return Err(CoreError::InvalidConfig {
                message: "the pipeline needs at least one worker".into(),
            });
        }
        if !EdgeChunk::can_size(self.chunk_capacity) {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "a chunk of {} edges is too large to allocate",
                    self.chunk_capacity
                ),
            });
        }
        check_metric_names(&self.metrics)
    }
}

/// The stages of a worker's life (see the module docs) over the read-only
/// state every worker of a run shares.  Each stage is one method with one
/// call site, so it can be timed, counted or changed in exactly one place.
struct Stages<'a, R, F> {
    retry: &'a RetryPolicy,
    quarantine: bool,
    chunk_capacity: usize,
    source_run: &'a R,
    permutation: Option<&'a FeistelPermutation>,
    engine: &'a MetricsEngine<'a>,
    make_sink: &'a F,
    journal: Option<&'a ProgressJournal>,
    /// The shard file of each worker (empty for in-memory terminals).
    outputs: &'a [PathBuf],
    vertices: u64,
}

impl<R, K, F> Stages<'_, R, F>
where
    R: SourceRun,
    K: EdgeSink,
    F: Fn(usize) -> Result<K, SparseError>,
{
    /// Carry out one worker's plan.  A shard that exhausts its retries fails
    /// the run, or — on a quarantining run — is recorded for a later resume.
    fn run(
        &self,
        worker: usize,
        plan: WorkerPlan<K::Output>,
    ) -> Result<WorkerOutcome<K::Output>, CoreError> {
        if let WorkerPlan::Reverify(shard) = plan {
            return self.reverify(shard);
        }
        match self.retry.run(|| self.attempt(worker)) {
            Ok((finished, _)) => self.seal(worker, finished),
            Err((error, attempts)) if self.quarantine => {
                Ok(WorkerOutcome::Quarantined(ShardFailure {
                    worker,
                    path: self.outputs.get(worker).cloned(),
                    error,
                    attempts,
                }))
            }
            Err((error, _)) => Err(error),
        }
    }

    /// Stream a verified shard back through the metrics (verifying it again
    /// as it streams) so the report covers the whole graph.  The shard holds
    /// the worker's stream in stream order, as delivered; a permuted run maps
    /// each chunk back to source labels through the permutation's inverse,
    /// so the metrics observe exactly what [`Self::attempt`] would have
    /// shown them — the same column windows, in the same order.
    fn reverify(
        &self,
        shard: VerifiedShard<K::Output>,
    ) -> Result<WorkerOutcome<K::Output>, CoreError> {
        let mut metrics = self.engine.worker();
        let mut chunk = EdgeChunk::try_new(self.chunk_capacity).map_err(CoreError::Sparse)?;
        let (mut source, mut pending) = (Vec::new(), Vec::new());
        let mut observe = |edges: &[(u64, u64)]| -> Result<(), SparseError> {
            match self.permutation {
                Some(permutation) => {
                    permutation.invert_edges_into(edges, &mut source, &mut pending);
                    metrics.observe(&source, edges)
                }
                None => metrics.observe(edges, edges),
            }
        };
        let delivered = stream_shard(
            &shard.path,
            shard.format,
            self.vertices,
            Some(shard.record.checksum),
            &mut chunk,
            &mut observe,
        )
        .map_err(CoreError::Sparse)?;
        metrics.finish();
        Ok(WorkerOutcome::Done {
            output: shard.output,
            delivered,
            record: Some(shard.record),
        })
    }

    /// One try at a worker's shard from a fresh sink, metrics check-out and
    /// chunk: per chunk, source [+ relabel] → observe → consume, then the
    /// sink is finished — which seals trailing sink state (a partial
    /// compression frame, a patched header) before the checksum is taken.
    /// A failed stream abandons the sink (its staging file goes, silently);
    /// any failure drops the metrics unfolded.
    fn attempt(&self, worker: usize) -> Result<Finished<'_, K::Output>, CoreError> {
        let mut sink = (self.make_sink)(worker).map_err(CoreError::Sparse)?;
        let mut metrics = self.engine.worker();
        let mut chunk = match EdgeChunk::try_new(self.chunk_capacity) {
            Ok(chunk) => chunk,
            Err(error) => {
                sink.abandon();
                return Err(CoreError::Sparse(error));
            }
        };
        let mut deliver = |edges: &[(u64, u64)], out: &[(u64, u64)]| {
            metrics.observe(edges, out)?;
            sink.consume(out)
        };
        let streamed = match self.permutation {
            Some(permutation) => self.source_run.stream_worker_relabelled::<SparseError, _>(
                worker,
                permutation,
                &mut chunk,
                deliver,
            ),
            None => self
                .source_run
                .stream_worker::<SparseError, _>(worker, &mut chunk, |edges| deliver(edges, edges)),
        };
        let delivered = match streamed {
            Ok(delivered) => delivered,
            Err(error) => {
                sink.abandon();
                return Err(CoreError::Sparse(error));
            }
        };
        let (output, checksum) = sink.finish_with_checksum().map_err(CoreError::Sparse)?;
        Ok(Finished {
            output,
            checksum,
            delivered,
            metrics,
        })
    }

    /// Seal a finished attempt: fold the worker's metrics into the run's and
    /// journal the shard.  Outside the retry loop, because a fold cannot be
    /// taken back; after the sink's atomic rename, so a journal record always
    /// points at a complete, checksummed shard.
    fn seal(
        &self,
        worker: usize,
        finished: Finished<'_, K::Output>,
    ) -> Result<WorkerOutcome<K::Output>, CoreError> {
        finished.metrics.finish();
        let record = match (self.journal, finished.checksum) {
            (Some(journal), Some(checksum)) => {
                let record = ShardRecord {
                    worker,
                    file: shard_file_name(&self.outputs[worker]),
                    edges: finished.delivered,
                    checksum,
                };
                journal.record_shard(&record)?;
                Some(record)
            }
            _ => None,
        };
        Ok(WorkerOutcome::Done {
            output: finished.output,
            delivered: finished.delivered,
            record,
        })
    }
}

/// What a worker does when its turn comes, decided before any worker runs.
enum WorkerPlan<O> {
    /// Generate the worker's shard from the source.
    Generate,
    /// Stream a shard a resume already proved complete back through the
    /// metrics instead of regenerating it.
    Reverify(VerifiedShard<O>),
}

/// A shard a resume's checksum pre-pass verified complete on disk.
struct VerifiedShard<O> {
    output: O,
    path: PathBuf,
    format: BlockFormat,
    record: ShardRecord,
}

/// What a successful attempt hands on to be sealed: the finished sink's
/// output and checksum, and the worker's metrics, still unfolded.
struct Finished<'e, O> {
    output: O,
    checksum: Option<u64>,
    delivered: u64,
    metrics: WorkerMetrics<'e>,
}

/// What one worker hands back: a finished (or reverified) shard, or the
/// quarantine record of a shard the run gave up on.
enum WorkerOutcome<O> {
    Done {
        output: O,
        delivered: u64,
        record: Option<ShardRecord>,
    },
    Quarantined(ShardFailure),
}

/// What [`Pipeline::resume`] settled from the interrupted run's journal
/// before handing over to the engine.
struct Resumed<O> {
    /// The journal header's source kind and seed.
    source: String,
    source_seed: Option<u64>,
    /// What the resume found and did, for the run's warnings.
    notes: Vec<String>,
    plans: Vec<WorkerPlan<O>>,
}

/// What a terminal leaves behind, and so how it labels itself in the
/// manifest and whether it journals its progress.
enum SinkSpec {
    /// An in-memory terminal: nothing on disk, only a manifest label.
    Memory(&'static str),
    /// A shard-file terminal: one file per worker, beside the progress
    /// journal and the manifest.
    Shards(BlockFileSet),
}

impl SinkSpec {
    fn label(&self) -> &'static str {
        match self {
            SinkSpec::Memory(label) => label,
            SinkSpec::Shards(set) => set.format.label(),
        }
    }

    fn shards(&self) -> Option<&BlockFileSet> {
        match self {
            SinkSpec::Memory(_) => None,
            SinkSpec::Shards(set) => Some(set),
        }
    }

    /// The progress journal of a shard-file run: the interrupted run's,
    /// reopened for appending, when `resuming`; a fresh one opened with
    /// `header` otherwise.
    fn open_journal(
        &self,
        resuming: bool,
        header: &JournalHeader,
    ) -> Result<Option<ProgressJournal>, SparseError> {
        match self.shards() {
            None => Ok(None),
            Some(set) if resuming => ProgressJournal::open_for_append(&set.directory).map(Some),
            Some(set) => ProgressJournal::create(&set.directory, header).map(Some),
        }
    }
}

/// A resumed run must agree on `field` with the journal of the run it
/// resumes; the values are compared as the mismatch error prints them.
fn journal_agrees(
    field: &str,
    journal: impl ToString,
    run: impl ToString,
) -> Result<(), CoreError> {
    let (journal, run) = (journal.to_string(), run.to_string());
    if journal == run {
        return Ok(());
    }
    Err(CoreError::ResumeMismatch {
        field: field.into(),
        journal,
        run,
    })
}

/// A seed as the mismatch error prints it.
fn fmt_seed(seed: Option<u64>) -> String {
    match seed {
        Some(seed) => seed.to_string(),
        None => "none".to_string(),
    }
}

/// The file name a shard record stores (relative, so a relocated run
/// directory stays resumable).
fn shard_file_name(path: &Path) -> String {
    path.file_name()
        .map(|name| name.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// The result of one pipeline run: per-worker sink outputs plus everything
/// the paper's validation loop needs.
#[derive(Debug, Clone)]
#[must_use = "a run report carries the validation verdict and the sink outputs"]
pub struct RunReport<O> {
    /// Per-worker sink outputs, in worker order.
    pub outputs: Vec<O>,
    /// The split plan the run executed, for sources that have one (`None`
    /// for non-Kronecker sources).
    pub split: Option<SplitPlan>,
    /// Exact predicted properties, for sources that know them ahead of
    /// generation (`None` for sampling sources — R-MAT properties are
    /// measured-only, which is the paper's point).
    pub predicted: Option<GraphProperties>,
    /// The run's one measurement, typed: vertex, edge and self-loop counts,
    /// max degree, degree histogram, per-worker balance, power-law fit, and
    /// any custom metric values.
    pub metrics: MetricsReport,
    /// The streamed measured-equals-predicted comparison (the paper's
    /// Figure 4) of the `metrics` histogram, over every field the source
    /// predicts exactly.
    pub validation: ValidationReport,
    /// Shards a quarantining run ([`Pipeline::quarantine_failures`]) gave up
    /// on after exhausting retries, in worker order.  Empty for complete
    /// runs; a non-quarantining run fails instead of recording anything
    /// here.  [`Pipeline::resume`] regenerates exactly these shards.
    pub failures: Vec<ShardFailure>,
    /// The run's reproducibility record — configuration, worker count,
    /// wall-clock `seconds` and warnings; file terminals also write it as
    /// `manifest.json` next to the shards.
    pub manifest: RunManifest,
    /// The shard files of a file-writing terminal, if any.
    pub files: Option<BlockFileSet>,
}

impl<O> RunReport<O> {
    /// Total number of edges delivered to the sinks.
    pub fn edge_count(&self) -> u64 {
        self.manifest.total_edges
    }

    /// Aggregate generation rate in edges per second (0 for a run that took
    /// no measurable time).
    pub fn edges_per_second(&self) -> f64 {
        if self.manifest.seconds <= 0.0 {
            return 0.0;
        }
        self.manifest.total_edges as f64 / self.manifest.seconds
    }

    /// Whether the streamed validation matched the prediction exactly.
    pub fn is_valid(&self) -> bool {
        self.validation.is_exact_match()
    }

    /// Whether every shard completed — `false` exactly when a quarantining
    /// run recorded [`failures`](RunReport::failures).
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

impl RunReport<CooMatrix<u64>> {
    /// Assemble the per-worker COO blocks into the full adjacency matrix
    /// (tests and small graphs only).
    pub fn assemble(&self) -> CooMatrix<u64> {
        let vertices = self.metrics.vertices;
        let mut all = CooMatrix::new(vertices, vertices);
        for block in &self.outputs {
            all.append(block)
                // lint:allow(no-expect) -- every block is created with the same full-graph dimensions in this method
                .expect("blocks share the full graph dimensions");
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{MANIFEST_FILE_NAME, PROGRESS_FILE_NAME};
    use crate::testing::TestDir;
    use kron_bignum::BigUint;
    use kron_core::{DegreeDistribution, SelfLoop};

    fn pipeline(design: &KroneckerDesign, workers: usize) -> DesignPipeline<'_> {
        Pipeline::for_design(design)
            .workers(workers)
            .max_c_edges(100_000)
            .chunk_capacity(512)
    }

    #[test]
    fn retry_run_counts_attempts_and_returns_the_last_error() {
        let fail = |attempt: u32| CoreError::InvalidConfig {
            message: format!("attempt {attempt} failed"),
        };
        for retries in [0u32, 1, 3] {
            let policy = RetryPolicy {
                max_retries: retries,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            };
            // Never succeeding: one attempt plus every retry, last error back.
            let mut calls = 0;
            let always_failing = policy.run(|| -> Result<(), CoreError> {
                calls += 1;
                Err(fail(calls))
            });
            assert_eq!(always_failing, Err((fail(retries + 1), retries + 1)));
            // Succeeding on the last attempt the policy allows.
            let mut calls = 0;
            let last_chance = policy.run(|| {
                calls += 1;
                (calls > retries)
                    .then_some(calls)
                    .ok_or_else(|| fail(calls))
            });
            assert_eq!(last_chance, Ok((retries + 1, retries + 1)));
        }
    }

    #[test]
    fn backoff_doubles_from_the_base_and_saturates_at_the_maximum() {
        let policy = RetryPolicy {
            max_retries: u32::MAX,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(65),
        };
        let sequence: Vec<u128> = (0..5).map(|n| policy.backoff(n).as_millis()).collect();
        assert_eq!(sequence, [10, 20, 40, 65, 65]);
        for attempt in [31, 32, 33, u32::MAX] {
            assert_eq!(policy.backoff(attempt), policy.max_backoff);
        }
    }

    #[test]
    fn default_workers_clamp_only_below_the_default() {
        // At or above the default (or an unknown parallelism, reported as
        // 0): the default stands, no warning.
        for available in [0usize, DEFAULT_WORKERS, 64] {
            let (workers, note) = clamped_default_workers(available);
            assert_eq!(workers, DEFAULT_WORKERS);
            assert!(note.is_none(), "no clamp expected at available={available}");
        }
        // Below it: clamp to the host and say so.
        for available in 1..DEFAULT_WORKERS {
            let (workers, note) = clamped_default_workers(available);
            assert_eq!(workers, available);
            let note = note.expect("clamping must warn");
            assert!(note.contains("available parallelism"), "{note}");
        }
    }

    #[test]
    fn default_worker_count_is_clamped_to_the_host() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::None).unwrap();
        let available = host_parallelism();
        let expected = DEFAULT_WORKERS.min(available.max(1));

        let report = Pipeline::for_design(&design).count().unwrap();
        assert_eq!(report.manifest.workers, expected);
        let clamp_warned = report
            .manifest
            .warnings
            .iter()
            .any(|w| w.contains("available parallelism"));
        assert_eq!(
            clamp_warned,
            expected < DEFAULT_WORKERS,
            "the clamp warning must appear exactly when the clamp engaged: {:?}",
            report.manifest.warnings
        );

        // An explicit worker count is never clamped, however oversubscribed,
        // and never warns.
        let oversubscribed = DEFAULT_WORKERS + 3;
        let report = Pipeline::for_design(&design)
            .workers(oversubscribed)
            .count()
            .unwrap();
        assert_eq!(report.manifest.workers, oversubscribed);
        assert!(!report
            .manifest
            .warnings
            .iter()
            .any(|w| w.contains("available parallelism")));
    }

    #[test]
    fn count_validates_every_self_loop_variant() {
        for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
            let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], self_loop).unwrap();
            let mut report = pipeline(&design, 4).split_index(2).count().unwrap();
            assert!(
                report.is_valid(),
                "pipeline validation failed for {self_loop:?}: {:?}",
                report.validation.failures()
            );
            assert_eq!(BigUint::from(report.edge_count()), design.edges());
            assert_eq!(report.manifest.sink, "counting");
            assert_eq!(report.manifest.source, "kronecker");
            assert_eq!(report.manifest.source_seed, None);
            assert_eq!(report.manifest.permutation_seed, None);
            assert_eq!(report.manifest.total_edges, report.edge_count());
            assert!(report.files.is_none());
            assert!(report.edges_per_second() > 0.0);
            // A run that took no measurable time reports no rate.
            report.manifest.seconds = 0.0;
            assert_eq!(report.edges_per_second(), 0.0);
        }
    }

    #[test]
    fn automatic_split_falls_back_with_a_warning() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        let report = pipeline(&design, 1_000).count().unwrap();
        assert_eq!(BigUint::from(report.edge_count()), design.edges());
        assert_eq!(report.manifest.warnings.len(), 1, "fallback must warn");
        assert!(report.manifest.warnings[0].contains("balance guarantee"));

        let healthy = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::None).unwrap();
        let report = pipeline(&healthy, 4).count().unwrap();
        assert!(report.manifest.warnings.is_empty());
    }

    #[test]
    fn write_binary_emits_a_manifest_that_matches_the_run() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let dir = TestDir::new("manifest_binary");
        let report = pipeline(&design, 3)
            .split_index(1)
            .write_compressed(&dir)
            .unwrap();
        assert!(report.is_valid());

        let files = report.files.as_ref().expect("binary run produces files");
        assert_eq!(files.files.len(), 3);
        assert_eq!(files.format, BlockFormat::Compressed);
        let mut from_disk = files.read_assembled().unwrap();
        let mut expected = design.realize(1_000_000).unwrap();
        from_disk.sort();
        expected.sort();
        assert_eq!(from_disk, expected);
        // The header, then at least two one-byte varints per edge.
        for (file, edges) in files
            .files
            .iter()
            .zip(&report.metrics.balance.edges_per_worker)
        {
            let len = std::fs::metadata(file).unwrap().len();
            assert!(len >= crate::codec::BLOCK_HEADER_COMPRESSED_LEN + 2 * edges);
            assert!(len < 16 * edges, "{len} bytes for {edges} edges");
        }

        let on_disk = RunManifest::read_from(&dir.join(MANIFEST_FILE_NAME)).unwrap();
        assert_eq!(on_disk, report.manifest);
        assert_eq!(on_disk.sink, "compressed");
        assert_eq!(on_disk.source, "kronecker");
        assert_eq!(on_disk.star_points, vec![3, 4, 5]);
        assert_eq!(on_disk.self_loop, "Centre");
        assert_eq!(on_disk.workers, 3);
        assert_eq!(on_disk.split_index, 1);
        assert_eq!(
            on_disk.edges_per_worker.iter().sum::<u64>(),
            report.edge_count()
        );
        assert_eq!(on_disk.outputs.len(), 3);
        assert!(on_disk.exact_match);
    }

    #[test]
    fn write_tsv_round_trips_and_emits_a_manifest() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Leaf).unwrap();
        let dir = TestDir::new("manifest_tsv");
        let report = pipeline(&design, 2).split_index(2).write_tsv(&dir).unwrap();
        assert!(report.is_valid());
        let files = report.files.as_ref().expect("tsv run produces files");
        let mut from_disk = files.read_assembled().unwrap();
        let mut expected = design.realize(1_000_000).unwrap();
        from_disk.sort();
        expected.sort();
        assert_eq!(from_disk, expected);
        assert!(dir.join(MANIFEST_FILE_NAME).exists());
    }

    #[test]
    fn raw_product_keeps_loops_and_validates_raw_counts() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let report = pipeline(&design, 3)
            .split_index(1)
            .raw_product()
            .collect_coo()
            .unwrap();
        assert!(
            report.is_valid(),
            "raw validation failed: {:?}",
            report.validation.failures()
        );
        assert_eq!(
            BigUint::from(report.edge_count()),
            design.nnz_with_loops(),
            "raw product keeps every self-loop"
        );
        assert_eq!(
            BigUint::from(report.metrics.self_loops),
            design.product_self_loops()
        );
        assert_eq!(report.manifest.self_loop_policy, "keep_raw");
        assert_eq!(report.manifest.source, "kronecker_raw");
        // The manifest's predicted count is the one the run validated
        // against — the raw product's, so predicted == delivered.
        assert_eq!(
            report.manifest.predicted_edges,
            design.nnz_with_loops().to_string()
        );
        assert_eq!(
            report.manifest.predicted_edges,
            report.manifest.total_edges.to_string()
        );

        let mut raw = report.assemble();
        let mut expected = design.realize_raw(1_000_000).unwrap();
        raw.sort();
        expected.sort();
        assert_eq!(raw, expected);
    }

    /// Counts the upper-triangle edges it is handed: a sink the crate does
    /// not ship, plugged in through the extension point.
    struct UpperTriangleSink(u64);

    impl EdgeSink for UpperTriangleSink {
        type Output = u64;

        fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError> {
            self.0 += edges.iter().filter(|&&(row, col)| row < col).count() as u64;
            Ok(())
        }

        fn finish_with_checksum(self) -> Result<(u64, Option<u64>), SparseError> {
            Ok((self.0, None))
        }
    }

    #[test]
    fn custom_sink_combinators_run_through_the_pipeline() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let report = pipeline(&design, 2)
            .split_index(1)
            .into_sinks(|_| Ok(UpperTriangleSink(0)))
            .unwrap();
        assert!(report.is_valid());
        assert_eq!(report.manifest.sink, "custom");
        assert_eq!(report.outputs.len(), 2);
        // The designed graph is loop-free and symmetric: upper-triangle
        // edges are exactly half.
        assert_eq!(report.outputs.iter().sum::<u64>() * 2, report.edge_count());
    }

    #[test]
    fn metrics_report_matches_the_streamed_measurement() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre).unwrap();
        let report = pipeline(&design, 4).split_index(2).count().unwrap();
        let metrics = &report.metrics;
        assert_eq!(BigUint::from(metrics.vertices), design.vertices());
        assert_eq!(metrics.edges, report.edge_count());
        assert_eq!(metrics.self_loops, 0);
        let predicted = design.properties();
        assert_eq!(
            DegreeDistribution::from_histogram(&metrics.degree_histogram),
            predicted.degree_distribution
        );
        assert_eq!(BigUint::from(metrics.max_degree), predicted.max_degree());
        // A star product has no isolated vertex: the histogram covers them all.
        assert_eq!(
            metrics.degree_histogram.values().sum::<u64>(),
            metrics.vertices
        );
        assert_eq!(
            metrics.balance.edges_per_worker,
            report.manifest.edges_per_worker
        );
        // A plain star product lies exactly on the perfect n(d) = c/d law:
        // slope 1 from the extremes, zero residual against the ideal curve.
        let plain = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::None).unwrap();
        let plain_report = pipeline(&plain, 4).split_index(2).count().unwrap();
        let plain_fit = plain_report
            .metrics
            .power_law
            .as_ref()
            .expect("a star product pins a slope");
        assert!((plain_fit.alpha - 1.0).abs() < 1e-12, "{plain_fit:?}");
        assert!(plain_fit.residual_vs_ideal < 1e-9, "{plain_fit:?}");
        // The triangle-control design is off the ideal line and the fit's
        // goodness says by how much.
        let fit = metrics
            .power_law
            .as_ref()
            .expect("distribution pins a slope");
        assert!(fit.residual_vs_ideal > 0.0, "{fit:?}");
        // The manifest records the same numbers.
        let record = |name: &str| {
            report
                .manifest
                .metrics
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("manifest lacks metric {name}"))
                .value
                .clone()
        };
        assert_eq!(record("edges"), report.edge_count().to_string());
        assert_eq!(record("max_degree"), metrics.max_degree.to_string());
        assert_eq!(record("power_law_alpha"), format!("{:?}", fit.alpha));
    }

    #[test]
    fn custom_metrics_run_per_worker_and_land_in_report_and_manifest() {
        use crate::metrics::PredicateCountMetric;
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let report = pipeline(&design, 3)
            .split_index(1)
            .with_metric(PredicateCountMetric::new("upper_triangle", |r, c| r < c))
            .with_metric(PredicateCountMetric::new("loops", |r, c| r == c))
            .count()
            .unwrap();
        // The designed graph is loop-free and symmetric: upper-triangle
        // edges are exactly half.
        assert_eq!(
            report.metrics.custom_value("upper_triangle"),
            Some((report.edge_count() / 2).to_string().as_str())
        );
        assert_eq!(report.metrics.custom_value("loops"), Some("0"));
        assert!(report
            .manifest
            .metrics
            .iter()
            .any(|r| r.name == "upper_triangle"));
        // Manifests carrying metric records still round-trip exactly.
        assert_eq!(
            RunManifest::from_json(&report.manifest.to_json()).unwrap(),
            report.manifest
        );
    }

    #[test]
    fn custom_metrics_observe_the_delivered_permuted_stream() {
        use crate::metrics::PredicateCountMetric;
        // A metric counting edges that touch vertex 0 changes under
        // relabelling — proof that custom metrics see the sink's stream,
        // while the built-in (invariant) metrics stay identical.
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let touches_zero = || PredicateCountMetric::new("touches_zero", |r, c| r == 0 || c == 0);
        let plain = pipeline(&design, 2)
            .split_index(1)
            .with_metric(touches_zero())
            .count()
            .unwrap();
        let permuted = pipeline(&design, 2)
            .split_index(1)
            .with_metric(touches_zero())
            .permute_vertices(0xFEED)
            .count()
            .unwrap();
        assert_eq!(plain.metrics.edges, permuted.metrics.edges);
        assert_eq!(
            plain.metrics.degree_histogram,
            permuted.metrics.degree_histogram
        );
        assert_eq!(plain.metrics.max_degree, permuted.metrics.max_degree);
        // Vertex 0 maps elsewhere under the bijection, so the new vertex 0
        // has a different (almost surely smaller) incident count.
        let plain_touches: u64 = plain
            .metrics
            .custom_value("touches_zero")
            .unwrap()
            .parse()
            .unwrap();
        let permuted_touches: u64 = permuted
            .metrics
            .custom_value("touches_zero")
            .unwrap()
            .parse()
            .unwrap();
        assert_ne!(plain_touches, permuted_touches);
    }

    #[test]
    fn clashing_custom_metric_names_fail_before_anything_is_written() {
        use crate::metrics::PredicateCountMetric;
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        let never = |name: &str| PredicateCountMetric::new(name, |_, _| false);
        let rejected = |result: Result<RunReport<PathBuf>, CoreError>, name: &str| match result {
            Err(CoreError::InvalidConfig { message }) => {
                assert!(message.contains(&format!("\"{name}\"")), "{message}")
            }
            other => panic!("metric {name}: {other:?}"),
        };
        // A built-in record's name, and one custom name registered twice:
        // either would put two records of one name in the manifest.
        for (metrics, name) in [
            (vec![never("edges")], "edges"),
            (vec![never("mine"), never("mine")], "mine"),
        ] {
            let with_metrics = || {
                metrics
                    .iter()
                    .cloned()
                    .fold(pipeline(&design, 2), Pipeline::with_metric)
            };
            let dir = TestDir::new("clashing_metric");
            rejected(with_metrics().write_tsv(&dir), name);
            let written = std::fs::read_dir(&dir).map_or(0, |entries| entries.count());
            assert_eq!(written, 0, "no shard, {PROGRESS_FILE_NAME} or manifest");
            assert!(matches!(
                with_metrics().count(),
                Err(CoreError::InvalidConfig { .. })
            ));

            // A resume refuses before it sweeps the interrupted run's
            // staging files.
            assert!(pipeline(&design, 2).write_tsv(&dir).unwrap().is_valid());
            let orphan = dir.join("block_00000.tsv.tmp");
            std::fs::write(&orphan, b"partial").unwrap();
            rejected(with_metrics().resume(&dir), name);
            assert!(orphan.exists());
        }
    }

    #[test]
    fn zero_workers_rejected_with_typed_error() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        assert!(matches!(
            pipeline(&design, 0).count(),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn unsizable_chunk_capacity_rejected_with_typed_error() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        for capacity in [usize::MAX, 1 << 60] {
            match pipeline(&design, 2).chunk_capacity(capacity).count() {
                Err(CoreError::InvalidConfig { message }) => {
                    assert!(message.contains(&capacity.to_string()), "{message}")
                }
                other => panic!("capacity {capacity}: {other:?}"),
            }
        }
    }

    #[test]
    fn unallocatable_chunk_capacity_is_a_typed_error() {
        // 2^58 edges pass the `isize::MAX` size check but need 4 EiB, more
        // than any host can allocate.
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        let too_large = |error: CoreError| match error {
            CoreError::Sparse(SparseError::TooLarge { what, requested }) => {
                assert_eq!(what, "edge chunk (bytes)");
                assert_eq!(requested, ((1u128 << 58) + 3) * 16);
            }
            other => panic!("{other:?}"),
        };
        let oversized = pipeline(&design, 1).chunk_capacity(1 << 58);
        too_large(oversized.clone().count().unwrap_err());
        // A file terminal abandons the sink it opened before the chunk.
        let dir = TestDir::new("unallocatable_chunk");
        too_large(oversized.write_tsv(&dir).unwrap_err());
        assert!(!dir.join("block_00000.tsv.tmp").exists());
    }

    #[test]
    fn more_workers_than_triples_still_validates() {
        let design = KroneckerDesign::from_star_points(&[2, 2], SelfLoop::Centre).unwrap();
        let report = pipeline(&design, 32).split_index(1).count().unwrap();
        assert_eq!(BigUint::from(report.edge_count()), design.edges());
        assert!(report.is_valid());
        assert_eq!(report.outputs.len(), 32);
    }

    #[test]
    fn chunk_capacity_does_not_change_the_graph() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::Centre).unwrap();
        for chunk_capacity in [1usize, 7, 4096] {
            let report = pipeline(&design, 3)
                .split_index(1)
                .chunk_capacity(chunk_capacity)
                .count()
                .unwrap();
            assert_eq!(BigUint::from(report.edge_count()), design.edges());
            assert!(report.is_valid());
            assert_eq!(report.metrics.self_loops, 0);
        }
    }

    #[test]
    fn shared_and_local_histogram_modes_measure_identically() {
        // Replay declares no column windows, so it counts flat: in one
        // private window per worker within the budget, in the shared atomic
        // vector past it — unless the run may retry, which keeps its
        // windows and says so.
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre).unwrap();
        let dir = TestDir::new("flat_histogram_modes");
        let written = pipeline(&design, 4).split_index(2).write_tsv(&dir).unwrap();
        let replay = |budget: u64, retry: RetryPolicy| {
            Pipeline::for_source(crate::replay::ReplaySource::from_directory(&dir).unwrap())
                .workers(4)
                .max_histogram_bytes(budget)
                .retry_policy(retry)
                .count()
                .unwrap()
        };
        let overrides = |report: &RunReport<u64>| {
            let warnings = report.manifest.warnings.iter();
            warnings.filter(|w| w.contains("cannot roll back")).count()
        };
        let local = replay(u64::MAX, RetryPolicy::none());
        let shared = replay(0, RetryPolicy::none());
        let retrying = replay(0, RetryPolicy::retries(1));
        assert_eq!(local.metrics, written.metrics);
        assert_eq!(shared.metrics, local.metrics);
        assert_eq!(retrying.metrics, local.metrics);
        assert!(shared.is_valid());
        assert_eq!(
            [&local, &shared, &retrying].map(overrides),
            [0, 0, 1],
            "{:?}",
            retrying.manifest.warnings
        );
    }

    #[test]
    fn permuted_run_still_validates_and_is_a_relabelling() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let plain = pipeline(&design, 3).split_index(1).collect_coo().unwrap();
        let permuted = pipeline(&design, 3)
            .split_index(1)
            .permute_vertices(0xBEEF)
            .collect_coo()
            .unwrap();

        // The permutation is degree-preserving, so the streamed validation
        // still matches the exact prediction field by field.
        assert!(
            permuted.is_valid(),
            "permuted validation failed: {:?}",
            permuted.validation.failures()
        );
        assert_eq!(permuted.metrics, plain.metrics);
        assert_eq!(permuted.manifest.permutation_seed, Some(0xBEEF));

        // And the permuted edge set is exactly the plain edge set mapped
        // through the Feistel bijection.
        let perm = FeistelPermutation::new(plain.metrics.vertices, 0xBEEF);
        let mut expected: Vec<(u64, u64)> = plain
            .assemble()
            .iter()
            .map(|(r, c, _)| perm.apply_edge((r, c)))
            .collect();
        let mut actual: Vec<(u64, u64)> =
            permuted.assemble().iter().map(|(r, c, _)| (r, c)).collect();
        expected.sort_unstable();
        actual.sort_unstable();
        assert_eq!(actual, expected);
        assert_ne!(
            {
                let mut plain_edges: Vec<(u64, u64)> =
                    plain.assemble().iter().map(|(r, c, _)| (r, c)).collect();
                plain_edges.sort_unstable();
                plain_edges
            },
            actual,
            "the permutation must actually move labels"
        );
    }

    #[test]
    fn permutation_seed_round_trips_through_the_manifest() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        let dir = TestDir::new("permuted_manifest");
        let report = pipeline(&design, 2)
            .split_index(1)
            .permute_vertices(99)
            .write_compressed(&dir)
            .unwrap();
        let on_disk = RunManifest::read_from(&dir.join(MANIFEST_FILE_NAME)).unwrap();
        assert_eq!(on_disk, report.manifest);
        assert_eq!(on_disk.permutation_seed, Some(99));
        assert_eq!(on_disk.source, "kronecker");
    }
}
