//! The seams of the run engine, from the outside.
//!
//! Each stage of a worker's life — plan → attempt under retry → per chunk
//! source [+ relabel] → observe → consume → seal — and each durability
//! decision behind it has one owner inside `kron-gen`.  These tests pin what
//! those owners promise, through the public API only: the order of the
//! per-chunk stages and what a failed attempt leaves behind, the checksum a
//! wrapped shard sink reports, the staged manifest write, the typed errors
//! for sink labels that name no shard format, that hostile nesting in
//! `manifest.json` / `progress.jsonl` cannot overflow the stack, and that a
//! source's broken column windows, a label past the last vertex in any
//! counting mode, and a degree vector the host cannot hold end a run in a
//! typed error, never an abort or a miscount.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use extreme_graphs::core::validate::ValidationReport;
use extreme_graphs::core::{CoreError, GraphProperties};
use extreme_graphs::gen::chunk::EdgeChunk;
use extreme_graphs::gen::manifest::{MANIFEST_FILE_NAME, PROGRESS_FILE_NAME};
use extreme_graphs::gen::sink::{
    CompressedShardSink, CountingSink, DoubleBufferedSink, EdgeSink, TsvShardSink,
};
use extreme_graphs::gen::testing::TestDir;
use extreme_graphs::gen::{shard_checksum, BlockFormat, ProgressJournal, SplitPlan};
use extreme_graphs::sparse::SparseError;
use extreme_graphs::{
    ColumnWindows, EdgeSource, FaultSchedule, FaultySink, FaultySource, KroneckerDesign,
    KroneckerSource, Pipeline, PredicateCountMetric, ReplaySource, RetryPolicy, RunManifest,
    SelfLoop, SourceDescriptor, SourceRun,
};

fn design() -> KroneckerDesign {
    KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap()
}

/// What the recording sink and metric of the stage-order test saw.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Observed((u64, u64)),
    Consumed(Vec<(u64, u64)>),
    Abandoned,
    Sealed,
}

type Log = Arc<Mutex<Vec<Event>>>;

struct RecordingSink {
    log: Log,
    edges: u64,
}

impl RecordingSink {
    fn record(&self, event: Event) {
        self.log.lock().unwrap().push(event);
    }
}

impl EdgeSink for RecordingSink {
    type Output = u64;

    fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError> {
        self.record(Event::Consumed(edges.to_vec()));
        self.edges += edges.len() as u64;
        Ok(())
    }

    fn finish_with_checksum(self) -> Result<(u64, Option<u64>), SparseError> {
        self.record(Event::Sealed);
        Ok((self.edges, None))
    }

    fn abandon(self) {
        self.record(Event::Abandoned);
    }
}

#[test]
fn every_chunk_is_observed_then_consumed_and_a_failed_attempt_leaves_no_trace() {
    let design = design();
    for permutation_seed in [None, Some(0xFEED)] {
        let log = Log::default();
        let metric_log = Arc::clone(&log);
        // One worker fails once, 100 edges into its stream, and is retried.
        let schedule = FaultSchedule::none().with_transient(0, 100, 1);
        let source = FaultySource::new(KroneckerSource::new(&design).split_index(1), schedule);
        let mut pipeline = Pipeline::for_source(source)
            .workers(1)
            .chunk_capacity(64)
            .retry_policy(RetryPolicy {
                max_retries: 1,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            })
            .with_metric(PredicateCountMetric::new("seen", move |row, col| {
                metric_log.lock().unwrap().push(Event::Observed((row, col)));
                true
            }));
        if let Some(seed) = permutation_seed {
            pipeline = pipeline.permute_vertices(seed);
        }
        let report = pipeline
            .into_sinks(|_| {
                Ok(RecordingSink {
                    log: Arc::clone(&log),
                    edges: 0,
                })
            })
            .unwrap();

        // Per chunk: the custom metric saw exactly the slice `consume` was
        // about to get (delivered labels), edge for edge, just before it.
        let events = log.lock().unwrap().clone();
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let (mut consumed_by_attempt, mut consumed) = (Vec::new(), 0u64);
        for event in &events {
            match event {
                Event::Observed(edge) => pending.push(*edge),
                Event::Consumed(slice) => {
                    assert_eq!(&pending, slice, "observe and consume disagree");
                    consumed += slice.len() as u64;
                    pending.clear();
                }
                Event::Abandoned | Event::Sealed => {
                    assert!(
                        pending.is_empty(),
                        "a chunk was observed but never consumed"
                    );
                    consumed_by_attempt.push((event.clone(), consumed));
                    consumed = 0;
                }
            }
        }
        // The failed attempt was abandoned exactly once, after exactly the
        // scheduled prefix; the successful one was sealed exactly once.
        let edges = report.edge_count();
        assert_eq!(
            consumed_by_attempt,
            [(Event::Abandoned, 100), (Event::Sealed, edges)],
            "permutation {permutation_seed:?}"
        );
        // The failed attempt's 100 observations were dropped unfolded.
        assert_eq!(report.outputs, [edges]);
        assert_eq!(
            report.metrics.custom_value("seen"),
            Some(edges.to_string().as_str())
        );
        assert_eq!(report.metrics.edges, edges);
        assert!(report.is_valid());
    }
}

/// Wrap a shard sink of `format` in each wrapper, alone and nested: every
/// one must report the checksum `shard_checksum` reads back from the
/// finished file.
fn wrappers_forward_the_checksum<S>(
    dir: &TestDir,
    format: BlockFormat,
    extension: &str,
    create: impl Fn(&Path) -> S,
) where
    S: EdgeSink + Send + 'static,
    S::Output: Send + 'static,
{
    const EDGES: &[(u64, u64)] = &[(0, 1), (1, 1), (2, 0), (3, 3)];
    let path = |name: &str| dir.join(format!("{name}.{extension}"));
    let on_disk = |name: &str| Some(shard_checksum(&path(name), format).unwrap());

    let mut sink = FaultySink::new(create(&path("faulty")), 0, FaultSchedule::none());
    sink.consume(EDGES).unwrap();
    assert_eq!(sink.finish_with_checksum().unwrap().1, on_disk("faulty"));

    // The writer thread owns the inner sink, so its checksum exists only
    // over there and must come back through the join.
    let mut sink = DoubleBufferedSink::new(create(&path("buffered")));
    sink.consume(EDGES).unwrap();
    assert_eq!(sink.finish_with_checksum().unwrap().1, on_disk("buffered"));

    let mut sink = FaultySink::new(
        DoubleBufferedSink::new(create(&path("nested"))),
        0,
        FaultSchedule::none(),
    );
    sink.consume(EDGES).unwrap();
    assert_eq!(sink.finish_with_checksum().unwrap().1, on_disk("nested"));
}

#[test]
fn wrappers_report_the_inner_shards_checksum() {
    let dir = TestDir::new("wrapped_checksums");
    // A compressed shard's hash only exists once its last frame is sealed,
    // so only `finish_with_checksum` — the one way to finish, forwarded by
    // every wrapper — has it.
    wrappers_forward_the_checksum(&dir, BlockFormat::Compressed, "kbkz", |path| {
        CompressedShardSink::create(path, 4, 4).unwrap()
    });
    wrappers_forward_the_checksum(&dir, BlockFormat::Tsv, "tsv", |path| {
        TsvShardSink::create(path).unwrap()
    });
}

#[test]
fn manifest_write_is_staged_and_a_failed_one_leaves_the_previous_manifest_intact() {
    let design = design();
    let dir = TestDir::new("staged_manifest");
    let path = dir.join(MANIFEST_FILE_NAME);
    let staging = dir.join(format!("{MANIFEST_FILE_NAME}.tmp"));

    let first = Pipeline::for_design(&design).workers(2).count().unwrap();
    first.manifest.write_to(&path).unwrap();
    assert!(
        !staging.exists(),
        "a successful write leaves no staging file"
    );
    assert_eq!(RunManifest::read_from(&path).unwrap(), first.manifest);
    let before = std::fs::read(&path).unwrap();

    // A write that cannot even stage: the staging name is taken by a directory.
    std::fs::create_dir(&staging).unwrap();
    let second = Pipeline::for_design(&design).workers(3).count().unwrap();
    let error = second.manifest.write_to(&path).unwrap_err();
    assert!(matches!(error, SparseError::WithPath { .. }), "{error:?}");
    assert!(error.to_string().contains(MANIFEST_FILE_NAME), "{error}");
    assert_eq!(std::fs::read(&path).unwrap(), before);
}

#[test]
fn resume_sweeps_an_orphaned_manifest_staging_file() {
    let design = design();
    let dir = TestDir::new("orphaned_manifest_tmp");
    let pipeline = || Pipeline::for_design(&design).workers(2).split_index(1);
    let whole = pipeline().write_tsv(&dir).unwrap();
    // A crash between the last shard and the manifest's rename.
    let staging = dir.join(format!("{MANIFEST_FILE_NAME}.tmp"));
    std::fs::write(&staging, "{ \"source\": \"kron").unwrap();
    std::fs::remove_file(dir.join(MANIFEST_FILE_NAME)).unwrap();

    let resumed = pipeline().resume(&dir).unwrap();
    assert!(!staging.exists());
    let swept = "removed 1 orphaned .tmp staging file(s)";
    assert!(
        resumed
            .manifest
            .warnings
            .iter()
            .any(|note| note.contains(swept)),
        "{:?}",
        resumed.manifest.warnings
    );
    assert_eq!(resumed.metrics, whole.metrics);
    let on_disk = RunManifest::read_from(&dir.join(MANIFEST_FILE_NAME)).unwrap();
    assert_eq!(on_disk, resumed.manifest);
}

#[test]
fn a_sink_label_that_names_no_shard_format_is_a_typed_error_naming_it() {
    let design = design();
    let dir = TestDir::new("unknown_sink_label");
    let pipeline = || Pipeline::for_design(&design).workers(2).split_index(1);
    let _ = pipeline().write_tsv(&dir).unwrap();
    // A label no terminal ever had, and the retired raw-binary terminal's,
    // whose error also says how to get the directory back.
    let mut current = "tsv";
    for (label, says) in [
        ("parquet", "no shard format"),
        ("binary", "write_compressed"),
    ] {
        let relabel = |file: &str| {
            let path = dir.join(file);
            let text = std::fs::read_to_string(&path).unwrap();
            let recorded = format!("\"sink\": \"{current}\"");
            assert!(text.contains(&recorded), "{text}");
            std::fs::write(
                &path,
                text.replace(&recorded, &format!("\"sink\": \"{label}\"")),
            )
            .unwrap();
        };
        let names_the_label = |error: CoreError| match error {
            CoreError::InvalidConfig { message } => {
                assert!(
                    message.contains(label) && message.contains(says),
                    "{message}"
                )
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        };

        // Through the journal…
        relabel(PROGRESS_FILE_NAME);
        names_the_label(pipeline().resume(&dir).unwrap_err());
        // …and through the manifest.
        relabel(MANIFEST_FILE_NAME);
        names_the_label(ReplaySource::from_directory(&dir).unwrap_err());
        current = label;
    }
}

#[test]
fn hostile_nesting_in_the_manifest_or_journal_is_an_error_or_a_skipped_line_never_an_abort() {
    let design = design();
    let dir = TestDir::new("hostile_nesting");
    let pipeline = || Pipeline::for_design(&design).workers(2).split_index(1);
    let whole = pipeline().write_tsv(&dir).unwrap();
    for opener in ["[", "{\"a\":"] {
        let deep = opener.repeat((1 << 20) / opener.len());

        // As the manifest: a typed error that names the file.
        std::fs::write(dir.join(MANIFEST_FILE_NAME), &deep).unwrap();
        match ReplaySource::from_directory(&dir).unwrap_err() {
            CoreError::Sparse(error @ SparseError::WithPath { .. }) => {
                let text = error.to_string();
                assert!(
                    text.contains(MANIFEST_FILE_NAME) && text.contains("nested deeper than"),
                    "{text}"
                );
            }
            other => panic!("expected a parse error naming the manifest, got {other:?}"),
        }

        // As a journal line in place of the shard records: a line that does
        // not parse never happened, so resume regenerates both shards.
        let journal = dir.join(PROGRESS_FILE_NAME);
        let text = std::fs::read_to_string(&journal).unwrap();
        let header = text.lines().next().unwrap();
        std::fs::write(&journal, format!("{header}\n{deep}\n")).unwrap();
        let resumed = pipeline().resume(&dir).unwrap();
        assert_eq!(resumed.metrics, whole.metrics);
        assert_eq!(resumed.manifest.shards, whole.manifest.shards);
        let (_, journalled) = ProgressJournal::read(&dir).unwrap();
        assert_eq!(journalled, whole.manifest.shards);
        let on_disk = RunManifest::read_from(&dir.join(MANIFEST_FILE_NAME)).unwrap();
        assert_eq!(on_disk, resumed.manifest);
    }
}

/// A source that streams a fixed edge list from worker 0 (the others stream
/// nothing), promising `windows`: how a source that breaks its promise,
/// names a vertex past the last, or is too large to count flat, reaches the
/// engine.
#[derive(Clone)]
struct Scripted {
    vertices: u64,
    windows: Option<ColumnWindows>,
    edges: Vec<(u64, u64)>,
}

impl EdgeSource for Scripted {
    type Run = Scripted;

    fn vertices(&self) -> Result<u64, CoreError> {
        Ok(self.vertices)
    }

    fn prepare(&self, _workers: usize) -> Result<(Scripted, Vec<String>), CoreError> {
        Ok((self.clone(), Vec::new()))
    }
}

impl SourceRun for Scripted {
    fn stream_worker<E, F>(
        &self,
        worker: usize,
        _chunk: &mut EdgeChunk,
        mut sink: F,
    ) -> Result<u64, E>
    where
        E: From<SparseError>,
        F: FnMut(&[(u64, u64)]) -> Result<(), E>,
    {
        if worker > 0 {
            return Ok(0);
        }
        // One edge per chunk, so the first one opens a window before the
        // next one can break it.
        for edge in &self.edges {
            sink(std::slice::from_ref(edge))?;
        }
        Ok(self.edges.len() as u64)
    }

    fn column_windows(&self) -> Option<&ColumnWindows> {
        self.windows.as_ref()
    }

    fn predicted_properties(&self) -> Option<GraphProperties> {
        None
    }

    fn validate(&self, _measured: &GraphProperties) -> ValidationReport {
        ValidationReport::from_checks(Vec::new())
    }

    fn split_plan(&self) -> Option<SplitPlan> {
        None
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor {
            kind: "scripted",
            seed: None,
            star_points: Vec::new(),
            self_loop: "None".into(),
            vertices: self.vertices.to_string(),
            predicted_edges: self.edges.len().to_string(),
            split_index: 0,
            max_c_edges: 0,
            max_b_edges: 0,
            self_loop_policy: "raw_samples".into(),
        }
    }
}

#[test]
fn a_column_outside_the_declared_windows_is_a_typed_error_and_writes_nothing() {
    // Eight vertices in windows of two labels.
    let windows = ColumnWindows {
        width: 2,
        partials: [(2, 1)].into_iter().collect(),
    };
    let backwards = vec![(0, 4), (1, 5), (2, 1)];
    let past = vec![(0, 4), (1, 5), (2, 8)];
    let mut cases = vec![
        (Some(windows.clone()), backwards, None, "StreamOrder"),
        (Some(windows), past, None, "IndexOutOfBounds"),
    ];
    // A source that declares no order counts flat — in its own window
    // within the default budget, in the shared vector past a zero one — and
    // a label past the last vertex, row or column, is the same typed error.
    for budget in [None, Some(0)] {
        for edge in [(0, 8), (8, 0)] {
            cases.push((None, vec![edge], budget, "IndexOutOfBounds"));
        }
    }
    for (windows, edges, budget, expected) in cases {
        let dir = TestDir::new("misordered_windows");
        let source = Scripted {
            vertices: 8,
            windows,
            edges,
        };
        let mut pipeline = Pipeline::for_source(source).workers(1);
        if let Some(budget) = budget {
            pipeline = pipeline.max_histogram_bytes(budget);
        }
        let error = pipeline.write_tsv(&dir).unwrap_err();
        match &error {
            CoreError::Sparse(SparseError::StreamOrder { message }) => {
                assert_eq!(expected, "StreamOrder");
                assert!(message.contains("column 1"), "{message}");
            }
            CoreError::Sparse(SparseError::IndexOutOfBounds { row, col, .. })
                if row.max(col) == &8 =>
            {
                assert_eq!(expected, "IndexOutOfBounds");
            }
            other => panic!("expected {expected}, got {other:?}"),
        }
        let left: Vec<_> = std::fs::read_dir(&*dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".tsv") || name.starts_with(MANIFEST_FILE_NAME))
            .collect();
        assert!(left.is_empty(), "{expected}: {left:?} written");
    }
}

#[test]
fn a_retry_that_fails_mid_window_leaves_the_report_of_a_clean_run() {
    let design = design();
    let count = |schedule: FaultSchedule| {
        Pipeline::for_design(&design)
            .split_index(1)
            .workers(2)
            .chunk_capacity(64)
            .retry_policy(RetryPolicy {
                max_retries: 1,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            })
            .into_sinks(|worker| {
                Ok(FaultySink::new(
                    CountingSink::new(),
                    worker,
                    schedule.clone(),
                ))
            })
            .unwrap()
    };
    let clean = count(FaultSchedule::none());
    // B = star(3) with a centre loop: worker 0's first column window holds
    // 4 triples × nnz(C) = 396 edges, so 150 edges in is mid-window.
    let schedule = FaultSchedule::none().with_transient(0, 150, 1);
    let retried = count(schedule.clone());
    assert!(schedule.is_exhausted(), "the fault fired");
    assert_eq!(retried.metrics, clean.metrics);
    assert_eq!(retried.outputs, clean.outputs);
    assert!(retried.is_valid());
}

#[test]
fn a_degree_vector_the_host_cannot_hold_is_a_typed_error() {
    // 2^62 vertices: a flat degree vector needs 2^65 bytes, which no host
    // can reserve, so this fails the same way everywhere.
    let source = Scripted {
        vertices: 1 << 62,
        windows: None,
        edges: Vec::new(),
    };
    // Shared past the default budget, one private window within a budget
    // of everything.
    for budget in [None, Some(u64::MAX)] {
        let mut pipeline = Pipeline::for_source(source.clone()).workers(1);
        if let Some(budget) = budget {
            pipeline = pipeline.max_histogram_bytes(budget);
        }
        match pipeline.count().unwrap_err() {
            CoreError::Sparse(SparseError::TooLarge { requested, .. }) => {
                assert_eq!(requested, 1 << 65, "budget {budget:?}")
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}
