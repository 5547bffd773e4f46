//! Crash safety end to end: checksummed atomic shards, checkpointed resume,
//! and the deterministic fault-injection harness.
//!
//! The contract under test is the strongest one the pipeline makes: a run
//! interrupted by an injected fault — transient (retried in place) or
//! permanent (quarantined, repaired by [`Pipeline::resume`]) — must end with
//! **byte-identical shard files** and a `==`-equal [`MetricsReport`]
//! compared to the same run never having failed; and a shard corrupted on
//! disk must be caught by checksum, naming the shard, on both the resume
//! and the replay path.

use std::path::Path;
use std::time::Duration;

use extreme_graphs::core::CoreError;
use extreme_graphs::gen::manifest::MANIFEST_FILE_NAME;
use extreme_graphs::gen::testing::TestDir;
use extreme_graphs::gen::{ReplaySource, RunManifest};
use extreme_graphs::sparse::SparseError;
use extreme_graphs::{
    FaultSchedule, FaultySource, KroneckerDesign, KroneckerSource, Pipeline, RetryPolicy, SelfLoop,
};

fn design() -> KroneckerDesign {
    KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre).unwrap()
}

/// A pipeline over `design` configured identically every time it is built —
/// the determinism `resume` relies on.
fn pipeline(design: &KroneckerDesign, workers: usize) -> extreme_graphs::DesignPipeline<'_> {
    Pipeline::for_design(design)
        .workers(workers)
        .split_index(2)
        .max_c_edges(100_000)
        .chunk_capacity(512)
}

/// The same run over a fault-injecting source.
fn faulty_pipeline<'d>(
    design: &'d KroneckerDesign,
    workers: usize,
    schedule: FaultSchedule,
) -> Pipeline<FaultySource<KroneckerSource<'d>>> {
    let source = KroneckerSource::new(design)
        .split_index(2)
        .max_c_edges(100_000);
    Pipeline::for_source(FaultySource::new(source, schedule))
        .workers(workers)
        .chunk_capacity(512)
}

fn shard_bytes(directory: &Path, extension: &str) -> Vec<(String, Vec<u8>)> {
    let mut shards: Vec<(String, Vec<u8>)> = std::fs::read_dir(directory)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == extension))
        .map(|path| {
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&path).unwrap(),
            )
        })
        .collect();
    shards.sort();
    shards
}

#[test]
fn permanent_fault_quarantines_and_resume_is_bit_identical() {
    let design = design();
    let workers = 4;

    // The reference: the same run, never interrupted.
    let clean_dir = TestDir::new("permanent_clean");
    let clean = pipeline(&design, workers)
        .write_compressed(&clean_dir)
        .unwrap();
    assert!(clean.is_valid());

    // Kill worker 2 mid-shard, permanently; quarantine instead of failing.
    let crash_dir = TestDir::new("permanent_crash");
    let schedule = FaultSchedule::none().with_permanent(2, 100);
    let crashed = faulty_pipeline(&design, workers, schedule)
        .quarantine_failures(true)
        .write_compressed(&crash_dir)
        .unwrap();
    assert!(!crashed.is_complete());
    assert_eq!(crashed.failures.len(), 1);
    let failure = &crashed.failures[0];
    assert_eq!(failure.worker, 2);
    assert_eq!(failure.attempts, 1);
    assert!(failure
        .error
        .to_string()
        .contains("injected permanent fault"));
    assert!(failure
        .path
        .as_ref()
        .expect("file terminals name the failed shard")
        .to_string_lossy()
        .contains("block_00002"));
    // The failed worker's shard is absent — not a truncated file that looks
    // complete — and no staging litter survives the abandon.
    assert!(!crash_dir.join("block_00002.kbkz").exists());
    assert!(shard_bytes(&crash_dir, "tmp").is_empty());
    // The other three shards are already byte-identical to the clean run's.
    assert_eq!(shard_bytes(&crash_dir, "kbkz").len(), 3);
    // The incomplete run cannot match the prediction.
    assert!(!crashed.is_valid());

    // Resume with the *same* (fault-free) configuration: only the missing
    // shard is regenerated.
    let resumed = pipeline(&design, workers).resume(&crash_dir).unwrap();
    assert!(resumed.is_complete());
    assert!(resumed.is_valid());
    assert_eq!(
        shard_bytes(&crash_dir, "kbkz"),
        shard_bytes(&clean_dir, "kbkz"),
        "resumed shards must be byte-identical to the uninterrupted run"
    );
    assert_eq!(resumed.metrics, clean.metrics);
    assert_eq!(resumed.manifest.shards, clean.manifest.shards);
    assert_eq!(
        resumed.manifest.edges_per_worker,
        clean.manifest.edges_per_worker
    );
    assert!(resumed
        .manifest
        .warnings
        .iter()
        .any(|w| w.contains("3 shard(s) verified complete")));
}

#[test]
fn permuted_resume_crosses_the_generic_and_block_relabelling_paths() {
    // `FaultySource` forwards `stream_worker` only, so its permuted run
    // relabels through the trait's provided per-edge body; a plain
    // `KroneckerSource` relabels per Kronecker block.  Crash the first,
    // resume with the second, compare with an uninterrupted run of the
    // second: the two paths must agree down to the shard bytes.
    let design = design();
    let workers = 4;
    let seed = 0xFEED;

    let clean_dir = TestDir::new("cross_path_clean");
    let clean = pipeline(&design, workers)
        .permute_vertices(seed)
        .write_compressed(&clean_dir)
        .unwrap();
    assert!(clean.is_valid());

    let crash_dir = TestDir::new("cross_path_crash");
    let schedule = FaultSchedule::none().with_permanent(1, 700);
    let crashed = faulty_pipeline(&design, workers, schedule)
        .permute_vertices(seed)
        .quarantine_failures(true)
        .write_compressed(&crash_dir)
        .unwrap();
    assert_eq!(crashed.failures.len(), 1);
    // Three shards written through the generic path already match…
    let survivors = shard_bytes(&crash_dir, "kbkz");
    assert_eq!(survivors.len(), 3);
    for shard in &survivors {
        assert!(
            shard_bytes(&clean_dir, "kbkz").contains(shard),
            "{}",
            shard.0
        );
    }

    // …and the block path regenerates the fourth into an identical set.
    let resumed = pipeline(&design, workers)
        .permute_vertices(seed)
        .resume(&crash_dir)
        .unwrap();
    assert!(resumed.is_complete());
    assert!(resumed.is_valid());
    assert_eq!(
        shard_bytes(&crash_dir, "kbkz"),
        shard_bytes(&clean_dir, "kbkz")
    );
    assert_eq!(resumed.metrics, clean.metrics);

    // The manifests on disk agree on everything but where and how long the
    // runs took, and the resume's note about the shards it kept.
    let mut manifests = [&clean_dir, &crash_dir]
        .map(|dir| RunManifest::read_from(&dir.join(MANIFEST_FILE_NAME)).unwrap());
    for manifest in &mut manifests {
        manifest.seconds = 0.0;
        manifest.directory = None;
        manifest.outputs.clear();
        manifest.warnings.clear();
    }
    assert_eq!(manifests[0], manifests[1]);
}

#[test]
fn transient_fault_retries_in_place_bit_identically() {
    let design = design();
    let workers = 3;

    let clean_dir = TestDir::new("transient_clean");
    let clean = pipeline(&design, workers).write_tsv(&clean_dir).unwrap();

    // Worker 1 fails twice at edge 50, then succeeds; three retries cover it.
    let crash_dir = TestDir::new("transient_crash");
    let schedule = FaultSchedule::none().with_transient(1, 50, 2);
    let report = faulty_pipeline(&design, workers, schedule.clone())
        .retry_policy(RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        })
        .write_tsv(&crash_dir)
        .unwrap();
    assert!(report.is_complete(), "retries absorb a transient fault");
    assert!(report.is_valid());
    assert!(schedule.is_exhausted());
    assert_eq!(
        shard_bytes(&crash_dir, "tsv"),
        shard_bytes(&clean_dir, "tsv")
    );
    assert_eq!(report.metrics, clean.metrics);

    // Without retries the same fault fails the run outright.
    let fail_dir = TestDir::new("transient_no_retry");
    let err = faulty_pipeline(
        &design,
        workers,
        FaultSchedule::none().with_transient(1, 50, 2),
    )
    .write_tsv(&fail_dir)
    .unwrap_err();
    assert!(err.to_string().contains("injected transient fault"));
}

#[test]
fn corrupt_shard_is_detected_on_resume_and_regenerated() {
    let design = design();
    let workers = 3;

    let clean_dir = TestDir::new("corrupt_resume_clean");
    let _ = pipeline(&design, workers).write_tsv(&clean_dir).unwrap();

    let dir = TestDir::new("corrupt_resume");
    let _ = pipeline(&design, workers).write_tsv(&dir).unwrap();
    // Turn a value field "1" into "2": still a perfectly parseable line, so
    // only the checksum the journal recorded for the file can tell.
    let shard = dir.join("block_00001.tsv");
    let text = std::fs::read_to_string(&shard).unwrap();
    let corrupted = text.replacen("\t1\n", "\t2\n", 1);
    assert_ne!(text, corrupted, "the corruption must change the file");
    std::fs::write(&shard, corrupted).unwrap();

    let resumed = pipeline(&design, workers).resume(&dir).unwrap();
    assert!(resumed.is_valid());
    assert!(
        resumed
            .manifest
            .warnings
            .iter()
            .any(|w| w.contains("block_00001.tsv") && w.contains("checksum")),
        "the corrupt shard must be named: {:?}",
        resumed.manifest.warnings
    );
    assert_eq!(shard_bytes(&dir, "tsv"), shard_bytes(&clean_dir, "tsv"));
}

#[test]
fn corrupt_shard_fails_replay_with_checksum_error_naming_the_shard() {
    let design = design();

    // TSV: turn a value field "1" into "2" — still a perfectly parseable
    // line, so only the recorded checksum can catch it.
    let tsv_dir = TestDir::new("corrupt_replay_tsv");
    let _ = pipeline(&design, 2).write_tsv(&tsv_dir).unwrap();
    let shard = tsv_dir.join("block_00000.tsv");
    let text = std::fs::read_to_string(&shard).unwrap();
    let corrupted = text.replacen("\t1\n", "\t2\n", 1);
    assert_ne!(text, corrupted, "the corruption must change the file");
    std::fs::write(&shard, corrupted).unwrap();
    let err = Pipeline::for_source(ReplaySource::from_directory(&tsv_dir).unwrap())
        .workers(2)
        .count()
        .unwrap_err();
    let message = err.to_string();
    assert!(message.contains("checksum mismatch"), "{message}");
    assert!(message.contains("block_00000.tsv"), "{message}");

    // Compressed (v4): flip a byte past the 48-byte header — inside the
    // delta/varint payload — and the streamed replay must fail the same way.
    let kbkz_dir = TestDir::new("corrupt_replay_kbkz");
    let _ = pipeline(&design, 2).write_compressed(&kbkz_dir).unwrap();
    let shard = kbkz_dir.join("block_00000.kbkz");
    let mut bytes = std::fs::read(&shard).unwrap();
    bytes[60] ^= 1;
    std::fs::write(&shard, &bytes).unwrap();
    let err = Pipeline::for_source(ReplaySource::from_directory(&kbkz_dir).unwrap())
        .workers(2)
        .count()
        .unwrap_err();
    let message = err.to_string();
    assert!(message.contains("checksum mismatch"), "{message}");
    assert!(message.contains("block_00000.kbkz"), "{message}");
}

#[test]
fn corrupt_compressed_shard_is_detected_on_resume_and_regenerated() {
    let design = design();
    let workers = 3;

    let clean_dir = TestDir::new("corrupt_resume_kbkz_clean");
    let _ = pipeline(&design, workers)
        .write_compressed(&clean_dir)
        .unwrap();

    let dir = TestDir::new("corrupt_resume_kbkz");
    let _ = pipeline(&design, workers).write_compressed(&dir).unwrap();
    // Flip a payload byte past the 48-byte v4 header: the frames still
    // decode, so only the checksum can tell.
    let shard = dir.join("block_00001.kbkz");
    let mut bytes = std::fs::read(&shard).unwrap();
    bytes[60] ^= 1;
    std::fs::write(&shard, &bytes).unwrap();

    let resumed = pipeline(&design, workers).resume(&dir).unwrap();
    assert!(resumed.is_valid());
    assert!(
        resumed
            .manifest
            .warnings
            .iter()
            .any(|w| w.contains("block_00001.kbkz") && w.contains("checksum")),
        "the corrupt shard must be named: {:?}",
        resumed.manifest.warnings
    );
    assert_eq!(shard_bytes(&dir, "kbkz"), shard_bytes(&clean_dir, "kbkz"));
}

#[test]
fn resume_rejects_mismatched_configuration() {
    let design = design();
    let dir = TestDir::new("resume_mismatch");
    let schedule = FaultSchedule::none().with_permanent(0, 10);
    let _ = faulty_pipeline(&design, 2, schedule)
        .quarantine_failures(true)
        .write_compressed(&dir)
        .unwrap();

    // Wrong worker count.
    match pipeline(&design, 3).resume(&dir) {
        Err(CoreError::ResumeMismatch { field, .. }) => assert_eq!(field, "workers"),
        other => panic!("expected a workers mismatch, got {other:?}"),
    }
    // Wrong permutation.
    match pipeline(&design, 2).permute_vertices(7).resume(&dir) {
        Err(CoreError::ResumeMismatch { field, .. }) => assert_eq!(field, "permutation_seed"),
        other => panic!("expected a permutation mismatch, got {other:?}"),
    }
    // Wrong graph entirely.
    let other_design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
    let err = Pipeline::for_design(&other_design)
        .workers(2)
        .resume(&dir)
        .unwrap_err();
    assert!(matches!(err, CoreError::ResumeMismatch { .. }), "{err}");

    // No journal at all.
    let empty = TestDir::new("resume_no_journal");
    assert!(pipeline(&design, 2).resume(&empty).is_err());
}

#[test]
fn resumed_kronecker_run_counts_in_its_column_windows() {
    // No budget and a quarantining run: a resume that fell back to one
    // `|V|`-label vector per worker would have to say it exceeds the budget.
    let design = design();
    for permute in [None, Some(0xFEED)] {
        let configured = || {
            let pipe = pipeline(&design, 4)
                .max_histogram_bytes(0)
                .quarantine_failures(true);
            match permute {
                Some(seed) => pipe.permute_vertices(seed),
                None => pipe,
            }
        };
        let dir = TestDir::new(&format!("windowed_resume_{}", permute.is_some()));
        let clean = configured().write_compressed(&dir).unwrap();
        assert!(clean.is_valid());
        std::fs::remove_file(dir.join("block_00001.kbkz")).unwrap();

        let resumed = configured().resume(&dir).unwrap();
        assert!(resumed.is_valid());
        assert!(
            !resumed
                .manifest
                .warnings
                .iter()
                .any(|w| w.contains("exceeding max_histogram_bytes")),
            "permute={permute:?}: {:?}",
            resumed.manifest.warnings
        );
        assert_eq!(resumed.metrics, clean.metrics, "permute={permute:?}");
    }
}

#[test]
fn resume_under_another_kronecker_configuration_breaks_the_stream_order() {
    // The journal does not record the split or the design, so `resume`
    // cannot refuse these up front; their verified shards then break the
    // column windows the resumed run declares.  These three cases are
    // pinned, but this is no general guarantee: the up-front check is a
    // `ResumeMismatch` on the descriptor fields `manifest.json` records.
    let centre = design();
    let leaf = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Leaf).unwrap();
    let reordered = KroneckerDesign::from_star_points(&[3, 9, 5, 4], SelfLoop::Centre).unwrap();
    // (name, written design and split, resumed design and split)
    let cases = [
        ("split", &centre, 2, &centre, 1),
        ("self_loop", &centre, 2, &leaf, 2),
        ("order", &reordered, 2, &centre, 2),
    ];
    for (name, written, split, resumed, resumed_split) in cases {
        let dir = TestDir::new(&format!("resume_other_kronecker_{name}"));
        let clean = pipeline(written, 4)
            .split_index(split)
            .write_tsv(&dir)
            .unwrap();
        assert!(clean.is_valid());
        std::fs::remove_file(dir.join("block_00001.tsv")).unwrap();
        match pipeline(resumed, 4).split_index(resumed_split).resume(&dir) {
            Err(CoreError::Sparse(SparseError::StreamOrder { .. })) => {}
            other => panic!("{name}: expected StreamOrder, got {other:?}"),
        }
    }
}

mod seeded_faults {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// The tentpole invariant, swept: for any worker count, shard
        /// format, permutation choice, and fault point, a run interrupted by
        /// a permanent fault and then resumed is bit-identical — shard bytes
        /// and metrics report — to the run that never failed.
        #[test]
        fn resume_after_a_fault_is_bit_identical(
            workers in 1usize..5,
            format in 0usize..2,
            permute in any::<bool>(),
            fault_worker in 0usize..5,
            after_edges in 0u64..200,
        ) {
            let fault_worker = fault_worker % workers;
            let design = design();
            let seed = 0xFEEDu64;
            let name = format!(
                "prop_{workers}_{format}_{permute}_{fault_worker}_{after_edges}"
            );

            let clean_dir = TestDir::new(&format!("{name}_clean"));
            let mut clean_pipe = pipeline(&design, workers);
            if permute {
                clean_pipe = clean_pipe.permute_vertices(seed);
            }
            let clean = match format {
                0 => clean_pipe.write_tsv(&clean_dir).unwrap(),
                _ => clean_pipe.write_compressed(&clean_dir).unwrap(),
            };

            let crash_dir = TestDir::new(&format!("{name}_crash"));
            let schedule = FaultSchedule::none().with_permanent(fault_worker, after_edges);
            let mut crash_pipe =
                faulty_pipeline(&design, workers, schedule).quarantine_failures(true);
            if permute {
                crash_pipe = crash_pipe.permute_vertices(seed);
            }
            let crashed = match format {
                0 => crash_pipe.write_tsv(&crash_dir).unwrap(),
                _ => crash_pipe.write_compressed(&crash_dir).unwrap(),
            };
            prop_assert_eq!(crashed.failures.len(), 1);

            let mut resume_pipe = pipeline(&design, workers);
            if permute {
                resume_pipe = resume_pipe.permute_vertices(seed);
            }
            let resumed = resume_pipe.resume(&crash_dir).unwrap();
            prop_assert!(resumed.is_complete());
            prop_assert!(resumed.is_valid());
            let extension = ["tsv", "kbkz"][format];
            prop_assert_eq!(
                shard_bytes(&crash_dir, extension),
                shard_bytes(&clean_dir, extension)
            );
            prop_assert_eq!(&resumed.metrics, &clean.metrics);
            prop_assert_eq!(&resumed.manifest.shards, &clean.manifest.shards);

        }
    }
}
