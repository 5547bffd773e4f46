//! The replay-validation loop: a shard set streamed back from disk must
//! measure exactly what its generation run measured.
//!
//! These tests pin the tentpole guarantee of the streaming-metrics engine +
//! `ReplaySource` pair: for the same shard layout (as many replay workers as
//! generation workers), the replay's `MetricsReport` — degree histogram,
//! counts, max degree, slope fit, per-worker balance — is *equal* to the
//! generation-time report, across TSV and binary formats, permuted and
//! plain runs, and both histogram modes.  Corrupt and missing shards must
//! fail with errors naming the offending file.

use std::path::{Path, PathBuf};

use extreme_graphs::core::CoreError;
use extreme_graphs::gen::manifest::MANIFEST_FILE_NAME;
use extreme_graphs::gen::testing::TestDir;
use extreme_graphs::gen::{Pipeline, ReplaySource, RunManifest, RunReport};
use extreme_graphs::{KroneckerDesign, SelfLoop};

fn generate(dir: &Path, binary: bool, workers: usize) -> RunReport<PathBuf> {
    let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre).unwrap();
    let pipeline = Pipeline::for_design(&design)
        .workers(workers)
        .split_index(2)
        .max_c_edges(200_000);
    let report = if binary {
        pipeline.write_binary(dir).unwrap()
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
    for (binary, label) in [(false, "tsv"), (true, "binary")] {
        let dir = TestDir::new(&format!("identical_{label}"));
        let generated = generate(&dir, binary, 4);
        let replayed = replay(&dir, 4);

        // The whole typed report is equal — histogram, counts, max degree,
        // slope fit, per-worker balance.
        assert_eq!(
            replayed.metrics, generated.metrics,
            "{label} replay changed the metrics"
        );
        // And the measured property sheets agree field by field.
        let comparison = extreme_graphs::core::validate::compare_measured(
            &generated.measured,
            &replayed.measured,
        );
        assert!(
            comparison.is_exact_match(),
            "measured sheets differ: {:?}",
            comparison.failures()
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
        .write_binary(&dir)
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
    for (binary, label) in [(false, "tsv"), (true, "binary")] {
        let dir = TestDir::new(&format!("corrupt_{label}"));
        let _ = generate(&dir, binary, 3);
        let victim = dir.join(if binary {
            "block_00001.kbk"
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
    std::fs::remove_file(dir.join("block_00002.kbk")).unwrap();
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
