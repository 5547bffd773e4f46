//! The pipeline against an oracle that never ran it.
//!
//! Every test here compares what `Pipeline` delivers — through any terminal,
//! worker count, chunk capacity, shard format, and with or without the
//! in-stream vertex permutation — with the designed graph computed
//! independently: `KroneckerDesign::realize` / `kron_sparse::kron_coo` (the
//! sparse substrate's product) for the edges, the closed-form
//! `degree_distribution()` / `triangles()` for the properties.  On top of
//! that, a determinism matrix pins shard bytes across chunk capacities and
//! the `MetricsReport` across every configuration, the `RunManifest`
//! JSON every shard-producing run emits is round-tripped, and the degrees
//! the engine counts — in a Kronecker run's column windows or in one window
//! of every label — are held to `kron_sparse`'s flat per-vertex vector over
//! the collected edges.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use extreme_graphs::bignum::BigUint;
use extreme_graphs::core::validate::{measure_from_histogram, ValidationReport};
use extreme_graphs::core::CoreError;
use extreme_graphs::gen::chunk::EdgeChunk;
use extreme_graphs::gen::manifest::MANIFEST_FILE_NAME;
use extreme_graphs::gen::metrics::PredicateCountMetric;
use extreme_graphs::gen::testing::TestDir;
use extreme_graphs::gen::SplitPlan;
use extreme_graphs::gen::{BalanceReport, FeistelPermutation, MetricsReport, RunManifest};
use extreme_graphs::sparse::reduce::degree_distribution;
use extreme_graphs::sparse::triangles::count_triangles_coo;
use extreme_graphs::sparse::{kron_coo, CooMatrix, DegreeAccumulator, PlusTimes, SparseError};
use extreme_graphs::{
    DegreeDistribution, DesignPipeline, EdgeSource, GraphProperties, KroneckerDesign,
    KroneckerSource, MetricRecord, Pipeline, RmatParams, RmatSource, RunReport, SelfLoop,
    SelfLoopPolicy, SourceDescriptor, SourceRun,
};

const SELF_LOOPS: [SelfLoop; 3] = [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf];

fn pipeline(design: &KroneckerDesign, workers: usize, chunk: usize) -> DesignPipeline<'_> {
    Pipeline::for_design(design)
        .workers(workers)
        .max_c_edges(200_000)
        .chunk_capacity(chunk)
}

fn sorted_pairs(graph: &CooMatrix<u64>) -> Vec<(u64, u64)> {
    let mut pairs: Vec<(u64, u64)> = graph.iter().map(|(r, c, _)| (r, c)).collect();
    pairs.sort_unstable();
    pairs
}

/// The oracle every run is held to: `graph` is edge for edge the realised
/// design (relabelled through the Feistel bijection of `permutation_seed`
/// when the run permuted), and both the streamed measurement and a triangle
/// count of `graph` equal the closed-form predictions.
fn assert_is_the_designed_graph(
    design: &KroneckerDesign,
    permutation_seed: Option<u64>,
    graph: &CooMatrix<u64>,
    metrics: &MetricsReport,
    label: &str,
) {
    let realised = design.realize(10_000_000).unwrap();
    let permutation = permutation_seed.map(|seed| FeistelPermutation::new(realised.nrows(), seed));
    let mut expected: Vec<(u64, u64)> = realised
        .iter()
        .map(|(r, c, _)| match &permutation {
            Some(permutation) => permutation.apply_edge((r, c)),
            None => (r, c),
        })
        .collect();
    expected.sort_unstable();
    assert_eq!(sorted_pairs(graph), expected, "{label}: edges");
    assert_eq!(
        DegreeDistribution::from_histogram(&metrics.degree_histogram),
        design.degree_distribution(),
        "{label}: streamed degree distribution"
    );
    assert_eq!(
        BigUint::from(count_triangles_coo(graph).unwrap()),
        design.triangles().unwrap(),
        "{label}: triangles"
    );
}

#[test]
fn pipeline_blocks_equal_the_realised_design() {
    for self_loop in SELF_LOOPS {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], self_loop).unwrap();
        let (b_design, c_design) = design.split(2).unwrap();
        let raw_product = kron_coo::<u64, PlusTimes>(
            &b_design.realize_raw(200_000).unwrap(),
            &c_design.realize_raw(200_000).unwrap(),
        )
        .unwrap();
        for workers in [1usize, 3, 8] {
            for chunk in [1usize, 64, 4096] {
                let label = format!("{self_loop:?} w{workers} c{chunk}");
                let report = pipeline(&design, workers, chunk)
                    .split_index(2)
                    .collect_coo()
                    .unwrap();
                assert!(report.is_valid(), "{label}");
                assert_eq!(report.outputs.len(), workers, "{label}");
                assert_eq!(
                    BigUint::from(report.metrics.balance.edges_per_worker.iter().sum::<u64>()),
                    design.edges(),
                    "{label}"
                );
                assert_is_the_designed_graph(
                    &design,
                    None,
                    &report.assemble(),
                    &report.metrics,
                    &label,
                );

                // The raw product is `B ⊗ C` itself, self-loops included.
                let raw = pipeline(&design, workers, chunk)
                    .split_index(2)
                    .raw_product()
                    .collect_coo()
                    .unwrap();
                assert!(raw.is_valid(), "{label} raw");
                assert_eq!(
                    sorted_pairs(&raw.assemble()),
                    sorted_pairs(&raw_product),
                    "{label} raw"
                );
            }
        }
    }
}

#[test]
fn pipeline_counts_equal_the_design_prediction() {
    for self_loop in SELF_LOOPS {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], self_loop).unwrap();
        for workers in [1usize, 2, 5] {
            let report = pipeline(&design, workers, 512)
                .split_index(2)
                .count()
                .unwrap();
            assert!(report.is_valid());
            assert_eq!(report.outputs, report.metrics.balance.edges_per_worker);
            assert_eq!(BigUint::from(report.edge_count()), design.edges());
            assert_eq!(report.predicted, Some(design.properties()));
            assert_eq!(BigUint::from(report.metrics.vertices), design.vertices());
            assert_eq!(BigUint::from(report.metrics.edges), design.edges());
            assert_eq!(report.metrics.self_loops, 0);
            assert_eq!(
                DegreeDistribution::from_histogram(&report.metrics.degree_histogram),
                design.degree_distribution()
            );
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Format {
    Tsv,
    Compressed,
}

const FORMATS: [Format; 2] = [Format::Tsv, Format::Compressed];

/// What one file-writing run left behind.
struct WrittenRun {
    graph: CooMatrix<u64>,
    metrics: MetricsReport,
    manifest: RunManifest,
    shard_bytes: Vec<Vec<u8>>,
}

fn permuted(pipeline: DesignPipeline<'_>, seed: Option<u64>) -> DesignPipeline<'_> {
    match seed {
        Some(seed) => pipeline.permute_vertices(seed),
        None => pipeline,
    }
}

fn write<S: EdgeSource>(pipeline: Pipeline<S>, format: Format, dir: &Path) -> RunReport<PathBuf> {
    let report = match format {
        Format::Tsv => pipeline.write_tsv(dir),
        Format::Compressed => pipeline.write_compressed(dir),
    }
    .unwrap();
    assert!(report.is_valid(), "{:?}", report.validation.failures());
    report
}

fn write_shards(
    pipeline: DesignPipeline<'_>,
    permutation_seed: Option<u64>,
    format: Format,
) -> WrittenRun {
    let dir = TestDir::new("equivalence_shards");
    let report = write(permuted(pipeline, permutation_seed), format, &dir);
    let files = report.files.as_ref().expect("file terminal");
    WrittenRun {
        graph: files.read_assembled().unwrap(),
        shard_bytes: files
            .files
            .iter()
            .map(|file| std::fs::read(file).unwrap())
            .collect(),
        metrics: report.metrics,
        manifest: report.manifest,
    }
}

/// The report with the one field that legitimately depends on the worker
/// count blanked out.
fn without_balance(mut metrics: MetricsReport) -> MetricsReport {
    metrics.balance = BalanceReport::from_worker_counts(Vec::new());
    metrics
}

#[test]
fn determinism_matrix_pins_bytes_metrics_and_the_graph() {
    // star(3) with a centre loop has 7 triples: 8 workers leaves one idle.
    let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
    let mut reference_metrics: Option<MetricsReport> = None;
    for permutation_seed in [None, Some(0xFEED)] {
        for format in FORMATS {
            for workers in [1usize, 3, 8] {
                let mut reference_bytes: Option<Vec<Vec<u8>>> = None;
                for chunk in [1usize, 64, 4096] {
                    let label = format!("{permutation_seed:?} {format:?} w{workers} c{chunk}");
                    let run = write_shards(
                        pipeline(&design, workers, chunk).split_index(1),
                        permutation_seed,
                        format,
                    );
                    assert_is_the_designed_graph(
                        &design,
                        permutation_seed,
                        &run.graph,
                        &run.metrics,
                        &label,
                    );
                    // The chunk capacity never reaches the disk…
                    let bytes = reference_bytes.get_or_insert(run.shard_bytes.clone());
                    assert_eq!(&run.shard_bytes, bytes, "{label}: shard bytes");
                    // …and nothing but the balance sheet depends on anything.
                    let metrics = without_balance(run.metrics);
                    let reference = reference_metrics.get_or_insert(metrics.clone());
                    assert_eq!(&metrics, reference, "{label}: metrics");
                }
            }
        }
    }
}

#[test]
fn determinism_matrix_above_the_permutation_table_cutoff() {
    // Every other permuted case in this file has few enough vertices that
    // `FeistelPermutation` answers from its image table.  2048 × 1025
    // vertices is past that cutoff (2^21), so these runs evaluate the
    // network — the regime the paper's designs live in.  The graph is too
    // big to assemble here, so the oracle is a sampled edge count: how many
    // relabelled edges of `B ⊗ C`, enumerated straight from the factors,
    // fall in a fixed pseudo-random 1/64 of label pairs.
    let design = KroneckerDesign::from_star_points(&[2047, 1024], SelfLoop::Centre).unwrap();
    let seed = 0xFEED;
    let sampled = |row: u64, col: u64| {
        (row ^ col.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58 == 0
    };

    let (b_design, c_design) = design.split(1).unwrap();
    let b = b_design.realize_raw(200_000).unwrap();
    let c = c_design.realize_raw(200_000).unwrap();
    let permutation = FeistelPermutation::new(b.nrows() * c.nrows(), seed);
    let mut expected = 0u64;
    for (rb, cb, _) in b.iter() {
        for (rc, cc, _) in c.iter() {
            let edge = (rb * c.nrows() + rc, cb * c.ncols() + cc);
            // Centre loops sit on vertex 0 of every star, and the design
            // removes the one product loop they leave.
            if edge != (0, 0) {
                let (row, col) = permutation.apply_edge(edge);
                expected += u64::from(sampled(row, col));
            }
        }
    }

    let mut reference_metrics: Option<MetricsReport> = None;
    for workers in [1usize, 3, 8] {
        let report = pipeline(&design, workers, 4096)
            .split_index(1)
            .permute_vertices(seed)
            .with_metric(PredicateCountMetric::new("sampled", sampled))
            .count()
            .unwrap();
        assert!(report.is_valid(), "{:?}", report.validation.failures());
        assert_eq!(
            report.metrics.custom_value("sampled"),
            Some(expected.to_string().as_str()),
            "w{workers}: sampled relabelled edges"
        );
        let metrics = without_balance(report.metrics);
        let reference = reference_metrics.get_or_insert(metrics.clone());
        assert_eq!(&metrics, reference, "w{workers}: metrics");
    }
}

/// The source it wraps with nothing forwarded but `stream_worker` and what
/// validation and the manifest read — no column windows, so a run over it
/// counts row endpoints in one window of every label per worker.
#[derive(Clone)]
struct Flat<S>(S);

struct FlatRun<R>(R);

impl<S: EdgeSource> EdgeSource for Flat<S> {
    type Run = FlatRun<S::Run>;

    fn vertices(&self) -> Result<u64, CoreError> {
        self.0.vertices()
    }

    fn prepare(&self, workers: usize) -> Result<(Self::Run, Vec<String>), CoreError> {
        let (run, warnings) = self.0.prepare(workers)?;
        Ok((FlatRun(run), warnings))
    }
}

impl<R: SourceRun> SourceRun for FlatRun<R> {
    fn stream_worker<E, F>(&self, worker: usize, chunk: &mut EdgeChunk, sink: F) -> Result<u64, E>
    where
        E: From<SparseError>,
        F: FnMut(&[(u64, u64)]) -> Result<(), E>,
    {
        self.0.stream_worker(worker, chunk, sink)
    }

    fn predicted_properties(&self) -> Option<GraphProperties> {
        self.0.predicted_properties()
    }

    fn validate(&self, measured: &GraphProperties) -> ValidationReport {
        self.0.validate(measured)
    }

    fn split_plan(&self) -> Option<SplitPlan> {
        self.0.split_plan()
    }

    fn descriptor(&self) -> SourceDescriptor {
        self.0.descriptor()
    }
}

/// A collecting run with a custom metric, so the reports compare that too.
fn collect<S: EdgeSource>(
    pipeline: Pipeline<S>,
    workers: usize,
    chunk: usize,
    permutation_seed: Option<u64>,
) -> RunReport<CooMatrix<u64>> {
    let mut pipeline = pipeline
        .workers(workers)
        .chunk_capacity(chunk)
        .with_metric(PredicateCountMetric::new("upper", |row, col| row < col));
    if let Some(seed) = permutation_seed {
        pipeline = pipeline.permute_vertices(seed);
    }
    pipeline.collect_coo().unwrap()
}

/// The metrics report of the blocks a run collected, as `kron_sparse`'s
/// flat row-endpoint vector counts them — the oracle every counting mode of
/// the engine is held to.
fn flat_vector(report: &RunReport<CooMatrix<u64>>) -> MetricsReport {
    let vertices = report.metrics.vertices;
    let mut flat = DegreeAccumulator::rows_only(vertices, vertices);
    let mut upper = 0;
    for block in &report.outputs {
        let edges: Vec<(u64, u64)> = block.iter().map(|(r, c, _)| (r, c)).collect();
        flat.record(&edges);
        upper += edges.iter().filter(|&&(row, col)| row < col).count();
    }
    let measured = measure_from_histogram(vertices, &flat.row_histogram(), flat.self_loop_count());
    let mut degree_histogram = flat.row_histogram();
    degree_histogram.remove(&0);
    let edges_per_worker = report.outputs.iter().map(|b| b.nnz() as u64).collect();
    MetricsReport {
        vertices,
        edges: flat.edge_count(),
        self_loops: flat.self_loop_count(),
        max_degree: flat.max_row_degree(),
        degree_histogram,
        balance: BalanceReport::from_worker_counts(edges_per_worker),
        power_law: measured.power_law_fit(),
        custom: vec![MetricRecord::new("upper", upper)],
    }
}

#[test]
fn windowed_degree_counts_equal_the_flat_vector() {
    for self_loop in SELF_LOOPS {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], self_loop).unwrap();
        for policy in [SelfLoopPolicy::RemoveDesigned, SelfLoopPolicy::KeepRaw] {
            let source = KroneckerSource::new(&design)
                .split_index(2)
                .max_c_edges(200_000)
                .self_loop_policy(policy);
            let (run, _) = source.prepare(1).unwrap();
            let windows = run.column_windows().expect("star designs are symmetric");
            assert_eq!(windows.width, 60, "|V_C| of star(5) ⊗ star(9)");
            let nnz_b = run.split_plan().unwrap().b_nnz.to_u64().unwrap() as usize;
            for workers in [1, 2, 3, 7, 64, nnz_b + 1] {
                for chunk in [1, 7, 4096] {
                    for seed in [None, Some(0xFEED)] {
                        let label =
                            format!("{self_loop:?} {policy:?} w{workers} c{chunk} {seed:?}");
                        let windowed =
                            collect(Pipeline::for_source(source.clone()), workers, chunk, seed);
                        let flat = collect(
                            Pipeline::for_source(Flat(source.clone())),
                            workers,
                            chunk,
                            seed,
                        );
                        assert!(windowed.is_valid(), "{label}");
                        assert_eq!(windowed.metrics, flat_vector(&windowed), "{label}");
                        assert_eq!(flat.metrics, flat_vector(&flat), "{label} flat");
                    }
                }
            }
        }
    }

    // R-MAT declares no column order, and its graph is not symmetric: the
    // run reports the row endpoints' histogram, which the columns' is not.
    let rmat = RmatSource::new(RmatParams::graph500(8), 20180304).unwrap();
    let report = collect(Pipeline::for_source(rmat), 3, 4096, None);
    assert_eq!(report.metrics, flat_vector(&report));
    let graph = report.assemble();
    let without_zero = |mut histogram: BTreeMap<u64, u64>| {
        histogram.remove(&0);
        histogram
    };
    let rows = without_zero(degree_distribution(&graph));
    assert_eq!(report.metrics.degree_histogram, rows);
    assert_ne!(without_zero(degree_distribution(&graph.transpose())), rows);
}

#[test]
fn shard_files_are_byte_identical_across_entry_points() {
    // `Pipeline::for_design` forwards the source knobs; configuring the
    // source directly and handing it to `Pipeline::for_source` must be the
    // same run, down to the bytes and the manifest.
    let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
    for format in FORMATS {
        let via_design = TestDir::new("via_design");
        let via_source = TestDir::new("via_source");
        let for_design = pipeline(&design, 3, 512).split_index(1);
        let for_source = Pipeline::for_source(
            KroneckerSource::new(&design)
                .split_index(1)
                .max_c_edges(200_000),
        )
        .workers(3)
        .chunk_capacity(512);
        let left = write(for_design, format, &via_design);
        let right = write(for_source, format, &via_source);

        let left_files = &left.files.as_ref().expect("file terminal").files;
        let right_files = &right.files.as_ref().expect("file terminal").files;
        assert_eq!(left_files.len(), 3);
        assert_eq!(right_files.len(), 3);
        for (a, b) in left_files.iter().zip(right_files) {
            assert_eq!(a.file_name(), b.file_name(), "shard naming must not change");
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "{format:?} shard {a:?} differs from {b:?}"
            );
        }

        // Both entry points emit the same manifest (modulo the paths and
        // wall-clock timing, which necessarily differ).
        let mut from_design = RunManifest::read_from(&via_design.join(MANIFEST_FILE_NAME)).unwrap();
        let mut from_source = RunManifest::read_from(&via_source.join(MANIFEST_FILE_NAME)).unwrap();
        assert_eq!(from_design, left.manifest);
        for manifest in [&mut from_design, &mut from_source] {
            manifest.seconds = 0.0;
            manifest.directory = None;
            manifest.outputs.clear();
        }
        assert_eq!(from_design, from_source);
    }
}

#[test]
fn every_shard_producing_run_emits_a_round_tripping_manifest() {
    let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Leaf).unwrap();
    let dir = TestDir::new("manifest_round_trip");
    let report = pipeline(&design, 4, 2048)
        .split_index(2)
        .write_compressed(&dir)
        .unwrap();

    let path = dir.join(MANIFEST_FILE_NAME);
    assert!(path.exists(), "shard runs must write manifest.json");
    let manifest = RunManifest::read_from(&path).unwrap();
    assert_eq!(manifest, report.manifest);
    // Full JSON round trip: parse(serialise(m)) == m.
    assert_eq!(
        RunManifest::from_json(&manifest.to_json()).unwrap(),
        manifest
    );

    // The manifest records the run faithfully.
    assert_eq!(manifest.star_points, vec![3, 4, 5]);
    assert_eq!(manifest.self_loop, "Leaf");
    assert_eq!(manifest.workers, 4);
    assert_eq!(manifest.split_index, 2);
    assert_eq!(manifest.chunk_capacity, 2048);
    assert_eq!(manifest.sink, "compressed");
    assert_eq!(manifest.total_edges, report.edge_count());
    assert_eq!(
        manifest.edges_per_worker,
        report.metrics.balance.edges_per_worker
    );
    assert_eq!(manifest.outputs.len(), 4);
    assert!(manifest.exact_match);
    assert_eq!(manifest.vertices, design.vertices().to_string());
    assert_eq!(manifest.predicted_edges, design.edges().to_string());
}

#[test]
fn corrupt_shard_errors_name_the_failing_file() {
    let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
    let dir = TestDir::new("corrupt_named");
    let report = pipeline(&design, 2, 512)
        .split_index(1)
        .write_compressed(&dir)
        .unwrap();
    let files = report.files.unwrap();
    // Corrupt the second shard's magic.
    let victim = &files.files[1];
    let mut bytes = std::fs::read(victim).unwrap();
    bytes[..4].copy_from_slice(b"NOPE");
    std::fs::write(victim, &bytes).unwrap();

    let error = files.read_assembled().unwrap_err();
    let message = error.to_string();
    assert!(
        message.contains("block_00001"),
        "error must name the failing shard, got: {message}"
    );
}

mod random_designs {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn pipeline_matches_the_oracle_on_random_designs(
            left_points in 2u64..6,
            right_points in 2u64..6,
            workers in 1usize..8,
            chunk_choice in 0usize..3,
            loop_choice in 0usize..3,
            format_choice in 0usize..3,
            permutation_seed in 0u64..3,
        ) {
            let chunk = [1usize, 7, 4096][chunk_choice];
            let design = KroneckerDesign::from_star_points(
                &[left_points, right_points],
                SELF_LOOPS[loop_choice],
            )
            .unwrap();
            // Seed 0 stands for "no permutation stage".
            let permutation_seed = (permutation_seed > 0).then_some(permutation_seed);
            let pipeline = pipeline(&design, workers, chunk).split_index(1);

            let (graph, metrics, manifest) = match FORMATS.get(format_choice) {
                Some(&format) => {
                    let run = write_shards(pipeline, permutation_seed, format);
                    (run.graph, run.metrics, run.manifest)
                }
                None => {
                    let report = permuted(pipeline, permutation_seed).collect_coo().unwrap();
                    prop_assert!(report.is_valid());
                    (report.assemble(), report.metrics, report.manifest)
                }
            };
            assert_is_the_designed_graph(&design, permutation_seed, &graph, &metrics, "random");

            // And the manifest of any run round-trips through JSON.
            prop_assert_eq!(RunManifest::from_json(&manifest.to_json()).unwrap(), manifest);
        }
    }
}
