//! End-to-end integration tests spanning the whole workspace:
//! design (kron-core) → parallel generation (kron-gen) → measurement and
//! validation, cross-checked against computation that never runs the
//! generation engine: `KroneckerDesign::realize` (the sparse substrate's
//! `kron_chain`), the closed-form predictions, and brute-force measurement
//! on the sparse substrate (kron-sparse).

use std::collections::BTreeMap;

use extreme_graphs::bignum::BigUint;
use extreme_graphs::core::validate::{measure_properties, validate_design};
use extreme_graphs::core::CoreError;
use extreme_graphs::sparse::reduce::degree_distribution as sparse_histogram;
use extreme_graphs::sparse::select::{empty_vertices, has_duplicates, self_loop_count};
use extreme_graphs::sparse::triangles::{count_triangles_coo, count_triangles_merge};
use extreme_graphs::sparse::{CooMatrix, CsrMatrix, PlusTimes};
use extreme_graphs::{
    Constituent, DegreeDistribution, DesignPipeline, KroneckerDesign, Pipeline, SelfLoop,
};

fn pipeline(design: &KroneckerDesign, workers: usize) -> DesignPipeline<'_> {
    Pipeline::for_design(design)
        .workers(workers)
        .max_c_edges(100_000)
}

fn sorted(mut graph: CooMatrix<u64>) -> CooMatrix<u64> {
    graph.sort();
    graph
}

#[test]
fn full_pipeline_matches_for_every_self_loop_mode() {
    for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], self_loop).unwrap();
        let predicted = design.properties();

        // Distributed generation, measured in-stream.
        let report = pipeline(&design, 4).collect_coo().unwrap();
        assert!(
            report.is_valid(),
            "streamed measurement disagrees with design for {self_loop:?}: {:?}",
            report.validation.failures()
        );

        // Assembled matrix: the designed graph, edge for edge…
        let assembled = report.assemble();
        assert_eq!(
            sorted(assembled.clone()),
            sorted(design.realize(20_000_000).unwrap()),
            "generated graph is not the realised design for {self_loop:?}"
        );
        // …and measured through the sparse substrate directly.
        assert_eq!(
            self_loop_count(&assembled),
            0,
            "final graph must be loop-free"
        );
        assert!(
            !has_duplicates(&assembled),
            "final graph must have no duplicate edges"
        );
        assert!(
            empty_vertices(&assembled).is_empty(),
            "final graph must have no empty vertices"
        );

        let measured = measure_properties(&assembled).unwrap();
        assert!(
            predicted.exactly_matches(&measured),
            "assembled measurement disagrees"
        );

        // Triangle count cross-checked with two independent algorithms.
        assert_eq!(
            BigUint::from(count_triangles_coo(&assembled).unwrap()),
            design.triangles().unwrap(),
            "triangle count disagrees for {self_loop:?}"
        );
        let csr = CsrMatrix::from_coo::<PlusTimes>(&assembled).unwrap();
        assert_eq!(
            BigUint::from(count_triangles_merge(&csr).unwrap()),
            design.triangles().unwrap(),
            "merge-based triangle count disagrees for {self_loop:?}"
        );
    }
}

#[test]
fn validate_design_end_to_end_reports_exact_match() {
    let design = KroneckerDesign::from_star_points(&[5, 9, 16], SelfLoop::Centre).unwrap();
    let report = validate_design(&design, 10_000_000).unwrap();
    assert!(report.is_exact_match(), "failures: {:?}", report.failures());
}

#[test]
fn worker_count_is_an_implementation_detail() {
    // The paper's guarantee: the generated graph is a deterministic function
    // of the design, regardless of how many processors generate it.
    let design = KroneckerDesign::from_star_points(&[3, 5, 9, 16], SelfLoop::Leaf).unwrap();
    let reference = sorted(design.realize(20_000_000).unwrap());
    for workers in [1usize, 2, 3, 7, 16] {
        let graph = pipeline(&design, workers).collect_coo().unwrap().assemble();
        assert_eq!(
            sorted(graph),
            reference,
            "graph content changed with {workers} workers"
        );
    }
}

#[test]
fn distributed_measurement_equals_assembled_measurement() {
    let design = KroneckerDesign::from_star_points(&[4, 5, 9, 16], SelfLoop::Centre).unwrap();
    let report = pipeline(&design, 6).collect_coo().unwrap();
    let from_stream = DegreeDistribution::from_histogram(&report.metrics.degree_histogram);
    let from_assembled = DegreeDistribution::from_histogram(&sparse_histogram(&report.assemble()));
    assert_eq!(from_stream, from_assembled);
    assert_eq!(from_stream, design.degree_distribution());
}

#[test]
fn a_design_with_an_isolated_vertex_validates() {
    // An edge plus an isolated vertex: the product has 3 isolated vertices,
    // which the prediction counts in `vertices` only, as the stream does.
    let edge_and_vertex = CooMatrix::from_edges(3, 3, vec![(0, 1), (1, 0)]).unwrap();
    let design = KroneckerDesign::new(vec![
        Constituent::star(3, SelfLoop::None).unwrap(),
        Constituent::from_matrix(edge_and_vertex, 1).unwrap(),
    ])
    .unwrap();
    let report = Pipeline::for_design(&design).workers(1).count().unwrap();
    assert_eq!(report.metrics.vertices, 12);
    assert_eq!(report.metrics.edges, 12);
    assert_eq!(
        report.metrics.degree_histogram,
        BTreeMap::from([(1, 6), (3, 2)])
    );
    assert!(
        report.is_valid(),
        "isolated-vertex validation failed: {:?}",
        report.validation.failures()
    );
    assert!(report.manifest.exact_match);
    // The materialising check matches every field too, and its structural
    // inspection reports the isolated vertices.
    let materialised = validate_design(&design, 1_000).unwrap();
    assert!(
        materialised.failures().is_empty(),
        "{:?}",
        materialised.failures()
    );
    assert_eq!(materialised.no_empty_vertices, Some(false));
}

#[test]
fn per_worker_balance_is_within_one_b_triple() {
    let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9, 16], SelfLoop::None).unwrap();
    for workers in [2usize, 4, 8, 12] {
        let report = pipeline(&design, workers).count().unwrap();
        let balance = &report.metrics.balance;
        assert_eq!(balance.edges_per_worker, report.manifest.edges_per_worker);
        let c_nnz = report.split.as_ref().unwrap().c_nnz.to_u64().unwrap();
        assert!(
            balance.is_balanced_within(c_nnz),
            "imbalance {} exceeds one B triple ({c_nnz} edges) with {workers} workers",
            balance.max_edges - balance.min_edges,
        );
    }
}

#[test]
fn paper_scale_properties_do_not_require_generation() {
    // The full Figure 4 design is far too large to generate here, but its
    // exact properties are instant.
    let design =
        KroneckerDesign::from_star_points(&[3, 4, 5, 9, 16, 25, 81, 256], SelfLoop::Centre)
            .unwrap();
    assert_eq!(design.vertices().to_string(), "11177649600");
    assert_eq!(design.edges().to_string(), "1853002140758");
    assert_eq!(design.triangles().unwrap().to_string(), "6777007252427");
    // And generation refuses politely when the graph cannot even be indexed:
    // the Figure 7 decetta design has more vertices than a u64 can label.
    let decetta =
        KroneckerDesign::from_star_points(kron_bench::paper::FIG7, SelfLoop::Leaf).unwrap();
    assert!(decetta.vertices().to_u64().is_none());
    assert!(matches!(
        Pipeline::for_design(&decetta).count(),
        Err(CoreError::TooLargeToRealise { .. })
    ));
}

#[test]
fn design_distribution_agrees_with_brute_force_kron_of_histograms() {
    // Cross-check the analytic degree distribution against measuring the
    // realised graph through the sparse substrate, for a mixed star set.
    let design = KroneckerDesign::from_star_points(&[2, 7, 11], SelfLoop::Centre).unwrap();
    let graph = design.realize(10_000_000).unwrap();
    let measured = DegreeDistribution::from_histogram(&sparse_histogram(&graph));
    assert_eq!(measured, design.degree_distribution());
    assert_eq!(
        BigUint::from(count_triangles_coo(&graph).unwrap()),
        design.triangles().unwrap()
    );
}
