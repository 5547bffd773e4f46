//! R-MAT through the generic pipeline, and the permutation stage.
//!
//! These tests pin the two new `EdgeSource`-era behaviours end to end:
//!
//! * The streamed `RmatSource` delivers the exact edge multiset (in fact the
//!   exact sequence) of the scalar indexed sampler `RmatGenerator::edge_at`,
//!   across worker counts and chunk sizes, and its runs produce
//!   round-tripping manifests recording source kind and seeds.
//! * Permuted Kronecker runs still pass `validate_streamed` (the Feistel
//!   relabelling is degree-preserving) and the permuted output is exactly
//!   the unpermuted graph mapped through the recorded bijection.

use extreme_graphs::gen::manifest::MANIFEST_FILE_NAME;
use extreme_graphs::gen::testing::TestDir;
use extreme_graphs::gen::{FeistelPermutation, Pipeline, RunManifest};
use extreme_graphs::rmat::{RmatGenerator, RmatParams, RmatSource};
use extreme_graphs::sparse::DegreeAccumulator;
use extreme_graphs::{KroneckerDesign, SelfLoop};

/// The reference sample stream: the scalar quadrant walk, one index at a
/// time.
fn indexed_samples(params: RmatParams, seed: u64) -> Vec<(u64, u64)> {
    let generator = RmatGenerator::new(params, seed).unwrap();
    (0..params.requested_edges())
        .map(|index| generator.edge_at(index))
        .collect()
}

#[test]
fn rmat_through_pipeline_matches_the_indexed_sampler() {
    let params = RmatParams::graph500(8);
    let seed = 20180304;
    let reference = indexed_samples(params, seed);

    for workers in [1usize, 2, 3, 8] {
        for chunk in [1usize, 64, 4096] {
            let report = Pipeline::for_source(RmatSource::new(params, seed).unwrap())
                .workers(workers)
                .chunk_capacity(chunk)
                .collect_coo()
                .unwrap();

            // Workers own contiguous ascending index ranges, so the
            // concatenated blocks reproduce the reference sequence exactly —
            // not just as a multiset.
            let streamed: Vec<(u64, u64)> = report
                .outputs
                .iter()
                .flat_map(|block| block.iter().map(|(r, c, _)| (r, c)))
                .collect();
            assert_eq!(
                streamed, reference,
                "stream differs from edge_at for w{workers} c{chunk}"
            );
            assert_eq!(report.edge_count(), params.requested_edges());

            // The predictable fields validate; the full sheet is
            // measured-only.
            assert!(report.is_valid(), "{:?}", report.validation.failures());
            assert!(report.predicted.is_none());
            assert!(report.split.is_none());
            assert_eq!(report.manifest.source, "rmat");
            assert_eq!(report.manifest.source_seed, Some(seed));
        }
    }
}

#[test]
fn a_row_whose_count_wraps_its_cell_is_counted_at_every_worker_count() {
    // Scale 4 with 40 000 samples per vertex: row 0 draws about
    // (a + b)^4 ≈ 1/3 of the 640 000 samples, so its 2-byte cell wraps
    // three times, in one worker's window or across the sum of several.
    let params = RmatParams {
        edge_factor: 40_000,
        ..RmatParams::graph500(4)
    };
    let seed = 7;
    let mut flat = DegreeAccumulator::rows_only(params.vertices(), params.vertices());
    flat.record(&indexed_samples(params, seed));
    let mut expected = flat.row_histogram();
    expected.remove(&0);
    assert!(flat.max_row_degree() > 3 << 16, "{}", flat.max_row_degree());

    for workers in [1usize, 2, 3] {
        let report = Pipeline::for_source(RmatSource::new(params, seed).unwrap())
            .workers(workers)
            .count()
            .unwrap();
        assert_eq!(report.metrics.degree_histogram, expected, "w{workers}");
        assert_eq!(report.metrics.max_degree, flat.max_row_degree());
        assert_eq!(report.metrics.self_loops, flat.self_loop_count());
    }
}

#[test]
fn rmat_run_emits_a_round_tripping_manifest_with_source_and_seed() {
    let params = RmatParams::graph500(7);
    let dir = TestDir::new("rmat_manifest");
    let report = Pipeline::for_source(RmatSource::new(params, 41).unwrap())
        .workers(3)
        .permute_vertices(17)
        .write_compressed(&dir)
        .unwrap();
    assert!(report.is_valid());
    assert_eq!(report.metrics.vertices, params.vertices());

    let on_disk = RunManifest::read_from(&dir.join(MANIFEST_FILE_NAME)).unwrap();
    assert_eq!(on_disk, report.manifest);
    assert_eq!(on_disk.source, "rmat");
    assert_eq!(on_disk.source_seed, Some(41));
    assert_eq!(on_disk.permutation_seed, Some(17));
    assert_eq!(on_disk.star_points, Vec::<u64>::new());
    assert_eq!(on_disk.vertices, params.vertices().to_string());
    assert_eq!(
        on_disk.predicted_edges,
        params.requested_edges().to_string()
    );
    assert_eq!(on_disk.total_edges, params.requested_edges());
    assert!(on_disk.exact_match);
    assert_eq!(RunManifest::from_json(&on_disk.to_json()).unwrap(), on_disk);

    // The shards really contain the permuted stream.
    let files = report.files.as_ref().unwrap();
    let from_disk = files.read_assembled().unwrap();
    let perm = FeistelPermutation::new(params.vertices(), 17);
    let mut expected_sorted: Vec<(u64, u64)> = indexed_samples(params, 41)
        .into_iter()
        .map(|edge| perm.apply_edge(edge))
        .collect();
    expected_sorted.sort_unstable();
    let mut disk_sorted: Vec<(u64, u64)> = from_disk.iter().map(|(r, c, _)| (r, c)).collect();
    disk_sorted.sort_unstable();
    assert_eq!(disk_sorted, expected_sorted);
}

#[test]
fn permuted_kronecker_run_still_validates_streamed() {
    for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], self_loop).unwrap();
        let plain = Pipeline::for_design(&design)
            .workers(4)
            .max_c_edges(200_000)
            .split_index(2)
            .collect_coo()
            .unwrap();
        let permuted = Pipeline::for_design(&design)
            .workers(4)
            .max_c_edges(200_000)
            .split_index(2)
            .permute_vertices(0xC0FFEE)
            .collect_coo()
            .unwrap();

        // Degree-preserving: the streamed validation still matches the
        // exact prediction, and the metrics report is unchanged.
        assert!(
            permuted.is_valid(),
            "permuted validation failed for {self_loop:?}: {:?}",
            permuted.validation.failures()
        );
        assert_eq!(permuted.metrics, plain.metrics);
        assert_eq!(permuted.edge_count(), plain.edge_count());
        assert_eq!(permuted.manifest.permutation_seed, Some(0xC0FFEE));

        // And the permuted edges are exactly the plain edges through the
        // recorded bijection.
        let perm = FeistelPermutation::new(plain.metrics.vertices, 0xC0FFEE);
        let mut expected: Vec<(u64, u64)> = plain
            .assemble()
            .iter()
            .map(|(r, c, _)| perm.apply_edge((r, c)))
            .collect();
        let mut actual: Vec<(u64, u64)> =
            permuted.assemble().iter().map(|(r, c, _)| (r, c)).collect();
        expected.sort_unstable();
        actual.sort_unstable();
        assert_eq!(actual, expected, "relabelling mismatch for {self_loop:?}");
    }
}

#[test]
fn rmat_and_kronecker_share_the_pipeline_terminals() {
    // The headline of the generic pipeline: the same terminal call, the
    // same report shape, for both workflows — only the prediction differs.
    let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
    let kron = Pipeline::for_design(&design)
        .workers(2)
        .max_c_edges(100_000)
        .count()
        .unwrap();
    let rmat = Pipeline::for_source(RmatSource::new(RmatParams::graph500(9), 1).unwrap())
        .workers(2)
        .count()
        .unwrap();

    assert!(kron.is_valid());
    assert!(rmat.is_valid());
    assert!(kron.predicted.is_some(), "Kronecker predicts exactly");
    assert!(rmat.predicted.is_none(), "R-MAT is measured-only");
    // Kronecker's exact degree distribution is validated field by field;
    // R-MAT checks only counts.
    assert!(kron
        .validation
        .checks
        .iter()
        .any(|c| c.field == "degree_distribution"));
    assert!(!rmat
        .validation
        .checks
        .iter()
        .any(|c| c.field == "degree_distribution"));
    // Both manifests round-trip and name their source.
    for (report_manifest, kind) in [(&kron.manifest, "kronecker"), (&rmat.manifest, "rmat")] {
        assert_eq!(report_manifest.source, kind);
        assert_eq!(
            &RunManifest::from_json(&report_manifest.to_json()).unwrap(),
            report_manifest
        );
    }
}
