//! Shards on disk: equivalence with the designed graph, streamed validation,
//! and corruption tests.
//!
//! For any design, worker count, and format, the union of the shards a
//! file terminal writes is edge for edge the graph `KroneckerDesign::realize`
//! computes through the sparse substrate, and the streamed degree histogram
//! validates exactly against the analytic prediction — including for designs
//! too large to realise in memory at all.  Shard files must also survive
//! hostile inputs: every corrupt-header and corrupt-body variant of the
//! compressed layout has to fail cleanly.

use std::path::{Path, PathBuf};

use extreme_graphs::core::CoreError;
use extreme_graphs::gen::testing::{compressed_block_bytes, TestDir};
use extreme_graphs::gen::{BlockFileSet, BlockFormat};
use extreme_graphs::sparse::{CooMatrix, SparseError};
use extreme_graphs::{DegreeDistribution, DesignPipeline, KroneckerDesign, Pipeline, SelfLoop};

fn pipeline(design: &KroneckerDesign, workers: usize) -> DesignPipeline<'_> {
    Pipeline::for_design(design)
        .workers(workers)
        .max_c_edges(200_000)
        .max_b_edges(1 << 22)
        .chunk_capacity(1 << 12)
}

#[test]
fn shards_assemble_to_the_realised_design() {
    for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], self_loop).unwrap();
        let mut realised = design.realize(10_000_000).unwrap();
        realised.sort();
        for workers in [1usize, 3, 8] {
            let dir = TestDir::new("equiv");
            let report = pipeline(&design, workers)
                .split_index(2)
                .write_compressed(&dir)
                .unwrap();
            let mut streamed = report.files.as_ref().unwrap().read_assembled().unwrap();
            streamed.sort();
            assert_eq!(
                streamed, realised,
                "shards differ from the realised design for {self_loop:?} × {workers} workers"
            );
            assert_eq!(report.edge_count(), realised.nnz() as u64);
            assert!(
                report.is_valid(),
                "streamed validation failed for {self_loop:?} × {workers} workers: {:?}",
                report.validation.failures()
            );
        }
    }
}

#[test]
fn driver_validates_beyond_the_materialising_ceiling_in_bounded_memory() {
    // 22,160,060 edges: more than four times what this test lets `realize`
    // materialise.
    let design =
        KroneckerDesign::from_star_points(&[3, 4, 5, 9, 16, 25], SelfLoop::Centre).unwrap();
    assert!(
        design.realize(5_000_000).is_err(),
        "the design must exceed the materialising ceiling for this test to mean anything"
    );

    let report = pipeline(&design, 8).split_index(4).count().unwrap();
    assert_eq!(report.edge_count().to_string(), design.edges().to_string());
    assert!(
        report.is_valid(),
        "measured != predicted beyond the ceiling: {:?}",
        report.validation.failures()
    );
    // The measured histogram is the paper's Figure-4 series: identical to
    // the analytic degree distribution, point by point.
    assert_eq!(
        DegreeDistribution::from_histogram(&report.metrics.degree_histogram),
        design.degree_distribution()
    );
}

mod corrupt_binary_shards {
    use super::*;

    /// Offsets of the entry count and the payload length in the v4 header.
    const NNZ: usize = 24;
    const PAYLOAD_LEN: usize = 32;

    /// The bytes of one valid shard of a 20-vertex graph, and a path in a
    /// directory of this test's own to write their mutilated copy to.
    fn valid_shard_bytes() -> (Vec<u8>, TestDir, PathBuf) {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        let dir = TestDir::new("corrupt");
        let report = pipeline(&design, 1)
            .split_index(1)
            .write_compressed(&dir)
            .unwrap();
        assert_eq!(report.metrics.vertices, 20);
        let bytes = std::fs::read(&report.files.unwrap().files[0]).unwrap();
        let path = dir.join("shard.kbkz");
        (bytes, dir, path)
    }

    /// Read `path` as the one shard of a `vertices`-vertex graph, the way a
    /// user does, taking the error out from under the shard's path — which
    /// must be there.
    fn read_shard(path: &Path, vertices: u64) -> Result<CooMatrix<u64>, SparseError> {
        let set = BlockFileSet {
            directory: path.parent().unwrap().to_path_buf(),
            files: vec![path.to_path_buf()],
            vertices,
            format: BlockFormat::Compressed,
        };
        set.read_assembled().map_err(|error| match error {
            CoreError::Sparse(SparseError::WithPath {
                path: named,
                source,
            }) => {
                assert!(named.ends_with("shard.kbkz"), "wrong shard named: {named}");
                *source
            }
            other => panic!("the error does not name the shard: {other}"),
        })
    }

    fn expect_parse_error(bytes: &[u8], path: &PathBuf, what: &str) {
        std::fs::write(path, bytes).unwrap();
        match read_shard(path, 20) {
            Err(SparseError::Parse { .. }) => {}
            other => panic!("{what}: expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (mut bytes, _dir, path) = valid_shard_bytes();
        bytes[..4].copy_from_slice(b"NOPE");
        expect_parse_error(&bytes, &path, "bad magic");
    }

    #[test]
    fn bad_version_is_rejected() {
        let (mut bytes, _dir, path) = valid_shard_bytes();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        expect_parse_error(&bytes, &path, "bad version");
    }

    #[test]
    fn declared_count_must_match_file_length() {
        let (mut bytes, _dir, path) = valid_shard_bytes();
        // Inflate the declared payload length without adding bytes.
        let declared = u64::from_le_bytes(bytes[PAYLOAD_LEN..PAYLOAD_LEN + 8].try_into().unwrap());
        bytes[PAYLOAD_LEN..PAYLOAD_LEN + 8].copy_from_slice(&(declared + 1).to_le_bytes());
        expect_parse_error(&bytes, &path, "length mismatch (inflated payload length)");
    }

    #[test]
    fn truncated_body_is_rejected() {
        let (bytes, _dir, path) = valid_shard_bytes();
        expect_parse_error(&bytes[..bytes.len() - 8], &path, "truncated body");
    }

    #[test]
    fn truncated_header_is_rejected() {
        let (bytes, _dir, path) = valid_shard_bytes();
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(read_shard(&path, 20).is_err(), "truncated header must fail");
    }

    #[test]
    fn out_of_bounds_indices_are_rejected() {
        // A one-edge shard whose column index exceeds the declared
        // dimensions — which no writer in the library would produce.
        let dir = TestDir::new("out_of_bounds");
        let path = dir.join("shard.kbkz");
        std::fs::write(&path, compressed_block_bytes(4, 4, &[&[(1, 9)]])).unwrap();
        match read_shard(&path, 4) {
            Err(SparseError::IndexOutOfBounds { col: 9, .. }) => {}
            other => panic!("expected IndexOutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn absurd_declared_count_fails_before_allocating() {
        // Neither the length check nor the payload checksum covers the entry
        // count, so nothing may be sized from it: whatever it claims, the
        // frames are decoded and counted, and the count is what disagrees.
        let (valid, _dir, path) = valid_shard_bytes();
        let declared = u64::from_le_bytes(valid[NNZ..NNZ + 8].try_into().unwrap());
        for hostile in [declared + 1, 1 << 40, 1 << 62, u64::MAX] {
            let mut bytes = valid.clone();
            bytes[NNZ..NNZ + 8].copy_from_slice(&hostile.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match read_shard(&path, 20) {
                Err(SparseError::Parse { message, .. }) => assert!(
                    message.ends_with(&format!("frames decode {declared}")),
                    "{hostile}: {message}"
                ),
                other => panic!("{hostile}: expected a parse error, got {other:?}"),
            }
        }
        // A payload length no file could have fails before the length check
        // can even be phrased.
        let mut bytes = valid.clone();
        bytes[PAYLOAD_LEN..PAYLOAD_LEN + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match read_shard(&path, 20) {
            Err(SparseError::TooLarge { .. }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}

mod random_designs {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn shards_merge_to_the_designed_graph(
            left_points in 2u64..6,
            right_points in 2u64..6,
            workers in 1usize..9,
            loop_choice in 0u8..3,
        ) {
            let self_loop = match loop_choice {
                0 => SelfLoop::None,
                1 => SelfLoop::Centre,
                _ => SelfLoop::Leaf,
            };
            let design =
                KroneckerDesign::from_star_points(&[left_points, right_points], self_loop)
                    .unwrap();
            let dir = TestDir::new("prop");
            let report = pipeline(&design, workers)
                .split_index(1)
                .write_compressed(&dir)
                .unwrap();
            prop_assert!(report.is_valid());

            let mut streamed = report.files.unwrap().read_assembled().unwrap();
            let mut designed = design.realize(1_000_000).unwrap();
            streamed.sort();
            designed.sort();
            prop_assert_eq!(streamed, designed);
        }
    }
}
