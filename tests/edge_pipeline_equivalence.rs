//! The chunked expansion against the definition of the product.
//!
//! The chunked zero-allocation stream must be a pure optimisation: for any
//! design, worker count, and chunk capacity, the edges a raw-product
//! [`KroneckerSource`] run streams are exactly the edges of the full
//! `kron_coo` product, computed one entry at a time by the sparse substrate
//! (sorted-pair equality).  These tests pin
//! that invariant across every `SelfLoop` variant, worker counts
//! {1, 2, 4, 7}, chunk capacities {1, 3, 4096}, the empty-slice edge case,
//! and more workers than `B` triples — first on the paper-shaped
//! deterministic designs, then on randomly drawn star sets.

use extreme_graphs::gen::{EdgeChunk, SelfLoopPolicy};
use extreme_graphs::sparse::{kron_coo, CooMatrix, PlusTimes, SparseError};
use extreme_graphs::{EdgeSource, KroneckerDesign, KroneckerSource, SelfLoop, SourceRun};

/// Every worker's stream of the raw product `B ⊗ C` of `design` split after
/// its first constituent, through one reused chunk of `chunk_capacity`
/// edges: the slices each worker's sink saw, in order.
fn chunked(
    design: &KroneckerDesign,
    workers: usize,
    chunk_capacity: usize,
) -> Vec<Vec<Vec<(u64, u64)>>> {
    let (run, _) = KroneckerSource::new(design)
        .split_index(1)
        .self_loop_policy(SelfLoopPolicy::KeepRaw)
        .prepare(workers)
        .unwrap();
    let mut chunk = EdgeChunk::new(chunk_capacity);
    (0..workers)
        .map(|worker| {
            let mut slices = Vec::new();
            let produced = run
                .stream_worker::<SparseError, _>(worker, &mut chunk, |edges| {
                    slices.push(edges.to_vec());
                    Ok(())
                })
                .unwrap();
            assert_eq!(
                produced as usize,
                slices.iter().map(Vec::len).sum::<usize>()
            );
            slices
        })
        .collect()
}

/// All edges of [`chunked`], sorted.
fn chunked_sorted(
    design: &KroneckerDesign,
    workers: usize,
    chunk_capacity: usize,
) -> Vec<(u64, u64)> {
    let mut edges: Vec<(u64, u64)> = chunked(design, workers, chunk_capacity)
        .into_iter()
        .flatten()
        .flatten()
        .collect();
    edges.sort_unstable();
    edges
}

/// The oracle: the full product through `kron_coo`, which shares no code
/// with the streaming expansion.
fn product_sorted(design: &KroneckerDesign) -> Vec<(u64, u64)> {
    let (b, c) = factors(design);
    let full = kron_coo::<u64, PlusTimes>(&b, &c).expect("product fits");
    let mut edges: Vec<(u64, u64)> = full.iter().map(|(r, col, _)| (r, col)).collect();
    edges.sort_unstable();
    edges
}

fn factors(design: &KroneckerDesign) -> (CooMatrix<u64>, CooMatrix<u64>) {
    let (b_design, c_design) = design.split(1).unwrap();
    (
        b_design.realize_raw(100_000).unwrap(),
        c_design.realize_raw(100_000).unwrap(),
    )
}

#[test]
fn all_paths_agree_for_every_self_loop_variant() {
    for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], self_loop).unwrap();
        let expected = product_sorted(&design);
        for workers in [1usize, 2, 4, 7] {
            for chunk_capacity in [1usize, 3, 4096] {
                assert_eq!(
                    chunked_sorted(&design, workers, chunk_capacity),
                    expected,
                    "{self_loop:?}: {workers} workers, chunk {chunk_capacity}"
                );
            }
        }
    }
}

#[test]
fn more_workers_than_triples_still_agree() {
    let design = KroneckerDesign::from_star_points(&[2, 2], SelfLoop::Centre).unwrap();
    assert!(factors(&design).0.nnz() < 64);
    assert_eq!(
        chunked_sorted(&design, 64, 3),
        product_sorted(&design),
        "idle workers must contribute nothing"
    );
}

#[test]
fn empty_slice_is_a_clean_no_op_everywhere() {
    // Six `B` triples on eight workers leave two workers an empty slice:
    // they must not call their sink at all, not even with an empty chunk.
    let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
    let triples = factors(&design).0.nnz();
    for chunk_capacity in [1usize, 4096] {
        let per_worker = chunked(&design, 8, chunk_capacity);
        let idle = per_worker.iter().filter(|slices| slices.is_empty()).count();
        assert_eq!(idle, 8 - triples, "chunk {chunk_capacity}");
    }
}

mod random_designs {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn chunked_equals_per_edge_on_random_star_products(
            left_points in 2u64..6,
            right_points in 2u64..6,
            workers in 1usize..8,
            chunk_capacity in 1usize..5000,
            loop_choice in 0u8..3,
        ) {
            let self_loop = match loop_choice {
                0 => SelfLoop::None,
                1 => SelfLoop::Centre,
                _ => SelfLoop::Leaf,
            };
            let design =
                KroneckerDesign::from_star_points(&[left_points, right_points], self_loop).unwrap();
            prop_assert_eq!(
                chunked_sorted(&design, workers, chunk_capacity),
                product_sorted(&design)
            );
        }
    }
}
