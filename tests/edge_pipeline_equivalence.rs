//! The chunked expansion against the definition of the product.
//!
//! The chunked zero-allocation stream must be a pure optimisation: for any
//! design, worker count, and chunk capacity, the edges it produces are
//! exactly the edges of the full `kron_coo` product, computed one entry at a
//! time by the sparse substrate (sorted-pair equality).  These tests pin
//! that invariant across every `SelfLoop` variant, worker counts
//! {1, 2, 4, 7}, chunk capacities {1, 3, 4096}, the empty-slice edge case,
//! and more workers than `B` triples — first on the paper-shaped
//! deterministic designs, then on randomly drawn star sets.

use extreme_graphs::gen::partition::{csc_ordered_triples, Partition};
use extreme_graphs::gen::{stream_block_edges_into, EdgeChunk};
use extreme_graphs::sparse::{kron_coo, CooMatrix, PlusTimes};
use extreme_graphs::{KroneckerDesign, SelfLoop};

/// All edges of `B ⊗ C`, streamed in `workers` slices through chunks of
/// `chunk_capacity` edges, sorted.
fn chunked_sorted(
    triples: &[(u64, u64, u64)],
    c: &CooMatrix<u64>,
    workers: usize,
    chunk_capacity: usize,
) -> Vec<(u64, u64)> {
    let partition = Partition::even(triples.len(), workers);
    let mut edges: Vec<(u64, u64)> = Vec::new();
    let mut chunk = EdgeChunk::new(chunk_capacity);
    for worker in 0..workers {
        let before = edges.len();
        let slice = &triples[partition.range(worker)];
        let produced =
            stream_block_edges_into(slice, c, &mut chunk, |run| edges.extend_from_slice(run));
        assert_eq!(produced as usize, edges.len() - before);
    }
    edges.sort_unstable();
    edges
}

/// The oracle: the full product through `kron_coo`, which shares no code
/// with the streaming expansion.
fn product_sorted(b: &CooMatrix<u64>, c: &CooMatrix<u64>) -> Vec<(u64, u64)> {
    let full = kron_coo::<u64, PlusTimes>(b, c).expect("product fits");
    let mut edges: Vec<(u64, u64)> = full.iter().map(|(r, col, _)| (r, col)).collect();
    edges.sort_unstable();
    edges
}

fn factors(points: &[u64], self_loop: SelfLoop) -> (CooMatrix<u64>, CooMatrix<u64>) {
    let design = KroneckerDesign::from_star_points(points, self_loop).unwrap();
    let (b_design, c_design) = design.split(1).unwrap();
    (
        b_design.realize_raw(100_000).unwrap(),
        c_design.realize_raw(100_000).unwrap(),
    )
}

#[test]
fn all_paths_agree_for_every_self_loop_variant() {
    for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
        let (b, c) = factors(&[3, 4, 5], self_loop);
        let triples = csc_ordered_triples(&b);
        let expected = product_sorted(&b, &c);
        for workers in [1usize, 2, 4, 7] {
            for chunk_capacity in [1usize, 3, 4096] {
                assert_eq!(
                    chunked_sorted(&triples, &c, workers, chunk_capacity),
                    expected,
                    "{self_loop:?}: {workers} workers, chunk {chunk_capacity}"
                );
            }
        }
    }
}

#[test]
fn more_workers_than_triples_still_agree() {
    let (b, c) = factors(&[2, 2], SelfLoop::Centre);
    let triples = csc_ordered_triples(&b);
    assert!(triples.len() < 64);
    assert_eq!(
        chunked_sorted(&triples, &c, 64, 3),
        product_sorted(&b, &c),
        "idle workers must contribute nothing"
    );
}

#[test]
fn empty_slice_is_a_clean_no_op_everywhere() {
    let (_, c) = factors(&[3, 4], SelfLoop::None);
    for chunk_capacity in [1usize, 4096] {
        assert_eq!(chunked_sorted(&[], &c, 1, chunk_capacity), Vec::new());
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
            let (b, c) = factors(&[left_points, right_points], self_loop);
            let triples = csc_ordered_triples(&b);
            prop_assert_eq!(
                chunked_sorted(&triples, &c, workers, chunk_capacity),
                product_sorted(&b, &c)
            );
        }
    }
}
