//! Structural selection: diagonals, self-loop handling, and the structural
//! predicates of a clean adjacency matrix.
//!
//! The paper's triangle-rich graphs are built by *adding* a self-loop to each
//! constituent star and then *removing* the single surviving self-loop from
//! the product.  These helpers split a matrix into its diagonal and the rest,
//! and check the invariants the paper advertises for generated graphs.

use crate::coo::CooMatrix;
use crate::semiring::{PlusTimes, Scalar, Semiring};

/// Return a copy of `m` without any diagonal entries (self-loops).
pub fn strip_diagonal<T: Scalar>(m: &CooMatrix<T>) -> CooMatrix<T> {
    m.filter(|r, c, _| r != c)
}

/// Return a copy of `m` containing only its diagonal entries.
pub fn diagonal<T: Scalar>(m: &CooMatrix<T>) -> CooMatrix<T> {
    m.filter(|r, c, _| r == c)
}

/// Indices of rows with no stored entries in either the row or the column
/// direction ("empty vertices" in the paper's terminology).
pub fn empty_vertices<T: Scalar>(m: &CooMatrix<T>) -> Vec<u64> {
    assert!(
        m.is_square(),
        "empty_vertices requires a square adjacency matrix"
    );
    let mut touched = vec![false; m.nrows() as usize];
    for (r, c, _) in m.iter() {
        touched[r as usize] = true;
        touched[c as usize] = true;
    }
    touched
        .iter()
        .enumerate()
        .filter_map(|(i, &t)| if t { None } else { Some(i as u64) })
        .collect()
}

/// Number of self-loop entries (stored diagonal entries) in the matrix.
pub fn self_loop_count<T: Scalar>(m: &CooMatrix<T>) -> usize {
    m.diagonal_nnz()
}

/// Check that the pattern contains no duplicate coordinates.
pub fn has_duplicates<T: Scalar>(m: &CooMatrix<T>) -> bool {
    let mut coords: Vec<(u64, u64)> = m.iter().map(|(r, c, _)| (r, c)).collect();
    let before = coords.len();
    coords.sort_unstable();
    coords.dedup();
    coords.len() != before
}

/// Convenience: canonical simple-graph form — duplicates combined, diagonal
/// stripped, result returned as a fresh matrix.
pub fn simplify(m: &CooMatrix<u64>) -> CooMatrix<u64> {
    let mut out = strip_diagonal(m);
    out.sum_duplicates::<PlusTimes>();
    out
}

/// Check the structural invariants the paper advertises for generated graphs:
/// no empty vertices, no self-loops, no duplicate edges.
pub fn is_clean_adjacency<T: Scalar>(m: &CooMatrix<T>) -> bool
where
    PlusTimes: Semiring<T>,
{
    m.is_square() && self_loop_count(m) == 0 && !has_duplicates(m) && empty_vertices(m).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix<u64> {
        CooMatrix::from_entries(
            4,
            4,
            vec![
                (0, 0, 1),
                (0, 1, 2),
                (1, 0, 2),
                (2, 2, 3),
                (3, 1, 4),
                (1, 3, 4),
            ],
        )
        .unwrap()
    }

    #[test]
    fn strip_and_extract_diagonal() {
        let m = sample();
        let stripped = strip_diagonal(&m);
        assert_eq!(stripped.nnz(), 4);
        assert_eq!(self_loop_count(&stripped), 0);
        let diag = diagonal(&m);
        assert_eq!(diag.nnz(), 2);
        assert_eq!(diag.get::<PlusTimes>(2, 2), 3);
    }

    #[test]
    fn empty_vertex_detection() {
        let m = CooMatrix::from_edges(5, 5, vec![(0, 1), (1, 0), (3, 3)]).unwrap();
        assert_eq!(empty_vertices(&m), vec![2, 4]);
        let full = CooMatrix::from_edges(2, 2, vec![(0, 1), (1, 0)]).unwrap();
        assert!(empty_vertices(&full).is_empty());
    }

    #[test]
    fn duplicate_detection_and_simplify() {
        let m = CooMatrix::from_entries(3, 3, vec![(0, 1, 1u64), (0, 1, 1), (1, 1, 1), (1, 0, 1)])
            .unwrap();
        assert!(has_duplicates(&m));
        let simple = simplify(&m);
        assert!(!has_duplicates(&simple));
        assert_eq!(self_loop_count(&simple), 0);
        assert_eq!(simple.get::<PlusTimes>(0, 1), 2);
    }

    #[test]
    fn clean_adjacency_invariants() {
        let clean =
            CooMatrix::from_edges(3, 3, vec![(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
                .unwrap();
        assert!(is_clean_adjacency(&clean));
        let mut with_loop = clean.clone();
        with_loop.push(0, 0, 1).unwrap();
        assert!(!is_clean_adjacency(&with_loop));
        let with_empty = CooMatrix::from_edges(4, 4, vec![(0, 1), (1, 0)]).unwrap();
        assert!(!is_clean_adjacency(&with_empty));
        let rect = CooMatrix::from_edges(2, 3, vec![(0, 1)]).unwrap();
        assert!(!is_clean_adjacency(&rect));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_coo() -> impl Strategy<Value = CooMatrix<u64>> {
        (2u64..12).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n, 1u64..3), 0..40)
                .prop_map(move |es| CooMatrix::from_entries(n, n, es).unwrap())
        })
    }

    proptest! {
        #[test]
        fn diagonal_partition(m in arb_coo()) {
            let on = diagonal(&m).nnz();
            let off = strip_diagonal(&m).nnz();
            prop_assert_eq!(on + off, m.nnz());
        }

        #[test]
        fn simplify_is_idempotent(m in arb_coo()) {
            let once = simplify(&m);
            let twice = simplify(&once);
            prop_assert_eq!(once, twice);
        }
    }
}
