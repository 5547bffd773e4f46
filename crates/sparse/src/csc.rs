//! Compressed sparse column (CSC) matrices.
//!
//! The paper's parallel generation algorithm (§V) hands each processor a
//! contiguous slice of the non-zero triples of `B` in CSC order.  `kron-gen`
//! never stores `B`: it keeps each of `B`'s factors in CSC form and computes
//! any triple of the product from their column pointers and row indices.

use serde::{Deserialize, Serialize};

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::semiring::{Scalar, Semiring};

/// A sparse matrix in compressed sparse column format.
///
/// Invariants mirror [`crate::CsrMatrix`] with rows and columns swapped:
/// `col_ptr.len() == ncols + 1`, row indices strictly increasing within each
/// column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CscMatrix<T> {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<T>,
}

impl<T: Scalar> CscMatrix<T> {
    /// Build from a COO matrix, combining duplicates with the semiring ⊕.
    pub fn from_coo<S: Semiring<T>>(coo: &CooMatrix<T>) -> Result<Self, SparseError> {
        let (nrows, ncols) = (coo.nrows() as usize, coo.ncols() as usize);
        let mut canonical = coo.clone();
        canonical.sum_duplicates::<S>();

        let mut col_ptr = vec![0usize; ncols + 1];
        for &c in canonical.col_indices() {
            col_ptr[c as usize + 1] += 1;
        }
        for i in 0..ncols {
            col_ptr[i + 1] += col_ptr[i];
        }
        let nnz = canonical.nnz();
        let mut row_idx = vec![0usize; nnz];
        let mut vals = vec![S::zero(); nnz];
        let mut cursor = col_ptr.clone();
        // canonical is row-major sorted, so filling column buckets in that
        // order keeps row indices increasing within each column.
        for (r, c, v) in canonical.iter() {
            let slot = cursor[c as usize];
            row_idx[slot] = r as usize;
            vals[slot] = v;
            cursor[c as usize] += 1;
        }
        Ok(CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            vals,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The column pointer array (`ncols + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The row indices and values of column `c`.
    pub fn col(&self, c: usize) -> (&[usize], &[T]) {
        let start = self.col_ptr[c];
        let end = self.col_ptr[c + 1];
        (&self.row_idx[start..end], &self.vals[start..end])
    }

    /// Number of stored entries in column `c`.
    pub fn col_nnz(&self, c: usize) -> usize {
        self.col_ptr[c + 1] - self.col_ptr[c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;

    fn sample() -> CscMatrix<u64> {
        let coo = CooMatrix::from_entries(
            3,
            4,
            vec![(0, 0, 1u64), (2, 0, 2), (1, 1, 3), (0, 3, 4), (2, 3, 5)],
        )
        .unwrap();
        CscMatrix::from_coo::<PlusTimes>(&coo).unwrap()
    }

    #[test]
    fn construction_and_column_access() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col_nnz(2), 0);
        assert_eq!(m.col(0), (&[0, 2][..], &[1, 2][..]));
        assert_eq!(m.col(2), (&[][..], &[][..]));
        assert_eq!(m.col(3), (&[0, 2][..], &[4, 5][..]));
        assert_eq!(m.col_ptr(), &[0, 2, 3, 3, 5]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::semiring::PlusTimes;
    use proptest::prelude::*;

    fn arb_coo() -> impl Strategy<Value = CooMatrix<u64>> {
        (1u64..12, 1u64..12).prop_flat_map(|(nr, nc)| {
            proptest::collection::vec((0..nr, 0..nc, 1u64..5), 0..40)
                .prop_map(move |es| CooMatrix::from_entries(nr, nc, es).unwrap())
        })
    }

    proptest! {
        #[test]
        fn csc_matches_coo_lookups(coo in arb_coo()) {
            let csc = CscMatrix::from_coo::<PlusTimes>(&coo).unwrap();
            let mut stored = 0;
            for c in 0..csc.ncols() {
                let (rows, vals) = csc.col(c);
                // kron-gen's `CscIndex` ranks a triple by its row within the
                // column, so rows must be strictly increasing there.
                prop_assert!(rows.windows(2).all(|pair| pair[0] < pair[1]));
                for r in 0..csc.nrows() {
                    let value = match rows.binary_search(&r) {
                        Ok(pos) => vals[pos],
                        Err(_) => 0,
                    };
                    prop_assert_eq!(value, coo.get::<PlusTimes>(r as u64, c as u64));
                }
                stored += rows.len();
            }
            prop_assert_eq!(stored, csc.nnz());
        }
    }
}
