//! Compressed sparse column (CSC) matrices.
//!
//! The paper's parallel generation algorithm (§V) is described in terms of
//! CSC storage: each processor takes a contiguous slice of the non-zero
//! triples of `B`, subtracts the minimum column index of its slice, and forms
//! a local matrix `Bp`.  CSC makes that column-oriented slicing natural.

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
    /// An empty (all-zero) matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CscMatrix {
            nrows,
            ncols,
            col_ptr: vec![0; ncols + 1],
            row_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

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

    /// The row index array.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// The value array.
    pub fn values(&self) -> &[T] {
        &self.vals
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

    /// Value at `(r, c)` or the semiring zero if absent.
    pub fn get<S: Semiring<T>>(&self, r: usize, c: usize) -> T {
        let (rows, vals) = self.col(c);
        match rows.binary_search(&r) {
            Ok(pos) => vals[pos],
            Err(_) => S::zero(),
        }
    }

    /// Iterate over stored entries in column-major order as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.ncols).flat_map(move |c| {
            let (rows, vals) = self.col(c);
            rows.iter().zip(vals.iter()).map(move |(&r, &v)| (r, c, v))
        })
    }

    /// Convert back to COO format.
    pub fn to_coo(&self) -> CooMatrix<T> {
        let mut out = CooMatrix::with_capacity(self.nrows as u64, self.ncols as u64, self.nnz());
        for (r, c, v) in self.iter() {
            out.push(r as u64, c as u64, v)
                // lint:allow(no-expect) -- indices were validated against the matrix dimensions at construction
                .expect("indices in bounds by invariant");
        }
        out
    }

    /// Extract the submatrix of columns `[col_start, col_end)` as a new CSC
    /// matrix whose column indices are shifted to start at zero.
    ///
    /// This is exactly the "subtract the minimum column index" step of the
    /// paper's per-processor split.
    pub fn column_slice(&self, col_start: usize, col_end: usize) -> CscMatrix<T> {
        assert!(
            col_start <= col_end && col_end <= self.ncols,
            "column slice out of range"
        );
        let width = col_end - col_start;
        let base = self.col_ptr[col_start];
        let mut col_ptr = Vec::with_capacity(width + 1);
        for c in col_start..=col_end {
            col_ptr.push(self.col_ptr[c] - base);
        }
        let row_idx = self.row_idx[self.col_ptr[col_start]..self.col_ptr[col_end]].to_vec();
        let vals = self.vals[self.col_ptr[col_start]..self.col_ptr[col_end]].to_vec();
        CscMatrix {
            nrows: self.nrows,
            ncols: width,
            col_ptr,
            row_idx,
            vals,
        }
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
        assert_eq!(m.col(0).0, &[0, 2]);
        assert_eq!(m.get::<PlusTimes>(2, 3), 5);
        assert_eq!(m.get::<PlusTimes>(1, 3), 0);
    }

    #[test]
    fn round_trip_through_coo() {
        let m = sample();
        let back = CscMatrix::from_coo::<PlusTimes>(&m.to_coo()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn column_slice_shifts_indices() {
        let m = sample();
        let slice = m.column_slice(3, 4);
        assert_eq!(slice.ncols(), 1);
        assert_eq!(slice.nrows(), 3);
        assert_eq!(slice.nnz(), 2);
        assert_eq!(slice.get::<PlusTimes>(0, 0), 4);
        assert_eq!(slice.get::<PlusTimes>(2, 0), 5);

        let empty = m.column_slice(2, 2);
        assert_eq!(empty.ncols(), 0);
        assert_eq!(empty.nnz(), 0);

        let full = m.column_slice(0, 4);
        assert_eq!(full.nnz(), m.nnz());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_slice_out_of_range_panics() {
        let _ = sample().column_slice(2, 9);
    }

    #[test]
    fn iter_is_column_major() {
        let m = sample();
        let cols: Vec<usize> = m.iter().map(|(_, c, _)| c).collect();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        assert_eq!(cols, sorted);
    }

    #[test]
    fn zeros_matrix() {
        let m = CscMatrix::<u64>::zeros(2, 3);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.col(1).0.len(), 0);
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
            for r in 0..coo.nrows() {
                for c in 0..coo.ncols() {
                    prop_assert_eq!(
                        csc.get::<PlusTimes>(r as usize, c as usize),
                        coo.get::<PlusTimes>(r, c)
                    );
                }
            }
        }

        #[test]
        fn column_slices_partition_nnz(coo in arb_coo()) {
            let csc = CscMatrix::from_coo::<PlusTimes>(&coo).unwrap();
            let mid = csc.ncols() / 2;
            let left = csc.column_slice(0, mid);
            let right = csc.column_slice(mid, csc.ncols());
            prop_assert_eq!(left.nnz() + right.nnz(), csc.nnz());
        }
    }
}
