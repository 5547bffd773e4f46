//! Compressed sparse row (CSR) matrices.
//!
//! CSR gives O(1) access to a row's entries, which is what SpGEMM, SpMV, and
//! triangle counting need.  CSR matrices are always fully materialised, so
//! dimensions are `usize`; under the crate's 64-bit contract that is as wide
//! as the `u64` indices of [`CooMatrix`], so conversion loses nothing.

use serde::{Deserialize, Serialize};

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::semiring::{Scalar, Semiring};

/// A sparse matrix in compressed sparse row format.
///
/// Invariants (maintained by all constructors):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, monotone non-decreasing;
/// * `col_idx.len() == vals.len() == row_ptr[nrows]`;
/// * within each row, column indices are strictly increasing (canonical form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// An empty (all-zero) matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Build from a COO matrix, combining duplicates with the semiring ⊕.
    pub fn from_coo<S: Semiring<T>>(coo: &CooMatrix<T>) -> Result<Self, SparseError> {
        let (nrows, ncols) = (coo.nrows() as usize, coo.ncols() as usize);
        let mut canonical = coo.clone();
        canonical.sum_duplicates::<S>();

        let mut row_ptr = vec![0usize; nrows + 1];
        for &r in canonical.row_indices() {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = canonical.nnz();
        let mut col_idx = vec![0usize; nnz];
        let mut vals = vec![S::zero(); nnz];
        let mut cursor = row_ptr.clone();
        for (r, c, v) in canonical.iter() {
            let slot = cursor[r as usize];
            col_idx[slot] = c as usize;
            vals[slot] = v;
            cursor[r as usize] += 1;
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Build directly from raw CSR arrays (validated).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<T>,
    ) -> Result<Self, SparseError> {
        if row_ptr.len() != nrows + 1 || row_ptr.first() != Some(&0) {
            return Err(SparseError::Parse {
                line: 0,
                message: "row_ptr must have nrows+1 entries starting at 0".into(),
            });
        }
        if col_idx.len() != vals.len() || row_ptr.last() != Some(&col_idx.len()) {
            return Err(SparseError::Parse {
                line: 0,
                message: "col_idx/vals length must equal row_ptr[nrows]".into(),
            });
        }
        for w in row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::Parse {
                    line: 0,
                    message: "row_ptr must be monotone".into(),
                });
            }
        }
        for r in 0..nrows {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for pair in row.windows(2) {
                if pair[1] <= pair[0] {
                    return Err(SparseError::Parse {
                        line: 0,
                        message: format!("row {r} column indices not strictly increasing"),
                    });
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r as u64,
                        col: last as u64,
                        nrows: nrows as u64,
                        ncols: ncols as u64,
                    });
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
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

    /// The row pointer array (`nrows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The value array.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// The column indices and values of row `r`.
    pub fn row(&self, r: usize) -> (&[usize], &[T]) {
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        (&self.col_idx[start..end], &self.vals[start..end])
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Value at `(r, c)` or the semiring zero if absent.
    pub fn get<S: Semiring<T>>(&self, r: usize, c: usize) -> T {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(pos) => vals[pos],
            Err(_) => S::zero(),
        }
    }

    /// Iterate over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals.iter()).map(move |(&c, &v)| (r, c, v))
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

    /// Transpose via a counting pass (produces canonical CSR).
    pub fn transpose(&self) -> CsrMatrix<T>
    where
        T: Default,
    {
        let mut col_counts = vec![0usize; self.ncols];
        for &c in &self.col_idx {
            col_counts[c] += 1;
        }
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for c in 0..self.ncols {
            row_ptr[c + 1] = row_ptr[c] + col_counts[c];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut vals = vec![T::default(); self.nnz()];
        let mut cursor = row_ptr.clone();
        for (r, c, v) in self.iter() {
            let slot = cursor[c];
            col_idx[slot] = r;
            vals[slot] = v;
            cursor[c] += 1;
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Whether the sparsity pattern and values are symmetric.
    pub fn is_symmetric(&self) -> bool
    where
        T: Default,
    {
        self.nrows == self.ncols && self.transpose() == *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;

    fn star4() -> CsrMatrix<u64> {
        // Undirected star with centre 0 and leaves 1..3.
        let coo = CooMatrix::from_edges(4, 4, vec![(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])
            .unwrap();
        CsrMatrix::from_coo::<PlusTimes>(&coo).unwrap()
    }

    #[test]
    fn from_coo_builds_canonical_form() {
        let m = star4();
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.row_nnz(0), 3);
        assert_eq!(m.row_nnz(1), 1);
        assert_eq!(m.row(0).0, &[1, 2, 3]);
        assert_eq!(m.get::<PlusTimes>(0, 2), 1);
        assert_eq!(m.get::<PlusTimes>(1, 2), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let coo = CooMatrix::from_entries(2, 2, vec![(0, 1, 2u64), (0, 1, 3)]).unwrap();
        let m = CsrMatrix::from_coo::<PlusTimes>(&coo).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get::<PlusTimes>(0, 1), 5);
    }

    #[test]
    fn zeros_matrix() {
        let m = CsrMatrix::<u64>::zeros(3, 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 5);
        assert_eq!(m.row(2).0.len(), 0);
    }

    #[test]
    fn round_trip_through_coo() {
        let m = star4();
        let back = CsrMatrix::from_coo::<PlusTimes>(&m.to_coo()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn transpose_and_symmetry() {
        let m = star4();
        assert!(m.is_symmetric());
        let coo = CooMatrix::from_edges(3, 3, vec![(0, 1), (1, 2)]).unwrap();
        let asym = CsrMatrix::from_coo::<PlusTimes>(&coo).unwrap();
        assert!(!asym.is_symmetric());
        let t = asym.transpose();
        assert_eq!(t.get::<PlusTimes>(1, 0), 1);
        assert_eq!(t.get::<PlusTimes>(2, 1), 1);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn from_raw_validates() {
        // Valid 2x2 identity.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1u64, 1]).is_ok());
        // Bad row_ptr length.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1u64]).is_err());
        // Non-monotone row_ptr.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1u64, 1]).is_err());
        // Unsorted columns within a row.
        assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1u64, 1]).is_err());
        // Column out of bounds.
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1u64]).is_err());
        // Length mismatch.
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 2], vec![0], vec![1u64]).is_err());
    }

    #[test]
    fn iter_yields_row_major_entries() {
        let m = star4();
        let entries: Vec<(usize, usize, u64)> = m.iter().collect();
        assert_eq!(entries[0], (0, 1, 1));
        assert_eq!(entries.len(), 6);
        assert!(entries
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::semiring::PlusTimes;
    use proptest::prelude::*;

    fn arb_coo() -> impl Strategy<Value = CooMatrix<u64>> {
        (1u64..16, 1u64..16).prop_flat_map(|(nr, nc)| {
            proptest::collection::vec((0..nr, 0..nc, 1u64..5), 0..50)
                .prop_map(move |es| CooMatrix::from_entries(nr, nc, es).unwrap())
        })
    }

    proptest! {
        #[test]
        fn csr_matches_coo_lookups(coo in arb_coo()) {
            let csr = CsrMatrix::from_coo::<PlusTimes>(&coo).unwrap();
            for r in 0..coo.nrows() {
                for c in 0..coo.ncols() {
                    prop_assert_eq!(
                        csr.get::<PlusTimes>(r as usize, c as usize),
                        coo.get::<PlusTimes>(r, c)
                    );
                }
            }
        }

        #[test]
        fn transpose_involution(coo in arb_coo()) {
            let csr = CsrMatrix::from_coo::<PlusTimes>(&coo).unwrap();
            prop_assert_eq!(csr.transpose().transpose(), csr);
        }

        #[test]
        fn row_nnz_sums_to_nnz(coo in arb_coo()) {
            let csr = CsrMatrix::from_coo::<PlusTimes>(&coo).unwrap();
            let total: usize = (0..csr.nrows()).map(|r| csr.row_nnz(r)).sum();
            prop_assert_eq!(total, csr.nnz());
        }
    }
}
