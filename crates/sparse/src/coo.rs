//! Coordinate-format (triple) sparse matrices.
//!
//! COO is the working format of the paper's generator: every processor holds
//! its block of the final graph as a list of `(row, col, value)` triples, and
//! Kronecker products are most naturally expressed triple-by-triple.  Indices
//! are `u64` so a block can address the full vertex space of a multi-billion
//! vertex graph even though the block itself is small.

use serde::{Deserialize, Serialize};

use crate::error::SparseError;
use crate::semiring::{PlusTimes, Scalar, Semiring};

/// A single stored entry of a [`CooMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Triple<T> {
    /// Row index (0-based).
    pub row: u64,
    /// Column index (0-based).
    pub col: u64,
    /// Stored value.
    pub val: T,
}

/// A sparse matrix in coordinate (triple) format.
///
/// Entries are not required to be sorted or unique; [`CooMatrix::sum_duplicates`]
/// and [`CooMatrix::sort`] establish canonical form when needed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooMatrix<T> {
    nrows: u64,
    ncols: u64,
    rows: Vec<u64>,
    cols: Vec<u64>,
    vals: Vec<T>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Create an empty matrix with the given dimensions.
    pub fn new(nrows: u64, ncols: u64) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Create an empty matrix with preallocated capacity for `cap` entries.
    pub fn with_capacity(nrows: u64, ncols: u64, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Build a matrix from parallel triple vectors.
    ///
    /// Returns an error if any index is out of bounds or the vectors have
    /// mismatched lengths.
    pub fn from_triples(
        nrows: u64,
        ncols: u64,
        rows: Vec<u64>,
        cols: Vec<u64>,
        vals: Vec<T>,
    ) -> Result<Self, SparseError> {
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(SparseError::Parse {
                line: 0,
                message: format!(
                    "triple vectors have mismatched lengths: {} rows, {} cols, {} vals",
                    rows.len(),
                    cols.len(),
                    vals.len()
                ),
            });
        }
        for (&r, &c) in rows.iter().zip(cols.iter()) {
            if r >= nrows || c >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    nrows,
                    ncols,
                });
            }
        }
        Ok(CooMatrix {
            nrows,
            ncols,
            rows,
            cols,
            vals,
        })
    }

    /// Build a matrix from an iterator of entries.
    pub fn from_entries<I>(nrows: u64, ncols: u64, entries: I) -> Result<Self, SparseError>
    where
        I: IntoIterator<Item = (u64, u64, T)>,
    {
        let mut m = CooMatrix::new(nrows, ncols);
        for (r, c, v) in entries {
            m.push(r, c, v)?;
        }
        Ok(m)
    }

    /// The identity matrix of size `n` (ones on the diagonal).
    pub fn identity(n: u64) -> Self
    where
        PlusTimes: Semiring<T>,
    {
        let diagonal: Vec<u64> = (0..n).collect();
        CooMatrix {
            nrows: n,
            ncols: n,
            rows: diagonal.clone(),
            vals: vec![<PlusTimes as Semiring<T>>::one(); diagonal.len()],
            cols: diagonal,
        }
    }

    /// Append one entry.
    pub fn push(&mut self, row: u64, col: u64, val: T) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
    }

    /// Reserve capacity for at least `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
        self.cols.reserve(additional);
        self.vals.reserve(additional);
    }

    /// Remove every stored entry, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Bulk-append triples from parallel slices, validating lengths and
    /// bounds up front (one pass over the indices, no per-entry branch in the
    /// copy itself).  This is the safe wrapper around
    /// [`CooMatrix::extend_from_triples_unchecked`].
    pub fn extend_from_triples(
        &mut self,
        rows: &[u64],
        cols: &[u64],
        vals: &[T],
    ) -> Result<(), SparseError> {
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(SparseError::Parse {
                line: 0,
                message: format!(
                    "triple slices have mismatched lengths: {} rows, {} cols, {} vals",
                    rows.len(),
                    cols.len(),
                    vals.len()
                ),
            });
        }
        for (&r, &c) in rows.iter().zip(cols.iter()) {
            if r >= self.nrows || c >= self.ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    nrows: self.nrows,
                    ncols: self.ncols,
                });
            }
        }
        self.extend_from_triples_unchecked(rows, cols, vals);
        Ok(())
    }

    /// Bulk-append triples from parallel slices without validating indices.
    ///
    /// This is the generation hot path: the Kronecker expansion produces
    /// indices that are within the product dimensions by construction, so the
    /// per-edge bounds check of [`CooMatrix::push`] is pure overhead there.
    /// Out-of-bounds indices are debug-asserted; in release builds they are
    /// stored as-is and will surface through the checked consumers.
    pub fn extend_from_triples_unchecked(&mut self, rows: &[u64], cols: &[u64], vals: &[T]) {
        debug_assert_eq!(rows.len(), cols.len(), "parallel triple slices must match");
        debug_assert_eq!(rows.len(), vals.len(), "parallel triple slices must match");
        debug_assert!(
            rows.iter()
                .zip(cols.iter())
                .all(|(&r, &c)| r < self.nrows && c < self.ncols),
            "unchecked extend received out-of-bounds indices"
        );
        self.rows.extend_from_slice(rows);
        self.cols.extend_from_slice(cols);
        self.vals.extend_from_slice(vals);
    }

    /// Number of rows.
    pub fn nrows(&self) -> u64 {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> u64 {
        self.ncols
    }

    /// Number of stored entries (including any duplicates or explicit zeros).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Whether the matrix stores no entries.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Borrow the row index slice.
    pub fn row_indices(&self) -> &[u64] {
        &self.rows
    }

    /// Borrow the column index slice.
    pub fn col_indices(&self) -> &[u64] {
        &self.cols
    }

    /// Borrow the value slice.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Iterate over stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, T)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.vals.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Iterate over stored entries as [`Triple`]s.
    pub fn triples(&self) -> impl Iterator<Item = Triple<T>> + '_ {
        self.iter().map(|(row, col, val)| Triple { row, col, val })
    }

    /// Look up the value at `(row, col)`, combining duplicates with ⊕.
    /// Linear scan — intended for tests and small constituent matrices.
    pub fn get<S: Semiring<T>>(&self, row: u64, col: u64) -> T {
        let mut acc = S::zero();
        for (r, c, v) in self.iter() {
            if r == row && c == col {
                acc = S::add(acc, v);
            }
        }
        acc
    }

    /// Apply a function to every stored value, producing a new matrix.
    pub fn map_values<U: Scalar>(&self, f: impl Fn(T) -> U) -> CooMatrix<U> {
        CooMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rows: self.rows.clone(),
            cols: self.cols.clone(),
            vals: self.vals.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Keep only entries satisfying the predicate.
    pub fn filter(&self, keep: impl Fn(u64, u64, T) -> bool) -> CooMatrix<T> {
        let mut out = CooMatrix::new(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            if keep(r, c, v) {
                out.rows.push(r);
                out.cols.push(c);
                out.vals.push(v);
            }
        }
        out
    }

    /// Transpose (swap rows and columns).
    pub fn transpose(&self) -> CooMatrix<T> {
        CooMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            rows: self.cols.clone(),
            cols: self.rows.clone(),
            vals: self.vals.clone(),
        }
    }

    /// Sort entries into row-major (row, then column) order.
    pub fn sort(&mut self) {
        let mut order: Vec<usize> = (0..self.nnz()).collect();
        order.sort_unstable_by_key(|&i| (self.rows[i], self.cols[i]));
        self.rows = order.iter().map(|&i| self.rows[i]).collect();
        self.cols = order.iter().map(|&i| self.cols[i]).collect();
        self.vals = order.iter().map(|&i| self.vals[i]).collect();
    }

    /// Sort and combine duplicate coordinates with the semiring ⊕, dropping
    /// entries that become the additive identity.
    pub fn sum_duplicates<S: Semiring<T>>(&mut self) {
        self.sort();
        let mut merged: Vec<(u64, u64, T)> = Vec::with_capacity(self.nnz());
        for (r, c, v) in self.iter() {
            match merged.last_mut() {
                Some((lr, lc, last)) if *lr == r && *lc == c => *last = S::add(*last, v),
                _ => merged.push((r, c, v)),
            }
        }
        // Drop entries that cancelled to the additive identity.
        merged.retain(|&(_, _, v)| !S::is_zero(v));
        self.rows = merged.iter().map(|&(r, _, _)| r).collect();
        self.cols = merged.iter().map(|&(_, c, _)| c).collect();
        self.vals = merged.iter().map(|&(_, _, v)| v).collect();
    }

    /// Whether the stored pattern is symmetric (requires canonical form for a
    /// reliable answer; duplicates are combined with ⊕ internally).
    pub fn is_symmetric<S: Semiring<T>>(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        let mut canonical = self.clone();
        canonical.sum_duplicates::<S>();
        let mut transposed = canonical.transpose();
        transposed.sum_duplicates::<S>();
        canonical == transposed
    }

    /// Number of stored entries on the main diagonal.
    pub fn diagonal_nnz(&self) -> usize {
        self.iter().filter(|&(r, c, _)| r == c).count()
    }

    /// Append all entries of `other`, which must have the same dimensions.
    pub fn append(&mut self, other: &CooMatrix<T>) -> Result<(), SparseError> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "append",
                left: (self.nrows, self.ncols),
                right: (other.nrows, other.ncols),
            });
        }
        self.rows.extend_from_slice(&other.rows);
        self.cols.extend_from_slice(&other.cols);
        self.vals.extend_from_slice(&other.vals);
        Ok(())
    }

    /// Convert to a dense row-major `Vec<Vec<T>>` (tests and tiny examples
    /// only; returns an error if dimensions exceed `max_dense` entries).
    pub fn to_dense<S: Semiring<T>>(&self, max_dense: usize) -> Result<Vec<Vec<T>>, SparseError> {
        let total = self.nrows as u128 * self.ncols as u128;
        if total > max_dense as u128 {
            return Err(SparseError::TooLarge {
                what: "dense conversion",
                requested: total,
            });
        }
        let nrows = self.nrows as usize;
        let ncols = self.ncols as usize;
        let mut dense = vec![vec![S::zero(); ncols]; nrows];
        for (r, c, v) in self.iter() {
            let cell = &mut dense[r as usize][c as usize];
            *cell = S::add(*cell, v);
        }
        Ok(dense)
    }
}

impl CooMatrix<u64> {
    /// Convenience constructor for unweighted (all-ones) adjacency matrices
    /// from an edge list.
    pub fn from_edges(
        nrows: u64,
        ncols: u64,
        edges: impl IntoIterator<Item = (u64, u64)>,
    ) -> Result<Self, SparseError> {
        CooMatrix::from_entries(nrows, ncols, edges.into_iter().map(|(r, c)| (r, c, 1u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix<u64> {
        CooMatrix::from_entries(3, 3, vec![(0, 1, 1), (1, 0, 1), (2, 2, 5), (0, 1, 2)]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 4);
        assert!(m.is_square());
        assert!(!m.is_empty());
        assert_eq!(m.get::<PlusTimes>(0, 1), 3); // duplicates combined
        assert_eq!(m.get::<PlusTimes>(1, 1), 0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = CooMatrix::<u64>::new(2, 2);
        assert!(m.push(2, 0, 1).is_err());
        assert!(m.push(0, 2, 1).is_err());
        assert!(m.push(1, 1, 1).is_ok());
        assert!(CooMatrix::from_triples(2, 2, vec![5], vec![0], vec![1u64]).is_err());
        assert!(CooMatrix::from_triples(2, 2, vec![0, 1], vec![0], vec![1u64]).is_err());
    }

    #[test]
    fn sum_duplicates_combines_and_drops_zeros() {
        let mut m = CooMatrix::from_entries(
            2,
            2,
            vec![(0, 0, 1i64), (0, 0, 2), (1, 1, 5), (1, 1, -5), (0, 1, 0)],
        )
        .unwrap();
        m.sum_duplicates::<PlusTimes>();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get::<PlusTimes>(0, 0), 3);
        assert_eq!(m.get::<PlusTimes>(1, 1), 0);
    }

    #[test]
    fn sort_orders_row_major() {
        let mut m =
            CooMatrix::from_entries(3, 3, vec![(2, 0, 1u64), (0, 2, 1), (0, 1, 1), (1, 1, 1)])
                .unwrap();
        m.sort();
        let coords: Vec<(u64, u64)> = m.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(coords, vec![(0, 1), (0, 2), (1, 1), (2, 0)]);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let m = CooMatrix::from_entries(2, 3, vec![(0, 2, 7u64), (1, 0, 9)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get::<PlusTimes>(2, 0), 7);
        assert_eq!(t.get::<PlusTimes>(0, 1), 9);
    }

    #[test]
    fn symmetry_detection() {
        let sym = CooMatrix::from_edges(3, 3, vec![(0, 1), (1, 0), (2, 2)]).unwrap();
        assert!(sym.is_symmetric::<PlusTimes>());
        let asym = CooMatrix::from_edges(3, 3, vec![(0, 1)]).unwrap();
        assert!(!asym.is_symmetric::<PlusTimes>());
        let rect = CooMatrix::from_edges(2, 3, vec![(0, 1)]).unwrap();
        assert!(!rect.is_symmetric::<PlusTimes>());
    }

    #[test]
    fn identity_and_diagonal() {
        let eye = CooMatrix::<u64>::identity(4);
        assert_eq!(eye.nnz(), 4);
        assert_eq!(eye.diagonal_nnz(), 4);
        assert!(eye.is_symmetric::<PlusTimes>());
    }

    #[test]
    fn map_filter_append() {
        let m = sample();
        let doubled = m.map_values(|v| v * 2);
        assert_eq!(doubled.get::<PlusTimes>(2, 2), 10);
        let only_diag = m.filter(|r, c, _| r == c);
        assert_eq!(only_diag.nnz(), 1);
        let mut acc = CooMatrix::<u64>::new(3, 3);
        acc.append(&m).unwrap();
        acc.append(&only_diag).unwrap();
        assert_eq!(acc.nnz(), 5);
        let wrong = CooMatrix::<u64>::new(2, 2);
        assert!(acc.append(&wrong).is_err());
    }

    #[test]
    fn dense_conversion() {
        let m = sample();
        let d = m.to_dense::<PlusTimes>(100).unwrap();
        assert_eq!(d[0][1], 3);
        assert_eq!(d[2][2], 5);
        assert_eq!(d[1][1], 0);
        assert!(m.to_dense::<PlusTimes>(2).is_err());
    }

    #[test]
    fn bulk_extend_matches_pushes() {
        let mut pushed = CooMatrix::<u64>::new(4, 4);
        let mut extended = CooMatrix::<u64>::new(4, 4);
        let (rows, cols, vals) = ([0u64, 1, 3], [1u64, 2, 0], [5u64, 6, 7]);
        for i in 0..3 {
            pushed.push(rows[i], cols[i], vals[i]).unwrap();
        }
        extended.extend_from_triples(&rows, &cols, &vals).unwrap();
        assert_eq!(extended, pushed);
        let mut unchecked = CooMatrix::<u64>::new(4, 4);
        unchecked.extend_from_triples_unchecked(&rows, &cols, &vals);
        assert_eq!(unchecked, pushed);
    }

    #[test]
    fn bulk_extend_rejects_bad_input() {
        let mut m = CooMatrix::<u64>::new(2, 2);
        assert!(m.extend_from_triples(&[0], &[0, 1], &[1]).is_err());
        assert!(m.extend_from_triples(&[5], &[0], &[1]).is_err());
        assert!(m.extend_from_triples(&[0], &[5], &[1]).is_err());
        assert_eq!(m.nnz(), 0, "failed extends must not append anything");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_coo() -> impl Strategy<Value = CooMatrix<u64>> {
        (1u64..20, 1u64..20).prop_flat_map(|(nr, nc)| {
            let entries = proptest::collection::vec((0..nr, 0..nc, 1u64..10), 0..60);
            entries.prop_map(move |es| CooMatrix::from_entries(nr, nc, es).unwrap())
        })
    }

    proptest! {
        #[test]
        fn transpose_involution(m in arb_coo()) {
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn sum_duplicates_preserves_total(m in arb_coo()) {
            let before: u64 = m.values().iter().sum();
            let mut canonical = m.clone();
            canonical.sum_duplicates::<PlusTimes>();
            let after: u64 = canonical.values().iter().sum();
            prop_assert_eq!(before, after);
        }

        #[test]
        fn sum_duplicates_has_unique_coordinates(m in arb_coo()) {
            let mut canonical = m;
            canonical.sum_duplicates::<PlusTimes>();
            let mut coords: Vec<(u64, u64)> =
                canonical.iter().map(|(r, c, _)| (r, c)).collect();
            let len = coords.len();
            coords.sort_unstable();
            coords.dedup();
            prop_assert_eq!(coords.len(), len);
        }

        #[test]
        fn get_matches_dense(m in arb_coo()) {
            let dense = m.to_dense::<PlusTimes>(10_000).unwrap();
            for (i, row) in dense.iter().enumerate() {
                for (j, &val) in row.iter().enumerate() {
                    prop_assert_eq!(m.get::<PlusTimes>(i as u64, j as u64), val);
                }
            }
        }
    }
}
