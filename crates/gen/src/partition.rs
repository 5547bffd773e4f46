//! Partitioning `B`'s triples among workers.
//!
//! The paper's scheme: every processor takes its contiguous slice of
//! `nnz(B)/N_p` triples of `B` in CSC (column-major) order, computed from
//! `B`'s factors without realising `B`.  Because the Kronecker product maps
//! each `B` triple to exactly `nnz(C)` edges, equal triple counts give equal
//! edge counts per processor — perfect static load balance with no
//! communication.

use serde::{Deserialize, Serialize};

use kron_bignum::BigUint;
use kron_core::{CoreError, KroneckerDesign};
use kron_sparse::{CscMatrix, PlusTimes};

/// A partition of `nnz(B)` triples into contiguous worker slices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// Number of triples being divided.
    total: usize,
    /// Exclusive end offset of each worker's slice (cumulative).
    boundaries: Vec<usize>,
}

impl Partition {
    /// Divide `total` triples among `workers` slices whose sizes differ by at
    /// most one (the first `total mod workers` slices get the extra triple).
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn even(total: usize, workers: usize) -> Self {
        assert!(workers > 0, "at least one worker is required");
        let base = total / workers;
        let extra = total % workers;
        let mut boundaries = Vec::with_capacity(workers);
        let mut cursor = 0usize;
        for w in 0..workers {
            cursor += base + usize::from(w < extra);
            boundaries.push(cursor);
        }
        Partition { total, boundaries }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.boundaries.len()
    }

    /// Total number of triples divided.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The half-open triple range `[start, end)` owned by worker `p`.
    pub fn range(&self, p: usize) -> std::ops::Range<usize> {
        let start = if p == 0 { 0 } else { self.boundaries[p - 1] };
        start..self.boundaries[p]
    }

    /// Number of triples owned by worker `p`.
    pub fn len(&self, p: usize) -> usize {
        self.range(p).len()
    }

    /// Whether the partition covers no triples at all.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sizes of every slice.
    pub fn sizes(&self) -> Vec<usize> {
        (0..self.workers()).map(|p| self.len(p)).collect()
    }

    /// Maximum difference between any two slice sizes (0 or 1 for
    /// [`Partition::even`]).
    pub fn imbalance(&self) -> usize {
        let sizes = self.sizes();
        match (sizes.iter().max(), sizes.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }
}

/// The triples of `B = S₁ ⊗ … ⊗ S_k` in CSC order (column, then row): triple
/// `t` is mixed-radix arithmetic on the factors' CSC arrays, never stored.
#[derive(Debug, Clone)]
pub(crate) struct CscIndex {
    factors: Vec<CscMatrix<u64>>,
    /// `suffix[i]` is the product of `nnz` over the factors after `i`.
    suffix: Vec<u64>,
}

impl CscIndex {
    /// The index over `b`'s factors, refused as `b.realize_raw(max_edges)` is.
    pub(crate) fn new(b: &KroneckerDesign, max_edges: u64) -> Result<Self, CoreError> {
        let (vertices, nnz) = (b.vertices(), b.nnz_with_loops());
        if nnz > BigUint::from(max_edges) || vertices.to_u64().is_none() {
            return Err(CoreError::TooLargeToRealise {
                vertices: vertices.to_string(),
                edges: nnz.to_string(),
            });
        }
        let factors = b
            .constituents()
            .iter()
            .map(|s| CscMatrix::from_coo::<PlusTimes>(&s.adjacency()))
            .collect::<Result<Vec<_>, _>>()?;
        let suffix = (1..=factors.len())
            .map(|i| factors[i..].iter().map(|f| f.nnz() as u64).product())
            .collect();
        Ok(CscIndex { factors, suffix })
    }

    /// `nnz(B)`.
    pub(crate) fn nnz(&self) -> usize {
        self.suffix[0] as usize * self.factors[0].nnz()
    }

    /// The `(row, column)` of triple `t < nnz(B)`.
    pub(crate) fn triple(&self, t: usize) -> (u64, u64) {
        // Column digits, most significant first: once the digits before
        // factor `i` are fixed, each of its columns holds `block` times its
        // nnz times `suffix[i]` triples.
        let (mut rest, mut block, mut column) = (t as u64, 1u64, 0u64);
        for (factor, &suffix) in self.factors.iter().zip(&self.suffix) {
            let scale = block * suffix;
            let col_ptr = factor.col_ptr();
            let j = col_ptr[1..].partition_point(|&end| end as u64 * scale <= rest);
            rest -= col_ptr[j] as u64 * scale;
            block *= factor.col_nnz(j) as u64;
            column = column * factor.ncols() as u64 + j as u64;
        }
        // `rest < block` now ranks the row within the column, the last
        // factor varying fastest.
        let (mut row, mut scale, mut digits) = (0u64, 1u64, column);
        for factor in self.factors.iter().rev() {
            let rows = factor.col((digits % factor.ncols() as u64) as usize).0;
            digits /= factor.ncols() as u64;
            row += rows[(rest % rows.len() as u64) as usize] as u64 * scale;
            rest /= rows.len() as u64;
            scale *= factor.nrows() as u64;
        }
        (row, column)
    }

    /// The worker whose slice holds the triple `(row, column)`: the first
    /// whose last triple is not before it in CSC order.
    pub(crate) fn owner(&self, partition: &Partition, (row, column): (u64, u64)) -> usize {
        let before = |(r, c): (u64, u64)| (c, r) < (column, row);
        let ends = &partition.boundaries;
        ends.partition_point(|&end| end.checked_sub(1).is_none_or(|t| before(self.triple(t))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition_exact_division() {
        let p = Partition::even(12, 4);
        assert_eq!(p.workers(), 4);
        assert_eq!(p.sizes(), vec![3, 3, 3, 3]);
        assert_eq!(p.imbalance(), 0);
        assert_eq!(p.range(0), 0..3);
        assert_eq!(p.range(3), 9..12);
    }

    #[test]
    fn even_partition_with_remainder() {
        let p = Partition::even(14, 4);
        assert_eq!(p.sizes(), vec![4, 4, 3, 3]);
        assert_eq!(p.imbalance(), 1);
        assert_eq!(p.sizes().iter().sum::<usize>(), 14);
    }

    #[test]
    fn more_workers_than_triples() {
        let p = Partition::even(3, 8);
        assert_eq!(p.sizes(), vec![1, 1, 1, 0, 0, 0, 0, 0]);
        assert_eq!(p.sizes().iter().sum::<usize>(), 3);
    }

    #[test]
    fn empty_and_single() {
        let p = Partition::even(0, 3);
        assert!(p.is_empty());
        assert_eq!(p.sizes(), vec![0, 0, 0]);
        let p = Partition::even(7, 1);
        assert_eq!(p.sizes(), vec![7]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = Partition::even(5, 0);
    }

    #[test]
    fn csc_order_is_column_major() {
        let b = KroneckerDesign::from_star_points(&[2, 3], kron_core::SelfLoop::Leaf).unwrap();
        let index = CscIndex::new(&b, 1 << 10).unwrap();
        let triples: Vec<(u64, u64)> = (0..index.nnz()).map(|t| index.triple(t)).collect();
        assert_eq!(triples.len(), 5 * 7);
        assert!(triples
            .windows(2)
            .all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
        // Column 0 pairs the first star's leaves {1, 2} with the second's
        // {1, 2, 3}, the first factor most significant.
        let column_0: Vec<u64> = triples
            .iter()
            .take_while(|t| t.1 == 0)
            .map(|t| t.0)
            .collect();
        assert_eq!(column_0, vec![5, 6, 7, 9, 10, 11]);
    }

    #[test]
    fn csc_order_combines_duplicates() {
        let edge = kron_sparse::CooMatrix::from_entries(
            2,
            2,
            vec![(0u64, 1u64, 1u64), (0, 1, 1), (1, 0, 1), (1, 0, 1)],
        )
        .unwrap();
        let constituent = kron_core::Constituent::from_matrix(edge, 0).unwrap();
        let b = KroneckerDesign::new(vec![constituent]).unwrap();
        let index = CscIndex::new(&b, 2).unwrap();
        assert_eq!(index.nnz(), 2);
        assert_eq!((index.triple(0), index.triple(1)), ((1, 0), (0, 1)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn partition_covers_everything_once(total in 0usize..5000, workers in 1usize..64) {
            let p = Partition::even(total, workers);
            prop_assert_eq!(p.sizes().iter().sum::<usize>(), total);
            prop_assert!(p.imbalance() <= 1);
            let mut covered = 0usize;
            for w in 0..p.workers() {
                let range = p.range(w);
                prop_assert_eq!(range.start, covered);
                covered = range.end;
            }
            prop_assert_eq!(covered, total);
        }
    }
}
