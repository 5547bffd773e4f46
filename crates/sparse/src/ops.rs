//! Element-wise and matrix-product kernels.
//!
//! * element-wise multiply (`⊗`): graph intersection / masking;
//! * SpGEMM (`A ⊕.⊗ B`): the matrix product used to count triangles;
//! * `1ᵀ M 1`: the sum of every stored entry.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::semiring::{Scalar, Semiring};

/// Element-wise multiplication of two COO matrices (graph intersection).
///
/// Only coordinates present (non-zero) in *both* operands survive, with
/// values combined by ⊗.
pub fn ewise_mul<T: Scalar, S: Semiring<T>>(
    a: &CooMatrix<T>,
    b: &CooMatrix<T>,
) -> Result<CooMatrix<T>, SparseError> {
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return Err(SparseError::DimensionMismatch {
            op: "ewise_mul",
            left: (a.nrows(), a.ncols()),
            right: (b.nrows(), b.ncols()),
        });
    }
    let mut ca = a.clone();
    ca.sum_duplicates::<S>();
    let mut cb = b.clone();
    cb.sum_duplicates::<S>();

    // Merge two sorted triple streams on matching coordinates.
    let mut out = CooMatrix::new(a.nrows(), a.ncols());
    let mut ib = 0usize;
    let b_rows = cb.row_indices();
    let b_cols = cb.col_indices();
    let b_vals = cb.values();
    for (r, c, v) in ca.iter() {
        while ib < cb.nnz() && (b_rows[ib], b_cols[ib]) < (r, c) {
            ib += 1;
        }
        if ib < cb.nnz() && (b_rows[ib], b_cols[ib]) == (r, c) {
            let val = S::mul(v, b_vals[ib]);
            if !S::is_zero(val) {
                out.push(r, c, val)?;
            }
        }
    }
    Ok(out)
}

/// Sparse matrix-matrix multiplication (`C = A ⊕.⊗ B`) over a semiring,
/// using a per-row sparse accumulator (Gustavson's algorithm).
pub fn spgemm<T: Scalar, S: Semiring<T>>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
) -> Result<CsrMatrix<T>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::DimensionMismatch {
            op: "spgemm",
            left: (a.nrows() as u64, a.ncols() as u64),
            right: (b.nrows() as u64, b.ncols() as u64),
        });
    }
    let nrows = a.nrows();
    let ncols = b.ncols();
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();

    // Dense accumulator row, reset lazily via the touched-columns list.
    let mut accumulator = vec![S::zero(); ncols];
    let mut touched: Vec<usize> = Vec::new();

    for i in 0..nrows {
        let (a_cols, a_vals) = a.row(i);
        for (&k, &a_ik) in a_cols.iter().zip(a_vals.iter()) {
            let (b_cols, b_vals) = b.row(k);
            for (&j, &b_kj) in b_cols.iter().zip(b_vals.iter()) {
                let contribution = S::mul(a_ik, b_kj);
                if S::is_zero(accumulator[j]) && !S::is_zero(contribution) {
                    touched.push(j);
                    accumulator[j] = contribution;
                } else {
                    accumulator[j] = S::add(accumulator[j], contribution);
                }
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            if !S::is_zero(accumulator[j]) {
                col_idx.push(j);
                vals.push(accumulator[j]);
            }
            accumulator[j] = S::zero();
        }
        touched.clear();
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw(nrows, ncols, row_ptr, col_idx, vals)
}

/// `1ᵀ M 1` for COO matrices.
pub fn sum_all_coo<T: Scalar, S: Semiring<T>>(m: &CooMatrix<T>) -> T {
    m.values().iter().fold(S::zero(), |acc, &v| S::add(acc, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;

    fn coo(entries: Vec<(u64, u64, u64)>, n: u64) -> CooMatrix<u64> {
        CooMatrix::from_entries(n, n, entries).unwrap()
    }

    #[test]
    fn ewise_mul_intersects_graphs() {
        let a = coo(vec![(0, 1, 2), (1, 2, 3), (2, 2, 4)], 3);
        let b = coo(vec![(0, 1, 5), (2, 0, 7), (2, 2, 2)], 3);
        let c = ewise_mul::<u64, PlusTimes>(&a, &b).unwrap();
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get::<PlusTimes>(0, 1), 10);
        assert_eq!(c.get::<PlusTimes>(2, 2), 8);
        assert_eq!(c.get::<PlusTimes>(1, 2), 0);
    }

    #[test]
    fn ewise_dimension_mismatch() {
        let a = coo(vec![(0, 1, 1)], 3);
        let b = CooMatrix::from_entries(2, 2, vec![(0, 1, 1u64)]).unwrap();
        assert!(ewise_mul::<u64, PlusTimes>(&a, &b).is_err());
    }

    #[test]
    fn spgemm_small_known_product() {
        // A = [[1, 2], [0, 3]], B = [[4, 0], [5, 6]]  ->  AB = [[14, 12], [15, 18]]
        let a = CsrMatrix::from_coo::<PlusTimes>(
            &CooMatrix::from_entries(2, 2, vec![(0, 0, 1u64), (0, 1, 2), (1, 1, 3)]).unwrap(),
        )
        .unwrap();
        let b = CsrMatrix::from_coo::<PlusTimes>(
            &CooMatrix::from_entries(2, 2, vec![(0, 0, 4u64), (1, 0, 5), (1, 1, 6)]).unwrap(),
        )
        .unwrap();
        let c = spgemm::<u64, PlusTimes>(&a, &b).unwrap();
        assert_eq!(c.get::<PlusTimes>(0, 0), 14);
        assert_eq!(c.get::<PlusTimes>(0, 1), 12);
        assert_eq!(c.get::<PlusTimes>(1, 0), 15);
        assert_eq!(c.get::<PlusTimes>(1, 1), 18);
    }

    #[test]
    fn spgemm_identity_is_neutral() {
        let a = CsrMatrix::from_coo::<PlusTimes>(&coo(vec![(0, 1, 3), (2, 0, 4), (1, 1, 9)], 3))
            .unwrap();
        let eye = CsrMatrix::from_coo::<PlusTimes>(&CooMatrix::<u64>::identity(3)).unwrap();
        assert_eq!(spgemm::<u64, PlusTimes>(&a, &eye).unwrap(), a);
        assert_eq!(spgemm::<u64, PlusTimes>(&eye, &a).unwrap(), a);
    }

    #[test]
    fn spgemm_dimension_mismatch() {
        let a = CsrMatrix::<u64>::zeros(2, 3);
        let b = CsrMatrix::<u64>::zeros(2, 3);
        assert!(spgemm::<u64, PlusTimes>(&a, &b).is_err());
    }

    #[test]
    fn sum_all_counts_entries() {
        let a = coo(vec![(0, 1, 1), (0, 2, 1), (2, 0, 1)], 3);
        assert_eq!(sum_all_coo::<u64, PlusTimes>(&a), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::semiring::PlusTimes;
    use proptest::prelude::*;

    fn arb_square(n: u64) -> impl Strategy<Value = CooMatrix<u64>> {
        proptest::collection::vec((0..n, 0..n, 1u64..4), 0..30)
            .prop_map(move |es| CooMatrix::from_entries(n, n, es).unwrap())
    }

    fn dense_mul(a: &[Vec<u64>], b: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let n = a.len();
        let mut c = vec![vec![0u64; n]; n];
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    c[i][j] += a[i][k] * b[k][j];
                }
            }
        }
        c
    }

    proptest! {
        #[test]
        fn spgemm_matches_dense(a in arb_square(6), b in arb_square(6)) {
            let ca = CsrMatrix::from_coo::<PlusTimes>(&a).unwrap();
            let cb = CsrMatrix::from_coo::<PlusTimes>(&b).unwrap();
            let product = spgemm::<u64, PlusTimes>(&ca, &cb).unwrap();
            let dense = dense_mul(
                &a.to_dense::<PlusTimes>(100).unwrap(),
                &b.to_dense::<PlusTimes>(100).unwrap(),
            );
            for (i, dense_row) in dense.iter().enumerate() {
                for (j, &expected) in dense_row.iter().enumerate() {
                    prop_assert_eq!(product.get::<PlusTimes>(i, j), expected);
                }
            }
        }

        #[test]
        fn ewise_mul_commutes(a in arb_square(6), b in arb_square(6)) {
            let ab = ewise_mul::<u64, PlusTimes>(&a, &b).unwrap();
            let ba = ewise_mul::<u64, PlusTimes>(&b, &a).unwrap();
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn kron_mixed_product_identity(a in arb_square(3), b in arb_square(3),
                                       c in arb_square(3), d in arb_square(3)) {
            // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD)
            use crate::kron::kron_coo;
            let ab = kron_coo::<u64, PlusTimes>(&a, &b).unwrap();
            let cd = kron_coo::<u64, PlusTimes>(&c, &d).unwrap();
            let left = spgemm::<u64, PlusTimes>(
                &CsrMatrix::from_coo::<PlusTimes>(&ab).unwrap(),
                &CsrMatrix::from_coo::<PlusTimes>(&cd).unwrap(),
            ).unwrap();

            let ac = spgemm::<u64, PlusTimes>(
                &CsrMatrix::from_coo::<PlusTimes>(&a).unwrap(),
                &CsrMatrix::from_coo::<PlusTimes>(&c).unwrap(),
            ).unwrap();
            let bd = spgemm::<u64, PlusTimes>(
                &CsrMatrix::from_coo::<PlusTimes>(&b).unwrap(),
                &CsrMatrix::from_coo::<PlusTimes>(&d).unwrap(),
            ).unwrap();
            let right = kron_coo::<u64, PlusTimes>(&ac.to_coo(), &bd.to_coo()).unwrap();
            let right_csr = CsrMatrix::from_coo::<PlusTimes>(&right).unwrap();
            prop_assert_eq!(left, right_csr);
        }
    }
}
