//! Kronecker products of sparse matrices.
//!
//! Given `A ∈ S^{mA×nA}` and `B ∈ S^{mB×nB}`, the Kronecker product
//! `C = A ⊗ B ∈ S^{mA·mB × nA·nB}` has
//! `C((iA·mB + iB), (jA·nB + jB)) = A(iA, jA) ⊗ B(iB, jB)`.
//!
//! Because the product never combines two entries, `nnz(C) = nnz(A)·nnz(B)`
//! whenever the semiring multiplication of two stored (non-zero) values is
//! itself non-zero, which is the identity the paper's edge-count formula
//! relies on.  These products are materialised: `kron-core` realises small
//! designs with [`kron_chain`], and tests hold the streaming generator (which
//! builds no product) to [`kron_coo`].

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::semiring::{Scalar, Semiring};

/// Dimensions of the Kronecker product of matrices with the given dimensions.
/// Returns `(rows, cols)` as `u128` so callers can detect overflow of `u64`.
pub fn kron_dims(a: (u64, u64), b: (u64, u64)) -> (u128, u128) {
    (a.0 as u128 * b.0 as u128, a.1 as u128 * b.1 as u128)
}

/// Compute the Kronecker product of two COO matrices over a semiring.
///
/// The result dimensions must fit in `u64`; otherwise a
/// [`SparseError::TooLarge`] is returned (at that point the caller should be
/// using the analytic design layer rather than materialising matrices).
pub fn kron_coo<T: Scalar, S: Semiring<T>>(
    a: &CooMatrix<T>,
    b: &CooMatrix<T>,
) -> Result<CooMatrix<T>, SparseError> {
    let (rows, cols) = kron_dims((a.nrows(), a.ncols()), (b.nrows(), b.ncols()));
    let nrows = u64::try_from(rows).map_err(|_| SparseError::TooLarge {
        what: "Kronecker product rows",
        requested: rows,
    })?;
    let ncols = u64::try_from(cols).map_err(|_| SparseError::TooLarge {
        what: "Kronecker product cols",
        requested: cols,
    })?;

    let mut out = CooMatrix::with_capacity(nrows, ncols, a.nnz() * b.nnz());
    for (ra, ca, va) in a.iter() {
        for (rb, cb, vb) in b.iter() {
            let val = S::mul(va, vb);
            if !S::is_zero(val) {
                out.push(ra * b.nrows() + rb, ca * b.ncols() + cb, val)?;
            }
        }
    }
    Ok(out)
}

/// Compute the Kronecker product of a sequence of COO matrices, left to right.
///
/// Returns the identity-like 1×1 matrix holding the semiring one for an empty
/// sequence.
pub fn kron_chain<T: Scalar, S: Semiring<T>>(
    matrices: &[CooMatrix<T>],
) -> Result<CooMatrix<T>, SparseError> {
    let mut acc = CooMatrix::from_entries(1, 1, vec![(0, 0, S::one())])?;
    for m in matrices {
        acc = kron_coo::<T, S>(&acc, m)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;

    /// Undirected star adjacency matrix with `points + 1` vertices, centre 0.
    fn star(points: u64) -> CooMatrix<u64> {
        let mut edges = Vec::new();
        for leaf in 1..=points {
            edges.push((0, leaf));
            edges.push((leaf, 0));
        }
        CooMatrix::from_edges(points + 1, points + 1, edges).unwrap()
    }

    #[test]
    fn dims_and_nnz_multiply() {
        let a = star(5);
        let b = star(3);
        let c = kron_coo::<u64, PlusTimes>(&a, &b).unwrap();
        assert_eq!(c.nrows(), 24);
        assert_eq!(c.ncols(), 24);
        assert_eq!(c.nnz(), a.nnz() * b.nnz());
        assert_eq!(c.nnz(), 10 * 6);
    }

    #[test]
    fn entries_follow_index_formula() {
        let a = CooMatrix::from_entries(2, 2, vec![(0, 1, 2u64), (1, 0, 3)]).unwrap();
        let b = CooMatrix::from_entries(2, 2, vec![(0, 0, 5u64), (1, 1, 7)]).unwrap();
        let c = kron_coo::<u64, PlusTimes>(&a, &b).unwrap();
        // A(0,1)=2 with B(0,0)=5 -> C(0*2+0, 1*2+0) = 10
        assert_eq!(c.get::<PlusTimes>(0, 2), 10);
        // A(0,1)=2 with B(1,1)=7 -> C(1, 3) = 14
        assert_eq!(c.get::<PlusTimes>(1, 3), 14);
        // A(1,0)=3 with B(0,0)=5 -> C(2, 0) = 15
        assert_eq!(c.get::<PlusTimes>(2, 0), 15);
        assert_eq!(c.nnz(), 4);
    }

    #[test]
    fn kron_of_identities_is_identity() {
        let i2 = CooMatrix::<u64>::identity(2);
        let i3 = CooMatrix::<u64>::identity(3);
        let c = kron_coo::<u64, PlusTimes>(&i2, &i3).unwrap();
        assert_eq!(c, CooMatrix::<u64>::identity(6));
    }

    #[test]
    fn kron_chain_left_to_right() {
        let mats = vec![star(2), star(3), star(4)];
        let chained = kron_chain::<u64, PlusTimes>(&mats).unwrap();
        let manual = kron_coo::<u64, PlusTimes>(
            &kron_coo::<u64, PlusTimes>(&mats[0], &mats[1]).unwrap(),
            &mats[2],
        )
        .unwrap();
        assert_eq!(chained, manual);
        assert_eq!(chained.nrows(), 3 * 4 * 5);
        assert_eq!(chained.nnz(), 4 * 6 * 8);

        let empty: Vec<CooMatrix<u64>> = Vec::new();
        let unit = kron_chain::<u64, PlusTimes>(&empty).unwrap();
        assert_eq!(unit.nrows(), 1);
        assert_eq!(unit.nnz(), 1);
    }

    #[test]
    fn associativity_of_kron() {
        let a = star(2);
        let b = star(3);
        let c = star(4);
        let left =
            kron_coo::<u64, PlusTimes>(&kron_coo::<u64, PlusTimes>(&a, &b).unwrap(), &c).unwrap();
        let right =
            kron_coo::<u64, PlusTimes>(&a, &kron_coo::<u64, PlusTimes>(&b, &c).unwrap()).unwrap();
        let mut l = left;
        let mut r = right;
        l.sort();
        r.sort();
        assert_eq!(l, r);
    }

    #[test]
    fn too_large_product_is_rejected() {
        let a = CooMatrix::<u64>::new(u64::MAX, u64::MAX);
        let b = CooMatrix::<u64>::new(3, 3);
        assert!(matches!(
            kron_coo::<u64, PlusTimes>(&a, &b),
            Err(SparseError::TooLarge { .. })
        ));
    }

    #[test]
    fn kron_dims_uses_u128() {
        let d = kron_dims((u64::MAX, u64::MAX), (2, 2));
        assert_eq!(d.0, u64::MAX as u128 * 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::semiring::PlusTimes;
    use proptest::prelude::*;

    fn arb_small_coo() -> impl Strategy<Value = CooMatrix<u64>> {
        (1u64..6, 1u64..6).prop_flat_map(|(nr, nc)| {
            proptest::collection::vec((0..nr, 0..nc, 1u64..4), 0..12).prop_map(move |es| {
                let mut m = CooMatrix::from_entries(nr, nc, es).unwrap();
                m.sum_duplicates::<PlusTimes>();
                m
            })
        })
    }

    proptest! {
        #[test]
        fn nnz_multiplies(a in arb_small_coo(), b in arb_small_coo()) {
            let c = kron_coo::<u64, PlusTimes>(&a, &b).unwrap();
            prop_assert_eq!(c.nnz(), a.nnz() * b.nnz());
        }

        #[test]
        fn dense_kron_agrees(a in arb_small_coo(), b in arb_small_coo()) {
            let c = kron_coo::<u64, PlusTimes>(&a, &b).unwrap();
            let da = a.to_dense::<PlusTimes>(100).unwrap();
            let db = b.to_dense::<PlusTimes>(100).unwrap();
            let dc = c.to_dense::<PlusTimes>(10_000).unwrap();
            for (ia, row_a) in da.iter().enumerate() {
                for (ja, &va) in row_a.iter().enumerate() {
                    for (ib, row_b) in db.iter().enumerate() {
                        for (jb, &vb) in row_b.iter().enumerate() {
                            let i = ia * db.len() + ib;
                            let j = ja * row_b.len() + jb;
                            prop_assert_eq!(dc[i][j], va * vb);
                        }
                    }
                }
            }
        }
    }
}
