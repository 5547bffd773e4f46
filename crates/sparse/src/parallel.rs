//! Rayon-parallel versions of the hot kernels.
//!
//! The paper's headline result (Figure 3) is a generation *rate* measured
//! across tens of thousands of cores; on a shared-memory machine the same
//! structure maps onto rayon tasks.  Each helper here is a drop-in parallel
//! equivalent of a sequential kernel elsewhere in the crate and is verified
//! against it in tests.

use rayon::prelude::*;

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::kron::kron_dims;
use crate::ops::spgemm;
use crate::semiring::{Scalar, Semiring};

/// Parallel Kronecker product: the outer loop over `a`'s entries is split
/// across the rayon thread pool; each task produces an independent slice of
/// the output triples (no communication, mirroring the paper's design).
pub fn par_kron_coo<T: Scalar, S: Semiring<T>>(
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

    let a_entries: Vec<(u64, u64, T)> = a.iter().collect();
    let chunks: Vec<Vec<(u64, u64, T)>> = a_entries
        .par_iter()
        .map(|&(ra, ca, va)| {
            let mut local = Vec::with_capacity(b.nnz());
            for (rb, cb, vb) in b.iter() {
                let val = S::mul(va, vb);
                if !S::is_zero(val) {
                    local.push((ra * b.nrows() + rb, ca * b.ncols() + cb, val));
                }
            }
            local
        })
        .collect();

    let mut out = CooMatrix::with_capacity(nrows, ncols, a.nnz() * b.nnz());
    for chunk in chunks {
        for (r, c, v) in chunk {
            out.push(r, c, v)?;
        }
    }
    Ok(out)
}

/// Parallel row-pattern degree computation for a COO matrix.
///
/// Entries are partitioned across threads; each thread accumulates a private
/// histogram which is then merged (a tree reduction), so no locking is needed
/// on the hot path.
pub fn par_row_counts<T: Scalar>(m: &CooMatrix<T>) -> Vec<u64> {
    let nrows = m.nrows() as usize;
    let rows = m.row_indices();
    rows.par_chunks(
        16_384
            .max(rows.len() / rayon::current_num_threads().max(1))
            .max(1),
    )
    .map(|chunk| {
        let mut local = vec![0u64; nrows];
        for &r in chunk {
            local[r as usize] += 1;
        }
        local
    })
    .reduce(
        || vec![0u64; nrows],
        |mut acc, local| {
            for (a, l) in acc.iter_mut().zip(local.iter()) {
                *a += l;
            }
            acc
        },
    )
}

/// Parallel SpGEMM: rows of the result are computed independently across the
/// thread pool, then stitched into a CSR matrix.
pub fn par_spgemm<T: Scalar, S: Semiring<T>>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
) -> Result<CsrMatrix<T>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::DimensionMismatch {
            op: "par_spgemm",
            left: (a.nrows() as u64, a.ncols() as u64),
            right: (b.nrows() as u64, b.ncols() as u64),
        });
    }
    let nrows = a.nrows();
    let ncols = b.ncols();

    let per_row: Vec<(Vec<usize>, Vec<T>)> = (0..nrows)
        .into_par_iter()
        .map(|i| {
            let mut acc: Vec<T> = vec![S::zero(); ncols];
            let mut touched: Vec<usize> = Vec::new();
            let (a_cols, a_vals) = a.row(i);
            for (&k, &a_ik) in a_cols.iter().zip(a_vals.iter()) {
                let (b_cols, b_vals) = b.row(k);
                for (&j, &b_kj) in b_cols.iter().zip(b_vals.iter()) {
                    let contribution = S::mul(a_ik, b_kj);
                    if S::is_zero(acc[j]) && !S::is_zero(contribution) {
                        touched.push(j);
                        acc[j] = contribution;
                    } else {
                        acc[j] = S::add(acc[j], contribution);
                    }
                }
            }
            touched.sort_unstable();
            touched.dedup();
            let mut cols = Vec::with_capacity(touched.len());
            let mut vals = Vec::with_capacity(touched.len());
            for &j in &touched {
                if !S::is_zero(acc[j]) {
                    cols.push(j);
                    vals.push(acc[j]);
                }
            }
            (cols, vals)
        })
        .collect();

    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    for (cols, row_vals) in per_row {
        col_idx.extend_from_slice(&cols);
        vals.extend_from_slice(&row_vals);
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw(nrows, ncols, row_ptr, col_idx, vals)
}

/// Parallel correctness check: verify that the parallel SpGEMM agrees with
/// the sequential kernel (used by tests and kept public for harnesses that
/// want a self-check mode).
pub fn spgemm_self_check<T: Scalar, S: Semiring<T>>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
) -> Result<bool, SparseError> {
    Ok(par_spgemm::<T, S>(a, b)? == spgemm::<T, S>(a, b)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kron::kron_coo;
    use crate::reduce::row_counts;
    use crate::semiring::PlusTimes;

    fn star(points: u64) -> CooMatrix<u64> {
        let mut edges = Vec::new();
        for leaf in 1..=points {
            edges.push((0, leaf));
            edges.push((leaf, 0));
        }
        CooMatrix::from_edges(points + 1, points + 1, edges).unwrap()
    }

    #[test]
    fn par_kron_matches_sequential() {
        let a = star(9);
        let b = star(5);
        let mut seq = kron_coo::<u64, PlusTimes>(&a, &b).unwrap();
        let mut par = par_kron_coo::<u64, PlusTimes>(&a, &b).unwrap();
        seq.sort();
        par.sort();
        assert_eq!(seq, par);
    }

    #[test]
    fn par_row_counts_matches_sequential() {
        let a = kron_coo::<u64, PlusTimes>(&star(9), &star(7)).unwrap();
        assert_eq!(par_row_counts(&a), row_counts(&a));
    }

    #[test]
    fn par_spgemm_matches_sequential() {
        let a = kron_coo::<u64, PlusTimes>(&star(5), &star(3)).unwrap();
        let csr = CsrMatrix::from_coo::<PlusTimes>(&a).unwrap();
        assert!(spgemm_self_check::<u64, PlusTimes>(&csr, &csr).unwrap());
    }

    #[test]
    fn par_spgemm_dimension_mismatch() {
        let a = CsrMatrix::<u64>::zeros(2, 3);
        assert!(par_spgemm::<u64, PlusTimes>(&a, &a).is_err());
    }

    #[test]
    fn par_kron_too_large_rejected() {
        let a = CooMatrix::<u64>::new(u64::MAX, u64::MAX);
        let b = CooMatrix::<u64>::new(3, 3);
        assert!(par_kron_coo::<u64, PlusTimes>(&a, &b).is_err());
    }
}
