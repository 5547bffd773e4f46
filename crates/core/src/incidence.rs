//! Incidence (edge) matrices of Kronecker designs.
//!
//! The paper (§IV-D) represents a graph by two incidence matrices: `E_out`
//! with `E_out(e, i) = 1` and `E_in` with `E_in(e, j) = 1` meaning edge `e`
//! runs from vertex `i` to vertex `j`.  The adjacency matrix is recovered by
//! `A = E_outᵀ · E_in`, and — the property this module implements — the
//! incidence matrices of a Kronecker product are the Kronecker products of
//! the constituents' incidence matrices.

use kron_bignum::BigUint;
use kron_sparse::kron::kron_chain;
use kron_sparse::ops::spgemm;
use kron_sparse::{CooMatrix, CsrMatrix, PlusTimes};

use crate::design::KroneckerDesign;
use crate::error::CoreError;

/// A pair of incidence matrices describing the same edge set.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidencePair {
    /// `E_out(e, i) = 1` when edge `e` leaves vertex `i`.
    pub out: CooMatrix<u64>,
    /// `E_in(e, j) = 1` when edge `e` enters vertex `j`.
    pub inc: CooMatrix<u64>,
}

impl IncidencePair {
    /// Build the incidence pair of an arbitrary adjacency matrix, one edge
    /// row per stored entry, in iteration order.
    pub fn from_adjacency(adjacency: &CooMatrix<u64>) -> Self {
        let edges = adjacency.nnz() as u64;
        let vertices_out = adjacency.nrows();
        let vertices_in = adjacency.ncols();
        let mut out = CooMatrix::with_capacity(edges, vertices_out, adjacency.nnz());
        let mut inc = CooMatrix::with_capacity(edges, vertices_in, adjacency.nnz());
        for (e, (i, j, _)) in adjacency.iter().enumerate() {
            // lint:allow(no-expect) -- edge row e < edge count, the exact dimension the matrix was created with
            out.push(e as u64, i, 1).expect("edge row in bounds");
            // lint:allow(no-expect) -- edge row e < edge count, the exact dimension the matrix was created with
            inc.push(e as u64, j, 1).expect("edge row in bounds");
        }
        IncidencePair { out, inc }
    }

    /// Number of edges (rows).
    pub fn edges(&self) -> u64 {
        self.out.nrows()
    }

    /// Number of vertices (columns).
    pub fn vertices(&self) -> u64 {
        self.out.ncols()
    }

    /// Kronecker product of two incidence pairs: edge rows and vertex columns
    /// both combine multiplicatively.
    pub fn kron(&self, other: &IncidencePair) -> Result<IncidencePair, CoreError> {
        let out = kron_sparse::kron_coo::<u64, PlusTimes>(&self.out, &other.out)?;
        let inc = kron_sparse::kron_coo::<u64, PlusTimes>(&self.inc, &other.inc)?;
        Ok(IncidencePair { out, inc })
    }

    /// Reconstruct the adjacency matrix `A = E_outᵀ · E_in`.
    pub fn to_adjacency(&self) -> Result<CooMatrix<u64>, CoreError> {
        let out_t = CsrMatrix::from_coo::<PlusTimes>(&self.out.transpose())?;
        let inc = CsrMatrix::from_coo::<PlusTimes>(&self.inc)?;
        Ok(spgemm::<u64, PlusTimes>(&out_t, &inc)?.to_coo())
    }
}

/// Build the incidence pair of a full Kronecker design by taking the
/// Kronecker product of each constituent's incidence matrices (paper §IV-D).
///
/// The result describes the *raw* product (before the final self-loop
/// removal), mirroring the paper's construction; refuse designs whose raw
/// edge count exceeds `max_edges`.
pub fn design_incidence(
    design: &KroneckerDesign,
    max_edges: u64,
) -> Result<IncidencePair, CoreError> {
    let raw_edges = design.nnz_with_loops();
    if raw_edges > BigUint::from(max_edges) {
        return Err(CoreError::TooLargeToRealise {
            vertices: design.vertices().to_string(),
            edges: raw_edges.to_string(),
        });
    }
    let outs: Vec<CooMatrix<u64>> = design
        .constituents()
        .iter()
        .map(|c| IncidencePair::from_adjacency(&c.adjacency()).out)
        .collect();
    let incs: Vec<CooMatrix<u64>> = design
        .constituents()
        .iter()
        .map(|c| IncidencePair::from_adjacency(&c.adjacency()).inc)
        .collect();
    let out = kron_chain::<u64, PlusTimes>(&outs)?;
    let inc = kron_chain::<u64, PlusTimes>(&incs)?;
    Ok(IncidencePair { out, inc })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::SelfLoop;
    use kron_sparse::semiring::Semiring;

    fn patterns_equal(a: &CooMatrix<u64>, b: &CooMatrix<u64>) -> bool {
        let mut ca = a.map_values(|_| 1u64);
        ca.sum_duplicates::<PlusTimes>();
        let mut cb = b.map_values(|_| 1u64);
        cb.sum_duplicates::<PlusTimes>();
        let na: Vec<(u64, u64)> = ca.iter().map(|(r, c, _)| (r, c)).collect();
        let nb: Vec<(u64, u64)> = cb.iter().map(|(r, c, _)| (r, c)).collect();
        na == nb
    }

    #[test]
    fn incidence_round_trips_simple_graph() {
        let adjacency =
            CooMatrix::from_edges(4, 4, vec![(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]).unwrap();
        let pair = IncidencePair::from_adjacency(&adjacency);
        assert_eq!(pair.edges(), 5);
        assert_eq!(pair.vertices(), 4);
        let rebuilt = pair.to_adjacency().unwrap();
        assert!(patterns_equal(&rebuilt, &adjacency));
    }

    #[test]
    fn kron_of_incidence_matches_incidence_of_kron() {
        // E(A) ⊗ E(B) reconstructs the adjacency of A ⊗ B (up to edge order).
        let a = CooMatrix::from_edges(3, 3, vec![(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        let b = CooMatrix::from_edges(2, 2, vec![(0, 1), (1, 0)]).unwrap();
        let pair_a = IncidencePair::from_adjacency(&a);
        let pair_b = IncidencePair::from_adjacency(&b);
        let pair_ab = pair_a.kron(&pair_b).unwrap();
        let direct = kron_sparse::kron_coo::<u64, PlusTimes>(&a, &b).unwrap();
        assert_eq!(pair_ab.edges() as usize, direct.nnz());
        let rebuilt = pair_ab.to_adjacency().unwrap();
        assert!(patterns_equal(&rebuilt, &direct));
    }

    #[test]
    fn design_incidence_reconstructs_raw_product() {
        for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
            let design =
                crate::design::KroneckerDesign::from_star_points(&[3, 4], self_loop).unwrap();
            let pair = design_incidence(&design, 100_000).unwrap();
            assert_eq!(BigUint::from(pair.edges()), design.nnz_with_loops());
            let rebuilt = pair.to_adjacency().unwrap();
            // Raw product (before self-loop removal) materialised directly:
            let matrices: Vec<CooMatrix<u64>> = design
                .constituents()
                .iter()
                .map(|c| c.adjacency())
                .collect();
            let raw = kron_chain::<u64, PlusTimes>(&matrices).unwrap();
            assert!(
                patterns_equal(&rebuilt, &raw),
                "incidence product mismatch ({self_loop:?})"
            );
        }
    }

    #[test]
    fn design_incidence_refuses_huge_designs() {
        let design =
            crate::design::KroneckerDesign::from_star_points(&[81, 256, 625], SelfLoop::None)
                .unwrap();
        assert!(matches!(
            design_incidence(&design, 1_000),
            Err(CoreError::TooLargeToRealise { .. })
        ));
    }

    #[test]
    fn incidence_values_are_semiring_ones() {
        let adjacency = CooMatrix::from_edges(3, 3, vec![(0, 1), (1, 2)]).unwrap();
        let pair = IncidencePair::from_adjacency(&adjacency);
        assert!(pair
            .out
            .values()
            .iter()
            .all(|&v| v == <PlusTimes as Semiring<u64>>::one()));
        assert!(pair
            .inc
            .values()
            .iter()
            .all(|&v| v == <PlusTimes as Semiring<u64>>::one()));
    }
}
