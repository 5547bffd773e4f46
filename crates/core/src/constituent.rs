//! Constituent matrices of a Kronecker design.
//!
//! The paper builds its graphs from star constituents, but every property
//! formula only needs a handful of exact quantities per constituent: vertex
//! count, stored-entry count, degree distribution, raw triangle sum, and —
//! when the triangle-control construction is used — the degree of the single
//! self-loop vertex.  [`Constituent`] captures those quantities either
//! analytically (for [`StarGraph`]s) or by measuring an arbitrary small
//! adjacency matrix, so designs can freely mix stars with custom motifs.

use serde::{Deserialize, Serialize};

use kron_sparse::reduce::degree_distribution;
use kron_sparse::triangles::triangle_raw_sum;
use kron_sparse::{CooMatrix, CsrMatrix, PlusTimes};

use crate::degree::DegreeDistribution;
use crate::error::CoreError;
use crate::star::{SelfLoop, StarGraph};

/// One constituent matrix `A_k` of a Kronecker design, together with the
/// exact properties the design layer needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constituent {
    kind: ConstituentKind,
    vertices: u64,
    nnz: u64,
    degree_distribution: DegreeDistribution,
    triangle_raw_sum: u64,
    /// Degree (including the loop itself) of the unique self-loop vertex, if
    /// the constituent has exactly one self-loop.
    self_loop_degree: Option<u64>,
    /// Number of stored diagonal entries.
    self_loop_count: u64,
}

/// How a constituent was specified.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConstituentKind {
    /// A star graph with the given number of points and self-loop placement.
    Star(StarGraph),
    /// An arbitrary small adjacency matrix supplied by the user.
    Custom(CooMatrix<u64>),
}

impl Constituent {
    /// Build a star constituent; every property comes from the closed forms
    /// in [`StarGraph`].
    pub fn star(points: u64, self_loop: SelfLoop) -> Result<Self, CoreError> {
        let star = StarGraph::new(points, self_loop)?;
        Ok(Constituent {
            vertices: star.vertices(),
            nnz: star.nnz(),
            degree_distribution: star.degree_distribution(),
            triangle_raw_sum: star.triangle_raw_sum(),
            self_loop_degree: star.self_loop_degree(),
            self_loop_count: match self_loop {
                SelfLoop::None => 0,
                _ => 1,
            },
            kind: ConstituentKind::Star(star),
        })
    }

    /// Build a constituent from an arbitrary adjacency matrix by measuring
    /// its properties.  The matrix must be square, non-empty, and symmetric
    /// (the paper's formulas are for undirected graphs).
    pub fn from_matrix(matrix: CooMatrix<u64>, index: usize) -> Result<Self, CoreError> {
        if !matrix.is_square() {
            return Err(CoreError::InvalidConstituent {
                index,
                message: format!(
                    "matrix is {}x{}, must be square",
                    matrix.nrows(),
                    matrix.ncols()
                ),
            });
        }
        if matrix.nnz() == 0 {
            return Err(CoreError::InvalidConstituent {
                index,
                message: "matrix has no stored entries".into(),
            });
        }
        let mut canonical = matrix.clone();
        canonical.sum_duplicates::<PlusTimes>();
        if !canonical.is_symmetric::<PlusTimes>() {
            return Err(CoreError::InvalidConstituent {
                index,
                message: "adjacency pattern must be symmetric (undirected graph)".into(),
            });
        }
        let csr = CsrMatrix::from_coo::<PlusTimes>(&canonical)?;
        let hist = degree_distribution(&canonical);
        let dist = DegreeDistribution::from_histogram(&hist);
        let raw = triangle_raw_sum(&csr)?;
        let loops: Vec<u64> = canonical
            .iter()
            .filter(|&(r, c, _)| r == c)
            .map(|(r, _, _)| r)
            .collect();
        let self_loop_degree = if loops.len() == 1 {
            let v = loops[0];
            Some(canonical.iter().filter(|&(r, _, _)| r == v).count() as u64)
        } else {
            None
        };
        Ok(Constituent {
            vertices: canonical.nrows(),
            nnz: canonical.nnz() as u64,
            degree_distribution: dist,
            triangle_raw_sum: raw,
            self_loop_degree,
            self_loop_count: loops.len() as u64,
            kind: ConstituentKind::Custom(canonical),
        })
    }

    /// How the constituent was specified.
    pub fn kind(&self) -> &ConstituentKind {
        &self.kind
    }

    /// The star parameters, if this constituent is a star.
    pub fn as_star(&self) -> Option<&StarGraph> {
        match &self.kind {
            ConstituentKind::Star(s) => Some(s),
            ConstituentKind::Custom(_) => None,
        }
    }

    /// Number of vertices `m_k`.
    pub fn vertices(&self) -> u64 {
        self.vertices
    }

    /// Number of stored adjacency entries `nnz(A_k)`.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// The exact degree distribution of the constituent.
    pub fn degree_distribution(&self) -> &DegreeDistribution {
        &self.degree_distribution
    }

    /// The raw triangle sum `1ᵀ((A_k·A_k) ⊗ A_k)1`.
    pub fn triangle_raw_sum(&self) -> u64 {
        self.triangle_raw_sum
    }

    /// Number of stored diagonal entries (self-loops).
    pub fn self_loop_count(&self) -> u64 {
        self.self_loop_count
    }

    /// Degree (including the loop) of the unique self-loop vertex, if the
    /// constituent has exactly one self-loop.
    pub fn self_loop_degree(&self) -> Option<u64> {
        self.self_loop_degree
    }

    /// Materialise the constituent's adjacency matrix.
    pub fn adjacency(&self) -> CooMatrix<u64> {
        match &self.kind {
            ConstituentKind::Star(s) => s.adjacency(),
            ConstituentKind::Custom(m) => m.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_bignum::BigUint;

    #[test]
    fn star_constituent_uses_closed_forms() {
        let c = Constituent::star(5, SelfLoop::Centre).unwrap();
        assert_eq!(c.vertices(), 6);
        assert_eq!(c.nnz(), 11);
        assert_eq!(c.triangle_raw_sum(), 16);
        assert_eq!(c.self_loop_degree(), Some(6));
        assert_eq!(c.self_loop_count(), 1);
        assert!(c.as_star().is_some());
    }

    #[test]
    fn star_closed_forms_match_measured_constituent() {
        for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
            for points in [1u64, 3, 5, 9] {
                let star = Constituent::star(points, self_loop).unwrap();
                let measured =
                    Constituent::from_matrix(star.adjacency(), 0).expect("star adjacency is valid");
                assert_eq!(star.vertices(), measured.vertices());
                assert_eq!(star.nnz(), measured.nnz());
                assert_eq!(star.triangle_raw_sum(), measured.triangle_raw_sum());
                assert_eq!(star.self_loop_degree(), measured.self_loop_degree());
                assert_eq!(star.degree_distribution(), measured.degree_distribution());
            }
        }
    }

    #[test]
    fn custom_constituent_measures_triangle_motif() {
        // A triangle graph: 3 vertices, all pairwise connected.
        let tri = CooMatrix::from_edges(3, 3, vec![(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
            .unwrap();
        let c = Constituent::from_matrix(tri, 0).unwrap();
        assert_eq!(c.vertices(), 3);
        assert_eq!(c.nnz(), 6);
        assert_eq!(c.triangle_raw_sum(), 6);
        assert_eq!(c.self_loop_count(), 0);
        assert_eq!(c.self_loop_degree(), None);
        assert_eq!(
            c.degree_distribution().count(&BigUint::from(2u64)),
            BigUint::from(3u64)
        );
    }

    #[test]
    fn custom_constituent_rejects_bad_input() {
        let rect = CooMatrix::from_edges(2, 3, vec![(0, 1)]).unwrap();
        assert!(Constituent::from_matrix(rect, 2).is_err());
        let empty = CooMatrix::<u64>::new(3, 3);
        assert!(Constituent::from_matrix(empty, 0).is_err());
        let asym = CooMatrix::from_edges(3, 3, vec![(0, 1)]).unwrap();
        assert!(Constituent::from_matrix(asym, 1).is_err());
    }

    #[test]
    fn custom_with_multiple_loops_has_no_unique_loop_degree() {
        let m = CooMatrix::from_edges(2, 2, vec![(0, 0), (1, 1), (0, 1), (1, 0)]).unwrap();
        let c = Constituent::from_matrix(m, 0).unwrap();
        assert_eq!(c.self_loop_count(), 2);
        assert_eq!(c.self_loop_degree(), None);
    }
}
