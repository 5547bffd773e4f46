//! Star graph constituents.
//!
//! A star graph with `m̂` points has `m = m̂ + 1` vertices: one centre
//! (vertex 0) connected to every point (vertices `1..=m̂`).  Stars are the
//! paper's building blocks because they are the smallest exactly-power-law
//! graphs (`n(1) = m̂`, `n(m̂) = 1`, slope `α = 1`) and because every exact
//! property of a star — edge count, degree distribution, triangle raw sum —
//! has a closed form.
//!
//! The paper's three triangle regimes correspond to where (if anywhere) a
//! self-loop is placed on the star before taking Kronecker products; that
//! choice is [`SelfLoop`].

use serde::{Deserialize, Serialize};

use kron_bignum::BigUint;
use kron_sparse::CooMatrix;

use crate::degree::DegreeDistribution;
use crate::error::CoreError;

/// Where a self-loop is placed on each constituent star.
///
/// * [`SelfLoop::None`] — plain bipartite star: the product graph has **zero
///   triangles** (the paper's baseline case).
/// * [`SelfLoop::Centre`] — self-loop on the centre vertex: the product is
///   **triangle-rich** (paper §IV-B, "Case 1: Many Triangles").
/// * [`SelfLoop::Leaf`] — self-loop on one point vertex: the product has a
///   **modest number of triangles** (paper §IV-C, "Case 2: Some Triangles").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SelfLoop {
    /// No self-loop: bipartite star, zero triangles in the product.
    #[default]
    None,
    /// Self-loop on the centre vertex (vertex 0).
    Centre,
    /// Self-loop on the last point vertex (vertex `m̂`).
    Leaf,
}

/// A star-graph constituent with `m̂` points and an optional self-loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StarGraph {
    points: u64,
    self_loop: SelfLoop,
}

impl StarGraph {
    /// Create a star with `points = m̂ ≥ 1` points and the given self-loop
    /// placement.
    ///
    /// `m̂` is bounded so that every count the star reports fits in `u64`:
    /// its `2m̂ + 1` stored entries, and the raw triangle sum `3m̂ + 1` of a
    /// centre-looped star.
    pub fn new(points: u64, self_loop: SelfLoop) -> Result<Self, CoreError> {
        if points == 0 {
            return Err(CoreError::InvalidStar {
                points,
                message: "a star needs at least one point".into(),
            });
        }
        let (limit, count) = match self_loop {
            SelfLoop::None | SelfLoop::Leaf => ((u64::MAX - 1) / 2, "its 2m̂ + 1 entries"),
            SelfLoop::Centre => ((u64::MAX - 1) / 3, "its raw triangle sum 3m̂ + 1"),
        };
        if points > limit {
            return Err(CoreError::InvalidStar {
                points,
                message: format!("{count} must fit in u64, so m̂ is at most {limit}"),
            });
        }
        Ok(StarGraph { points, self_loop })
    }

    /// A plain star with no self-loop.
    pub fn plain(points: u64) -> Result<Self, CoreError> {
        StarGraph::new(points, SelfLoop::None)
    }

    /// Number of points `m̂` (leaves).
    pub fn points(&self) -> u64 {
        self.points
    }

    /// Self-loop placement.
    pub fn self_loop(&self) -> SelfLoop {
        self.self_loop
    }

    /// Number of vertices `m = m̂ + 1`.
    pub fn vertices(&self) -> u64 {
        self.points + 1
    }

    /// Number of stored adjacency entries (`2m̂` without a self-loop,
    /// `2m̂ + 1` with one).
    pub fn nnz(&self) -> u64 {
        match self.self_loop {
            SelfLoop::None => 2 * self.points,
            SelfLoop::Centre | SelfLoop::Leaf => 2 * self.points + 1,
        }
    }

    /// The exact degree distribution (degree → vertex count), where the
    /// degree of a vertex is the number of stored entries in its adjacency
    /// row (the paper's `nnz`-per-row definition; a self-loop contributes 1).
    pub fn degree_distribution(&self) -> DegreeDistribution {
        let mut dist = DegreeDistribution::new();
        let m_hat = self.points;
        match self.self_loop {
            SelfLoop::None => {
                dist.add(BigUint::from(1u64), BigUint::from(m_hat));
                dist.add(BigUint::from(m_hat), BigUint::one());
            }
            SelfLoop::Centre => {
                dist.add(BigUint::from(1u64), BigUint::from(m_hat));
                dist.add(BigUint::from(m_hat + 1), BigUint::one());
            }
            SelfLoop::Leaf => {
                if m_hat > 1 {
                    dist.add(BigUint::from(1u64), BigUint::from(m_hat - 1));
                }
                dist.add(BigUint::from(2u64), BigUint::one());
                dist.add(BigUint::from(m_hat), BigUint::one());
            }
        }
        dist
    }

    /// Degree of the vertex carrying the self-loop (used for the product's
    /// degree-distribution adjustment after the final self-loop is removed).
    /// `None` when the star has no self-loop.
    pub fn self_loop_degree(&self) -> Option<u64> {
        match self.self_loop {
            SelfLoop::None => None,
            SelfLoop::Centre => Some(self.points + 1),
            SelfLoop::Leaf => Some(2),
        }
    }

    /// The exact raw triangle sum `1ᵀ((A·A) ⊗ A)1` of this star's adjacency
    /// matrix:
    ///
    /// * no self-loop → `0` (bipartite graphs have no closed 3-walks through
    ///   their own edges);
    /// * centre self-loop → `3m̂ + 1`;
    /// * leaf self-loop → `4`.
    pub fn triangle_raw_sum(&self) -> u64 {
        match self.self_loop {
            SelfLoop::None => 0,
            SelfLoop::Centre => 3 * self.points + 1,
            SelfLoop::Leaf => 4,
        }
    }

    /// Power-law slope of the star's own degree distribution,
    /// `α = log n(1) / log d_max = 1` for every plain star.
    pub fn alpha(&self) -> f64 {
        if self.points <= 1 {
            return 1.0;
        }
        (self.points as f64).ln() / (self.points as f64).ln()
    }

    /// Materialise the star's adjacency matrix as a COO matrix.
    pub fn adjacency(&self) -> CooMatrix<u64> {
        let m = self.vertices();
        let mut edges = Vec::with_capacity(self.nnz() as usize);
        for leaf in 1..=self.points {
            edges.push((0u64, leaf));
            edges.push((leaf, 0u64));
        }
        match self.self_loop {
            SelfLoop::None => {}
            SelfLoop::Centre => edges.push((0, 0)),
            SelfLoop::Leaf => edges.push((self.points, self.points)),
        }
        // lint:allow(no-expect) -- the loop bounds above keep every star index below m
        CooMatrix::from_edges(m, m, edges).expect("star indices are in bounds by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_sparse::reduce::degree_distribution;
    use kron_sparse::triangles::triangle_raw_sum;
    use kron_sparse::{CsrMatrix, PlusTimes};

    #[test]
    fn rejects_zero_points() {
        assert!(StarGraph::new(0, SelfLoop::None).is_err());
        assert!(StarGraph::plain(1).is_ok());
    }

    #[test]
    fn rejects_stars_whose_counts_overflow_u64() {
        use crate::design::KroneckerDesign;
        for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
            for points in [1u64 << 63, u64::MAX] {
                assert!(matches!(
                    StarGraph::new(points, self_loop),
                    Err(CoreError::InvalidStar { .. })
                ));
                assert!(matches!(
                    KroneckerDesign::from_star_points(&[points], self_loop),
                    Err(CoreError::InvalidStar { .. })
                ));
            }
        }
        let largest = (1u64 << 63) - 1;
        for self_loop in [SelfLoop::None, SelfLoop::Leaf] {
            let star = StarGraph::new(largest, self_loop).unwrap();
            assert_eq!(star.vertices(), 1 << 63);
            let design = KroneckerDesign::from_star_points(&[largest], self_loop).unwrap();
            assert_eq!(design.nnz_with_loops(), BigUint::from(star.nnz()));
        }
        assert_eq!(StarGraph::plain(largest).unwrap().nnz(), u64::MAX - 1);
        let centre = (u64::MAX - 1) / 3;
        let star = StarGraph::new(centre, SelfLoop::Centre).unwrap();
        assert_eq!(star.triangle_raw_sum(), 3 * centre + 1);
        assert!(StarGraph::new(centre + 1, SelfLoop::Centre).is_err());
    }

    #[test]
    fn counts_for_plain_star() {
        let s = StarGraph::plain(5).unwrap();
        assert_eq!(s.vertices(), 6);
        assert_eq!(s.nnz(), 10);
        assert_eq!(s.triangle_raw_sum(), 0);
        assert_eq!(s.self_loop_degree(), None);
        let adjacency = s.adjacency();
        assert_eq!(adjacency.nnz(), 10);
        assert!(adjacency.is_symmetric::<PlusTimes>());
    }

    #[test]
    fn counts_for_looped_stars() {
        let c = StarGraph::new(5, SelfLoop::Centre).unwrap();
        assert_eq!(c.nnz(), 11);
        assert_eq!(c.self_loop_degree(), Some(6));
        let l = StarGraph::new(5, SelfLoop::Leaf).unwrap();
        assert_eq!(l.nnz(), 11);
        assert_eq!(l.self_loop_degree(), Some(2));
    }

    #[test]
    fn degree_distribution_matches_measured() {
        for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
            for points in [1u64, 2, 3, 5, 9, 16] {
                let s = StarGraph::new(points, self_loop).unwrap();
                let predicted = s.degree_distribution();
                let measured = degree_distribution(&s.adjacency());
                for (d, count) in measured {
                    if d == 0 {
                        assert_eq!(count, 0, "no empty vertices in a star");
                        continue;
                    }
                    assert_eq!(
                        predicted.count(&BigUint::from(d)),
                        BigUint::from(count),
                        "mismatch at degree {d} for m̂={points}, {self_loop:?}"
                    );
                }
                assert_eq!(
                    predicted.total_vertices(),
                    BigUint::from(s.vertices()),
                    "distribution must cover every vertex"
                );
            }
        }
    }

    #[test]
    fn triangle_raw_sum_matches_measured() {
        for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
            for points in [1u64, 2, 3, 5, 9] {
                let s = StarGraph::new(points, self_loop).unwrap();
                let csr = CsrMatrix::from_coo::<PlusTimes>(&s.adjacency()).unwrap();
                assert_eq!(
                    triangle_raw_sum(&csr).unwrap(),
                    s.triangle_raw_sum(),
                    "raw triangle sum mismatch for m̂={points}, {self_loop:?}"
                );
            }
        }
    }

    #[test]
    fn star_alpha_is_one() {
        assert_eq!(StarGraph::plain(7).unwrap().alpha(), 1.0);
        assert_eq!(StarGraph::plain(1).unwrap().alpha(), 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use kron_sparse::reduce::row_counts;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn nnz_matches_adjacency(points in 1u64..64,
                                 which in 0u8..3) {
            let self_loop = match which { 0 => SelfLoop::None, 1 => SelfLoop::Centre, _ => SelfLoop::Leaf };
            let s = StarGraph::new(points, self_loop).unwrap();
            prop_assert_eq!(s.adjacency().nnz() as u64, s.nnz());
        }

        #[test]
        fn degree_distribution_covers_all_vertices(points in 1u64..64, which in 0u8..3) {
            let self_loop = match which { 0 => SelfLoop::None, 1 => SelfLoop::Centre, _ => SelfLoop::Leaf };
            let s = StarGraph::new(points, self_loop).unwrap();
            prop_assert_eq!(s.degree_distribution().total_vertices(), BigUint::from(s.vertices()));
        }

        #[test]
        fn degree_sum_equals_nnz(points in 1u64..64, which in 0u8..3) {
            let self_loop = match which { 0 => SelfLoop::None, 1 => SelfLoop::Centre, _ => SelfLoop::Leaf };
            let s = StarGraph::new(points, self_loop).unwrap();
            // Sum of row-degrees equals the number of stored entries.
            let measured: u64 = row_counts(&s.adjacency()).iter().sum();
            prop_assert_eq!(measured, s.nnz());
            prop_assert_eq!(s.degree_distribution().total_edge_endpoints(), BigUint::from(s.nnz()));
        }
    }
}
