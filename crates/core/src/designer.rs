//! Target-driven design search.
//!
//! The whole point of the paper is to invert the usual workflow: instead of
//! generating a graph and measuring what came out, a designer states targets
//! (edge count, edge/vertex ratio, triangle regime) and obtains a constituent
//! list whose *exact* properties are known up front.  [`DesignSearch`]
//! performs that inversion over star-product designs: it enumerates
//! combinations of candidate star sizes, keeps only product-unique sets (the
//! perfect power-law condition), computes exact properties for each, and
//! returns the designs closest to the targets.

use serde::{Deserialize, Serialize};

use kron_bignum::BigUint;

use crate::design::KroneckerDesign;
use crate::error::CoreError;
use crate::powerlaw::star_products_unique;
use crate::star::SelfLoop;

/// Targets for a design search.  All fields are optional except the edge
/// count; unspecified targets simply do not contribute to the ranking.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesignTargets {
    /// Desired number of edges of the final graph.
    pub edges: BigUint,
    /// Desired number of vertices (optional).
    pub vertices: Option<BigUint>,
    /// Desired triangle regime (optional; `SelfLoop::None` → zero triangles).
    pub self_loop: SelfLoop,
    /// Maximum number of constituents to combine.
    pub max_constituents: usize,
    /// Require the exact power-law condition (all star products unique).
    pub require_unique_products: bool,
}

impl DesignTargets {
    /// Convenience constructor: target an edge count with defaults
    /// (no vertex target, no self-loops, at most 8 constituents, uniqueness
    /// required).
    pub fn edges(edges: impl Into<BigUint>) -> Self {
        DesignTargets {
            edges: edges.into(),
            vertices: None,
            self_loop: SelfLoop::None,
            max_constituents: 8,
            require_unique_products: true,
        }
    }
}

/// A scored candidate produced by the search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesignCandidate {
    /// The star points of the candidate design, in search order.
    pub points: Vec<u64>,
    /// Exact number of edges of the candidate.
    pub edges: BigUint,
    /// Exact number of vertices of the candidate.
    pub vertices: BigUint,
    /// Relative error of the edge count against the target
    /// (`|log10(edges) − log10(target)|`).
    pub edge_log_error: f64,
    /// Relative error of the vertex count against the target (0 when no
    /// vertex target was given).
    pub vertex_log_error: f64,
}

impl DesignCandidate {
    /// Combined ranking score (lower is better).
    pub fn score(&self) -> f64 {
        self.edge_log_error + self.vertex_log_error
    }

    /// Materialise the candidate as a design with the requested self-loop
    /// placement.
    pub fn into_design(self, self_loop: SelfLoop) -> Result<KroneckerDesign, CoreError> {
        KroneckerDesign::from_star_points(&self.points, self_loop)
    }
}

/// A design search over a pool of candidate star sizes.
#[derive(Debug, Clone)]
pub struct DesignSearch {
    pool: Vec<u64>,
}

impl Default for DesignSearch {
    fn default() -> Self {
        DesignSearch::new(DEFAULT_POOL.to_vec())
    }
}

/// The default candidate pool: the star sizes used across the paper's
/// evaluation plus nearby primes and prime powers, which keep subset products
/// unique.
pub const DEFAULT_POOL: &[u64] = &[
    3, 4, 5, 7, 9, 11, 13, 16, 25, 49, 81, 121, 128, 169, 256, 625, 2401, 14641,
];

impl DesignSearch {
    /// Create a search over an explicit pool of star sizes.
    pub fn new(mut pool: Vec<u64>) -> Self {
        pool.retain(|&p| p >= 1);
        pool.sort_unstable();
        pool.dedup();
        DesignSearch { pool }
    }

    /// The candidate pool.
    pub fn pool(&self) -> &[u64] {
        &self.pool
    }

    /// Run the search and return up to `top_k` candidates ranked by score.
    ///
    /// The search is a bounded depth-first enumeration of increasing subsets
    /// of the pool with two prunes: subsets whose edge count already exceeds
    /// the target stop growing, and (optionally) subsets whose products
    /// collide are discarded.
    pub fn search(
        &self,
        targets: &DesignTargets,
        top_k: usize,
    ) -> Result<Vec<DesignCandidate>, CoreError> {
        if self.pool.is_empty() {
            return Err(CoreError::DesignNotFound {
                message: "candidate pool is empty".into(),
            });
        }
        if targets.edges.is_zero() {
            return Err(CoreError::DesignNotFound {
                message: "edge target must be positive".into(),
            });
        }
        // lint:allow(no-expect) -- edge targets are validated non-zero before the search starts, so log10 is defined
        let target_log_edges = targets.edges.log10().expect("non-zero target");
        let target_log_vertices = targets.vertices.as_ref().and_then(|v| v.log10());

        let mut candidates: Vec<DesignCandidate> = Vec::new();
        let mut stack: Vec<u64> = Vec::new();
        self.enumerate(
            0,
            &mut stack,
            targets,
            target_log_edges,
            target_log_vertices,
            &mut candidates,
        );
        if candidates.is_empty() {
            return Err(CoreError::DesignNotFound {
                message: format!(
                    "no product-unique design with ≤{} constituents reaches ~{} edges",
                    targets.max_constituents, targets.edges
                ),
            });
        }
        candidates.sort_by(|a, b| a.score().total_cmp(&b.score()));
        candidates.truncate(top_k.max(1));
        Ok(candidates)
    }

    fn enumerate(
        &self,
        start: usize,
        stack: &mut Vec<u64>,
        targets: &DesignTargets,
        target_log_edges: f64,
        target_log_vertices: Option<f64>,
        out: &mut Vec<DesignCandidate>,
    ) {
        if !stack.is_empty() {
            if targets.require_unique_products && !star_products_unique(stack) {
                return;
            }
            let (edges, vertices) = star_design_counts(stack, targets.self_loop);
            let edge_log_error = (edges.log10().unwrap_or(0.0) - target_log_edges).abs();
            let vertex_log_error = match (target_log_vertices, vertices.log10()) {
                (Some(t), Some(v)) => (v - t).abs(),
                _ => 0.0,
            };
            out.push(DesignCandidate {
                points: stack.clone(),
                edges: edges.clone(),
                vertices,
                edge_log_error,
                vertex_log_error,
            });
            // Prune: once past the edge target by 10x, adding more stars only
            // moves further away.
            if edges.log10().unwrap_or(0.0) > target_log_edges + 1.0 {
                return;
            }
        }
        if stack.len() >= targets.max_constituents {
            return;
        }
        for i in start..self.pool.len() {
            stack.push(self.pool[i]);
            self.enumerate(
                i + 1,
                stack,
                targets,
                target_log_edges,
                target_log_vertices,
                out,
            );
            stack.pop();
        }
    }
}

/// Exact `(edges, vertices)` of a star design without building constituents,
/// used inside the search loop for speed.
fn star_design_counts(points: &[u64], self_loop: SelfLoop) -> (BigUint, BigUint) {
    let mut edges = BigUint::one();
    let mut vertices = BigUint::one();
    for &p in points {
        let nnz = match self_loop {
            SelfLoop::None => 2 * p,
            _ => 2 * p + 1,
        };
        edges *= nnz;
        vertices *= p + 1;
    }
    if !matches!(self_loop, SelfLoop::None) {
        edges -= BigUint::one();
    }
    (edges, vertices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_known_design_for_paper_edge_target() {
        // Target the paper's Figure 3 B-factor: 13,824,000 edges.
        let search = DesignSearch::new(vec![3, 4, 5, 9, 16, 25, 81, 256]);
        let targets = DesignTargets::edges(BigUint::from(13_824_000u64));
        let results = search.search(&targets, 5).unwrap();
        assert!(!results.is_empty());
        let best = &results[0];
        assert_eq!(best.edges, BigUint::from(13_824_000u64));
        assert_eq!(best.points, vec![3, 4, 5, 9, 16, 25]);
        assert!(best.score() < 1e-9);
        let design = best.clone().into_design(SelfLoop::None).unwrap();
        assert_eq!(design.edges(), BigUint::from(13_824_000u64));
    }

    #[test]
    fn respects_vertex_target() {
        let search = DesignSearch::default();
        let mut targets = DesignTargets::edges(BigUint::from(80_000u64));
        targets.vertices = Some(BigUint::from(20_000u64));
        targets.max_constituents = 4;
        let results = search.search(&targets, 3).unwrap();
        for c in &results {
            assert!(c.score().is_finite());
        }
        // The best candidate should be within a factor of ~10 on both axes.
        assert!(results[0].edge_log_error < 1.0);
        assert!(results[0].vertex_log_error < 1.0);
    }

    #[test]
    fn unique_products_filter_is_applied() {
        let search = DesignSearch::new(vec![2, 3, 6]);
        let mut targets = DesignTargets::edges(BigUint::from(72u64));
        targets.max_constituents = 3;
        let results = search.search(&targets, 10).unwrap();
        for c in &results {
            assert!(
                star_products_unique(&c.points),
                "non-unique candidate {:?}",
                c.points
            );
        }
        // With the filter disabled the colliding set {2,3,6} is allowed.
        targets.require_unique_products = false;
        let unfiltered = search.search(&targets, 50).unwrap();
        assert!(unfiltered.iter().any(|c| c.points == vec![2, 3, 6]));
    }

    #[test]
    fn self_loop_target_changes_edge_counts() {
        let (edges_plain, vertices) = star_design_counts(&[3, 4], SelfLoop::None);
        assert_eq!(edges_plain, BigUint::from(48u64));
        assert_eq!(vertices, BigUint::from(20u64));
        let (edges_loop, _) = star_design_counts(&[3, 4], SelfLoop::Centre);
        assert_eq!(edges_loop, BigUint::from(7 * 9 - 1u64));
        let (edges_leaf, _) = star_design_counts(&[3, 4], SelfLoop::Leaf);
        assert_eq!(edges_leaf, edges_loop);
    }

    #[test]
    fn error_cases() {
        let search = DesignSearch::new(vec![]);
        assert!(search
            .search(&DesignTargets::edges(BigUint::from(10u64)), 3)
            .is_err());
        let search = DesignSearch::default();
        assert!(search
            .search(&DesignTargets::edges(BigUint::zero()), 3)
            .is_err());
    }

    #[test]
    fn default_pool_is_product_unique_overall() {
        // Not required in general, but the default pool was chosen so that
        // moderate subsets stay unique; check a representative subset.
        assert!(star_products_unique(&[3, 4, 5, 7, 9, 11, 16, 25]));
    }
}
