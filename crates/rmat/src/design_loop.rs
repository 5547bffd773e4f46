//! The trial-and-error design loop.
//!
//! This is the workflow the paper's introduction criticises: to obtain a
//! graph with given properties from a random generator, the designer picks
//! parameters, generates a full graph, measures it, and adjusts — paying the
//! full generation cost on every iteration.  [`TrialAndErrorDesigner`] runs
//! exactly that loop over R-MAT's `scale`/`edge_factor` parameters so the
//! comparison benches can report its cost next to the exact Kronecker
//! designer, which evaluates a candidate in microseconds without generating
//! anything.

use serde::{Deserialize, Serialize};

use crate::measure::{measure_edge_list, EdgeListStats};
use crate::rmat::{RmatGenerator, RmatParams};

/// Targets for the trial-and-error search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialTargets {
    /// Desired number of *unique* directed edges.
    pub unique_edges: u64,
    /// Acceptable relative error on the edge count (e.g. 0.1 = ±10%).
    pub edge_tolerance: f64,
    /// Maximum number of generate-and-measure iterations.
    pub max_iterations: usize,
}

/// One iteration of the loop: the parameters tried and what they produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialIteration {
    /// R-MAT parameters used in this iteration.
    pub params: RmatParams,
    /// Measured statistics of the generated graph.
    pub stats: EdgeListStats,
    /// Relative error of the unique edge count against the target.
    pub relative_error: f64,
}

/// Outcome of a trial-and-error design run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignLoopReport {
    /// Every iteration in order.
    pub iterations: Vec<TrialIteration>,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
    /// Total number of raw edges that had to be generated across the run —
    /// the work an exact designer never performs.
    pub total_edges_generated: u64,
}

impl DesignLoopReport {
    /// Number of iterations performed.
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// The best (lowest-error) iteration, if any iteration was run.
    pub fn best(&self) -> Option<&TrialIteration> {
        self.iterations
            .iter()
            .min_by(|a, b| a.relative_error.total_cmp(&b.relative_error))
    }
}

/// The trial-and-error designer over R-MAT parameters.
#[derive(Debug, Clone)]
pub struct TrialAndErrorDesigner {
    seed: u64,
}

impl TrialAndErrorDesigner {
    /// Create a designer with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        TrialAndErrorDesigner { seed }
    }

    /// Run the loop: start from a scale estimated from the target, generate,
    /// measure, and adjust `scale` / `edge_factor` until the unique-edge
    /// target is met or the iteration budget is exhausted.
    pub fn run(&self, targets: &TrialTargets) -> DesignLoopReport {
        let mut iterations = Vec::new();
        let mut total_edges_generated = 0u64;

        // Initial guess: Graph500 edge factor, scale from the edge target.
        let mut edge_factor = 16u64;
        let mut scale = estimate_scale(targets.unique_edges, edge_factor);
        let mut converged = false;

        for iteration in 0..targets.max_iterations {
            let mut params = RmatParams::graph500(scale);
            params.edge_factor = edge_factor;
            let generator = RmatGenerator::new(params, self.seed.wrapping_add(iteration as u64))
                // lint:allow(no-expect) -- the Graph500-derived initiator constants are a compile-time-valid probability vector
                .expect("graph500-derived parameters are always valid");
            let edges: Vec<(u64, u64)> = (0..params.requested_edges())
                .map(|index| generator.edge_at(index))
                .collect();
            total_edges_generated += edges.len() as u64;
            let stats = measure_edge_list(params.vertices(), &edges);
            let produced = stats.unique_edges.max(1);
            let relative_error =
                (produced as f64 - targets.unique_edges as f64).abs() / targets.unique_edges as f64;
            iterations.push(TrialIteration {
                params,
                stats,
                relative_error,
            });

            if relative_error <= targets.edge_tolerance {
                converged = true;
                break;
            }
            // Adjust: too few unique edges → raise the edge factor (duplicates
            // ate the surplus) or the scale; too many → lower them.
            if produced < targets.unique_edges {
                if edge_factor < 64 {
                    edge_factor += edge_factor.max(2) / 2;
                } else {
                    scale += 1;
                    edge_factor = 16;
                }
            } else if edge_factor > 2 {
                edge_factor -= (edge_factor / 4).max(1);
            } else if scale > 1 {
                scale -= 1;
                edge_factor = 16;
            }
        }
        DesignLoopReport {
            iterations,
            converged,
            total_edges_generated,
        }
    }
}

/// Smallest scale whose requested edge count reaches the target at the given
/// edge factor.
fn estimate_scale(target_edges: u64, edge_factor: u64) -> u32 {
    let mut scale = 1u32;
    while edge_factor * (1u64 << scale) < target_edges && scale < 40 {
        scale += 1;
    }
    scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_estimation() {
        assert_eq!(estimate_scale(16, 16), 1);
        assert_eq!(estimate_scale(16 * 1024, 16), 10);
        assert_eq!(estimate_scale(16 * 1024 + 1, 16), 11);
    }

    #[test]
    fn loop_converges_for_reachable_target() {
        let designer = TrialAndErrorDesigner::new(42);
        let targets = TrialTargets {
            unique_edges: 12_000,
            edge_tolerance: 0.25,
            max_iterations: 12,
        };
        let report = designer.run(&targets);
        assert!(
            report.converged,
            "loop should converge within 12 iterations"
        );
        assert!(report.iteration_count() >= 1);
        assert!(report.total_edges_generated > 0);
        let best = report.best().unwrap();
        assert!(best.relative_error <= 0.25);
    }

    #[test]
    fn loop_reports_cost_of_every_iteration() {
        let designer = TrialAndErrorDesigner::new(7);
        let targets = TrialTargets {
            unique_edges: 30_000,
            edge_tolerance: 0.02,
            max_iterations: 5,
        };
        let report = designer.run(&targets);
        // Whether or not it converges, every iteration paid a full generation.
        let sum: u64 = report.iterations.iter().map(|i| i.stats.raw_edges).sum();
        assert_eq!(sum, report.total_edges_generated);
        assert!(report.iteration_count() <= 5);
    }

    #[test]
    fn tight_tolerance_may_exhaust_budget() {
        let designer = TrialAndErrorDesigner::new(3);
        let targets = TrialTargets {
            unique_edges: 10_000,
            edge_tolerance: 0.0001,
            max_iterations: 3,
        };
        let report = designer.run(&targets);
        assert!(report.iteration_count() <= 3);
        if !report.converged {
            assert!(report.best().unwrap().relative_error > 0.0001);
        }
    }
}
