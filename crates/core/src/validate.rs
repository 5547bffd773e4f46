//! Validation: measuring a realised graph and comparing it with predictions.
//!
//! The paper's headline validation (Figure 4) is that the measured degree
//! distribution of a generated trillion-edge graph *exactly* equals the
//! predicted one.  This module measures [`GraphProperties`] from a realised
//! adjacency matrix — or, for graphs too large to assemble, from a streamed
//! degree histogram — and produces a field-by-field [`ValidationReport`]
//! against the analytic prediction.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use kron_bignum::BigUint;
use kron_sparse::reduce::{
    col_counts, degree_distribution as measured_histogram, degree_histogram,
};
use kron_sparse::select::{empty_vertices, has_duplicates, self_loop_count};
use kron_sparse::triangles::count_triangles_coo;
use kron_sparse::CooMatrix;

use crate::degree::DegreeDistribution;
use crate::design::KroneckerDesign;
use crate::error::CoreError;
use crate::properties::GraphProperties;

/// Measure the exact properties of a realised adjacency matrix.
///
/// Triangle counting is only attempted when the graph has no self-loops
/// (the formula assumes a simple graph); otherwise `triangles` is `None`.
///
/// A non-square matrix is read as a bipartite adjacency between its row
/// vertices and its (disjoint) column vertices — the Figure-1 view of a
/// star's `E_out`/`E_in` factors: `vertices` is `nrows + ncols`, each stored
/// entry contributes a row endpoint and a column endpoint to the degree
/// distribution, self-loops do not exist (the diagonal has no meaning across
/// disjoint vertex sets), and triangles are not measured.
pub fn measure_properties(graph: &CooMatrix<u64>) -> Result<GraphProperties, CoreError> {
    if !graph.is_square() {
        return measure_bipartite_properties(graph);
    }
    let loops = self_loop_count(graph) as u64;
    let triangles = if loops == 0 {
        Some(BigUint::from(count_triangles_coo(graph)?))
    } else {
        None
    };
    let histogram = measured_histogram(graph);
    let mut properties = measure_from_histogram(graph.nrows(), &histogram, loops);
    properties.triangles = triangles;
    Ok(properties)
}

/// Measure a non-square matrix as a bipartite graph (see
/// [`measure_properties`]).
fn measure_bipartite_properties(graph: &CooMatrix<u64>) -> Result<GraphProperties, CoreError> {
    let mut histogram = degree_histogram(&kron_sparse::reduce::row_counts(graph));
    for (degree, count) in degree_histogram(&col_counts(graph)) {
        *histogram.entry(degree).or_insert(0) += count;
    }
    let vertices = graph
        .nrows()
        .checked_add(graph.ncols())
        .ok_or(CoreError::Sparse(kron_sparse::SparseError::TooLarge {
            what: "bipartite vertex count",
            requested: graph.nrows() as u128 + graph.ncols() as u128,
        }))?;
    let mut properties = measure_from_histogram(vertices, &histogram, 0);
    // The combined histogram counts both endpoints of every entry, so the
    // `Σ d·n(d)` edge recovery would double-count; the edge count of a
    // bipartite graph is simply its stored-entry count.
    properties.edges = BigUint::from(graph.nnz() as u64);
    properties.triangles = None;
    Ok(properties)
}

/// Build the measured property sheet from a streamed degree histogram — the
/// bounded-memory entry point behind the shard driver's validation path.
///
/// `histogram` maps row-endpoint degree to vertex count (the convention of
/// [`kron_sparse::reduce::degree_distribution`] and
/// [`kron_sparse::DegreeAccumulator::row_histogram`]); the edge count is
/// recovered exactly as `Σ d·n(d)`.  Degree-zero vertices stay out of the
/// distribution (they carry no edge endpoints) but are included in
/// `vertices`.  Triangles are never measured from a histogram.
pub fn measure_from_histogram(
    vertices: u64,
    histogram: &BTreeMap<u64, u64>,
    self_loops: u64,
) -> GraphProperties {
    let mut edges = BigUint::zero();
    for (&degree, &count) in histogram {
        edges += BigUint::from(degree) * BigUint::from(count);
    }
    GraphProperties {
        vertices: BigUint::from(vertices),
        edges,
        triangles: None,
        self_loops: BigUint::from(self_loops),
        degree_distribution: DegreeDistribution::from_histogram(histogram),
    }
}

/// One field of a validation comparison.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldCheck {
    /// Name of the compared quantity.
    pub field: String,
    /// Predicted value (decimal string).
    pub predicted: String,
    /// Measured value (decimal string).
    pub measured: String,
    /// Whether the two are exactly equal.
    pub matches: bool,
}

impl FieldCheck {
    /// Build a check by rendering both values to decimal strings and
    /// comparing them exactly — the single way every validation path in the
    /// workspace constructs its field comparisons.
    pub fn exact(
        field: impl Into<String>,
        predicted: impl ToString,
        measured: impl ToString,
    ) -> Self {
        let predicted = predicted.to_string();
        let measured = measured.to_string();
        FieldCheck {
            field: field.into(),
            matches: predicted == measured,
            predicted,
            measured,
        }
    }
}

/// The result of validating a realised graph against its design.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Per-field comparisons (vertices, edges, triangles, self-loops,
    /// degree-distribution support and counts).
    pub checks: Vec<FieldCheck>,
    /// Structural health of the realised graph: no empty vertices.  `None`
    /// when the check did not run (property-only and streamed comparisons
    /// have no assembled graph to inspect).
    pub no_empty_vertices: Option<bool>,
    /// Structural health of the realised graph: no duplicate edges.  `None`
    /// when the check did not run.
    pub no_duplicate_edges: Option<bool>,
}

impl ValidationReport {
    /// A report consisting of the given field checks and no structural
    /// inspection (streamed runs have no assembled graph to inspect, so both
    /// structural flags stay `None` = unchecked).
    ///
    /// This is the constructor for sources that cannot predict the full
    /// property sheet: a sampling generator (R-MAT) checks only the fields
    /// it knows ahead of time — vertex and sample counts — and everything
    /// else stays measured-only.
    pub fn from_checks(checks: Vec<FieldCheck>) -> Self {
        ValidationReport {
            checks,
            no_empty_vertices: None,
            no_duplicate_edges: None,
        }
    }

    /// Whether every field matched and no structural check failed
    /// (structural checks that did not run cannot fail).
    pub fn is_exact_match(&self) -> bool {
        self.no_empty_vertices != Some(false)
            && self.no_duplicate_edges != Some(false)
            && self.checks.iter().all(|c| c.matches)
    }

    /// The names of fields that failed.
    pub fn failures(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|c| !c.matches)
            .map(|c| c.field.as_str())
            .collect()
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for check in &self.checks {
            writeln!(
                f,
                "{:<22} predicted {:>28}  measured {:>28}  {}",
                check.field,
                check.predicted,
                check.measured,
                if check.matches { "OK" } else { "MISMATCH" }
            )?;
        }
        let shown = |checked: Option<bool>| match checked {
            Some(ok) => {
                if ok {
                    "true"
                } else {
                    "FALSE"
                }
            }
            None => "unchecked",
        };
        writeln!(f, "no empty vertices: {}", shown(self.no_empty_vertices))?;
        writeln!(f, "no duplicate edges: {}", shown(self.no_duplicate_edges))?;
        write!(f, "exact match: {}", self.is_exact_match())
    }
}

/// Compare predicted properties with a measured realisation.
pub fn compare_properties(
    predicted: &GraphProperties,
    measured: &GraphProperties,
) -> ValidationReport {
    compare_fields(predicted, measured, true)
}

/// Compare predicted properties with a *streamed* measurement — the same
/// field-by-field report as [`compare_properties`], minus the triangle
/// check, which a bounded-memory stream cannot measure (counting triangles
/// needs the assembled matrix).  Every field the paper's Figure 4 validates
/// — vertices, edges, self-loops, and the complete degree distribution — is
/// still compared exactly.
pub fn validate_streamed(
    predicted: &GraphProperties,
    measured: &GraphProperties,
) -> ValidationReport {
    compare_fields(predicted, measured, false)
}

fn compare_fields(
    predicted: &GraphProperties,
    measured: &GraphProperties,
    include_triangles: bool,
) -> ValidationReport {
    let mut checks = Vec::new();
    let mut push = |field: &str, p: String, m: String| {
        checks.push(FieldCheck::exact(field, p, m));
    };
    push(
        "vertices",
        predicted.vertices.to_string(),
        measured.vertices.to_string(),
    );
    push(
        "edges",
        predicted.edges.to_string(),
        measured.edges.to_string(),
    );
    if include_triangles {
        push(
            "triangles",
            predicted
                .triangles
                .as_ref()
                .map_or("n/a".into(), |t| t.to_string()),
            measured
                .triangles
                .as_ref()
                .map_or("n/a".into(), |t| t.to_string()),
        );
    }
    push(
        "self_loops",
        predicted.self_loops.to_string(),
        measured.self_loops.to_string(),
    );
    push(
        "distinct_degrees",
        predicted.distinct_degrees().to_string(),
        measured.distinct_degrees().to_string(),
    );
    push(
        "max_degree",
        predicted.max_degree().to_string(),
        measured.max_degree().to_string(),
    );
    checks.push(FieldCheck {
        field: "degree_distribution".to_string(),
        matches: predicted.degree_distribution == measured.degree_distribution,
        predicted: format!(
            "{} support points",
            predicted.degree_distribution.support_size()
        ),
        measured: format!(
            "{} support points",
            measured.degree_distribution.support_size()
        ),
    });
    ValidationReport {
        checks,
        no_empty_vertices: None,
        no_duplicate_edges: None,
    }
}

/// Realise a design (bounded by `max_edges`), measure it, and compare with
/// the analytic prediction — the full "design, generate, validate" loop of
/// the paper on a single machine.
pub fn validate_design(
    design: &KroneckerDesign,
    max_edges: u64,
) -> Result<ValidationReport, CoreError> {
    let predicted = design.properties();
    let graph = design.realize(max_edges)?;
    let measured = measure_properties(&graph)?;
    let mut report = compare_properties(&predicted, &measured);
    report.no_empty_vertices = Some(empty_vertices(&graph).is_empty());
    report.no_duplicate_edges = Some(!has_duplicates(&graph));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::SelfLoop;

    #[test]
    fn validate_small_designs_exactly() {
        for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
            let design = KroneckerDesign::from_star_points(&[3, 5, 9], self_loop).unwrap();
            let report = validate_design(&design, 1_000_000).unwrap();
            assert!(
                report.is_exact_match(),
                "validation failed for {self_loop:?}: {:?}",
                report.failures()
            );
        }
    }

    #[test]
    fn measured_properties_of_known_graph() {
        // Triangle graph plus an isolated vertex.
        let g = CooMatrix::from_edges(4, 4, vec![(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
            .unwrap();
        let props = measure_properties(&g).unwrap();
        assert_eq!(props.vertices, BigUint::from(4u64));
        assert_eq!(props.edges, BigUint::from(6u64));
        assert_eq!(props.triangles, Some(BigUint::from(1u64)));
        assert_eq!(props.self_loops, BigUint::zero());
        assert_eq!(
            props.degree_distribution.count(&BigUint::from(2u64)),
            BigUint::from(3u64)
        );
        // The isolated vertex contributes no degree support but is counted.
        assert_eq!(
            props.degree_distribution.total_vertices(),
            BigUint::from(3u64)
        );
    }

    #[test]
    fn non_square_matrices_measure_as_bipartite() {
        // The Figure-1 view of a star: a 2×3 bipartite adjacency.  Row
        // vertices have degrees 2 and 1; column vertices 1, 1, 1.
        let g = CooMatrix::from_edges(2, 3, vec![(0, 0), (0, 2), (1, 1)]).unwrap();
        let props = measure_properties(&g).unwrap();
        assert_eq!(props.vertices, BigUint::from(5u64));
        assert_eq!(props.edges, BigUint::from(3u64));
        // Each stored entry contributes a row endpoint and a column
        // endpoint, so the endpoint total is 2·nnz.
        assert_eq!(
            props.degree_distribution.total_edge_endpoints(),
            BigUint::from(6u64)
        );
        assert_eq!(props.self_loops, BigUint::zero());
        assert_eq!(props.triangles, None);
        assert_eq!(
            props.degree_distribution.count(&BigUint::from(1u64)),
            BigUint::from(4u64)
        );
        assert_eq!(
            props.degree_distribution.count(&BigUint::from(2u64)),
            BigUint::from(1u64)
        );
    }

    #[test]
    fn histogram_measurement_matches_materialised_measurement() {
        let design = KroneckerDesign::from_star_points(&[3, 5, 9], SelfLoop::Centre).unwrap();
        let graph = design.realize(1_000_000).unwrap();
        let materialised = measure_properties(&graph).unwrap();
        let histogram = kron_sparse::reduce::degree_distribution(&graph);
        let streamed = measure_from_histogram(graph.nrows(), &histogram, 0);
        assert_eq!(streamed.vertices, materialised.vertices);
        assert_eq!(streamed.edges, materialised.edges);
        assert_eq!(streamed.self_loops, materialised.self_loops);
        assert_eq!(
            streamed.degree_distribution,
            materialised.degree_distribution
        );
        // Histograms cannot measure triangles.
        assert_eq!(streamed.triangles, None);
    }

    #[test]
    fn streamed_validation_skips_only_the_triangle_check() {
        let design = KroneckerDesign::from_star_points(&[3, 5, 9], SelfLoop::Leaf).unwrap();
        let graph = design.realize(1_000_000).unwrap();
        let histogram = kron_sparse::reduce::degree_distribution(&graph);
        let streamed = measure_from_histogram(graph.nrows(), &histogram, 0);
        let report = validate_streamed(&design.properties(), &streamed);
        assert!(
            report.is_exact_match(),
            "streamed validation failed: {:?}",
            report.failures()
        );
        assert!(!report.checks.iter().any(|c| c.field == "triangles"));
        // The materialising comparison would have flagged the unmeasured
        // triangle count as a mismatch.
        let full = compare_properties(&design.properties(), &streamed);
        assert!(full.failures().contains(&"triangles"));
    }

    #[test]
    fn self_loops_disable_triangle_measurement() {
        let g = CooMatrix::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]).unwrap();
        let props = measure_properties(&g).unwrap();
        assert_eq!(props.self_loops, BigUint::from(1u64));
        assert_eq!(props.triangles, None);
    }

    #[test]
    fn mismatches_are_reported() {
        let design_a = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        let design_b = KroneckerDesign::from_star_points(&[3, 5], SelfLoop::None).unwrap();
        let report = compare_properties(&design_a.properties(), &design_b.properties());
        assert!(!report.is_exact_match());
        assert!(report.failures().contains(&"vertices"));
        assert!(report.failures().contains(&"edges"));
        let text = report.to_string();
        assert!(text.contains("MISMATCH"));
        assert!(text.contains("exact match: false"));
    }

    #[test]
    fn report_serialises() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::Centre).unwrap();
        let report = validate_design(&design, 10_000).unwrap();
        let check = &report.checks[0];
        assert_eq!(check.field, "vertices");
        assert!(check.matches);
    }
}
