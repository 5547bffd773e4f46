//! Graph500-style use of a designed graph: generate it in parallel, run BFS
//! from a set of roots, validate every BFS tree against the adjacency matrix,
//! and report traversal statistics.  This is the "downstream consumer" view:
//! the generated graph is exactly the one the designer specified, so the BFS
//! workload's input properties (vertex count, edge count, degree skew) are
//! known in advance rather than discovered afterwards.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example graph500_style_bfs
//! ```

use std::time::Instant;

use extreme_graphs::sparse::bfs::{bfs, connected_components};
use extreme_graphs::sparse::{CsrMatrix, PlusTimes};
use extreme_graphs::{KroneckerDesign, Pipeline, SelfLoop};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Design and generate: centre-loop construction so the graph is connected
    // through its hub and has a known triangle count too.
    let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9, 16], SelfLoop::Centre)?;
    println!(
        "designed graph: {} vertices, {} edges, {} triangles (all known before generation)",
        design.vertices(),
        design.edges(),
        design.triangles()?,
    );

    let started = Instant::now();
    let report = Pipeline::for_design(&design)
        .workers(8)
        .max_c_edges(200_000)
        .collect_coo()?;
    println!(
        "generated in {:?} on {} workers ({:.1} Medges/s), streamed validation exact: {}",
        started.elapsed(),
        report.manifest.workers,
        report.edges_per_second() / 1e6,
        report.validation.is_exact_match(),
    );

    // Build the CSR the traversal kernels consume.
    let assembled = report.assemble();
    let csr = CsrMatrix::from_coo::<PlusTimes>(&assembled)?;

    // Connectivity: the centre-loop star product is a single connected
    // component (every vertex reaches the all-centres hub).
    let (_, components) = connected_components(&csr)?;
    println!("connected components: {components}");

    // BFS from a deterministic sample of roots, Graph500-style.
    let n = csr.nrows();
    let roots: Vec<usize> = (0..16).map(|i| (i * 7919) % n).collect();
    println!(
        "\n{:>10} {:>12} {:>12} {:>14} {:>12}",
        "root", "reached", "max level", "time", "valid"
    );
    let mut total_edges_traversed = 0u64;
    let mut total_seconds = 0.0f64;
    for &root in &roots {
        let started = Instant::now();
        let tree = bfs(&csr, root)?;
        let elapsed = started.elapsed();
        tree.validate(&csr)?;
        total_edges_traversed += csr.nnz() as u64;
        total_seconds += elapsed.as_secs_f64();
        println!(
            "{:>10} {:>12} {:>12} {:>14?} {:>12}",
            root,
            tree.reached(),
            tree.max_level(),
            elapsed,
            "ok"
        );
        assert_eq!(
            tree.reached(),
            n,
            "centre-loop Kronecker graphs are connected"
        );
    }
    println!(
        "\naggregate traversal rate: {:.1} Medges/s over {} BFS runs",
        total_edges_traversed as f64 / total_seconds / 1e6,
        roots.len()
    );
    println!("graph500_style_bfs: every BFS tree validated against the designed graph ✓");

    Ok(())
}
