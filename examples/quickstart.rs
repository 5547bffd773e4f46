//! Quickstart: design a power-law graph, predict its exact properties,
//! run the design → generate → validate pipeline, and inspect the run
//! manifest.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use extreme_graphs::core::validate::measure_properties;
use extreme_graphs::{KroneckerDesign, Pipeline, SelfLoop};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Design: Kronecker product of stars with m̂ = {3, 4, 5, 9} points and
    //    a self-loop on every centre vertex (the paper's "many triangles"
    //    construction).  Every property below is computed without building
    //    the graph.
    let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre)?;

    println!("=== designed properties (computed before generation) ===");
    println!("{}", design.properties());
    println!();

    // 2. Generate + validate, one builder: split into B ⊗ C, give each of 4
    //    workers an equal slice of B's triples, stream every worker's
    //    expansion into an in-memory block — no inter-worker communication —
    //    while a streaming degree histogram measures the result.
    let report = Pipeline::for_design(&design).workers(4).collect_coo()?;
    println!("=== generation ===");
    println!(
        "workers: {}   edges: {}   rate: {:.1} Medges/s   balance (max/mean): {:.4}",
        report.manifest.workers,
        report.edge_count(),
        report.edges_per_second() / 1e6,
        report.metrics.balance.max_over_mean,
    );
    println!(
        "edges per worker: {:?}",
        report.metrics.balance.edges_per_worker
    );
    println!();

    // 3. The run already validated itself: the streamed degree histogram is
    //    compared with the prediction field by field (the paper's Figure 4).
    println!("=== validation (predicted vs measured, streamed) ===");
    println!("{}", report.validation);
    assert!(
        report.validation.is_exact_match(),
        "generated graph must match the design exactly"
    );

    // 4. The same exactness holds for the assembled matrix — including the
    //    triangle count, which a stream cannot measure.
    let assembled = report.assemble();
    let assembled_props = measure_properties(&assembled)?;
    assert!(design.properties().exactly_matches(&assembled_props));

    // 5. Every run carries a serialisable manifest: the design spec, the
    //    full configuration, and the per-worker results.  File-writing
    //    terminals (`.write_tsv(dir)` / `.write_compressed(dir)`) drop this as
    //    `manifest.json` next to the shards.
    println!("=== run manifest ===");
    println!("{}", report.manifest.to_json());

    println!("quickstart: all predictions verified exactly ✓");

    Ok(())
}
