//! Side-by-side comparison of the exact Kronecker generator with the R-MAT
//! baseline at the same scale — both running through the *same* generic
//! `Pipeline` terminals: structural cleanliness, degree-distribution
//! exactness, and the cost of knowing the properties.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example rmat_comparison
//! ```

use std::time::Instant;

use extreme_graphs::core::validate::measure_properties;
use extreme_graphs::rmat::{measure_edge_list, RmatParams, RmatSource};
use extreme_graphs::{KroneckerDesign, Pipeline, SelfLoop};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Pick designs of comparable size: the Kronecker design below has
    // 530,400 vertices and 13,824,000 edges (the paper's B factor); R-MAT at
    // scale 19 / edge factor 16 requests 8,388,608 edge samples over 524,288
    // vertices.
    let kron_points = [3u64, 4, 5, 9, 16, 25];
    let rmat_params = RmatParams::graph500(19);

    // --- Kronecker ----------------------------------------------------------
    println!("=== exact Kronecker generator ===");
    let design = KroneckerDesign::from_star_points(&kron_points, SelfLoop::None)?;
    let predict_start = Instant::now();
    let properties = design.properties();
    let predict_elapsed = predict_start.elapsed();
    println!("properties known before generation (computed in {predict_elapsed:?}):");
    println!("{properties}");

    let generate_start = Instant::now();
    let report = Pipeline::for_design(&design)
        .workers(8)
        .max_c_edges(200_000)
        .collect_coo()?;
    let generate_elapsed = generate_start.elapsed();
    println!(
        "\ngenerated {} edges in {:?} ({:.1} Medges/s), per-worker imbalance {} edges",
        report.edge_count(),
        generate_elapsed,
        report.edges_per_second() / 1e6,
        report.metrics.balance.max_edges - report.metrics.balance.min_edges,
    );
    let assembled = report.assemble();
    let measured = measure_properties(&assembled)?;
    println!(
        "structural artefacts: {} self-loops, {} duplicate edges, {} empty vertices",
        measured.self_loops, 0, 0,
    );
    println!(
        "measured degree distribution equals prediction: {}",
        measured.degree_distribution == properties.degree_distribution
    );

    // --- R-MAT through the same pipeline ------------------------------------
    println!("\n=== R-MAT baseline (Graph500 parameters, scale 19) ===");
    println!("properties known before generation: vertex and sample counts only —");
    println!("everything else must be measured afterwards.");
    let rmat_start = Instant::now();
    let rmat_report = Pipeline::for_source(RmatSource::new(rmat_params, 20180304)?)
        .workers(8)
        .collect_coo()?;
    let rmat_elapsed = rmat_start.elapsed();
    assert!(
        rmat_report.is_valid(),
        "the predictable fields (counts) must match"
    );
    assert!(
        rmat_report.predicted.is_none(),
        "R-MAT has no exact property sheet"
    );
    println!(
        "manifest records source \"{}\" with seed {:?}",
        rmat_report.manifest.source, rmat_report.manifest.source_seed,
    );
    let edges: Vec<(u64, u64)> = rmat_report
        .outputs
        .iter()
        .flat_map(|block| block.iter().map(|(r, c, _)| (r, c)))
        .collect();
    let stats = measure_edge_list(rmat_params.vertices(), &edges);
    println!(
        "sampled {} edges in {:?}; after cleaning: {} unique edges ({:.1}% of samples wasted)",
        stats.raw_edges,
        rmat_elapsed,
        stats.unique_edges,
        stats.waste_fraction() * 100.0,
    );
    println!(
        "structural artefacts: {} self-loop samples, {} duplicate samples, {} empty vertices",
        stats.self_loops,
        stats.raw_edges - stats.unique_edges - stats.self_loops,
        stats.empty_vertices,
    );
    println!(
        "measured max degree {} and fitted power-law slope {:.3} — only known after generation",
        stats.max_degree,
        stats.alpha().unwrap_or(f64::NAN),
    );

    // --- the permutation stage, shared by both workflows --------------------
    println!("\n=== O(1)-memory vertex permutation (shared stage) ===");
    let permuted = Pipeline::for_design(&design)
        .workers(8)
        .max_c_edges(200_000)
        .permute_vertices(0x5EED)
        .count()?;
    assert!(
        permuted.is_valid(),
        "relabelling is degree-preserving, so validation still passes"
    );
    println!(
        "permuted Kronecker run still validates exactly (seed {:?} in the manifest): {}",
        permuted.manifest.permutation_seed,
        permuted.is_valid(),
    );

    println!("\nsummary:");
    println!("  Kronecker: properties exact and known up front; graph is clean by construction.");
    println!("  R-MAT:     properties approximate and only known after generating and measuring;");
    println!("             output needs de-duplication, loop removal, and re-indexing first.");
    println!("  Both now stream through one Pipeline: same sinks, validation, and manifests.");

    Ok(())
}
