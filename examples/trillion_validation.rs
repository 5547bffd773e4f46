//! The paper's Figure 4 workflow at two scales:
//!
//! 1. **Full paper scale (analytic).** The trillion-edge design
//!    B = m̂{3,4,5,9,16,25}+loops, C = m̂{81,256}+loops: exact vertex, edge,
//!    and triangle counts are computed on this machine in microseconds and
//!    printed next to the values the paper reports.
//! 2. **Machine scale (generated).** A scaled-down design with the same
//!    structure is generated in parallel, measured block by block, and shown
//!    to agree with its prediction *exactly* — the same validation the paper
//!    performs on 41,472 cores.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example trillion_validation
//! ```

use extreme_graphs::bignum::grouped;
use extreme_graphs::core::validate::{compare_properties, measure_properties};
use extreme_graphs::{KroneckerDesign, Pipeline, SelfLoop};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The paper's exact trillion-edge numbers, reproduced analytically.
    let paper_design =
        KroneckerDesign::from_star_points(&[3, 4, 5, 9, 16, 25, 81, 256], SelfLoop::Centre)?;

    println!("=== Figure 4 design at full paper scale (analytic only) ===");
    println!("{:<12} {:>28} {:>28}", "", "this implementation", "paper");
    println!(
        "{:<12} {:>28} {:>28}",
        "vertices",
        grouped(&paper_design.vertices().to_string()),
        "11,177,649,600"
    );
    println!(
        "{:<12} {:>28} {:>28}",
        "edges",
        grouped(&paper_design.edges().to_string()),
        "1,853,002,140,758"
    );
    println!(
        "{:<12} {:>28} {:>28}",
        "triangles",
        grouped(&paper_design.triangles()?.to_string()),
        "6,777,007,252,427"
    );
    let distribution = paper_design.degree_distribution();
    println!(
        "degree distribution: {} support points, max degree {}",
        distribution.support_size(),
        grouped(
            &distribution
                .max_degree()
                .ok_or("empty degree distribution")?
                .to_string()
        ),
    );
    println!("first predicted points (degree, count):");
    for (d, n) in distribution.iter().take(8) {
        println!(
            "  {:>16} {:>20}",
            grouped(&d.to_string()),
            grouped(&n.to_string())
        );
    }

    // --- 2. The same workflow, generated for real at machine scale through
    //        the pipeline.
    let scaled = KroneckerDesign::from_star_points(&[3, 4, 5, 9, 16], SelfLoop::Centre)?;
    let workers = 8;

    println!("\n=== same structure generated at machine scale ===");
    println!(
        "design: m̂ = [3,4,5,9,16] with centre loops -> {} vertices, {} edges",
        grouped(&scaled.vertices().to_string()),
        grouped(&scaled.edges().to_string()),
    );
    let run = Pipeline::for_design(&scaled)
        .workers(workers)
        .max_c_edges(50_000)
        .collect_coo()?;
    println!(
        "generated with {} workers in {:.3} s ({:.1} Medges/s)",
        workers,
        run.manifest.seconds,
        run.edges_per_second() / 1e6
    );
    let balance = &run.metrics.balance;
    println!(
        "per-worker edges: min {}, max {} (max/mean = {:.4})",
        balance.min_edges, balance.max_edges, balance.max_over_mean
    );

    // The run validated its streamed degree histogram already; the
    // materialised cross-check below adds the triangle count.
    assert!(
        run.validation.is_exact_match(),
        "streamed validation must be exact"
    );
    let measured = measure_properties(&run.assemble())?;
    let report = compare_properties(&scaled.properties(), &measured);
    println!("\npredicted vs measured (triangles included):\n{report}");
    assert!(
        report.is_exact_match(),
        "measured properties must equal the prediction exactly"
    );
    println!("\ntrillion_validation: measured degree distribution equals prediction exactly ✓");

    Ok(())
}
