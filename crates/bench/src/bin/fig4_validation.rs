//! Figure 4: exact agreement between the predicted and measured degree
//! distribution of a trillion-edge power-law Kronecker graph.
//!
//! The full-scale design (11,177,649,600 vertices, 1,853,002,140,758 edges,
//! 6,777,007,252,427 triangles) is predicted analytically and its degree
//! distribution series printed.  A machine-scale design with the same
//! structure is then *streamed* through the out-of-core shard driver — the
//! edges are counted and histogrammed but never stored — and the measured
//! distribution compared point-by-point with the prediction: the figure's
//! "predicted" and "measured" curves, reproduced in bounded memory.
//!
//! Pass `--smoke` for the CI smoke mode: a small design, still streamed and
//! still exact, finishing in well under a second.

use kron_bench::{design, figure_header, machine_pipeline, paper, print_distribution_series};
use kron_bignum::grouped;
use kron_core::validate::{compare_properties, measure_properties};
use kron_core::{DegreeDistribution, SelfLoop};

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    figure_header(
        "Figure 4",
        "predicted vs measured degree distribution (centre-loop design)",
    );

    if !smoke {
        // Full paper scale, analytic.
        let full = design(paper::FIG3_4, SelfLoop::Centre);
        println!("full-scale design (analytic):");
        println!("  vertices:  {}", grouped(&full.vertices().to_string()));
        println!("  edges:     {}", grouped(&full.edges().to_string()));
        println!(
            "  triangles: {}",
            grouped(&full.triangles().unwrap().to_string())
        );
        println!(
            "  edge/vertex ratio: {:.4}  (paper caption: 165.7774)",
            full.properties().edge_vertex_ratio()
        );
        println!("\npredicted degree distribution of the full-scale graph:");
        print_distribution_series(&full.degree_distribution(), 24);
    }

    // Machine scale (or smoke scale), streamed through the shard driver and
    // measured from the merged per-worker degree histograms.
    let (points, split, workers) = if smoke {
        (&[3u64, 4, 5][..], 1usize, 2usize)
    } else {
        (paper::MACHINE_SCALE, paper::MACHINE_SCALE_SPLIT, 8)
    };
    let scaled = design(points, SelfLoop::Centre);
    println!("\nstreaming generation with the same structure (m̂ = {points:?}):");
    let run = machine_pipeline(&scaled, workers)
        .split_index(split)
        .count()
        .expect("machine-scale factors fit in memory");
    println!(
        "  streamed {} edges on {} workers at {:.1} Medges/s (no edge was ever stored)",
        grouped(&run.edge_count().to_string()),
        run.manifest.workers,
        run.edges_per_second() / 1e6
    );

    println!("\npredicted vs measured (every streamable field exact):");
    println!("{}", run.validation);
    assert!(run.validation.is_exact_match());

    if !smoke {
        // Triangles cannot be measured from a stream; at machine scale the
        // graph still fits, so collect it into COO blocks once and validate
        // every field — the triangle count included.
        let collected = machine_pipeline(&scaled, workers)
            .split_index(split)
            .collect_coo()
            .expect("machine-scale design fits in memory");
        let measured = measure_properties(&collected.assemble()).expect("measurable");
        let full_report = compare_properties(&scaled.properties(), &measured);
        println!("\nmaterialised cross-check (triangle count included):");
        println!("{full_report}");
        assert!(full_report.is_exact_match());
    }

    println!("\nmeasured degree distribution (equals prediction exactly):");
    print_distribution_series(
        &DegreeDistribution::from_histogram(&run.metrics.degree_histogram),
        24,
    );
    println!("\nFigure 4 reproduced: predicted and measured distributions are identical.");
}
