//! §V claims, quantified: every worker receives the same number of edges and
//! the generated graph has none of the structural artefacts (self-loops,
//! empty vertices, duplicate edges) that random generators produce.

use kron_bench::{design, figure_header, machine_pipeline, paper};
use kron_core::SelfLoop;
use kron_sparse::select::{empty_vertices, has_duplicates, self_loop_count};

fn main() {
    figure_header(
        "Balance / cleanliness",
        "per-worker edge balance and structural checks (§V)",
    );

    let scaled = design(paper::MACHINE_SCALE, SelfLoop::Centre);
    println!(
        "design: m̂ = {:?} with centre loops -> {} edges\n",
        paper::MACHINE_SCALE,
        scaled.edges()
    );
    println!(
        "{:>8} {:>14} {:>14} {:>12} {:>12}",
        "workers", "min edges", "max edges", "imbalance", "max/mean"
    );
    for workers in [1usize, 2, 4, 8, 16, 32] {
        let run = machine_pipeline(&scaled, workers)
            .split_index(paper::MACHINE_SCALE_SPLIT)
            .count()
            .expect("machine-scale design fits in memory");
        let balance = &run.metrics.balance;
        println!(
            "{:>8} {:>14} {:>14} {:>12} {:>12.4}",
            workers,
            balance.min_edges,
            balance.max_edges,
            balance.max_edges - balance.min_edges,
            balance.max_over_mean,
        );
    }

    let collected = machine_pipeline(&scaled, 8)
        .split_index(paper::MACHINE_SCALE_SPLIT)
        .collect_coo()
        .expect("machine-scale design fits in memory");
    let assembled = collected.assemble();
    println!("\nstructural checks on the assembled graph:");
    println!("  self-loops:       {}", self_loop_count(&assembled));
    println!("  duplicate edges:  {}", has_duplicates(&assembled));
    println!("  empty vertices:   {}", empty_vertices(&assembled).len());
    assert_eq!(self_loop_count(&assembled), 0);
    assert!(!has_duplicates(&assembled));
    assert!(empty_vertices(&assembled).is_empty());
    println!("\n§V reproduced: equal per-worker edge counts, no reindexing required.");
}
