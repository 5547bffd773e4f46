//! # kron-bench
//!
//! Shared code for the per-figure reproduction binaries.  Each binary in
//! `src/bin/` regenerates the series or rows of one figure of Kepner et al.
//! (2018); the helpers here keep their output format consistent and provide
//! the scaled-down configurations used when a figure's full-scale experiment
//! cannot fit on one machine.  The end-to-end benchmark (`src/bin/benchmark/`)
//! and the isolated-kernel bench (`benches/kernel_microbench.rs`) are plain
//! `main`s beside them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kron_bignum::BigUint;
use kron_core::{DegreeDistribution, KroneckerDesign, SelfLoop};
use kron_gen::{DesignPipeline, Pipeline};

/// The star sets used across the paper's evaluation section.
pub mod paper {
    /// Figure 1: two bipartite stars.
    pub const FIG1: &[u64] = &[5, 3];
    /// Figures 3 and 4: the trillion-edge construction
    /// (`B = {3,4,5,9,16,25}`, `C = {81,256}`).
    pub const FIG3_4: &[u64] = &[3, 4, 5, 9, 16, 25, 81, 256];
    /// Index at which Figures 3/4 split into `B ⊗ C`.
    pub const FIG3_4_SPLIT: usize = 6;
    /// Figures 5 and 6: the quadrillion-edge construction.
    pub const FIG5_6: &[u64] = &[3, 4, 5, 9, 16, 25, 81, 256, 625];
    /// Figure 7: the decetta-scale construction.
    pub const FIG7: &[u64] = &[
        3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641,
    ];
    /// Machine-scale stand-in with the same structure as Figures 3/4, used
    /// whenever a figure requires actually generating edges.
    pub const MACHINE_SCALE: &[u64] = &[3, 4, 5, 9, 16];
    /// Split index for the machine-scale stand-in.
    pub const MACHINE_SCALE_SPLIT: usize = 2;
}

/// Print a figure header in a consistent format.
pub fn figure_header(figure: &str, description: &str) {
    println!("==================================================================");
    println!("{figure}: {description}");
    println!("==================================================================");
}

/// Print a `(degree, count)` series as the log-log rows the paper plots,
/// decimating to at most `max_rows` rows.
pub fn print_distribution_series(dist: &DegreeDistribution, max_rows: usize) {
    let pairs = dist.to_pairs();
    let step = (pairs.len() / max_rows.max(1)).max(1);
    println!(
        "{:>24} {:>24} {:>12} {:>12}",
        "degree d", "count n(d)", "log10 d", "log10 n"
    );
    for (d, n) in pairs.iter().step_by(step) {
        println!(
            "{:>24} {:>24} {:>12.4} {:>12.4}",
            truncate_decimal(d),
            truncate_decimal(n),
            d.log10().unwrap_or(0.0),
            n.log10().unwrap_or(0.0),
        );
    }
    println!("({} exact support points total)", pairs.len());
}

/// Render a potentially enormous integer compactly: full decimal up to 24
/// digits, scientific beyond.
pub fn truncate_decimal(value: &BigUint) -> String {
    let s = value.to_string();
    if s.len() <= 24 {
        s
    } else {
        kron_bignum::scientific(value)
    }
}

/// A standard machine-scale pipeline used by every generating figure: the
/// shared factor budgets, ready for a terminal (`.count()`,
/// `.collect_coo()`, …).
pub fn machine_pipeline(design: &KroneckerDesign, workers: usize) -> DesignPipeline<'_> {
    Pipeline::for_design(design)
        .workers(workers)
        .max_c_edges(200_000)
        .max_b_edges(1 << 26)
}

/// Build one of the paper's designs.
pub fn design(points: &[u64], self_loop: SelfLoop) -> KroneckerDesign {
    KroneckerDesign::from_star_points(points, self_loop).expect("paper star sets are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_valid_designs() {
        assert_eq!(
            design(paper::FIG1, SelfLoop::None).vertices(),
            BigUint::from(24u64)
        );
        assert_eq!(
            design(paper::FIG3_4, SelfLoop::Centre).edges().to_string(),
            "1853002140758"
        );
        assert_eq!(
            design(paper::FIG7, SelfLoop::Leaf)
                .triangles()
                .unwrap()
                .to_string(),
            "178940587"
        );
    }

    #[test]
    fn truncation_switches_to_scientific() {
        assert_eq!(truncate_decimal(&BigUint::from(42u64)), "42");
        let huge: BigUint = "2705963586782877716483871216764".parse().unwrap();
        assert!(truncate_decimal(&huge).contains('e'));
    }

    #[test]
    fn machine_pipeline_counts_and_validates() {
        let d = design(paper::MACHINE_SCALE, SelfLoop::None);
        let report = machine_pipeline(&d, 2)
            .split_index(paper::MACHINE_SCALE_SPLIT)
            .count()
            .unwrap();
        assert_eq!(report.edge_count(), 276_480);
        assert!(report.is_valid());
    }
}
