//! # kron-bench
//!
//! Shared harness code for the per-figure reproduction binaries and the
//! Criterion benchmarks.  Each binary in `src/bin/` regenerates the series or
//! rows of one figure of Kepner et al. (2018); the helpers here keep their
//! output format consistent and provide the scaled-down configurations used
//! when a figure's full-scale experiment cannot fit on one machine.

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

/// Benchmark provenance: the host and revision facts a recorded number is
/// meaningless without.  Emitted into every `BENCH_*.json` so successive
/// PRs comparing trajectories know whether a delta is code or circumstance.
pub mod provenance {
    /// The host's available parallelism (0 when unknown).
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0)
    }

    /// The workspace's current git revision (short), or `"unknown"` when
    /// git or the repository is unavailable.
    pub fn git_rev() -> String {
        std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|rev| rev.trim().to_string())
            .filter(|rev| !rev.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    }

    /// The provenance fields as a JSON fragment (no surrounding braces),
    /// ready to splice into a bench's JSON object alongside its results.
    pub fn json_fields() -> String {
        format!(
            "\"available_parallelism\": {}, \"git_rev\": \"{}\"",
            available_parallelism(),
            git_rev()
        )
    }
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

    #[test]
    fn provenance_fields_are_well_formed() {
        let fields = provenance::json_fields();
        assert!(fields.contains("\"available_parallelism\": "));
        assert!(fields.contains("\"git_rev\": \""));
        // A raw fragment must splice into an object without trailing commas
        // or braces of its own.
        let object = format!("{{{fields}}}");
        assert!(!object.contains(",}"));
        assert!(!provenance::git_rev().is_empty());
    }
}
