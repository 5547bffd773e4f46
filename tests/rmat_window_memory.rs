//! The memory a flat run's degree windows cost, measured as the process's
//! peak resident set (`VmHWM`), so this test is the only one in its binary.
//!
//! An R-MAT count keeps one `|V|`-label window per worker.  At scale 22
//! with two workers, 8-byte counters alone would take 2 × 2²² × 8 bytes =
//! 64 MiB; the 2-byte cells take 16 MiB, and the whole run must stay far
//! below the 8-byte figure.
#![cfg(target_os = "linux")]

use extreme_graphs::gen::Pipeline;
use extreme_graphs::rmat::{RmatParams, RmatSource};

/// The process's peak resident set, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .unwrap();
    line.trim().trim_end_matches("kB").trim().parse().unwrap()
}

#[test]
fn a_scale_22_rmat_count_peaks_far_below_eight_byte_windows() {
    let params = RmatParams {
        edge_factor: 1,
        ..RmatParams::graph500(22)
    };
    let report = Pipeline::for_source(RmatSource::new(params, 1).unwrap())
        .workers(2)
        .count()
        .unwrap();
    assert_eq!(report.metrics.edges, 1 << 22);
    assert!(
        report.manifest.warnings.is_empty(),
        "{:?}",
        report.manifest.warnings
    );
    let peak = peak_rss_kib();
    assert!(
        peak < 40 << 10,
        "peak RSS {peak} KiB: 8-byte windows alone would take 65 536 KiB"
    );
}
