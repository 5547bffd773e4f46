//! Figure 3: edge-generation rate versus number of processors.
//!
//! The paper generates a 1.1-trillion-edge graph on 41,472 cores in about a
//! second (> 10^12 edges/s), with rate scaling linearly in core count.  On a
//! single machine we sweep rayon worker counts over a design with the same
//! B ⊗ C structure and report edges/second per worker count — the series the
//! figure plots — plus the exact properties of the full-scale design, which
//! this machine can compute but not materialise.

use kron_bench::{design, figure_header, machine_pipeline, paper};
use kron_bignum::grouped;
use kron_core::SelfLoop;
use kron_gen::{choose_split, ScalingModel};

fn main() {
    figure_header("Figure 3", "edge generation rate vs. number of workers");

    let full = design(paper::FIG3_4, SelfLoop::None);
    let (b, c) = full.split(paper::FIG3_4_SPLIT).expect("paper split");
    println!("full-scale design (analytic): A = B ⊗ C with");
    println!(
        "  B: {} vertices, {} edges    C: {} vertices, {} edges",
        grouped(&b.vertices().to_string()),
        grouped(&b.edges().to_string()),
        grouped(&c.vertices().to_string()),
        grouped(&c.edges().to_string()),
    );
    println!(
        "  A: {} vertices, {} edges, {} triangles",
        grouped(&full.vertices().to_string()),
        grouped(&full.edges().to_string()),
        full.triangles().unwrap(),
    );
    println!("  (paper: 1 second on 41,472 cores ⇒ ~1.1e12 edges/s)\n");

    let scaled = design(paper::MACHINE_SCALE, SelfLoop::None);
    println!(
        "machine-scale sweep: same construction truncated to m̂ = {:?} ({} edges per run)",
        paper::MACHINE_SCALE,
        grouped(&scaled.edges().to_string()),
    );
    println!(
        "{:>8} {:>16} {:>18} {:>14} {:>12}",
        "workers", "edges", "rate (edges/s)", "seconds", "max/mean"
    );

    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut worker_counts = vec![1usize, 2, 4, 8];
    if !worker_counts.contains(&hardware_threads) {
        worker_counts.push(hardware_threads);
    }
    let mut single_worker_rate = None;
    for &workers in &worker_counts {
        // The sweep runs the pipeline with counting sinks: generation plus
        // the streamed degree histogram, with no materialisation and no
        // total-edge ceiling.
        let run = machine_pipeline(&scaled, workers)
            .split_index(paper::MACHINE_SCALE_SPLIT)
            .count()
            .expect("machine-scale factors fit in memory");
        if workers == 1 {
            single_worker_rate = Some(run.edges_per_second());
        }
        println!(
            "{:>8} {:>16} {:>18.0} {:>14.4} {:>12.4}",
            workers,
            run.edge_count(),
            run.edges_per_second(),
            run.manifest.seconds,
            run.metrics.balance.max_over_mean,
        );
    }
    println!(
        "\n(hardware threads on this machine: {hardware_threads}; rates above one thread are \
bounded by physical cores, matching the paper's linear-in-cores shape)"
    );

    // Extrapolate the calibrated per-core rate to the paper's configuration
    // with the communication-free cost model: the algorithm exchanges no
    // data, so time = (heaviest worker's triples) × nnz(C) × per-edge cost.
    if let Some(rate) = single_worker_rate {
        let plan = choose_split(&scaled, 200_000, 1).expect("split exists");
        let model = ScalingModel::new(&plan, 1.0 / rate).expect("positive rate");
        println!("\nextrapolation of this machine's per-core rate to the paper's configuration:");
        println!("{:>10} {:>18} {:>14}", "cores", "rate (edges/s)", "seconds");
        for &cores in &[1u64, 64, 1024, 41_472] {
            let point = model
                .predict_for_design(&full, paper::FIG3_4_SPLIT, cores)
                .expect("paper design splits");
            println!(
                "{:>10} {:>18.3e} {:>14.2}",
                cores, point.edges_per_second, point.seconds
            );
        }
        println!("(the paper reports ~1e12 edges/s and ~1 second at 41,472 cores)");
    }
}
