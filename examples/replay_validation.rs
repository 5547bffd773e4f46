//! Validate an existing graph from disk: generate once, then re-measure the
//! shards through `ReplaySource` and check the streamed metrics reproduce
//! the generation-time ones exactly — the design → generate → **validate**
//! loop as a standalone stage.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example replay_validation
//! ```

use extreme_graphs::gen::testing::TestDir;
use extreme_graphs::gen::{Pipeline, PredicateCountMetric, ReplaySource};
use extreme_graphs::{KroneckerDesign, SelfLoop};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A directory of this process's own, removed when `dir` drops: two
    // runs at once, or a run after a crashed one, never share shards.
    let dir = TestDir::new("replay_validation");

    // 1. Generate a designed graph to compressed shards (one per worker, plus a
    //    manifest.json describing the run and its measured metrics).
    let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre)?;
    let generated = Pipeline::for_design(&design)
        .workers(4)
        .write_compressed(&dir)?;
    assert!(generated.is_valid());
    println!("=== generation ===");
    println!(
        "wrote {} shards, {} edges, exact match: {}",
        generated.manifest.outputs.len(),
        generated.edge_count(),
        generated.is_valid()
    );

    // 2. Replay: stream the shard set back through the same pipeline — no
    //    regeneration — re-measuring everything the run measured, plus a
    //    custom metric the original run never computed.
    let source = ReplaySource::from_directory(&dir)?;
    let replayed = Pipeline::for_source(source)
        .workers(4)
        .with_metric(PredicateCountMetric::new("upper_triangle", |r, c| r < c))
        .count()?;
    assert!(replayed.is_valid());

    println!();
    println!("=== replayed metrics (measured from disk) ===");
    for record in replayed.metrics.records() {
        println!("  {:<28} {}", record.name, record.value);
    }

    // 3. The replay-validation check: the built-in metric report of the
    //    replay equals the generation-time one, field for field (the custom
    //    metric is extra — the generation run never computed it).
    let mut replayed_builtins = replayed.metrics.clone();
    let custom = std::mem::take(&mut replayed_builtins.custom);
    assert_eq!(
        replayed_builtins, generated.metrics,
        "replayed metrics must reproduce the generation-time metrics"
    );
    println!();
    println!("replayed metrics == generation-time metrics: OK");
    println!(
        "upper-triangle edges (computed only at replay): {}",
        custom[0].value
    );
    let fit = replayed
        .metrics
        .power_law
        .as_ref()
        .ok_or("a designed graph pins a slope")?;
    println!(
        "power-law fit: alpha {:.4}, residual vs ideal {:.4}",
        fit.alpha, fit.residual_vs_ideal
    );

    Ok(())
}
