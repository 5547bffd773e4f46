//! Crash safety end to end: inject deterministic faults into a generation
//! run, watch transient ones get retried in place and a permanent one get
//! quarantined, then repair the run with `Pipeline::resume` and prove the
//! result is byte-identical to a run that never failed — and finally show
//! the checksum layer catching a corrupted shard by name.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fault_tolerant_run
//! ```

use std::path::Path;
use std::time::Duration;

use extreme_graphs::gen::testing::TestDir;
use extreme_graphs::gen::ReplaySource;
use extreme_graphs::{
    FaultSchedule, FaultySource, KroneckerDesign, KroneckerSource, Pipeline, RetryPolicy, SelfLoop,
};

/// One pipeline configuration, built identically every time — the
/// determinism `resume` relies on to regenerate exactly the missing work.
fn pipeline(design: &KroneckerDesign, workers: usize) -> extreme_graphs::DesignPipeline<'_> {
    Pipeline::for_design(design)
        .workers(workers)
        .split_index(2)
        .chunk_capacity(512)
}

fn shard_bytes(directory: &Path, extension: &str) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    let mut shards = Vec::new();
    for entry in std::fs::read_dir(directory)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == extension) {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            shards.push((name, std::fs::read(&path)?));
        }
    }
    shards.sort();
    Ok(shards)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre)?;
    let workers = 4;

    // 0. The reference: the same run, never interrupted.
    // Directories of this process's own, removed when they drop: two runs
    // at once, or a run after a crashed one, never share shards.
    let clean_dir = TestDir::new("fault_tolerant_run_clean");
    let clean = pipeline(&design, workers).write_compressed(&clean_dir)?;
    assert!(clean.is_valid());
    println!("=== reference run (no faults) ===");
    println!(
        "wrote {} shards, {} edges, exact match: {}",
        clean.manifest.outputs.len(),
        clean.edge_count(),
        clean.is_valid()
    );

    // 1. Inject faults: worker 1 fails once at edge 50 (transient — the
    //    retry policy absorbs it), worker 2 fails at edge 100 on every
    //    attempt (permanent — quarantined, its shard left missing).
    let crash_dir = TestDir::new("fault_tolerant_run_crash");
    let schedule = FaultSchedule::none()
        .with_transient(1, 50, 1)
        .with_permanent(2, 100);
    let source = KroneckerSource::new(&design).split_index(2);
    let crashed = Pipeline::for_source(FaultySource::new(source, schedule))
        .workers(workers)
        .chunk_capacity(512)
        .retry_policy(RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        })
        .quarantine_failures(true)
        .write_compressed(&crash_dir)?;

    println!();
    println!("=== faulty run (transient fault on worker 1, permanent on worker 2) ===");
    println!(
        "complete: {}, failures: {}",
        crashed.is_complete(),
        crashed.failures.len()
    );
    for failure in &crashed.failures {
        println!(
            "  worker {} quarantined after {} attempt(s): {}",
            failure.worker, failure.attempts, failure.error
        );
    }
    assert!(!crashed.is_complete());
    assert_eq!(
        crashed.failures.len(),
        1,
        "only the permanent fault survives"
    );
    assert_eq!(crashed.failures[0].worker, 2);
    // The transient fault was retried in place; the permanent one left no
    // truncated shard behind — its staging file was abandoned.
    assert!(!crash_dir.join("block_00002.kbkz").exists());
    assert_eq!(shard_bytes(&crash_dir, "kbkz")?.len(), 3);
    assert!(shard_bytes(&crash_dir, "tmp")?.is_empty());

    // 2. Resume with the same (fault-free) configuration: the journal knows
    //    which shards finished; each is verified by checksum and skipped,
    //    and only worker 2's shard is regenerated.
    let resumed = pipeline(&design, workers).resume(&crash_dir)?;
    println!();
    println!("=== resumed run ===");
    for warning in &resumed.manifest.warnings {
        println!("  note: {warning}");
    }
    assert!(resumed.is_complete());
    assert!(resumed.is_valid());
    assert_eq!(
        shard_bytes(&crash_dir, "kbkz")?,
        shard_bytes(&clean_dir, "kbkz")?,
        "resumed shards are byte-identical to the uninterrupted run"
    );
    assert_eq!(resumed.metrics, clean.metrics);
    println!(
        "repaired run: {} shards, {} edges, byte-identical to the reference: true",
        resumed.manifest.outputs.len(),
        resumed.edge_count()
    );

    // 3. Corruption detection: flip one payload bit (past the 48-byte
    //    header) in a finished shard.  The frames still decode, so only the
    //    recorded checksum can tell — and the error names the failing shard.
    let shard = crash_dir.join("block_00001.kbkz");
    let mut bytes = std::fs::read(&shard)?;
    bytes[60] ^= 1;
    std::fs::write(&shard, &bytes)?;
    let err = Pipeline::for_source(ReplaySource::from_directory(&crash_dir)?)
        .workers(workers)
        .count()
        .expect_err("a flipped payload bit must fail the replay checksum");
    println!();
    println!("=== corruption detection on replay ===");
    println!("  {err}");
    assert!(err.to_string().contains("checksum mismatch"));
    assert!(err.to_string().contains("block_00001.kbkz"));

    // 4. Resume heals the corruption too: the bad shard fails verification,
    //    is regenerated, and the directory matches the reference again.
    let healed = pipeline(&design, workers).resume(&crash_dir)?;
    assert!(healed.is_valid());
    assert_eq!(
        shard_bytes(&crash_dir, "kbkz")?,
        shard_bytes(&clean_dir, "kbkz")?
    );
    println!();
    println!("=== corruption repaired by resume ===");
    for warning in healed
        .manifest
        .warnings
        .iter()
        .filter(|w| w.contains("block_00001.kbkz"))
    {
        println!("  note: {warning}");
    }
    println!("directory byte-identical to the reference again: true");

    Ok(())
}
