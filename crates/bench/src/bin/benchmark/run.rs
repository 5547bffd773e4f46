//! The end-to-end run of one workload: tracing off, every pass checked.
//!
//! Closed loop, one process: `W = available_parallelism()` workers and a
//! `workers = 1` baseline, timed passes interleaved (w1, wW, w1, wW, …) so
//! that drift on the host hits both series alike.  Every timed pass is a
//! whole user run built from scratch.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::output::{Outcome, Tally, END_TO_END};
use crate::provenance::{self, available_parallelism};
use crate::scratch::ScratchDir;
use crate::stats::{median, spread};
use crate::workload::{
    check_pass, prepare, run_pass, Expectations, PassReport, Prepared, Workload,
};

/// How many times a run sets up from scratch; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed passes per worker count under a time budget, so a slow host
/// still reports a median of something.
const MIN_TIMED_REPS: usize = 3;

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Timed passes for at least this long.
    Seconds(f64),
    /// Exactly this many timed passes per worker count.
    Reps(usize),
}

impl Budget {
    /// Whether the timed loop goes on after `reps` repetitions and
    /// `elapsed` time.  Under a time budget the loop stops where the total
    /// lands nearest the budget: it goes on only while half of another
    /// average repetition still fits.
    pub fn wants_more(self, reps: usize, elapsed: Duration, least: usize) -> bool {
        match self {
            Budget::Reps(n) => reps < n,
            Budget::Seconds(s) => {
                let elapsed = elapsed.as_secs_f64();
                reps < least.max(1) || elapsed + 0.5 * elapsed / (reps as f64) < s
            }
        }
    }
}

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: &'static Workload,
    pub seed: u64,
    pub budget: Budget,
    /// Toy inputs and a single set-up: seconds, not minutes, unoptimised.
    pub smoke: bool,
    /// Parent of the run's scratch directory.
    pub scratch_base: PathBuf,
}

/// Run one pass into its own directory, check it, count it, and remove the
/// directory again.  `None` when the pass failed.
pub fn checked_pass(
    prepared: &Prepared,
    expect: &mut Expectations,
    tally: &mut Tally,
    workers: usize,
    directory: &Path,
    label: &str,
) -> Option<PassReport> {
    let pass = run_pass(prepared, workers, directory);
    let checked = pass.and_then(|pass| check_pass(prepared, &pass, expect).map(|()| pass));
    let _ = std::fs::remove_dir_all(directory);
    tally.record(label, checked)
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` does
/// not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Set up, warm up, time the interleaved passes, and report every
/// end-to-end metric.  `Err` only when the run could not take place at all
/// (no scratch directory, inputs that cannot be built).
pub fn end_to_end(config: &Config) -> Result<Outcome, String> {
    let scratch = ScratchDir::for_run(&config.scratch_base)?;
    let wide = available_parallelism();
    let mut tally = Tally::default();

    // Set up several times over and report the median, so that one slow
    // directory creation or page-cache miss does not decide `setup_s`.
    let mut setup_seconds = Vec::new();
    let mut ready: Option<(Prepared, Expectations)> = None;
    for rep in 0..if config.smoke { 1 } else { SETUP_REPS } {
        let directory = scratch.path().join(format!("setup_{rep}"));
        if rep > 0 {
            let _ = std::fs::remove_dir_all(scratch.path().join(format!("setup_{}", rep - 1)));
        }
        let started = Instant::now();
        std::fs::create_dir_all(&directory).map_err(|e| e.to_string())?;
        let prepared = prepare(config.workload, config.seed, config.smoke, &directory)?;
        let mut expect = Expectations::new(&prepared);
        checked_pass(
            &prepared,
            &mut expect,
            &mut tally,
            wide,
            &directory.join("warm_up"),
            &format!("set-up {rep} warm-up pass at {wide} worker(s)"),
        );
        setup_seconds.push(started.elapsed().as_secs_f64());
        ready = Some((prepared, expect));
    }
    let (prepared, mut expect) = ready.ok_or("no set-up ran")?;

    let mut seconds_w1 = Vec::new();
    let mut seconds_wide = Vec::new();
    let mut last_pass: Option<PassReport> = None;
    let started = Instant::now();
    let mut reps = 0;
    while config
        .budget
        .wants_more(reps, started.elapsed(), MIN_TIMED_REPS)
    {
        for (series, workers) in [(&mut seconds_w1, 1), (&mut seconds_wide, wide)] {
            let pass = checked_pass(
                &prepared,
                &mut expect,
                &mut tally,
                workers,
                &scratch.path().join(format!("pass_{reps}_w{workers}")),
                &format!("timed pass {reps} at {workers} worker(s)"),
            );
            if let Some(pass) = pass {
                series.push(pass.seconds);
                last_pass = Some(pass);
            }
        }
        reps += 1;
    }

    let rate = |seconds: &[f64]| match median(seconds) {
        m if m > 0.0 => prepared.edges as f64 / m,
        _ => 0.0,
    };
    let values = [
        rate(&seconds_wide),
        rate(&seconds_w1),
        median(&setup_seconds),
        peak_rss_mb(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(metric, value)| (metric.name, metric.unit, value))
        .collect();

    let shard_bytes = last_pass.as_ref().map_or(0, |pass| pass.shard_bytes);
    let ungated = vec![
        (
            "scaling.ratio",
            "ratio",
            if values[1] > 0.0 {
                values[0] / values[1]
            } else {
                0.0
            },
        ),
        ("bench.spread", "ratio", spread(&seconds_wide)),
        ("bench.spread_w1", "ratio", spread(&seconds_w1)),
        (
            "shard_bytes_per_edge",
            "bytes/edge",
            shard_bytes as f64 / prepared.edges as f64,
        ),
    ];

    let mut provenance = provenance::host(
        config.workload.name,
        config.seed,
        config.smoke,
        scratch.path(),
    );
    provenance.raw("trace", false);
    provenance.raw("workers", format!("[1, {wide}]"));
    provenance.raw("timed_passes_per_worker_count", reps);
    provenance.raw("setups", setup_seconds.len());
    provenance.raw("edges", prepared.edges);
    provenance.raw("vertices", prepared.vertices);
    if let Some(pass) = &last_pass {
        provenance.raw("split_index", pass.manifest.split_index);
        provenance.raw("chunk_capacity", pass.manifest.chunk_capacity);
    }
    let samples = |seconds: &[f64]| {
        let formatted: Vec<String> = seconds.iter().map(|s| format!("{s:.4}")).collect();
        formatted.join(" ")
    };
    let notes = vec![
        format!("set-up seconds: {}", samples(&setup_seconds)),
        format!("pass seconds at 1 worker(s): {}", samples(&seconds_w1)),
        format!(
            "pass seconds at {wide} worker(s): {}",
            samples(&seconds_wide)
        ),
    ];
    Ok(Outcome {
        workload: config.workload.name,
        metrics,
        ungated,
        notes,
        tally,
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    pub fn smoke_config(workload: &'static Workload) -> Config {
        Config {
            workload,
            seed: 20_180_304,
            budget: Budget::Reps(1),
            smoke: true,
            scratch_base: std::env::temp_dir().join("kron-benchmark-tests"),
        }
    }

    #[test]
    fn budgets_stop_on_reps_or_on_time() {
        let second = Duration::from_secs(1);
        assert!(Budget::Reps(2).wants_more(1, second * 100, 3));
        assert!(!Budget::Reps(2).wants_more(2, Duration::ZERO, 3));
        assert!(Budget::Seconds(5.0).wants_more(0, Duration::ZERO, 0));
        assert!(Budget::Seconds(5.0).wants_more(10, second * 4, 3));
        assert!(!Budget::Seconds(5.0).wants_more(3, second * 5, 3));
        assert!(
            Budget::Seconds(5.0).wants_more(4, second * 4, 3),
            "a fifth one-second repetition lands on the budget"
        );
        assert!(
            !Budget::Seconds(5.0).wants_more(4, Duration::from_millis(4_600), 3),
            "a fifth 1.15-second repetition would overshoot by more than it undershoots now"
        );
        assert!(
            Budget::Seconds(5.0).wants_more(2, second * 50, 3),
            "a slow host still gets the least number of passes"
        );
    }

    #[test]
    fn every_workload_smokes_end_to_end_with_every_metric_and_no_failure() {
        for workload in WORKLOADS {
            let outcome = end_to_end(&smoke_config(workload)).unwrap();
            assert!(outcome.correct(), "{}", outcome.describe());
            // One warm-up, then one timed pass at each of the two worker
            // counts.
            assert_eq!(outcome.tally.attempted, 3, "{}", workload.name);
            let names: Vec<_> = outcome.metrics.iter().map(|(name, _, _)| *name).collect();
            let expected: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            for (name, _, value) in &outcome.metrics {
                assert!(*value > 0.0, "{} {name} must never read 0", workload.name);
            }
            let shard_bytes_per_edge = outcome
                .ungated
                .iter()
                .find(|(name, _, _)| *name == "shard_bytes_per_edge")
                .map(|(_, _, value)| *value)
                .unwrap();
            assert_eq!(
                shard_bytes_per_edge > 0.0,
                workload.terminal.shard_extension().is_some(),
                "{}",
                workload.name
            );
            let provenance = outcome.provenance.to_json();
            for key in [
                "available_parallelism",
                "workers",
                "seed",
                "git_rev",
                "rustc",
                "rustflags",
                "scratch_fs",
                "split_index",
                "chunk_capacity",
                "timed_passes_per_worker_count",
            ] {
                assert!(
                    provenance.contains(&format!("\"{key}\": ")),
                    "{key} missing"
                );
            }
        }
    }
}
