//! The repository's end-to-end benchmark: six named workloads through the
//! user-facing `Pipeline`, four gated metrics each, and a per-layer trace
//! taken from outside.  See `README.md` beside this file.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S | --reps N]
//!           [--trace [0|1]] [--smoke] [--scratch-dir D] [--spans-out F]
//!           [--repeat-check N]
//! ```
//!
//! The last line on standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when any pass failed its checks.
//!
//! Only API that survives the planned removal of the deprecated engines is
//! used here, so that those removals can be measured by this benchmark
//! instead of breaking it.

#![forbid(unsafe_code)]
#![deny(deprecated)]

mod output;
mod provenance;
mod run;
mod scratch;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use output::{metric_in_line, Better, END_TO_END};
use run::{Budget, Config};
use stats::median;
use workload::{Workload, WORKLOADS};

/// Default `--seed`: the paper's date.
const DEFAULT_SEED: u64 = 20_180_304;
/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;
/// Runs per set of `--repeat-check`; a set's value is their median.
const RUNS_PER_SET: usize = 5;

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed N] [--seconds S | --reps N] \
[--trace [0|1]] [--smoke] [--scratch-dir D] [--spans-out F] [--repeat-check N]";

#[derive(Debug)]
struct Args {
    /// `None` = all workloads, each in a process of its own.
    workload: Option<&'static Workload>,
    seed: u64,
    budget: Option<Budget>,
    trace: bool,
    smoke: bool,
    scratch_dir: Option<PathBuf>,
    spans_out: Option<PathBuf>,
    repeat_check: Option<usize>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        budget: None,
        trace: false,
        smoke: false,
        scratch_dir: None,
        spans_out: None,
        repeat_check: None,
    };
    let mut named = false;
    let mut rest = raw.iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                named = true;
                args.workload = match name.as_str() {
                    "all" => None,
                    name => Some(workload::find(name).ok_or_else(|| {
                        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {name}; one of all, {}", known.join(", "))
                    })?),
                };
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.budget = Some(Budget::Seconds(seconds));
            }
            "--reps" => {
                let reps: usize = value("a count")?
                    .parse()
                    .map_err(|_| "--reps needs a whole number")?;
                if reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
                args.budget = Some(Budget::Reps(reps));
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                args.trace = match rest.peek().map(|next| next.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--scratch-dir" => args.scratch_dir = Some(PathBuf::from(value("a directory")?)),
            "--spans-out" => args.spans_out = Some(PathBuf::from(value("a file")?)),
            "--repeat-check" => {
                let sets: usize = value("a number of sets")?
                    .parse()
                    .map_err(|_| "--repeat-check needs a whole number")?;
                if sets < 2 {
                    return Err("--repeat-check compares at least 2 sets".into());
                }
                args.repeat_check = Some(sets);
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !named && !args.smoke {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    if args.spans_out.is_some() && !(args.trace && args.workload.is_some()) {
        return Err("--spans-out needs --trace and one named workload".into());
    }
    Ok(args)
}

impl Args {
    fn config(&self, workload: &'static Workload) -> Config {
        Config {
            workload,
            seed: self.seed,
            // A smoke run is one repetition unless told otherwise.
            budget: self.budget.unwrap_or(if self.smoke {
                Budget::Reps(1)
            } else {
                Budget::Seconds(DEFAULT_SECONDS)
            }),
            smoke: self.smoke,
            scratch_base: self
                .scratch_dir
                .clone()
                .unwrap_or_else(|| PathBuf::from(scratch::DEFAULT_BASE)),
        }
    }

    /// The arguments of a child process that runs `workload` alone at
    /// `seed` with otherwise the same settings.
    fn child_args(&self, workload: &Workload, seed: u64) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            workload.name.to_string(),
            "--seed".to_string(),
            seed.to_string(),
            "--trace".to_string(),
            u8::from(self.trace).to_string(),
        ];
        match self.budget {
            Some(Budget::Seconds(seconds)) => {
                args.extend(["--seconds".into(), seconds.to_string()])
            }
            Some(Budget::Reps(reps)) => args.extend(["--reps".into(), reps.to_string()]),
            None => {}
        }
        if self.smoke {
            args.push("--smoke".into());
        }
        if let Some(directory) = &self.scratch_dir {
            args.extend(["--scratch-dir".into(), directory.display().to_string()]);
        }
        args
    }
}

/// Run one workload in this process and print its result.
fn run_one(args: &Args, workload: &'static Workload) -> Result<bool, String> {
    let config = args.config(workload);
    let outcome = if args.trace {
        let (outcome, tracer) = trace::traced(&config)?;
        if let Some(path) = &args.spans_out {
            std::fs::write(path, tracer.to_json())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        outcome
    } else {
        run::end_to_end(&config)?
    };
    println!("why {}", workload.why);
    print!("{}", outcome.describe());
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

/// Run a workload in a child process, so that its `peak_rss_mb` is its
/// own; returns the child's standard output and whether it succeeded.
fn run_child(args: &Args, workload: &Workload, seed: u64) -> Result<(String, bool), String> {
    let program = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(program)
        .args(args.child_args(workload, seed))
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the run of {}: {e}", workload.name))?;
    Ok((
        String::from_utf8_lossy(&output.stdout).into_owned(),
        output.status.success(),
    ))
}

/// `--workload all`: every workload, one process each.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in WORKLOADS {
        let (text, succeeded) = run_child(args, workload, args.seed)?;
        print!("{text}");
        all_correct &= succeeded;
    }
    Ok(all_correct)
}

/// `--repeat-check N`: N back-to-back sets of runs of one workload; prints
/// each set's medians and, for every pair of sets, how far they differ as a
/// share of the bound — the evidence that two sets of runs of the same
/// code agree within the benchmark's own bounds.
fn repeat_check(args: &Args, workload: &'static Workload, sets: usize) -> Result<bool, String> {
    let mut medians: Vec<Vec<f64>> = Vec::new();
    let mut all_correct = true;
    for set in 0..sets {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for run in 0..RUNS_PER_SET {
            let seed = args.seed + (set * RUNS_PER_SET + run) as u64;
            let (text, succeeded) = run_child(args, workload, seed)?;
            all_correct &= succeeded;
            let line = text.lines().last().unwrap_or_default();
            println!("set {set} run {run} seed {seed}: {line}");
            for (metric, values) in END_TO_END.iter().zip(&mut values) {
                values.push(
                    metric_in_line(line, metric.name).ok_or_else(|| {
                        format!("run {run} of set {set} printed no {}", metric.name)
                    })?,
                );
            }
        }
        medians.push(values.iter().map(|values| median(values)).collect());
    }

    println!(
        "repeat-check {}: {sets} sets of {RUNS_PER_SET} runs, value = median of a set",
        workload.name
    );
    for (index, metric) in END_TO_END.iter().enumerate() {
        let row: Vec<String> = medians
            .iter()
            .map(|set| format!("{:.4}", set[index]))
            .collect();
        println!(
            "  {:<16} {:<8} ({} is better) {}",
            metric.name,
            metric.unit,
            metric.better.label(),
            row.join("  ")
        );
    }
    let mut agree = true;
    for (index, metric) in END_TO_END.iter().enumerate() {
        for first in 0..sets {
            for second in first + 1..sets {
                let (a, b) = (medians[first][index], medians[second][index]);
                // How much worse the worse of the two is, as a share of
                // the better one.
                let (better, worse) = match metric.better {
                    Better::Higher => (a.max(b), a.min(b)),
                    Better::Lower => (a.min(b), a.max(b)),
                };
                let difference = if better > 0.0 {
                    (worse - better).abs() / better
                } else {
                    0.0
                };
                let within = difference <= metric.bound;
                agree &= within;
                println!(
                    "  {:<16} set {first} vs set {second}: {:.2}% apart, bound {:.0}%: {}",
                    metric.name,
                    difference * 100.0,
                    metric.bound * 100.0,
                    if within { "agree" } else { "DISAGREE" }
                );
            }
        }
    }
    Ok(all_correct && agree)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, directory] = raw.as_slice() {
        if flag == workload::WRITE_REPLAY_INPUT_FLAG {
            // The set-up of `replay_v4` started this process (see
            // `workload::prepare`); it is not part of the command line.
            return match workload::write_full_replay_input(std::path::Path::new(directory)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(message) => {
                    eprintln!("benchmark: {message}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.workload, args.repeat_check) {
        (Some(workload), Some(sets)) => repeat_check(&args, workload, sets),
        (None, Some(_)) => Err("--repeat-check needs one named workload".to_string()),
        (Some(workload), None) => run_one(&args, workload),
        (None, None) => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let raw: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&raw)
    }

    #[test]
    fn the_contract_command_line_parses() {
        let args = parse("--workload kron_permute --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(args.workload.unwrap().name, "kron_permute");
        assert_eq!(args.seed, 7);
        assert_eq!(args.budget, Some(Budget::Seconds(10.0)));
        assert!(!args.trace);
        assert!(
            parse("--workload rmat_count --seed 1 --seconds 3 --trace 1")
                .unwrap()
                .trace
        );
        assert!(parse("--workload rmat_count --trace").unwrap().trace);
        assert!(
            parse("--workload rmat_count --trace --smoke")
                .unwrap()
                .smoke
        );
    }

    #[test]
    fn defaults_and_the_smoke_budget() {
        let args = parse("--workload all").unwrap();
        assert!(args.workload.is_none());
        assert_eq!(args.seed, DEFAULT_SEED);
        let config = args.config(&WORKLOADS[0]);
        assert_eq!(config.budget, Budget::Seconds(DEFAULT_SECONDS));
        assert_eq!(config.scratch_base, PathBuf::from(scratch::DEFAULT_BASE));

        let smoke = parse("--smoke").unwrap();
        assert!(
            smoke.workload.is_none(),
            "--smoke alone means every workload"
        );
        assert_eq!(smoke.config(&WORKLOADS[0]).budget, Budget::Reps(1));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload kron_count --seconds 0").is_err());
        assert!(parse("--workload kron_count --reps 0").is_err());
        assert!(parse("--workload kron_count --seed").is_err());
        assert!(parse("--workload kron_count --repeat-check 1").is_err());
        assert!(parse("--workload kron_count --frobnicate").is_err());
        assert!(parse("--workload kron_count --spans-out spans.json").is_err());
        assert!(parse("--workload all --trace --spans-out spans.json").is_err());
        assert!(parse("--workload kron_count --trace --spans-out spans.json").is_ok());
    }

    #[test]
    fn a_child_gets_the_parents_settings() {
        let args = parse("--workload all --reps 2 --smoke --trace --scratch-dir /dev/shm").unwrap();
        let child = args.child_args(&WORKLOADS[1], 42).join(" ");
        assert_eq!(
            child,
            "--workload kron_permute --seed 42 --trace 1 --reps 2 --smoke --scratch-dir /dev/shm"
        );
        let reparsed = parse(&child).unwrap();
        assert_eq!(reparsed.workload.unwrap().name, "kron_permute");
        assert!(reparsed.trace && reparsed.smoke);
    }

    /// `BENCHMARK.json` names the workloads and metrics in the order the
    /// tables here do: workloads, then end-to-end, then per-layer.
    #[test]
    fn benchmark_json_names_what_the_binary_reports() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let mut names = Vec::new();
        let mut rest = json;
        while let Some(at) = rest.find("\"name\": \"") {
            rest = &rest[at + 9..];
            let end = rest.find('"').unwrap();
            names.push(&rest[..end]);
        }
        let expected: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(output::PER_LAYER.iter().map(|(name, _, _)| *name))
            .collect();
        assert_eq!(names, expected);
        for workload in WORKLOADS {
            assert!(json.contains(workload.why), "{} why differs", workload.name);
        }
        for metric in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                metric.name,
                metric.unit,
                metric.better.label(),
                metric.bound
            );
            assert!(json.contains(&entry), "{entry} not in BENCHMARK.json");
        }
        for (name, unit, better) in output::PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.label()
            );
            assert!(json.contains(&entry), "{entry} not in BENCHMARK.json");
        }
        assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }
}
