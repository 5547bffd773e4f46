//! Host and build facts a recorded number is meaningless without.

use std::path::Path;
use std::process::Command;

use crate::output::Provenance;
use crate::scratch::fs_kind;

/// The host's available parallelism — the `W` of every workload.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .and_then(|text| text.lines().next().map(|line| line.trim().to_string()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `rustflags = [...]` line of `.cargo/config.toml` in the working
/// directory — the flags cargo builds the benchmark with when it is run
/// from the root of a checkout, as `BENCHMARK.json` runs it.
fn configured_rustflags() -> String {
    std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|config| {
            config
                .lines()
                .map(str::trim)
                .find(|line| line.starts_with("rustflags"))
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The facts every run shares; the caller adds what it alone knows (reps,
/// split index, chunk capacity).
pub fn host(workload: &str, seed: u64, smoke: bool, scratch: &Path) -> Provenance {
    let mut provenance = Provenance::default();
    provenance.text("workload", workload);
    provenance.raw("seed", seed);
    provenance.raw("smoke", smoke);
    provenance.raw("available_parallelism", available_parallelism());
    provenance.text(
        "git_rev",
        &first_line_of("git", &["rev-parse", "--short", "HEAD"]),
    );
    provenance.text("rustc", &first_line_of("rustc", &["-V"]));
    provenance.text("rustflags", &configured_rustflags());
    provenance.text("scratch_dir", &scratch.display().to_string());
    provenance.text("scratch_fs", &fs_kind(scratch));
    provenance
}
