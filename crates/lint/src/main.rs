#![forbid(unsafe_code)]
//! Command-line front end for `kron-lint`.
//!
//! ```text
//! kron-lint [--deny] [--changed] [--rules] [ROOT]
//! ```
//!
//! * `--deny`    — exit non-zero when any unsuppressed finding remains
//!   (the CI gate).
//! * `--changed` — report only findings in files changed vs the merge
//!   base with the main branch (the whole workspace is still analyzed,
//!   so cross-file rules keep their full view).
//! * `--rules`   — list every rule with its rationale and exit.
//! * `ROOT`      — workspace root to scan (default: walk up from the
//!   current directory to the first `Cargo.toml` owning a `crates/`
//!   directory).

use std::path::PathBuf;
use std::process::ExitCode;

use kron_lint::{changed::changed_files, lint_root, Finding, RULES};

fn main() -> ExitCode {
    let mut deny = false;
    let mut changed = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny" => deny = true,
            "--changed" => changed = true,
            "--rules" => {
                for (id, why) in RULES {
                    println!("{id:24} {why}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("usage: kron-lint [--deny] [--changed] [--rules] [ROOT]");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => root = Some(PathBuf::from(other)),
            other => {
                eprintln!("kron-lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("kron-lint: could not locate the workspace root; pass it explicitly");
            return ExitCode::from(2);
        }
    };

    let mut findings = match lint_root(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("kron-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if changed {
        match changed_files(&root) {
            Some(touched) => findings.retain(|f| touched.contains(&f.file)),
            None => {
                eprintln!("kron-lint: not a git checkout; --changed falls back to a full report")
            }
        }
    }

    let active: Vec<&Finding> = findings.iter().filter(|f| !f.suppressed).collect();
    let suppressed = findings.len() - active.len();

    for f in &active {
        println!("{f}");
    }
    println!(
        "kron-lint: {} finding(s), {} suppression(s) honoured",
        active.len(),
        suppressed
    );

    if deny && !active.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Walk up from the current directory to the first directory that looks
/// like the workspace root (a `Cargo.toml` next to a `crates/` dir).
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
