//! The rule engine: file classification, the invariant rules, and the
//! inline suppression syntax.
//!
//! Every rule guards an invariant the rest of the workspace depends on:
//!
//! * **Determinism** — edge streams must be bit-identical per
//!   `(seed, index)` for any worker count, so library code may not read
//!   ambient clocks, ambient randomness, or iterate hash containers.
//! * **Durability** — all final-name shard files must pass through the
//!   fsync→rename atomic sinks (or the fsynced journal), so `kron-gen`
//!   may not touch raw file-creation APIs outside those modules.
//! * **Error typing** — failures surface as typed errors naming the
//!   shard, so library code may not `unwrap`/`expect`/`panic!` and
//!   public signatures may not erase error types behind `Box<dyn Error>`.
//! * **Hygiene** — every crate root forbids `unsafe_code`, and every
//!   `#[allow(..)]` (like every lint suppression) carries a written
//!   justification.
//!
//! Suppression syntax, one exception documented in place:
//!
//! ```text
//! // lint:allow(no-expect) -- every block is created with the same full-graph dimensions
//! ```
//!
//! A trailing suppression covers its own line; a standalone suppression
//! comment covers itself and the line directly below.  The reason after
//! `--` is mandatory: a reasonless `lint:allow` is itself a finding.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rayon::prelude::*;

use crate::lexer::{lex, test_mask, Comment, Lexed, TokKind, Token};
use crate::parser::{parse_file, ParsedFile};
use crate::semantic;

/// How a file participates in the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Shipped library code (`crates/*/src`, the facade `src/`): every
    /// rule applies.
    Library,
    /// `examples/`: user-facing idiom, so the error-typing rules apply,
    /// but determinism rules do not (examples may print timings).
    Example,
    /// Integration tests and `#[cfg(test)]` regions: only the
    /// suppression-syntax rule applies.
    Test,
    /// Benchmarks and the figure binaries: measurement code is allowed
    /// clocks, hash maps, and `expect`; only suppression syntax applies.
    Bench,
}

/// A classified workspace source file.
#[derive(Debug, Clone)]
pub struct FileClass {
    pub rel: String,
    pub kind: FileKind,
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
    pub suppressed: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule identifiers (also the names accepted by `lint:allow(..)`).
pub const NO_UNWRAP: &str = "no-unwrap";
pub const NO_EXPECT: &str = "no-expect";
pub const NO_PANIC: &str = "no-panic";
pub const BOX_DYN_ERROR: &str = "box-dyn-error";
pub const NO_HASH_COLLECTIONS: &str = "no-hash-collections";
pub const NO_AMBIENT_TIME: &str = "no-ambient-time";
pub const NO_AMBIENT_RNG: &str = "no-ambient-rng";
pub const RAW_FS_SHARD: &str = "raw-fs-shard";
pub const MISSING_FORBID_UNSAFE: &str = "missing-forbid-unsafe";
pub const ALLOW_WITHOUT_REASON: &str = "allow-without-reason";
pub const BAD_SUPPRESSION: &str = "bad-suppression";
pub const PANIC_REACHABILITY: &str = "panic-reachability";
pub const ATOMIC_ORDERING: &str = "atomic-ordering";
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";

/// Every shipped rule with a one-line rationale, for `--rules` output
/// and the README table.
pub const RULES: &[(&str, &str)] = &[
    (NO_UNWRAP, "library/example code must not call .unwrap()"),
    (NO_EXPECT, "library/example code must not call .expect(..)"),
    (NO_PANIC, "library/example code must not invoke panic!"),
    (
        BOX_DYN_ERROR,
        "public signatures must keep typed errors, not Box<dyn Error>",
    ),
    (
        NO_HASH_COLLECTIONS,
        "HashMap/HashSet iteration order is nondeterministic; use BTree maps",
    ),
    (
        NO_AMBIENT_TIME,
        "SystemTime::now/Instant::now are ambient inputs that break replay",
    ),
    (
        NO_AMBIENT_RNG,
        "thread_rng/from_entropy/rand::random break (seed, index) determinism",
    ),
    (
        RAW_FS_SHARD,
        "kron-gen file creation must go through the atomic sink/journal modules",
    ),
    (
        MISSING_FORBID_UNSAFE,
        "crate roots must carry #![forbid(unsafe_code)]",
    ),
    (
        ALLOW_WITHOUT_REASON,
        "#[allow(..)] needs a justification comment beside it",
    ),
    (
        BAD_SUPPRESSION,
        "lint:allow(..) must carry a reason after ` -- `",
    ),
    (
        PANIC_REACHABILITY,
        "no call path from a Pipeline public entry point may reach a panic site",
    ),
    (
        ATOMIC_ORDERING,
        "every atomic op site carries an adjacent comment justifying its memory ordering",
    ),
    (
        UNUSED_SUPPRESSION,
        "a lint:allow that suppresses no finding is dead and must be deleted",
    ),
];

/// `kron-gen` modules that own the atomic write path and may therefore
/// touch raw file-creation APIs: the fsync→rename sinks and the
/// fsynced manifest/progress journal.
const GEN_FS_OWNERS: &[&str] = &["crates/gen/src/sink.rs", "crates/gen/src/manifest.rs"];

/// Classify a workspace-relative path (forward slashes).  `None` means
/// the file is outside the lint's jurisdiction (vendored code, build
/// output, the lint's own rule fixtures).
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") {
        return None;
    }
    if rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.starts_with("crates/lint/fixtures/")
    {
        return None;
    }
    let kind = if rel.starts_with("crates/bench/") || rel.contains("/benches/") {
        FileKind::Bench
    } else if rel.starts_with("tests/") || rel.contains("/tests/") {
        FileKind::Test
    } else if rel.starts_with("examples/") || rel.contains("/examples/") {
        FileKind::Example
    } else if rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/")) {
        FileKind::Library
    } else {
        // Stray root-level .rs files (build scripts, future tooling)
        // get full library scrutiny by default.
        FileKind::Library
    };
    Some(FileClass {
        rel: rel.to_string(),
        kind,
    })
}

/// Whether `rel` is a crate root that must carry
/// `#![forbid(unsafe_code)]`.
fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    matches!(
        parts.as_slice(),
        ["crates", _, "src", "lib.rs"] | ["crates", _, "src", "main.rs"]
    )
}

/// A parsed, well-formed suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    pub rules: Vec<String>,
    /// Lines this suppression covers.
    pub lines: Vec<u32>,
    pub reason: String,
}

/// Parse every `lint:allow` comment: returns the valid suppressions and
/// a finding for each malformed one (missing rule list or missing
/// ` -- reason`).
pub fn parse_suppressions(comments: &[Comment]) -> (Vec<Suppression>, Vec<(u32, String)>) {
    let mut valid = Vec::new();
    let mut malformed = Vec::new();
    for c in comments {
        // Doc comments *describe* the syntax; only plain `//` comments
        // can suppress.
        if c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(pos) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[pos + "lint:allow".len()..];
        let parsed = parse_allow_body(rest);
        match parsed {
            Ok((rules, reason)) => {
                let mut lines = vec![c.line];
                if c.standalone {
                    lines.push(c.line + 1);
                }
                valid.push(Suppression {
                    rules,
                    lines,
                    reason,
                });
            }
            Err(why) => malformed.push((c.line, why)),
        }
    }
    (valid, malformed)
}

/// Parse `(rule, rule, ..) -- reason` after the `lint:allow` keyword.
fn parse_allow_body(rest: &str) -> Result<(Vec<String>, String), String> {
    let rest = rest.trim_start();
    let Some(body) = rest.strip_prefix('(') else {
        return Err("expected `(` after lint:allow".to_string());
    };
    let Some(close) = body.find(')') else {
        return Err("unclosed rule list in lint:allow(..)".to_string());
    };
    let rules: Vec<String> = body[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("lint:allow(..) names no rules".to_string());
    }
    let known: BTreeSet<&str> = RULES.iter().map(|(id, _)| *id).collect();
    if let Some(unknown) = rules.iter().find(|r| !known.contains(r.as_str())) {
        return Err(format!("lint:allow names unknown rule `{unknown}`"));
    }
    let tail = body[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix("--") else {
        return Err(
            "lint:allow(..) is missing ` -- <reason>`: every suppression documents why".to_string(),
        );
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err(
            "lint:allow(..) has an empty reason: every suppression documents why".to_string(),
        );
    }
    Ok((rules, reason.to_string()))
}

/// The per-file analysis phase: classification, lexing, test masking,
/// suppression parsing, item parsing, and every per-file rule scan.
/// Independent across files, so [`lint_root`] runs it in parallel; the
/// workspace phase ([`lint_workspace`]) then runs the cross-file rules
/// and suppression accounting sequentially.
#[derive(Debug)]
pub struct FileAnalysis {
    pub class: FileClass,
    pub lexed: Lexed,
    pub mask: Vec<bool>,
    pub suppressions: Vec<Suppression>,
    pub parsed: ParsedFile,
    /// Per-file raw findings, before suppression matching.
    raw: Vec<(u32, &'static str, String)>,
}

/// Analyze one source file.  `None` when the path is outside the lint's
/// jurisdiction.
pub fn analyze_file(rel: &str, source: &str) -> Option<FileAnalysis> {
    let class = classify(rel)?;
    let lexed = lex(source);
    let mask = test_mask(&lexed.tokens);
    let (suppressions, malformed) = parse_suppressions(&lexed.line_comments);
    let parsed = parse_file(rel, &lexed, &mask);

    let mut raw: Vec<(u32, &'static str, String)> = Vec::new();
    for (line, why) in malformed {
        raw.push((line, BAD_SUPPRESSION, why));
    }

    let error_typing = matches!(class.kind, FileKind::Library | FileKind::Example);
    let determinism = class.kind == FileKind::Library;
    if error_typing {
        scan_error_typing(&lexed, &mask, &mut raw);
        scan_allow_attrs(&lexed, &mut raw);
    }
    if determinism {
        scan_determinism(&lexed, &mask, &mut raw);
        scan_pub_signatures(&lexed, &mask, &mut raw);
        semantic::scan_atomic_ordering(&lexed, &mask, &mut raw);
        if class.rel.starts_with("crates/gen/src/") && !GEN_FS_OWNERS.contains(&class.rel.as_str())
        {
            scan_raw_fs(&lexed, &mask, &mut raw);
        }
        if is_crate_root(&class.rel) && !has_forbid_unsafe(&lexed.tokens) {
            raw.push((
                1,
                MISSING_FORBID_UNSAFE,
                "crate root lacks #![forbid(unsafe_code)]".to_string(),
            ));
        }
    }

    Some(FileAnalysis {
        class,
        lexed,
        mask,
        suppressions,
        parsed,
        raw,
    })
}

/// The whole-workspace phase: apply suppressions to every per-file
/// finding, run the cross-file panic-reachability rule, then report
/// every suppression that matched nothing (`unused-suppression`).
///
/// Passing a single file still runs every rule — the call graph is just
/// confined to that file — which is what [`lint_source`] and the
/// single-file fixtures rely on.
pub fn lint_workspace(files: &[FileAnalysis]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    // used[file][suppression] — a suppression is "used" once it covers
    // at least one finding of one of its rules.
    let mut used: Vec<Vec<bool>> = files
        .iter()
        .map(|f| vec![false; f.suppressions.len()])
        .collect();
    // Round 1: per-file raw findings.
    let mut open_panics: Vec<Vec<u32>> = vec![Vec::new(); files.len()];
    for (fi, f) in files.iter().enumerate() {
        for (line, rule, message) in &f.raw {
            let suppressed = apply_suppressions(f, &mut used[fi], *line, rule);
            if !suppressed && matches!(*rule, NO_UNWRAP | NO_EXPECT | NO_PANIC) {
                open_panics[fi].push(*line);
            }
            findings.push(Finding {
                file: f.class.rel.clone(),
                line: *line,
                rule,
                message: message.clone(),
                suppressed,
            });
        }
    }
    // Round 2: cross-file panic-reachability.
    let reach_files: Vec<semantic::ReachFile<'_>> = files
        .iter()
        .enumerate()
        .map(|(fi, f)| semantic::ReachFile {
            lexed: &f.lexed,
            parsed: &f.parsed,
            is_library: f.class.kind == FileKind::Library,
            open_panic_lines: &open_panics[fi],
        })
        .collect();
    for (fi, line, rule, message) in semantic::panic_reachability(&reach_files) {
        let f = &files[fi];
        let suppressed = apply_suppressions(f, &mut used[fi], line, rule);
        findings.push(Finding {
            file: f.class.rel.clone(),
            line,
            rule,
            message,
            suppressed,
        });
    }
    // Round 3: suppressions that covered nothing are themselves
    // findings — suppressible only by an explicit allow naming the
    // unused-suppression rule (self-suppression included, as the
    // documented way to keep an exemplar).
    for (fi, f) in files.iter().enumerate() {
        let unused: Vec<(u32, String)> = f
            .suppressions
            .iter()
            .zip(&used[fi])
            .filter(|(_, &u)| !u)
            .map(|(s, _)| (s.lines[0], s.rules.join(", ")))
            .collect();
        for (line, rules) in unused {
            let suppressed = apply_suppressions(f, &mut used[fi], line, UNUSED_SUPPRESSION);
            findings.push(Finding {
                file: f.class.rel.clone(),
                line,
                rule: UNUSED_SUPPRESSION,
                message: format!(
                    "`lint:allow({rules})` suppresses no finding; delete the dead suppression"
                ),
                suppressed,
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Whether any suppression in `f` covers `(line, rule)`; every covering
/// suppression is marked used.
fn apply_suppressions(f: &FileAnalysis, used: &mut [bool], line: u32, rule: &str) -> bool {
    let mut hit = false;
    for (k, s) in f.suppressions.iter().enumerate() {
        if s.lines.contains(&line) && s.rules.iter().any(|r| r == rule) {
            used[k] = true;
            hit = true;
        }
    }
    hit
}

/// Lint one source file under its classification.  Returns every
/// finding, with `suppressed` set where a valid `lint:allow` covers it.
/// Cross-file rules see only this file.
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    match analyze_file(rel, source) {
        Some(fa) => lint_workspace(&[fa]),
        None => Vec::new(),
    }
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(c))
}

/// `a :: b` starting at index `i` (where `a` is already matched).
fn path_seg(tokens: &[Token], i: usize, seg: &str) -> bool {
    punct_at(tokens, i, ':') && punct_at(tokens, i + 1, ':') && ident_at(tokens, i + 2) == Some(seg)
}

fn scan_error_typing(lexed: &Lexed, mask: &[bool], out: &mut Vec<(u32, &'static str, String)>) {
    let t = &lexed.tokens;
    for i in 0..t.len() {
        if mask[i] {
            continue;
        }
        if punct_at(t, i, '.') && punct_at(t, i + 2, '(') {
            match ident_at(t, i + 1) {
                Some("unwrap") => out.push((
                    t[i + 1].line,
                    NO_UNWRAP,
                    "`.unwrap()` panics instead of returning a typed error".to_string(),
                )),
                Some("expect") => out.push((
                    t[i + 1].line,
                    NO_EXPECT,
                    "`.expect(..)` panics instead of returning a typed error".to_string(),
                )),
                _ => {}
            }
        }
        if ident_at(t, i) == Some("panic") && punct_at(t, i + 1, '!') {
            out.push((
                t[i].line,
                NO_PANIC,
                "`panic!` aborts instead of returning a typed error".to_string(),
            ));
        }
    }
}

fn scan_determinism(lexed: &Lexed, mask: &[bool], out: &mut Vec<(u32, &'static str, String)>) {
    let t = &lexed.tokens;
    for i in 0..t.len() {
        if mask[i] {
            continue;
        }
        match ident_at(t, i) {
            Some(name @ ("HashMap" | "HashSet")) => out.push((
                t[i].line,
                NO_HASH_COLLECTIONS,
                format!("`{name}` iteration order is nondeterministic; use the BTree equivalent"),
            )),
            Some(name @ ("SystemTime" | "Instant")) if path_seg(t, i + 1, "now") => out.push((
                t[i].line,
                NO_AMBIENT_TIME,
                format!("`{name}::now()` reads an ambient clock; pass time in explicitly"),
            )),
            Some(name @ ("thread_rng" | "from_entropy")) => out.push((
                t[i].line,
                NO_AMBIENT_RNG,
                format!("`{name}` draws ambient randomness; derive streams from an explicit seed"),
            )),
            Some("rand") if path_seg(t, i + 1, "random") => out.push((
                t[i].line,
                NO_AMBIENT_RNG,
                "`rand::random` draws ambient randomness; derive streams from an explicit seed"
                    .to_string(),
            )),
            _ => {}
        }
    }
}

fn scan_raw_fs(lexed: &Lexed, mask: &[bool], out: &mut Vec<(u32, &'static str, String)>) {
    let t = &lexed.tokens;
    for i in 0..t.len() {
        if mask[i] {
            continue;
        }
        let hit = match ident_at(t, i) {
            Some("fs") if path_seg(t, i + 1, "write") => Some("fs::write"),
            Some("fs") if path_seg(t, i + 1, "rename") => Some("fs::rename"),
            Some("File") if path_seg(t, i + 1, "create") => Some("File::create"),
            Some("OpenOptions") => Some("OpenOptions"),
            _ => None,
        };
        if let Some(api) = hit {
            out.push((
                t[i].line,
                RAW_FS_SHARD,
                format!(
                    "`{api}` outside the atomic sink/journal modules can leave a truncated \
                     final-name shard; write through kron_gen::sink or the manifest journal"
                ),
            ));
        }
    }
}

/// Scan `pub fn` signatures for `Box<dyn .. Error ..>`.
fn scan_pub_signatures(lexed: &Lexed, mask: &[bool], out: &mut Vec<(u32, &'static str, String)>) {
    let t = &lexed.tokens;
    let mut i = 0usize;
    while i < t.len() {
        if mask[i] || ident_at(t, i) != Some("pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // `pub(crate)` / `pub(in ..)` visibility qualifier.
        if punct_at(t, j, '(') {
            let mut depth = 0usize;
            while j < t.len() {
                if punct_at(t, j, '(') {
                    depth += 1;
                } else if punct_at(t, j, ')') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Skip qualifiers like `const`, `async`, `unsafe`, `extern "C"`.
        while matches!(
            ident_at(t, j),
            Some("const" | "async" | "unsafe" | "extern")
        ) {
            j += 1;
        }
        if ident_at(t, j) != Some("fn") {
            i += 1;
            continue;
        }
        // Signature runs to the body `{` or a trait-style `;`.
        let mut k = j;
        let sig_end = loop {
            if k >= t.len() {
                break k;
            }
            if punct_at(t, k, '{') || punct_at(t, k, ';') {
                break k;
            }
            k += 1;
        };
        scan_box_dyn_error(&t[j..sig_end], t[j].line, out);
        i = sig_end.max(i + 1);
    }
}

fn scan_box_dyn_error(sig: &[Token], _line: u32, out: &mut Vec<(u32, &'static str, String)>) {
    for i in 0..sig.len() {
        if ident_at(sig, i) == Some("Box")
            && punct_at(sig, i + 1, '<')
            && ident_at(sig, i + 2) == Some("dyn")
        {
            // Walk the angle-bracket group looking for an `Error` ident.
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < sig.len() {
                if punct_at(sig, j, '<') {
                    depth += 1;
                } else if punct_at(sig, j, '>') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if ident_at(sig, j).is_some_and(|s| s.ends_with("Error")) {
                    out.push((
                        sig[i].line,
                        BOX_DYN_ERROR,
                        "public signature erases the error type behind `Box<dyn Error>`; \
                         return a typed error so callers can match on failures"
                            .to_string(),
                    ));
                    break;
                }
                j += 1;
            }
        }
    }
}

/// Every `#[allow(..)]` / `#![allow(..)]` needs a comment on its own
/// line or the line above.
fn scan_allow_attrs(lexed: &Lexed, out: &mut Vec<(u32, &'static str, String)>) {
    let t = &lexed.tokens;
    for i in 0..t.len() {
        if !punct_at(t, i, '#') {
            continue;
        }
        let mut j = i + 1;
        if punct_at(t, j, '!') {
            j += 1;
        }
        if punct_at(t, j, '[') && ident_at(t, j + 1) == Some("allow") && punct_at(t, j + 2, '(') {
            let line = t[i].line;
            let justified =
                lexed.comment_lines.contains(&line) || lexed.comment_lines.contains(&(line - 1));
            if !justified {
                out.push((
                    line,
                    ALLOW_WITHOUT_REASON,
                    "`#[allow(..)]` without a justification comment beside it".to_string(),
                ));
            }
        }
    }
}

fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    for i in 0..tokens.len() {
        if punct_at(tokens, i, '#')
            && punct_at(tokens, i + 1, '!')
            && punct_at(tokens, i + 2, '[')
            && ident_at(tokens, i + 3) == Some("forbid")
            && punct_at(tokens, i + 4, '(')
            && ident_at(tokens, i + 5) == Some("unsafe_code")
        {
            return true;
        }
    }
    false
}

/// Recursively collect workspace `.rs` sources under `root`, skipping
/// vendored code, build output, VCS metadata, and the lint fixtures.
/// Returned paths are workspace-relative with `/` separators, sorted.
pub fn collect_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel_dir) = stack.pop() {
        let abs = root.join(&rel_dir);
        let mut entries: Vec<_> = fs::read_dir(&abs)?.collect::<io::Result<Vec<_>>>()?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            let rel = if rel_dir.as_os_str().is_empty() {
                PathBuf::from(&name)
            } else {
                rel_dir.join(&name)
            };
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            let ty = entry.file_type()?;
            if ty.is_dir() {
                if matches!(name.as_str(), "vendor" | "target" | ".git")
                    || rel_str == "crates/lint/fixtures"
                {
                    continue;
                }
                stack.push(rel);
            } else if ty.is_file() && rel_str.ends_with(".rs") {
                out.push(rel_str);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every workspace source under `root`.  The per-file analysis
/// phase (lex, parse, per-file scans) runs in parallel; the cross-file
/// phase is sequential.
pub fn lint_root(root: &Path) -> io::Result<Vec<Finding>> {
    let sources: Vec<(String, String)> = collect_sources(root)?
        .into_iter()
        .map(|rel| {
            let source = fs::read_to_string(root.join(&rel))?;
            Ok((rel, source))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let analyses: Vec<FileAnalysis> = sources
        .into_par_iter()
        .map(|(rel, source)| analyze_file(&rel, &source))
        .collect::<Vec<Option<FileAnalysis>>>()
        .into_iter()
        .flatten()
        .collect();
    Ok(lint_workspace(&analyses))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_requires_reason() {
        let lexed = lex("// lint:allow(no-unwrap)\nlet x = 1;\n");
        let (valid, malformed) = parse_suppressions(&lexed.line_comments);
        assert!(valid.is_empty());
        assert_eq!(malformed.len(), 1);
        assert!(malformed[0].1.contains("reason"));
    }

    #[test]
    fn suppression_rejects_empty_reason() {
        let lexed = lex("// lint:allow(no-unwrap) -- \nlet x = 1;\n");
        let (valid, malformed) = parse_suppressions(&lexed.line_comments);
        assert!(valid.is_empty());
        assert_eq!(malformed.len(), 1);
    }

    #[test]
    fn suppression_rejects_unknown_rule() {
        let lexed = lex("// lint:allow(no-such-rule) -- because\n");
        let (_, malformed) = parse_suppressions(&lexed.line_comments);
        assert_eq!(malformed.len(), 1);
        assert!(malformed[0].1.contains("unknown rule"));
    }

    #[test]
    fn suppression_parses_rule_list_and_reason() {
        let lexed = lex("foo(); // lint:allow(no-unwrap, no-expect) -- test helper\n");
        let (valid, malformed) = parse_suppressions(&lexed.line_comments);
        assert!(malformed.is_empty());
        assert_eq!(valid.len(), 1);
        assert_eq!(valid[0].rules, vec!["no-unwrap", "no-expect"]);
        assert_eq!(valid[0].reason, "test helper");
        assert_eq!(valid[0].lines, vec![1]);
    }

    #[test]
    fn standalone_suppression_covers_next_line() {
        let src = "#![forbid(unsafe_code)]\n\
                   // lint:allow(no-unwrap) -- demo of the next-line span\n\
                   pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let findings = lint_source("crates/core/src/demo.rs", src);
        assert!(findings.iter().all(|f| f.suppressed), "{findings:?}");
    }

    #[test]
    fn test_modules_are_exempt_from_error_typing() {
        let src = "pub fn ok() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { Some(1).unwrap(); }\n\
                   }\n";
        let findings = lint_source("crates/core/src/demo.rs", src);
        assert!(findings.iter().all(|f| f.rule != NO_UNWRAP), "{findings:?}");
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "pub fn ok() -> &'static str {\n\
                       // .unwrap() and panic! in a comment\n\
                       \"fs::write .expect( HashMap\"\n\
                   }\n";
        let findings = lint_source("crates/core/src/demo.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn classify_kinds() {
        assert_eq!(
            classify("crates/gen/src/sink.rs").map(|c| c.kind),
            Some(FileKind::Library)
        );
        assert_eq!(
            classify("examples/quickstart.rs").map(|c| c.kind),
            Some(FileKind::Example)
        );
        assert_eq!(classify("tests/a.rs").map(|c| c.kind), Some(FileKind::Test));
        assert_eq!(
            classify("crates/bench/src/lib.rs").map(|c| c.kind),
            Some(FileKind::Bench)
        );
        assert!(classify("vendor/rand/src/lib.rs").is_none());
        assert!(classify("crates/lint/fixtures/x.rs").is_none());
    }
}
