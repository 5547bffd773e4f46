//! The semantic rule families built on the item parser and call graph.
//!
//! Two scans live here:
//!
//! * [`scan_atomic_ordering`] — per file: every `Ordering::<variant>`
//!   site on an atomic op must carry an adjacent comment mentioning
//!   "ordering" that justifies the chosen memory ordering.
//! * [`panic_reachability`] — whole workspace: no transitive call path
//!   from a `Pipeline` public entry point to a panicking site, reported
//!   with the full call chain.
//!
//! The unused-suppression rule also has its constant here conceptually,
//! but its mechanics (which suppressions matched nothing) live in the
//! engine ([`crate::rules::lint_workspace`]) because only the engine
//! sees the finding/suppression matching.

use std::collections::BTreeSet;

use crate::graph::{CallGraph, GraphFile};
use crate::lexer::{Lexed, TokKind, Token};
use crate::rules::{ATOMIC_ORDERING, PANIC_REACHABILITY};

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(c))
}

/// Memory-ordering variants of `std::sync::atomic::Ordering`.  These do
/// not overlap `std::cmp::Ordering`'s variants (`Less`/`Equal`/
/// `Greater`), so matching `Ordering::<variant>` token triples is
/// unambiguous without type information.
const ATOMIC_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Every atomic op site (`Ordering::Relaxed` etc.) must have a line
/// comment containing "ordering" on its own line or the line above —
/// the mechanized version of PR 7's manual atomics pass.
pub fn scan_atomic_ordering(
    lexed: &Lexed,
    mask: &[bool],
    out: &mut Vec<(u32, &'static str, String)>,
) {
    let t = &lexed.tokens;
    let justified: BTreeSet<u32> = lexed
        .line_comments
        .iter()
        .filter(|c| c.text.to_ascii_lowercase().contains("ordering:"))
        .map(|c| c.line)
        .collect();
    for i in 0..t.len() {
        if mask[i] || ident_at(t, i) != Some("Ordering") {
            continue;
        }
        let Some(variant) = (punct_at(t, i + 1, ':') && punct_at(t, i + 2, ':'))
            .then(|| ident_at(t, i + 3))
            .flatten()
        else {
            continue;
        };
        if !ATOMIC_VARIANTS.contains(&variant) {
            continue;
        }
        let line = t[i].line;
        if !justified.contains(&line) && !justified.contains(&line.saturating_sub(1)) {
            out.push((
                line,
                ATOMIC_ORDERING,
                format!(
                    "`Ordering::{variant}` without an adjacent `// ordering:` comment \
                     justifying why this memory ordering is sufficient"
                ),
            ));
        }
    }
}

/// One file's inputs to the reachability pass.
pub struct ReachFile<'a> {
    pub lexed: &'a Lexed,
    pub parsed: &'a crate::parser::ParsedFile,
    /// Whether the file is Library-class (only library panic sites count).
    pub is_library: bool,
    /// Lines of *unsuppressed* lexical panic findings
    /// (`no-unwrap`/`no-expect`/`no-panic`) in this file.  Suppressed
    /// sites are documented contracts and are exempt from reachability.
    pub open_panic_lines: &'a [u32],
}

/// Whole-workspace panic-reachability: build the call graph, BFS from
/// every `pub fn` on a `Pipeline` impl, and report each reachable panic
/// site with its full call chain.  The sites are exactly the open
/// lexical panic findings, so this rule only adds the chain to a line
/// that already fails.  Returns `(file index, line, rule, message)`
/// tuples.
pub fn panic_reachability(files: &[ReachFile<'_>]) -> Vec<(usize, u32, &'static str, String)> {
    let graph_files: Vec<GraphFile<'_>> = files
        .iter()
        .map(|f| GraphFile {
            lexed: f.lexed,
            parsed: f.parsed,
        })
        .collect();
    let graph = CallGraph::build(&graph_files);
    let entries: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_pub && f.self_type.as_deref() == Some("Pipeline"))
        .map(|(n, _)| n)
        .collect();
    if entries.is_empty() {
        return Vec::new();
    }
    let parent = graph.reach_from(&entries);

    // Panic sites: (file, line).
    let mut sites: Vec<(usize, u32)> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_library)
        .flat_map(|(fi, f)| f.open_panic_lines.iter().map(move |&line| (fi, line)))
        .collect();
    sites.sort();
    sites.dedup();

    let mut out = Vec::new();
    for (fi, line) in sites {
        let Some(node) = graph.containing_fn(fi, line) else {
            continue;
        };
        if !parent.contains_key(&node) {
            continue;
        }
        let chain = graph.chain_to(node, &parent).join(" -> ");
        out.push((
            fi,
            line,
            PANIC_REACHABILITY,
            format!(
                "unsuppressed panic site is reachable from a Pipeline entry point: {chain} -> panic at line {line}"
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_mask};
    use crate::parser::parse_file;

    fn scan_atomics(src: &str) -> Vec<u32> {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let mut out = Vec::new();
        scan_atomic_ordering(&lexed, &mask, &mut out);
        out.into_iter().map(|(line, _, _)| line).collect()
    }

    #[test]
    fn atomic_sites_need_an_ordering_comment() {
        let bad = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert_eq!(scan_atomics(bad), vec![1]);
        let same_line =
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); // ordering: counter only\n}\n";
        assert!(scan_atomics(same_line).is_empty());
        let line_above = "fn f(c: &AtomicU64) {\n\
                          // ordering: Relaxed suffices, value is folded after join\n\
                          c.fetch_add(1, Ordering::SeqCst);\n}\n";
        assert!(scan_atomics(line_above).is_empty());
    }

    #[test]
    fn cmp_ordering_variants_are_not_atomic_sites() {
        let src = "fn f(a: u64, b: u64) -> Ordering { Ordering::Less }\n";
        assert!(scan_atomics(src).is_empty());
    }

    #[test]
    fn reachability_reports_the_chain_and_skips_unreached_sites() {
        let pipeline_src = "pub struct Pipeline;\n\
                            impl Pipeline { pub fn count(self) -> u64 { helper() } }\n\
                            fn helper() -> u64 { kron_sparse::fold() }\n\
                            fn orphan() { other() }\n\
                            fn other() {}\n";
        let sparse_src = "pub fn fold() -> u64 { tally() }\n\
                          fn tally() -> u64 { 0 }\n";
        let lex_a = lex(pipeline_src);
        let mask_a = test_mask(&lex_a.tokens);
        let parsed_a = parse_file("crates/gen/src/pipeline.rs", &lex_a, &mask_a);
        let lex_b = lex(sparse_src);
        let mask_b = test_mask(&lex_b.tokens);
        let parsed_b = parse_file("crates/sparse/src/lib.rs", &lex_b, &mask_b);
        // Pretend line 2 of sparse (inside `tally`) and line 5 of the
        // pipeline file (inside `other`) carry open panic sites.
        let files = [
            ReachFile {
                lexed: &lex_a,
                parsed: &parsed_a,
                is_library: true,
                open_panic_lines: &[5],
            },
            ReachFile {
                lexed: &lex_b,
                parsed: &parsed_b,
                is_library: true,
                open_panic_lines: &[2],
            },
        ];
        let found = panic_reachability(&files);
        assert_eq!(found.len(), 1, "{found:?}");
        let (fi, line, rule, msg) = &found[0];
        assert_eq!((*fi, *line), (1, 2));
        assert_eq!(*rule, PANIC_REACHABILITY);
        assert!(
            msg.contains("Pipeline::count -> gen::helper -> sparse::fold -> sparse::tally"),
            "{msg}"
        );
    }
}
