//! The `atomic-ordering` rule: every `Ordering::<variant>` site on an
//! atomic op must carry an adjacent comment mentioning "ordering" that
//! justifies the chosen memory ordering ([`scan_atomic_ordering`]).
//!
//! It needs the whole file's comments, not just the site's tokens.  The
//! other whole-file rule, `unused-suppression`, lives in the engine
//! ([`crate::rules::lint_source`]) because only the engine sees which
//! suppressions matched a finding.

use std::collections::BTreeSet;

use crate::lexer::{Lexed, TokKind, Token};
use crate::rules::ATOMIC_ORDERING;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_mask};

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
}
