//! The cross-crate call graph behind the panic-reachability rule.
//!
//! Nodes are the non-test `fn` items recovered by [`crate::parser`];
//! edges are call sites extracted from each body's token stream.  With
//! no type information available, call resolution is deliberately an
//! **over-approximation** in the conservative direction: a method call
//! `.foo()` links to *every* workspace method named `foo`, a qualified
//! call `Q::foo()` to every method of every type named `Q`, and a bare
//! call `foo()` first to same-crate free functions, then through the
//! file's `use` imports, then to a unique workspace-wide match.  Calls
//! into `std` and vendored crates resolve to nothing and drop out.
//! Over-approximation can only produce a panic-reachability finding
//! that a human must justify — never hide a real path.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Lexed, TokKind, Token};
use crate::parser::{FnItem, ParsedFile};

/// One function node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the owning file in the slice `build` was given.
    pub file: usize,
    /// Workspace-relative path of the owning file.
    pub rel: String,
    /// Owning crate (see [`crate::parser::crate_of`]).
    pub krate: String,
    pub name: String,
    pub self_type: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    pub is_pub: bool,
    /// First and last source line of the item (signature through
    /// closing brace), for mapping a finding line to its function.
    pub span: (u32, u32),
}

impl FnNode {
    /// Human-readable name for chain reports: `Type::name` for methods,
    /// `crate::name` for free functions.
    pub fn display(&self) -> String {
        match &self.self_type {
            Some(ty) => format!("{ty}::{}", self.name),
            None => format!("{}::{}", self.krate, self.name),
        }
    }
}

/// The whole-workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnNode>,
    /// `callees[i]` = node indices `fns[i]` may call.
    pub callees: Vec<BTreeSet<usize>>,
}

/// One file's inputs to graph construction.
pub struct GraphFile<'a> {
    pub lexed: &'a Lexed,
    pub parsed: &'a ParsedFile,
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

/// Keywords and primitives that look like bare calls but are not.
fn is_call_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "fn"
            | "in"
            | "as"
            | "let"
            | "move"
            | "ref"
            | "mut"
            | "pub"
            | "impl"
            | "use"
            | "where"
            | "else"
            | "break"
            | "continue"
            | "unsafe"
            | "async"
            | "await"
            | "dyn"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "mod"
            | "const"
            | "static"
            | "super"
            | "true"
            | "false"
    )
}

/// A call site extracted from a token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `.name(..)`
    Method(String),
    /// `qual::name(..)` — `qual` is the segment directly before the
    /// final `::`.
    Qualified(String, String),
    /// `name(..)`
    Free(String),
}

/// Extract every call site in `tokens[range]`.  Macro invocations
/// (`name!(..)`) and nested `fn` definitions are skipped; tuple-struct
/// and enum-variant constructors are filtered by their CamelCase names.
pub fn extract_calls(tokens: &[Token], range: (usize, usize)) -> Vec<Call> {
    let mut out = Vec::new();
    let (start, end) = range;
    for j in start..end.min(tokens.len()) {
        let Some(name) = ident_at(tokens, j) else {
            continue;
        };
        if !punct_at(tokens, j + 1, '(') {
            continue;
        }
        if j > start && punct_at(tokens, j - 1, '!') {
            continue; // macro invocation
        }
        if j > start && ident_at(tokens, j - 1) == Some("fn") {
            continue; // nested definition, not a call
        }
        if j > start && punct_at(tokens, j - 1, '.') {
            out.push(Call::Method(name.to_string()));
            continue;
        }
        if j >= start + 2 && punct_at(tokens, j - 1, ':') && punct_at(tokens, j - 2, ':') {
            if let Some(qual) = j.checked_sub(3).and_then(|k| ident_at(tokens, k)) {
                out.push(Call::Qualified(qual.to_string(), name.to_string()));
            }
            continue;
        }
        if is_call_keyword(name) || name.starts_with(char::is_uppercase) {
            continue; // keyword or constructor
        }
        out.push(Call::Free(name.to_string()));
    }
    out
}

/// The crate a `use` path's head segment refers to, if it names a
/// workspace crate: `crate`/`self` map to the importing crate, a
/// `kron_*` head maps to `crates/<tail>`.
fn import_crate(head: &str, own_crate: &str) -> Option<String> {
    if head == "crate" || head == "self" {
        return Some(own_crate.to_string());
    }
    if head == "kron" {
        return Some("facade".to_string());
    }
    head.strip_prefix("kron_").map(str::to_string)
}

impl CallGraph {
    /// Build the graph over every non-test function in `files`.
    pub fn build(files: &[GraphFile<'_>]) -> CallGraph {
        let mut g = CallGraph::default();
        // Node collection, in file order.
        let mut node_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (k, item) in f.parsed.fns.iter().enumerate() {
                if item.is_test {
                    continue;
                }
                node_of.insert((fi, k), g.fns.len());
                g.fns.push(FnNode {
                    file: fi,
                    rel: f.parsed.rel.clone(),
                    krate: f.parsed.krate.clone(),
                    name: item.name.clone(),
                    self_type: item.self_type.clone(),
                    line: item.line,
                    is_pub: item.is_pub,
                    span: item_span(item, &f.lexed.tokens),
                });
            }
        }
        // Resolution indexes.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_crate: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_type: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (n, node) in g.fns.iter().enumerate() {
            match &node.self_type {
                Some(ty) => {
                    methods_by_name.entry(&node.name).or_default().push(n);
                    methods_by_type
                        .entry((ty.as_str(), &node.name))
                        .or_default()
                        .push(n);
                }
                None => {
                    free_by_name.entry(&node.name).or_default().push(n);
                    free_by_crate
                        .entry((&node.krate, &node.name))
                        .or_default()
                        .push(n);
                }
            }
        }
        // Edge extraction + resolution.
        let mut callees: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); g.fns.len()];
        for (fi, f) in files.iter().enumerate() {
            for (k, item) in f.parsed.fns.iter().enumerate() {
                let Some(&n) = node_of.get(&(fi, k)) else {
                    continue;
                };
                for call in extract_calls(&f.lexed.tokens, item.body) {
                    let targets: Vec<usize> = match &call {
                        Call::Method(m) => {
                            methods_by_name.get(m.as_str()).cloned().unwrap_or_default()
                        }
                        Call::Qualified(q, m) => resolve_qualified(
                            q,
                            m,
                            &g.fns[n],
                            f.parsed,
                            &free_by_crate,
                            &free_by_name,
                            &methods_by_type,
                            &methods_by_name,
                        ),
                        Call::Free(m) => resolve_free(
                            m,
                            &g.fns[n].krate,
                            f.parsed,
                            &free_by_crate,
                            &free_by_name,
                        ),
                    };
                    callees[n].extend(targets.into_iter().filter(|&t| t != n));
                }
            }
        }
        g.callees = callees;
        g
    }

    /// BFS from `entries`; returns, per node, the predecessor on one
    /// shortest path from an entry (`usize::MAX` marks an entry root,
    /// absent means unreachable).
    pub fn reach_from(&self, entries: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &e in entries {
            if let Entry::Vacant(slot) = parent.entry(e) {
                slot.insert(usize::MAX);
                queue.push_back(e);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &c in &self.callees[n] {
                if let Entry::Vacant(slot) = parent.entry(c) {
                    slot.insert(n);
                    queue.push_back(c);
                }
            }
        }
        parent
    }

    /// The chain entry → … → `node`, as display names, given the
    /// predecessor map from [`CallGraph::reach_from`].
    pub fn chain_to(&self, node: usize, parent: &BTreeMap<usize, usize>) -> Vec<String> {
        let mut rev = Vec::new();
        let mut cur = node;
        loop {
            rev.push(self.fns[cur].display());
            match parent.get(&cur) {
                Some(&p) if p != usize::MAX => cur = p,
                _ => break,
            }
        }
        rev.reverse();
        rev
    }

    /// The innermost function in file `fi` whose line span contains
    /// `line` (innermost = the latest-starting containing span, so a
    /// nested fn wins over its enclosing fn).
    pub fn containing_fn(&self, fi: usize, line: u32) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == fi && f.span.0 <= line && line <= f.span.1)
            .max_by_key(|(_, f)| f.span.0)
            .map(|(n, _)| n)
    }
}

/// First..last source line of a fn item.
fn item_span(item: &FnItem, tokens: &[Token]) -> (u32, u32) {
    let (s, e) = item.body;
    let last = if e > s && e <= tokens.len() {
        tokens[e - 1].line
    } else if s < tokens.len() {
        tokens[s].line
    } else {
        item.line
    };
    (item.line, last.max(item.line))
}

#[allow(clippy::too_many_arguments)] // resolution needs all four indexes at once
fn resolve_qualified(
    q: &str,
    m: &str,
    caller: &FnNode,
    file: &ParsedFile,
    free_by_crate: &BTreeMap<(&str, &str), Vec<usize>>,
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    methods_by_type: &BTreeMap<(&str, &str), Vec<usize>>,
    methods_by_name: &BTreeMap<&str, Vec<usize>>,
) -> Vec<usize> {
    // `self::f` / `Self::f`: the current impl type's methods when there
    // is one, else same-crate free fns.
    if q == "self" || q == "Self" {
        if let Some(ty) = &caller.self_type {
            if let Some(hits) = methods_by_type.get(&(ty.as_str(), m)) {
                return hits.clone();
            }
        }
        if let Some(hits) = free_by_crate.get(&(caller.krate.as_str(), m)) {
            return hits.clone();
        }
        return methods_by_name.get(m).cloned().unwrap_or_default();
    }
    // `crate::f` and workspace-crate heads (`kron_sparse::f`).
    if let Some(krate) = import_crate(q, &caller.krate) {
        if let Some(hits) = free_by_crate.get(&(krate.as_str(), m)) {
            return hits.clone();
        }
        // `kron_sparse::Matrix::..` style paths end up with q = the
        // type; fall through below handles those.  A crate-qualified
        // miss can still be a re-export; try the unique global match.
        return unique_or_empty(free_by_name.get(m));
    }
    // `Type::method`.
    if q.starts_with(char::is_uppercase) {
        if let Some(hits) = methods_by_type.get(&(q, m)) {
            return hits.clone();
        }
        return Vec::new();
    }
    // `module::f`: a same-crate module path, or an imported module.
    if let Some(hits) = free_by_crate.get(&(caller.krate.as_str(), m)) {
        return hits.clone();
    }
    for path in &file.imports {
        if path.last().is_some_and(|leaf| leaf == q) {
            if let Some(head) = path.first() {
                if let Some(krate) = import_crate(head, &caller.krate) {
                    if let Some(hits) = free_by_crate.get(&(krate.as_str(), m)) {
                        return hits.clone();
                    }
                }
            }
        }
    }
    unique_or_empty(free_by_name.get(m))
}

fn resolve_free(
    m: &str,
    own_crate: &str,
    file: &ParsedFile,
    free_by_crate: &BTreeMap<(&str, &str), Vec<usize>>,
    free_by_name: &BTreeMap<&str, Vec<usize>>,
) -> Vec<usize> {
    if let Some(hits) = free_by_crate.get(&(own_crate, m)) {
        return hits.clone();
    }
    // Imported: `use kron_sparse::fold_counts;` then `fold_counts(..)`.
    for path in &file.imports {
        if path.last().is_some_and(|leaf| leaf == m) {
            if let Some(head) = path.first() {
                if let Some(krate) = import_crate(head, own_crate) {
                    if let Some(hits) = free_by_crate.get(&(krate.as_str(), m)) {
                        return hits.clone();
                    }
                }
            }
        }
    }
    unique_or_empty(free_by_name.get(m))
}

/// A cross-crate fallback only when the name is globally unambiguous.
fn unique_or_empty(hits: Option<&Vec<usize>>) -> Vec<usize> {
    match hits {
        Some(v) if v.len() == 1 => v.clone(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_mask};
    use crate::parser::parse_file;

    struct Unit {
        lexed: Lexed,
        parsed: ParsedFile,
    }

    fn unit(rel: &str, src: &str) -> Unit {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let parsed = parse_file(rel, &lexed, &mask);
        Unit { lexed, parsed }
    }

    fn build(units: &[Unit]) -> CallGraph {
        let files: Vec<GraphFile<'_>> = units
            .iter()
            .map(|u| GraphFile {
                lexed: &u.lexed,
                parsed: &u.parsed,
            })
            .collect();
        CallGraph::build(&files)
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("no node named {name}"))
    }

    #[test]
    fn call_extraction_classifies_sites() {
        let lexed = lex("fn f() { a(); x.b(); C::d(); e!(); Some(1); fn g() {} }");
        let calls = extract_calls(&lexed.tokens, (0, lexed.tokens.len()));
        assert_eq!(
            calls,
            vec![
                Call::Free("a".to_string()),
                Call::Method("b".to_string()),
                Call::Qualified("C".to_string(), "d".to_string()),
            ]
        );
    }

    #[test]
    fn transitive_cross_crate_chain_is_reachable() {
        let units = [
            unit(
                "crates/gen/src/pipeline.rs",
                "use kron_sparse::fold;\n\
                 pub struct Pipeline;\n\
                 impl Pipeline { pub fn count(self) -> u64 { helper() } }\n\
                 fn helper() -> u64 { fold() }\n",
            ),
            unit(
                "crates/sparse/src/lib.rs",
                "pub fn fold() -> u64 { deep() }\n\
                 fn deep() -> u64 { 0 }\n",
            ),
        ];
        let g = build(&units);
        let entries: Vec<usize> = g
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_pub && f.self_type.as_deref() == Some("Pipeline"))
            .map(|(n, _)| n)
            .collect();
        let parent = g.reach_from(&entries);
        let deep = node(&g, "deep");
        assert!(parent.contains_key(&deep), "deep should be reachable");
        let chain = g.chain_to(deep, &parent);
        assert_eq!(
            chain,
            vec![
                "Pipeline::count",
                "gen::helper",
                "sparse::fold",
                "sparse::deep"
            ]
        );
    }

    #[test]
    fn unreachable_fns_stay_unreachable() {
        let units = [unit(
            "crates/gen/src/pipeline.rs",
            "pub struct Pipeline;\n\
             impl Pipeline { pub fn run(self) {} }\n\
             fn orphan() { danger() }\n\
             fn danger() {}\n",
        )];
        let g = build(&units);
        let parent = g.reach_from(&[node(&g, "run")]);
        assert!(!parent.contains_key(&node(&g, "danger")));
    }

    #[test]
    fn test_fns_are_excluded_from_the_graph() {
        let units = [unit(
            "crates/gen/src/pipeline.rs",
            "pub fn shipped() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { shipped() }\n\
             }\n",
        )];
        let g = build(&units);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "shipped");
    }

    #[test]
    fn containing_fn_prefers_the_innermost_span() {
        let units = [unit(
            "crates/gen/src/a.rs",
            "fn outer() {\n\
                 fn inner() {\n\
                     work();\n\
                 }\n\
                 inner();\n\
             }\n\
             fn work() {}\n",
        )];
        let g = build(&units);
        let hit = units[0].parsed.fns[1].clone();
        assert_eq!(hit.name, "inner");
        assert_eq!(g.containing_fn(0, 3), Some(node(&g, "inner")));
        assert_eq!(g.containing_fn(0, 5), Some(node(&g, "outer")));
        assert_eq!(g.containing_fn(0, 99), None);
    }

    #[test]
    fn method_calls_over_approximate_by_name() {
        let units = [unit(
            "crates/gen/src/a.rs",
            "pub struct A; pub struct B;\n\
             impl A { pub fn go(&self) {} }\n\
             impl B { pub fn go(&self) {} }\n\
             fn driver(x: &A) { x.go(); }\n",
        )];
        let g = build(&units);
        let driver = node(&g, "driver");
        assert_eq!(g.callees[driver].len(), 2, "both go() methods are linked");
    }
}
