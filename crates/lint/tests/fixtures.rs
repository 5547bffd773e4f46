//! Fixture tests for the lint engine itself.
//!
//! Every `.rs` file directly under `fixtures/` is a miniature workspace
//! source with a virtual path header and expected-diagnostic
//! annotations:
//!
//! ```text
//! //@ path: crates/gen/src/under_test.rs   (mandatory virtual path)
//! //@ expect: <rule>@<line>                (header-form expectation)
//! some_code() //~ <rule>                   (inline-form expectation)
//! ```
//!
//! Every *directory* under `fixtures/` is a miniature multi-file
//! workspace: each `.rs` inside carries its own `//@ path:` header and
//! annotations, and the whole set is linted together through
//! [`kron_lint::lint_workspace`] — this is how the cross-crate
//! panic-reachability chains are proven.
//!
//! In both forms the harness requires the set of *unsuppressed*
//! findings to equal the set of annotations exactly — so every rule has
//! a positive case proving it fires and a negative case proving it
//! stays silent.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use kron_lint::{analyze_file, lint_source, lint_workspace, RULES};

/// `(virtual file, rule, line)`.
type Expectation = (String, String, u32);

fn parse_fixture(name: &str, source: &str) -> (String, BTreeSet<(String, u32)>) {
    let mut path = None;
    let mut expected = BTreeSet::new();
    for (idx, line) in source.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let trimmed = line.trim();
        if let Some(p) = trimmed.strip_prefix("//@ path:") {
            path = Some(p.trim().to_string());
        } else if let Some(e) = trimmed.strip_prefix("//@ expect:") {
            let (rule, at) = e
                .trim()
                .split_once('@')
                .unwrap_or_else(|| panic!("{name}:{lineno}: malformed //@ expect"));
            let at: u32 = at
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{name}:{lineno}: bad line in //@ expect"));
            expected.insert((rule.trim().to_string(), at));
        }
        if let Some(pos) = line.find("//~") {
            for rule in line[pos + 3..].split(',') {
                let rule = rule.trim();
                assert!(!rule.is_empty(), "{name}:{lineno}: empty //~ annotation");
                expected.insert((rule.to_string(), lineno));
            }
        }
    }
    let path = path.unwrap_or_else(|| panic!("{name}: fixture lacks a //@ path header"));
    (path, expected)
}

/// Compare unsuppressed findings against expectations, recording a
/// failure line on mismatch.
fn check(
    name: &str,
    actual: BTreeSet<Expectation>,
    expected: BTreeSet<Expectation>,
    failures: &mut Vec<String>,
) {
    if actual != expected {
        let missing: Vec<_> = expected.difference(&actual).collect();
        let surplus: Vec<_> = actual.difference(&expected).collect();
        failures.push(format!(
            "{name}: missing={missing:?} unexpected={surplus:?}"
        ));
    }
}

#[test]
fn fixtures_match_expected_diagnostics() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut files = Vec::new();
    let mut workspaces = Vec::new();
    for entry in fs::read_dir(&dir).expect("fixtures directory exists") {
        let path = entry.expect("readable fixture entry").path();
        if path.is_dir() {
            workspaces.push(path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files.sort();
    workspaces.sort();
    assert!(
        files.len() >= 2 * RULES.len(),
        "expected a positive and a negative fixture per rule, found {}",
        files.len()
    );
    assert!(
        !workspaces.is_empty(),
        "expected at least one multi-file workspace fixture directory"
    );

    let mut failures = Vec::new();
    for path in &files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        let source = fs::read_to_string(path).expect("readable fixture");
        let (virtual_path, expected) = parse_fixture(name, &source);
        let actual: BTreeSet<Expectation> = lint_source(&virtual_path, &source)
            .into_iter()
            .filter(|f| !f.suppressed)
            .map(|f| (f.file.clone(), f.rule.to_string(), f.line))
            .collect();
        let expected: BTreeSet<Expectation> = expected
            .into_iter()
            .map(|(rule, line)| (virtual_path.clone(), rule, line))
            .collect();
        check(name, actual, expected, &mut failures);
    }

    for ws in &workspaces {
        let name = ws.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        let mut members: Vec<_> = fs::read_dir(ws)
            .expect("readable workspace fixture dir")
            .map(|e| e.expect("readable workspace member").path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        members.sort();
        assert!(
            members.len() >= 2,
            "{name}: a workspace fixture needs at least two files"
        );
        let mut analyses = Vec::new();
        let mut expected: BTreeSet<Expectation> = BTreeSet::new();
        for member in &members {
            let member_name = member.file_name().and_then(|n| n.to_str()).unwrap_or("?");
            let source = fs::read_to_string(member).expect("readable fixture");
            let (virtual_path, member_expected) =
                parse_fixture(&format!("{name}/{member_name}"), &source);
            expected.extend(
                member_expected
                    .into_iter()
                    .map(|(rule, line)| (virtual_path.clone(), rule, line)),
            );
            analyses.push(
                analyze_file(&virtual_path, &source)
                    .unwrap_or_else(|| panic!("{name}/{member_name}: path outside jurisdiction")),
            );
        }
        let actual: BTreeSet<Expectation> = lint_workspace(&analyses)
            .into_iter()
            .filter(|f| !f.suppressed)
            .map(|f| (f.file.clone(), f.rule.to_string(), f.line))
            .collect();
        check(name, actual, expected, &mut failures);
    }

    assert!(
        failures.is_empty(),
        "fixture mismatches:\n{}",
        failures.join("\n")
    );
}

#[test]
fn every_rule_has_positive_and_negative_fixture() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let names: BTreeSet<String> = fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable fixture entry").file_name())
        .map(|n| n.to_string_lossy().into_owned())
        .collect();
    for (rule, _) in RULES {
        let stem = rule.replace('-', "_");
        for suffix in ["pos", "neg"] {
            let want = format!("{stem}_{suffix}.rs");
            assert!(names.contains(&want), "missing fixture {want} for {rule}");
        }
    }
}

/// The cross-crate chain in the workspace fixture must be *reported as
/// a chain* — the message names every hop from the Pipeline entry point
/// to the panic site — and the rule may only add a chain to a line that
/// a lexical panic rule already fails: every open `panic-reachability`
/// finding shares its line with an open `no-unwrap`/`no-expect`/
/// `no-panic` finding.
#[test]
fn workspace_fixture_reports_the_cross_crate_chain() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("workspace_panic_chain");
    let mut analyses = Vec::new();
    for name in ["pipeline.rs", "sparse.rs"] {
        let source = fs::read_to_string(dir.join(name)).expect("readable fixture");
        let (virtual_path, _) = parse_fixture(name, &source);
        analyses.push(analyze_file(&virtual_path, &source).expect("fixture in jurisdiction"));
    }
    let findings = lint_workspace(&analyses);
    let open = |rules: &[&str]| -> BTreeSet<(String, u32)> {
        findings
            .iter()
            .filter(|f| !f.suppressed && rules.contains(&f.rule))
            .map(|f| (f.file.clone(), f.line))
            .collect()
    };
    let chains: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "panic-reachability" && !f.suppressed)
        .collect();
    assert_eq!(chains.len(), 1, "one open cross-crate chain: {chains:?}");
    assert_eq!(chains[0].file, "crates/sparse/src/lib.rs");
    assert!(
        chains[0].message.contains(
            "Pipeline::count -> gen::stage_total -> sparse::fold_counts -> sparse::tally"
        ),
        "chain message names every hop: {}",
        chains[0].message
    );
    let reachable = open(&["panic-reachability"]);
    let lexical = open(&["no-unwrap", "no-expect", "no-panic"]);
    assert!(
        reachable.is_subset(&lexical),
        "a chain was reported on a line no lexical panic rule fails: {reachable:?} vs {lexical:?}"
    );
}
