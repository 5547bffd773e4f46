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
//! The harness requires the set of *unsuppressed* findings to equal
//! the set of annotations exactly — so every rule has a positive case
//! proving it fires and a negative case proving it stays silent.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use kron_lint::{lint_source, RULES};

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

#[test]
fn fixtures_match_expected_diagnostics() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut files: Vec<_> = fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable fixture entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 2 * RULES.len(),
        "expected a positive and a negative fixture per rule, found {}",
        files.len()
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
        if actual != expected {
            let missing: Vec<_> = expected.difference(&actual).collect();
            let surplus: Vec<_> = actual.difference(&expected).collect();
            failures.push(format!(
                "{name}: missing={missing:?} unexpected={surplus:?}"
            ));
        }
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
