#![forbid(unsafe_code)]
//! `kron-lint`: a self-contained static-analysis pass over the
//! workspace's own Rust sources.
//!
//! The paper's validation story — measured == predicted at scales that
//! never materialise — rests on invariants the code used to enforce only
//! by convention: edge streams are bit-deterministic per `(seed, index)`
//! for any worker count, file sinks always take the fsync→rename atomic
//! path, and failures surface as typed errors naming the shard.  This
//! crate enforces those rules mechanically: a lightweight comment- and
//! string-aware lexer ([`lexer`]) feeds a rule engine ([`rules`]) with
//! per-rule diagnostics, `file:line` output, and an inline suppression
//! syntax (`// lint:allow(<rule>) -- <reason>`,
//! reason mandatory) so every exception is documented in place.
//!
//! Run it over the workspace with:
//!
//! ```text
//! cargo run -p kron-lint -- --deny
//! ```

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;

pub use rules::{
    analyze_file, classify, collect_sources, lint_root, lint_source, lint_workspace,
    parse_suppressions, FileAnalysis, FileClass, FileKind, Finding, RULES,
};
