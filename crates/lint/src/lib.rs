#![forbid(unsafe_code)]
//! `mv-lint`: the in-repo determinism & robustness lint pass.
//!
//! The platform's headline guarantee — same-seed runs are byte-identical
//! across the fault schedule, the durable op log, and the canonical span
//! log — was previously enforced only dynamically, by end-of-pipeline
//! hash gates that say *that* determinism broke, never *where*. This
//! crate rejects the sources of nondeterminism at the source level:
//! a hand-rolled lexer ([`lexer`], no `syn` — the build is offline)
//! feeds an item-tree parser ([`parse`]: fn items, impl blocks, test
//! regions) and a workspace call graph ([`callgraph`]: symbol table,
//! reachability, locksets), on top of which token-pattern and
//! structural rule engines ([`rules`]) run with path-aware scoping.
//! The CLI (`cargo run -p mv-lint -- --deny`) gates CI.
//!
//! Escape hatch: `// lint:allow(<rule>): <reason>`. The reason is
//! mandatory, every allow is counted, and the per-rule counts are
//! diffed against a checked-in baseline (`ci/lint-allows.txt`) so new
//! allows are visible in review. See DESIGN.md §9 for the policy.

pub mod callgraph;
pub mod dead_pub;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod scan;

pub use rules::{lint_source, lint_workspace, Evidence, Finding, CATALOGUE, RULES};
