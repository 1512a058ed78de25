//! `dead-pub`: a library `pub` item that no other crate names.
//!
//! A bare `pub` fn, struct, enum, trait, const, static or type in a
//! library crate's `src/` (every `crates/*` but the `lint` and `bench`
//! tools, which serve their own binaries), outside test code, is a
//! finding when its name appears as an identifier in no scanned file
//! outside that `src/` tree: other crates, every `tests/`, `benches/`
//! and `examples/` directory, the root package, and the benchmark
//! package under `crates/bench/`. Comments and string literals are not
//! names. `pub use`, `pub mod`, fields and restricted visibilities
//! (`pub(crate)`, `pub(super)`) are not checked.
//!
//! The match is by name, with no symbol resolution: a name any other
//! crate uses (`new`, `len`, `apply`) is never flagged. That is a
//! documented blind spot with the same bias as
//! [`crate::callgraph::AMBIGUITY_CAP`]: under-flag rather than
//! over-flag. A scan holding one crate has no outside to judge by
//! (one file through [`crate::rules::lint_source`], a one-crate tree),
//! so there the rule is silent.

use crate::lexer::Tok;
use crate::parse::FileUnit;
use crate::rules::{path_in_scope, spec, RawFinding};
use std::collections::{BTreeMap, BTreeSet};

/// Item keywords a bare `pub` can introduce that the rule checks.
const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// The crate a workspace-relative path belongs to: `crates/<name>/`,
/// or `""` for the root package.
fn crate_of(path: &str) -> &str {
    match path.strip_prefix("crates/").and_then(|rest| rest.find('/')) {
        Some(end) => &path[.."crates/".len() + end + 1],
        None => "",
    }
}

/// The `crates/<name>/src/` tree a path sits in, if any.
fn src_tree(path: &str) -> Option<&str> {
    let krate = crate_of(path);
    let tree = path.get(..krate.len() + "src/".len())?;
    (!krate.is_empty() && tree.ends_with("/src/")).then_some(tree)
}

/// Every unreferenced library `pub` item, as `(unit index, finding)`.
pub(crate) fn findings(units: &[FileUnit]) -> Vec<(usize, RawFinding)> {
    let crates: BTreeSet<&str> = units.iter().map(|u| crate_of(&u.path)).collect();
    if crates.len() < 2 {
        return Vec::new();
    }
    // Each identifier, with the `src/` trees it appears in (`None` for
    // files in no `src/` tree: tests, benches, examples, the root).
    let mut named_in: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    for u in units {
        let tree = src_tree(&u.path);
        for t in &u.toks {
            if let Some(name) = t.ident() {
                named_in.entry(name).or_default().insert(tree);
            }
        }
    }
    let mut out = Vec::new();
    for (fi, u) in units.iter().enumerate() {
        let Some(tree) = src_tree(&u.path) else { continue };
        if !path_in_scope(&u.path, spec("dead-pub")) {
            continue;
        }
        let toks = &u.toks;
        let ident = |k: usize| toks.get(k).and_then(|t| t.ident());
        for i in 0..toks.len() {
            if ident(i) != Some("pub") || u.in_test[i] {
                continue;
            }
            // Skip qualifiers: `pub const fn`, `pub unsafe trait`,
            // `pub extern "C" fn`.
            let mut j = i + 1;
            loop {
                match (ident(j), toks.get(j).map(|t| &t.kind)) {
                    (Some("unsafe" | "async" | "extern"), _) | (_, Some(Tok::Str(_))) => j += 1,
                    (Some("const"), _) if matches!(ident(j + 1), Some("fn" | "unsafe")) => j += 1,
                    _ => break,
                }
            }
            let Some(kind) = ident(j).filter(|k| KINDS.contains(k)) else { continue };
            if ident(j + 1) == Some("mut") {
                j += 1;
            }
            let Some(name) = ident(j + 1) else { continue };
            let outside = named_in.get(name).is_some_and(|trees| trees.iter().any(|t| *t != Some(tree)));
            if !outside {
                out.push((
                    fi,
                    RawFinding {
                        rule: "dead-pub",
                        line: toks[i].line,
                        message: format!(
                            "`pub {kind} {name}` is named nowhere outside `{tree}`: \
                             demote to `pub(crate)` or delete"
                        ),
                        evidence: Vec::new(),
                    },
                ));
            }
        }
    }
    out
}
