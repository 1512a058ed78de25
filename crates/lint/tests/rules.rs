//! Fixture-driven self-tests: every rule against its positive, negative,
//! and `lint:allow` cases, plus the lexer torture file.
//!
//! Expectations live in the fixtures themselves as trailing markers —
//! `//~DENY(rule)` on lines the lint must flag, `//~ALLOWED(rule)` on
//! lines whose finding must be suppressed by a directive — so the tests
//! never hardcode line numbers. A marker comment is not a directive (it
//! contains no `lint:allow`), so it cannot perturb what it annotates.

use mv_lint::rules::{lint_source, lint_workspace};
use std::collections::BTreeSet;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Parse `//~DENY(rule)` / `//~ALLOWED(rule)` markers into
/// `(line, rule)` sets.
fn markers(src: &str, tag: &str) -> BTreeSet<(usize, String)> {
    let needle = format!("//~{tag}(");
    src.lines()
        .enumerate()
        .filter_map(|(i, text)| {
            let at = text.find(&needle)?;
            let rest = &text[at + needle.len()..];
            let end = rest.find(')')?;
            Some((i + 1, rest[..end].to_string()))
        })
        .collect()
}

/// Lint `name` under `fake_path` and check findings against the markers.
fn check(name: &str, fake_path: &str) {
    check_workspace(&[(fake_path, &fixture(name))]);
}

/// Lint in-memory `(path, source)` files as one workspace and check
/// every file's findings against its own markers.
fn check_workspace(files: &[(&str, &str)]) {
    let inputs: Vec<(String, String)> =
        files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
    let findings = lint_workspace(&inputs);
    for (path, src) in files {
        let of = |allowed: bool| -> BTreeSet<(usize, String)> {
            findings
                .iter()
                .filter(|f| f.path == *path && f.is_allowed() == allowed)
                .map(|f| (f.line as usize, f.rule.to_string()))
                .collect()
        };
        assert_eq!(of(false), markers(src, "DENY"), "{path}: denied findings vs //~DENY markers");
        assert_eq!(of(true), markers(src, "ALLOWED"), "{path}: allowed findings vs //~ALLOWED markers");
    }
}

#[test]
fn nondet_iter_positive_negative_and_allow() {
    check("nondet_iter.rs", "crates/fake/src/lib.rs");
}

#[test]
fn wall_clock_positive_negative_and_allow() {
    check("wall_clock.rs", "crates/fake/src/lib.rs");
}

#[test]
fn panic_path_positive_negative_and_allow() {
    // The fake path puts the fixture inside panic-path's scope.
    check("panic_path.rs", "crates/storage/src/wal.rs");
}

#[test]
fn panic_path_is_scoped_to_recovery_paths() {
    // The same violations outside the scoped paths produce nothing —
    // the unused directive inside would fire `unused-allow`, though.
    let src = fixture("panic_path.rs");
    let findings = lint_source("crates/fake/src/lib.rs", &src);
    assert!(
        findings.iter().all(|f| f.rule == "unused-allow"),
        "only the now-unused allow should fire out of scope: {findings:?}"
    );
    assert_eq!(findings.len(), 1);
}

#[test]
fn relaxed_ordering_positive_negative_and_allow() {
    check("relaxed_ordering.rs", "crates/fake/src/lib.rs");
}

#[test]
fn unscoped_spawn_positive_negative_and_allow() {
    check("unscoped_spawn.rs", "crates/fake/src/lib.rs");
}

#[test]
fn float_key_positive_negative_and_allow() {
    check("float_key.rs", "crates/fake/src/lib.rs");
}

#[test]
fn lexer_torture_file_is_finding_free() {
    // Violations hidden in strings, raw strings, char literals, and
    // (nested) comments — plus a directive inside a string literal —
    // must produce nothing at all.
    let src = fixture("lexer_torture.rs");
    let findings = lint_source("crates/fake/src/lib.rs", &src);
    assert!(findings.is_empty(), "lexer leaked a token: {findings:?}");
}

#[test]
fn fixtures_in_test_regions_are_exempt() {
    // The same hash-iteration violation inside #[cfg(test)] is exempt.
    let body = r#"
    use mv_common::hash::FastMap;
    struct S { m: FastMap<u64, u64> }
    impl S {
        fn dump(&self, out: &mut Vec<u64>) {
            for (_, v) in &self.m {
                out.push(*v);
            }
        }
    }
"#;
    let in_test = format!("#[cfg(test)]\nmod tests {{ {body} }}");
    assert!(lint_source("crates/fake/src/lib.rs", &in_test).is_empty());
    // The identical code outside a test region IS flagged — the
    // exemption, not the matcher, is what the first assert exercised.
    let in_prod = format!("mod prod {{ {body} }}");
    let findings = lint_source("crates/fake/src/lib.rs", &in_prod);
    assert!(
        findings.iter().any(|f| f.rule == "nondet-iter"),
        "twin outside cfg(test) must be flagged: {findings:?}"
    );
}

#[test]
fn lock_order_positive_negative_and_allow() {
    check("lock_order.rs", "crates/fake/src/lock_order.rs");
}

#[test]
fn guard_across_sync_positive_negative_and_allow() {
    // The fake path puts the fixture inside the rule's hot-path scope.
    check("guard_across_sync.rs", "crates/core/src/fake_gas.rs");
}

#[test]
fn guard_across_sync_is_scoped_to_hot_paths() {
    // The same held-guard boundary crossings outside the scoped paths
    // produce nothing (the now-unused allow fires instead).
    let src = fixture("guard_across_sync.rs");
    let findings = lint_source("crates/fake/src/lib.rs", &src);
    assert!(
        findings.iter().all(|f| f.rule == "unused-allow"),
        "only the unused allow should fire out of scope: {findings:?}"
    );
}

#[test]
fn span_leak_positive_negative_and_allow() {
    check("span_leak.rs", "crates/fake/src/span_leak.rs");
}

#[test]
fn cast_truncation_positive_negative_and_allow() {
    check("cast_truncation.rs", "crates/common/src/codec.rs");
}

#[test]
fn cast_truncation_is_scoped_to_codec_paths() {
    let src = fixture("cast_truncation.rs");
    let findings = lint_source("crates/fake/src/lib.rs", &src);
    assert!(
        findings.iter().all(|f| f.rule == "unused-allow"),
        "only the unused allow should fire out of scope: {findings:?}"
    );
}

/// The acceptance-criteria proof that flat token matching is
/// insufficient: each half of the cross-file fixture is clean alone
/// (the A->B and B->A acquisition orders live in *separate functions
/// of separate files*), and only the workspace call graph composes
/// them into a cycle.
#[test]
fn interprocedural_cycle_needs_the_call_graph() {
    let a = fixture("lock_order_a.rs");
    let b = fixture("lock_order_b.rs");
    let pa = "crates/fake/src/lock_order_a.rs".to_string();
    let pb = "crates/fake/src/lock_order_b.rs".to_string();

    // Each file alone: no lock-order findings at all.
    for (p, s) in [(&pa, &a), (&pb, &b)] {
        let alone = lint_source(p, s);
        assert!(
            alone.iter().all(|f| f.rule != "lock-order"),
            "{p} alone must be clean — the cycle is interprocedural: {alone:?}"
        );
    }

    // Together: the composed graph yields the {Sys.a, Sys.b} cycle.
    let both = lint_workspace(&[(pa.clone(), a), (pb.clone(), b)]);
    let cycles: Vec<_> = both
        .iter()
        .filter(|f| f.rule == "lock-order" && f.message.contains("cycle"))
        .collect();
    assert_eq!(cycles.len(), 1, "exactly one cycle finding: {both:?}");
    let c = cycles[0];
    assert!(c.message.contains("Sys.a") && c.message.contains("Sys.b"), "{}", c.message);
    // The evidence chain spans both files — that is the witness that
    // no single-file view could have produced the finding.
    let ev_paths: std::collections::BTreeSet<&str> =
        c.evidence.iter().map(|e| e.path.as_str()).collect();
    assert!(ev_paths.contains(pa.as_str()) && ev_paths.contains(pb.as_str()), "{c:?}");
}

/// The parser torture file: nested closures, match guards, early
/// returns, fn-trait bounds, trait defaults, nested fn items, labeled
/// loops. The item tree must come out exactly right, and no rule may
/// misfire on any of it.
#[test]
fn parser_torture_fixture() {
    let src = fixture("parser_torture.rs");
    let unit = mv_lint::parse::FileUnit::build("crates/fake/src/lib.rs", &src);
    let items: Vec<(String, Option<String>, bool)> = unit
        .fns
        .iter()
        .map(|f| (f.name.clone(), f.qual.clone(), f.body.is_some()))
        .collect();
    let want: Vec<(String, Option<String>, bool)> = [
        ("free_fn", None, true),
        ("call", Some("Outer"), true),
        ("helper", Some("Outer"), true), // nested fn: inherits the impl qual (documented)
        ("chained", Some("Outer"), true),
        ("area", Some("Shape"), false), // trait method declaration: no body
        ("doubled", Some("Shape"), true),
        ("area", Some("Outer"), true), // trait impl: qualified by the target type
        ("returns_opaque", None, true),
        ("takes_opaque", None, true),
        ("drop", Some("Outer"), true),
    ]
    .into_iter()
    .map(|(n, q, b)| (n.to_string(), q.map(str::to_string), b))
    .collect();
    assert_eq!(items, want);

    let findings = lint_source("crates/fake/src/lib.rs", &src);
    assert!(findings.is_empty(), "torture file must be finding-free: {findings:?}");
}

/// Two workspace runs over the same inputs emit byte-identical JSONL —
/// the determinism the v2 schema promises.
#[test]
fn workspace_report_is_deterministic() {
    let inputs: Vec<(String, String)> = [
        ("crates/fake/src/lock_order.rs", fixture("lock_order.rs")),
        ("crates/fake/src/lock_order_a.rs", fixture("lock_order_a.rs")),
        ("crates/fake/src/lock_order_b.rs", fixture("lock_order_b.rs")),
        ("crates/core/src/fake_gas.rs", fixture("guard_across_sync.rs")),
        ("crates/fake/src/span_leak.rs", fixture("span_leak.rs")),
        ("crates/common/src/codec.rs", fixture("cast_truncation.rs")),
    ]
    .into_iter()
    .map(|(p, s)| (p.to_string(), s))
    .collect();
    let run = || mv_lint::report::findings_to_jsonl(&lint_workspace(&inputs));
    let first = run();
    assert_eq!(first, run(), "same inputs must yield byte-identical JSONL");
    assert!(first.starts_with("{\"kind\":\"lint-meta\",\"schema\":\"mv-lint/v2\""));
}

/// `dead-pub`: a library `pub` item is a finding unless some file
/// outside its crate's `src/` names it — another crate, the crate's own
/// `tests/`, or the benchmark package. Re-exports, restricted
/// visibilities and test code are not checked, and a name another crate
/// also defines is never flagged.
#[test]
fn dead_pub_flags_library_items_no_other_crate_names() {
    let lib = "\
pub fn used_only_inside() -> u32 { LIMIT } //~DENY(dead-pub)
pub const LIMIT: u32 = 1; //~DENY(dead-pub)
pub fn used_by_another_crate() {}
pub fn used_by_the_crates_tests() {}
pub struct UsedByTheBenchmark;
pub use std::fmt::Debug;
pub(crate) fn restricted() {}
pub fn shared_name() {}
// lint:allow(dead-pub): kept as the crate's documented entry point
pub fn allowed() {} //~ALLOWED(dead-pub)
pub struct Plain { pub field: u32 } //~DENY(dead-pub)
#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
";
    check_workspace(&[
        ("crates/x/src/lib.rs", lib),
        ("crates/y/src/lib.rs", "pub fn shared_name() { mv_x::used_by_another_crate(); }\n"),
        ("crates/x/tests/it.rs", "#[test]\nfn t() { mv_x::used_by_the_crates_tests(); }\n"),
        (
            "crates/bench/src/bin/benchmark/src/main.rs",
            "fn main() { let _ = mv_x::UsedByTheBenchmark; }\n",
        ),
    ]);
    // The same crate alone has no outside to judge by: nothing fires,
    // and the allow it carries goes unused.
    let alone = lint_source("crates/x/src/lib.rs", lib);
    assert!(alone.iter().all(|f| f.rule == "unused-allow"), "{alone:?}");
}
