//! The rule engines: token-pattern matchers with path-aware scoping,
//! plus the structural rules built on [`crate::parse`]/[`crate::callgraph`].
//!
//! Every rule here is a *heuristic* — there is no type information, so
//! each matcher documents exactly what it keys on and what it will
//! miss. The bias is deliberate: over-flag and make the author either
//! fix the site or write a `// lint:allow(<rule>): <reason>` with a
//! reviewable reason, rather than under-flag and let nondeterminism
//! ship.
//!
//! Rule catalogue (see DESIGN.md §9 for the policy around each):
//!
//! * `nondet-iter` — iteration over a hash container (`HashMap`,
//!   `HashSet`, `FastMap`, `FastSet`) flowing into an order-sensitive
//!   sink (a `Vec` collect, a push/encode loop body) without a sort.
//! * `wall-clock` — `Instant::now` / `SystemTime` outside the
//!   bench/profiling exemptions; sim code must use the sim clock.
//! * `panic-path` — `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`
//!   and panic-capable `[]` indexing on the recovery/decode paths of
//!   `mv-storage`, `mv-net`, and the durable op log.
//! * `relaxed-ordering` — `Ordering::Relaxed` anywhere; the documented
//!   sampled-out tracer fast path carries an allow.
//! * `unscoped-spawn` — `thread::spawn` (the workspace idiom is
//!   `std::thread::scope`).
//! * `float-key` — `partial_cmp(..).unwrap()`-family comparators and
//!   float-keyed ordered containers; the sanctioned idiom is
//!   `f32::total_cmp`/`f64::total_cmp`.
//! * `metric-name` — a literal metric name at a registration call site
//!   (the `.absorb` prefix a component's counters are folded in under,
//!   `.counter`/`.gauge`/`.histo` interning) off the DESIGN.md §8
//!   `<crate>.<component>.<metric>` scheme: prefixes need two
//!   dot-separated lowercase segments, full names three.
//! * `vec-realloc-in-loop` — **advisory**: a fresh `Vec` allocation
//!   (`Vec::new()`, `vec![…]`, `.collect()`) inside a loop body on a
//!   scoped hot path; the workspace idiom is a reused scratch buffer
//!   (see `GridIndex::range_into`, `ShardedKv::apply_batch`). Advisory rules
//!   are printed but never fail `--deny` — they point at churn, not
//!   bugs.
//! * `lock-order` — same-lock re-entry and acquisition-order cycles
//!   over a global lock graph composed through the call graph (see
//!   [`crate::callgraph`]); a cycle is a potential deadlock.
//! * `guard-across-sync` — a lock guard live across a blocking
//!   boundary (WAL sync / group-commit seal, transport send) on the
//!   scoped hot paths, directly or through a callee that may block.
//! * `span-leak` — a `Tracer` span opened (`start_trace`/`maybe_trace`/
//!   `trace`/`child`) and `let`-bound, but never closed, aborted, or
//!   passed on — or abandoned by an early `return`/`?` before its
//!   first use. Non-`let` opens (match scrutinees, call arguments) are
//!   transfers and out of scope, documented blind spot.
//! * `cast-truncation` — a narrowing `as` cast (`as u8`…`as i32`, or
//!   `as usize`/`u64` from a float/128-bit value) on the codec/recovery
//!   paths where the workspace idiom is checked `try_from`. Literal
//!   casts and provably bounded ones (`% N`, `.min(n)`, bool casts)
//!   are exempt.
//!
//! Two meta-rules police the escape hatch itself: `bad-allow` (unknown
//! rule name, or a missing reason) and `unused-allow` (a directive that
//! suppressed nothing). Neither can itself be allowed.

use crate::callgraph;
use crate::lexer::{Tok, Token};
use crate::parse::{matching, FileUnit};

/// Names of the real (allowable) rules, in report order.
pub const RULES: &[&str] = &[
    "nondet-iter",
    "wall-clock",
    "panic-path",
    "relaxed-ordering",
    "unscoped-spawn",
    "float-key",
    "metric-name",
    "vec-realloc-in-loop",
    "lock-order",
    "guard-across-sync",
    "span-leak",
    "cast-truncation",
];

/// Where each rule applies. Paths are workspace-relative with `/`
/// separators; a pattern matches when the path equals it or starts
/// with it. An empty include list means "everywhere scanned".
pub struct RuleSpec {
    /// Rule name (must appear in [`RULES`]).
    pub name: &'static str,
    /// One-line description for `--list-rules` and reports.
    pub summary: &'static str,
    /// Only paths matching one of these are linted (empty = all).
    pub include: &'static [&'static str],
    /// Paths matching one of these are skipped.
    pub exclude: &'static [&'static str],
    /// Advisory rules are reported but never fail `--deny` — they
    /// surface allocation churn and style drift, not correctness bugs.
    pub advisory: bool,
}

/// The catalogue, including per-rule path scopes.
pub const CATALOGUE: &[RuleSpec] = &[
    RuleSpec {
        name: "nondet-iter",
        summary: "hash-container iteration into an order-sensitive sink",
        include: &[],
        exclude: &[],
        advisory: false,
    },
    RuleSpec {
        name: "wall-clock",
        summary: "Instant::now/SystemTime outside bench/profiling exemptions",
        include: &[],
        // Benches measure real elapsed time by definition, and the
        // TickProfiler is the sanctioned wall-clock reader.
        exclude: &["crates/bench/", "crates/obs/src/profile.rs"],
        advisory: false,
    },
    RuleSpec {
        name: "panic-path",
        summary: "panic-capable call or indexing on a recovery/decode path",
        include: &[
            "crates/storage/src/wal.rs",
            "crates/storage/src/group_commit.rs",
            "crates/common/src/codec.rs",
            "crates/net/src/reliable.rs",
            "crates/core/src/durable.rs",
            "crates/core/src/txn.rs",
            "crates/txn/src/mvcc.rs",
            "crates/txn/src/sharded.rs",
            "crates/raft/src/record.rs",
            "crates/raft/src/node.rs",
            "crates/raft/src/msg.rs",
            "crates/core/src/replicated.rs",
            // The SoA entity arena sits under durable replay: it must
            // degrade, not panic.
            "crates/core/src/arena.rs",
            // The ISSUE 9 health layer: the recorder and SLO engine run
            // armed inside every experiment and the macro bench — a
            // monitoring panic must never take down the thing it
            // monitors.
            "crates/obs/src/window.rs",
            "crates/obs/src/slo.rs",
            "crates/obs/src/recorder.rs",
        ],
        exclude: &[],
        advisory: false,
    },
    RuleSpec {
        name: "relaxed-ordering",
        summary: "atomic Ordering::Relaxed outside the documented tracer fast path",
        include: &[],
        exclude: &[],
        advisory: false,
    },
    RuleSpec {
        name: "unscoped-spawn",
        summary: "thread::spawn where std::thread::scope is the idiom",
        include: &[],
        exclude: &[],
        advisory: false,
    },
    RuleSpec {
        name: "float-key",
        summary: "float ordering without a total order (use total_cmp)",
        include: &[],
        exclude: &[],
        advisory: false,
    },
    RuleSpec {
        name: "metric-name",
        summary: "metric registration literal off the DESIGN.md §8 naming scheme",
        include: &[],
        // The registry module itself: its `Default` impl interns the
        // empty prefix, and its API plumbing is not a call site.
        exclude: &["crates/lint/", "crates/obs/src/registry.rs"],
        advisory: false,
    },
    RuleSpec {
        name: "vec-realloc-in-loop",
        summary: "fresh Vec allocation inside a hot loop (advisory — reuse a scratch buffer)",
        // Scoped to the per-tick hot paths the macro-bench exercises;
        // elsewhere a fresh Vec per call is usually the right API.
        include: &[
            "crates/core/src/arena.rs",
            "crates/core/src/sharded.rs",
            "crates/storage/src/kv.rs",
            "crates/storage/src/sharded_kv.rs",
            "crates/spatial/src/grid.rs",
        ],
        exclude: &[],
        advisory: true,
    },
    RuleSpec {
        name: "lock-order",
        summary: "lock acquisition-order cycle or same-lock re-entry (call-graph composed)",
        include: &[],
        exclude: &[],
        advisory: false,
    },
    RuleSpec {
        name: "guard-across-sync",
        summary: "lock guard held across a blocking boundary (WAL sync, transport send)",
        // The hot paths where a held guard serializes fsync/send
        // latency into every contending thread. The WAL/group-commit
        // internals are the boundary itself, not a caller of it.
        include: &[
            "crates/core/src/",
            "crates/txn/src/",
            "crates/raft/src/",
            "crates/net/src/",
            "crates/storage/src/sharded_kv.rs",
        ],
        exclude: &[],
        advisory: false,
    },
    RuleSpec {
        name: "span-leak",
        summary: "tracer span opened but not closed/aborted on every return path",
        include: &[],
        exclude: &[],
        advisory: false,
    },
    RuleSpec {
        name: "cast-truncation",
        summary: "narrowing `as` cast where the codec idiom is checked try_from",
        include: &[
            "crates/storage/src/wal.rs",
            "crates/storage/src/group_commit.rs",
            "crates/common/src/codec.rs",
            "crates/storage/src/organization.rs",
            "crates/core/src/durable.rs",
            "crates/core/src/txn.rs",
            "crates/core/src/replicated.rs",
            "crates/raft/src/",
            "crates/net/src/reliable.rs",
        ],
        exclude: &[],
        advisory: false,
    },
];

/// One supporting location in a finding's evidence chain — the
/// acquisition sites behind a lock-order cycle, the open/leak pair of
/// a span leak, the witness call chain of an interprocedural
/// panic-path finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What this site contributes (`"guard `X` acquired here"`, …).
    pub note: String,
}

/// A finding before directive binding: rule, anchor line, message, and
/// the evidence chain. Produced by the per-file matchers and the
/// workspace pass, consumed by [`bind_directives`].
#[derive(Debug)]
pub(crate) struct RawFinding {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
    pub evidence: Vec<Evidence>,
}

/// One lint finding, allowed or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULES`] or a meta-rule).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation of the finding.
    pub message: String,
    /// `Some(reason)` when a `lint:allow` directive covers it.
    pub allowed: Option<String>,
    /// Mirrors [`RuleSpec::advisory`]: printed but never denied.
    pub advisory: bool,
    /// Supporting sites (empty for single-site token rules).
    pub evidence: Vec<Evidence>,
}

impl Finding {
    /// True when this finding is suppressed by a directive.
    pub fn is_allowed(&self) -> bool {
        self.allowed.is_some()
    }
}

pub(crate) fn spec(name: &str) -> &'static RuleSpec {
    CATALOGUE.iter().find(|s| s.name == name).unwrap_or(&CATALOGUE[0])
}

pub(crate) fn path_in_scope(path: &str, spec: &RuleSpec) -> bool {
    let included =
        spec.include.is_empty() || spec.include.iter().any(|p| path == *p || path.starts_with(p));
    let excluded = spec.exclude.iter().any(|p| path == *p || path.starts_with(p));
    included && !excluded
}

/// Lint one source file. `path` must be workspace-relative with `/`
/// separators — rule scoping and test-file detection key off it.
/// Single-file view of [`lint_workspace`]: interprocedural rules see
/// only this file's call graph.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    lint_workspace(&[(path.to_string(), src.to_string())])
}

/// Lint a set of source files as one workspace: per-file token rules
/// first, then the call-graph analyses (`lock-order`,
/// `guard-across-sync`, interprocedural `panic-path`) across all of
/// them. Output is deterministic: files are processed in path order
/// and every analysis iterates BTree-ordered structures.
pub fn lint_workspace(files: &[(String, String)]) -> Vec<Finding> {
    let mut units: Vec<FileUnit> =
        files.iter().map(|(p, s)| FileUnit::build(p, s)).collect();
    units.sort_by(|a, b| a.path.cmp(&b.path));
    let mut raw: Vec<Vec<RawFinding>> = units.iter().map(per_file_findings).collect();
    for (fi, rf) in callgraph::global_findings(&units) {
        raw[fi].push(rf);
    }
    let mut out = Vec::new();
    for (u, r) in units.iter().zip(raw) {
        out.extend(bind_directives(u, r));
    }
    out
}

/// Run every per-file rule over one unit.
fn per_file_findings(u: &FileUnit) -> Vec<RawFinding> {
    let path = u.path.as_str();
    let mut raw: Vec<RawFinding> = Vec::new();
    let mut ctx = Ctx { toks: &u.toks, in_test: &u.in_test, out: &mut raw };
    if path_in_scope(path, spec("nondet-iter")) {
        ctx.nondet_iter();
    }
    if path_in_scope(path, spec("wall-clock")) {
        ctx.wall_clock();
    }
    if path_in_scope(path, spec("panic-path")) {
        ctx.panic_path();
    }
    if path_in_scope(path, spec("relaxed-ordering")) {
        ctx.relaxed_ordering();
    }
    if path_in_scope(path, spec("unscoped-spawn")) {
        ctx.unscoped_spawn();
    }
    if path_in_scope(path, spec("float-key")) {
        ctx.float_key();
    }
    if path_in_scope(path, spec("metric-name")) {
        ctx.metric_name();
    }
    if path_in_scope(path, spec("vec-realloc-in-loop")) {
        ctx.vec_realloc_in_loop();
    }
    if path_in_scope(path, spec("cast-truncation")) {
        ctx.cast_truncation();
    }
    if path_in_scope(path, spec("span-leak")) {
        span_leak(u, &mut raw);
    }
    raw
}

/// Attach `lint:allow` directives to raw findings, and emit the
/// meta-findings (`bad-allow`, `unused-allow`).
fn bind_directives(u: &FileUnit, raw: Vec<RawFinding>) -> Vec<Finding> {
    let (path, directives, toks) = (u.path.as_str(), &u.directives, &u.toks);
    let (in_test, whole_file_test) = (&u.in_test, u.whole_file_test);
    // Line covered by each directive: its own line when trailing, else
    // the first line with code after it.
    let line_in_test = |line: u32| -> bool {
        toks.iter()
            .zip(in_test)
            .find(|(t, _)| t.line == line)
            .map(|(_, &b)| b)
            .unwrap_or(whole_file_test)
    };
    // (idx, directive, covered line, used)
    let mut allows: Vec<(usize, &crate::lexer::Directive, u32, bool)> = Vec::new();
    let mut findings = Vec::new();
    for (idx, d) in directives.iter().enumerate() {
        let covered = if d.own_line {
            toks.iter().map(|t| t.line).find(|&l| l > d.line).unwrap_or(d.line + 1)
        } else {
            d.line
        };
        if whole_file_test || line_in_test(covered) {
            continue; // rules don't run in test code; neither do allows
        }
        if !RULES.contains(&d.rule.as_str()) {
            findings.push(Finding {
                rule: "bad-allow".into(),
                path: path.into(),
                line: d.line,
                message: format!("lint:allow names unknown rule `{}`", d.rule),
                allowed: None,
                advisory: false,
                evidence: Vec::new(),
            });
            continue;
        }
        if d.reason.is_empty() {
            findings.push(Finding {
                rule: "bad-allow".into(),
                path: path.into(),
                line: d.line,
                message: format!(
                    "lint:allow({}) has no reason — a reason is required (`: <why>`)",
                    d.rule
                ),
                allowed: None,
                advisory: false,
                evidence: Vec::new(),
            });
            continue;
        }
        allows.push((idx, d, covered, false));
    }

    for rf in raw {
        let hit = allows
            .iter_mut()
            .find(|(_, d, covered, _)| d.rule == rf.rule && *covered == rf.line);
        let allowed = match hit {
            Some((_, d, _, used)) => {
                *used = true;
                Some(d.reason.clone())
            }
            None => None,
        };
        findings.push(Finding {
            rule: rf.rule.into(),
            path: path.into(),
            line: rf.line,
            message: rf.message,
            allowed,
            advisory: spec(rf.rule).advisory,
            evidence: rf.evidence,
        });
    }

    for (_, d, _, used) in &allows {
        if !used {
            findings.push(Finding {
                rule: "unused-allow".into(),
                path: path.into(),
                line: d.line,
                message: format!("lint:allow({}) suppresses nothing — remove it", d.rule),
                allowed: None,
                advisory: false,
                evidence: Vec::new(),
            });
        }
    }
    findings.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(&b.rule)));
    findings
}

const HASH_TYPES: &[&str] = &[
    "HashMap",
    "HashSet",
    "FastMap",
    "FastSet",
    "fast_map_with_capacity",
    "fast_set_with_capacity",
];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];
const SORTS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];
/// Order-insensitive consumers. Ties in `min_by_key`/`max_by_key` are
/// technically order-dependent; the sweep treats that as acceptable —
/// flagging them drowned the signal.
const ORDER_FREE: &[&str] = &[
    "count", "sum", "product", "len", "any", "all", "min", "max", "min_by", "max_by",
    "min_by_key", "max_by_key", "contains", "contains_key", "is_empty", "clear",
];
/// Collect targets whose contents don't remember arrival order.
const UNORDERED_COLLECTS: &[&str] =
    &["BTreeMap", "BTreeSet", "FastMap", "FastSet", "HashMap", "HashSet"];
/// Loop-body tokens that betray an order-sensitive sink.
const BODY_SINKS: &[&str] = &[
    "push", "push_str", "push_back", "push_front", "write", "writeln", "write_str",
    "write_all", "extend", "append", "encode", "emit", "record", "send",
];

/// `<seg>.<seg>…` with at least `min_segs` segments, each nonempty and
/// lowercase `[a-z0-9_]`.
fn valid_metric_name(name: &str, min_segs: usize) -> bool {
    let mut segs = 0usize;
    for seg in name.split('.') {
        if seg.is_empty()
            || !seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return false;
        }
        segs += 1;
    }
    segs >= min_segs
}

struct Ctx<'a> {
    toks: &'a [Token],
    in_test: &'a [bool],
    out: &'a mut Vec<RawFinding>,
}

impl<'a> Ctx<'a> {
    fn ident(&self, i: usize) -> Option<&str> {
        self.toks.get(i).and_then(|t| t.ident())
    }

    fn is(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(c))
    }

    fn live(&self, i: usize) -> bool {
        !self.in_test.get(i).copied().unwrap_or(false)
    }

    fn flag(&mut self, rule: &'static str, i: usize, message: String) {
        if self.live(i) {
            self.out.push(RawFinding {
                rule,
                line: self.toks[i].line,
                message,
                evidence: Vec::new(),
            });
        }
    }

    // ---- wall-clock -------------------------------------------------

    fn wall_clock(&mut self) {
        for i in 0..self.toks.len() {
            if self.ident(i) == Some("Instant")
                && self.is(i + 1, ':')
                && self.is(i + 2, ':')
                && self.ident(i + 3) == Some("now")
            {
                self.flag(
                    "wall-clock",
                    i,
                    "Instant::now() on a sim path — sim code must use the sim clock".into(),
                );
            }
            if self.ident(i) == Some("SystemTime") {
                self.flag(
                    "wall-clock",
                    i,
                    "SystemTime on a sim path — sim code must use the sim clock".into(),
                );
            }
        }
    }

    // ---- relaxed-ordering -------------------------------------------

    fn relaxed_ordering(&mut self) {
        for i in 2..self.toks.len() {
            if self.ident(i) == Some("Relaxed") && self.is(i - 1, ':') && self.is(i - 2, ':') {
                self.flag(
                    "relaxed-ordering",
                    i,
                    "Ordering::Relaxed — justify why no cross-thread ordering is needed".into(),
                );
            }
        }
    }

    // ---- unscoped-spawn ---------------------------------------------

    fn unscoped_spawn(&mut self) {
        for i in 0..self.toks.len() {
            if self.ident(i) == Some("thread")
                && self.is(i + 1, ':')
                && self.is(i + 2, ':')
                && self.ident(i + 3) == Some("spawn")
            {
                self.flag(
                    "unscoped-spawn",
                    i,
                    "thread::spawn — the workspace idiom is std::thread::scope".into(),
                );
            }
        }
    }

    // ---- float-key --------------------------------------------------

    fn float_key(&mut self) {
        for i in 0..self.toks.len() {
            // `.partial_cmp(…).unwrap()` and friends: a comparator that
            // panics on NaN and is not a total order. `fn partial_cmp`
            // definitions (prev token `fn`) are not calls.
            if self.ident(i) == Some("partial_cmp")
                && i > 0
                && self.is(i - 1, '.')
                && self.is(i + 1, '(')
            {
                if let Some(close) = matching(self.toks, i + 1, '(', ')') {
                    if self.is(close + 1, '.')
                        && matches!(
                            self.ident(close + 2),
                            Some("unwrap" | "expect" | "unwrap_or" | "unwrap_or_else")
                        )
                    {
                        self.flag(
                            "float-key",
                            i,
                            "partial_cmp + unwrap is not a total order (NaN panics or \
                             collapses) — use total_cmp"
                                .into(),
                        );
                    }
                }
            }
            // Float-keyed ordered containers.
            if matches!(self.ident(i), Some("BTreeMap" | "BTreeSet" | "BinaryHeap"))
                && self.is(i + 1, '<')
                && matches!(self.ident(i + 2), Some("f32" | "f64"))
            {
                self.flag(
                    "float-key",
                    i,
                    "float-keyed ordered container — wrap the key in a total-order type".into(),
                );
            }
        }
    }

    // ---- vec-realloc-in-loop (advisory) -------------------------------

    /// Per-token "inside a loop body" flags: the `{…}` body of every
    /// `for`/`while`/`loop` (nested bodies stay flagged). The loop
    /// header itself (the iterable expression) is not marked — a
    /// `collect()` that *builds* the thing being iterated runs once.
    fn loop_regions(&self) -> Vec<bool> {
        let mut flags = vec![false; self.toks.len()];
        for i in 0..self.toks.len() {
            if !matches!(self.ident(i), Some("for" | "while" | "loop")) {
                continue;
            }
            // Find the body `{` at header depth 0; a `;` or `}` first
            // means this was not a loop keyword position after all.
            // `for` doubles as the trait-impl keyword (`impl T for U {`)
            // and the HRTB binder (`for<'a>`): a for-*loop* header must
            // contain `in` at depth 0 before its body brace.
            let mut depth = 0i32;
            let mut open = None;
            let mut seen_in = false;
            for k in i + 1..self.toks.len() {
                match self.toks[k].kind {
                    Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                    Tok::Punct('{') if depth == 0 => {
                        open = Some(k);
                        break;
                    }
                    Tok::Punct(';') | Tok::Punct('}') if depth == 0 => break,
                    _ => {
                        if depth == 0 && self.ident(k) == Some("in") {
                            seen_in = true;
                        }
                    }
                }
            }
            if self.ident(i) == Some("for") && !seen_in {
                continue;
            }
            let Some(open) = open else { continue };
            let close = matching(self.toks, open, '{', '}').unwrap_or(self.toks.len() - 1);
            for f in flags.iter_mut().take(close).skip(open) {
                *f = true;
            }
        }
        flags
    }

    /// Advisory: a fresh `Vec` born inside a loop body on a scoped hot
    /// path. Keys on `Vec::new()`, `vec![…]`, and `.collect(`/`
    /// .collect::<…>(` — `Vec::with_capacity` is deliberately not
    /// flagged (pre-sizing is itself the fix when reuse is impossible).
    /// Type-blind: a `.collect()` into a map counts too; the point is
    /// the per-iteration allocation, whatever the container.
    fn vec_realloc_in_loop(&mut self) {
        let in_loop = self.loop_regions();
        for i in 0..self.toks.len() {
            if !in_loop.get(i).copied().unwrap_or(false) {
                continue;
            }
            if self.ident(i) == Some("Vec")
                && self.is(i + 1, ':')
                && self.is(i + 2, ':')
                && self.ident(i + 3) == Some("new")
            {
                self.flag(
                    "vec-realloc-in-loop",
                    i,
                    "Vec::new() inside a hot loop — hoist the buffer and reuse it \
                     (clear() keeps capacity)"
                        .into(),
                );
            }
            if self.ident(i) == Some("vec") && self.is(i + 1, '!') {
                self.flag(
                    "vec-realloc-in-loop",
                    i,
                    "vec![…] inside a hot loop — hoist the buffer and reuse it".into(),
                );
            }
            if self.ident(i) == Some("collect") && i > 0 && self.is(i - 1, '.') {
                self.flag(
                    "vec-realloc-in-loop",
                    i,
                    "collect() inside a hot loop allocates per iteration — reuse a \
                     scratch buffer (extend into a cleared Vec)"
                        .into(),
                );
            }
        }
    }

    // ---- metric-name ------------------------------------------------

    /// Literal metric names at registration call sites must follow
    /// DESIGN.md §8: the prefix a `Registry::absorb` folds a component's
    /// counters in under carries the `<crate>.<component>` pair (≥ 2
    /// segments); registry interning calls (`.counter`/`.gauge`/`.histo`
    /// with a literal) carry the full `<crate>.<component>.<metric>`
    /// (≥ 3). Non-literal names are invisible to the lexer and pass —
    /// the rule polices the hand-written sites, which is where drift
    /// happens.
    fn metric_name(&mut self) {
        for i in 0..self.toks.len() {
            if i > 0 && self.is(i - 1, '.') && self.ident(i) == Some("absorb") && self.is(i + 1, '(') {
                if let Some(name) = self.toks.get(i + 2).and_then(|t| t.str_lit()) {
                    if !valid_metric_name(name, 2) {
                        self.flag(
                            "metric-name",
                            i,
                            format!(
                                "absorb prefix `{name}` — DESIGN.md §8 wants \
                                 `<crate>.<component>` (two lowercase dot-separated segments)"
                            ),
                        );
                    }
                }
            }
            if i > 0
                && self.is(i - 1, '.')
                && matches!(self.ident(i), Some("counter" | "gauge" | "histo"))
                && self.is(i + 1, '(')
            {
                if let Some(name) = self.toks.get(i + 2).and_then(|t| t.str_lit()) {
                    if !valid_metric_name(name, 3) {
                        self.flag(
                            "metric-name",
                            i,
                            format!(
                                "metric name `{name}` — DESIGN.md §8 wants \
                                 `<crate>.<component>.<metric>` (three lowercase \
                                 dot-separated segments)"
                            ),
                        );
                    }
                }
            }
        }
    }

    // ---- panic-path -------------------------------------------------

    fn panic_path(&mut self) {
        for (i, what, advice) in panic_sites(self.toks, 0, self.toks.len()) {
            self.flag("panic-path", i, format!("{what} on a recovery/decode path — {advice}"));
        }
    }

    // ---- cast-truncation --------------------------------------------

    /// Narrowing `as` casts on the scoped codec/recovery paths, where
    /// the workspace idiom is checked `try_from`. Exemptions (all
    /// token-shape, documented blind spots included):
    ///
    /// * literal casts (`251 as u8`) — compile-time visible;
    /// * `(x % N) as T` — bounded by the literal modulus;
    /// * `x.min(c) as T` — bounded by the single-token cap;
    /// * `x.is_some() as T` (and friends) — bool, can't truncate.
    ///
    /// `as usize`/`u64`/`i64`/`isize` is only narrowing when the value
    /// is a float or 128-bit: flagged only with `f32`/`f64`/`u128`/
    /// `i128` evidence in the same statement. A `min` capped by a
    /// *variable* still passes — the cap's range is invisible here.
    fn cast_truncation(&mut self) {
        const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
        const WIDE: &[&str] = &["usize", "u64", "i64", "isize"];
        const BOOLISH: &[&str] = &["is_some", "is_none", "is_ok", "is_err", "is_empty"];
        for i in 1..self.toks.len() {
            if self.ident(i) != Some("as") {
                continue;
            }
            let Some(ty) = self.ident(i + 1) else { continue };
            let narrow = NARROW.contains(&ty);
            let wide = WIDE.contains(&ty);
            if !narrow && !wide {
                continue;
            }
            if matches!(self.toks[i - 1].kind, Tok::Num) {
                continue; // literal cast
            }
            if self.is(i - 1, ')') {
                if i >= 3 && matches!(self.toks[i - 2].kind, Tok::Num) && self.is(i - 3, '%') {
                    continue; // (x % N) as T
                }
                if i >= 4 && self.is(i - 3, '(') && self.ident(i - 4) == Some("min") {
                    continue; // x.min(cap) as T
                }
                if i >= 3
                    && self.is(i - 2, '(')
                    && matches!(self.ident(i - 3), Some(w) if BOOLISH.contains(&w))
                {
                    continue; // bool as T
                }
            }
            if wide {
                // Only narrowing when the source is float/128-bit:
                // scan the statement for evidence.
                let mut s = i;
                while s > 0 {
                    match self.toks[s - 1].kind {
                        Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
                        _ => s -= 1,
                    }
                }
                let floaty = (s..i).any(|k| {
                    matches!(self.ident(k), Some("f32" | "f64" | "u128" | "i128"))
                });
                if !floaty {
                    continue;
                }
            }
            self.flag(
                "cast-truncation",
                i,
                format!(
                    "`as {ty}` narrowing cast on a codec/recovery path — use \
                     `{ty}::try_from` and handle the error (hostile-input discipline)"
                ),
            );
        }
    }

    // ---- nondet-iter ------------------------------------------------

    /// End of the statement containing token `i`: index just past the
    /// terminating `;` at statement depth, or at the `{`/`}` that ends
    /// it. Returns `(end, hit_block_open)`.
    fn stmt_end(&self, i: usize) -> (usize, bool) {
        let mut depth = 0i32;
        let mut k = i;
        let cap = (i + 400).min(self.toks.len());
        while k < cap {
            match self.toks[k].kind {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => {
                    depth -= 1;
                    if depth < 0 {
                        return (k, false);
                    }
                }
                Tok::Punct('{') if depth == 0 => return (k, true),
                Tok::Punct('}') if depth == 0 => return (k, false),
                Tok::Punct(';') if depth == 0 => return (k, false),
                _ => {}
            }
            k += 1;
        }
        (cap.saturating_sub(1), false)
    }

    /// Collect per-file names bound to hash containers: `let` bindings
    /// whose statement mentions a hash type, and `name: Type` fields or
    /// params typed as one. File-scoped, no shadow analysis — coarse on
    /// purpose (over-tracking only creates candidates, not findings).
    fn hash_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        let toks = self.toks;
        for i in 0..toks.len() {
            if self.ident(i) == Some("let") {
                let mut j = i + 1;
                if self.ident(j) == Some("mut") {
                    j += 1;
                }
                let Some(name) = self.ident(j) else { continue };
                let (end, _) = self.stmt_end(i);
                if (i..end).any(|k| matches!(self.ident(k), Some(w) if HASH_TYPES.contains(&w))) {
                    names.push(name.to_string());
                }
            }
            // `name: FastMap<…>` — struct field, fn param, or struct
            // literal field with a hash-typed value.
            if let Some(name) = self.ident(i) {
                if self.is(i + 1, ':') && !self.is(i + 2, ':') && !self.is(i, ':') {
                    let mut k = i + 2;
                    let mut depth = 0i32;
                    let cap = (i + 30).min(toks.len());
                    while k < cap {
                        match toks[k].kind {
                            Tok::Punct('<') | Tok::Punct('(') => depth += 1,
                            Tok::Punct('>') | Tok::Punct(')') if depth > 0 => depth -= 1,
                            Tok::Punct(',') | Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}')
                                if depth == 0 =>
                            {
                                break
                            }
                            Tok::Ident(ref w) if HASH_TYPES.contains(&w.as_str()) => {
                                names.push(name.to_string());
                                break;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
            }
        }
        names.sort();
        names.dedup();
        names
    }

    fn nondet_iter(&mut self) {
        let names = self.hash_names();
        let is_tracked = |w: Option<&str>| w.is_some_and(|w| names.iter().any(|n| n == w));
        let mut sites: Vec<(usize, String)> = Vec::new(); // (method idx, receiver)
        for i in 2..self.toks.len() {
            if !self.is(i - 1, '.') || !self.is(i + 1, '(') {
                continue;
            }
            let Some(m) = self.ident(i) else { continue };
            if !ITER_METHODS.contains(&m) {
                continue;
            }
            let recv = self.ident(i - 2);
            if is_tracked(recv) {
                sites.push((i, recv.unwrap_or_default().to_string()));
            }
        }
        // Bare `for x in &map {` / `for (k, v) in &mut self.map {` loops.
        for i in 0..self.toks.len() {
            if self.ident(i) != Some("for") {
                continue;
            }
            // Find the `in` at pattern depth 0.
            let mut depth = 0i32;
            let mut j = i + 1;
            let cap = (i + 40).min(self.toks.len());
            let mut found_in = None;
            while j < cap {
                match self.toks[j].kind {
                    Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                    Tok::Ident(ref w) if w == "in" && depth == 0 => {
                        found_in = Some(j);
                        break;
                    }
                    Tok::Punct('{') | Tok::Punct(';') => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(inpos) = found_in else { continue };
            let mut k = inpos + 1;
            if self.is(k, '&') {
                k += 1;
            }
            if self.ident(k) == Some("mut") {
                k += 1;
            }
            if self.ident(k) == Some("self") && self.is(k + 1, '.') {
                k += 2;
            }
            if is_tracked(self.ident(k)) && self.is(k + 1, '{') {
                sites.push((k, self.ident(k).unwrap_or_default().to_string()));
            }
        }
        sites.sort_by_key(|&(i, _)| i);
        sites.dedup_by_key(|&mut (i, _)| i);
        for (i, recv) in sites {
            if let Some(msg) = self.nondet_sink(i, &recv) {
                self.flag("nondet-iter", i, msg);
            }
        }
    }

    /// Decide whether the iteration starting at token `i` reaches an
    /// order-sensitive sink. Returns the finding message, or `None`
    /// when a neutralizer (sort / unordered collect / order-free
    /// terminal) is found.
    fn nondet_sink(&self, i: usize, recv: &str) -> Option<String> {
        // `b.extend(map.iter())` where the receiver is itself a hash or
        // btree container: order-free. Token shape: X . extend ( M . iter
        let extend_recv = i >= 5
            && self.ident(i - 4) == Some("extend")
            && self.is(i - 3, '(')
            && matches!(self.toks[i - 2].kind, Tok::Ident(_));
        if extend_recv {
            return None; // extending any map/set from a map/set is order-free
        }
        let (end, block_open) = self.stmt_end(i);
        if block_open {
            // For-loop (or if/while-header) body: look for sink markers.
            let close = matching(self.toks, end, '{', '}').unwrap_or(self.toks.len() - 1);
            for k in end..close {
                if matches!(self.ident(k), Some(w) if BODY_SINKS.contains(&w)) {
                    return Some(format!(
                        "loop over hash container `{recv}` feeds an ordered sink \
                         (`{}`) — iterate a sorted view instead",
                        self.ident(k).unwrap_or_default()
                    ));
                }
            }
            return None;
        }
        // Method-chain statement: scan for neutralizers.
        let mut let_target: Option<&str> = None;
        let mut let_ty: Option<&str> = None;
        // Find the `let` opening this statement (backwards, bounded).
        let stmt_start = (0..i)
            .rev()
            .take(60)
            .find(|&k| {
                self.is(k, ';') || self.is(k, '{') || self.is(k, '}')
            })
            .map(|k| k + 1)
            .unwrap_or(0);
        for k in stmt_start..i {
            if self.ident(k) == Some("let") {
                let mut j = k + 1;
                if self.ident(j) == Some("mut") {
                    j += 1;
                }
                let_target = self.ident(j);
                if self.is(j + 1, ':') {
                    let_ty = self.ident(j + 2);
                }
                break;
            }
        }
        if let Some(ty) = let_ty {
            if UNORDERED_COLLECTS.contains(&ty) {
                return None;
            }
        }
        let mut k = i;
        while k < end {
            // Argument groups are opaque: `filter(|p| area.contains(p))`
            // must not let the closure's `contains` neutralize the chain.
            // Only method names at the top level of the chain count.
            if self.is(k, '(') || self.is(k, '[') {
                let close = if self.is(k, '(') { ')' } else { ']' };
                let open = if self.is(k, '(') { '(' } else { '[' };
                k = matching(self.toks, k, open, close).map(|c| c + 1).unwrap_or(end);
                continue;
            }
            if let Some(w) = self.ident(k) {
                if SORTS.contains(&w) || ORDER_FREE.contains(&w) {
                    return None;
                }
                if w == "collect" && self.is(k + 1, ':') && self.is(k + 2, ':') {
                    // Turbofish: collect::<Target<…>>()
                    for t in k + 3..(k + 8).min(end) {
                        if matches!(self.ident(t), Some(ty) if UNORDERED_COLLECTS.contains(&ty)) {
                            return None;
                        }
                    }
                }
            }
            k += 1;
        }
        // One statement of lookahead: `let v = …collect(); v.sort…;` is
        // the workspace's canonical determinize-then-use idiom. The
        // statement may end inside a match arm or if/else initializer,
        // so skip trailing block-closers first. When the binding name is
        // known it must match; otherwise any `ident.sort*` counts.
        let mut k = end;
        while self.is(k, '}') || self.is(k, ';') || self.is(k, ')') || self.is(k, ',') {
            k += 1;
        }
        let next_is_sort = self.is(k + 1, '.')
            && matches!(self.ident(k + 2), Some(w) if SORTS.contains(&w));
        if next_is_sort {
            // When the binding name is visible (plain `let … = …;`
            // statement), the sorted thing must be that binding; behind
            // block-closers the binding sits outside our window, so any
            // immediate `ident.sort*` counts.
            let simple_stmt = k == end + 1;
            match (let_target, simple_stmt) {
                (Some(t), true) if self.ident(k) != Some(t) => {}
                _ => return None,
            }
        }
        Some(format!(
            "iteration over hash container `{recv}` flows into an order-sensitive \
             sink — sort it, collect into a BTree/hash container, or allow with a reason"
        ))
    }
}

/// Panic-capable sites in `toks[lo..hi]`: `(token index, what, advice)`.
/// Shared by the per-file `panic-path` matcher (whole file) and the
/// interprocedural extension in [`crate::callgraph`] (single fn body).
pub(crate) fn panic_sites(
    toks: &[Token],
    lo: usize,
    hi: usize,
) -> Vec<(usize, String, &'static str)> {
    let mut out = Vec::new();
    let ident = |i: usize| toks.get(i).and_then(|t| t.ident());
    let is = |i: usize, c: char| toks.get(i).is_some_and(|t| t.is_punct(c));
    for i in lo..hi.min(toks.len()) {
        if i > 0
            && is(i - 1, '.')
            && matches!(ident(i), Some("unwrap" | "expect"))
            && is(i + 1, '(')
        {
            out.push((
                i,
                format!("`.{}()`", ident(i).unwrap_or_default()),
                "corrupt input must return, not panic",
            ));
        }
        if matches!(ident(i), Some("panic" | "unreachable" | "todo" | "unimplemented"))
            && is(i + 1, '!')
        {
            out.push((
                i,
                format!("`{}!`", ident(i).unwrap_or_default()),
                "corrupt input must return, not panic",
            ));
        }
        // Indexing/slicing expressions: `x[…]`, `f()[…]`, `x[..n]`.
        // A `[` after an identifier, `)` or `]` is an index (array
        // types/literals follow `:`, `=`, `<`, `&`, `!`, … instead).
        // Keywords that precede a slice *type* or array literal —
        // `&mut [usize]`, `dyn [..]`, `return [..]` — are identifier
        // tokens to the lexer but never index expressions.
        let keyword_prev = i > 0
            && matches!(
                ident(i - 1),
                Some(
                    "mut" | "dyn" | "ref" | "box" | "move" | "in" | "as" | "else" | "return"
                        | "break" | "continue" | "impl" | "where" | "const" | "static"
                )
            );
        if is(i, '[')
            && i > 0
            && !keyword_prev
            && (matches!(toks[i - 1].kind, Tok::Ident(_)) || is(i - 1, ')') || is(i - 1, ']'))
        {
            out.push((i, "panic-capable `[]` indexing".to_string(), "use `.get(..)`"));
        }
    }
    out
}

/// Method names that open a tracer span (and return a `TraceCtx`).
const SPAN_OPENERS: &[&str] = &["start_trace", "maybe_trace", "trace", "child"];

/// `span-leak`: every `let`-bound span open must be *consumed* —
/// closed, aborted, stored, or returned — before the function exits,
/// and before any `return`/`?` early exit that follows the open in
/// token order.
///
/// What counts, exactly:
///
/// * Opens are `.start_trace(`/`.maybe_trace(`/`.trace(`/`.child(`
///   method calls whose statement is a `let` (including `if let`/
///   `while let`); the binding names are the lowercase idents in the
///   pattern.
/// * Consumption is any later appearance of a binding name — this is
///   flow-insensitive in the happy direction (a close in one match arm
///   marks the span consumed for all arms: documented false-negative).
/// * A `return` whose expression mentions a binding is a hand-off, not
///   a leak. A `?` before first consumption is a leak (the error path
///   drops the guard unclosed).
/// * Non-`let` opens (match scrutinees, call arguments, struct fields)
///   are *transfers* — ownership moved somewhere this file-level
///   analysis can't follow — and are skipped: documented blind spot.
fn span_leak(u: &FileUnit, out: &mut Vec<RawFinding>) {
    let toks = &u.toks;
    for f in &u.fns {
        if f.in_test {
            continue;
        }
        let Some((b0, b1)) = f.body else { continue };
        for k in b0 + 1..b1 {
            if !matches!(toks[k].ident(), Some(n) if SPAN_OPENERS.contains(&n)) {
                continue;
            }
            if !(k >= 1
                && toks[k - 1].is_punct('.')
                && toks.get(k + 1).is_some_and(|t| t.is_punct('(')))
            {
                continue;
            }
            if u.in_test.get(k).copied().unwrap_or(false) {
                continue;
            }
            let close = matching(toks, k + 1, '(', ')').unwrap_or(b1);
            // Statement start and `let`-ness.
            let mut s = k;
            while s > b0 + 1 {
                match toks[s - 1].kind {
                    Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
                    _ => s -= 1,
                }
            }
            let mut w = s;
            let mut is_let = false;
            while w < k {
                match toks[w].ident() {
                    Some("let") => {
                        is_let = true;
                        break;
                    }
                    Some("if" | "while" | "else") => w += 1,
                    None => w += 1,
                    Some(_) => break,
                }
            }
            if !is_let {
                continue; // transfer — see the doc comment
            }
            // Binding names: lowercase idents between `let` and the `=`.
            let mut binds: Vec<&str> = Vec::new();
            for t in toks.iter().take(k).skip(w + 1) {
                if t.is_punct('=') {
                    break;
                }
                match t.ident() {
                    Some("mut" | "ref" | "Some" | "Ok" | "Err" | "None") | None => {}
                    Some(n) if n.starts_with(|c: char| c.is_ascii_lowercase()) => binds.push(n),
                    Some(_) => {}
                }
            }
            let open_line = toks[k].line;
            let opener = toks[k].ident().unwrap_or_default().to_string();
            let open_ev = Evidence {
                path: u.path.clone(),
                line: open_line,
                note: format!("span opened here (`.{opener}(…)`)"),
            };
            if binds.is_empty() {
                out.push(RawFinding {
                    rule: "span-leak",
                    line: open_line,
                    message: format!(
                        "span from `.{opener}(…)` is bound to `_` and dropped immediately — \
                         the tracer never sees a close/abort"
                    ),
                    evidence: vec![open_ev],
                });
                continue;
            }
            // Consumption scan from the end of the open call.
            let mut consumed = false;
            let mut leak: Option<(u32, String)> = None;
            let mut i = close + 1;
            while i < b1 {
                match toks[i].ident() {
                    Some("return") => {
                        // Does the return expression hand the span off?
                        let mut depth = 0i32;
                        let mut j = i + 1;
                        let mut used = false;
                        while j < b1 {
                            match toks[j].kind {
                                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                                    depth -= 1;
                                    if depth < 0 {
                                        break;
                                    }
                                }
                                Tok::Punct(';') if depth <= 0 => break,
                                _ => {
                                    if matches!(toks[j].ident(), Some(n) if binds.contains(&n)) {
                                        used = true;
                                    }
                                }
                            }
                            j += 1;
                        }
                        if used {
                            consumed = true;
                            i = j;
                            continue;
                        }
                        if !consumed {
                            leak = Some((
                                toks[i].line,
                                "early `return` exits while the span is still open".into(),
                            ));
                            break;
                        }
                    }
                    Some(n) if binds.contains(&n) => consumed = true,
                    _ => {
                        if toks[i].is_punct('?')
                            && toks.get(i + 1).and_then(|t| t.ident()) != Some("Sized")
                            && !consumed
                        {
                            leak = Some((
                                toks[i].line,
                                "`?` propagates an error while the span is still open".into(),
                            ));
                            break;
                        }
                    }
                }
                i += 1;
            }
            if let Some((line, why)) = leak {
                out.push(RawFinding {
                    rule: "span-leak",
                    line,
                    message: format!(
                        "span `{}` opened at line {open_line} leaks: {why} — close or abort \
                         it on every path",
                        binds.join("/")
                    ),
                    evidence: vec![
                        open_ev,
                        Evidence { path: u.path.clone(), line, note: why },
                    ],
                });
            } else if !consumed {
                out.push(RawFinding {
                    rule: "span-leak",
                    line: open_line,
                    message: format!(
                        "span `{}` opened here is never closed, aborted, or passed on",
                        binds.join("/")
                    ),
                    evidence: vec![open_ev],
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unallowed(path: &str, src: &str) -> Vec<Finding> {
        lint_source(path, src).into_iter().filter(|f| !f.is_allowed()).collect()
    }

    #[test]
    fn test_regions_cover_cfg_test_modules() {
        let src = r#"
            pub fn live() { let t = Instant::now(); }
            #[cfg(test)]
            mod tests {
                fn helper() { let t = Instant::now(); }
            }
        "#;
        let f = unallowed("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = r#"
            #[cfg(not(test))]
            pub fn live() { let t = Instant::now(); }
        "#;
        assert_eq!(unallowed("crates/x/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn allow_must_name_a_rule_and_carry_a_reason() {
        let src = "
            // lint:allow(wall-clock)
            let t = Instant::now();
            // lint:allow(no-such-rule): whatever
            let u = SystemTime::now();
        ";
        let f = lint_source("crates/x/src/lib.rs", src);
        let bad: Vec<_> = f.iter().filter(|f| f.rule == "bad-allow").collect();
        assert_eq!(bad.len(), 2, "{f:?}");
        // Neither directive suppressed anything.
        assert_eq!(f.iter().filter(|f| !f.is_allowed() && f.rule == "wall-clock").count(), 2);
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "
            // lint:allow(wall-clock): nothing here uses the clock
            let x = 1;
        ";
        let f = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unused-allow");
    }

    #[test]
    fn trailing_and_own_line_allows_bind_correctly() {
        let src = "
            let a = Instant::now(); // lint:allow(wall-clock): trailing reason
            // lint:allow(wall-clock): own-line reason
            let b = Instant::now();
        ";
        let f = lint_source("crates/x/src/lib.rs", src);
        assert!(f.iter().all(|f| f.is_allowed()), "{f:?}");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn test_files_are_exempt_wholesale() {
        let src = "pub fn t() { let x = Instant::now(); foo.unwrap(); }";
        assert!(unallowed("tests/integration.rs", src).is_empty());
        assert!(unallowed("crates/x/examples/demo.rs", src).is_empty());
    }

    #[test]
    fn vec_realloc_flags_loop_bodies_only() {
        let src = r#"
            pub fn hot(items: &[u32]) {
                let setup: Vec<u32> = items.iter().copied().collect();
                for x in setup {
                    let scratch = Vec::new();
                    let boxed = vec![x];
                    let doubled: Vec<u32> = items.iter().map(|i| i * x).collect();
                }
            }
        "#;
        // In scope: flagged as advisory, three findings (Vec::new,
        // vec!, collect) — the collect() building the iterable is not.
        let f = unallowed("crates/core/src/sharded.rs", src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "vec-realloc-in-loop" && f.advisory), "{f:?}");
        assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), vec![5, 6, 7]);
        // Out of scope: a fresh Vec per call is usually the right API.
        assert!(unallowed("crates/obs/src/span.rs", src).is_empty());
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let src = "
            impl Index for Grid {
                fn range(&self) -> Vec<u32> {
                    let mut out = Vec::new();
                    out
                }
            }
        ";
        assert!(unallowed("crates/spatial/src/grid.rs", src).is_empty());
    }

    #[test]
    fn while_and_loop_bodies_count_too() {
        let src = "
            pub fn pump(q: &mut Q) {
                while let Some(batch) = q.pop() {
                    let staged = Vec::new();
                }
            }
        ";
        let f = unallowed("crates/storage/src/kv.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].advisory);
    }

    #[test]
    fn metric_name_enforces_design_scheme() {
        // Bad prefix (one segment) and bad full name (two segments).
        let src = r#"
            pub fn build() {
                r.absorb("raft", &node.stats);
                r.absorb("raft.node", &node.stats);
                let c = r.counter("node.sent");
                let g = r.gauge("core.engine.live");
                let h = r.histo("storage.wal.batch_bytes");
            }
        "#;
        let f = unallowed("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "metric-name"));
        assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), vec![3, 5]);
        // Uppercase and empty segments are off-scheme too.
        let bad = r#"pub fn b(r: &mut Registry) { r.counter("Net.Transport.Sent"); let t = r.counter("a..b"); }"#;
        assert_eq!(unallowed("crates/x/src/lib.rs", bad).len(), 2);
        // Non-literal names are invisible (no type info, documented).
        let dynamic = "pub fn d(r: &mut Registry, n: &str) { r.counter(n); }";
        assert!(unallowed("crates/x/src/lib.rs", dynamic).is_empty());
        // The registry module itself is out of scope.
        assert!(unallowed("crates/obs/src/registry.rs", src).is_empty());
    }

    #[test]
    fn panic_path_covers_health_layer_files() {
        let src = "pub fn f(v: &[u32]) -> u32 { v[0] }";
        for path in
            ["crates/obs/src/window.rs", "crates/obs/src/slo.rs", "crates/obs/src/recorder.rs"]
        {
            let f = unallowed(path, src);
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "panic-path");
        }
    }

    #[test]
    fn panic_path_covers_the_arena() {
        let src = "pub fn f(v: &[u32]) -> u32 { v[0] }";
        let f = unallowed("crates/core/src/arena.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "panic-path");
        assert!(!f[0].advisory, "panic-path stays deniable");
    }
}
