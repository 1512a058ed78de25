//! The interprocedural layer: symbol table, call graph, and the
//! analyses that need them.
//!
//! Built on [`crate::parse`]'s item tree, this module powers the rules
//! that cannot be expressed over a single flat token stream:
//!
//! * `lock-order` — per-function lockset tracking (which guards are
//!   live at which tokens), a *global* lock-acquisition-order graph
//!   composed through the call graph, cycle detection over that graph
//!   (reported as potential deadlocks), and same-lock re-entry.
//! * `guard-across-sync` — a lock guard live across a blocking
//!   boundary (WAL sync / group-commit seal, transport send), directly
//!   or through a callee that may block.
//! * interprocedural `panic-path` — any function reachable from a
//!   recovery/decode entry point (a function defined in one of the
//!   rule's scoped files) inherits the panic-path discipline, with the
//!   witness call chain attached as evidence.
//!
//! Name resolution is heuristic and says so: `self.m(…)` resolves via
//! the enclosing `impl`'s type name, `Type::m(…)` via the qualifier,
//! and anything else by bare name — but only when the workspace defines
//! at most [`AMBIGUITY_CAP`] functions with that name. Wildly shared
//! names (`new`, `get`, `len`) therefore never create edges, which
//! bounds both false cycles and the panic-path blast radius. Lock
//! identity is `Type.field` (or the bare receiver chain): it is
//! *instance-blind*, so two instances of one type alias into one lock —
//! a same-id overlap on provably distinct instances needs an allow.

use crate::parse::{matching, FileUnit};
use crate::rules::{panic_sites, path_in_scope, spec, Evidence, RawFinding};
use crate::lexer::{Tok, Token};
use std::collections::{BTreeMap, BTreeSet};

/// Bare-name call resolution gives up when the workspace defines more
/// than this many functions with the name — shared names like `new`
/// or `get` would otherwise wire the whole workspace together.
pub const AMBIGUITY_CAP: usize = 3;

/// Method names that *are* a blocking boundary: the WAL fsync paths
/// and the reliable-transport send. `may_block` propagates through the
/// call graph from these.
const BLOCKING: &[&str] = &["sync", "send", "send_traced"];

/// One function known to the workspace symbol table.
struct FnMeta {
    file: usize,
    name: String,
    qual: Option<String>,
    body: (usize, usize),
    line: u32,
}

/// How a call site names its callee.
enum Recv {
    /// `self.m(…)` or `Self::m(…)` — resolve via the enclosing impl.
    SelfQual,
    /// `Type::m(…)` — resolve via `Type` only (no bare fallback:
    /// `u32::try_from` must not link to an unrelated `try_from`).
    Path(String),
    /// `x.m(…)` or free `m(…)` — bare-name resolution, capped.
    Bare,
    /// `….lock().m(…)` — a method on a lock *guard*. The callee lives
    /// on the inner type, which the lexer cannot name; bare-name
    /// resolution would alias the wrapper's own delegating method
    /// (`SharedTracer::close` → `guard.close(…)`) and fabricate
    /// self-deadlocks. Never resolved.
    Guard,
}

struct CallSite {
    tok: usize,
    line: u32,
    name: String,
    recv: Recv,
}

/// Keywords and control-flow words that look like `name(` but are not
/// calls.
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "as", "in", "let", "fn", "move", "ref",
    "mut", "where", "impl", "use", "pub", "mod", "const", "static", "type", "trait", "enum",
    "struct", "else", "break", "continue", "unsafe", "dyn", "box", "await",
];

/// Std-prelude/iterator/slice method names that shadow workspace fns.
/// A bare *method* call `x.collect(…)` is overwhelmingly a std call,
/// so resolving it to the one workspace fn that happens to share the
/// name (`FederatedSim::collect`, `Dsu::find`, `ChordRing::join`, …)
/// fabricates edges. Method-form bare resolution skips these; `self.m`
/// and `Type::m` calls still resolve precisely, so a genuine
/// `self.collect()` keeps its edge.
const STD_SHADOWED: &[&str] = &[
    "collect", "find", "join", "windows", "chunks", "map", "filter", "filter_map", "flat_map",
    "fold", "next", "iter", "get", "insert", "remove", "push", "pop", "len", "clone", "take",
    "extend", "contains", "position", "last", "count", "split", "rsplit", "trim", "parse",
    "sum", "rev", "zip", "chain", "flatten", "any", "all", "min", "max", "retain", "drain",
    "clear", "resize", "sort", "starts_with", "ends_with", "enumerate", "skip", "peekable",
    "and_then", "map_err", "ok_or", "unwrap_or", "unwrap_or_else", "unwrap_or_default", "append",
];

/// A lock acquisition and the token range its guard stays live for.
struct Acq {
    tok: usize,
    line: u32,
    /// Lock identity: `Type.field` for `self.field.lock()` receivers,
    /// else the raw receiver chain.
    id: String,
    /// Last token index (inclusive) at which the guard is live.
    end: usize,
}

pub(crate) struct Workspace<'a> {
    units: &'a [FileUnit],
    fns: Vec<FnMeta>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_qual: BTreeMap<(String, String), Vec<usize>>,
}

impl<'a> Workspace<'a> {
    pub(crate) fn build(units: &'a [FileUnit]) -> Workspace<'a> {
        let mut fns = Vec::new();
        for (fi, u) in units.iter().enumerate() {
            if u.whole_file_test {
                continue;
            }
            for item in &u.fns {
                let (Some(body), false) = (item.body, item.in_test) else { continue };
                fns.push(FnMeta {
                    file: fi,
                    name: item.name.clone(),
                    qual: item.qual.clone(),
                    body,
                    line: item.line,
                });
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(id);
            if let Some(q) = &f.qual {
                by_qual.entry((q.clone(), f.name.clone())).or_default().push(id);
            }
        }
        Workspace { units, fns, by_name, by_qual }
    }

    fn toks(&self, f: usize) -> &[Token] {
        &self.units[self.fns[f].file].toks
    }

    fn path(&self, f: usize) -> &str {
        &self.units[self.fns[f].file].path
    }

    fn label(&self, f: usize) -> String {
        match &self.fns[f].qual {
            Some(q) => format!("{q}::{}", self.fns[f].name),
            None => self.fns[f].name.clone(),
        }
    }

    /// Call sites inside `f`'s body, in token order.
    fn call_sites(&self, f: usize) -> Vec<CallSite> {
        let toks = self.toks(f);
        let (b0, b1) = self.fns[f].body;
        let mut out = Vec::new();
        for k in b0 + 1..b1 {
            let Some(name) = toks[k].ident() else { continue };
            if !toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            if !name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                || NOT_CALLS.contains(&name)
            {
                continue;
            }
            let recv = if k >= 1 && toks[k - 1].is_punct('.') {
                if k >= 2 && toks[k - 2].ident() == Some("self") {
                    Recv::SelfQual
                } else if (k >= 2
                    && toks[k - 2].is_punct(')')
                    && recv_chain(toks, k - 2).is_some_and(|c| {
                        matches!(
                            c.last().map(String::as_str),
                            Some("lock()" | "read()" | "write()")
                        )
                    }))
                    || STD_SHADOWED.contains(&name)
                {
                    // Guard-receiver or std-shadowed method name: never
                    // resolved against the workspace symbol table.
                    Recv::Guard
                } else {
                    Recv::Bare
                }
            } else if k >= 2 && toks[k - 1].is_punct(':') && toks[k - 2].is_punct(':') {
                match toks.get(k.wrapping_sub(3)).and_then(|t| t.ident()) {
                    Some("Self") => Recv::SelfQual,
                    Some(t) => Recv::Path(t.to_string()),
                    None => Recv::Bare,
                }
            } else {
                Recv::Bare
            };
            out.push(CallSite { tok: k, line: toks[k].line, name: name.to_string(), recv });
        }
        out
    }

    /// Resolve one call site to workspace function ids (possibly
    /// several — every impl of an ambiguous-but-under-cap name).
    fn resolve(&self, caller: usize, cs: &CallSite) -> Vec<usize> {
        let bare = || -> Vec<usize> {
            match self.by_name.get(&cs.name) {
                Some(v) if v.len() <= AMBIGUITY_CAP => v.clone(),
                _ => Vec::new(),
            }
        };
        match &cs.recv {
            Recv::SelfQual => match &self.fns[caller].qual {
                Some(q) => match self.by_qual.get(&(q.clone(), cs.name.clone())) {
                    Some(v) => v.clone(),
                    None => bare(),
                },
                None => bare(),
            },
            Recv::Path(t) => {
                self.by_qual.get(&(t.clone(), cs.name.clone())).cloned().unwrap_or_default()
            }
            Recv::Bare => bare(),
            Recv::Guard => Vec::new(),
        }
    }

    /// Lock acquisitions (and guard live ranges) inside `f`'s body.
    fn lock_acqs(&self, f: usize) -> Vec<Acq> {
        let toks = self.toks(f);
        let (b0, b1) = self.fns[f].body;
        let mut out = Vec::new();
        for k in b0 + 1..b1 {
            if !matches!(toks[k].ident(), Some("lock" | "read" | "write")) {
                continue;
            }
            // `.lock()` / `.read()` / `.write()` with *empty* argument
            // lists — `file.write(buf)` is io, not a lock.
            if !(k >= 1
                && toks[k - 1].is_punct('.')
                && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(k + 2).is_some_and(|t| t.is_punct(')')))
            {
                continue;
            }
            let Some(chain) = recv_chain(toks, k - 2) else { continue };
            let id = if chain.first().map(String::as_str) == Some("self") {
                let qual = self.fns[f].qual.clone().unwrap_or_else(|| self.fns[f].name.clone());
                if chain.len() > 1 {
                    format!("{qual}.{}", chain[1..].join("."))
                } else {
                    qual
                }
            } else {
                chain.join(".")
            };
            let end = guard_end(toks, k, b1);
            out.push(Acq { tok: k, line: toks[k].line, id, end });
        }
        out
    }
}

/// Walk a `.lock()` receiver chain backwards from token `j` (the last
/// token of the receiver). Returns the dotted components in source
/// order, e.g. `self.live.lock()` → `["self","live"]`
/// and `self.shard(i).lock()` → `["self","shard()"]`.
fn recv_chain(toks: &[Token], j: usize) -> Option<Vec<String>> {
    let mut j = j;
    let mut parts: Vec<String> = Vec::new();
    loop {
        match &toks.get(j)?.kind {
            Tok::Ident(w) => parts.push(w.clone()),
            Tok::Num => parts.push("0".into()), // tuple-struct field (`self.0.lock()`)
            Tok::Punct(')') => {
                // Method/call result receiver: skip the argument group,
                // keep the method name with a `()` marker.
                let mut depth = 0i32;
                let mut k = j;
                loop {
                    let t = toks.get(k)?;
                    if t.is_punct(')') {
                        depth += 1;
                    } else if t.is_punct('(') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k = k.checked_sub(1)?;
                }
                let name = toks.get(k.checked_sub(1)?)?.ident()?;
                parts.push(format!("{name}()"));
                j = k - 1;
            }
            _ => return None,
        }
        if parts.last().map(String::as_str) == Some("self") {
            break;
        }
        if j >= 2 && toks[j - 1].is_punct('.') {
            j -= 2;
        } else {
            break;
        }
    }
    parts.reverse();
    Some(parts)
}

/// Last token index (inclusive) at which the guard acquired at `k`
/// stays live.
///
/// * plain `let g = …lock();` — to the end of the enclosing block, or
///   to an explicit `drop(g)`;
/// * `if let`/`while let … = …lock()` — to the end of the header's
///   body block;
/// * `match …lock() { … }` — to the end of the match block (scrutinee
///   temporaries live through every arm);
/// * any other temporary — to the end of its own statement (`;`, a
///   match-arm `,`, or the `{` of an `if`/`while` header).
fn guard_end(toks: &[Token], k: usize, body_close: usize) -> usize {
    // Find the statement start and classify the binding form.
    let mut s = k;
    while s > 0 {
        match toks[s - 1].kind {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            _ => s -= 1,
        }
    }
    let mut w = s;
    let mut is_let = false;
    let mut header = false; // `if let` / `while let`: scope is the body block
    let mut is_match = false;
    while w < k {
        match toks[w].ident() {
            Some("let") => {
                is_let = true;
                break;
            }
            Some("match") => {
                is_match = true;
                break;
            }
            Some("if" | "while" | "else") => {
                header = true;
                w += 1;
            }
            None => w += 1,
            Some(_) => break,
        }
    }
    // Match scrutinee (or a header-scoped let): live to the end of the
    // first `{ … }` block after the acquisition.
    if is_match || (is_let && header) {
        let mut depth = 0i32;
        for (i, t) in toks.iter().enumerate().take(body_close + 1).skip(k) {
            match t.kind {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct('{') if depth <= 0 => {
                    return matching(toks, i, '{', '}').unwrap_or(body_close);
                }
                _ => {}
            }
        }
        return body_close;
    }
    // Guard binding name: first plain lowercase ident after `let` that
    // is not a binding-mode keyword or a constructor.
    let guard_name = if is_let {
        (w + 1..k).find_map(|i| match toks[i].ident() {
            Some("mut" | "ref" | "Some" | "Ok" | "Err" | "None") => None,
            Some(n) if n.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') => Some(n),
            _ => None,
        })
    } else {
        None
    };
    let mut depth = 0i32;
    let mut i = k;
    while i <= body_close {
        match toks[i].kind {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') => {
                if !is_let && depth <= 0 {
                    return i; // temporary in an if/while header
                }
                depth += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return i; // enclosing block closes: guard dropped
                }
            }
            Tok::Punct(';') | Tok::Punct(',') if !is_let && depth <= 0 => {
                return i; // temporary: end of its own statement/arm
            }
            _ => {
                if let (Some(g), Some("drop")) = (guard_name, toks[i].ident()) {
                    if toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                        && toks.get(i + 2).and_then(|t| t.ident()) == Some(g)
                        && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
                    {
                        return i;
                    }
                }
            }
        }
        i += 1;
    }
    body_close
}

/// Fixpoint of a per-function set property over the call graph:
/// `out[f] = own[f] ∪ ⋃ out[callee]`.
fn fixpoint_union(
    ws: &Workspace<'_>,
    own: &[BTreeSet<String>],
    edges: &[Vec<usize>],
) -> Vec<BTreeSet<String>> {
    let mut out: Vec<BTreeSet<String>> = own.to_vec();
    loop {
        let mut changed = false;
        for f in 0..ws.fns.len() {
            let mut add: Vec<String> = Vec::new();
            for &g in &edges[f] {
                for id in &out[g] {
                    if !out[f].contains(id) {
                        add.push(id.clone());
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                out[f].extend(add);
            }
        }
        if !changed {
            return out;
        }
    }
}

/// Run every interprocedural analysis and return raw findings keyed by
/// file index. Deterministic: functions are visited in (path, token)
/// order and all maps are BTree-based.
pub(crate) fn global_findings(units: &[FileUnit]) -> Vec<(usize, RawFinding)> {
    let ws = Workspace::build(units);
    let mut out: Vec<(usize, RawFinding)> = Vec::new();

    // Per-function facts, computed once.
    let acqs: Vec<Vec<Acq>> = (0..ws.fns.len()).map(|f| ws.lock_acqs(f)).collect();
    let calls: Vec<Vec<CallSite>> = (0..ws.fns.len()).map(|f| ws.call_sites(f)).collect();
    let resolved: Vec<Vec<Vec<usize>>> = (0..ws.fns.len())
        .map(|f| calls[f].iter().map(|c| ws.resolve(f, c)).collect())
        .collect();
    let edges: Vec<Vec<usize>> = resolved
        .iter()
        .map(|per_call| {
            let mut e: Vec<usize> = per_call.iter().flatten().copied().collect();
            e.sort_unstable();
            e.dedup();
            e
        })
        .collect();

    // may_acquire: lock ids each function (transitively) acquires.
    let own_locks: Vec<BTreeSet<String>> =
        acqs.iter().map(|a| a.iter().map(|q| q.id.clone()).collect()).collect();
    let may_acquire = fixpoint_union(&ws, &own_locks, &edges);

    // First acquisition site per lock id (for evidence), in file order.
    let mut first_site: BTreeMap<&str, (&str, u32)> = BTreeMap::new();
    for (f, fn_acqs) in acqs.iter().enumerate() {
        for a in fn_acqs {
            first_site.entry(&a.id).or_insert((ws.path(f), a.line));
        }
    }

    // may_block: reaches a blocking boundary call.
    let own_block: Vec<BTreeSet<String>> = calls
        .iter()
        .map(|cs| {
            cs.iter()
                .filter(|c| BLOCKING.contains(&c.name.as_str()))
                .map(|c| c.name.clone())
                .collect()
        })
        .collect();
    let may_block = fixpoint_union(&ws, &own_block, &edges);

    // ---- lock-order + guard-across-sync -----------------------------
    // Edge map over lock ids; first witness wins (file order).
    let mut lock_edges: BTreeMap<(String, String), Vec<Evidence>> = BTreeMap::new();
    let gas_spec = spec("guard-across-sync");
    for f in 0..ws.fns.len() {
        let path = ws.path(f).to_string();
        let here = |line: u32, note: String| Evidence { path: path.clone(), line, note };
        // Intra-function: B acquired while A is live.
        for a in &acqs[f] {
            for b in &acqs[f] {
                if b.tok <= a.tok || b.tok > a.end {
                    continue;
                }
                if b.id == a.id {
                    out.push((
                        ws.fns[f].file,
                        RawFinding {
                            rule: "lock-order",
                            line: b.line,
                            message: format!(
                                "same-lock re-entry: `{}` re-acquired while already held in \
                                 `{}` — self-deadlock",
                                b.id,
                                ws.label(f)
                            ),
                            evidence: vec![here(
                                a.line,
                                format!("first acquisition of `{}`", a.id),
                            )],
                        },
                    ));
                } else {
                    lock_edges.entry((a.id.clone(), b.id.clone())).or_insert_with(|| {
                        vec![
                            here(a.line, format!("`{}` acquires `{}`", ws.label(f), a.id)),
                            here(b.line, format!("then acquires `{}` while it is held", b.id)),
                        ]
                    });
                }
            }
            // Interprocedural: calls made while A is live.
            for (ci, c) in calls[f].iter().enumerate() {
                if c.tok <= a.tok || c.tok > a.end {
                    continue;
                }
                // guard-across-sync: direct boundary name or a callee
                // that may block.
                let direct = BLOCKING.contains(&c.name.as_str());
                let indirect = !direct
                    && resolved[f][ci].iter().any(|&g| !may_block[g].is_empty());
                if (direct || indirect) && path_in_scope(&path, gas_spec) {
                    let how = if direct {
                        format!("`{}` is a blocking boundary", c.name)
                    } else {
                        format!("`{}` reaches a blocking boundary", c.name)
                    };
                    out.push((
                        ws.fns[f].file,
                        RawFinding {
                            rule: "guard-across-sync",
                            line: c.line,
                            message: format!(
                                "lock guard `{}` held across blocking call `{}` in `{}` — \
                                 release before blocking ({how})",
                                a.id,
                                c.name,
                                ws.label(f)
                            ),
                            evidence: vec![
                                here(a.line, format!("guard `{}` acquired here", a.id)),
                                here(c.line, format!("blocking call `{}` while held", c.name)),
                            ],
                        },
                    ));
                }
                // Lock edges through the callee's (transitive) lockset.
                for &g in &resolved[f][ci] {
                    let mut reentry = false;
                    for l in &may_acquire[g] {
                        if *l == a.id {
                            reentry = true;
                        } else {
                            lock_edges.entry((a.id.clone(), l.clone())).or_insert_with(|| {
                                let (lp, ll) =
                                    first_site.get(l.as_str()).copied().unwrap_or(("", 0));
                                vec![
                                    here(a.line, format!("`{}` acquires `{}`", ws.label(f), a.id)),
                                    here(
                                        c.line,
                                        format!("calls `{}` while holding it", ws.label(g)),
                                    ),
                                    Evidence {
                                        path: lp.to_string(),
                                        line: ll,
                                        note: format!(
                                            "`{}` (transitively) acquires `{l}`",
                                            ws.label(g)
                                        ),
                                    },
                                ]
                            });
                        }
                    }
                    if reentry {
                        out.push((
                            ws.fns[f].file,
                            RawFinding {
                                rule: "lock-order",
                                line: c.line,
                                message: format!(
                                    "same-lock re-entry: `{}` holds `{}` and calls `{}`, \
                                     which (transitively) acquires it — self-deadlock",
                                    ws.label(f),
                                    a.id,
                                    ws.label(g)
                                ),
                                evidence: vec![here(
                                    a.line,
                                    format!("guard `{}` acquired here", a.id),
                                )],
                            },
                        ));
                    }
                }
            }
        }
    }

    // Cycle detection over the acquisition-order graph.
    for scc in cycles(&lock_edges) {
        let members: BTreeSet<&str> = scc.iter().map(String::as_str).collect();
        let mut evidence: Vec<Evidence> = Vec::new();
        for ((a, b), ev) in &lock_edges {
            if members.contains(a.as_str()) && members.contains(b.as_str()) {
                evidence.extend(ev.iter().cloned());
            }
        }
        evidence.truncate(12);
        // Anchor the finding at the smallest (path, line) evidence site
        // so a `lint:allow` can bind to a real source line.
        let Some(anchor) =
            evidence.iter().filter(|e| !e.path.is_empty()).min_by(|x, y| {
                x.path.cmp(&y.path).then(x.line.cmp(&y.line))
            })
        else {
            continue;
        };
        let file = units.iter().position(|u| u.path == anchor.path);
        let Some(file) = file else { continue };
        out.push((
            file,
            RawFinding {
                rule: "lock-order",
                line: anchor.line,
                message: format!(
                    "lock-order cycle across {{{}}} — opposite acquisition orders can \
                     deadlock; pick one global order",
                    scc.join(", ")
                ),
                evidence,
            },
        ));
    }

    // ---- interprocedural panic-path ---------------------------------
    // Entry points: non-test functions defined in the rule's scoped
    // files. Reachability (BFS in deterministic id order) extends the
    // scope to every resolvable callee; findings carry the witness
    // chain. Functions whose own file is already in scope are linted by
    // the per-file pass and skipped here.
    let pp_spec = spec("panic-path");
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: Vec<usize> = (0..ws.fns.len())
        .filter(|&f| path_in_scope(ws.path(f), pp_spec))
        .collect();
    let mut seen: BTreeSet<usize> = queue.iter().copied().collect();
    let mut head = 0;
    while head < queue.len() {
        let f = queue[head];
        head += 1;
        for &g in &edges[f] {
            if seen.insert(g) {
                parent.insert(g, f);
                queue.push(g);
            }
        }
    }
    let mut reached: Vec<usize> = seen
        .iter()
        .copied()
        .filter(|&f| !path_in_scope(ws.path(f), pp_spec))
        .collect();
    reached.sort_by(|&x, &y| {
        ws.path(x).cmp(ws.path(y)).then(ws.fns[x].body.0.cmp(&ws.fns[y].body.0))
    });
    for f in reached {
        let (b0, b1) = ws.fns[f].body;
        let sites = panic_sites(ws.toks(f), b0 + 1, b1);
        if sites.is_empty() {
            continue;
        }
        // Witness chain back to an entry point (capped).
        let mut chain: Vec<Evidence> = Vec::new();
        let mut cur = f;
        while let Some(&p) = parent.get(&cur) {
            chain.push(Evidence {
                path: ws.path(p).to_string(),
                line: ws.fns[p].line,
                note: format!("called from `{}`", ws.label(p)),
            });
            cur = p;
            if chain.len() >= 6 {
                break;
            }
        }
        if let Some(last) = chain.last_mut() {
            last.note.push_str(" (recovery/decode entry point)");
        }
        for (i, what, advice) in sites {
            out.push((
                ws.fns[f].file,
                RawFinding {
                    rule: "panic-path",
                    line: ws.toks(f)[i].line,
                    message: format!(
                        "{what} in `{}`, reachable from a recovery/decode entry point — {advice}",
                        ws.label(f)
                    ),
                    evidence: chain.clone(),
                },
            ));
        }
    }

    out
}

/// Strongly connected components of size ≥ 2 in the lock-order graph,
/// each returned as a sorted node list (deterministic: Tarjan over
/// sorted nodes and sorted adjacency).
fn cycles(edges: &BTreeMap<(String, String), Vec<Evidence>>) -> Vec<Vec<String>> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        nodes.insert(a);
        nodes.insert(b);
        adj.entry(a).or_default().push(b);
    }
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let names: Vec<&str> = nodes.iter().copied().collect();
    let n = names.len();
    let adj_ix: Vec<Vec<usize>> = names
        .iter()
        .map(|name| {
            adj.get(name)
                .map(|v| v.iter().map(|t| index_of[t]).collect())
                .unwrap_or_default()
        })
        .collect();

    // Iterative Tarjan.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<String>> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // (node, next child position)
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut ci)) = work.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj_ix[v].get(*ci) {
                *ci += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(p, _)) = work.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(names[w].to_string());
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() >= 2 {
                        comp.sort();
                        sccs.push(comp);
                    }
                }
            }
        }
    }
    sccs.sort();
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(path: &str, src: &str) -> FileUnit {
        FileUnit::build(path, src)
    }

    #[test]
    fn resolution_self_path_and_bare() {
        let u = unit(
            "crates/x/src/lib.rs",
            "
            struct A; struct B;
            impl A { fn go(&self) { self.step(); B::boot(); free(); } fn step(&self) {} }
            impl B { fn boot() {} }
            fn free() {}
            ",
        );
        let units = [u];
        let ws = Workspace::build(&units);
        let go = ws.fns.iter().position(|f| f.name == "go").unwrap();
        let sites = ws.call_sites(go);
        let names: Vec<(&str, Vec<String>)> = sites
            .iter()
            .map(|c| {
                let r = ws.resolve(go, c);
                (c.name.as_str(), r.iter().map(|&g| ws.label(g)).collect())
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("step", vec!["A::step".to_string()]),
                ("boot", vec!["B::boot".to_string()]),
                ("free", vec!["free".to_string()]),
            ]
        );
    }

    #[test]
    fn ambiguous_bare_names_do_not_resolve() {
        let src: String = (0..AMBIGUITY_CAP + 1)
            .map(|i| format!("mod m{i} {{ pub fn shared() {{}} }}\n"))
            .chain(["fn caller() { shared(); }".to_string()])
            .collect();
        let units = [unit("crates/x/src/lib.rs", &src)];
        let ws = Workspace::build(&units);
        let caller = ws.fns.iter().position(|f| f.name == "caller").unwrap();
        let sites = ws.call_sites(caller);
        assert_eq!(sites.len(), 1);
        assert!(ws.resolve(caller, &sites[0]).is_empty(), "over-cap name must not resolve");
    }

    #[test]
    fn guard_ranges_let_vs_temporary() {
        let units = [unit(
            "crates/x/src/lib.rs",
            "
            struct S { a: M, b: M }
            impl S {
                fn both(&self) {
                    let g = self.a.lock();
                    self.b.lock().touch();
                    drop(g);
                    self.b.lock().touch();
                }
            }
            ",
        )];
        let ws = Workspace::build(&units);
        let f = ws.fns.iter().position(|f| f.name == "both").unwrap();
        let acqs = ws.lock_acqs(f);
        assert_eq!(acqs.len(), 3);
        assert_eq!(acqs[0].id, "S.a");
        assert_eq!(acqs[1].id, "S.b");
        // The let-bound guard covers the first b acquisition (edge), but
        // dies at drop(g) — the second b acquisition is outside it.
        assert!(acqs[1].tok <= acqs[0].end, "b#1 inside a's live range");
        assert!(acqs[2].tok > acqs[0].end, "b#2 after drop(g)");
        // Temporaries end at their own statement.
        assert!(acqs[1].end < acqs[2].tok);
    }

    #[test]
    fn scc_finds_two_lock_cycle() {
        let ev = |p: &str| vec![Evidence { path: p.into(), line: 1, note: "x".into() }];
        let mut edges = BTreeMap::new();
        edges.insert(("A".to_string(), "B".to_string()), ev("f"));
        edges.insert(("B".to_string(), "A".to_string()), ev("g"));
        edges.insert(("B".to_string(), "C".to_string()), ev("h"));
        let sccs = cycles(&edges);
        assert_eq!(sccs, vec![vec!["A".to_string(), "B".to_string()]]);
    }
}
