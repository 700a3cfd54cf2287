//! The interprocedural analysis passes.
//!
//! * **`lock-order`** — collapses every acquisition into class-level
//!   edges `held → acquired` (direct, and through calls via the callee's
//!   transitive acquisition summary), then reports any cycle in the
//!   class digraph. Self-edges are ignored: an indexed lock pool
//!   collapses to one `<prefix>*` node, whose intra-pool order is the
//!   runtime detector's job, and it would otherwise always self-loop.
//! * **`guard-blocking-op`** — reports any site where a lock guard is
//!   live across a filesystem barrier: a direct `sync_all` /
//!   `sync_data` / `fs::rename`, or a call whose callee may reach one.
//! * **`atomic-ordering`** — every atomic operation must name its
//!   `Ordering` literally at the call site, and `SeqCst` inside a
//!   hot-path file needs a written justification (a reasoned
//!   suppression).
//!
//! Findings can be suppressed with `// laqy-lint: allow(<rule>) -- <reason>`
//! on the same line or the line above. The reason is mandatory: a bare
//! `allow(<rule>)` still suppresses, but raises a `suppression-reason`
//! error so it cannot land silently.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use super::callgraph::Graph;
use super::parser::ParsedFile;
use crate::Finding;

/// Read-modify-write atomic methods: always atomic, no receiver check.
const ATOMIC_RMW: [&str; 11] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
];

/// Method names shared with non-atomic types; only flagged when the
/// receiver is a known atomic field, static, or local.
const ATOMIC_AMBIGUOUS: [&str; 3] = ["load", "store", "swap"];

/// The five memory-ordering literals.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn required_orderings(method: &str) -> usize {
    match method {
        "compare_exchange" | "compare_exchange_weak" | "fetch_update" => 2,
        _ => 1,
    }
}

/// Run all passes over the graph. Findings are unsuppressed and sorted
/// by location; suppression handling happens in
/// [`analyze_tree`](super::analyze_tree).
pub fn run(g: &Graph) -> Vec<Finding> {
    let mut findings = Vec::new();
    lock_order(g, &mut findings);
    guard_blocking(g, &mut findings);
    atomic_ordering(g, &mut findings);
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.file, b.line, b.col, b.rule, &b.message))
    });
    findings
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

struct Witness {
    file: usize,
    ci: usize,
    detail: String,
}

/// Every class-level `held → acquired` edge of the graph, as
/// [`lock_order`] collects them.
pub fn lock_edges(g: &Graph) -> BTreeSet<(String, String)> {
    witnessed_edges(g).into_keys().collect()
}

/// Every class-level `held → acquired` edge with its first witness, in
/// deterministic walk order.
fn witnessed_edges(g: &Graph) -> BTreeMap<(String, String), Witness> {
    let mut edges: BTreeMap<(String, String), Witness> = BTreeMap::new();
    for f in &g.fns {
        for a in &f.acqs {
            for h in &a.held {
                if *h != a.class {
                    edges
                        .entry((h.clone(), a.class.clone()))
                        .or_insert_with(|| Witness {
                            file: f.file,
                            ci: a.ci,
                            detail: String::new(),
                        });
                }
            }
        }
        for c in &f.calls {
            if c.held.is_empty() {
                continue;
            }
            let mut transitive: BTreeSet<&str> = BTreeSet::new();
            for &t in &c.targets {
                transitive.extend(g.fns[t].acquires_any.iter().map(String::as_str));
            }
            for cls in transitive {
                for h in &c.held {
                    if h != cls {
                        edges
                            .entry((h.clone(), cls.to_string()))
                            .or_insert_with(|| Witness {
                                file: f.file,
                                ci: c.ci,
                                detail: format!(" via call to `{}`", c.name),
                            });
                    }
                }
            }
        }
    }
    edges
}

fn lock_order(g: &Graph, findings: &mut Vec<Finding>) {
    let edges = witnessed_edges(g);
    // Adjacency + cycle search: for each node, BFS for a shortest path
    // back to itself; report each cycle once (keyed on its node set).
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys().map(|(a, b)| (a.as_str(), b.as_str())) {
        adj.entry(from).or_default().insert(to);
        adj.entry(to).or_default();
    }
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in adj.keys() {
        let Some(path) = shortest_cycle(&adj, start) else {
            continue;
        };
        let mut key: Vec<String> = path[..path.len() - 1]
            .iter()
            .map(|s| s.to_string())
            .collect();
        key.sort();
        if !reported.insert(key) {
            continue;
        }
        // Render `a -> b (via …) -> a`, anchored at the first edge's
        // witness span.
        let mut msg = String::from("potential lock-order cycle: ");
        for (i, node) in path.iter().enumerate() {
            if i > 0 {
                let w = &edges[&(path[i - 1].to_string(), node.to_string())];
                let pf = &g.files[w.file];
                let (line, col) = pf.span(w.ci);
                msg.push_str(&format!(" -> {node} ({}:{line}:{col}{})", pf.rel, w.detail));
            } else {
                msg.push_str(node);
            }
        }
        msg.push_str("; acquire classes in the canonical order documented in laqy_sync::classes");
        let first = &edges[&(path[0].to_string(), path[1].to_string())];
        let pf = &g.files[first.file];
        let (line, col) = pf.span(first.ci);
        findings.push(Finding {
            file: pf.rel.clone(),
            line,
            col,
            rule: "lock-order",
            message: msg,
        });
    }
}

/// Shortest cycle from `start` back to `start`, as the node path
/// `[start, …, start]`; `None` if `start` is not on a cycle.
fn shortest_cycle<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    start: &'a str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    for &n in adj.get(start)? {
        if n == start {
            return Some(vec![start, start]);
        }
        if !prev.contains_key(n) {
            prev.insert(n, start);
            queue.push_back(n);
        }
    }
    while let Some(n) = queue.pop_front() {
        for &m in adj.get(n).into_iter().flatten() {
            if m == start {
                let mut path = vec![start, n];
                let mut cur = n;
                while let Some(&p) = prev.get(cur) {
                    if p == start {
                        break;
                    }
                    path.push(p);
                    cur = p;
                }
                path.push(start);
                // path is [start, n, …back…]; reverse the middle so it
                // reads start -> … -> n -> start.
                let mut ordered = vec![path[0]];
                ordered.extend(path[1..path.len() - 1].iter().rev());
                ordered.push(path[path.len() - 1]);
                return Some(ordered);
            }
            if !prev.contains_key(m) {
                prev.insert(m, n);
                queue.push_back(m);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// guard-blocking-op
// ---------------------------------------------------------------------------

fn guard_blocking(g: &Graph, findings: &mut Vec<Finding>) {
    for f in &g.fns {
        let pf = &g.files[f.file];
        for b in &f.blocks {
            if b.held.is_empty() {
                continue;
            }
            let (line, col) = pf.span(b.ci);
            findings.push(Finding {
                file: pf.rel.clone(),
                line,
                col,
                rule: "guard-blocking-op",
                message: format!(
                    "guard on {} held across `{}`; hoist the barrier out of the critical \
                     section or suppress with a written reason",
                    held_list(&b.held),
                    b.op
                ),
            });
        }
        for c in &f.calls {
            if c.held.is_empty() {
                continue;
            }
            if !c.targets.iter().any(|&t| g.fns[t].may_block) {
                continue;
            }
            let op = reachable_op(g, &c.targets).unwrap_or("a blocking barrier");
            let (line, col) = pf.span(c.ci);
            findings.push(Finding {
                file: pf.rel.clone(),
                line,
                col,
                rule: "guard-blocking-op",
                message: format!(
                    "guard on {} held across call to `{}`, which may reach `{}`; hoist the \
                     I/O out of the critical section or suppress with a written reason",
                    held_list(&c.held),
                    c.name,
                    op
                ),
            });
        }
    }
}

fn held_list(held: &[String]) -> String {
    held.iter()
        .map(|h| format!("`{h}`"))
        .collect::<Vec<_>>()
        .join(" + ")
}

/// BFS through the call graph for the first concrete blocking op
/// reachable from `roots` (deterministic: nodes explored in index
/// order).
fn reachable_op(g: &Graph, roots: &[usize]) -> Option<&'static str> {
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in roots {
        if seen.insert(r) {
            queue.push_back(r);
        }
    }
    while let Some(i) = queue.pop_front() {
        if let Some(b) = g.fns[i].blocks.first() {
            return Some(b.op);
        }
        for c in &g.fns[i].calls {
            for &t in &c.targets {
                if g.fns[t].may_block && seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// atomic-ordering
// ---------------------------------------------------------------------------

fn atomic_ordering(g: &Graph, findings: &mut Vec<Finding>) {
    for pf in &g.files {
        if pf.rel.starts_with("crates/sync/") {
            continue;
        }
        // Locals bound to `Atomic*::new(…)` join the known receivers.
        let mut atomics: BTreeSet<String> = g.atomic_names.clone();
        let n = pf.code.len();
        for i in 0..n {
            if pf.text(i).starts_with("Atomic")
                && i + 2 < n
                && pf.text(i + 1) == "::"
                && pf.text(i + 2) == "new"
            {
                if let Some(binder) = super::callgraph::find_binder(pf, i) {
                    atomics.insert(binder);
                }
            }
        }
        for i in 0..n {
            if pf.in_test[i] || pf.text(i) != "." || i + 2 >= n || pf.text(i + 2) != "(" {
                continue;
            }
            let method = pf.text(i + 1);
            let rmw = ATOMIC_RMW.contains(&method);
            let ambiguous = ATOMIC_AMBIGUOUS.contains(&method);
            if !rmw && !ambiguous {
                continue;
            }
            let recv = receiver_name(pf, i);
            if ambiguous && !recv.as_deref().is_some_and(|r| atomics.contains(r)) {
                continue;
            }
            let recv = recv.unwrap_or_else(|| "<expr>".to_string());
            // Count ordering literals among the arguments.
            let close = match_close_code(pf, i + 2, n);
            let named: Vec<&str> = (i + 3..close)
                .map(|c| pf.text(c))
                .filter(|t| ORDERINGS.contains(t))
                .collect();
            let method = method.to_string();
            let (line, col) = pf.span(i + 1);
            if named.len() < required_orderings(&method) {
                findings.push(Finding {
                    file: pf.rel.clone(),
                    line,
                    col,
                    rule: "atomic-ordering",
                    message: format!(
                        "`{method}` on atomic `{recv}` does not name an explicit `Ordering` \
                         literally at the call site"
                    ),
                });
            }
            if named.contains(&"SeqCst") && crate::HOT_PATHS.contains(&pf.rel.as_str()) {
                findings.push(Finding {
                    file: pf.rel.clone(),
                    line,
                    col,
                    rule: "atomic-ordering",
                    message: format!(
                        "`SeqCst` on hot-path atomic `{recv}`; use the weakest correct \
                         ordering, or keep it with `laqy-lint: allow(atomic-ordering) -- <why>`"
                    ),
                });
            }
        }
    }
}

/// The field/variable a method is invoked on: the identifier before the
/// `.` at code index `i`, skipping one index expression (`x[i].m()`).
fn receiver_name(pf: &ParsedFile, i: usize) -> Option<String> {
    let mut r = i.checked_sub(1)?;
    if pf.text(r) == "]" {
        let mut depth = 0i32;
        loop {
            match pf.text(r) {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            r = r.checked_sub(1)?;
        }
        r = r.checked_sub(1)?;
    }
    (pf.tok(r).kind == super::lexer::TokKind::Ident).then(|| pf.text(r).to_string())
}

fn match_close_code(pf: &ParsedFile, open: usize, n: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < n {
        match pf.text(i) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    n - 1
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// One parsed `laqy-lint: allow(…)` comment.
pub struct Suppression {
    /// Line/col of the comment itself (for `suppression-reason`).
    pub line: usize,
    /// 1-based column of the comment token.
    pub col: usize,
    /// The line whose findings it suppresses.
    pub target_line: usize,
    /// Rule ids listed inside `allow(…)`.
    pub rules: Vec<String>,
    /// A non-empty reason follows `--`.
    pub has_reason: bool,
}

/// Collect `// laqy-lint: allow(<rules>) -- <reason>` comments. A
/// trailing comment suppresses its own line; a comment alone on a line
/// suppresses the next line.
pub fn collect_suppressions(pf: &ParsedFile) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (ti, tok) in pf.toks.iter().enumerate() {
        if !tok.is_trivia() {
            continue;
        }
        let text = tok.text(&pf.src);
        let Some(pos) = text.find("laqy-lint:") else {
            continue;
        };
        let rest = &text[pos + "laqy-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let after = &rest[open + "allow(".len()..];
        let Some(close) = after.find(')') else {
            continue;
        };
        // Every listed rule must look like a rule id — prose that merely
        // *describes* the syntax (`laqy-lint: allow(…)` in a doc comment)
        // is not a suppression.
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let well_formed = |r: &String| {
            r.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                && r.starts_with(|c: char| c.is_ascii_lowercase())
        };
        if rules.is_empty() || !rules.iter().all(well_formed) {
            continue;
        }
        let tail = &after[close + 1..];
        let has_reason = tail
            .find("--")
            .is_some_and(|d| !tail[d + 2..].trim_matches(['*', '/', ' ', '\t']).is_empty());
        let code_before = pf.toks[..ti]
            .iter()
            .any(|t| t.line == tok.line && !t.is_trivia());
        let target_line = if code_before { tok.line } else { tok.line + 1 };
        out.push(Suppression {
            line: tok.line,
            col: tok.col,
            target_line,
            rules,
            has_reason,
        });
    }
    out
}
