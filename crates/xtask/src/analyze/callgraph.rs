//! Per-workspace call graph with function summaries.
//!
//! Built on the [`parser`](super::parser): every non-test `fn` in the
//! analyzed tree becomes a node; bodies are walked with a lightweight
//! block/statement tracker that models **guard lifetimes**:
//!
//! * `let g = x.lock();` — held until the end of the enclosing block or
//!   an explicit `drop(g)`;
//! * `x.lock().foo()` or a guard inside a larger expression — held until
//!   the end of the statement (a conservative approximation of Rust's
//!   temporary-drop rules: `match` scrutinee guards genuinely live
//!   through the whole match, `if` condition temps are over-approximated
//!   by a statement's worth);
//! * `fn catalog(&self) -> …Guard…` — acquisitions inside a function
//!   whose return type names a guard escape to the caller; a caller that
//!   `let`-binds such a call holds the class.
//!
//! Lock classes come from `Mutex::named` / `RwLock::named` /
//! `Condvar::named` construction sites: the name argument is resolved
//! statically (string literal, local or `laqy_sync::classes` `const`,
//! or an indexed array of names) and attributed to the
//! struct field or binding under construction, so later `.lock()` /
//! `.read()` / `.write()` calls on that receiver resolve to the class.
//!
//! Calls are resolved by name plus an impl-type / module / file-stem
//! hint when the call is path-qualified or goes through `self`. A call
//! with no hint (`recv.method(…)` on an untyped receiver, or a bare
//! `helper(…)`) resolves only within the caller's **own crate** —
//! linking common method names like `.get(…)` or `.append(…)` to every
//! same-named function workspace-wide would saturate the summaries with
//! false may-block/may-acquire facts — and a bare `helper(…)` only to
//! free functions. Every call links to a non-`pub` function only from
//! where Rust lets it be seen: its own file and the files under its
//! module's directory. Two fixpoints then summarize each
//! function: the set of lock classes it may acquire (directly or
//! transitively) and whether it may reach a blocking filesystem barrier
//! (`sync_all` / `sync_data` / `fs::rename`).

use std::collections::{BTreeMap, BTreeSet};

use super::parser::{parse_file, unquote, ConstVal, FnItem, ParsedFile};

/// A lock acquisition site.
#[derive(Debug, Clone)]
pub struct Acq {
    /// Collapsed class label (family members become `<prefix>*`).
    pub class: String,
    /// Code-token index of the method name (`lock` / `read` / `write`).
    pub ci: usize,
    /// Class labels held when this acquisition runs.
    pub held: Vec<String>,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Qualifier hint: `Type::name(…)` / `self.name(…)` / module path.
    pub hint: Option<String>,
    /// Written as a bare `name(…)`: only a free function can be the
    /// callee.
    pub bare: bool,
    /// Code-token index of the callee name.
    pub ci: usize,
    /// Class labels held when the call runs.
    pub held: Vec<String>,
    /// Resolved callee node indices.
    pub targets: Vec<usize>,
}

/// A direct blocking-barrier site (`sync_all` / `sync_data` / `fs::rename`).
#[derive(Debug, Clone)]
pub struct BlockSite {
    /// The operation name, for messages.
    pub op: &'static str,
    /// Code-token index of the operation name.
    pub ci: usize,
    /// Class labels held when the barrier runs.
    pub held: Vec<String>,
}

/// One function node with its summaries.
pub struct FnNode {
    /// Index into [`Graph::files`].
    pub file: usize,
    /// The parsed item.
    pub item: FnItem,
    /// Direct acquisitions, in body order.
    pub acqs: Vec<Acq>,
    /// Direct calls, in body order.
    pub calls: Vec<CallSite>,
    /// Direct blocking sites, in body order.
    pub blocks: Vec<BlockSite>,
    /// Guard classes this function returns to its caller.
    pub returns_guards: BTreeSet<String>,
    /// Classes this function may acquire, directly or transitively.
    pub acquires_any: BTreeSet<String>,
    /// May this function reach a blocking barrier (transitively)?
    pub may_block: bool,
}

/// The whole-workspace graph.
pub struct Graph {
    /// Parsed files, in deterministic path order.
    pub files: Vec<ParsedFile>,
    /// Function nodes (non-test functions with bodies, plus bodiless
    /// declarations for name resolution).
    pub fns: Vec<FnNode>,
    /// Lock binder name → collapsed class label.
    pub lock_fields: BTreeMap<String, String>,
    /// Known atomic receivers: struct fields and statics of atomic type.
    pub atomic_names: BTreeSet<String>,
}

/// Methods that acquire when called with no arguments on a lock field.
const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Method names excluded from call resolution: lock acquisitions and
/// blocking barriers are modeled separately, and generic names like
/// `read`/`write` would otherwise link to unrelated I/O impls.
const NON_CALL_NAMES: [&str; 5] = ["lock", "read", "write", "sync_all", "sync_data"];

const KEYWORDS: [&str; 24] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "mut",
    "fn", "move", "ref", "in", "as", "where", "impl", "dyn", "box", "unsafe", "async", "await",
    "yield",
];

/// Collapse a concrete lock name to its class label. Names registered
/// in `laqy_sync::classes` are their own class; unregistered names with a
/// trailing index collapse to `<prefix>*`, so an indexed family of locks
/// (a lock pool named from an array) is one class.
pub fn class_label(name: &str) -> String {
    if let Some(def) = laqy_sync::classes::class_of(name) {
        return def.name.to_string();
    }
    let stripped = name.trim_end_matches(|c: char| c.is_ascii_digit());
    if stripped.len() < name.len() && !stripped.is_empty() {
        return format!("{stripped}*");
    }
    name.to_string()
}

/// The registry constants exported by `laqy_sync::classes`, addressable
/// from analyzed source as `classes::WAL`, `classes::STORE`, etc.
fn registry_consts() -> BTreeMap<String, ConstVal> {
    use laqy_sync::classes as c;
    let mut m = BTreeMap::new();
    m.insert("WAL".into(), ConstVal::Str(c::WAL.into()));
    m.insert("CATALOG".into(), ConstVal::Str(c::CATALOG.into()));
    m.insert("INFLIGHT_CV".into(), ConstVal::Str(c::INFLIGHT_CV.into()));
    m.insert("STORE".into(), ConstVal::Str(c::STORE.into()));
    m.insert(
        "INFLIGHT_REGISTRY".into(),
        ConstVal::Str(c::INFLIGHT_REGISTRY.into()),
    );
    m
}

/// Build the graph from `(rel_path, source)` pairs. Files under
/// `crates/sync/` are parsed for constants but their bodies are not
/// analyzed: the primitives *implement* the locking discipline (their
/// internals are covered by the loom-lite model checker), they don't
/// follow it.
pub fn build(sources: Vec<(String, String)>) -> Graph {
    let files: Vec<ParsedFile> = sources
        .into_iter()
        .map(|(rel, src)| parse_file(&rel, src))
        .collect();

    // Merged const table: registry first, then file-local definitions
    // (first definition wins on collision).
    let mut consts = registry_consts();
    for pf in &files {
        for (name, val) in &pf.consts {
            consts.entry(name.clone()).or_insert_with(|| val.clone());
        }
    }

    // Lock binder discovery across all files (including sync's own
    // tests? no — test code is already excluded by the parser marks;
    // binder sites in skipped sync bodies are harmless).
    let mut lock_fields = BTreeMap::new();
    let mut atomic_names = BTreeSet::new();
    for pf in &files {
        for name in &pf.atomic_fields {
            atomic_names.insert(name.clone());
        }
        collect_lock_fields(pf, &consts, &mut lock_fields);
    }

    // Function nodes. Test functions and `crates/sync` internals are
    // excluded from analysis (and from being call targets).
    let mut fns = Vec::new();
    for (fi, pf) in files.iter().enumerate() {
        if is_sync_internal(&pf.rel) {
            continue;
        }
        for item in &pf.fns {
            if item.is_test {
                continue;
            }
            fns.push(FnNode {
                file: fi,
                item: item.clone(),
                acqs: Vec::new(),
                calls: Vec::new(),
                blocks: Vec::new(),
                returns_guards: BTreeSet::new(),
                acquires_any: BTreeSet::new(),
                may_block: false,
            });
        }
    }

    let mut g = Graph {
        files,
        fns,
        lock_fields,
        atomic_names,
    };

    // Phase 1: walk bodies without guard-return knowledge to seed the
    // direct acquisition sets, then derive `returns_guards`.
    let empty = GuardIndex::new();
    walk_all(&mut g, &empty);
    let mut guard_map: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        if f.item.ret_guard {
            let classes: BTreeSet<String> = f.acqs.iter().map(|a| a.class.clone()).collect();
            if !classes.is_empty() {
                guard_map.insert(i, classes);
            }
        }
    }
    for (i, classes) in &guard_map {
        g.fns[*i].returns_guards = classes.clone();
    }

    // Phase 2: re-walk with guard returns visible, producing accurate
    // held sets, then resolve calls and run the summary fixpoint.
    let by_name = name_index(&g);
    let mut guard_index: GuardIndex = BTreeMap::new();
    for (i, classes) in &guard_map {
        let f = &g.fns[*i];
        let rel = &g.files[f.file].rel;
        guard_index
            .entry(f.item.name.clone())
            .or_default()
            .push(GuardCand {
                crate_key: crate_key(rel).to_string(),
                impl_type: f.item.impl_type.clone(),
                module_last: f.item.module.last().cloned(),
                file_stem: file_stem(rel).to_string(),
                rel: rel.clone(),
                is_pub: f.item.is_pub,
                classes: classes.clone(),
            });
    }
    walk_all(&mut g, &guard_index);
    resolve_calls(&mut g, &by_name);
    fixpoint(&mut g);
    g
}

/// One guard-returning candidate, carrying enough location metadata for
/// the phase-2 walker to apply the same hint/crate resolution rules as
/// [`resolve_calls`]: `cfg.catalog()` on a bench config must not be
/// credited with the guard that `Service::catalog` returns.
struct GuardCand {
    crate_key: String,
    impl_type: Option<String>,
    module_last: Option<String>,
    file_stem: String,
    /// Where the candidate is defined and whether it is `pub`, for
    /// [`visible`].
    rel: String,
    is_pub: bool,
    classes: BTreeSet<String>,
}

/// Callee name → guard-returning candidates.
type GuardIndex = BTreeMap<String, Vec<GuardCand>>;

fn is_sync_internal(rel: &str) -> bool {
    rel.starts_with("crates/sync/")
}

/// Map function name → node indices (bodied, non-test only need apply
/// as call targets; bodiless declarations resolve but contribute no
/// effects).
fn name_index(g: &Graph) -> BTreeMap<String, Vec<usize>> {
    let mut m: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        m.entry(f.item.name.clone()).or_default().push(i);
    }
    m
}

/// File stem of a path (`crates/core/src/persist.rs` → `persist`).
fn file_stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs")
}

/// Crate key of a path (`crates/core/src/persist.rs` → `crates/core`;
/// anything outside `crates/` is the root crate, keyed `""`).
fn crate_key(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let end = rest.find('/').unwrap_or(rest.len());
        &rel[..("crates/".len() + end)]
    } else {
        ""
    }
}

/// Can a call written in file `from` see a function defined in file
/// `def`? A `pub` one, yes; a private one from its own file and from the
/// files under its module's directory (`src/a.rs` → `src/a/`, `src/lib.rs`
/// → `src/`).
fn visible(is_pub: bool, def: &str, from: &str) -> bool {
    let (dir, file) = def.rsplit_once('/').unwrap_or(("", def));
    let module_dir = match file {
        "lib.rs" | "main.rs" | "mod.rs" => format!("{dir}/"),
        _ => format!("{dir}/{}/", file.trim_end_matches(".rs")),
    };
    is_pub || from == def || from.starts_with(&module_dir)
}

/// Does candidate node `t` match a qualifier hint `h`? True when the
/// hint names the candidate's impl type, innermost module, or file.
fn hint_matches(g: &Graph, t: usize, h: &str) -> bool {
    let f = &g.fns[t];
    f.item.impl_type.as_deref() == Some(h)
        || f.item.module.last().map(|m| m.as_str()) == Some(h)
        || file_stem(&g.files[f.file].rel) == h
}

/// Resolve every call site. Hinted calls link to the candidates the
/// hint selects (possibly none — a hint that matches nothing means the
/// callee is outside the workspace, e.g. `HashMap::new`). Hint-less
/// calls link to same-crate candidates only, a bare call to free
/// functions only. Either way a candidate the caller's file cannot see
/// ([`visible`]) is no target.
fn resolve_calls(g: &mut Graph, by_name: &BTreeMap<String, Vec<usize>>) {
    for i in 0..g.fns.len() {
        let caller = g.files[g.fns[i].file].rel.as_str();
        let caller_crate = crate_key(caller);
        let calls = std::mem::take(&mut g.fns[i].calls);
        let resolved: Vec<CallSite> = calls
            .into_iter()
            .map(|mut c| {
                let all: &[usize] = by_name.get(&c.name).map(|v| &v[..]).unwrap_or(&[]);
                let reaches = |t: usize| {
                    let (item, def) = (&g.fns[t].item, g.files[g.fns[t].file].rel.as_str());
                    let hinted = match &c.hint {
                        Some(h) => hint_matches(g, t, h),
                        None => {
                            crate_key(def) == caller_crate && !(c.bare && item.impl_type.is_some())
                        }
                    };
                    hinted && visible(item.is_pub, def, caller)
                };
                c.targets = all.iter().copied().filter(|&t| reaches(t)).collect();
                c
            })
            .collect();
        g.fns[i].calls = resolved;
    }
}

/// Fixpoint over `acquires_any` and `may_block`.
fn fixpoint(g: &mut Graph) {
    for f in &mut g.fns {
        f.acquires_any = f.acqs.iter().map(|a| a.class.clone()).collect();
        f.may_block = !f.blocks.is_empty();
    }
    loop {
        let mut changed = false;
        for i in 0..g.fns.len() {
            let mut acquired = g.fns[i].acquires_any.clone();
            let mut blocks = g.fns[i].may_block;
            for c in &g.fns[i].calls {
                for &t in &c.targets {
                    blocks |= g.fns[t].may_block;
                    for cls in &g.fns[t].acquires_any {
                        acquired.insert(cls.clone());
                    }
                }
            }
            if acquired.len() != g.fns[i].acquires_any.len() || blocks != g.fns[i].may_block {
                g.fns[i].acquires_any = acquired;
                g.fns[i].may_block = blocks;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Lock-field discovery
// ---------------------------------------------------------------------------

/// Scan a file for `Mutex::named(` / `RwLock::named(` / `Condvar::named(`
/// sites, resolve the name argument, and attribute it to the binder
/// under construction.
fn collect_lock_fields(
    pf: &ParsedFile,
    consts: &BTreeMap<String, ConstVal>,
    out: &mut BTreeMap<String, String>,
) {
    let n = pf.code.len();
    for i in 0..n {
        if pf.text(i) != "named" {
            continue;
        }
        if i < 2
            || pf.text(i - 1) != "::"
            || !matches!(pf.text(i - 2), "Mutex" | "RwLock" | "Condvar")
        {
            continue;
        }
        if i + 1 >= n || pf.text(i + 1) != "(" {
            continue;
        }
        let Some(class) = resolve_name_arg(pf, i + 2, n, consts) else {
            continue;
        };
        if let Some(binder) = find_binder(pf, i - 2) {
            out.entry(binder).or_insert(class);
        }
    }
}

/// Resolve the first argument of a `::named(` call to a class label.
fn resolve_name_arg(
    pf: &ParsedFile,
    lo: usize,
    n: usize,
    consts: &BTreeMap<String, ConstVal>,
) -> Option<String> {
    // Collect the first argument's tokens (up to `,` or `)` at depth 0).
    let mut depth = 0i32;
    let mut end = lo;
    while end < n {
        match pf.text(end) {
            "(" | "[" => depth += 1,
            ")" if depth == 0 => break,
            ")" | "]" => depth -= 1,
            "," if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    if lo >= end {
        return None;
    }
    if pf.tok(lo).kind == super::lexer::TokKind::Str {
        return Some(class_label(&unquote(pf.text(lo))));
    }
    // `path::CONST` or `path::ARR[idx]`: find the last ident before a
    // `[` (indexed) or before the end (scalar).
    let indexed = (lo..end).find(|&i| pf.text(i) == "[");
    let scan_end = indexed.unwrap_or(end);
    let name_ci = (lo..scan_end)
        .rev()
        .find(|&i| pf.tok(i).kind == super::lexer::TokKind::Ident)?;
    let val = lookup_const(consts, pf.text(name_ci), 0)?;
    match val {
        ConstVal::Str(s) => Some(class_label(&s)),
        ConstVal::StrArray(items) => {
            // Indexed family: uniform class label across members.
            let labels: BTreeSet<String> = items.iter().map(|s| class_label(s)).collect();
            labels.into_iter().next()
        }
        ConstVal::Alias(_) => None,
    }
}

fn lookup_const(consts: &BTreeMap<String, ConstVal>, name: &str, depth: usize) -> Option<ConstVal> {
    if depth > 4 {
        return None;
    }
    match consts.get(name)? {
        ConstVal::Alias(target) => lookup_const(consts, target, depth + 1),
        v => Some(v.clone()),
    }
}

/// Walk backwards from a `Mutex::named(…)` construction site to the
/// binder it initializes: a struct-literal field (`wal: Mutex::named…`,
/// possibly through iterator closures), a `let` binding, or a
/// `const`/`static` item. The atomic pass uses it to bind
/// `Atomic*::new(…)` locals and statics the same way.
pub(crate) fn find_binder(pf: &ParsedFile, site: usize) -> Option<String> {
    let mut depth = 0i32;
    let lo = site.saturating_sub(48);
    let mut j = site;
    while j > lo {
        j -= 1;
        match pf.text(j) {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => depth -= 1,
            "," | ";" if depth == 0 => return None,
            ":" if depth <= 0 && j > 0 && pf.tok(j - 1).kind == super::lexer::TokKind::Ident => {
                return Some(pf.text(j - 1).to_string());
            }
            "let" | "static" | "const" if depth <= 0 => {
                let mut k = j + 1;
                if pf.text(k) == "mut" {
                    k += 1;
                }
                if pf.tok(k).kind == super::lexer::TokKind::Ident {
                    return Some(pf.text(k).to_string());
                }
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Body walker
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Held {
    class: String,
    binder: Option<String>,
}

struct Walker<'a> {
    pf: &'a ParsedFile,
    lock_fields: &'a BTreeMap<String, String>,
    /// Known atomic receivers: a method called on one is an atomic
    /// operation, never a workspace function.
    atomic_names: &'a BTreeSet<String>,
    /// Guard-returning candidates by callee name (phase 2 only).
    guard_returns: &'a GuardIndex,
    impl_type: Option<String>,
    /// Crate key of the file being walked, for hint-less resolution.
    crate_key: String,
    /// Path of the file being walked, for [`visible`].
    rel: &'a str,
    acqs: Vec<Acq>,
    calls: Vec<CallSite>,
    blocks: Vec<BlockSite>,
}

fn walk_all(g: &mut Graph, guard_returns: &GuardIndex) {
    for i in 0..g.fns.len() {
        let Some((lo, hi)) = g.fns[i].item.body else {
            continue;
        };
        let pf = &g.files[g.fns[i].file];
        let mut w = Walker {
            pf,
            lock_fields: &g.lock_fields,
            atomic_names: &g.atomic_names,
            guard_returns,
            impl_type: g.fns[i].item.impl_type.clone(),
            crate_key: crate_key(&pf.rel).to_string(),
            rel: &pf.rel,
            acqs: Vec::new(),
            calls: Vec::new(),
            blocks: Vec::new(),
        };
        let mut held = Vec::new();
        w.block(lo, hi, &mut held);
        g.fns[i].acqs = w.acqs;
        g.fns[i].calls = w.calls;
        g.fns[i].blocks = w.blocks;
    }
}

impl Walker<'_> {
    fn text(&self, i: usize) -> &str {
        self.pf.text(i)
    }

    fn is_ident(&self, i: usize) -> bool {
        self.pf.tok(i).kind == super::lexer::TokKind::Ident
    }

    fn match_close(&self, open: usize, hi: usize) -> usize {
        let (o, c) = match self.text(open) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            _ => ("{", "}"),
        };
        let mut depth = 0usize;
        let mut i = open;
        while i < hi {
            let t = self.text(i);
            if t == o {
                depth += 1;
            } else if t == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        hi.saturating_sub(1)
    }

    fn snapshot(held: &[Held], temps: &[Held]) -> Vec<String> {
        let set: BTreeSet<&str> = held
            .iter()
            .chain(temps.iter())
            .map(|h| h.class.as_str())
            .collect();
        set.into_iter().map(String::from).collect()
    }

    /// After a close-paren, is the rest of the statement only closers
    /// (so a `let` statement binds the value directly)?
    fn tail_of_let(&self, mut i: usize, hi: usize) -> bool {
        loop {
            i += 1;
            if i >= hi {
                return false;
            }
            match self.text(i) {
                ")" | "]" | "?" => {}
                ";" => return true,
                _ => return false,
            }
        }
    }

    /// `.lock()` / `.read()` / `.write()` on a known lock field at the
    /// `.` token `i`: returns the class.
    fn acquisition_at(&self, i: usize, hi: usize) -> Option<String> {
        if i + 3 >= hi
            || self.text(i) != "."
            || !ACQUIRE_METHODS.contains(&self.text(i + 1))
            || self.text(i + 2) != "("
            || self.text(i + 3) != ")"
        {
            return None;
        }
        let mut r = i.checked_sub(1)?;
        if self.text(r) == "]" {
            // skip the index expression backwards
            let mut depth = 0i32;
            loop {
                match self.text(r) {
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
        if !self.is_ident(r) {
            return None;
        }
        self.lock_fields.get(self.text(r)).cloned()
    }

    /// Blocking barrier at token `i`: `.sync_all(` / `.sync_data(` /
    /// `fs::rename(`.
    fn blocking_at(&self, i: usize, hi: usize) -> Option<(&'static str, usize)> {
        if self.text(i) == "."
            && i + 2 < hi
            && self.text(i + 2) == "("
            && matches!(self.text(i + 1), "sync_all" | "sync_data")
        {
            let op = if self.text(i + 1) == "sync_all" {
                "sync_all"
            } else {
                "sync_data"
            };
            return Some((op, i + 1));
        }
        if self.text(i) == "rename"
            && i + 1 < hi
            && self.text(i + 1) == "("
            && i >= 2
            && self.text(i - 1) == "::"
            && self.text(i - 2) == "fs"
        {
            return Some(("fs::rename", i));
        }
        None
    }

    fn block(&mut self, lo: usize, hi: usize, held: &mut Vec<Held>) {
        let base = held.len();
        let mut i = lo;
        while i < hi {
            i = self.stmt(i, hi, held);
        }
        held.truncate(base);
    }

    /// Walk one statement starting at `start`; returns the index just
    /// past it.
    fn stmt(&mut self, start: usize, hi: usize, held: &mut Vec<Held>) -> usize {
        let is_let = self.text(start) == "let";
        let binder: Option<String> = if is_let {
            let mut b = start + 1;
            if b < hi && self.text(b) == "mut" {
                b += 1;
            }
            (b < hi && self.is_ident(b)).then(|| self.text(b).to_string())
        } else {
            None
        };
        let mut temps: Vec<Held> = Vec::new();
        let mut i = start;
        let mut depth = 0i32;
        while i < hi {
            let t = self.text(i);
            if t == "{" {
                let close = self.match_close(i, hi);
                let mark = held.len();
                held.extend(temps.iter().cloned());
                self.block(i + 1, close, held);
                held.truncate(mark);
                i = close + 1;
                if depth == 0 {
                    if i < hi && matches!(self.text(i), "else" | "." | "?") {
                        continue;
                    }
                    if i < hi && self.text(i) == ";" {
                        i += 1;
                    }
                    break;
                }
                continue;
            }
            if let Some(class) = self.acquisition_at(i, hi) {
                let close = i + 3;
                self.acqs.push(Acq {
                    class: class.clone(),
                    ci: i + 1,
                    held: Self::snapshot(held, &temps),
                });
                if is_let && self.tail_of_let(close, hi) {
                    held.push(Held {
                        class,
                        binder: binder.clone(),
                    });
                } else {
                    temps.push(Held {
                        class,
                        binder: None,
                    });
                }
                i = close + 1;
                continue;
            }
            if let Some((op, ci)) = self.blocking_at(i, hi) {
                self.blocks.push(BlockSite {
                    op,
                    ci,
                    held: Self::snapshot(held, &temps),
                });
                i = ci + 1;
                continue;
            }
            if t == "drop" && i + 3 < hi && self.text(i + 1) == "(" && self.text(i + 3) == ")" {
                let victim = self.text(i + 2).to_string();
                held.retain(|h| h.binder.as_deref() != Some(victim.as_str()));
                temps.retain(|h| h.binder.as_deref() != Some(victim.as_str()));
                i += 4;
                continue;
            }
            if self.is_ident(i)
                && i + 1 < hi
                && self.text(i + 1) == "("
                && !KEYWORDS.contains(&t)
                && !NON_CALL_NAMES.contains(&t)
                && t != "drop"
                && !self.on_atomic(i)
            {
                let hint = self.call_hint(i);
                let bare = i == 0 || !matches!(self.text(i - 1), "." | "::");
                let name = t.to_string();
                self.calls.push(CallSite {
                    name: name.clone(),
                    hint: hint.clone(),
                    bare,
                    ci: i,
                    held: Self::snapshot(held, &temps),
                    targets: Vec::new(),
                });
                // Guard-returning callee: the guard lives with the
                // binding (tail `let`) or to the end of the statement.
                // Resolved with the same hint/crate rules as call
                // resolution so an unrelated same-named fn in another
                // crate does not conjure a guard.
                let classes = self.guard_classes_for(name.as_str(), hint.as_deref(), bare);
                if !classes.is_empty() {
                    let close = self.match_close(i + 1, hi);
                    let bound = is_let && self.tail_of_let(close, hi);
                    for class in classes {
                        if bound {
                            held.push(Held {
                                class,
                                binder: binder.clone(),
                            });
                        } else {
                            temps.push(Held {
                                class,
                                binder: None,
                            });
                        }
                    }
                }
                i += 1;
                continue;
            }
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth <= 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Qualifier hint for a call at ident `i`: `Type::f(…)` → `Type`
    /// (`Self` resolving to the enclosing impl type), `self.f(…)` → the
    /// enclosing impl type, `x.f(…)` → none.
    /// Is the method name at `i` called on a known atomic receiver
    /// (`hits.store(…)`, `self.seed.fetch_add(…)`)?
    fn on_atomic(&self, i: usize) -> bool {
        i >= 2 && self.text(i - 1) == "." && self.atomic_names.contains(self.text(i - 2))
    }

    fn call_hint(&self, i: usize) -> Option<String> {
        if i >= 2 && self.text(i - 1) == "::" && self.is_ident(i - 2) {
            let q = self.text(i - 2);
            if q == "Self" {
                return self.impl_type.clone().or_else(|| Some(q.to_string()));
            }
            return Some(q.to_string());
        }
        if i >= 2 && self.text(i - 1) == "." && self.text(i - 2) == "self" {
            return self.impl_type.clone();
        }
        None
    }

    /// Guard classes returned by a call to `name` under `hint`, using
    /// the same resolution rules as [`resolve_calls`].
    fn guard_classes_for(&self, name: &str, hint: Option<&str>, bare: bool) -> Vec<String> {
        let Some(cands) = self.guard_returns.get(name) else {
            return Vec::new();
        };
        let mut out = BTreeSet::new();
        for c in cands {
            let matches = match hint {
                Some(h) => {
                    c.impl_type.as_deref() == Some(h)
                        || c.module_last.as_deref() == Some(h)
                        || c.file_stem == h
                }
                None => c.crate_key == self.crate_key && !(bare && c.impl_type.is_some()),
            };
            if matches && visible(c.is_pub, &c.rel, self.rel) {
                out.extend(c.classes.iter().cloned());
            }
        }
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> Graph {
        build(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        )
    }

    #[test]
    fn named_fields_resolve_through_consts_and_arrays() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            "const NAMES: [&str; 2] = [\"fix.shard0\", \"fix.shard1\"];\n\
             const W: &str = \"fix.wal\";\n\
             struct S { wal: Mutex<u32>, shards: Vec<RwLock<u32>> }\n\
             fn mk() -> S { S { wal: Mutex::named(W, 0), shards: (0..2).map(|i| {\n\
                 RwLock::named(NAMES[i], 0)\n\
             }).collect() } }",
        )]);
        assert_eq!(
            g.lock_fields.get("wal").map(String::as_str),
            Some("fix.wal")
        );
        assert_eq!(
            g.lock_fields.get("shards").map(String::as_str),
            Some("fix.shard*")
        );
    }

    #[test]
    fn held_sets_let_vs_temp_and_drop() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
               fn new() -> S { S { a: Mutex::named(\"t.a\", 0), b: Mutex::named(\"t.b\", 0) } }\n\
               fn f(&self) {\n\
                 let g = self.a.lock();\n\
                 let _x = self.b.lock().checked_add(1);\n\
                 drop(g);\n\
                 self.b.lock();\n\
               }\n\
             }",
        )]);
        let f = g.fns.iter().find(|f| f.item.name == "f").unwrap();
        // a acquired with nothing held; b acquired with a held; final b
        // acquisition after drop(g) holds nothing.
        let held: Vec<Vec<String>> = f.acqs.iter().map(|a| a.held.clone()).collect();
        assert_eq!(f.acqs[0].class, "t.a");
        assert_eq!(held[0], Vec::<String>::new());
        assert_eq!(held[1], vec!["t.a".to_string()]);
        assert_eq!(held[2], Vec::<String>::new());
    }

    #[test]
    fn guard_returning_fn_escapes_to_caller() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            "struct S { c: RwLock<u32> }\n\
             impl S {\n\
               fn new() -> S { S { c: RwLock::named(\"t.c\", 0) } }\n\
               fn catalog(&self) -> RwLockReadGuard<'_, u32> { self.c.read() }\n\
               fn f(&self, m: &Mutex<u32>) {\n\
                 let pin = self.catalog();\n\
                 helper();\n\
               }\n\
             }\n\
             fn helper() {}",
        )]);
        let cat = g.fns.iter().find(|f| f.item.name == "catalog").unwrap();
        assert!(cat.returns_guards.contains("t.c"));
        let f = g.fns.iter().find(|f| f.item.name == "f").unwrap();
        let call = f.calls.iter().find(|c| c.name == "helper").unwrap();
        assert_eq!(call.held, vec!["t.c".to_string()]);
    }

    #[test]
    fn fixpoint_propagates_acquires_and_blocking() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            "struct S { a: Mutex<u32> }\n\
             impl S {\n\
               fn new() -> S { S { a: Mutex::named(\"t.a\", 0) } }\n\
               fn leaf(&self) { let _g = self.a.lock(); }\n\
               fn mid(&self) { self.leaf(); }\n\
               fn top(&self) { self.mid(); }\n\
             }\n\
             fn fsyncs(f: &std::fs::File) { f.sync_all().unwrap(); }\n\
             fn outer(f: &std::fs::File) { fsyncs(f); }",
        )]);
        let top = g.fns.iter().find(|f| f.item.name == "top").unwrap();
        assert!(top.acquires_any.contains("t.a"));
        let outer = g.fns.iter().find(|f| f.item.name == "outer").unwrap();
        assert!(outer.may_block);
        let mid = g.fns.iter().find(|f| f.item.name == "mid").unwrap();
        assert!(!mid.may_block);
    }

    #[test]
    fn registered_names_stay_and_indexed_names_collapse() {
        assert_eq!(class_label("laqy.store"), "laqy.store");
        assert_eq!(
            class_label("laqy.inflight.registry"),
            "laqy.inflight.registry"
        );
        assert_eq!(class_label("laqy.wal"), "laqy.wal");
        assert_eq!(class_label("fix.pool7"), "fix.pool*");
        assert_eq!(class_label("fix.plain"), "fix.plain");
    }
}

#[cfg(test)]
mod debug_dump {
    #[test]
    #[ignore]
    fn dump_real_tree() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let g = crate::analyze::graph_of(root).unwrap();
        for f in &g.fns {
            if !f.may_block && f.acquires_any.is_empty() {
                continue;
            }
            println!(
                "{} {}::{} may_block={} acquires={:?}",
                f.file,
                f.item.impl_type.as_deref().unwrap_or("-"),
                f.item.name,
                f.may_block,
                f.acquires_any
            );
            for c in &f.calls {
                if !c.targets.is_empty() {
                    println!(
                        "    call {} -> {:?}",
                        c.name,
                        c.targets
                            .iter()
                            .map(|&t| format!(
                                "{}::{}",
                                g.fns[t].item.impl_type.as_deref().unwrap_or("-"),
                                g.fns[t].item.name
                            ))
                            .collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
