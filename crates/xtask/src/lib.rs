//! Source-level static analysis for the LAQy workspace.
//!
//! `cargo run -p xtask -- lint` walks the workspace source tree and enforces
//! invariants that `clippy` cannot express because they are *repo policy*,
//! not language policy:
//!
//! 1. **sync-imports** — no direct `std::sync` lock/channel/atomic or
//!    `parking_lot` usage outside the `laqy-sync` wrapper crate (and the one
//!    sanctioned worker-pool file). Everything else must go through
//!    `laqy_sync::{Mutex, RwLock, Condvar, atomic}` so the `laqy_check`
//!    model-checking cfg and the debug lock-order detector see every
//!    acquisition. `Arc`/`OnceLock`/`Weak` are fine: they are not blocking
//!    primitives and carry no ordering obligations.
//! 2. **unsafe-scope** — `unsafe` appears nowhere except
//!    `crates/engine/src/parallel.rs` (the lifetime-erased task submission).
//! 3. **safety-comments** — inside that one file, every `unsafe` token is
//!    preceded by a `// SAFETY:` comment (or a `# Safety` doc section for
//!    `unsafe fn`) within a few lines.
//! 4. **hot-path-unwrap** — no `.unwrap()` / `.expect(...)` in non-test code
//!    of the service/executor/store/estimate/support/admission hot paths
//!    (`HOT_PATHS`); errors must be hoisted into `LaqyError` so a
//!    malformed query cannot poison a shared lock or a pool worker.
//! 5. **sampling-determinism** — `crates/sampling` must stay a pure function
//!    of (input, seed): no wall clocks, no OS entropy, no `RandomState`
//!    hash maps whose iteration order varies per process.
//! 6. **snapshot-io** — no raw destructive filesystem calls
//!    (`File::create`, `fs::rename`, `fs::write`) in `crates/core/src` or
//!    `crates/cli/src` outside `persist.rs`. Snapshot writes must go
//!    through the atomic tmp + fsync + rename sequence so a crash can
//!    never tear a file under its real name; an ad-hoc `fs::write`
//!    silently forfeits that guarantee (reads are unrestricted).
//! 7. **deadline-checks** — no line pairing `Instant::now` with a
//!    deadline outside `crates/core/src/budget.rs`. Deadline arithmetic
//!    is centralized in the `QueryBudget`/`CancelToken` machinery so
//!    expiry is checked at sanctioned cooperative points with one clock,
//!    not re-derived ad hoc (plain section timing stays fine).
//! 8. **row-at-a-time** — no per-row predicate/value scan loops
//!    (`.matches(...)`, `.i64_at(...)`) in engine operators outside the
//!    sanctioned `ops/reference.rs` evaluator. Operators must evaluate
//!    through the vectorized `BatchKernel` chunk path; the reference
//!    module exists precisely so the proptests have a slow oracle to
//!    compare against, and a second per-row loop would silently bypass
//!    the kernels the paper's scan performance depends on.
//! 9. **wal-io** — no write-ahead-log file I/O (`OpenOptions::new`,
//!    `sync_data`) in `crates/core/src` or `crates/cli/src` outside
//!    `wal.rs`. The log's durability contract — records are appended,
//!    fsynced, and never rewritten under their real name; a torn tail is
//!    detected and truncated exactly once, at recovery — only holds if
//!    every handle to a segment file goes through `WalAppender`/`replay`.
//!    A second append site could interleave records across segment
//!    rotation or sync out of order with the catalog publish.
//! 10. **socket-io** — no socket types (`TcpListener`, `TcpStream`,
//!     `UdpSocket`) outside `crates/server/src`. The serving crate owns
//!     the wire: its framing layer is where slow-client timeouts, frame
//!     caps, and the `net.*` chaos points live, and a second socket site
//!     would bypass all three. Everything else talks to the server
//!     through `laqy_server::Client` (or stays in-process).
//!
//! The rules run over the real token stream from the
//! [`analyze::lexer`]: comments and string literals are distinct token
//! kinds (so prose can never trip a scan), `#[cfg(test)]` code is marked
//! by the item-level [`analyze::parser`], and every finding carries an
//! exact line *and column*. `xtask` stays free of external
//! dependencies; the only crate it links is the workspace's own
//! `laqy-sync`, for the lock-class registry the [`analyze`] passes key
//! on.
//!
//! Beyond lint, [`analyze`] hosts the interprocedural static analyzer
//! (`cargo run -p xtask -- analyze`): lock-order cycles, guards held
//! across blocking I/O, and atomic-ordering policy.

#![forbid(unsafe_code)]

pub mod analyze;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use analyze::lexer::{lex, TokKind};
use analyze::parser::{parse_file, ParsedFile};

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the lint root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (in characters) of the offending token.
    pub col: usize,
    /// Stable rule identifier (e.g. `sync-imports`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Files allowed to use `std::sync`/`unsafe` directly: the wrapper crate is
/// exempt wholesale (rule 1 only), plus this single engine file (rules 1-2).
const PARALLEL_ALLOWLIST: &str = "crates/engine/src/parallel.rs";

/// Hot-path files for the unwrap/expect ban (rule 4) and the analyzer's
/// SeqCst-needs-a-reason atomic-ordering policy.
pub(crate) const HOT_PATHS: [&str; 6] = [
    "crates/core/src/service.rs",
    "crates/core/src/executor.rs",
    "crates/core/src/store.rs",
    "crates/core/src/estimate.rs",
    "crates/core/src/support.rs",
    "crates/core/src/sampler_ops.rs",
];

/// Tokens banned from `crates/sampling/src` (rule 5): wall clocks, OS
/// entropy, and per-process-randomized hashing.
const NONDETERMINISM_TOKENS: [&str; 9] = [
    "std::time",
    "SystemTime",
    "Instant",
    "thread_rng",
    "from_entropy",
    "getrandom",
    "RandomState",
    "HashMap::new",
    "HashSet::new",
];

/// The one file sanctioned to mutate snapshot files directly (rule 6):
/// the atomic tmp + fsync + rename persistence layer.
const PERSIST_ALLOWLIST: &str = "crates/core/src/persist.rs";

/// Destructive filesystem tokens banned outside [`PERSIST_ALLOWLIST`]
/// within the snapshot-handling crates (rule 6).
const SNAPSHOT_IO_TOKENS: [&str; 3] = ["File::create", "fs::rename", "fs::write"];

/// The one file sanctioned to open, append to, and fsync write-ahead-log
/// segments (rule 9): the `WalAppender`/`replay` machinery.
const WAL_ALLOWLIST: &str = "crates/core/src/wal.rs";

/// WAL file-handle tokens banned outside [`WAL_ALLOWLIST`] within the
/// snapshot-handling crates (rule 9). `OpenOptions::new` is the only way
/// to get an append-mode handle and `sync_data` is the log's fsync; the
/// snapshot layer uses `File::create`/`sync_all` and is covered by rule 6.
const WAL_IO_TOKENS: [&str; 2] = ["OpenOptions::new", "sync_data"];

/// The one module sanctioned to compare `Instant::now` against a
/// deadline (rule 7): the query-budget machinery.
const BUDGET_ALLOWLIST: &str = "crates/core/src/budget.rs";

/// The one engine-operator module sanctioned to evaluate predicates
/// row-at-a-time (rule 8): the proptest reference oracle.
const ROW_SCAN_ALLOWLIST: &str = "crates/engine/src/ops/reference.rs";

/// Per-row scan tokens banned from engine operators outside
/// [`ROW_SCAN_ALLOWLIST`] (rule 8).
const ROW_SCAN_TOKENS: [&str; 2] = [".matches(", ".i64_at("];

/// The one source subtree sanctioned to touch sockets (rule 10): the
/// serving crate, where framing, timeouts, and the `net.*` fault points
/// wrap every socket operation.
const SOCKET_ALLOWLIST_PREFIX: &str = "crates/server/src/";

/// Socket types banned outside [`SOCKET_ALLOWLIST_PREFIX`] (rule 10).
const SOCKET_TOKENS: [&str; 3] = ["TcpListener", "TcpStream", "UdpSocket"];

/// `std::sync::` heads that must be routed through `laqy-sync`.
const SYNC_DENY: [&str; 9] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "Once",
    "mpsc",
    "atomic",
    "LazyLock",
    "PoisonError",
];

/// Run every rule over the workspace rooted at `root`.
///
/// Returns all findings, ordered by file then line. An empty vector means
/// the tree is clean.
pub fn lint_tree(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = collect_sources(root)?;
    files.sort();
    let mut findings = Vec::new();
    for rel in &files {
        let text = fs::read_to_string(root.join(rel))
            .map_err(|e| format!("read {}: {e}", rel.display()))?;
        let rel = rel
            .to_str()
            .ok_or_else(|| format!("non-UTF-8 path {}", rel.display()))?
            .replace('\\', "/");
        lint_file(&rel, &text, &mut findings);
    }
    Ok(findings)
}

fn lint_file(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let pf = parse_file(rel, text.to_string());

    let in_sync_crate = rel.starts_with("crates/sync/");
    let is_parallel = rel == PARALLEL_ALLOWLIST;

    if !in_sync_crate && !is_parallel {
        check_sync_imports(&pf, findings);
    }
    if is_parallel {
        check_safety_comments(&pf, findings);
    } else {
        for ci in ident_hits(&pf, "unsafe", false) {
            findings.push(finding_at(
                &pf,
                ci,
                "unsafe-scope",
                format!("`unsafe` is only permitted in {PARALLEL_ALLOWLIST}"),
            ));
        }
    }
    if HOT_PATHS.contains(&rel) {
        check_hot_path_unwraps(&pf, findings);
    }
    let snapshot_scope = (rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/cli/src/"))
        && rel != PERSIST_ALLOWLIST;
    if snapshot_scope {
        for tok in SNAPSHOT_IO_TOKENS {
            for ci in needle_hits(&pf, tok) {
                findings.push(finding_at(
                    &pf,
                    ci,
                    "snapshot-io",
                    format!(
                        "`{tok}` outside {PERSIST_ALLOWLIST}; snapshot writes must go \
                         through the atomic persistence layer (tmp + fsync + rename)"
                    ),
                ));
            }
        }
    }
    let wal_scope = (rel.starts_with("crates/core/src/") || rel.starts_with("crates/cli/src/"))
        && rel != WAL_ALLOWLIST;
    if wal_scope {
        for tok in WAL_IO_TOKENS {
            for ci in needle_hits(&pf, tok) {
                findings.push(finding_at(
                    &pf,
                    ci,
                    "wal-io",
                    format!(
                        "`{tok}` outside {WAL_ALLOWLIST}; WAL segment handles must go \
                         through `WalAppender`/`replay` so append ordering, fsync, and \
                         torn-tail truncation stay single-sited"
                    ),
                ));
            }
        }
    }
    if rel != BUDGET_ALLOWLIST {
        check_deadline_checks(&pf, findings);
    }
    if rel.starts_with("crates/engine/src/ops/") && rel != ROW_SCAN_ALLOWLIST {
        for tok in ROW_SCAN_TOKENS {
            for ci in needle_hits(&pf, tok) {
                findings.push(finding_at(
                    &pf,
                    ci,
                    "row-at-a-time",
                    format!(
                        "`{tok}...)` per-row scan in an engine operator outside \
                         {ROW_SCAN_ALLOWLIST}; evaluate through the vectorized \
                         `BatchKernel` chunk path instead"
                    ),
                ));
            }
        }
    }
    if !rel.starts_with(SOCKET_ALLOWLIST_PREFIX) {
        for tok in SOCKET_TOKENS {
            for ci in ident_hits(&pf, tok, false) {
                findings.push(finding_at(
                    &pf,
                    ci,
                    "socket-io",
                    format!(
                        "`{tok}` outside {SOCKET_ALLOWLIST_PREFIX}; sockets are confined \
                         to the serving crate so framing, slow-client timeouts, and the \
                         `net.*` chaos points cover every wire operation"
                    ),
                ));
            }
        }
    }
    if rel.starts_with("crates/sampling/src/") {
        for tok in NONDETERMINISM_TOKENS {
            for ci in needle_hits(&pf, tok) {
                findings.push(finding_at(
                    &pf,
                    ci,
                    "sampling-determinism",
                    format!(
                        "`{tok}` in crates/sampling breaks (input, seed) determinism; \
                         use the seeded RNG / FxBuildHasher instead"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Source collection
// ---------------------------------------------------------------------------

/// Collect every `.rs` file under `crates/*/src` and the root `src/`,
/// as paths relative to `root`. Test directories, fixtures, and `target`
/// are never visited because they live outside those subtrees.
pub(crate) fn collect_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in read_dir_sorted(&crates)? {
            let src = entry.join("src");
            if src.is_dir() {
                walk_rs(&src, root, &mut out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, root, &mut out)?;
    }
    Ok(out)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut entries = Vec::new();
    let iter = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in iter {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip_prefix {}: {e}", path.display()))?;
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Token scanning helpers (over the analyze::lexer stream)
// ---------------------------------------------------------------------------

/// Build a finding anchored at code token `ci`.
fn finding_at(pf: &ParsedFile, ci: usize, rule: &'static str, message: String) -> Finding {
    let (line, col) = pf.span(ci);
    Finding {
        file: pf.rel.clone(),
        line,
        col,
        rule,
        message,
    }
}

/// Code-token indices of identifier `name`. Test-gated code is exempt
/// unless `include_tests` is set (the SAFETY-comment rule covers test
/// code too: `unsafe` is `unsafe` wherever it runs).
fn ident_hits(pf: &ParsedFile, name: &str, include_tests: bool) -> Vec<usize> {
    (0..pf.code.len())
        .filter(|&ci| {
            (include_tests || !pf.in_test[ci])
                && pf.tok(ci).kind == TokKind::Ident
                && pf.text(ci) == name
        })
        .collect()
}

/// Code-token indices where the token sequence of `needle` begins,
/// outside test-gated code. The needle is itself lexed, so `"fs::rename"`
/// matches the three tokens `fs` `::` `rename` and `".matches("` matches
/// `.` `matches` `(` — comments and string literals in the scanned file
/// can never match, and identifier boundaries are exact by construction.
fn needle_hits(pf: &ParsedFile, needle: &str) -> Vec<usize> {
    let toks = lex(needle);
    let seq: Vec<&str> = toks
        .iter()
        .filter(|t| !t.is_trivia())
        .map(|t| t.text(needle))
        .collect();
    let n = pf.code.len();
    let mut hits = Vec::new();
    for ci in 0..n.saturating_sub(seq.len() - 1) {
        if pf.in_test[ci] {
            continue;
        }
        if (0..seq.len()).all(|k| pf.text(ci + k) == seq[k]) {
            hits.push(ci);
        }
    }
    hits
}

// ---------------------------------------------------------------------------
// Rule 1: sync imports
// ---------------------------------------------------------------------------

fn check_sync_imports(pf: &ParsedFile, findings: &mut Vec<Finding>) {
    for ci in ident_hits(pf, "parking_lot", false) {
        findings.push(finding_at(
            pf,
            ci,
            "sync-imports",
            "direct `parking_lot` usage; route through `laqy_sync`".into(),
        ));
    }
    let n = pf.code.len();
    for ci in 0..n {
        if pf.in_test[ci]
            || pf.text(ci) != "std"
            || ci + 4 >= n
            || pf.text(ci + 1) != "::"
            || pf.text(ci + 2) != "sync"
            || pf.text(ci + 3) != "::"
        {
            continue;
        }
        // The first path segment(s) after `std::sync::` — one identifier,
        // or for a brace group every top-level item's first identifier
        // (`use std::sync::{atomic::AtomicU64, Arc}` yields `atomic`, `Arc`).
        let mut heads: Vec<String> = Vec::new();
        if pf.text(ci + 4) == "{" {
            let mut depth = 0usize;
            let mut item_start = true;
            let mut j = ci + 4;
            while j < n {
                match pf.text(j) {
                    "{" => {
                        depth += 1;
                        item_start = depth == 1;
                    }
                    "}" => {
                        if depth <= 1 {
                            break;
                        }
                        depth -= 1;
                    }
                    "," if depth == 1 => item_start = true,
                    t => {
                        if depth == 1 && item_start && pf.tok(j).kind == TokKind::Ident {
                            heads.push(t.to_string());
                        }
                        item_start = false;
                    }
                }
                j += 1;
            }
        } else if pf.tok(ci + 4).kind == TokKind::Ident {
            heads.push(pf.text(ci + 4).to_string());
        }
        for head in heads {
            if SYNC_DENY.contains(&head.as_str()) {
                findings.push(finding_at(
                    pf,
                    ci,
                    "sync-imports",
                    format!(
                        "direct `std::sync::{head}` usage; route through `laqy_sync` so the \
                         model checker and lock-order detector see it"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: SAFETY comments in the sanctioned unsafe file
// ---------------------------------------------------------------------------

/// Lines of provenance we accept between an `unsafe` token and its
/// justifying comment (attributes, the fn signature, blank lines).
const SAFETY_WINDOW: usize = 12;

fn check_safety_comments(pf: &ParsedFile, findings: &mut Vec<Finding>) {
    let raw_lines: Vec<&str> = pf.src.lines().collect();
    for ci in ident_hits(pf, "unsafe", true) {
        let line = pf.tok(ci).line;
        let lo = line.saturating_sub(SAFETY_WINDOW);
        let justified = raw_lines[lo..line.min(raw_lines.len())]
            .iter()
            .any(|l| l.contains("SAFETY:") || l.contains("# Safety"));
        if !justified {
            findings.push(finding_at(
                pf,
                ci,
                "safety-comments",
                format!("`unsafe` without a `// SAFETY:` comment within {SAFETY_WINDOW} lines"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 7: naked deadline checks
// ---------------------------------------------------------------------------

fn check_deadline_checks(pf: &ParsedFile, findings: &mut Vec<Finding>) {
    for ci in needle_hits(pf, "Instant::now") {
        let line = pf.tok(ci).line;
        let paired = (0..pf.code.len()).any(|cj| {
            pf.tok(cj).line == line
                && pf.tok(cj).kind == TokKind::Ident
                && pf.text(cj).to_ascii_lowercase().contains("deadline")
        });
        if paired {
            findings.push(finding_at(
                pf,
                ci,
                "deadline-checks",
                format!(
                    "naked `Instant::now` deadline check outside {BUDGET_ALLOWLIST}; \
                     thread a `QueryBudget`/`CancelToken` instead"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: hot-path unwrap/expect
// ---------------------------------------------------------------------------

fn check_hot_path_unwraps(pf: &ParsedFile, findings: &mut Vec<Finding>) {
    let n = pf.code.len();
    for method in ["unwrap", "expect"] {
        for ci in 0..n {
            if pf.in_test[ci] || pf.tok(ci).kind != TokKind::Ident || pf.text(ci) != method {
                continue;
            }
            // Only flag method *calls*: `.unwrap()` / `.expect(`.
            // `unwrap_or`, `expect_err`, etc. are distinct tokens already;
            // a definition like `fn unwrap` fails the `.` test.
            let preceded_by_dot = ci > 0 && pf.text(ci - 1) == ".";
            let called = ci + 1 < n && pf.text(ci + 1) == "(";
            if preceded_by_dot && called {
                findings.push(finding_at(
                    pf,
                    ci,
                    "hot-path-unwrap",
                    format!(
                        "`.{method}(...)` on a service hot path; hoist into `LaqyError` \
                         so one bad query cannot panic while holding a shared lock"
                    ),
                ));
            }
        }
    }
}
