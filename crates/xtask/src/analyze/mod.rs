//! Interprocedural static analyzer: `cargo run -p xtask -- analyze`.
//!
//! Layered as lexer → parser → call graph → passes:
//!
//! * [`lexer`] — dependency-free Rust lexer with exact byte/line/column
//!   spans;
//! * [`parser`] — item-level structure (fn/impl/mod boundaries, struct
//!   fields, string constants, `cfg(test)` gating);
//! * [`callgraph`] — per-workspace call graph with guard-lifetime
//!   tracking and function summaries (classes acquired, may-block);
//! * [`passes`] — the `lock-order`, `guard-blocking-op`, and
//!   `atomic-ordering` passes plus `laqy-lint: allow(…)` suppressions.
//!
//! Any finding fails the task; an intentional one is accepted only by a
//! reasoned `laqy-lint: allow(<rule>) -- <why>` at its site.
//!
//! The lock classes themselves come from `laqy_sync::classes`, the same
//! registry the runtime lock-order detector keys on — the static pass
//! reports inversions on *any* path through the call graph, executed or
//! not, while the runtime detector catches whatever actually runs.

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod passes;

use std::path::Path;

use crate::Finding;

/// Analyze the workspace rooted at `root`: build the call graph, run
/// the passes, and apply `laqy-lint: allow(…)` suppressions. Returns
/// the surviving findings (plus a `suppression-reason` finding for every
/// reason-less suppression), sorted by location.
pub fn analyze_tree(root: &Path) -> Result<Vec<Finding>, String> {
    let g = graph_of(root)?;
    let mut findings = passes::run(&g);

    for pf in &g.files {
        let supps = passes::collect_suppressions(pf);
        if supps.is_empty() {
            continue;
        }
        findings.retain(|f| {
            f.file != pf.rel
                || !supps
                    .iter()
                    .any(|s| s.target_line == f.line && s.rules.iter().any(|r| r == f.rule))
        });
        for s in &supps {
            if !s.has_reason {
                findings.push(Finding {
                    file: pf.rel.clone(),
                    line: s.line,
                    col: s.col,
                    rule: "suppression-reason",
                    message: format!(
                        "suppression without a reason: write `laqy-lint: allow({}) -- <why>`",
                        s.rules.join(", ")
                    ),
                });
            }
        }
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.file, b.line, b.col, b.rule, &b.message))
    });
    Ok(findings)
}

/// The call graph of the workspace rooted at `root`, as [`analyze_tree`]
/// builds it before running the passes.
pub fn graph_of(root: &Path) -> Result<callgraph::Graph, String> {
    let mut files = crate::collect_sources(root)?;
    files.sort();
    let mut sources = Vec::new();
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("read {}: {e}", rel.display()))?;
        let rel = rel
            .to_str()
            .ok_or_else(|| format!("non-UTF-8 path {}", rel.display()))?
            .replace('\\', "/");
        sources.push((rel, text));
    }
    Ok(callgraph::build(sources))
}
