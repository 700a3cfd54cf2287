//! End-to-end tests for the interprocedural analyzer: each fixture tree
//! under `tests/fixtures/analyze/` seeds exactly one discipline
//! violation, and the analyzer must report exactly that finding at the
//! expected span; `atomiccall` seeds none and must stay clean. The last
//! tests run the analyzer over the real workspace, which must be clean
//! (the same check CI runs via `cargo run -p xtask -- analyze`) and take
//! no lock under the in-flight registry.

use std::path::PathBuf;

use xtask::analyze::passes::lock_edges;
use xtask::analyze::{analyze_tree, graph_of};
use xtask::Finding;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/analyze")
        .join(name)
}

fn analyze_fixture(name: &str) -> Vec<Finding> {
    analyze_tree(&fixture_root(name)).expect("fixture analyzes")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("workspace root")
}

#[test]
fn lockinv_flags_the_ab_ba_inversion_statically() {
    let findings = analyze_fixture("lockinv");
    assert_eq!(findings.len(), 1, "exactly the seeded cycle: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "lock-order");
    assert_eq!(f.file, "crates/app/src/lib.rs");
    // Anchored at the `with_beta(*a)` call made while `fix.alpha` is held.
    assert_eq!((f.line, f.col), (12, 5), "witness span: {f}");
    assert!(
        f.message.contains("fix.alpha -> fix.beta")
            && f.message.contains("via call to `with_beta`")
            && f.message.contains("-> fix.alpha"),
        "cycle rendering: {}",
        f.message
    );
}

#[test]
fn guardfsync_flags_guard_held_across_interprocedural_fsync() {
    let findings = analyze_fixture("guardfsync");
    assert_eq!(findings.len(), 1, "exactly the seeded site: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "guard-blocking-op");
    assert_eq!(f.file, "crates/app/src/lib.rs");
    // Anchored at the `barrier(file)` call, not at the fsync inside it.
    assert_eq!((f.line, f.col), (10, 5), "call span: {f}");
    assert!(
        f.message.contains(
            "guard on `fix.wal` held across call to `barrier`, which may reach `sync_all`"
        ),
        "message: {}",
        f.message
    );
}

#[test]
fn atomicord_flags_non_literal_ordering() {
    let findings = analyze_fixture("atomicord");
    assert_eq!(findings.len(), 1, "exactly the seeded op: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "atomic-ordering");
    assert_eq!(f.file, "crates/app/src/lib.rs");
    // Anchored at the `fetch_add` method token.
    assert_eq!((f.line, f.col), (11, 12), "method span: {f}");
    assert!(
        f.message
            .contains("`fetch_add` on atomic `hits` does not name an explicit `Ordering`"),
        "message: {}",
        f.message
    );
}

#[test]
fn atomiccall_an_atomic_store_is_no_call_to_a_store_fn() {
    let g = graph_of(&fixture_root("atomiccall")).expect("fixture analyzes");
    let edges = lock_edges(&g);
    let edge = |from: &str, to: &str| edges.contains(&(from.to_string(), to.to_string()));
    assert!(edge("fix.beta", "fix.alpha"), "the real edge: {edges:?}");
    assert!(!edge("fix.alpha", "fix.beta"), "spurious edge: {edges:?}");
    let findings = analyze_fixture("atomiccall");
    assert!(findings.is_empty(), "no cycle: {findings:?}");
}

#[test]
fn suppreason_suppresses_but_demands_a_reason() {
    let findings = analyze_fixture("suppreason");
    assert_eq!(
        findings.len(),
        1,
        "the guard-blocking finding is suppressed; only the reasonless \
         suppression remains: {findings:?}"
    );
    let f = &findings[0];
    assert_eq!(f.rule, "suppression-reason");
    assert_eq!(f.file, "crates/app/src/lib.rs");
    // Anchored at the `// laqy-lint: allow(…)` comment itself.
    assert_eq!((f.line, f.col), (10, 5), "comment span: {f}");
    assert!(
        f.message
            .contains("write `laqy-lint: allow(guard-blocking-op) -- <why>`"),
        "message: {}",
        f.message
    );
}

#[test]
fn real_workspace_analyzes_clean() {
    let findings = analyze_tree(&workspace_root()).expect("workspace analyzes");
    assert!(
        findings.is_empty(),
        "analyzer findings in the real tree — fix them, or accept one with a \
         reasoned `laqy-lint: allow(<rule>) -- <why>` at its site:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The in-flight registry is the innermost lock of the canonical order:
/// nothing is acquired under it.
#[test]
fn no_lock_is_taken_under_the_inflight_registry() {
    let g = graph_of(&workspace_root()).expect("workspace analyzes");
    let under: Vec<_> = (lock_edges(&g).into_iter())
        .filter(|(held, _)| held == "laqy.inflight.registry")
        .collect();
    assert!(
        under.is_empty(),
        "edges out of laqy.inflight.registry: {under:?}"
    );
}

#[test]
fn both_tasks_reject_arguments_beyond_root() {
    for args in [
        &["analyze", "--write-baseline"][..],
        &["lint", ".", "extra"][..],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(args)
            .output()
            .expect("xtask runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr.contains(&format!("unexpected argument: {}", args[args.len() - 1])),
            "{args:?}: {stderr}"
        );
    }
}
