//! End-to-end tests for the interprocedural analyzer: each fixture tree
//! under `tests/fixtures/analyze/` seeds exactly one discipline
//! violation, and the analyzer must report exactly that finding at the
//! expected span; `atomiccall` and `visibility` seed none and must stay
//! clean, with exactly the lock edges Rust's name resolution allows. The last
//! tests run the analyzer over the real workspace, which must be clean
//! (the same check CI runs via `cargo run -p xtask -- analyze`) and take
//! no lock under the in-flight registry.

use std::path::PathBuf;

use xtask::analyze::callgraph::Graph;
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

/// The lock classes function `name` in a file ending in `file` may
/// acquire.
fn acquired(g: &Graph, file: &str, name: &str) -> Vec<String> {
    let node = (g.fns.iter())
        .find(|f| f.item.name == name && g.files[f.file].rel.ends_with(file))
        .unwrap_or_else(|| panic!("no fn {name} in {file}"));
    node.acquires_any.iter().cloned().collect()
}

#[test]
fn visibility_a_call_links_only_to_fns_it_can_reach() {
    let g = graph_of(&fixture_root("visibility")).expect("fixture analyzes");
    let alpha = vec!["fix.alpha".to_string()];
    let beta = vec!["fix.beta".to_string()];
    assert_eq!(acquired(&g, "service.rs", "close"), alpha, "own file");
    assert_eq!(acquired(&g, "other.rs", "settle"), alpha, "a public method");
    assert_eq!(acquired(&g, "other.rs", "count"), beta, "a free function");
    assert!(
        acquired(&g, "other.rs", "digest").is_empty(),
        "`hasher.finish()` cannot reach the private `Service::finish`"
    );
    assert!(
        acquired(&g, "other.rs", "approx").is_empty(),
        "a bare `plan(…)` calls no method"
    );
    assert!(analyze_fixture("visibility").is_empty());
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

/// Calls named like private `LaqyService` methods, from other files or as
/// bare calls, reach none of them: a formatter's and a hasher's
/// `.finish()`, and the SQL front end's `plan(catalog, sql)`.
#[test]
fn calls_named_like_service_methods_take_no_lock() {
    let g = graph_of(&workspace_root()).expect("workspace analyzes");
    for (file, name) in [
        ("crates/core/src/budget.rs", "fmt"),
        ("crates/core/src/star.rs", "of"),
        ("crates/core/src/sql.rs", "approx_query"),
    ] {
        let held = acquired(&g, file, name);
        assert!(held.is_empty(), "{file}: `{name}` acquires {held:?}");
    }
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
