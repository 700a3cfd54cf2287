//! The lint pass, tested two ways: against a fixture tree where every rule
//! has a seeded violation plus a decoy that must NOT fire, and against the
//! real workspace, which must be clean (this is the same check CI runs via
//! `cargo run -p xtask -- lint`, kept inside `cargo test` so a violation
//! fails the tier-1 suite even without the CI job).

use std::path::{Path, PathBuf};

use xtask::{lint_tree, Finding};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives at <root>/crates/xtask")
        .to_path_buf()
}

fn fixture_findings() -> Vec<Finding> {
    lint_tree(&fixture_root()).expect("fixture tree lints")
}

fn matching<'a>(findings: &'a [Finding], rule: &str, file: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.file == file)
        .collect()
}

#[test]
fn real_workspace_is_clean() {
    let findings = lint_tree(&workspace_root()).expect("workspace lints");
    assert!(
        findings.is_empty(),
        "xtask lint found violations in the real tree:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn sync_imports_fire_on_denied_heads_only() {
    let findings = fixture_findings();
    let hits = matching(&findings, "sync-imports", "crates/demo/src/bad_sync.rs");
    // Mutex (line 3), atomic (line 4), parking_lot (line 5) — and nothing
    // for Arc/OnceLock on line 4 or the prose/string mentions.
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![5, 3, 4],
        "parking_lot first, then paths: {hits:?}"
    );
    assert!(
        !hits
            .iter()
            .any(|f| f.message.contains("Arc") || f.message.contains("OnceLock")),
        "Arc/OnceLock must be allowed: {hits:?}"
    );
    // The clean file is silent across all rules.
    assert!(
        !findings.iter().any(|f| f.file.ends_with("clean.rs")),
        "clean.rs produced findings: {findings:?}"
    );
}

#[test]
fn unsafe_outside_allowlist_is_flagged() {
    let findings = fixture_findings();
    let hits = matching(&findings, "unsafe-scope", "crates/demo/src/bad_unsafe.rs");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].line, 4);
    // The allowlisted file never produces unsafe-scope findings.
    assert!(matching(&findings, "unsafe-scope", "crates/engine/src/parallel.rs").is_empty());
}

#[test]
fn safety_comments_required_in_sanctioned_file() {
    let findings = fixture_findings();
    let hits = matching(
        &findings,
        "safety-comments",
        "crates/engine/src/parallel.rs",
    );
    assert_eq!(hits.len(), 1, "only the unjustified block fires: {hits:?}");
    assert_eq!(hits[0].line, 26);
}

#[test]
fn hot_path_unwraps_fire_outside_tests_only() {
    let findings = fixture_findings();
    let hits = matching(&findings, "hot-path-unwrap", "crates/core/src/service.rs");
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    // unwrap() line 5 and expect(...) line 6; the cfg(test) module and
    // unwrap_or_else are exempt.
    assert_eq!(lines, vec![5, 6], "{hits:?}");
    // The estimator and the support check are hot paths too — every
    // answer ends in one of them — and so is the per-row admission loop
    // every scan runs (its `#[cfg(test)]` oracle is exempt).
    for (file, line) in [
        ("crates/core/src/estimate.rs", 7),
        ("crates/core/src/support.rs", 6),
        ("crates/core/src/sampler_ops.rs", 7),
    ] {
        let hits = matching(&findings, "hot-path-unwrap", file);
        let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![line], "{file}: {hits:?}");
    }
}

#[test]
fn sampling_determinism_tokens_fire() {
    let findings = fixture_findings();
    let hits = matching(
        &findings,
        "sampling-determinism",
        "crates/sampling/src/bad_time.rs",
    );
    let mut tokens: Vec<&str> = hits
        .iter()
        .map(|f| {
            ["std::time", "Instant", "HashMap::new"]
                .into_iter()
                .find(|t| f.message.contains(&format!("`{t}`")))
                .expect("finding names its token")
        })
        .collect();
    tokens.sort_unstable();
    assert_eq!(
        tokens,
        vec!["HashMap::new", "Instant", "std::time"],
        "{hits:?}"
    );
}

#[test]
fn snapshot_io_fires_outside_persist_only() {
    let findings = fixture_findings();
    let hits = matching(&findings, "snapshot-io", "crates/core/src/snapshotting.rs");
    // File::create (line 5), fs::write (line 6), fs::rename (line 7);
    // the fs::read decoy and the cfg(test) fs::write are exempt.
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![5, 7, 6], "per-token order: {hits:?}");
    // The sanctioned persistence layer never fires despite using every
    // banned token.
    assert!(
        matching(&findings, "snapshot-io", "crates/core/src/persist.rs").is_empty(),
        "{findings:?}"
    );
    // Crates outside core/cli (the demo tree) are out of scope entirely.
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == "snapshot-io" && f.file.starts_with("crates/demo/")),
        "{findings:?}"
    );
}

#[test]
fn wal_io_fires_outside_wal_only() {
    let findings = fixture_findings();
    let hits = matching(&findings, "wal-io", "crates/core/src/walling.rs");
    // OpenOptions::new (line 5), sync_data (line 6); the fs::read decoy,
    // the doc-comment mention, and the cfg(test) handle are exempt.
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![5, 6], "per-token order: {hits:?}");
    // The sanctioned log module never fires despite using every banned
    // token — and its append-mode + set_len idiom stays clean under the
    // snapshot-io rule too.
    assert!(
        matching(&findings, "wal-io", "crates/core/src/wal.rs").is_empty(),
        "{findings:?}"
    );
    assert!(
        matching(&findings, "snapshot-io", "crates/core/src/wal.rs").is_empty(),
        "{findings:?}"
    );
    // Crates outside core/cli (the demo tree) are out of scope entirely.
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == "wal-io" && f.file.starts_with("crates/demo/")),
        "{findings:?}"
    );
}

#[test]
fn deadline_checks_fire_outside_budget_only() {
    let findings = fixture_findings();
    let hits = matching(
        &findings,
        "deadline-checks",
        "crates/demo/src/bad_deadline.rs",
    );
    // Only the line pairing Instant::now with a deadline; the plain
    // section-timing decoy is exempt.
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![5], "{hits:?}");
    // The sanctioned budget module never fires.
    assert!(
        matching(&findings, "deadline-checks", "crates/core/src/budget.rs").is_empty(),
        "{findings:?}"
    );
}

#[test]
fn row_scans_fire_outside_reference_only() {
    let findings = fixture_findings();
    let hits = matching(
        &findings,
        "row-at-a-time",
        "crates/engine/src/ops/bad_rowscan.rs",
    );
    // `.matches(` on line 10 then `.i64_at(` on line 11; the prose and
    // string decoys, the `matches!` macro / `binary_search` shapes, and
    // the cfg(test) module are all exempt.
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![10, 11], "{hits:?}");
    // The sanctioned reference oracle never fires despite using every
    // banned token.
    assert!(
        matching(
            &findings,
            "row-at-a-time",
            "crates/engine/src/ops/reference.rs"
        )
        .is_empty(),
        "{findings:?}"
    );
    // Engine files outside ops/ (the parallel allowlist file) and other
    // crates are out of scope entirely.
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == "row-at-a-time" && !f.file.starts_with("crates/engine/src/ops/")),
        "{findings:?}"
    );
}

#[test]
fn socket_io_fires_outside_server_only() {
    let findings = fixture_findings();
    let hits = matching(&findings, "socket-io", "crates/demo/src/bad_socket.rs");
    // TcpListener (lines 8, 9) then TcpStream (lines 4, 5), per-token
    // order; the doc-comment and string mentions and the cfg(test)
    // usage are all exempt.
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![8, 9, 4, 5], "per-token order: {hits:?}");
    // The serving crate never fires despite using every socket type.
    assert!(
        matching(&findings, "socket-io", "crates/server/src/wire.rs").is_empty(),
        "{findings:?}"
    );
}

#[test]
fn findings_carry_exact_columns() {
    let findings = fixture_findings();
    // `use std::sync::Mutex;` anchors at the `std` token (col 5); the
    // parking_lot import anchors at the `parking_lot` ident (col 5).
    let sync = matching(&findings, "sync-imports", "crates/demo/src/bad_sync.rs");
    let spans: Vec<(usize, usize)> = sync.iter().map(|f| (f.line, f.col)).collect();
    assert_eq!(spans, vec![(5, 5), (3, 5), (4, 5)], "{sync:?}");
    // `    unsafe { … }` anchors at the `unsafe` keyword token.
    let uns = matching(&findings, "unsafe-scope", "crates/demo/src/bad_unsafe.rs");
    assert_eq!((uns[0].line, uns[0].col), (4, 5), "{uns:?}");
    // Display renders clickable file:line:col spans.
    assert_eq!(
        uns[0].to_string(),
        format!(
            "crates/demo/src/bad_unsafe.rs:4:5: [unsafe-scope] {}",
            uns[0].message
        )
    );
}
