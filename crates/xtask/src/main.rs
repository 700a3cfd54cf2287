//! Workspace task runner. Two tasks:
//!
//! ```text
//! cargo run -p xtask -- lint [ROOT]
//! cargo run -p xtask -- analyze [ROOT]
//! ```
//!
//! `lint` runs the repo-policy lint over the workspace (default: the
//! workspace this xtask binary was built from); `analyze` runs the
//! interprocedural static analyzer (lock order, guard-across-blocking-op,
//! atomic orderings). Both exit non-zero on any finding.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- lint [ROOT]\n\
                     \x20      cargo run -p xtask -- analyze [ROOT]";

fn default_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (task, root) = match args.as_slice() {
        [task] => (task.as_str(), default_root()),
        [task, root] if !root.starts_with('-') => (task.as_str(), PathBuf::from(root)),
        _ => {
            // The first option, else whatever follows ROOT.
            let extra = args.iter().skip(1).find(|a| a.starts_with('-'));
            match extra.or(args.get(2)) {
                Some(extra) => eprintln!("{USAGE}\nunexpected argument: {extra}"),
                None => eprintln!("{USAGE}"),
            }
            return ExitCode::FAILURE;
        }
    };
    let findings = match task {
        "lint" => xtask::lint_tree(&root),
        "analyze" => xtask::analyze::analyze_tree(&root),
        other => {
            eprintln!("{USAGE}\nunknown task: {other:?}");
            return ExitCode::FAILURE;
        }
    };
    match findings {
        Ok(findings) if findings.is_empty() => {
            eprintln!("xtask {task}: clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
            }
            let accept = if task == "analyze" {
                "; fix them, or accept one with a reasoned \
                 `laqy-lint: allow(<rule>) -- <why>` at its site"
            } else {
                ""
            };
            eprintln!("xtask {task}: {} finding(s){accept}", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask {task}: error: {e}");
            ExitCode::FAILURE
        }
    }
}
