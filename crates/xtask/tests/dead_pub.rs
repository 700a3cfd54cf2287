//! No public function without a caller.
//!
//! Every `pub fn` in the non-test code of a product crate (every
//! `crates/*/src` but `bench` and `xtask`) must be named somewhere outside
//! its own body and its own file's `#[cfg(test)]` items: in any
//! `crates/*/src` but `crates/xtask`, or in `tests/`, `examples/`, `src/` or
//! `benchmark/src`. `crates/xtask/src` calls into `crates/sync/src` only, the
//! one workspace crate xtask links, so it counts as a caller there and
//! nowhere else. Sources are lexed, so a
//! name inside a comment or a string is no caller, and neither is another
//! function's definition of the same name. Names are not resolved: any use
//! of the identifier counts, so the check misses a dead function that shares
//! its name with a live one — it never flags a live one.

use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};

use xtask::analyze::lexer::{lex, Token};

/// Crates whose public functions must have a caller.
const DEFINING: [&str; 8] = [
    "crates/core/src",
    "crates/engine/src",
    "crates/sampling/src",
    "crates/server/src",
    "crates/workload/src",
    "crates/sync/src",
    "crates/faults/src",
    "crates/cli/src",
];

/// The one defining tree `crates/xtask/src` may call into.
const XTASK_CALLEE: &str = "crates/sync/src";

/// Trees outside `crates/` a caller may live in.
const CALLER_TREES: [&str; 4] = ["tests", "examples", "src", "benchmark/src"];

/// One lexed source file, comments dropped.
struct Source {
    path: PathBuf,
    text: String,
    toks: Vec<Token>,
}

impl Source {
    fn load(path: PathBuf) -> Self {
        let text = std::fs::read_to_string(&path).expect("readable source");
        let toks = lex(&text).into_iter().filter(|t| !t.is_trivia()).collect();
        Self { path, text, toks }
    }

    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text(&self.text))
    }

    /// One past the last token of the item starting at `i`: its closing
    /// top-level `}`, or its `;` outside any bracket.
    fn item_end(&self, mut i: usize) -> usize {
        let mut depth = 0usize;
        while i < self.toks.len() {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
                ";" if depth == 0 => return i + 1,
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Token ranges of the items under `#[cfg(test)]`, attribute included.
    fn test_items(&self) -> Vec<Range<usize>> {
        const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
        let mut items = Vec::new();
        let mut i = 0;
        while i < self.toks.len() {
            if (0..CFG_TEST.len()).all(|k| self.text(i + k) == CFG_TEST[k]) {
                let end = self.item_end(i + CFG_TEST.len());
                items.push(i..end);
                i = end;
            } else {
                i += 1;
            }
        }
        items
    }

    /// Token ranges of the `use` items: a name a `use` imports or
    /// re-exports is no caller.
    fn use_items(&self) -> Vec<Range<usize>> {
        (0..self.toks.len())
            .filter(|&i| self.text(i) == "use")
            .map(|i| i..self.item_end(i))
            .collect()
    }

    /// `(name token, body)` of every `pub fn` outside `excluded`.
    fn pub_fns(&self, excluded: &[Range<usize>]) -> Vec<(usize, Range<usize>)> {
        let mut fns = Vec::new();
        for i in 0..self.toks.len() {
            if self.text(i) != "pub" || excluded.iter().any(|r| r.contains(&i)) {
                continue;
            }
            let mut f = i + 1;
            while matches!(self.text(f), "const" | "unsafe" | "async") {
                f += 1;
            }
            let name = f + 1;
            let is_ident = self
                .text(name)
                .starts_with(|c: char| c == '_' || c.is_alphabetic());
            if self.text(f) == "fn" && is_ident {
                fns.push((name, i..self.item_end(name)));
            }
        }
        fns
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every public function of the defining crates with no caller, as
/// `path:line name`, relative to `root`.
fn uncalled_pub_fns(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
    {
        rust_files(&krate.path().join("src"), &mut files);
    }
    for tree in CALLER_TREES {
        rust_files(&root.join(tree), &mut files);
    }
    files.sort();
    let sources: Vec<Source> = files.into_iter().map(Source::load).collect();
    let in_tree = |src: &Source, tree: &str| src.path.starts_with(root.join(tree));
    // Every use of every identifier, as (source, token); the name of a
    // function being defined is no use, and neither is a name in a `use`
    // item. A `use` that renames (`NAME as ALIAS`) makes a use of ALIAS
    // one of NAME.
    let mut uses: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    let mut aliases: HashMap<&str, Vec<&str>> = HashMap::new();
    for (s, src) in sources.iter().enumerate() {
        let imports = src.use_items();
        for i in 0..src.toks.len() {
            if imports.iter().any(|r| r.contains(&i)) {
                if src.text(i + 1) == "as" && src.text(i + 2) != "_" {
                    aliases
                        .entry(src.text(i))
                        .or_default()
                        .push(src.text(i + 2));
                }
            } else if src.text(i.wrapping_sub(1)) != "fn" {
                uses.entry(src.text(i)).or_default().push((s, i));
            }
        }
    }

    let mut uncalled = Vec::new();
    for (home, src) in sources.iter().enumerate() {
        if !DEFINING.iter().any(|d| in_tree(src, d)) {
            continue;
        }
        let xtask_calls_in = in_tree(src, XTASK_CALLEE);
        let tests = src.test_items();
        for (name_tok, body) in src.pub_fns(&tests) {
            let name = src.text(name_tok);
            let own = |i: &usize| body.contains(i) || tests.iter().any(|r| r.contains(i));
            let caller = |s: usize| xtask_calls_in || !in_tree(&sources[s], "crates/xtask/src");
            let names =
                std::iter::once(name).chain(aliases.get(name).into_iter().flatten().copied());
            let called = names
                .filter_map(|n| uses.get(n))
                .flatten()
                .any(|&(s, i)| (s != home || !own(&i)) && caller(s));
            if !called {
                let path = src.path.strip_prefix(root).unwrap_or(&src.path);
                let line = src.toks[name_tok].line;
                uncalled.push(format!("{}:{line} {name}", path.display()));
            }
        }
    }
    uncalled
}

#[test]
fn no_public_function_without_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let uncalled = uncalled_pub_fns(&root);
    assert!(
        uncalled.is_empty(),
        "public functions nothing but their own unit tests call; delete them, \
         or move them under #[cfg(test)] if a test needs them:\n  {}",
        uncalled.join("\n  ")
    );
}

#[test]
fn comments_strings_test_items_and_xtask_are_not_callers() {
    let dir = std::env::temp_dir().join(format!("laqy_dead_pub_{}", std::process::id()));
    let write = |rel: &str, text: &str| {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    };
    write(
        "crates/core/src/lib.rs",
        "/// `dead()` is documented here.\n\
         pub fn dead() -> u32 { dead_helper() }\n\
         pub fn live() -> &'static str { \"dead\" }\n\
         pub(crate) fn dead_helper() -> u32 { 1 }\n\
         #[cfg(test)]\n\
         mod tests {\n    #[test]\n    fn t() { super::dead(); }\n}\n",
    );
    write(
        "crates/cli/src/main.rs",
        "fn dead() {}\nfn main() { laqy::live(); }\n",
    );
    // A re-export, and an import nothing calls, are no callers; a call
    // through a renaming import is one.
    write(
        "crates/core/src/reexported.rs",
        "pub fn only_reexported() {}\npub fn imported_and_called() {}\n\
         pub fn called_renamed() {}\n",
    );
    write(
        "crates/engine/src/lib.rs",
        "pub use laqy::reexported::{only_reexported, imported_and_called};\n\
         use laqy::reexported::imported_and_called as _;\n\
         use laqy::reexported::called_renamed as renamed;\n\
         fn f() { imported_and_called(); renamed(); }\n",
    );
    // xtask calls into laqy-sync and nowhere else.
    write("crates/core/src/xtask_only.rs", "pub fn for_xtask() {}\n");
    write("crates/sync/src/lib.rs", "pub fn class_of() {}\n");
    write(
        "crates/xtask/src/main.rs",
        "fn main() { laqy_sync::class_of(); laqy::for_xtask(); }\n",
    );
    let uncalled = uncalled_pub_fns(&dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        uncalled,
        vec![
            "crates/core/src/lib.rs:2 dead".to_string(),
            "crates/core/src/reexported.rs:1 only_reexported".to_string(),
            "crates/core/src/xtask_only.rs:1 for_xtask".to_string(),
        ]
    );
}
